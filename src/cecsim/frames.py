"""CEC frame model, the colon-hex text codec, and the opcode sets.

A frame is a header byte (initiator nibble, destination nibble), an optional
opcode byte and up to 14 operand bytes, as lowercase colon hex ("1f:82:30:00");
a frame with no opcode is a polling message.  Each opcode class that devices,
attacks and detector rules key on is defined once, in the sets below.
"""

import enum
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

BROADCAST = 15
FREE_USE = 14
MAX_OPERANDS = 14


class FrameError(ValueError):
    """Raised for structurally invalid frames or unparseable frame text."""


class DeviceType(enum.Enum):
    TELEVISION = "television"
    RECORDING = "recording"
    TUNER = "tuner"
    PLAYBACK = "playback"
    RESERVED = "reserved"
    FREE_USE = "free_use"


# Fixed claim order for logical addresses, by device type.  Reserved types
# never claim an address; everything else falls back to the shared free-use
# address once its own candidates are exhausted.
_TYPE_CANDIDATES = {
    DeviceType.TELEVISION: (0,),
    DeviceType.RECORDING: (1, 2),
    DeviceType.TUNER: (3, 6, 7, 10),
    DeviceType.PLAYBACK: (4, 8, 9, 11),
    DeviceType.RESERVED: (),
    DeviceType.FREE_USE: (),
}

# Operand value of Report Physical Address identifying the reporter's type.
DEVICE_TYPE_OPERAND = {
    DeviceType.TELEVISION: 0x00,
    DeviceType.RECORDING: 0x01,
    DeviceType.RESERVED: 0x02,
    DeviceType.TUNER: 0x03,
    DeviceType.PLAYBACK: 0x04,
    DeviceType.FREE_USE: 0x04,
}


def logical_candidates(device_type: DeviceType) -> tuple[int, ...]:
    """Claim order of logical addresses for a device type."""
    base = _TYPE_CANDIDATES[device_type]
    if device_type is DeviceType.RESERVED:
        return base
    return base + (FREE_USE,)


@dataclass(frozen=True, slots=True)
class PhysicalAddress:
    """Four-nibble HDMI physical address such as 4.0.0.0 or f.f.f.f."""

    nibbles: tuple[int, int, int, int]

    def __post_init__(self):
        if len(self.nibbles) != 4 or not all(0 <= n <= 15 for n in self.nibbles):
            raise FrameError("physical address needs four nibbles in 0..15")

    @classmethod
    def root(cls) -> "PhysicalAddress":
        return cls((0, 0, 0, 0))

    @classmethod
    def unregistered(cls) -> "PhysicalAddress":
        return cls((15, 15, 15, 15))

    @classmethod
    def from_bytes(cls, high: int, low: int) -> "PhysicalAddress":
        return cls((high >> 4, high & 0xF, low >> 4, low & 0xF))

    @property
    def text(self) -> str:
        return ".".join("%x" % n for n in self.nibbles)

    def to_bytes(self) -> tuple[int, int]:
        a, b, c, d = self.nibbles
        return (a << 4 | b, c << 4 | d)

    @property
    def is_unregistered(self) -> bool:
        return self.nibbles == (15, 15, 15, 15)

    def depth(self) -> int:
        """Count of leading non-zero nibbles (tree depth below the root)."""
        d = 0
        for n in self.nibbles:
            if n == 0:
                break
            d += 1
        return d

    def child(self, port: int) -> "PhysicalAddress":
        """Address of the device on the given port: the first zero nibble
        becomes the port number."""
        if not 1 <= port <= 15:
            raise FrameError("port must be 1..15, got %r" % port)
        d = self.depth()
        if d >= 4:
            raise FrameError("no address space left below %s" % self.text)
        nibbles = list(self.nibbles)
        nibbles[d] = port
        return PhysicalAddress(tuple(nibbles))

    def port_towards(self, claimed: "PhysicalAddress") -> int | None:
        """Input port a claimed address maps to, seen from this node.

        The claim must extend this node's non-zero prefix; returns None when
        it does not (the claim is not beneath this node).
        """
        d = self.depth()
        if d >= 4 or self.is_unregistered or claimed.is_unregistered:
            return None
        if claimed.nibbles[:d] != self.nibbles[:d]:
            return None
        port = claimed.nibbles[d]
        return port if port != 0 else None


@dataclass(frozen=True, slots=True)
class CecFrame:
    """One CEC frame: header nibbles plus optional opcode and operands."""

    initiator: int
    destination: int
    opcode: int | None = None
    operands: tuple[int, ...] = ()

    def __post_init__(self):
        if not 0 <= self.initiator <= 15:
            raise FrameError("initiator out of range: %r" % (self.initiator,))
        if not 0 <= self.destination <= 15:
            raise FrameError("destination out of range: %r" % (self.destination,))
        if self.opcode is None:
            if self.operands:
                raise FrameError("polling message cannot carry operands")
        else:
            if not 0 <= self.opcode <= 255:
                raise FrameError("opcode out of range: %r" % (self.opcode,))
        operands = self.operands
        if len(operands) > MAX_OPERANDS:
            raise FrameError("too many operands: %d" % len(operands))
        # Each operand is an int (bools included) in 0..255.  `bytes()` does
        # the range check in C but also takes any object with `__index__`,
        # so the isinstance pass comes first.
        if operands:
            if not all(map(isinstance, operands, repeat(int))):
                raise FrameError("operands must be bytes")
            try:
                bytes(operands)
            except ValueError:
                raise FrameError("operands must be bytes") from None

    @property
    def header(self) -> int:
        return (self.initiator << 4) | self.destination

    @property
    def is_polling(self) -> bool:
        return self.opcode is None

    @property
    def is_broadcast(self) -> bool:
        return self.destination == BROADCAST

    @property
    def text(self) -> str:
        return encode_frame(self)


# Each octet value's text, two lowercase hex digits, indexed by value.
_OCTET_TEXTS = tuple("%02x" % b for b in range(256))

# A whole frame text: ASCII hex octet pairs joined by single colons.  A text
# matches exactly when every colon-separated part, lowercased, is in
# `_OCTET_TEXTS`.  `int(part, 16)` would also take a sign or whitespace
# ("+a", " 2").
_FRAME_TEXT = re.compile(r"[0-9a-fA-F]{2}(?::[0-9a-fA-F]{2})*")


def parse_frame(text: str) -> CecFrame:
    """Parse colon-separated hex text into a CecFrame.

    Raises FrameError naming the offending octet index on bad input.  Each
    distinct text is checked and decoded once (`_frame_fields`), yet every
    call builds a new frame; frames parsed from one text share one operands
    tuple.
    """
    if not isinstance(text, str):
        raise FrameError("empty frame text")
    return CecFrame(*_frame_fields(text))


# A bad text raises, so it is never cached and raises again each time.
@lru_cache(maxsize=256)
def _frame_fields(text: str) -> tuple:
    """`CecFrame` constructor arguments of a checked frame text."""
    text = text.strip()
    if not text:
        raise FrameError("empty frame text")
    if _FRAME_TEXT.fullmatch(text) is None:
        # Some octet is bad: name the first.
        for i, part in enumerate(text.split(":")):
            if part.lower() not in _OCTET_TEXTS:
                if len(part) != 2:
                    raise FrameError("octet %d is not two hex digits: %r" % (i, part))
                raise FrameError("octet %d is not hex: %r" % (i, part))
    octets = bytes.fromhex(text.replace(":", ""))
    if len(octets) > 2 + MAX_OPERANDS:
        raise FrameError("frame longer than %d octets" % (2 + MAX_OPERANDS))
    header = octets[0]
    if len(octets) == 1:
        return (header >> 4, header & 0xF)
    return (header >> 4, header & 0xF, octets[1], tuple(octets[2:]))


def encode_frame(frame: CecFrame) -> str:
    """Canonical lowercase colon-hex text for a frame."""
    if frame.opcode is None:
        return _OCTET_TEXTS[frame.header]
    return bytes((frame.header, frame.opcode, *frame.operands)).hex(":")


# ---------------------------------------------------------------------------
# Opcodes and the opcode sets that attacks and detector rules key on
# ---------------------------------------------------------------------------

OP_FEATURE_ABORT = 0x00
OP_IMAGE_VIEW_ON = 0x04
OP_SET_MENU_LANGUAGE = 0x32
OP_STANDBY = 0x36
OP_GIVE_OSD_NAME = 0x46
OP_SET_OSD_NAME = 0x47
OP_ROUTING_CHANGE = 0x80
OP_ACTIVE_SOURCE = 0x82
OP_GIVE_PHYSICAL_ADDRESS = 0x83
OP_REPORT_PHYSICAL_ADDRESS = 0x84
OP_REQUEST_ACTIVE_SOURCE = 0x85
OP_DEVICE_VENDOR_ID = 0x87
OP_GIVE_VENDOR_ID = 0x8C
OP_GIVE_POWER_STATUS = 0x8F
OP_REPORT_POWER_STATUS = 0x90
OP_GET_MENU_LANGUAGE = 0x91
OP_CEC_VERSION = 0x9E
OP_GET_CEC_VERSION = 0x9F

# Queries a scan sends to each discovered address, and the responses they
# should produce.
QUERY_OPCODES = (
    OP_GIVE_PHYSICAL_ADDRESS,
    OP_GIVE_OSD_NAME,
    OP_GIVE_VENDOR_ID,
    OP_GIVE_POWER_STATUS,
    OP_GET_CEC_VERSION,
    OP_GET_MENU_LANGUAGE,
)

# Opcodes that change what a device shows or whether it is awake.
CONTROL_OPCODES = (
    OP_IMAGE_VIEW_ON,
    OP_STANDBY,
    OP_ROUTING_CHANGE,
    OP_ACTIVE_SOURCE,
)

# Broadcasts a device makes as it wakes up; they trigger targeted standby.
ANNOUNCE_OPCODES = (
    OP_REPORT_PHYSICAL_ADDRESS,
    OP_DEVICE_VENDOR_ID,
    OP_ROUTING_CHANGE,
)

# Claims that switch a display's input; a burst of them is input churn.
CHURN_OPCODES = (
    OP_IMAGE_VIEW_ON,
    OP_ACTIVE_SOURCE,
)

# Frames that only ever answer an earlier request or announce state.  No
# device reacts to these; the interested party (a scan, a covert session)
# picks them off the shared wire.  Opcode 0x00 stays here on purpose: it is
# both Feature Abort and the covert data opcode, and aborting it back would
# loop or corrupt a transfer.
RESPONSE_OPCODES = frozenset(
    {
        OP_FEATURE_ABORT,
        OP_SET_MENU_LANGUAGE,
        OP_SET_OSD_NAME,
        OP_REPORT_PHYSICAL_ADDRESS,
        OP_DEVICE_VENDOR_ID,
        OP_REPORT_POWER_STATUS,
        OP_CEC_VERSION,
    }
)


class PowerState(enum.Enum):
    ON = "on"
    STANDBY = "standby"


POWER_STATUS_OPERAND = {
    PowerState.ON: 0x00,
    PowerState.STANDBY: 0x01,
}

CEC_VERSION_OPERAND = {"1.3a": 0x04, "1.4": 0x05}

_VERSION_BY_OPERAND = {v: k for k, v in CEC_VERSION_OPERAND.items()}


def cec_version_name(operand: int) -> str:
    return _VERSION_BY_OPERAND.get(operand, "0x%02x" % operand)


# Known CEC vendor identifiers.  Anything absent renders as "Unk", matching
# what libCEC-style scan output shows for unrecognised vendors.
VENDOR_NAMES = {
    0x001582: "Pulse-Eight",
    0x001A11: "Google",
    0x080046: "Sony",
}


def vendor_name(vendor_id: int, extra: dict[int, str] | None = None) -> str:
    if extra and vendor_id in extra:
        return extra[vendor_id]
    return VENDOR_NAMES.get(vendor_id, "Unk")


def parse_vendor_id(value) -> int:
    """Vendor id from an int (not a bool), "aabbcc" hex text, or "aa:bb:cc" text."""
    if type(value) is int:
        vid = value
    else:
        text = str(value).strip().replace(":", "")
        try:
            vid = int(text, 16)
        except ValueError:
            raise FrameError("bad vendor id %r" % value) from None
    if not 0 <= vid <= 0xFFFFFF:
        raise FrameError("vendor id out of range: %r" % value)
    return vid


def vendor_id_bytes(vendor_id: int) -> tuple[int, int, int]:
    return ((vendor_id >> 16) & 0xFF, (vendor_id >> 8) & 0xFF, vendor_id & 0xFF)
