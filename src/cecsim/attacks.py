"""Attack orchestration on top of the bus: device census, sniff-and-kill
standby, input-churn flooding, and the marker frames that arm them.

Everything here runs from the hidden in-line device.  A census walk polls
all fifteen logical addresses, interrogates whoever answered, and folds
the answers into a report suitable for leaking later.  The two denial
attacks are armed either by marker frames from an accomplice on the bus or
through the command relay.
"""

import functools
import json
import logging
from dataclasses import dataclass, field

from cecsim import frames as fr
from cecsim.bus import Actor, BusEvent, Simulator
from cecsim.frames import CecFrame, PhysicalAddress, PowerState, parse_frame, vendor_name
from cecsim.transfer import FileSender, PayloadStore

log = logging.getLogger(__name__)

ARM_TARGETED_MARKER = parse_frame("cc:cc:cc:cc")
ARM_BROADCAST_MARKER = parse_frame("dd:dd:dd:dd")

# Columns of the census report, in render order.  A census row is a dict
# keyed by them, "Unk" where nobody answered.
REPORT_FIELDS = ("P. Addr", "Active", "Vendor", "OSD Str", "CEC Ver", "Pow Status", "Language")

# Every power status operand: no device enters 0x02 or 0x03, but frames may.
_POWER_RENDER = {0x00: "ON", 0x01: "Standby", 0x02: "To-On", 0x03: "To-Standby"}


@dataclass
class ScanReport:
    actor: str
    entries: dict[int, dict[str, str]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"Addr %02X" % addr: dict(self.entries[addr]) for addr in sorted(self.entries)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def render_table(self) -> str:
        addrs = sorted(self.entries)
        headers = ["Info"] + ["Addr %02X" % a for a in addrs]
        rows = [[name] + [self.entries[a][name] for a in addrs] for name in REPORT_FIELDS]
        widths = [
            max(len(str(line[i])) for line in [headers] + rows) for i in range(len(headers))
        ]
        render = lambda line: " | ".join(str(v).ljust(w) for v, w in zip(line, widths))
        divider = "-+-".join("-" * w for w in widths)
        return "\n".join([render(headers), divider] + [render(r) for r in rows]) + "\n"


class ScanWalk(Actor):
    """Census of the bus: poll 0..14, then question every responder.

    Each tick sends the next frame of `_walk`, or nothing.  The walker
    itself is part of the report; its own row comes from local state since
    nobody answers a self-poll.  It hears every frame until the report is
    made; then the walker leaves the simulator.
    """

    def __init__(self, device: str, on_complete=None):
        super().__init__(device)
        self.on_complete = on_complete
        self._polling = True
        self._steps = iter(())
        self._acked: list[int] = []
        self._rows: dict[int, dict[str, str]] = {}
        self._active_claimant: int | None = None

    def start(self, sim: Simulator):
        """Walk a started simulator; `on_complete(report)` gets the report."""
        own = sim.logical[self.device]
        sim.add_actor(self)
        self._steps = self._walk(sim, own)
        sim.wake(self)

    def _walk(self, sim: Simulator, own: int | None):
        """One item per tick: a frame to send, or None for a quiet tick."""
        for target in range(15):
            yield CecFrame(target if own is None else own, target)
        # Every poll has been answered by now; no more acks are counted.
        self._polling = False
        yield None
        if own is not None:
            for addr in self._acked:
                if addr != own:
                    for opcode in fr.QUERY_OPCODES:
                        yield CecFrame(own, addr, opcode)
            yield CecFrame(own, fr.BROADCAST, fr.OP_REQUEST_ACTIVE_SOURCE)
            # This tick and the next stay quiet while the active source answers.
            yield None
        yield None
        self._finalize(sim, own)

    def on_tick(self, sim: Simulator, tick: int):
        frame = next(self._steps, None)
        if frame is not None:
            sim.transmit_at(tick, self.device, frame)

    def on_event(self, sim: Simulator, event: BusEvent):
        frame = event.frame
        if event.origin == self.device:
            if frame.is_polling and self._polling:
                if event.acknowledged and frame.destination not in self._acked:
                    self._acked.append(frame.destination)
            return
        source = frame.initiator
        row = self._rows.setdefault(source, dict.fromkeys(REPORT_FIELDS, "Unk"))
        op, operands = frame.opcode, frame.operands
        if op == fr.OP_REPORT_PHYSICAL_ADDRESS and len(operands) == 3:
            row["P. Addr"] = PhysicalAddress.from_bytes(operands[0], operands[1]).text
        elif op == fr.OP_SET_OSD_NAME and operands:
            row["OSD Str"] = operands.decode("ascii", errors="replace")
        elif op == fr.OP_DEVICE_VENDOR_ID and len(operands) == 3:
            vid = int.from_bytes(operands, "big")
            row["Vendor"] = vendor_name(vid, sim.topology.vendor_names)
        elif op == fr.OP_REPORT_POWER_STATUS and len(operands) == 1:
            row["Pow Status"] = _POWER_RENDER.get(operands[0], "Unk")
        elif op == fr.OP_CEC_VERSION and len(operands) == 1:
            row["CEC Ver"] = fr.cec_version_name(operands[0])
        elif op == fr.OP_SET_MENU_LANGUAGE and len(operands) == 3:
            row["Language"] = operands.decode("ascii", errors="replace")
        elif op == fr.OP_ACTIVE_SOURCE:
            self._active_claimant = source

    def _finalize(self, sim: Simulator, own: int | None):
        sim.remove_actor(self)
        report = ScanReport(actor=self.device)
        addresses = list(self._acked)
        if own is not None and own not in addresses:
            addresses.append(own)
        state = sim.device_states[self.device]
        if self._active_claimant is None and state.active_source and own is not None:
            self._active_claimant = own
        for addr in sorted(addresses):
            row = self._rows.get(addr) or dict.fromkeys(REPORT_FIELDS, "Unk")
            if addr == own:
                node = sim.topology.nodes[self.device]
                row.update({
                    "P. Addr": sim.topology.physical[self.device].text,
                    "Vendor": vendor_name(node.vendor_id, sim.topology.vendor_names),
                    "OSD Str": node.osd_name,
                    "CEC Ver": node.cec_version,
                    "Pow Status": "ON" if state.power is PowerState.ON else "Standby",
                    "Language": node.menu_language or "Unk",
                })
            row["Active"] = "Yes" if addr == self._active_claimant else "No"
            report.entries[addr] = row
        sim.scan_reports.append(report)
        log.info("%s census finished with %d entries", self.device, len(report.entries))
        if self.on_complete is not None:
            self.on_complete(report)


class TargetedDos(Actor):
    """Sniff for wake-up chatter and put the target straight back into
    standby.  The exact targeted marker from another device sets `armed`;
    once armed it stays armed and re-fires every time."""

    hears = frozenset((*fr.ANNOUNCE_OPCODES, ARM_TARGETED_MARKER.opcode))

    def __init__(self, device: str):
        super().__init__(device)
        self.target_address = 0
        self.armed = False

    def on_event(self, sim: Simulator, event: BusEvent):
        frame = event.frame
        if event.origin == self.device:
            return
        if frame.opcode == ARM_TARGETED_MARKER.opcode:
            self.armed = self.armed or frame == ARM_TARGETED_MARKER
        elif self.armed and (own := sim.logical.get(self.device)) is not None:
            standby = CecFrame(own, self.target_address, fr.OP_STANDBY)
            sim.transmit_at(sim.clock + 1, self.device, standby)


CLAIMED_PORTS = (1, 2, 3, 4)


@functools.cache
def _churn_cycle(own: int) -> tuple[CecFrame, ...]:
    """The input-churn loop's frames, built once per address (at most 16).
    Frames are immutable, so every run shares them.  CEC fixes the display at
    logical address 0."""
    frames = [CecFrame(own, 0, fr.OP_IMAGE_VIEW_ON)]
    for port in CLAIMED_PORTS:
        claim = PhysicalAddress((port, 0, 0, 0))
        frames.append(CecFrame(own, fr.BROADCAST, fr.OP_ACTIVE_SOURCE, claim.to_bytes()))
    return tuple(frames)


class BroadcastDos(Actor):
    """Five-frame input-churn loop: wake the display, then walk its inputs
    with forged active-source claims, one frame per tick, while `active`.
    The exact broadcast marker from another device activates it."""

    hears = frozenset((ARM_BROADCAST_MARKER.opcode,))

    def __init__(self, device: str):
        super().__init__(device)
        self.active = False
        self._index = 0

    def activate(self, sim: Simulator):
        if not self.active:
            self.active = True
            log.info("%s input-churn loop armed", self.device)
        sim.wake(self)

    def on_event(self, sim: Simulator, event: BusEvent):
        if event.origin != self.device and event.frame == ARM_BROADCAST_MARKER:
            self.activate(sim)

    def on_tick(self, sim: Simulator, tick: int):
        own = sim.logical.get(self.device)
        # A device with no logical address never gets one during a run.
        if not self.active or own is None:
            sim.rest(self)
            return
        cycle = _churn_cycle(own)
        sim.transmit_at(tick, self.device, cycle[self._index])
        self._index = (self._index + 1) % len(cycle)


class AttackController:
    """The hidden listener's services, for a scenario and the relay to
    drive: targeted standby, input churn, the covert file sender, and
    census walks whose report lands in the store.  Each service hears the
    marker that arms it; the relay sets the same flags."""

    def __init__(self, device: str, store: PayloadStore):
        self.device = device
        self.store = store
        self.targeted = TargetedDos(device)
        self.broadcast = BroadcastDos(device)
        self.sender = FileSender(device, store)

    def register(self, sim: Simulator):
        """Add every service of the listener to the simulator."""
        for actor in (self.targeted, self.broadcast, self.sender):
            sim.add_actor(actor)

    def start_scan(self, sim: Simulator, on_complete=None):
        def finish(report):
            self.store.scan_report = report.to_json().encode("ascii")
            if on_complete is not None:
                on_complete(report)

        ScanWalk(self.device, on_complete=finish).start(sim)
