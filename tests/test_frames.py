"""Frame codec tests: parsing, encoding, addressing tables, value types."""

import dataclasses
import inspect
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cecsim.bus import Simulator
from cecsim.devices import DeviceState, react
from cecsim.frames import (
    _OCTET_TEXTS,
    OP_GIVE_VENDOR_ID,
    CecFrame,
    DeviceType,
    FrameError,
    PhysicalAddress,
    PowerState,
    encode_frame,
    logical_candidates,
    parse_frame,
    parse_vendor_id,
    vendor_name,
)

from conftest import build_testbed


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

@st.composite
def frames(draw):
    initiator = draw(st.integers(0, 15))
    destination = draw(st.integers(0, 15))
    if draw(st.booleans()):
        return CecFrame(initiator, destination)
    opcode = draw(st.integers(0, 255))
    return CecFrame(initiator, destination, opcode, draw(st.binary(max_size=14)))


@st.composite
def frame_texts(draw):
    octets = draw(st.lists(st.integers(0, 255), min_size=1, max_size=16))
    return ":".join("%02x" % b for b in octets)


class _IndexOnly:
    """Has `__index__`, so `bytes()` takes it, but is no int."""

    def __index__(self):
        return 7


# Operands of every kind a caller might pass, valid or not.  The str and
# bytes items are drawn from fixed examples: Hypothesis then caches their
# indices, where drawn `''` and `b''` would meet as equal-hashing cache keys
# and compare, which `python -bb` turns into an error.
_operand_items = st.one_of(
    st.integers(-300, 300),
    st.booleans(),
    st.floats(),
    st.none(),
    st.sampled_from(("", "é", b"", b"\x00")),
    st.just(_IndexOnly()),
)


_REFERENCE_OCTETS = {"%02x" % b: b for b in range(256)}


def _reference_parse(text):
    """`parse_frame` as a loop over the octets, each looked up lowercased."""
    if not isinstance(text, str) or not text.strip():
        raise FrameError("empty frame text")
    octets = []
    for i, part in enumerate(text.strip().split(":")):
        value = _REFERENCE_OCTETS.get(part.lower())
        if value is None:
            if len(part) != 2:
                raise FrameError("octet %d is not two hex digits: %r" % (i, part))
            raise FrameError("octet %d is not hex: %r" % (i, part))
        octets.append(value)
    if len(octets) > 16:
        raise FrameError("frame longer than 16 octets")
    header = octets[0]
    return CecFrame(
        initiator=header >> 4,
        destination=header & 0xF,
        opcode=octets[1] if len(octets) > 1 else None,
        operands=bytes(octets[2:]),
    )


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except FrameError as exc:
        return type(exc), str(exc)


# Parts of a frame text: mostly mixed-case octets, else parts of 0, 1 or 3
# hex digits (an empty part makes a doubled, leading or trailing colon), or
# parts with whitespace, a sign, a prefix or non-ASCII digits.
_good_octets = st.from_regex(r"[0-9a-fA-F]{2}", fullmatch=True)
_bad_parts = st.one_of(
    st.sampled_from(["", " ", "+a", "-1", "+1f", " 2", "2 ", "1\t", "0x", "g0", "Ff0"]),
    st.from_regex(r"[0-9a-fA-F]|[0-9a-fA-F]{3}", fullmatch=True),
    st.sampled_from(["\u0661\u0662", "1\u0663", "\uff11\uff12", "\u00e9f", "\u00a01"]),
)
_outer_space = st.sampled_from(["", " ", "  ", "\t", "\n", " \r\n", "\u00a0", "\u3000"])


@st.composite
def odd_frame_texts(draw):
    parts = draw(st.lists(
        st.integers(0, 9).flatmap(lambda k: _good_octets if k else _bad_parts),
        min_size=1, max_size=19,
    ))
    return draw(_outer_space) + ":".join(parts) + draw(_outer_space)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

class TestParse:
    def test_directed_opcode_only(self):
        frame = parse_frame("20:36")
        assert frame.initiator == 2
        assert frame.destination == 0
        assert frame.opcode == 0x36
        assert frame.operands == b""
        assert not frame.is_broadcast
        assert not frame.is_polling

    def test_header_only_is_polling(self):
        frame = parse_frame("44")
        assert frame.initiator == 4
        assert frame.destination == 4
        assert frame.opcode is None
        assert frame.is_polling

    def test_broadcast_with_operands(self):
        frame = parse_frame("1f:82:30:00")
        assert frame.initiator == 1
        assert frame.destination == 15
        assert frame.is_broadcast
        assert frame.opcode == 0x82
        assert frame.operands == bytes((0x30, 0x00))

    def test_uppercase_and_whitespace_tolerated(self):
        assert parse_frame(" 1F:82:30:00 ") == parse_frame("1f:82:30:00")
        assert parse_frame("1F:82:aB:Cd").text == "1f:82:ab:cd"

    @pytest.mark.parametrize(
        "text, octet",
        [("zz:00", 0), ("10:gg", 1), ("20:36:fff", 2)],
    )
    def test_bad_text_names_octet(self, text, octet):
        with pytest.raises(FrameError) as err:
            parse_frame(text)
        assert str(octet) in str(err.value)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1f:+a", "octet 1 is not hex: '+a'"),
            ("+f:82", "octet 0 is not hex: '+f'"),
            ("1f: 2", "octet 1 is not hex: ' 2'"),
            ("1f:-1", "octet 1 is not hex: '-1'"),
            ("1f:0x", "octet 1 is not hex: '0x'"),
            ("1f:\u0661\u0662", "octet 1 is not hex"),
        ],
    )
    def test_sign_space_and_non_ascii_digits_rejected(self, text, message):
        with pytest.raises(FrameError, match="^" + re.escape(message)):
            parse_frame(text)

    def test_empty_text_rejected(self):
        with pytest.raises(FrameError):
            parse_frame("")

    def test_too_many_operands_rejected(self):
        text = ":".join(["1f", "82"] + ["00"] * 15)
        with pytest.raises(FrameError):
            parse_frame(text)

    @given(odd_frame_texts() | frame_texts())
    @settings(deadline=None, max_examples=500)
    @example(text="1f::82")
    @example(text=":1f:82")
    @example(text="1f:82:")
    @example(text="\u00a01F:82:aB\t")
    @example(text=":".join(["00"] * 17))
    @example(text=":".join(["00"] * 18 + ["zz"]))
    @example(text="")
    @example(text=" \n")
    @example(text=None)
    def test_parse_matches_the_per_octet_reference(self, text):
        expected = _parse_outcome(_reference_parse, text)
        first, again = (_parse_outcome(parse_frame, text) for _ in range(2))
        assert first == expected and again == expected
        if isinstance(expected, CecFrame):
            # A seen text still makes a new frame, sharing the first one's operands.
            assert again is not first and again.operands is first.operands

    @pytest.mark.parametrize(
        "opcode, operands, message",
        [(256, (), "opcode out of range: 256"), (0x82, (0,) * 15, "too many operands: 15")],
    )
    def test_constructor_rejects_what_no_frame_holds(self, opcode, operands, message):
        with pytest.raises(FrameError, match="^%s$" % message):
            CecFrame(1, 15, opcode, bytes(operands))


class TestEncode:
    @pytest.mark.parametrize(
        "frame, text",
        [
            (CecFrame(2, 0, 0x36), "20:36"),
            (CecFrame(4, 4), "44"),
            (CecFrame(1, 15, 0x82, b"\x30\x00"), "1f:82:30:00"),
            (CecFrame(0, 15, 0x84, b"\x00\x00\x00"), "0f:84:00:00:00"),
        ],
    )
    def test_known_encodings(self, frame, text):
        assert encode_frame(frame) == text
        assert frame.text == text

    def test_operands_without_opcode_rejected(self):
        with pytest.raises(FrameError):
            CecFrame(1, 2, None, b"\x30")

    def test_address_range_enforced(self):
        with pytest.raises(FrameError):
            CecFrame(16, 0, 0x36)
        with pytest.raises(FrameError):
            CecFrame(0, -1, 0x36)

    @given(st.lists(_operand_items, max_size=14), st.sampled_from([tuple, list]))
    @example([True, 0, 255], tuple)
    @example([], tuple)
    @example([_IndexOnly()], list)
    @settings(deadline=None, max_examples=100)
    def test_operand_check_refuses_every_tuple_and_list(self, items, kind):
        with pytest.raises(FrameError, match="^operands must be bytes$"):
            CecFrame(1, 0, 0x47, kind(items))

    @given(frames())
    @settings(deadline=None)
    def test_bytes_are_the_only_operand_form(self, frame):
        octets = frame.operands
        assert type(octets) is bytes
        assert CecFrame(frame.initiator, frame.destination, frame.opcode, octets) == frame
        for other in (tuple(octets), list(octets), bytearray(octets)):
            with pytest.raises(FrameError, match="^operands must be bytes$"):
                CecFrame(frame.initiator, frame.destination, frame.opcode, other)

    @pytest.mark.parametrize(
        "operands",
        [
            (0x54, 0x56),
            [0x54, 0x56],
            bytearray(b"TV"),
            type("Octets", (bytes,), {})(b"TV"),
            memoryview(b"TV"),
            "TV",
            5,
            None,
        ],
        ids=["tuple", "list", "bytearray", "Octets", "memoryview", "str", "int", "None"],
    )
    def test_operands_of_another_type_are_refused(self, operands):
        for opcode in (None, 0x47):
            with pytest.raises(FrameError, match="^operands must be bytes$"):
                CecFrame(1, 0, opcode, operands)

    @pytest.mark.parametrize(
        "opcode, operands, message",
        [
            (None, (0x30,), "polling message cannot carry operands"),
            (0x47, tuple(range(15)), "too many operands: 15"),
        ],
    )
    def test_bytes_operands_are_refused_as_ints_are(self, opcode, operands, message):
        with pytest.raises(FrameError, match="^operands must be bytes$"):
            CecFrame(1, 0, opcode, operands)
        with pytest.raises(FrameError, match=message):
            CecFrame(1, 0, opcode, bytes(operands))

    @given(frames())
    @settings(deadline=None)
    def test_roundtrip_frame_to_text(self, frame):
        assert parse_frame(encode_frame(frame)) == frame

    @given(frame_texts())
    @settings(deadline=None)
    def test_roundtrip_text_to_frame(self, text):
        assert encode_frame(parse_frame(text)) == text

    @given(frames())
    @settings(deadline=None)
    def test_encoding_matches_per_octet_join(self, frame):
        # The reference: each octet's own two hex digits, joined by colons.
        octets = [frame.header]
        if frame.opcode is not None:
            octets += [frame.opcode, *frame.operands]
        assert encode_frame(frame) == ":".join([_OCTET_TEXTS[b] for b in octets])


# ---------------------------------------------------------------------------
# Logical address table
# ---------------------------------------------------------------------------

class TestLogicalCandidates:
    @pytest.mark.parametrize(
        "device_type, expected",
        [
            (DeviceType.TELEVISION, (0, 14)),
            (DeviceType.RECORDING, (1, 2, 14)),
            (DeviceType.TUNER, (3, 6, 7, 10, 14)),
            (DeviceType.PLAYBACK, (4, 8, 9, 11, 14)),
            (DeviceType.RESERVED, ()),
            (DeviceType.FREE_USE, (14,)),
        ],
    )
    def test_candidate_table(self, device_type, expected):
        assert logical_candidates(device_type) == expected

    def test_candidates_disjoint_below_fallback(self):
        seen = {}
        for device_type in DeviceType:
            for addr in logical_candidates(device_type):
                if addr == 14:
                    continue
                assert addr not in seen, "address %d claimed by two types" % addr
                seen[addr] = device_type
        assert 15 not in seen


# ---------------------------------------------------------------------------
# Physical addresses
# ---------------------------------------------------------------------------

class TestPhysicalAddress:
    def test_root_and_text(self):
        assert PhysicalAddress.root().text == "0.0.0.0"
        assert PhysicalAddress((4, 2, 0, 0)).text == "4.2.0.0"

    def test_child_fills_first_zero(self):
        root = PhysicalAddress.root()
        assert root.child(4).text == "4.0.0.0"
        assert root.child(4).child(2).text == "4.2.0.0"

    def test_depth(self):
        assert PhysicalAddress.root().depth() == 0
        assert PhysicalAddress((4, 2, 0, 0)).depth() == 2
        assert PhysicalAddress((1, 2, 3, 4)).depth() == 4

    def test_child_beyond_depth_rejected(self):
        deep = PhysicalAddress((1, 2, 3, 4))
        with pytest.raises(FrameError):
            deep.child(1)

    def test_bytes_roundtrip(self):
        addr = PhysicalAddress((4, 2, 0, 0))
        assert addr.to_bytes() == bytes((0x42, 0x00))
        assert PhysicalAddress.from_bytes(0x42, 0x00) == addr

    def test_unregistered(self):
        addr = PhysicalAddress.unregistered()
        assert addr.text == "f.f.f.f"
        assert addr.is_unregistered

    def test_port_towards(self):
        own = PhysicalAddress.root()
        assert own.port_towards(PhysicalAddress((3, 0, 0, 0))) == 3
        assert own.port_towards(PhysicalAddress((4, 2, 0, 0))) == 4
        mid = PhysicalAddress((4, 0, 0, 0))
        assert mid.port_towards(PhysicalAddress((4, 2, 0, 0))) == 2
        assert own.port_towards(PhysicalAddress.unregistered()) is None
        # a claim outside the node's prefix is not beneath it
        assert mid.port_towards(PhysicalAddress((3, 2, 0, 0))) is None

    def test_child_port_zero_rejected(self):
        with pytest.raises(FrameError, match="port must be 1..15, got 0"):
            PhysicalAddress.root().child(0)

    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(deadline=None, max_examples=100)
    def test_from_bytes_equals_a_fresh_address(self, high, low):
        fresh = PhysicalAddress((high >> 4, high & 0xF, low >> 4, low & 0xF))
        for _ in range(2):
            decoded = PhysicalAddress.from_bytes(high, low)
            assert decoded == fresh and decoded.to_bytes() == bytes((high, low))

    @pytest.mark.parametrize("pair", [(256, 0), (0, 256), (-1, 0), (0x42, -16)])
    def test_from_bytes_rejects_on_every_call(self, pair):
        for _ in range(3):
            with pytest.raises(FrameError):
                PhysicalAddress.from_bytes(*pair)

    @given(st.tuples(*[st.integers(0, 15)] * 4))
    @settings(deadline=None)
    def test_parse_text_roundtrip(self, nibbles):
        # The text is four lowercase hex digits joined by dots, and reads back.
        text = PhysicalAddress(nibbles).text
        assert text == "%x.%x.%x.%x" % nibbles
        assert tuple(int(part, 16) for part in text.split(".")) == nibbles


# ---------------------------------------------------------------------------
# Vendor ids
# ---------------------------------------------------------------------------

class TestVendorIds:
    def test_known_names(self):
        assert vendor_name(0x001582) == "Pulse-Eight"
        assert vendor_name(0x001A11) == "Google"
        assert vendor_name(0x080046) == "Sony"

    def test_unknown_renders_unk(self):
        assert vendor_name(0x1F0008) == "Unk"

    def test_extra_table_wins(self):
        assert vendor_name(0x123456, {0x123456: "Lab"}) == "Lab"

    @pytest.mark.parametrize("value", ["001582", "00:15:82", 0x001582])
    def test_parse_forms(self, value):
        assert parse_vendor_id(value) == 0x001582

    def test_bytes(self):
        # A Device Vendor Id reply carries the id's three octets, most
        # significant first.
        sim = Simulator(build_testbed())
        sim.start()
        ctx = sim.device_ctx("chromecast")
        ctx = dataclasses.replace(ctx, node=dataclasses.replace(ctx.node, vendor_id=0x1A2B3C))
        query = CecFrame(0, ctx.logical, OP_GIVE_VENDOR_ID)
        reply = react(ctx, sim.device_states["chromecast"], query).responses[0]
        assert reply.operands == b"\x1a\x2b\x3c"

    def test_parse_rejects_more_than_24_bits(self):
        with pytest.raises(FrameError, match="vendor id out of range"):
            parse_vendor_id(0x1000000)


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------

VALUES = [
    CecFrame(4, 0, 0x82, b"\x10\x00"),
    CecFrame(4, 4),
    PhysicalAddress((1, 2, 0, 0)),
    DeviceState(PowerState.STANDBY, True, 3),
]


class TestValueTypes:
    """Frames, addresses and device states are slotted and frozen."""

    @pytest.mark.parametrize("value", VALUES, ids=repr)
    def test_no_instance_dict(self, value):
        assert not hasattr(value, "__dict__")
        assert type(value).__slots__ == tuple(f.name for f in dataclasses.fields(value))

    @pytest.mark.parametrize("value", VALUES, ids=repr)
    def test_fields_refuse_assignment(self, value):
        for field in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, field.name, getattr(value, field.name))
        # A name that is no field is refused too, though Python 3.11's
        # frozen `__setattr__` says so with TypeError on a slotted class.
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
            value.extra = 1
        assert not hasattr(value, "extra")

    @pytest.mark.parametrize("value", VALUES, ids=repr)
    def test_replace_gives_an_equal_instance(self, value):
        copy = dataclasses.replace(value)
        assert copy is not value
        assert copy == value and hash(copy) == hash(value)

    def test_replace_still_validates(self):
        with pytest.raises(FrameError):
            dataclasses.replace(CecFrame(4, 0), initiator=16)
        assert dataclasses.replace(CecFrame(4, 0), opcode=0x36) == parse_frame("40:36")


class TestConstructor:
    """`CecFrame.__init__` stores the fields; `__post_init__` is the one check."""

    def test_each_frame_is_checked_exactly_once(self, monkeypatch):
        checked = []
        check = CecFrame.__post_init__

        def counting(frame):
            checked.append(frame)
            check(frame)

        monkeypatch.setattr(CecFrame, "__post_init__", counting)
        built = CecFrame(1, 4, 0, b"data")
        parsed = parse_frame("14:00:64:61:74:61")
        replaced = dataclasses.replace(built, opcode=0x47)
        assert [id(f) for f in checked] == [id(built), id(parsed), id(replaced)]

    @given(frames())
    @settings(deadline=None)
    def test_keywords_build_the_frame_positions_build(self, frame):
        i, d, o, ops = frame.initiator, frame.destination, frame.opcode, frame.operands
        assert CecFrame(i, d, o, ops) == frame
        assert CecFrame(initiator=i, destination=d, opcode=o, operands=ops) == frame
        assert CecFrame(i, d, operands=ops, opcode=o) == frame
        if o is None:
            assert CecFrame(i, d) == frame

    @pytest.mark.parametrize(
        "args, message",
        [
            ((16, 16, 300, b"x" * 15), "initiator out of range: 16"),
            ((0, 16, 300, b"x" * 15), "destination out of range: 16"),
            ((0, 0, 300, [1] * 15), "operands must be bytes"),
            ((0, 0, None, b"x" * 15), "polling message cannot carry operands"),
            ((0, 0, 300, b"x" * 15), "opcode out of range: 300"),
            ((0, 0, 0x47, b"x" * 15), "too many operands: 15"),
        ],
    )
    def test_the_first_bad_field_in_check_order_is_named(self, args, message):
        with pytest.raises(FrameError, match="^%s$" % re.escape(message)):
            CecFrame(*args)

    def test_signature_lists_the_fields_with_their_defaults(self):
        parameters = inspect.signature(CecFrame).parameters.values()
        empty = inspect.Parameter.empty
        assert [(p.name, p.default) for p in parameters] == [
            ("initiator", empty), ("destination", empty), ("opcode", None), ("operands", b""),
        ]
        assert [p.name for p in parameters] == [f.name for f in dataclasses.fields(CecFrame)]
