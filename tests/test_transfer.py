"""Covert file channel: segmentation, reassembly, failure handling."""

import math
import os
import stat
import tracemalloc
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cecsim.bus import Simulator, TransferRecord
from cecsim.frames import CecFrame, parse_frame
from cecsim.scenarios import builtin_scenario, run_scenario
from cecsim.topology import build_topology
from cecsim.transfer import (
    DATA_OPCODE,
    END_MARKER,
    FileReceiver,
    FileSender,
    INACTIVITY_TIMEOUT,
    MAX_PAYLOAD,
    MAX_UNACKED,
    MIC_MARKER,
    PayloadStore,
    REQUEST_MARKER,
    SEGMENT_BYTES,
    payload_digest,
    serialize_payload,
    write_transfer_artifacts,
)

from conftest import near_misses, segment_count


def channel_topology(unaddressed=()):
    """tv with spy on port 1 and pc on port 2; the nodes named in
    `unaddressed` claim no logical address."""
    nodes = [
        {"id": "tv", "kind": "display", "device_type": "television", "osd_name": "TV"},
        {"id": "spy", "kind": "attacker_listener", "device_type": "recording",
         "osd_name": "SPY", "edid_address_available": False},
        {"id": "pc", "kind": "source", "device_type": "recording", "osd_name": "PC"},
    ]
    for node in nodes:
        if node["id"] in unaddressed:
            node["cec_addressed"] = False
    return build_topology(
        {
            "nodes": nodes,
            "edges": [
                {"parent": "tv", "child": "spy", "port": 1},
                {"parent": "tv", "child": "pc", "port": 2},
            ],
        }
    )


def lone_receiver():
    """A receiver on the channel with no sender to answer it."""
    sim = Simulator(channel_topology())
    receiver = FileReceiver("pc")
    sim.add_actor(receiver)
    sim.start()
    return sim, receiver


class CountingReceiver(FileReceiver):
    """A receiver that records the ticks of its `on_tick` calls."""

    def __init__(self, device: str):
        super().__init__(device)
        self.ticks = []

    def on_tick(self, sim, tick):
        self.ticks.append(tick)
        super().on_tick(sim, tick)


def wired_sim(payload: bytes, seed=0):
    sim = Simulator(channel_topology())
    store = PayloadStore(seed=seed)
    store.capture = payload
    sender = FileSender("spy", store)
    receiver = FileReceiver("pc")
    sim.add_actor(sender)
    sim.add_actor(receiver)
    sim.start()
    return sim, sender, receiver, store


# ---------------------------------------------------------------------------
# Segmentation
# ---------------------------------------------------------------------------

class TestSegmentation:
    @pytest.mark.parametrize(
        "size, segments",
        [(0, 0), (1, 1), (14, 1), (15, 2), (28, 2), (29, 3), (2048, 147)],
    )
    def test_segment_count(self, size, segments):
        assert segment_count(size) == segments
        assert segments == math.ceil(size / SEGMENT_BYTES)

    def test_serialize_splits_at_fourteen(self):
        chunks = list(serialize_payload(bytes(range(29))))
        assert [len(c) for c in chunks] == [14, 14, 1]
        assert chunks[0] == tuple(range(14))
        assert chunks[2] == (28,)

    def test_empty_payload_serializes_to_nothing(self):
        assert list(serialize_payload(b"")) == []

    def test_oversized_payload_raises_at_the_call(self):
        with pytest.raises(ValueError, match="payload too large: %d bytes" % (MAX_PAYLOAD + 1)):
            serialize_payload(bytes(MAX_PAYLOAD + 1))

    @given(st.binary(max_size=600))
    @settings(deadline=None)
    def test_serialize_concatenates_back(self, data):
        chunks = serialize_payload(data)
        assert b"".join(bytes(c) for c in chunks) == data
        assert all(1 <= len(c) <= SEGMENT_BYTES for c in chunks)


# ---------------------------------------------------------------------------
# Store priorities
# ---------------------------------------------------------------------------

class TestPayloadStore:
    def test_capture_is_what_file_theft_delivers(self):
        [record] = run_scenario(builtin_scenario("attack3-file-theft")).transfers
        assert PayloadStore(3, capture_bytes=2048).capture == record.payload

    def test_priority_order(self):
        store = PayloadStore(seed=1)
        store.capture = b"capture"
        store.scan_report = b"report"
        assert store.current() == b"capture"
        store.arm_mic()
        assert store.current() == store.mic_blob
        empty = PayloadStore(seed=1)
        empty.scan_report = b"report"
        assert empty.current() == b"report"
        assert PayloadStore(seed=1).current() == b""

    def test_mic_arming_idempotent(self):
        store = PayloadStore(seed=1)
        assert store.arm_mic() is True
        assert store.arm_mic() is False

    def test_mic_blob_depends_on_seed(self):
        assert PayloadStore(seed=1).mic_blob != PayloadStore(seed=2).mic_blob
        assert PayloadStore(seed=1).mic_blob == PayloadStore(seed=1).mic_blob


# ---------------------------------------------------------------------------
# End to end transfers
# ---------------------------------------------------------------------------

class TestTransfer:
    @pytest.mark.parametrize("size", [0, 1, 14, 15, 200])
    def test_lossless_roundtrip(self, size):
        payload = Random(size).randbytes(size)
        sim, sender, receiver, _ = wired_sim(payload)
        sim.schedule(2, lambda: receiver.request_file(sim))
        sim.run(until=segment_count(size) + 30)
        record = sim.transfers[-1]
        assert record.status == "complete"
        assert record.payload == payload
        assert payload_digest(record.payload) == payload_digest(payload)

    def test_frame_budget(self):
        size = 100
        payload = bytes(size)
        sim, sender, receiver, _ = wired_sim(payload)
        sim.schedule(2, lambda: receiver.request_file(sim))
        sim.run(until=60)
        data_frames = [
            e for e in sim.trace.events if e.origin == "spy" and e.frame.opcode == DATA_OPCODE
        ]
        assert len(data_frames) == segment_count(size)
        record = sim.transfers[-1]
        assert record.segments == segment_count(size)

    def test_one_data_frame_per_tick(self):
        sim, sender, receiver, _ = wired_sim(bytes(70))
        sim.schedule(2, lambda: receiver.request_file(sim))
        sim.run(until=40)
        ticks = [
            e.tick for e in sim.trace.events if e.origin == "spy" and e.frame.opcode == DATA_OPCODE
        ]
        assert ticks == sorted(ticks)
        assert len(set(ticks)) == len(ticks)

    @given(st.binary(min_size=1, max_size=120), st.integers(0, 2**16))
    @settings(deadline=None, max_examples=25)
    def test_roundtrip_property(self, payload, seed):
        sim, sender, receiver, _ = wired_sim(payload, seed=seed)
        sim.schedule(1, lambda: receiver.request_file(sim))
        sim.run(until=segment_count(len(payload)) + 25)
        record = sim.transfers[-1]
        assert record.status == "complete"
        assert record.payload == payload

    def test_unrelated_chatter_does_not_corrupt(self):
        payload = Random(5).randbytes(80)
        sim, sender, receiver, _ = wired_sim(payload)
        sim.schedule(
            2, lambda: receiver.request_file(sim, peer_address=sim.logical["spy"])
        )
        # the display keeps talking while the stream runs, including
        # data-opcode frames that do not come from the sender
        for tick in range(3, 20):
            sim.transmit_at(tick, "tv", CecFrame(0, 15, 0x85))
            sim.transmit_at(tick, "tv", CecFrame(0, 2, DATA_OPCODE, (0x99, 0x98)))
        sim.run(until=50)
        record = sim.transfers[-1]
        assert record.status == "complete"
        assert record.payload == payload

    def test_first_responder_mode_follows_first_data_frame(self):
        # without a pinned peer the receiver locks onto whoever answers
        # first, so a chatty display can capture the channel
        sim, sender, receiver, _ = wired_sim(bytes(40))
        sim.schedule(2, lambda: receiver.request_file(sim))
        sim.transmit_at(3, "tv", CecFrame(0, 2, DATA_OPCODE, (0x99,)))
        sim.run(until=8)
        assert receiver.peer == sim.logical["tv"]

    def test_second_request_rejected_while_open(self):
        sim, sender, receiver, _ = wired_sim(bytes(400))
        accepted = []
        sim.schedule(2, lambda: accepted.append(receiver.request_file(sim)))
        sim.schedule(5, lambda: accepted.append(receiver.request_file(sim)))
        sim.run(until=10)
        assert accepted == [True, False]

    def test_second_requester_gets_no_second_stream(self, caplog):
        payload = bytes(range(200))
        sim, sender, receiver, _ = wired_sim(payload)
        other = FileReceiver("tv")
        sim.add_actor(other)
        sim.schedule(2, lambda: receiver.request_file(sim))
        sim.schedule(5, lambda: other.request_file(sim))
        with caplog.at_level("INFO", logger="cecsim.transfer"):
            sim.run(until=60)
        assert "spy busy, ignoring transfer request from tv" in caplog.messages
        sent = [e.frame for e in sim.trace.events if e.origin == "spy" and e.tick >= 2]
        assert sent[-1] == END_MARKER and sent.count(END_MARKER) == 1
        assert len(sent) == segment_count(len(payload)) + 1
        spy = "address-%d" % sim.logical["spy"]
        # The end marker is broadcast, so it also closes the refused
        # request's session, as complete and empty.
        assert [(r.receiver, r.peer, r.status, r.payload, r.segments)
                for r in sim.transfers] == [
            ("pc", spy, "complete", payload, segment_count(len(payload))),
            ("tv", spy, "complete", b"", 0),
        ]

    def test_transfer_records_peer_addresses(self):
        sim, sender, receiver, _ = wired_sim(b"x")
        sim.schedule(2, lambda: receiver.request_file(sim))
        sim.run(until=20)
        record = sim.transfers[-1]
        assert record.receiver == "pc"
        assert record.peer == "address-%d" % sim.logical["spy"]


def complete_record(payload: bytes) -> TransferRecord:
    return TransferRecord("transfer-001", "pc", "address-4", "complete", payload,
                          segment_count(len(payload)))


class TestArtifactFiles:
    def test_a_shorter_payload_replaces_a_longer_one(self, tmp_path):
        write_transfer_artifacts([complete_record(bytes(1000))], tmp_path)
        write_transfer_artifacts([complete_record(b"short")], tmp_path)
        assert (tmp_path / "transfer-001.bin").read_bytes() == b"short"
        assert (tmp_path / "transfers.manifest").read_text().endswith(
            " bytes=5 sha256=%s\n" % payload_digest(b"short"))

    @pytest.mark.parametrize("plant", [os.symlink, os.link])
    def test_links_at_artifact_names_are_replaced_not_followed(self, tmp_path, plant):
        out = tmp_path / "run"
        out.mkdir()
        names = ("transfer-001.bin", "transfers.manifest")
        for name in names:
            (tmp_path / name).write_bytes(b"not an artifact\n")
            plant(tmp_path / name, out / name)
        assert write_transfer_artifacts([complete_record(b"payload")], out) == list(names)
        for name in names:
            assert (tmp_path / name).read_bytes() == b"not an artifact\n"
            status = os.lstat(out / name)
            assert stat.S_ISREG(status.st_mode) and status.st_nlink == 1, name
        assert (out / "transfer-001.bin").read_bytes() == b"payload"


# ---------------------------------------------------------------------------
# Failure handling
# ---------------------------------------------------------------------------

class TestFailures:
    def test_timeout_without_sender(self, tmp_path):
        sim, receiver = lone_receiver()
        sim.schedule(2, lambda: receiver.request_file(sim))
        sim.run(until=INACTIVITY_TIMEOUT + 10)
        record = sim.transfers[-1]
        assert record.status == "aborted"
        assert record.payload == b""
        # Nobody answered, so the record names no peer.
        assert record.peer == "none"
        write_transfer_artifacts([record], tmp_path)
        manifest = (tmp_path / "transfers.manifest").read_text()
        assert manifest.startswith("transfer-001 status=aborted receiver=pc peer=none bytes=0 ")

    # The receiver checks its deadline in the ticker phase, ahead of the
    # timeout tick's queued calls, as if it had ticked every tick.
    def test_a_request_on_the_timeout_tick_opens_a_new_session(self):
        sim, receiver = lone_receiver()
        sim.schedule(2, receiver.request_file, sim)
        sim.schedule(2 + INACTIVITY_TIMEOUT + 1, receiver.request_file, sim)
        sim.run(until=2 * INACTIVITY_TIMEOUT + 10)
        assert [r.status for r in sim.transfers] == ["aborted", "aborted"]

    def test_a_data_frame_on_the_timeout_tick_is_ignored(self):
        sim, receiver = lone_receiver()
        sim.schedule(2, receiver.request_file, sim)
        sim.transmit_at(2 + INACTIVITY_TIMEOUT + 1, "tv", parse_frame("02:00:41:42"))
        sim.run(until=2 * INACTIVITY_TIMEOUT + 10)
        assert sim.logical["pc"] == 2
        assert [(r.status, r.payload) for r in sim.transfers] == [("aborted", b"")]

    @staticmethod
    def counted_transfer(size: int, requests=(2,)):
        """A counting receiver that requests a `size`-byte payload at each
        of `requests`."""
        sim = Simulator(channel_topology())
        store = PayloadStore()
        store.capture = bytes(size)
        sim.add_actor(FileSender("spy", store))
        receiver = CountingReceiver("pc")
        sim.add_actor(receiver)
        sim.start()
        for tick in requests:
            sim.schedule(tick, receiver.request_file, sim)
        return sim, receiver

    def test_receiver_wakes_only_to_check_its_deadline(self):
        size = 2000
        sim, receiver = self.counted_transfer(size)
        duration = segment_count(size) + 30
        sim.run(until=duration)
        assert sim.transfers[-1].status == "complete"
        ticks = receiver.ticks
        assert len(ticks) <= -(-duration // INACTIVITY_TIMEOUT) + 1
        # While data flows, the session is checked once every timeout.
        assert ticks[0] == 2 + INACTIVITY_TIMEOUT + 1
        assert {b - a for a, b in zip(ticks, ticks[1:])} == {INACTIVITY_TIMEOUT}

    def test_a_wake_queued_for_a_closed_session_does_nothing(self):
        # Each transfer completes before its request's deadline wake, and
        # the second opens before the first one's wake comes due.
        second = 2 + INACTIVITY_TIMEOUT - 5
        sim, receiver = self.counted_transfer(20, requests=(2, second))
        sim.run(until=second + 3 * INACTIVITY_TIMEOUT)
        assert [r.status for r in sim.transfers] == ["complete", "complete"]
        assert receiver.ticks == []

    def test_a_wake_queued_for_an_earlier_session_leaves_the_open_one_alone(self):
        # The first session's deadline wake comes due while the second,
        # opened after the first closed, still streams.
        second = 2 + INACTIVITY_TIMEOUT - 5
        sim, receiver = self.counted_transfer(10 * SEGMENT_BYTES, requests=(2, second))
        open_at_first_deadline = []
        sim.schedule(2 + INACTIVITY_TIMEOUT, lambda: open_at_first_deadline.append(receiver.session))
        sim.run(until=second + 3 * INACTIVITY_TIMEOUT)
        assert open_at_first_deadline == ["transfer-002"]
        assert [r.status for r in sim.transfers] == ["complete", "complete"]
        assert receiver.ticks == []

    def test_sender_gives_up_after_unacked_frames(self):
        sim, sender, receiver, _ = wired_sim(bytes(300))
        sim.schedule(2, lambda: receiver.request_file(sim))

        def mute_receiver(s, tick):
            import dataclasses

            s.device_states["pc"] = dataclasses.replace(
                s.device_states["pc"], cec_info_reporting_enabled=False
            )

        sim.schedule(6, mute_receiver, sim, 6)
        sim.run(until=60)
        assert sender.unacked is None
        # The last frames the sender put on the wire are its first
        # MAX_UNACKED unacknowledged data frames: no data frame and no end
        # marker follows them.
        sent = [e for e in sim.trace.events if e.origin == "spy"]
        data = [e for e in sent if e.frame.opcode == DATA_OPCODE]
        assert data[-MAX_UNACKED - 1].acknowledged
        assert not any(e.acknowledged for e in data[-MAX_UNACKED:])
        assert sent[-MAX_UNACKED:] == data[-MAX_UNACKED:]
        assert len(data) < segment_count(300)

    def test_a_request_from_an_unaddressed_device_is_refused(self, caplog):
        sim = Simulator(channel_topology(unaddressed=("pc",)))
        store = PayloadStore(seed=0)
        store.capture = b"payload"
        sender, receiver = FileSender("spy", store), FileReceiver("pc")
        sim.add_actor(sender)
        sim.add_actor(receiver)
        sim.start()
        assert sim.logical["pc"] is None
        sim.schedule(2, receiver.request_file, sim)
        with caplog.at_level("WARNING", logger="cecsim.transfer"):
            sim.run(until=INACTIVITY_TIMEOUT + 10)
        assert "spy cannot stream without logical addresses" in caplog.messages
        assert sender.unacked is None
        assert not any(e.origin == "spy" for e in sim.trace.events if e.tick >= 2)
        assert [(r.status, r.payload) for r in sim.transfers] == [("aborted", b"")]

    def test_frames_from_an_unaddressed_device_are_ignored(self):
        sim = Simulator(channel_topology(unaddressed=("spy",)))
        receiver = FileReceiver("pc")
        sim.add_actor(receiver)
        sim.start()
        assert sim.logical["spy"] is None
        sim.schedule(2, receiver.request_file, sim)
        sim.transmit_at(3, "spy", CecFrame(1, sim.logical["pc"], DATA_OPCODE, (0x41,)))
        sim.transmit_at(4, "spy", END_MARKER)
        sim.run(until=5)
        # Neither frame names a peer, adds data or closes the session.
        assert (receiver.session, receiver.peer, receiver.chunks) == ("transfer-001", None, [])
        sim.run(until=INACTIVITY_TIMEOUT + 10)
        assert [(r.status, r.peer, r.payload) for r in sim.transfers] == [("aborted", "none", b"")]

    def test_request_marker_shape(self):
        assert REQUEST_MARKER.text == "aa:aa:aa:aa"


# ---------------------------------------------------------------------------
# Markers
# ---------------------------------------------------------------------------

class TestMarkers:
    """Only the exact marker frame acts; a frame sharing its opcode does not."""

    @pytest.mark.parametrize("marker", [MIC_MARKER, REQUEST_MARKER])
    def test_sender_acts_only_on_the_exact_marker(self, marker):
        sim, sender, receiver, store = wired_sim(b"payload")
        misses = near_misses(marker)
        for tick, frame in enumerate(misses, start=2):
            sim.transmit_at(tick, "pc", frame)
        sim.run(until=2 + len(misses))
        assert [e.frame for e in sim.trace.events[-len(misses):]] == misses
        assert not store.mic_armed
        assert sender.unacked is None
        sim.transmit_at(sim.clock, "pc", marker)
        sim.run(until=sim.clock + 1)
        assert store.mic_armed == (marker is MIC_MARKER)
        assert (sender.unacked is not None) == (marker is REQUEST_MARKER)

    def test_receiver_closes_only_on_the_exact_end_marker(self):
        sim = Simulator(channel_topology())
        receiver = FileReceiver("pc")
        sim.add_actor(receiver)
        sim.start()
        sim.schedule(2, lambda: receiver.request_file(sim))
        misses = near_misses(END_MARKER)
        for tick, frame in enumerate(misses, start=3):
            sim.transmit_at(tick, "spy", frame)
        sim.run(until=3 + len(misses))
        assert [e.frame for e in sim.trace.events[-len(misses):]] == misses
        assert receiver.session is not None
        assert sim.transfers == []
        sim.transmit_at(sim.clock, "spy", END_MARKER)
        sim.run(until=sim.clock + 1)
        assert receiver.session is None
        assert [r.status for r in sim.transfers] == ["complete"]


# ---------------------------------------------------------------------------
# Streaming
# ---------------------------------------------------------------------------

class TestStreaming:
    def test_large_request_allocates_only_what_it_sends(self):
        # Segments are made as they are sent: opening a 1 MiB transfer and
        # sending its first frames costs far less than the 75,000 frames
        # of the whole payload.
        sim, sender, receiver, _ = wired_sim(bytes(2**20))
        tracemalloc.start()
        try:
            receiver.request_file(sim)
            sim.run(until=sim.clock + 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sender.unacked is not None
        assert len([e for e in sim.trace.events if e.frame.opcode == DATA_OPCODE]) == 2
        assert peak < 2**20
