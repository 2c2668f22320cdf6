"""Covert file transfer over spare CEC opcodes.

A receiver asks for the current payload with a fixed request marker frame;
the holder answers with a stream of opcode-0x00 data frames carrying up to
14 payload bytes each, one frame per tick, then a fixed end marker.  The
markers are whole-frame byte patterns, so they work without knowing who is
listening, and anything that does not look like a marker or a data frame
for the open session is dismissed, with one gap: every observer hears the
end marker, so the end of another device's stream closes an open session
as complete with no bytes.  A requester refused while the holder was busy
cannot tell that refusal from an empty payload.  Receiver sessions are
numbered in request order (transfer-001, ...); a sender's stream is not.
"""

import hashlib
import itertools
import logging
from collections.abc import Iterator
from random import Random

from cecsim.bus import Actor, BusEvent, Simulator, TransferRecord
from cecsim.frames import CecFrame, parse_frame
from cecsim.schema import new_file

log = logging.getLogger(__name__)

DATA_OPCODE = 0x00
SEGMENT_BYTES = 14
MAX_PAYLOAD = 2**24

REQUEST_MARKER = parse_frame("aa:aa:aa:aa")
MIC_MARKER = parse_frame("bb:bb:bb:bb")
END_MARKER = parse_frame("ee:ee:ee:ee")

# Receiver gives up after this much silence.
INACTIVITY_TIMEOUT = 20
# Sender gives up once this many of its data frames go unacknowledged.
MAX_UNACKED = 3


def serialize_payload(data: bytes) -> Iterator[bytes]:
    """Split a `bytes` payload into data-frame operands, `bytes` slices of
    up to 14 bytes, yielded one at a time.  An oversized payload raises at
    the call."""
    if len(data) > MAX_PAYLOAD:
        raise ValueError("payload too large: %d bytes" % len(data))
    return (data[i : i + SEGMENT_BYTES] for i in range(0, len(data), SEGMENT_BYTES))


def payload_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class PayloadStore:
    """What the listener can leak, in priority order: a live microphone
    grab once armed, then any preloaded capture, then the last scan
    report.  Both blobs are drawn from `seed`; no capture when
    `capture_bytes` is 0."""

    def __init__(self, seed: int = 0, mic_bytes: int = 1024, capture_bytes: int = 0):
        self.mic_armed = False
        self.mic_blob = Random(seed ^ 0x6D6963).randbytes(mic_bytes)
        self.capture = Random(seed ^ 0x636170).randbytes(capture_bytes) if capture_bytes else None
        self.scan_report: bytes | None = None

    def current(self) -> bytes:
        if self.mic_armed:
            return self.mic_blob
        if self.capture is not None:
            return self.capture
        if self.scan_report is not None:
            return self.scan_report
        return b""


class FileSender(Actor):
    """Listener-side endpoint: arms the store's mic on the mic marker and
    streams the store's current payload on the request marker.

    While a stream is open, `unacked` counts its unacknowledged data frames
    (None while idle) and each tick sends the next of `_frames`: the
    payload's data frames, then the end marker, which closes it."""

    hears = frozenset((DATA_OPCODE, MIC_MARKER.opcode, REQUEST_MARKER.opcode))

    def __init__(self, device: str, store: PayloadStore):
        super().__init__(device)
        self.store = store
        self.unacked: int | None = None
        self._frames: Iterator[CecFrame] = iter(())

    def on_event(self, sim: Simulator, event: BusEvent):
        frame = event.frame
        if event.origin == self.device:
            if self.unacked is not None and frame.opcode == DATA_OPCODE and not event.acknowledged:
                self.unacked += 1
                if self.unacked >= MAX_UNACKED:
                    log.info("%s aborting after %d unacked frames", self.device, self.unacked)
                    self.unacked = None
            return

        if frame == MIC_MARKER:
            if not self.store.mic_armed:
                self.store.mic_armed = True
                log.info("%s mic payload armed", self.device)
            return
        if frame == REQUEST_MARKER:
            self._start_session(sim, event)

    def _start_session(self, sim: Simulator, event: BusEvent):
        if self.unacked is not None:
            log.info("%s busy, ignoring transfer request from %s", self.device, event.origin)
            return
        own = sim.logical.get(self.device)
        peer = sim.logical.get(event.origin)
        if own is None or peer is None:
            log.warning("%s cannot stream without logical addresses", self.device)
            return
        payload = self.store.current()
        chunks = serialize_payload(payload)
        self._frames = itertools.chain(
            (CecFrame(own, peer, DATA_OPCODE, chunk) for chunk in chunks), (END_MARKER,)
        )
        self.unacked = 0
        sim.wake(self)
        log.info("%s streaming %d bytes to address %d", self.device, len(payload), peer)

    def on_tick(self, sim: Simulator, tick: int):
        if self.unacked is None:
            sim.rest(self)
            return
        frame = next(self._frames)
        sim.transmit_at(tick, self.device, frame)
        if frame is END_MARKER:
            self.unacked = None


class FileReceiver(Actor):
    """Client-side endpoint: sends the request marker, reassembles data
    frames, and closes on the end marker or after a quiet timeout, which
    it checks only on the ticks the silence could run out.

    `session` is the open session's id (None while idle), `peer` the
    address it takes data from (None until the first responder when the
    request named none), `chunks` the operands of its data frames so far,
    each kept as its frame holds it, and `last_activity` the tick of its
    last data frame."""

    hears = frozenset((DATA_OPCODE, END_MARKER.opcode))

    def __init__(self, device: str):
        super().__init__(device)
        self.session: str | None = None
        self.peer: int | None = None
        self.chunks: list[bytes] = []
        self.last_activity = 0

    def request_file(self, sim: Simulator, peer_address: int | None = None) -> bool:
        """Ask whoever is listening for its payload.  One session at a
        time; a second request is rejected until the first closes."""
        if self.session is not None:
            log.info("%s already has an open transfer, request rejected", self.device)
            return False
        self.session = sim.next_session_id()
        self.peer, self.chunks, self.last_activity = peer_address, [], sim.clock
        sim.transmit_at(sim.clock, self.device, REQUEST_MARKER)
        sim.schedule(sim.clock + INACTIVITY_TIMEOUT, self._wake_for, sim, self.session)
        return True

    def _wake_for(self, sim: Simulator, session: str):
        """A queued deadline wake: it wakes the receiver only while
        `session`, the one it was queued for, is still open.  No two
        sessions of a run share an id."""
        if self.session == session:
            sim.wake(self)

    def _peer_matches(self, sim: Simulator, origin: str) -> bool:
        origin_addr = sim.logical.get(origin)
        if origin_addr is None:
            return False
        if self.peer is None:
            self.peer = origin_addr
        return origin_addr == self.peer

    def on_event(self, sim: Simulator, event: BusEvent):
        if self.session is None or event.origin == self.device:
            return
        frame = event.frame
        if frame.opcode == END_MARKER.opcode and frame == END_MARKER:
            if self._peer_matches(sim, event.origin):
                self._close(sim, "complete")
            return
        if frame.opcode != DATA_OPCODE or not frame.operands:
            return
        own = sim.logical.get(self.device)
        if own is None or frame.destination != own:
            return
        if not self._peer_matches(sim, event.origin):
            return
        self.chunks.append(frame.operands)
        self.last_activity = event.tick

    def on_tick(self, sim: Simulator, tick: int):
        sim.rest(self)
        if self.session is None:
            return
        if tick - self.last_activity > INACTIVITY_TIMEOUT:
            log.info("%s transfer %s timed out", self.device, self.session)
            self._close(sim, "aborted")
        else:
            sim.schedule(self.last_activity + INACTIVITY_TIMEOUT, self._wake_for, sim, self.session)

    def _close(self, sim: Simulator, status: str):
        sim.transfers.append(
            TransferRecord(
                session_id=self.session,
                receiver=self.device,
                peer="none" if self.peer is None else "address-%d" % self.peer,
                status=status,
                payload=b"".join(self.chunks),
                segments=len(self.chunks),
            )
        )
        self.session = None


def write_transfer_artifacts(records, out_dir) -> list[str]:
    """Persist recovered payloads as <session-id>.bin plus a manifest of
    sizes and digests, each as a new file (`schema.new_file`).  Returns the
    file names written."""
    written = []
    for record in records:
        if record.status == "complete":
            name = "%s.bin" % record.session_id
            with new_file(out_dir, name, binary=True) as fh:
                fh.write(record.payload)
            written.append(name)
    if records:
        with new_file(out_dir, "transfers.manifest") as fh:
            for record in records:
                fh.write("%s status=%s receiver=%s peer=%s bytes=%d sha256=%s\n" % (
                    record.session_id, record.status, record.receiver, record.peer,
                    len(record.payload), payload_digest(record.payload)))
        written.append("transfers.manifest")
    return written
