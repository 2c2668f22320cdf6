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
    nobody answers a self-poll.  Once the report is made, the walker leaves
    the simulator and hears no more frames.
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
        sim.start()
        self._steps = self._walk(sim, sim.logical.get(self.device))

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
        if frame.is_polling:
            return
        source = frame.initiator
        row = self._rows.setdefault(source, dict.fromkeys(REPORT_FIELDS, "Unk"))
        op, operands = frame.opcode, frame.operands
        if op == fr.OP_REPORT_PHYSICAL_ADDRESS and len(operands) == 3:
            row["P. Addr"] = PhysicalAddress.from_bytes(operands[0], operands[1]).text
        elif op == fr.OP_SET_OSD_NAME and operands:
            row["OSD Str"] = bytes(operands).decode("ascii", errors="replace")
        elif op == fr.OP_DEVICE_VENDOR_ID and len(operands) == 3:
            vid = operands[0] << 16 | operands[1] << 8 | operands[2]
            row["Vendor"] = vendor_name(vid, sim.topology.vendor_names)
        elif op == fr.OP_REPORT_POWER_STATUS and len(operands) == 1:
            row["Pow Status"] = _POWER_RENDER.get(operands[0], "Unk")
        elif op == fr.OP_CEC_VERSION and len(operands) == 1:
            row["CEC Ver"] = fr.cec_version_name(operands[0])
        elif op == fr.OP_SET_MENU_LANGUAGE and len(operands) == 3:
            row["Language"] = bytes(operands).decode("ascii", errors="replace")
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
                    "P. Addr": sim.physical[self.device].text,
                    "Vendor": vendor_name(node.vendor_id, sim.topology.vendor_names),
                    "OSD Str": node.osd_name,
                    "CEC Ver": node.cec_version,
                    "Pow Status": "ON" if state.power is PowerState.ON else "Standby",
                    "Language": node.menu_language or "Unk",
                })
            row["Active"] = "Yes" if addr == self._active_claimant else "No"
            report.entries[addr] = row
        sim.artifacts.scan_reports.append(report)
        log.info("%s census finished with %d entries", self.device, len(report.entries))
        if self.on_complete is not None:
            self.on_complete(sim, report)


class TargetedDos(Actor):
    """Sniff for wake-up chatter and put the target straight back into
    standby.  Stays armed and re-fires every time."""

    def __init__(self, device: str, target_address: int = 0):
        super().__init__(device)
        self.target_address = target_address
        self.armed = False

    def arm(self):
        self.armed = True

    def disarm(self):
        self.armed = False

    def on_event(self, sim: Simulator, event: BusEvent):
        if not self.armed or event.origin == self.device:
            return
        if event.frame.opcode not in fr.ANNOUNCE_OPCODES:
            return
        own = sim.logical.get(self.device)
        if own is None:
            return
        sim.transmit_at(
            sim.clock + 1,
            self.device,
            CecFrame(own, self.target_address, fr.OP_STANDBY),
        )


CLAIMED_PORTS = (1, 2, 3, 4)


@functools.cache
def _churn_cycle(own: int, display: int) -> tuple[CecFrame, ...]:
    """The input-churn loop's frames, built once per pair of addresses (at
    most 16 x 16).  Frames are immutable, so every run shares them."""
    frames = [CecFrame(own, display, fr.OP_IMAGE_VIEW_ON)]
    for port in CLAIMED_PORTS:
        claim = PhysicalAddress((port, 0, 0, 0))
        frames.append(CecFrame(own, fr.BROADCAST, fr.OP_ACTIVE_SOURCE, claim.to_bytes()))
    return tuple(frames)


class BroadcastDos(Actor):
    """Five-frame input-churn loop: wake the display, then walk its inputs
    with forged active-source claims, one frame per tick, forever."""

    def __init__(self, device: str, display_address: int = 0):
        super().__init__(device)
        self.display_address = display_address
        self.active = False
        self._index = 0

    def activate(self):
        if not self.active:
            self.active = True
            log.info("%s input-churn loop armed", self.device)

    def deactivate(self):
        self.active = False

    def on_tick(self, sim: Simulator, tick: int):
        if not self.active:
            return
        own = sim.logical.get(self.device)
        if own is None:
            return
        cycle = _churn_cycle(own, self.display_address)
        sim.transmit_at(tick, self.device, cycle[self._index])
        self._index = (self._index + 1) % len(cycle)


class AttackController(Actor):
    """Glue on the hidden listener: watches for arming markers, launches
    census walks, serves its store over the covert channel, and hands the
    relay something to drive."""

    def __init__(
        self,
        device: str,
        store: PayloadStore,
        targeted_target: int = 0,
        display_address: int = 0,
    ):
        super().__init__(device)
        self.store = store
        self.targeted = TargetedDos(device, target_address=targeted_target)
        self.broadcast = BroadcastDos(device, display_address=display_address)
        self.sender = FileSender(device, store)

    def register(self, sim: Simulator):
        """Add every service of the listener to the simulator."""
        for actor in (self.targeted, self.broadcast, self, self.sender):
            sim.add_actor(actor)

    def on_event(self, sim: Simulator, event: BusEvent):
        if event.origin == self.device:
            return
        if event.frame == ARM_TARGETED_MARKER:
            self.targeted.arm()
        elif event.frame == ARM_BROADCAST_MARKER:
            self.broadcast.activate()

    def start_scan(self, sim: Simulator, on_complete=None) -> ScanWalk:
        def finish(inner_sim, report):
            self.store.scan_report = report.to_json().encode("ascii")
            if on_complete is not None:
                on_complete(inner_sim, report)

        walk = ScanWalk(self.device, on_complete=finish)
        sim.add_actor(walk)
        walk.start(sim)
        return walk

    def cancel_all(self):
        self.targeted.disarm()
        self.broadcast.deactivate()
