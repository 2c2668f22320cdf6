"""Discrete-tick simulation of the shared CEC wire.

A tick is a scheduling slot, not a frame time.  Work queues as calls keyed
by (tick, insertion order), and frames that share a tick go on the wire in
that order, so identical inputs always replay to byte-identical traces.  A
device's i-th response to a frame lands i+1 ticks after that frame, and a
user action's i-th emission lands i ticks after the action.  No
arbitration is modelled: any number of frames may share a tick.  The
control wire is shared: every device reachable from the transmitter over
propagating cables observes every frame, whoever it is addressed to.

Observing is not acting.  `devices.react` runs only where a frame can
land: for a broadcast, on every CEC-addressed observer; for a directed
frame, on the observers holding its destination address (several may hold
one when the first never acknowledged the later claimants' polls), in
declaration order.  Polls and response frames (`frames.RESPONSE_OPCODES`)
reach no `react`: no device acts on them, so they only travel, ack and are
heard.  The transmitter never reacts to its own frame.  Actors still hear
every frame their device observes.
"""

import bisect
import heapq
import io
import logging
import re
from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import NamedTuple, TextIO

from cecsim import devices as dv
from cecsim import frames as fr
from cecsim.frames import CecFrame, PhysicalAddress, PowerState, logical_candidates
from cecsim.topology import Topology, TopologyError, assign_physical_addresses, propagation_domains

log = logging.getLogger(__name__)

UNREGISTERED = 15

# Opcodes no device acts on: None (a poll) and every response.  `react`
# returns the state unchanged for them, so `deliver` does not call it.
_INERT_OPCODES = fr.RESPONSE_OPCODES | {None}


# Tick, origin, frame text, 1 or 0 for the ack, and the joined observers.
_EVENT_LINE = "t=%d | %s | %s | ack=%d | obs=%s\n"
_CHANGE_LINE = "t=%d | %s | %s=%s\n"

# Each logged state value's text, made once and shared by every change that
# logs it.  Typed: `True == 1`, and port 1 must not log as "True".
_value_text = lru_cache(typed=True)(str)


class BusEvent(NamedTuple):
    """One frame as it appeared on the wire."""

    tick: int
    origin: str
    frame: CecFrame
    observers: tuple[str, ...]
    acknowledged: bool

    def render(self) -> str:
        return self._line(",".join(self.observers))[:-1]

    def _line(self, observers: str) -> str:
        return _EVENT_LINE % (self.tick, self.origin, self.frame.text, self.acknowledged, observers)


class StateChange(NamedTuple):
    """One logged field of a device's state, after a change."""

    tick: int
    device: str
    field: str
    value: str

    def render(self) -> str:
        return (_CHANGE_LINE % self)[:-1]


_TRACE_LINE = re.compile(
    r"^t=(?P<tick>\d+) \| (?P<origin>\S+) \| (?P<frame>[0-9a-f:]+) \| "
    r"ack=(?P<ack>[01]) \| obs=(?P<obs>\S*)$"
)


# A trace repeats one observers list per domain: each distinct `obs=` text
# is split once, so replayed events of one domain share one tuple, as live
# events do.  Each line still decodes its own frame through `parse_frame`,
# one constructed frame per line, which perfbench's traced counts assume.
@lru_cache(maxsize=64)
def _trace_observers(text: str) -> tuple[str, ...]:
    return tuple(x for x in text.split(",") if x)


def parse_trace_line(line: str) -> BusEvent:
    match = _TRACE_LINE.match(line.strip())
    if match is None:
        raise ValueError("unrecognised trace line: %r" % line)
    tick, origin, frame, ack, observers = match.groups()
    return BusEvent(
        tick=int(tick),
        origin=origin,
        frame=fr.parse_frame(frame),
        observers=_trace_observers(observers),
        acknowledged=ack == "1",
    )


@dataclass
class Trace:
    """Every frame and logged state change of a run, in order.

    The render methods write `trace.log` and `state.log` to a text stream
    one line at a time, never holding a whole log in memory; with no stream
    they return the text.  The run itself still retains every record.
    """

    events: list[BusEvent] = field(default_factory=list)
    changes: list[StateChange] = field(default_factory=list)

    def render_log(self, out: TextIO | None = None) -> str | None:
        """Write one `trace.log` line per event to `out`, or return them."""
        buf = io.StringIO() if out is None else out
        # Events of one domain share its members tuple: join it once.
        joined: dict[int, str] = {}
        for e in self.events:
            observers = joined.get(id(e.observers))
            if observers is None:
                observers = joined[id(e.observers)] = ",".join(e.observers)
            buf.write(e._line(observers))
        return buf.getvalue() if out is None else None

    def render_state_log(self, out: TextIO | None = None) -> str | None:
        """Write one `state.log` line per change to `out`, or return them."""
        buf = io.StringIO() if out is None else out
        buf.writelines(_CHANGE_LINE % c for c in self.changes)
        return buf.getvalue() if out is None else None


@dataclass
class TransferRecord:
    session_id: str
    receiver: str
    peer: str
    status: str
    payload: bytes
    segments: int


@dataclass
class UserActionRecord:
    tick: int
    device: str
    action: str
    ok: bool
    reason: str


@dataclass
class Artifacts:
    """Everything a run produces besides the raw trace."""

    transfers: list[TransferRecord] = field(default_factory=list)
    scan_reports: list = field(default_factory=list)
    user_actions: list[UserActionRecord] = field(default_factory=list)


class Actor:
    """Anything that runs on a device and watches the wire or acts on a
    schedule: attack sessions, covert file endpoints, relay pollers.

    Add one with `Simulator.add_actor`.  An actor gets `on_tick` on every
    tick that starts after it was added.  It hears what its device hears:
    the simulator calls `on_event` only for frames whose observers include
    `device`, its own transmissions among them, and only for frames put on
    the wire after it was added.  After `Simulator.remove_actor` it gets
    neither, from the next tick or frame on.  The simulator calls only the
    callbacks a subclass overrides; the ones here do nothing.
    """

    def __init__(self, device: str):
        self.device = device

    def on_tick(self, sim: "Simulator", tick: int):
        pass

    def on_event(self, sim: "Simulator", event: BusEvent):
        pass


class _Domain:
    """One propagation domain: who observes a frame put on it, and who can
    act on one."""

    def __init__(self, members: tuple[str, ...], nodes):
        self.members = members
        # Member -> index in `members`; also the membership test.
        self.position = {n: i for i, n in enumerate(members)}
        # The members that react to a broadcast.
        self.addressed = tuple(n for n in members if nodes[n].cec_addressed)
        # Logical address -> the members that claimed it, in `members` order.
        self.holders: dict[int, list[str]] = {}


class Simulator:
    def __init__(self, topology: Topology):
        self.topology = topology
        self.clock = 0
        self.trace = Trace()
        self.artifacts = Artifacts()
        self.physical: dict[str, PhysicalAddress] = {}
        self.logical: dict[str, int | None] = {}
        self.device_states: dict[str, dv.DeviceState] = {}
        self.actors: list[Actor] = []
        # The actors whose class overrides `on_tick`, and those whose class
        # overrides `on_event`, in add order.  `add_actor` and `remove_actor`
        # rebind them, so a loop over one keeps the actors it started with.
        self._tickers: tuple[Actor, ...] = ()
        self._listeners: tuple[Actor, ...] = ()
        self._domains: dict[str, _Domain] = {}
        self._ctx: dict[str, dv.DeviceCtx] = {}
        # Each device's last MENU_PRESSURE_LIMIT control-pressure ticks, made
        # on first use: most devices never feel any.
        self._pressure: dict[str, deque[int]] = defaultdict(
            partial(deque, maxlen=dv.MENU_PRESSURE_LIMIT)
        )
        self._queue: list = []
        self._seq = 0
        self._session_counter = 0
        self._started = False

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def start(self):
        """Assign physical addresses, then let devices claim logical ones
        by polling, in declaration order.  Safe to call once; run() calls
        it implicitly."""
        if self._started:
            return
        self._started = True
        nodes = self.topology.nodes
        self.physical = assign_physical_addresses(self.topology)
        # A domain is keyed by its first member, so each is built once.
        by_first: dict[str, _Domain] = {}
        for node_id, members in propagation_domains(self.topology).items():
            domain = by_first.get(members[0])
            if domain is None:
                domain = by_first[members[0]] = _Domain(members, nodes)
            self._domains[node_id] = domain
        for node_id, node in nodes.items():
            self.device_states[node_id] = dv.DeviceState.initial(node)
            self.logical[node_id] = None
            # A device that claims an address gets its context in `_claim`.
            if not node.cec_addressed:
                self._ctx[node_id] = dv.DeviceCtx(node, None, self.physical[node_id])
        for node_id, node in nodes.items():
            if node.cec_addressed:
                self.allocate_logical_address(node_id)

    def allocate_logical_address(self, device_id: str) -> int:
        """Poll candidate addresses and claim the first free one.

        A configured fixed address is tried before the type's usual claim
        order.  Returns 15 (stays unregistered) when everything is taken.
        """
        node = self.topology.nodes[device_id]
        candidates = []
        if node.logical_address is not None:
            candidates.append(node.logical_address)
        for c in logical_candidates(node.device_type):
            if c not in candidates:
                candidates.append(c)
        for candidate in candidates:
            event = self.deliver(device_id, CecFrame(candidate, candidate))
            if not event.acknowledged:
                return self._claim(device_id, candidate)
        log.warning("%s found no free logical address", device_id)
        return self._claim(device_id, UNREGISTERED)

    def _claim(self, device_id: str, address: int) -> int:
        """Record the claim in `logical`, the domain's holder index and the
        device's context."""
        domain = self._domains[device_id]
        previous = self.logical[device_id]
        if previous is not None:
            domain.holders[previous].remove(device_id)
        bisect.insort(
            domain.holders.setdefault(address, []), device_id, key=domain.position.__getitem__
        )
        self.logical[device_id] = address
        self._ctx[device_id] = dv.DeviceCtx(
            self.topology.nodes[device_id], address, self.physical[device_id]
        )
        return address

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, tick: int, fn, *args):
        """Call `fn(*args)` at `tick`, after everything already queued for it."""
        if tick < self.clock:
            raise ValueError(
                "cannot schedule at tick %d, clock is already at %d" % (tick, self.clock)
            )
        heapq.heappush(self._queue, (tick, self._seq, fn, args))
        self._seq += 1

    def transmit_at(self, tick: int, origin: str, frame: CecFrame):
        self.schedule(tick, self.deliver, origin, frame)

    def add_actor(self, actor: Actor):
        self.actors.append(actor)
        cls = type(actor)
        if cls.on_tick is not Actor.on_tick:
            self._tickers += (actor,)
        if cls.on_event is not Actor.on_event:
            self._listeners += (actor,)

    def remove_actor(self, actor: Actor):
        self.actors.remove(actor)
        self._tickers = tuple(a for a in self._tickers if a is not actor)
        self._listeners = tuple(a for a in self._listeners if a is not actor)

    def next_session_id(self) -> str:
        self._session_counter += 1
        return "transfer-%03d" % self._session_counter

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def device_ctx(self, device_id: str) -> dv.DeviceCtx:
        if not self._started:
            self.start()
        return self._ctx[device_id]

    def settings_menu_accessible(self, device_id: str) -> bool:
        """False while the device is too busy acting on other people's
        control frames to serve its own menu: the last MENU_PRESSURE_LIMIT
        of them all fell within the window."""
        ticks = self._pressure[device_id]
        return len(ticks) < ticks.maxlen or ticks[0] <= self.clock - dv.MENU_PRESSURE_WINDOW

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------

    def deliver(self, origin: str, frame: CecFrame) -> BusEvent:
        """Put a frame on the wire right now and let the bus settle.

        Observers are everyone in the origin's propagation domain.  A
        directed frame is acknowledged when its first holder in the domain
        is another device that still reports information; a broadcast when
        any other device on the segment talks CEC.  Reactions follow the
        rule in the module docstring.
        """
        if not self._started:
            self.start()
        nodes, states, clock = self.topology.nodes, self.device_states, self.clock
        if origin not in nodes:
            raise TopologyError("unknown transmitter %r" % origin)
        domain = self._domains[origin]
        if frame.destination == fr.BROADCAST:
            receivers = domain.addressed
            acknowledged = len(receivers) > nodes[origin].cec_addressed
        else:
            receivers = domain.holders.get(frame.destination, ())
            acknowledged = bool(receivers) and receivers[0] != origin and (
                states[receivers[0]].cec_info_reporting_enabled
            )
        if frame.opcode in _INERT_OPCODES:
            receivers = ()
        event = BusEvent(clock, origin, frame, domain.members, acknowledged)
        self.trace.events.append(event)

        for node_id in receivers:
            if node_id == origin or not nodes[node_id].cec_addressed:
                continue
            state = states[node_id]
            reaction = dv.react(self._ctx[node_id], state, frame)
            if reaction.control_pressure:
                self._pressure[node_id].append(clock)
            if reaction.state is not state:
                self._apply_state(node_id, reaction.state, reaction.changed)
            for i, response in enumerate(reaction.responses):
                self.transmit_at(clock + 1 + i, node_id, response)

        position = domain.position
        for actor in self._listeners:
            if actor.device in position:
                actor.on_event(self, event)
        return event

    def _apply_state(self, node_id: str, new: dv.DeviceState, changed: tuple[str, ...]):
        """Store the new state and log the fields that changed."""
        self.device_states[node_id] = new
        for name in changed:
            after = getattr(new, name)
            value = after.value if isinstance(after, PowerState) else _value_text(after)
            self.trace.changes.append(StateChange(self.clock, node_id, name, value))

    def user_action(self, device: str, action: dv.UserAction, argument: int | None = None):
        """Someone works the device's own buttons or menu right now."""
        if not self._started:
            self.start()
        state = self.device_states[device]
        accessible = self.settings_menu_accessible(device)
        result = dv.apply_user_action(
            self.device_ctx(device), state, action, argument, accessible
        )
        self.artifacts.user_actions.append(
            UserActionRecord(self.clock, device, action.value, result.ok, result.reason)
        )
        if not result.ok:
            log.info("t=%d %s %s rejected: %s", self.clock, device, action.value, result.reason)
        if result.state is not state:
            self._apply_state(device, result.state, result.changed)
        for i, emission in enumerate(result.emissions):
            self.transmit_at(self.clock + i, device, emission)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self, until: int) -> Trace:
        """Process every tick up to (not including) `until`."""
        self.start()
        while self.clock < until:
            tick = self.clock
            for actor in self._tickers:
                actor.on_tick(self, tick)
            while self._queue and self._queue[0][0] == tick:
                _, _, fn, args = heapq.heappop(self._queue)
                fn(*args)
            self.clock = tick + 1
        return self.trace
