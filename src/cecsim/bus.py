"""Discrete-tick simulation of the shared CEC wire.

A tick is a scheduling slot, not a frame time.  Work queues as calls keyed
by (tick, insertion order), and frames that share a tick go on the wire in
that order, so identical inputs always replay to byte-identical traces.
Two queues keep that order: a heap holds the calls for later ticks, and a
FIFO the calls for the tick being run (a covert sender queues each data
frame as it ticks), which the tick runs after its heap calls, all queued
earlier.  A device's i-th response to a frame lands i+1 ticks after that
frame, and a user action's i-th emission lands i ticks after the action.
No arbitration is modelled: any number of frames may share a tick.  The
control wire is shared: every device reachable from the transmitter over
propagating cables observes every frame, whoever it is addressed to.

Observing is not acting.  `devices.react` runs only where a frame can
land: for a broadcast, on every CEC-addressed observer; for a directed
frame, on the observers holding its destination address (several may hold
one when the first never acknowledged the later claimants' polls), in
declaration order.  Polls and response frames (`frames.RESPONSE_OPCODES`)
reach no `react`: no device acts on them, so they only travel, ack and are
heard.  The transmitter never reacts to its own frame.  Actors hear only
the opcodes they declare (`Actor.hears`), and tick only while they have
work, from `Simulator.wake` to `Simulator.rest`; with none awake, `run`
jumps ahead.  An actor that waits rests and queues `Simulator.wake` on the
tick before it acts, so it still acts ahead of that tick's queued calls.

`deliver` applies each reaction itself.  Each claimed device keeps a memo of
its reactions, keyed by the identities of the state and the frame, and
cleared at `_MEMO_LIMIT` entries.  An entry holds its state and frame, so
no key's ids can name other objects while it lives.  Queries and Request
Active Source skip it: a device answers each about once per scan, so their
entries would only take memory.

Only `start`, which `run` calls, makes claims; a frame sent before it raises
TopologyError.  A run's fixed cost is its claims, which every run makes: its
addresses and domains are the topology's, the sixteen poll frames are built
once, in `_POLLS`, and initial states come from the devices' state table.
`run` driven directly leaves the cyclic garbage collector running;
`scenarios.run_scenario` pauses it for the whole run.
"""

import heapq
import logging
import re
from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import NamedTuple, TextIO

from cecsim import devices as dv
from cecsim import frames as fr
from cecsim.frames import CecFrame, logical_candidates
from cecsim.topology import Topology, TopologyError

log = logging.getLogger(__name__)

UNREGISTERED = 15

# Opcodes no device acts on: None (a poll) and every response.  `react`
# returns the state unchanged for them, so `deliver` does not call it.
_INERT_OPCODES = fr.RESPONSE_OPCODES | {None}

# The most (state, frame) entries one device's reaction memo holds.
_MEMO_LIMIT = 256

# Opcodes whose reactions skip the memo (see the module docstring).
_UNMEMOIZED = frozenset(fr.QUERY_OPCODES + (fr.OP_REQUEST_ACTIVE_SOURCE,))

# The poll of each logical address, indexed by that address.
_POLLS = tuple(CecFrame(a, a) for a in range(16))


# Tick, origin, frame text and 1 or 0 for the ack; the joined observers and
# the newline follow.
_EVENT_HEAD = "t=%d | %s | %s | ack=%d | obs="
_CHANGE_LINE = "t=%d | %s | %s=%s\n"


class BusEvent(NamedTuple):
    """One frame as it appeared on the wire."""

    tick: int
    origin: str
    frame: CecFrame
    observers: tuple[str, ...]
    acknowledged: bool


class StateChange(NamedTuple):
    """One logged field of a device's state, after a change."""

    tick: int
    device: str
    field: str
    value: str


# Positional builders of the two records: `tuple.__new__` in C, without the
# keyword `__new__` that NamedTuple writes in Python.
_new_event = partial(tuple.__new__, BusEvent)
_new_change = partial(tuple.__new__, StateChange)


# A trace line is its tick, then a rest (origin, frame text, ack and
# observers) that a trace repeats.  Each distinct rest is matched once
# (`_trace_fields`) and each distinct `obs=` text split once, so replayed
# events of one domain share one tuple, as live events do.  Each line still
# makes one `parse_frame` call, one checked decode per distinct frame text
# and one new frame per line, which perfbench's traced counts assume.
_TRACE_TICK = re.compile(r"t=(\d+) \| ")
_TRACE_REST = re.compile(r"(\S+) \| ([0-9a-f:]+) \| ack=([01]) \| obs=(\S*)")


@lru_cache(maxsize=64)
def _trace_observers(text: str) -> tuple[str, ...]:
    return tuple(x for x in text.split(",") if x)


@lru_cache(maxsize=64)
def _trace_fields(rest: str) -> tuple[str, str, tuple[str, ...], bool] | None:
    """Origin, frame text, observers and ack of a line after its tick, or
    None when they do not match."""
    match = _TRACE_REST.fullmatch(rest)
    if match is None:
        return None
    origin, frame, ack, observers = match.groups()
    return origin, frame, _trace_observers(observers), ack == "1"


def parse_trace_line(line: str) -> BusEvent:
    """The event of one `trace.log` line; ValueError (FrameError among
    them) for a line that is not one."""
    text = line.strip()
    tick = _TRACE_TICK.match(text)
    fields = None if tick is None else _trace_fields(text[tick.end():])
    if fields is None:
        raise ValueError("unrecognised trace line: %r" % line)
    origin, frame, observers, acknowledged = fields
    return _new_event((int(tick[1]), origin, fr.parse_frame(frame), observers, acknowledged))


@dataclass
class Trace:
    """Every frame and logged state change of a run, in order.

    The render methods write `trace.log` and `state.log` to a text stream
    one line at a time, never holding a whole log in memory.  The run itself
    still retains every record.
    """

    events: list[BusEvent] = field(default_factory=list)
    changes: list[StateChange] = field(default_factory=list)

    def render_log(self, out: TextIO):
        """Write one `trace.log` line per event to `out`."""
        # Events of one domain share its members tuple: join it once, and
        # write it as a piece of its own rather than copy it into each line
        # (a 500-node domain's is 2.5 kB).
        joined: dict[int, str] = {}
        write = out.write
        for e in self.events:
            observers = joined.get(id(e.observers))
            if observers is None:
                observers = joined[id(e.observers)] = ",".join(e.observers) + "\n"
            write(_EVENT_HEAD % (e.tick, e.origin, e.frame.text, e.acknowledged))
            write(observers)

    def render_state_log(self, out: TextIO):
        """Write one `state.log` line per change to `out`."""
        out.writelines(_CHANGE_LINE % c for c in self.changes)


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


class Actor:
    """Anything that runs on a device and watches the wire or acts on a
    schedule: attack sessions, covert file endpoints, relay pollers.

    Add one with `Simulator.add_actor`.  It hears what its device hears:
    the simulator calls `on_event` only for frames whose observers include
    `device`, its own transmissions among them, whose opcode is in `hears`,
    and only for frames put on the wire after it was added.  It gets
    `on_tick` on each tick between `Simulator.wake` and `Simulator.rest`;
    one that waits rests and queues `Simulator.wake` on the tick before it
    acts.  After `Simulator.remove_actor` it gets neither, from the next
    tick or frame on.  An actor that does not listen declares an empty
    `hears`.
    """

    # The opcodes `on_event` hears (None in it: polls); None hears every frame.
    hears: frozenset[int | None] | None = None

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
        self.membership = frozenset(members)
        # The members that react to a broadcast.
        self.addressed = tuple(n for n in members if nodes[n].cec_addressed)
        # Logical address -> the members that claimed it, in `members` order.
        self.holders: dict[int, list[str]] = {}


class Simulator:
    def __init__(self, topology: Topology):
        self.topology = topology
        self.clock = 0
        self.trace = Trace()
        # What the run produces besides the trace, each in the order made.
        self.transfers: list[TransferRecord] = []
        self.scan_reports: list = []
        self.user_actions: list[UserActionRecord] = []
        self.logical: dict[str, int | None] = {}
        self.device_states: dict[str, dv.DeviceState] = {}
        self.actors: list[Actor] = []
        # The awake actors and, per opcode, the actors that hear it, in add
        # order.  Each change rebinds them, so a loop over one keeps
        # the actors it started with.
        self._tickers: tuple[Actor, ...] = ()
        self._hearing: dict[int | None, tuple[Actor, ...]] = {}
        self._domains: dict[str, _Domain] = {}
        self._ctx: dict[str, dv.DeviceCtx] = {}
        # Each claimed device's memo: (id(state), id(frame)) -> (reaction, state, frame).
        self._memos: dict[str, dict[tuple[int, int], tuple]] = {}
        # Each device's last MENU_PRESSURE_LIMIT control-pressure ticks, made
        # on first use: most devices never feel any.
        self._pressure: dict[str, deque[int]] = defaultdict(
            partial(deque, maxlen=dv.MENU_PRESSURE_LIMIT)
        )
        # Calls for later ticks, as (tick, seq, fn, args), and for this one.
        self._queue: list = []
        self._seq = 0
        self._now: deque[tuple] = deque()
        self._session_counter = 0
        self._started = False

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def start(self):
        """Set up this run's domains and device states, then let devices
        claim logical addresses by polling, in declaration order.  `run`
        calls it; a second call does nothing."""
        if self._started:
            return
        self._started = True
        nodes = self.topology.nodes
        # A domain is keyed by its first member, so each is built once.
        by_first: dict[str, _Domain] = {}
        for node_id, members in self.topology.domains.items():
            domain = by_first.get(members[0])
            if domain is None:
                domain = by_first[members[0]] = _Domain(members, nodes)
            self._domains[node_id] = domain
        for node_id, node in nodes.items():
            self.device_states[node_id] = dv.DeviceState.initial(node)
            self.logical[node_id] = None
            # A device that claims an address gets its context in `_claim`.
            if not node.cec_addressed:
                self._ctx[node_id] = dv.DeviceCtx(node, None, self.topology.physical[node_id])
        claims = [self.allocate_logical_address(n) for n, node in nodes.items() if node.cec_addressed]
        unregistered = claims.count(UNREGISTERED)
        if unregistered:
            log.warning(
                "%d device(s) found no free logical address and stay unregistered (%d)",
                unregistered, UNREGISTERED,
            )

    def allocate_logical_address(self, device_id: str) -> int:
        """Poll candidate addresses and claim the first free one; `start`
        makes each device's one claim here, so a later call raises ValueError.
        A configured fixed address is tried before the type's usual claim
        order.  Returns 15 (stays unregistered) when everything is taken;
        `start` logs how many devices did.
        """
        node = self.topology.nodes[device_id]
        if not node.cec_addressed or self.logical[device_id] is not None:
            raise ValueError("%s is not CEC-addressed or already holds an address" % device_id)
        candidates = logical_candidates(node.device_type)
        fixed = node.logical_address
        if fixed is not None:
            candidates = (fixed, *(c for c in candidates if c != fixed))
        for candidate in candidates:
            if not self.deliver(device_id, _POLLS[candidate]).acknowledged:
                return self._claim(device_id, candidate)
        return self._claim(device_id, UNREGISTERED)

    def _claim(self, device_id: str, address: int) -> int:
        """Record the claim in `logical`, the device's context and the
        domain's holders, by appending: `start` claims in `members` order."""
        self._domains[device_id].holders.setdefault(address, []).append(device_id)
        self.logical[device_id] = address
        self._ctx[device_id] = dv.DeviceCtx(
            self.topology.nodes[device_id], address, self.topology.physical[device_id]
        )
        self._memos[device_id] = {}
        return address

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, tick: int, fn, *args):
        """Call `fn(*args)` at `tick`, after everything already queued for it:
        on the FIFO `_now` when `tick` is the current one, else on the heap."""
        if tick == self.clock:
            self._now.append((fn, args))
            return
        if tick < self.clock:
            raise ValueError(
                "cannot schedule at tick %d, clock is already at %d" % (tick, self.clock)
            )
        heapq.heappush(self._queue, (tick, self._seq, fn, args))
        self._seq += 1

    def transmit_at(self, tick: int, origin: str, frame: CecFrame):
        self.schedule(tick, self.deliver, origin, frame)

    def add_actor(self, actor: Actor):
        """Let `actor` hear frames from now on; adding it twice raises ValueError."""
        if actor in self.actors:
            raise ValueError("actor was already added")
        self.actors.append(actor)
        self._hearing = {}

    def remove_actor(self, actor: Actor):
        self.actors.remove(actor)
        self.rest(actor)
        self._hearing = {}

    def wake(self, actor: Actor):
        """Call `actor.on_tick` on every tick from the next one until `rest`."""
        if actor not in self.actors:
            raise ValueError("cannot wake an actor that was never added")
        self._tickers = tuple(a for a in self.actors if a is actor or a in self._tickers)

    def rest(self, actor: Actor):
        """Stop calling `actor.on_tick`, from the next tick on."""
        self._tickers = tuple(a for a in self._tickers if a is not actor)

    def next_session_id(self) -> str:
        self._session_counter += 1
        return "transfer-%03d" % self._session_counter

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def device_ctx(self, device_id: str) -> dv.DeviceCtx:
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
        nodes, states, clock = self.topology.nodes, self.device_states, self.clock
        domain = self._domains.get(origin)
        if domain is None:
            raise TopologyError("unknown transmitter %r (is the simulator started?)" % origin)
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
        event = _new_event((clock, origin, frame, domain.members, acknowledged))
        self.trace.events.append(event)

        if receivers:
            # `dv.react` is read per call, so a wrapper put on it is seen.
            react, ctxs, memos, pressure = dv.react, self._ctx, self._memos, self._pressure
            changes, frame_id = self.trace.changes, id(frame)
            memoized = frame.opcode not in _UNMEMOIZED
            for node_id in receivers:
                if node_id == origin:
                    continue
                state = states[node_id]
                if memoized:
                    memo = memos[node_id]
                    entry = memo.get(key := (id(state), frame_id))
                    if entry is None:
                        if len(memo) >= _MEMO_LIMIT:
                            memo.clear()
                        entry = memo[key] = (react(ctxs[node_id], state, frame), state, frame)
                    reaction = entry[0]
                else:
                    reaction = react(ctxs[node_id], state, frame)
                if reaction.control_pressure:
                    pressure[node_id].append(clock)
                if reaction.state is not state:
                    states[node_id] = reaction.state
                    for name, value in reaction.changed:
                        changes.append(_new_change((clock, node_id, name, value)))
                if reaction.responses:
                    for tick, response in enumerate(reaction.responses, clock + 1):
                        self.transmit_at(tick, node_id, response)

        listeners = self._hearing.get(frame.opcode)
        if listeners is None:
            listeners = self._hearing[frame.opcode] = tuple(
                a for a in self.actors if a.hears is None or frame.opcode in a.hears
            )
        membership = domain.membership
        for actor in listeners:
            if actor.device in membership:
                actor.on_event(self, event)
        return event

    def user_action(self, device: str, action: dv.UserAction, argument: int | None = None):
        """Someone works the device's own buttons or menu right now."""
        state = self.device_states[device]
        accessible = self.settings_menu_accessible(device)
        refusal, reaction = dv.apply_user_action(
            self.device_ctx(device), state, action, argument, accessible
        )
        self.user_actions.append(
            UserActionRecord(self.clock, device, action.value, not refusal, refusal)
        )
        if refusal:
            log.info("t=%d %s %s rejected: %s", self.clock, device, action.value, refusal)
        # Never control pressure; the i-th emission goes at tick clock + i.
        if reaction.state is not state:
            self.device_states[device] = reaction.state
            for name, value in reaction.changed:
                self.trace.changes.append(_new_change((self.clock, device, name, value)))
        for tick, response in enumerate(reaction.responses, self.clock):
            self.transmit_at(tick, device, response)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self, until: int) -> Trace:
        """Process every tick before `until`; with no actor awake, the clock
        jumps straight to the next queued call, or to `until`."""
        self.start()
        queue, now = self._queue, self._now
        while self.clock < until:
            tick = self.clock
            for actor in self._tickers:
                actor.on_tick(self, tick)
            while queue and queue[0][0] == tick:
                _, _, fn, args = heapq.heappop(queue)
                fn(*args)
            while now:
                fn, args = now.popleft()
                fn(*args)
            if self._tickers:
                self.clock = tick + 1
            else:
                self.clock = min(queue[0][0], until) if queue else until
        return self.trace
