"""Rule-based detection over bus traces, plus the defensive knobs.

Detection is a pure function of the events fed: the streaming Detector
holds after each event exactly the alerts an offline pass over the same
prefix would.  Which events a tap sees is `observed`, the one tap rule.
Each event goes only to the rules its opcode can trip, and the rules keep
frames, encoding them only as an alert's evidence.  Each sustained rule
(scan, churn, standby, stream) keeps one table of initiators and fires once
per initiator; the table then maps that initiator to the `FIRED` marker in
place of its window.  Alerts serialise as JSON lines citing the frames that
tripped each rule.
"""

import json
import logging
from collections import deque
from dataclasses import dataclass, fields, replace

from cecsim import frames as fr
from cecsim import schema
from cecsim.bus import BusEvent
from cecsim.topology import Topology, TopologyError
from cecsim.transfer import DATA_OPCODE, END_MARKER, MIC_MARKER, REQUEST_MARKER

log = logging.getLogger(__name__)

RULE_SCAN_BURST = "ScanBurst"
RULE_INPUT_CHURN = "InputChurnDoS"
RULE_TARGETED_STANDBY = "TargetedStandby"
RULE_COVERT_MARKER = "CovertMarker"
RULE_COVERT_STREAM = "CovertStream"
RULES = (RULE_SCAN_BURST, RULE_INPUT_CHURN, RULE_TARGETED_STANDBY, RULE_COVERT_MARKER,
         RULE_COVERT_STREAM)

# The rules that fire once per initiator, in the order of `Detector.tables`.
SUSTAINED_RULES = (RULE_SCAN_BURST, RULE_INPUT_CHURN, RULE_TARGETED_STANDBY, RULE_COVERT_STREAM)

# What a sustained rule's table maps an initiator to once the rule has
# fired for it: an empty tuple, so it holds no frame.
FIRED = ()

# Covert-channel marker frames; each sighting raises a CovertMarker alert.
_MARKERS = frozenset((REQUEST_MARKER, MIC_MARKER, END_MARKER))


@dataclass(frozen=True)
class RuleConfig:
    # Distinct destinations one initiator may poll or query per window.
    scan_distinct_addresses: int = 8
    scan_window: int = 50
    # Active Source / Image View On frames one initiator may send per window.
    churn_count: int = 5
    churn_window: int = 30
    # Third-party Standby this close behind a power-on announcement, this
    # many times, reads as a kill switch.
    standby_gap: int = 2
    standby_repeat: int = 2

    def __post_init__(self):
        for item in fields(self):
            schema.integer(getattr(self, item.name), item.name, 1)

    @classmethod
    def from_dict(cls, raw: dict) -> "RuleConfig":
        return cls(**schema.keyed(raw, "detector settings", {f.name for f in fields(cls)}))


# Frozen, so every detector built without a config shares this one.
_DEFAULT_CONFIG = RuleConfig()


@dataclass(frozen=True)
class Alert:
    rule: str
    window: tuple[int, int]
    subject: str
    evidence: tuple[str, ...]

    def to_json(self) -> str:
        return json.dumps(
            {
                "rule": self.rule,
                "window": list(self.window),
                "subject": self.subject,
                "evidence": list(self.evidence),
            }
        )


class Detector:
    """Runs the rules on every event fed, in trace order, into `alerts`.

    The marker rule fires on every marker frame.  Each sustained rule
    (scanning, churn, repeated standby, streaming) keeps its own table of
    initiators in `tables`: an initiator's frames stay in its window there
    until `_fire` raises the alert from them, and then the table maps the
    initiator to `FIRED`, so the rule skips its frames from then on.  Each
    check steps its window itself (look up, skip a fired initiator, append,
    drop frames a window old): a helper call per event costs more than the
    step.
    """

    def __init__(self, config: RuleConfig | None = None):
        self.config = config or _DEFAULT_CONFIG
        self.alerts: list[Alert] = []
        # Rule -> initiator -> its (tick, frame) window, or FIRED.
        self.tables: dict[str, dict[str, deque | tuple]] = {rule: {} for rule in SUSTAINED_RULES}
        self._scan, self._churn, self._standby, self._stream = self.tables.values()
        # Recent broadcast announcements, each with its wire's observers.
        self._announcements: deque = deque()

    def feed(self, event: BusEvent) -> None:
        for check in _CHECKS_BY_OPCODE.get(event.frame.opcode, ()):
            check(self, event)

    # ------------------------------------------------------------------

    def _check_markers(self, event: BusEvent):
        frame = event.frame
        if frame in _MARKERS:
            self.alerts.append(
                Alert(RULE_COVERT_MARKER, (event.tick, event.tick), event.origin, (frame.text,))
            )

    def _fire(self, rule: str, subject: str, window: deque):
        """Raise `rule` once for the initiator, citing its window, and mark it fired."""
        self.tables[rule][subject] = FIRED
        self.alerts.append(
            Alert(rule, (window[0][0], window[-1][0]), subject, tuple(f.text for _, f in window))
        )

    def _check_stream(self, event: BusEvent):
        if len(event.frame.operands) <= 1:
            return
        # The alert cites the first three data frames; later ones add nothing.
        origin = event.origin
        window = self._stream.get(origin)
        if window is None:
            window = self._stream[origin] = deque()
        elif window is FIRED:
            return
        window.append((event.tick, event.frame))
        if len(window) == 3:
            self._fire(RULE_COVERT_STREAM, origin, window)

    def _check_scan(self, event: BusEvent):
        origin, tick = event.origin, event.tick
        window = self._scan.get(origin)
        if window is None:
            window = self._scan[origin] = deque()
        elif window is FIRED:
            return
        window.append((tick, event.frame))
        while window[0][0] <= tick - self.config.scan_window:
            window.popleft()
        # A window of fewer frames than the limit cannot hold that many
        # destinations, so a device's few claim polls build no set.
        limit = self.config.scan_distinct_addresses
        if len(window) >= limit:
            if len({f.destination for _, f in window}) >= limit:
                self._fire(RULE_SCAN_BURST, origin, window)

    def _check_churn(self, event: BusEvent):
        origin, tick = event.origin, event.tick
        window = self._churn.get(origin)
        if window is None:
            window = self._churn[origin] = deque()
        elif window is FIRED:
            return
        window.append((tick, event.frame))
        while window[0][0] <= tick - self.config.churn_window:
            window.popleft()
        if len(window) >= self.config.churn_count:
            self._fire(RULE_INPUT_CHURN, origin, window)

    def _check_standby(self, event: BusEvent):
        frame = event.frame
        tick = event.tick
        if frame.opcode in fr.ANNOUNCE_OPCODES and frame.is_broadcast:
            self._announcements.append((tick, event.origin, frame, event.observers))
        while self._announcements and self._announcements[0][0] < tick - self.config.standby_gap:
            self._announcements.popleft()
        if frame.opcode != fr.OP_STANDBY:
            return
        window = self._standby.get(event.origin)
        if window is FIRED:
            return
        # The standby pairs with the oldest announcement on its wire that it
        # answers; the window holds the pairs in turn, announcement then standby.
        for ann_tick, ann_origin, announcement, observers in self._announcements:
            if ann_origin != event.origin and observers == event.observers and (
                frame.is_broadcast or frame.destination == announcement.initiator
            ):
                if window is None:
                    window = self._standby[event.origin] = deque()
                window.extend(((ann_tick, announcement), (tick, frame)))
                if len(window) == 2 * self.config.standby_repeat:
                    self._fire(RULE_TARGETED_STANDBY, event.origin, window)
                return


def _checks_by_opcode() -> dict[int | None, tuple]:
    """Opcode (None for a poll) -> the checks a frame with it can trip, in
    the order their alerts are raised."""
    table: dict[int | None, tuple] = {}
    for opcodes, check in (
        ({marker.opcode for marker in _MARKERS}, Detector._check_markers),
        ((DATA_OPCODE,), Detector._check_stream),
        ((None,) + fr.QUERY_OPCODES, Detector._check_scan),
        (fr.CHURN_OPCODES, Detector._check_churn),
        (fr.ANNOUNCE_OPCODES + (fr.OP_STANDBY,), Detector._check_standby),
    ):
        for opcode in opcodes:
            table[opcode] = table.get(opcode, ()) + (check,)
    return table


_CHECKS_BY_OPCODE = _checks_by_opcode()


def observed(events, tap: str | None):
    """The events `tap` observes: those whose observers include it.  No tap
    (None) observes every event.  The events of one domain share one
    observers tuple, so the tap is looked up only when the tuple changes."""
    if tap is None:
        yield from events
        return
    observers = tapped = None
    for event in events:
        if event.observers is not observers:
            observers = event.observers
            tapped = tap in observers
        if tapped:
            yield event


def detect(events, config: RuleConfig | None = None, tap: str | None = None) -> list[Alert]:
    """Offline pass over what `tap` observes: identical to streaming it."""
    detector = Detector(config)
    feed = detector.feed
    for event in observed(events, tap):
        feed(event)
    return detector.alerts


# ---------------------------------------------------------------------------
# Mitigations
# ---------------------------------------------------------------------------

# Each mitigation type and its fields, every one a device id.  strip_edge
# cuts one cable's control wire (video keeps flowing); disable_control stops
# a device obeying control frames (it still answers queries); disable_cec
# takes a device off CEC entirely: no control, no reporting, no acks.
_MITIGATIONS = {
    "strip_edge": ("parent", "child"),
    "disable_control": ("device",),
    "disable_cec": ("device",),
}


def apply_mitigation(topology: Topology, raw: dict) -> Topology:
    """Validate one mitigation document and return a copy of the topology
    with it applied.  The copy shares every node and edge the mitigation
    leaves as they were."""
    kind = schema.text(schema.obj(raw, "mitigation").get("type"), "mitigation type", _MITIGATIONS)
    ids = [schema.text(raw.get(name), "%s %s" % (kind, name)) for name in _MITIGATIONS[kind]]
    if kind == "strip_edge":
        for i, edge in enumerate(topology.edges):
            if [edge.parent, edge.child] == ids:
                edges, stripped = topology.edges, replace(edge, cec_propagates=False)
                return replace(topology, edges=edges[:i] + (stripped,) + edges[i + 1:])
        raise TopologyError("no edge %r -> %r to strip" % tuple(ids))
    [device] = ids
    node = topology.nodes.get(device)
    if node is None:
        raise TopologyError("unknown device %r in mitigation" % device)
    reporting = node.cec_info_reporting_enabled and kind == "disable_control"
    node = replace(node, cec_control_enabled=False, cec_info_reporting_enabled=reporting)
    # The patched node keeps its place in the node order.
    return replace(topology, nodes={**topology.nodes, device: node})
