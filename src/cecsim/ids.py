"""Rule-based detection over bus traces, plus the defensive knobs.

Detection is a pure function of the events fed: the streaming Detector
holds after each event exactly the alerts an offline pass over the same
prefix would.  Which events a tap sees is `observed`, the one tap rule.
Each event goes only to the rules its opcode can trip, and the rules keep
frames, encoding them only as an alert's evidence.  Each sustained rule
(scan, churn, standby, stream) fires once per initiator and then drops that
initiator's window.  Alerts serialise as JSON lines citing the frames that
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
    (scanning, churn, repeated standby, streaming) keeps an initiator's
    frames in its (rule, initiator) window until `_fire` raises the alert
    from it; the window is then dropped, and `_fired` makes the rule skip
    that initiator's frames from then on.
    """

    def __init__(self, config: RuleConfig | None = None):
        self.config = config or RuleConfig()
        self.alerts: list[Alert] = []
        # (rule, initiator) -> (tick, frame) window, until the rule fires.
        self._windows: dict[tuple[str, str], deque] = {}
        # Recent broadcast announcements, each with its wire's observers.
        self._announcements: deque = deque()
        self._fired: set[tuple[str, str]] = set()

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

    def _window(self, rule: str, event: BusEvent, span: int | None = None) -> deque | None:
        """The initiator's window for `rule`, this frame added and frames a
        `span` or more ticks older dropped; None once the rule has fired."""
        key = (rule, event.origin)
        if key in self._fired:
            return None
        window = self._windows.get(key)
        if window is None:
            window = self._windows[key] = deque()
        tick = event.tick
        window.append((tick, event.frame))
        if span is not None:
            while window[0][0] <= tick - span:
                window.popleft()
        return window

    def _fire(self, rule: str, subject: str, window: deque):
        """Raise `rule` once for the initiator, citing its window, and drop the window."""
        self._fired.add((rule, subject))
        del self._windows[(rule, subject)]
        self.alerts.append(
            Alert(rule, (window[0][0], window[-1][0]), subject, tuple(f.text for _, f in window))
        )

    def _check_stream(self, event: BusEvent):
        if len(event.frame.operands) <= 1:
            return
        # The alert cites the first three data frames; later ones add nothing.
        window = self._window(RULE_COVERT_STREAM, event)
        if window is not None and len(window) == 3:
            self._fire(RULE_COVERT_STREAM, event.origin, window)

    def _check_scan(self, event: BusEvent):
        window = self._window(RULE_SCAN_BURST, event, self.config.scan_window)
        # A window of fewer frames than the limit cannot hold that many
        # destinations, so a device's few claim polls build no set.
        limit = self.config.scan_distinct_addresses
        if window is not None and len(window) >= limit:
            if len({f.destination for _, f in window}) >= limit:
                self._fire(RULE_SCAN_BURST, event.origin, window)

    def _check_churn(self, event: BusEvent):
        window = self._window(RULE_INPUT_CHURN, event, self.config.churn_window)
        if window is not None and len(window) >= self.config.churn_count:
            self._fire(RULE_INPUT_CHURN, event.origin, window)

    def _check_standby(self, event: BusEvent):
        frame = event.frame
        tick = event.tick
        if frame.opcode in fr.ANNOUNCE_OPCODES and frame.is_broadcast:
            self._announcements.append((tick, event.origin, frame, event.observers))
        while self._announcements and self._announcements[0][0] < tick - self.config.standby_gap:
            self._announcements.popleft()
        if frame.opcode != fr.OP_STANDBY or (RULE_TARGETED_STANDBY, event.origin) in self._fired:
            return
        # The standby pairs with the oldest announcement on its wire that it
        # answers; the window holds the pairs in turn, announcement then standby.
        for ann_tick, ann_origin, announcement, observers in self._announcements:
            if ann_origin != event.origin and observers == event.observers and (
                frame.is_broadcast or frame.destination == announcement.initiator
            ):
                window = self._windows.setdefault((RULE_TARGETED_STANDBY, event.origin), deque())
                window.extend(((ann_tick, announcement), (tick, frame)))
                if len(window) == 2 * self.config.standby_repeat:
                    self._fire(RULE_TARGETED_STANDBY, event.origin, window)
                return


def _checks_by_opcode() -> dict[int | None, list]:
    """Opcode (None for a poll) -> the checks a frame with it can trip, in
    the order their alerts are raised."""
    table: dict[int | None, list] = {}
    for opcodes, check in (
        ({marker.opcode for marker in _MARKERS}, Detector._check_markers),
        ((DATA_OPCODE,), Detector._check_stream),
        ((None,) + fr.QUERY_OPCODES, Detector._check_scan),
        (fr.CHURN_OPCODES, Detector._check_churn),
        (fr.ANNOUNCE_OPCODES + (fr.OP_STANDBY,), Detector._check_standby),
    ):
        for opcode in opcodes:
            table.setdefault(opcode, []).append(check)
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
    for event in observed(events, tap):
        detector.feed(event)
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
