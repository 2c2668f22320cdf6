"""Rule-based detection over bus traces, plus the defensive knobs.

Detection is a pure function of the event sequence: the streaming Detector
fed events one at a time emits exactly the alerts an offline pass over the
same prefix would.  Each event goes only to the rules its opcode can trip,
and the rules keep frames, encoding them only as an alert's evidence.
Each sustained rule (scan, churn, standby, stream) fires once per initiator
and then drops that initiator's window.  Alerts serialise as JSON lines
citing the frames that tripped each rule.
"""

import copy
import json
import logging
from collections import deque
from dataclasses import dataclass, fields

from cecsim import frames as fr
from cecsim import schema
from cecsim.bus import BusEvent
from cecsim.topology import Edge, Topology, TopologyError
from cecsim.transfer import END_MARKER, MIC_MARKER, REQUEST_MARKER

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
        known = {item.name for item in fields(cls)}
        unknown = set(schema.obj(raw, "detector settings")) - known
        if unknown:
            raise schema.FieldError("unknown detector settings: %s" % ", ".join(sorted(unknown)))
        return cls(**raw)


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
    """Feed events in trace order; each call returns newly raised alerts.

    The marker rule fires on every marker frame.  Each sustained rule
    (scanning, churn, repeated standby, streaming) keeps an initiator's
    frames in its (rule, initiator) window until `_fire` raises the alert
    from it; the window is then dropped, and `_fired` makes the rule skip
    that initiator's frames from then on.
    """

    def __init__(self, config: RuleConfig | None = None, tap: str | None = None):
        self.config = config or RuleConfig()
        self.tap = tap
        self.alerts: list[Alert] = []
        # (rule, initiator) -> (tick, frame) window, until the rule fires.
        self._windows: dict[tuple[str, str], deque] = {}
        # Recent broadcast announcements from every initiator, for standby.
        self._announcements: deque = deque()
        self._fired: set[tuple[str, str]] = set()
        # The last observers tuple seen, and whether the tap is in it: the
        # events of one domain share one tuple.
        self._observers: tuple[str, ...] | None = None
        self._tapped = True
        # Whether the tap has observed any fed event (always, without a tap).
        self.tap_seen = tap is None

    def feed(self, event: BusEvent) -> list[Alert]:
        if self.tap is not None:
            if event.observers is not self._observers:
                self._observers = event.observers
                self._tapped = self.tap in event.observers
                self.tap_seen = self.tap_seen or self._tapped
            if not self._tapped:
                return []
        checks = _CHECKS_BY_OPCODE.get(event.frame.opcode)
        if checks is None:
            return []
        new: list[Alert] = []
        for check in checks:
            check(self, event, new)
        self.alerts.extend(new)
        return new

    # ------------------------------------------------------------------

    def _check_markers(self, event: BusEvent, new: list[Alert]):
        frame = event.frame
        if frame in _MARKERS:
            new.append(
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

    def _fire(self, rule: str, subject: str, window: deque, new: list[Alert]):
        """Raise `rule` once for the initiator, citing its window, and drop the window."""
        self._fired.add((rule, subject))
        del self._windows[(rule, subject)]
        new.append(
            Alert(rule, (window[0][0], window[-1][0]), subject, tuple(f.text for _, f in window))
        )

    def _check_stream(self, event: BusEvent, new: list[Alert]):
        if len(event.frame.operands) <= 1:
            return
        # The alert cites the first three data frames; later ones add nothing.
        window = self._window(RULE_COVERT_STREAM, event)
        if window is not None and len(window) == 3:
            self._fire(RULE_COVERT_STREAM, event.origin, window, new)

    def _check_scan(self, event: BusEvent, new: list[Alert]):
        window = self._window(RULE_SCAN_BURST, event, self.config.scan_window)
        if window is None:
            return
        if len({f.destination for _, f in window}) >= self.config.scan_distinct_addresses:
            self._fire(RULE_SCAN_BURST, event.origin, window, new)

    def _check_churn(self, event: BusEvent, new: list[Alert]):
        window = self._window(RULE_INPUT_CHURN, event, self.config.churn_window)
        if window is not None and len(window) >= self.config.churn_count:
            self._fire(RULE_INPUT_CHURN, event.origin, window, new)

    def _check_standby(self, event: BusEvent, new: list[Alert]):
        frame = event.frame
        tick = event.tick
        if frame.opcode in fr.ANNOUNCE_OPCODES and frame.is_broadcast:
            self._announcements.append((tick, event.origin, frame))
        while self._announcements and self._announcements[0][0] < tick - self.config.standby_gap:
            self._announcements.popleft()
        if frame.opcode != fr.OP_STANDBY or (RULE_TARGETED_STANDBY, event.origin) in self._fired:
            return
        # The standby pairs with the oldest announcement it answers; the
        # window holds the pairs in turn, announcement then standby.
        for ann_tick, ann_origin, announcement in self._announcements:
            if ann_origin != event.origin and (
                frame.is_broadcast or frame.destination == announcement.initiator
            ):
                window = self._windows.setdefault((RULE_TARGETED_STANDBY, event.origin), deque())
                window.extend(((ann_tick, announcement), (tick, frame)))
                if len(window) == 2 * self.config.standby_repeat:
                    self._fire(RULE_TARGETED_STANDBY, event.origin, window, new)
                return


def _checks_by_opcode() -> dict[int | None, list]:
    """Opcode (None for a poll) -> the checks a frame with it can trip, in
    the order their alerts are raised."""
    table: dict[int | None, list] = {}
    for opcodes, check in (
        ({marker.opcode for marker in _MARKERS}, Detector._check_markers),
        ((0x00,), Detector._check_stream),
        ((None,) + fr.QUERY_OPCODES, Detector._check_scan),
        (fr.CHURN_OPCODES, Detector._check_churn),
        (fr.ANNOUNCE_OPCODES + (fr.OP_STANDBY,), Detector._check_standby),
    ):
        for opcode in opcodes:
            table.setdefault(opcode, []).append(check)
    return table


_CHECKS_BY_OPCODE = _checks_by_opcode()


def detect(events, config: RuleConfig | None = None, tap: str | None = None) -> list[Alert]:
    """Offline pass: identical to streaming the same events in order."""
    detector = Detector(config, tap)
    for event in events:
        detector.feed(event)
    return detector.alerts


# ---------------------------------------------------------------------------
# Mitigations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StripEdge:
    """Sever the control wire on one cable; video keeps flowing."""

    parent: str
    child: str


@dataclass(frozen=True)
class DisableControl:
    """Device stops obeying control frames but still answers queries."""

    device: str


@dataclass(frozen=True)
class DisableCecEndToEnd:
    """Device drops off CEC entirely: no control, no reporting, no acks."""

    device: str


Mitigation = StripEdge | DisableControl | DisableCecEndToEnd


def apply_mitigation(topology: Topology, mitigation: Mitigation) -> Topology:
    """Return a copy of the topology with the mitigation applied."""
    topo = copy.deepcopy(topology)
    if isinstance(mitigation, StripEdge):
        for i, edge in enumerate(topo.edges):
            if edge.parent == mitigation.parent and edge.child == mitigation.child:
                topo.edges[i] = Edge(edge.parent, edge.child, edge.port, cec_propagates=False)
                return topo
        raise TopologyError(
            "no edge %r -> %r to strip" % (mitigation.parent, mitigation.child)
        )
    if isinstance(mitigation, (DisableControl, DisableCecEndToEnd)):
        node = topo.nodes.get(mitigation.device)
        if node is None:
            raise TopologyError("unknown device %r in mitigation" % mitigation.device)
        node.cec_control_enabled = False
        if isinstance(mitigation, DisableCecEndToEnd):
            node.cec_info_reporting_enabled = False
        return topo
    raise TypeError("unknown mitigation %r" % (mitigation,))


_MITIGATIONS = {
    "strip_edge": StripEdge, "disable_control": DisableControl, "disable_cec": DisableCecEndToEnd
}


def parse_mitigation(raw: dict) -> Mitigation:
    """A mitigation from its document; each field is a device id."""
    kind = schema.text(raw.get("type"), "mitigation type", _MITIGATIONS)
    names = [item.name for item in fields(_MITIGATIONS[kind])]
    return _MITIGATIONS[kind](*(schema.text(raw.get(n), "%s %s" % (kind, n)) for n in names))
