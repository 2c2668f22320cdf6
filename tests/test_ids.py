"""Detector rules, tap filtering, and mitigation rewrites."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cecsim import frames as fr
from cecsim.bus import BusEvent, Simulator, parse_trace_line
from cecsim.frames import CecFrame, parse_frame
from cecsim.ids import (
    FIRED,
    Alert,
    Detector,
    RULE_COVERT_MARKER,
    RULE_COVERT_STREAM,
    RULE_INPUT_CHURN,
    RULE_SCAN_BURST,
    RULE_TARGETED_STANDBY,
    RuleConfig,
    apply_mitigation,
    detect,
    observed,
)
from cecsim.topology import TopologyError
from cecsim.transfer import END_MARKER, MIC_MARKER, REQUEST_MARKER

from conftest import build_testbed, rendered


def ev(tick, origin, text, observers=("tap", "a", "b"), ack=True):
    return BusEvent(tick, origin, parse_frame(text), tuple(observers), ack)


def live_windows(detector):
    """(rule, initiator) -> frames held, for each window a rule still keeps."""
    return {
        (rule, initiator): len(window)
        for rule, table in detector.tables.items()
        for initiator, window in table.items()
        if window is not FIRED
    }


# ---------------------------------------------------------------------------
# Individual rules on synthetic streams
# ---------------------------------------------------------------------------

class TestScanBurst:
    def test_eight_distinct_polls_alert(self):
        events = [ev(t, "spy", "%x%x" % (t, t)) for t in range(8)]
        alerts = detect(events)
        assert [a.rule for a in alerts] == [RULE_SCAN_BURST]
        assert alerts[0].subject == "spy"

    def test_seven_distinct_quiet(self):
        events = [ev(t, "spy", "%x%x" % (t, t)) for t in range(7)]
        assert detect(events) == []

    def test_repeats_do_not_count_twice(self):
        events = [ev(t, "spy", "11") for t in range(20)]
        assert detect(events) == []

    def test_directed_queries_count(self):
        events = [ev(t, "spy", "1%x:8f" % t) for t in range(8)]
        assert [a.rule for a in detect(events)] == [RULE_SCAN_BURST]

    def test_window_expiry_resets(self):
        events = [ev(t * 20, "spy", "%x%x" % (t, t)) for t in range(8)]
        assert detect(events) == []

    def test_fires_once_per_subject(self):
        events = [ev(t, "spy", "%x%x" % (t % 15, t % 15)) for t in range(40)]
        assert len([a for a in detect(events) if a.rule == RULE_SCAN_BURST]) == 1

    def test_two_scanners_two_alerts(self):
        events = []
        for t in range(8):
            events.append(ev(2 * t, "spy1", "%x%x" % (t, t)))
            events.append(ev(2 * t + 1, "spy2", "%x%x" % (t, t)))
        alerts = [a for a in detect(events) if a.rule == RULE_SCAN_BURST]
        assert sorted(a.subject for a in alerts) == ["spy1", "spy2"]


class TestInputChurn:
    def test_five_claims_alert(self):
        events = [ev(t, "spy", "1f:82:%x0:00" % ((t % 4) + 1)) for t in range(5)]
        alerts = detect(events)
        assert [a.rule for a in alerts] == [RULE_INPUT_CHURN]

    def test_four_claims_quiet(self):
        events = [ev(t, "spy", "1f:82:10:00") for t in range(4)]
        assert detect(events) == []

    def test_image_view_on_counts(self):
        events = [ev(t, "spy", "10:04") for t in range(5)]
        assert [a.rule for a in detect(events)] == [RULE_INPUT_CHURN]

    def test_slow_claims_quiet(self):
        events = [ev(t * 31, "spy", "1f:82:10:00") for t in range(8)]
        assert detect(events) == []


class TestTargetedStandby:
    def _wake_then_kill(self, pairs, gap=1):
        events = []
        tick = 0
        for _ in range(pairs):
            events.append(ev(tick, "tv", "0f:84:00:00:00"))
            events.append(ev(tick + gap, "spy", "10:36"))
            tick += 10
        return events

    def test_two_pairs_alert(self):
        alerts = detect(self._wake_then_kill(2))
        assert [a.rule for a in alerts] == [RULE_TARGETED_STANDBY]
        assert alerts[0].subject == "spy"

    def test_single_pair_quiet(self):
        assert detect(self._wake_then_kill(1)) == []

    def test_late_standby_quiet(self):
        assert detect(self._wake_then_kill(3, gap=5)) == []

    def test_self_standby_quiet(self):
        events = []
        for tick in (0, 10):
            events.append(ev(tick, "tv", "0f:84:00:00:00"))
            events.append(ev(tick + 1, "tv", "00:36"))
        assert detect(events) == []

    def test_standby_pairs_bounded(self):
        detector = Detector()
        for event in self._wake_then_kill(50):
            detector.feed(event)
        assert [a.rule for a in detector.alerts] == [RULE_TARGETED_STANDBY]
        assert detector.alerts[0].window == (0, 11)
        assert live_windows(detector) == {}
        assert detector.tables[RULE_TARGETED_STANDBY] == {"spy": FIRED}

    def test_broadcast_standby_counts(self):
        events = []
        for tick in (0, 10):
            events.append(ev(tick, "tv", "0f:84:00:00:00"))
            events.append(ev(tick + 1, "spy", "1f:36"))
        assert [a.rule for a in detect(events)] == [RULE_TARGETED_STANDBY]

    @staticmethod
    def _across_wires(listener_wire):
        """tv announces on its wire, then listener sends Standby to tv on
        `listener_wire`, twice."""
        events = []
        for tick in (10, 20):
            events.append(ev(tick, "tv", "0f:84:00:00:00", observers=("tv", "amp")))
            events.append(ev(tick + 1, "listener", "30:36", observers=listener_wire))
        return events

    @pytest.mark.parametrize("tap", [None, "tv", "switch"])
    def test_standby_pairs_only_with_an_announcement_on_its_wire(self, tap):
        # No single wire carries both frames, so no tap, and no detector
        # fed every wire, may pair them.
        assert detect(self._across_wires(("switch", "listener")), tap=tap) == []

    def test_same_wire_pairs(self):
        alerts = detect(self._across_wires(("tv", "amp")))
        assert [(a.rule, a.subject) for a in alerts] == [(RULE_TARGETED_STANDBY, "listener")]


class TestCovertRules:
    def test_each_marker_alerts(self):
        events = [
            ev(1, "pc", "aa:aa:aa:aa"),
            ev(2, "pc", "bb:bb:bb:bb"),
            ev(3, "spy", "ee:ee:ee:ee"),
        ]
        alerts = detect(events)
        assert [a.rule for a in alerts] == [RULE_COVERT_MARKER] * 3
        assert [a.subject for a in alerts] == ["pc", "pc", "spy"]

    def test_stream_of_wide_data_frames(self):
        events = [ev(t, "spy", "12:00:01:02:03") for t in range(3)]
        alerts = detect(events)
        assert [a.rule for a in alerts] == [RULE_COVERT_STREAM]

    def test_two_wide_frames_quiet(self):
        events = [ev(t, "spy", "12:00:01:02:03") for t in range(2)]
        assert detect(events) == []

    def test_narrow_data_frames_quiet(self):
        # single-operand frames look like feature aborts, not payload
        events = [ev(t, "spy", "12:00:05") for t in range(10)]
        assert detect(events) == []

    def test_stream_fires_once(self):
        events = [ev(t, "spy", "12:00:01:02:03") for t in range(30)]
        assert len(detect(events)) == 1

    def test_stream_bucket_bounded(self):
        detector = Detector()
        for t in range(10_000):
            detector.feed(ev(t, "spy", "12:00:01:02:03"))
        assert [a.rule for a in detector.alerts] == [RULE_COVERT_STREAM]
        assert detector.alerts[0].window == (0, 2)
        assert live_windows(detector) == {}
        assert detector.tables[RULE_COVERT_STREAM] == {"spy": FIRED}


# The frames that trip each sliding-window rule at the default thresholds,
# and that rule's window in ticks.
_WINDOWED = [
    pytest.param(RULE_SCAN_BURST, ["%x%x" % (d, d) for d in range(8)], 50, id="scan"),
    pytest.param(
        RULE_INPUT_CHURN, ["1f:82:%x0:00" % (n % 4 + 1) for n in range(5)], 30, id="churn"
    ),
]


class TestRuleWindows:
    @pytest.mark.parametrize("rule, texts, window", _WINDOWED)
    @pytest.mark.parametrize("first, fires", [(0, False), (1, True)])
    def test_first_frame_one_window_old_is_dropped(self, rule, texts, window, first, fires):
        # The first frame at `first`, the rest at `window`: exactly one window
        # older than the last frame falls out, one tick newer still counts.
        events = [ev(first, "spy", texts[0])] + [ev(window, "spy", t) for t in texts[1:]]
        alerts = detect(events)
        assert [a.rule for a in alerts] == ([rule] if fires else [])
        if fires:
            assert alerts[0].window == (first, window)

    @pytest.mark.parametrize(
        "rule, sent",
        [
            pytest.param(RULE_SCAN_BURST, [("spy", "%x%x" % (d, d)) for d in range(8)], id="scan"),
            pytest.param(RULE_INPUT_CHURN, [("spy", "1f:82:10:00")] * 5, id="churn"),
            pytest.param(RULE_COVERT_STREAM, [("spy", "12:00:01:02:03")] * 3, id="stream"),
            pytest.param(
                RULE_TARGETED_STANDBY, [("tv", "0f:84:00:00:00"), ("spy", "10:36")] * 2,
                id="standby",
            ),
        ],
    )
    def test_window_dropped_once_rule_fires(self, rule, sent):
        # `sent` trips the rule once for "spy"; it is sent 50 times over.
        detector = Detector()
        for t, (origin, text) in enumerate(sent * 50):
            detector.feed(ev(t, origin, text))
            if t == len(sent) - 2:
                assert list(live_windows(detector)) == [(rule, "spy")]
        assert [a.rule for a in detector.alerts] == [rule]
        assert live_windows(detector) == {}
        assert detector.tables[rule] == {"spy": FIRED}


# ---------------------------------------------------------------------------
# Streaming equals offline; tap filtering
# ---------------------------------------------------------------------------

def _strip(parent: str, child: str) -> dict:
    return {"type": "strip_edge", "parent": parent, "child": child}


_TESTBED_IDS = tuple(sorted(build_testbed().nodes))
_TESTBED_EDGES = [_strip(e.parent, e.child) for e in build_testbed().edges]
_nibbles = st.integers(0, 15)
_bytes = st.binary(max_size=6)

_standby_frames = st.one_of(
    st.builds(lambda s, d: CecFrame(s, d, fr.OP_STANDBY), _nibbles, st.just(15) | _nibbles),
    st.builds(lambda s, op, ops: CecFrame(s, 15, op, ops), _nibbles,
              st.sampled_from(fr.ANNOUNCE_OPCODES), _bytes),
)

# Frames of the kinds the rules watch: churn, scan, standby and covert.  A
# standby alert needs an announcement and a standby close together, so
# those are drawn more often.
attack_frames = st.one_of(
    st.builds(lambda s, hi: CecFrame(s, 15, fr.OP_ACTIVE_SOURCE, bytes((hi, 0))),
              _nibbles, st.integers(0x10, 0x4F)),
    st.builds(lambda s, d: CecFrame(s, d, fr.OP_IMAGE_VIEW_ON), _nibbles, _nibbles),
    st.builds(CecFrame, _nibbles, _nibbles),
    st.builds(lambda s, d, op: CecFrame(s, d, op), _nibbles, _nibbles,
              st.sampled_from(fr.QUERY_OPCODES)),
    _standby_frames,
    _standby_frames,
    _standby_frames,
    st.builds(lambda s, d, ops: CecFrame(s, d, 0x00, ops), _nibbles, _nibbles, _bytes),
    st.sampled_from([REQUEST_MARKER, MIC_MARKER, END_MARKER]),
)

# (ticks since the previous burst, origin, frame, ticks in the burst); a
# few origins send every burst.
attack_bursts = st.lists(
    st.sampled_from(_TESTBED_IDS), min_size=2, max_size=3, unique=True
).flatmap(
    lambda origins: st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from(origins), attack_frames, st.integers(1, 4)),
        min_size=4, max_size=20,
    )
)

small_configs = st.builds(
    RuleConfig,
    scan_distinct_addresses=st.integers(1, 4),
    scan_window=st.integers(1, 20),
    churn_count=st.integers(1, 4),
    churn_window=st.integers(1, 20),
    standby_gap=st.integers(1, 3),
    standby_repeat=st.integers(1, 3),
)



def reference_standby_alerts(events, config):
    """TargetedStandby as documented, by brute force over the whole stream.

    A Standby pairs with the oldest earlier broadcast announcement that is
    at most `standby_gap` ticks older, went out on the same wire (the same
    observers), comes from another device, and is one the Standby
    addresses (it is broadcast, or sent to the announcer).
    An initiator's `standby_repeat`-th pair raises its one alert, which
    runs from the first announcement to that Standby and cites every pair.
    """
    pairs: dict[str, list] = {}
    alerts = []
    for index, standby in enumerate(events):
        frame = standby.frame
        mine = pairs.setdefault(standby.origin, [])
        if frame.opcode != fr.OP_STANDBY or len(mine) == config.standby_repeat:
            continue
        for announced in events[:index]:
            if (
                announced.frame.opcode in fr.ANNOUNCE_OPCODES
                and announced.frame.is_broadcast
                and announced.tick >= standby.tick - config.standby_gap
                and announced.observers == standby.observers
                and announced.origin != standby.origin
                and (frame.is_broadcast or frame.destination == announced.frame.initiator)
            ):
                mine.append((announced, standby))
                if len(mine) == config.standby_repeat:
                    evidence = tuple(e.frame.text for pair in mine for e in pair)
                    window = (mine[0][0].tick, standby.tick)
                    alerts.append(Alert(RULE_TARGETED_STANDBY, window, standby.origin, evidence))
                break
    return alerts


class TestStandbyReference:
    # A stripped edge splits the bus into wires, so an untapped detector
    # sees announcements and Standbys that no one wire carries together.
    @given(attack_bursts, small_configs, st.none() | st.sampled_from(_TESTBED_IDS),
           st.none() | st.sampled_from(_TESTBED_EDGES))
    @settings(deadline=None, max_examples=150)
    # Two announcements in the gap, so the oldest is cited; one of them
    # paired twice; a third announcement from the standby's own sender.
    @example(
        bursts=[
            (0, "tv", CecFrame(0, 15, fr.OP_REPORT_PHYSICAL_ADDRESS, b"\x00\x00\x00"), 1),
            (0, "amp", CecFrame(5, 15, fr.OP_DEVICE_VENDOR_ID, b"\x00\x00\x01"), 1),
            (0, "client", CecFrame(4, 15, fr.OP_ROUTING_CHANGE, b"\x10\x00\x20\x00"), 1),
            (1, "client", CecFrame(4, 15, fr.OP_STANDBY), 2),
            (1, "client", CecFrame(4, 5, fr.OP_STANDBY), 1),
        ],
        config=RuleConfig(standby_gap=3, standby_repeat=3),
        tap=None,
        strip=None,
    )
    # A directed announcement pairs with nothing.
    @example(
        bursts=[
            (0, "tv", CecFrame(0, 4, fr.OP_DEVICE_VENDOR_ID, b"\x00\x00\x01"), 1),
            (1, "client", CecFrame(4, 15, fr.OP_STANDBY), 1),
        ],
        config=RuleConfig(standby_repeat=1),
        tap=None,
        strip=None,
    )
    # tv's announcements and client's Standbys on either side of a cut.
    @example(
        bursts=[
            (0, "tv", CecFrame(0, 15, fr.OP_REPORT_PHYSICAL_ADDRESS, b"\x00\x00\x00"), 1),
            (1, "client", CecFrame(4, 0, fr.OP_STANDBY), 1),
            (9, "tv", CecFrame(0, 15, fr.OP_REPORT_PHYSICAL_ADDRESS, b"\x00\x00\x00"), 1),
            (1, "client", CecFrame(4, 0, fr.OP_STANDBY), 1),
        ],
        config=RuleConfig(),
        tap=None,
        strip=_strip("tv", "switch"),
    )
    def test_detector_matches_reference(self, bursts, config, tap, strip):
        topology = build_testbed()
        sim = Simulator(topology if strip is None else apply_mitigation(topology, strip))
        tick = 0
        for gap, origin, frame, length in bursts:
            tick += gap
            for offset in range(length):
                sim.transmit_at(tick + offset, origin, frame)
        sim.run(tick + 8)
        seen = [e for e in sim.trace.events if tap is None or tap in e.observers]
        alerts = [a for a in detect(sim.trace.events, config, tap)
                  if a.rule == RULE_TARGETED_STANDBY]
        assert alerts == reference_standby_alerts(seen, config)


class TestDetectorPlumbing:
    def _mixed_events(self):
        events = [ev(t, "spy", "%x%x" % (t, t)) for t in range(8)]
        events += [ev(20 + t, "pc", "12:00:01:02:03") for t in range(3)]
        events.append(ev(30, "pc", "aa:aa:aa:aa"))
        return events

    def test_streaming_equals_offline(self):
        # After each event fed, the detector holds what an offline pass over
        # that prefix raises.
        events = self._mixed_events()
        detector = Detector()
        for count, event in enumerate(events, start=1):
            assert detector.feed(event) is None
            assert detector.alerts == detect(events[:count])
        assert [a.rule for a in detector.alerts] == [
            RULE_SCAN_BURST, RULE_COVERT_STREAM, RULE_COVERT_MARKER
        ]

    def test_tap_sees_only_observed_frames(self):
        on_tap = [ev(t, "spy", "%x%x" % (t, t), observers=("tap", "spy")) for t in range(8)]
        off_tap = [ev(t, "spy", "%x%x" % (t, t), observers=("spy",)) for t in range(8)]
        assert [a.rule for a in detect(on_tap, tap="tap")] == [RULE_SCAN_BURST]
        assert detect(off_tap, tap="tap") == []

    def test_no_tap_sees_everything(self):
        events = [ev(t, "spy", "%x%x" % (t, t), observers=("spy",)) for t in range(8)]
        assert [a.rule for a in detect(events)] == [RULE_SCAN_BURST]

    def test_observed_keeps_the_events_the_tap_observes(self):
        shared = ("tap", "spy")
        events = [
            ev(0, "spy", "11", observers=("spy",)),
            ev(1, "spy", "22", observers=shared),
            ev(2, "spy", "33", observers=shared),
            ev(3, "spy", "44", observers=["spy"]),
            ev(4, "spy", "55", observers=["tap"]),
            ev(5, "spy", "66", observers=shared),
        ]
        assert list(observed(events, "tap")) == [events[i] for i in (1, 2, 4, 5)]
        assert list(observed(events, "ghost")) == []
        assert list(observed(events, None)) == events

    def test_alert_json_fields(self):
        alerts = detect(self._mixed_events())
        import json

        for alert in alerts:
            parsed = json.loads(alert.to_json())
            assert set(parsed) == {"rule", "window", "subject", "evidence"}

    @given(st.integers(1, 30), st.integers(2, 60))
    @settings(deadline=None, max_examples=20)
    def test_config_thresholds_respected(self, count, window):
        config = RuleConfig(scan_distinct_addresses=count, scan_window=window)
        events = [ev(t % window, "spy", "%x%x" % (t % 15, t % 15)) for t in range(count - 1)]
        alerts = [a for a in detect(events, config) if a.rule == RULE_SCAN_BURST]
        assert alerts == []

    def test_config_rejects_nonsense(self):
        with pytest.raises(ValueError):
            RuleConfig(scan_window=0)
        with pytest.raises(ValueError, match="^unknown detector settings key 'bogus_knob'$"):
            RuleConfig.from_dict({"bogus_knob": 3})

    @pytest.mark.parametrize("raw", [[1], 5, "churn_count", None])
    def test_config_must_be_an_object(self, raw):
        with pytest.raises(ValueError, match="object"):
            RuleConfig.from_dict(raw)

    def test_config_from_dict(self):
        config = RuleConfig.from_dict({"churn_count": 9})
        assert config.churn_count == 9
        assert config.scan_window == 50

    @given(
        attack_bursts,
        small_configs,
        st.none() | st.sampled_from(_TESTBED_IDS),
        st.none() | st.sampled_from(_TESTBED_EDGES),
    )
    @settings(deadline=None, max_examples=100)
    # One burst per rule, each enough to trip it at the lowest thresholds.
    @example(
        bursts=[
            (0, "client", CecFrame(4, 15, fr.OP_REPORT_PHYSICAL_ADDRESS, b"\x10\x00\x04"), 1),
            (1, "amp", CecFrame(5, 15, fr.OP_STANDBY), 1),
            (1, "listener", CecFrame(1, 2), 1),
            (1, "listener", CecFrame(1, 15, fr.OP_ACTIVE_SOURCE, b"\x10\x00"), 1),
            (1, "client", CecFrame(4, 1, 0x00, b"\x01\x02"), 3),
            (3, "client", MIC_MARKER, 1),
        ],
        config=RuleConfig(1, 1, 1, 1, 1, 1),
        tap=None,
        strip=None,
    )
    def test_live_alerts_equal_alerts_from_the_rendered_log(self, bursts, config, tap, strip):
        # A stripped edge splits the bus, so some frames miss the tap.
        topology = build_testbed()
        sim = Simulator(topology if strip is None else apply_mitigation(topology, strip))
        tick = 0
        for gap, origin, frame, length in bursts:
            tick += gap
            for offset in range(length):
                sim.transmit_at(tick + offset, origin, frame)
        sim.run(tick + 8)
        detector = Detector(config)
        for event in observed(sim.trace.events, tap):
            detector.feed(event)
        lines = rendered(sim.trace.render_log).splitlines()
        replayed = [parse_trace_line(line) for line in lines]
        assert detector.alerts == detect(replayed, config, tap)
        # The tap only drops the frames it does not observe.
        seen = [e for e in sim.trace.events if tap is None or tap in e.observers]
        assert detector.alerts == detect(seen, config)


# ---------------------------------------------------------------------------
# Mitigations
# ---------------------------------------------------------------------------

def _disable(kind: str, device: str) -> dict:
    return {"type": kind, "device": device}


class TestMitigations:
    def test_strip_edge_clones(self):
        original = build_testbed()
        patched = apply_mitigation(original, _strip("tv", "switch"))
        assert any(
            not e.cec_propagates for e in patched.edges if e.child == "switch"
        )
        assert all(e.cec_propagates for e in original.edges)

    @pytest.mark.parametrize(
        "mitigation",
        [_strip("tv", "switch"), _disable("disable_control", "tv"), _disable("disable_cec", "client")],
    )
    def test_input_topology_left_as_it_was(self, mitigation):
        original = build_testbed()
        patched = apply_mitigation(original, mitigation)
        before = build_testbed()
        assert original == before
        assert patched != before
        assert list(patched.nodes) == list(before.nodes)
        assert len(patched.edges) == len(before.edges)

    def test_strip_unknown_edge(self):
        with pytest.raises(TopologyError):
            apply_mitigation(build_testbed(), _strip("tv", "hub"))

    def test_disable_control(self):
        patched = apply_mitigation(build_testbed(), _disable("disable_control", "tv"))
        node = patched.nodes["tv"]
        assert not node.cec_control_enabled
        assert node.cec_info_reporting_enabled

    def test_disable_cec_end_to_end(self):
        patched = apply_mitigation(build_testbed(), _disable("disable_cec", "client"))
        node = patched.nodes["client"]
        assert not node.cec_control_enabled
        assert not node.cec_info_reporting_enabled

    def test_unknown_device(self):
        with pytest.raises(TopologyError):
            apply_mitigation(build_testbed(), _disable("disable_control", "ghost"))

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"type": "strip_edge", "parent": "tv"}, "strip_edge child must be a non-empty string"),
            ({"type": "disable_control", "device": 0}, "disable_control device must be a non-empty"),
            (["disable_cec", "tv"], "mitigation must be an object"),
        ],
        ids=["missing-field", "field-not-text", "not-an-object"],
    )
    def test_malformed_document_refused(self, raw, message):
        with pytest.raises(ValueError, match=message):
            apply_mitigation(build_testbed(), raw)

    def test_parse_unknown_type(self):
        with pytest.raises(ValueError, match="unknown mitigation type 'unplug_everything'"):
            apply_mitigation(build_testbed(), {"type": "unplug_everything"})

    def test_fully_disabled_device_vanishes_from_census(self):
        from cecsim.attacks import ScanWalk

        patched = apply_mitigation(build_testbed(), _disable("disable_cec", "chromecast"))
        sim = Simulator(patched)
        sim.start()
        ScanWalk("listener").start(sim)
        sim.run(until=130)
        report = sim.scan_reports[-1]
        assert sim.logical["chromecast"] not in report.entries

    def test_control_disabled_device_still_in_census(self):
        from cecsim.attacks import ScanWalk

        patched = apply_mitigation(build_testbed(), _disable("disable_control", "tv"))
        sim = Simulator(patched)
        sim.start()
        ScanWalk("listener").start(sim)
        sim.run(until=130)
        report = sim.scan_reports[-1]
        assert 0 in report.entries

    def test_control_disabled_device_immune_to_standby(self):
        patched = apply_mitigation(build_testbed(), _disable("disable_control", "tv"))
        sim = Simulator(patched)
        sim.start()
        sim.transmit_at(2, "listener", CecFrame(1, 0, 0x36))
        sim.run(until=5)
        assert sim.device_states["tv"].power.value == "on"
