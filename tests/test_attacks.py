"""Attack actors: the census walk, targeted standby, broadcast churn."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cecsim import frames as fr
from cecsim.attacks import (
    ARM_BROADCAST_MARKER,
    ARM_TARGETED_MARKER,
    AttackController,
    BroadcastDos,
    REPORT_FIELDS,
    ScanWalk,
    TargetedDos,
)
from cecsim.bus import Simulator
from cecsim.devices import UserAction
from cecsim.frames import CecFrame
from cecsim.scenarios import builtin_scenario, run_scenario
from cecsim.testbed import EXPECTED_TESTBED_SCAN, build_testbed
from cecsim.topology import propagation_domains
from cecsim.transfer import PayloadStore

from test_bus import tree_topologies


def scanned(sim, actor):
    reports = sim.artifacts.scan_reports
    expected = len(reports) + 1
    walk = ScanWalk(actor)
    sim.add_actor(walk)
    walk.start(sim)
    sim.run(until=sim.clock + 130)
    assert len(reports) == expected and reports[-1].actor == actor
    return reports[-1]


def standbys_from(sim, device):
    """The Standby frames `device` put on the wire."""
    return [e for e in sim.trace.events if e.origin == device and e.frame.opcode == fr.OP_STANDBY]


def announcements_heard(sim, device):
    """The wake-up announcements from other devices that `device` observed."""
    return [
        e for e in sim.trace.events
        if e.origin != device and device in e.observers
        and e.frame.opcode in fr.ANNOUNCE_OPCODES
    ]


# ---------------------------------------------------------------------------
# Census walk
# ---------------------------------------------------------------------------

class TestScanWalk:
    def test_testbed_census_matches_fixture(self, testbed_sim):
        report = scanned(testbed_sim, "listener")
        with open("tests/data/scanreport_testbed.json", "r", encoding="utf-8") as fh:
            expected = json.load(fh)
        assert report.to_dict() == expected
        assert report.to_dict() == EXPECTED_TESTBED_SCAN

    def test_census_row_fields(self, testbed_sim):
        report = scanned(testbed_sim, "listener")
        for row in report.to_dict().values():
            assert tuple(row) == REPORT_FIELDS

    def test_table_rendering_lists_addresses(self, testbed_sim):
        report = scanned(testbed_sim, "listener")
        table = report.render_table()
        for addr in (0, 1, 2, 4, 5):
            assert "Addr %02X" % addr in table

    def test_json_roundtrip(self, testbed_sim):
        report = scanned(testbed_sim, "listener")
        assert json.loads(report.to_json()) == report.to_dict()

    @given(tree_topologies())
    @settings(deadline=None, max_examples=30)
    def test_census_sound_and_complete(self, topology):
        sim = Simulator(topology)
        sim.start()
        scanner = next(
            (
                node_id
                for node_id in topology.nodes
                if topology.nodes[node_id].cec_addressed
                and sim.logical.get(node_id) not in (None, 15)
            ),
            None,
        )
        if scanner is None:
            return
        report = scanned(sim, scanner)
        domain = set(propagation_domains(topology)[scanner])
        expected = {
            sim.logical[d]
            for d in domain
            if topology.nodes[d].cec_addressed
            and sim.logical.get(d) not in (None, 15)
            and sim.device_states[d].cec_info_reporting_enabled
        }
        expected.add(sim.logical[scanner])
        assert set(report.entries) == expected

    @given(tree_topologies())
    @settings(deadline=None, max_examples=20)
    def test_census_fields_match_ground_truth(self, topology):
        sim = Simulator(topology)
        sim.start()
        scanner = next(
            (
                n for n in topology.nodes
                if topology.nodes[n].cec_addressed and sim.logical.get(n) not in (None, 15)
            ),
            None,
        )
        if scanner is None:
            return
        report = scanned(sim, scanner)
        by_address = {sim.logical[d]: d for d in propagation_domains(topology)[scanner]
                      if sim.logical.get(d) is not None}
        for address, entry in report.entries.items():
            node = topology.nodes[by_address[address]]
            assert entry["OSD Str"] == node.osd_name
            assert entry["P. Addr"] == sim.physical[node.id].text

    def test_finished_walk_hears_no_more_frames(self, monkeypatch):
        reports_when_heard, events_when_finished = [], []
        hear, finalize = ScanWalk.on_event, ScanWalk._finalize

        def recording_hear(walk, sim, event):
            reports_when_heard.append(len(sim.artifacts.scan_reports))
            hear(walk, sim, event)

        def recording_finalize(walk, sim, own):
            finalize(walk, sim, own)
            events_when_finished.append(len(sim.trace.events))

        monkeypatch.setattr(ScanWalk, "on_event", recording_hear)
        monkeypatch.setattr(ScanWalk, "_finalize", recording_finalize)
        result = run_scenario(builtin_scenario("attack1-device-walk"))
        [report], [finished] = result.reports, events_when_finished
        # The walker's device observes frames after the census, unheard.
        assert any(report.actor in e.observers for e in result.trace.events[finished:])
        assert reports_when_heard and set(reports_when_heard) == {0}
        assert not any(isinstance(a, ScanWalk) for a in result.sim.actors)

    def test_scan_from_island_sees_only_itself(self):
        topo = build_testbed()
        for i, edge in enumerate(topo.edges):
            if edge.child == "client":
                topo.edges[i] = edge.__class__(edge.parent, edge.child, edge.port, False)
        sim = Simulator(topo)
        sim.start()
        report = scanned(sim, "client")
        assert sorted(report.entries) == [sim.logical["client"]]

    def test_scan_reaches_across_blocked_display_edge(self):
        # cutting the display link still leaves the island below the
        # switch talking to itself, so the walk finds the neighbours there
        topo = build_testbed()
        for i, edge in enumerate(topo.edges):
            if edge.child == "switch":
                topo.edges[i] = edge.__class__(edge.parent, edge.child, edge.port, False)
        sim = Simulator(topo)
        sim.start()
        report = scanned(sim, "client")
        assert sorted(report.entries) == sorted(
            {sim.logical["client"], sim.logical["listener"]}
        )


# ---------------------------------------------------------------------------
# Targeted standby
# ---------------------------------------------------------------------------

class TestTargetedDos:
    def test_fires_one_tick_after_trigger(self, testbed_sim):
        dos = TargetedDos("listener", target_address=0)
        dos.arm()
        testbed_sim.add_actor(dos)
        testbed_sim.schedule(4, testbed_sim.user_action, "tv", UserAction.POWER_OFF)
        testbed_sim.schedule(8, testbed_sim.user_action, "tv", UserAction.POWER_ON)
        testbed_sim.run(until=16)
        standbys = standbys_from(testbed_sim, "listener")
        assert standbys
        assert standbys[0].tick == 9  # announcement at 8, reaction one tick later
        assert standbys[0].frame.destination == 0
        # One Standby per announcement heard, each already on the wire.
        assert len(announcements_heard(testbed_sim, "listener")) == len(standbys) == 3

    def test_idle_until_armed(self, testbed_sim):
        dos = TargetedDos("listener")
        testbed_sim.add_actor(dos)
        testbed_sim.schedule(3, testbed_sim.user_action, "tv", UserAction.POWER_OFF)
        testbed_sim.schedule(5, testbed_sim.user_action, "tv", UserAction.POWER_ON)
        testbed_sim.run(until=12)
        assert announcements_heard(testbed_sim, "listener")
        assert standbys_from(testbed_sim, "listener") == []
        assert testbed_sim.device_states["tv"].power.value == "on"

    def test_ignores_own_frames(self, testbed_sim):
        dos = TargetedDos("listener")
        dos.arm()
        testbed_sim.add_actor(dos)
        testbed_sim.transmit_at(3, "listener", CecFrame(1, 15, 0x84, (0xF0, 0xF0, 0x01)))
        testbed_sim.run(until=8)
        assert standbys_from(testbed_sim, "listener") == []

    def test_keeps_target_down(self, testbed_sim):
        dos = TargetedDos("listener", target_address=0)
        dos.arm()
        testbed_sim.add_actor(dos)
        testbed_sim.schedule(4, testbed_sim.user_action, "tv", UserAction.POWER_OFF)
        for tick in (8, 20, 32):
            testbed_sim.schedule(tick, testbed_sim.user_action, "tv", UserAction.POWER_ON)
        testbed_sim.run(until=45)
        timeline = []
        power = "on"
        changes = iter(
            [
                (c.tick, c.value)
                for c in testbed_sim.trace.changes
                if c.device == "tv" and c.field == "power"
            ]
        )
        change = next(changes, None)
        for tick in range(45):
            while change is not None and change[0] <= tick:
                power = change[1]
                change = next(changes, None)
            timeline.append(power)
        streak = longest = 0
        for value in timeline[6:]:
            streak = streak + 1 if value == "on" else 0
            longest = max(longest, streak)
        assert longest <= 3


# ---------------------------------------------------------------------------
# Broadcast churn
# ---------------------------------------------------------------------------

class TestBroadcastDos:
    def test_cycle_contents(self, testbed_sim):
        dos = BroadcastDos("listener", display_address=0)
        testbed_sim.add_actor(dos)
        dos.activate()
        testbed_sim.run(until=7)
        frames = [
            e.frame.text
            for e in testbed_sim.trace.events
            if e.origin == "listener" and not e.frame.is_polling
        ]
        assert frames[:5] == ["10:04", "1f:82:10:00", "1f:82:20:00", "1f:82:30:00", "1f:82:40:00"]

    def test_wakes_standby_display(self):
        import dataclasses

        from cecsim.frames import PowerState

        sim = Simulator(build_testbed())
        dos = BroadcastDos("listener")
        sim.add_actor(dos)
        sim.start()
        sim.device_states["tv"] = dataclasses.replace(
            sim.device_states["tv"], power=PowerState.STANDBY
        )
        dos.activate()
        sim.run(until=6)
        assert sim.device_states["tv"].power.value == "on"

    def test_rate_sustained(self, testbed_sim):
        dos = BroadcastDos("listener")
        testbed_sim.add_actor(dos)
        dos.activate()
        testbed_sim.run(until=500)
        claims = [
            e for e in testbed_sim.trace.events
            if e.origin == "listener" and e.frame.opcode == 0x82
        ]
        assert len(claims) >= 4 * 95  # four claims per five-tick cycle

    def test_deactivate_stops_traffic(self, testbed_sim):
        dos = BroadcastDos("listener")
        testbed_sim.add_actor(dos)
        dos.activate()
        testbed_sim.run(until=10)
        dos.deactivate()
        seen = len([e for e in testbed_sim.trace.events if e.origin == "listener"])
        testbed_sim.run(until=30)
        again = len([e for e in testbed_sim.trace.events if e.origin == "listener"])
        assert again == seen


# ---------------------------------------------------------------------------
# Controller glue
# ---------------------------------------------------------------------------

class TestAttackController:
    def wired(self, sim):
        store = PayloadStore(seed=0)
        controller = AttackController("listener", store)
        controller.register(sim)
        return controller, store

    def test_marker_arms_targeted(self, testbed_sim):
        controller, _ = self.wired(testbed_sim)
        assert not controller.targeted.armed
        testbed_sim.transmit_at(3, "client", ARM_TARGETED_MARKER)
        testbed_sim.run(until=5)
        assert controller.targeted.armed
        assert standbys_from(testbed_sim, "listener") == []

    def test_marker_activates_broadcast(self, testbed_sim):
        controller, _ = self.wired(testbed_sim)
        testbed_sim.transmit_at(3, "client", ARM_BROADCAST_MARKER)
        testbed_sim.run(until=10)
        assert controller.broadcast.active
        assert any(e.origin == "listener" and e.frame.opcode == 0x04
                   for e in testbed_sim.trace.events)

    def test_own_marker_does_not_arm(self, testbed_sim):
        controller, _ = self.wired(testbed_sim)
        testbed_sim.transmit_at(3, "listener", ARM_TARGETED_MARKER)
        testbed_sim.run(until=5)
        assert not controller.targeted.armed

    def test_scan_stores_report_bytes(self, testbed_sim):
        controller, store = self.wired(testbed_sim)
        controller.start_scan(testbed_sim)
        testbed_sim.run(until=130)
        assert store.scan_report is not None
        assert json.loads(store.scan_report.decode("utf-8")) == EXPECTED_TESTBED_SCAN

    def test_register_adds_sender(self, testbed_sim):
        controller, store = self.wired(testbed_sim)
        assert controller.sender.store is store
        assert controller.sender.device == "listener"
        assert testbed_sim.actors == [
            controller.targeted, controller.broadcast, controller, controller.sender
        ]

    def test_cancel_all(self, testbed_sim):
        controller, _ = self.wired(testbed_sim)
        controller.targeted.arm()
        controller.broadcast.activate()
        controller.cancel_all()
        assert not controller.targeted.armed
        assert not controller.broadcast.active


# ---------------------------------------------------------------------------
# Marker equivalence: direct calls against bus-delivered markers
# ---------------------------------------------------------------------------

class TestTriggerEquivalence:
    @pytest.mark.parametrize("via_marker", [False, True])
    def test_broadcast_traffic_identical(self, via_marker):
        sim = Simulator(build_testbed())
        store = PayloadStore(seed=0)
        controller = AttackController("listener", store)
        controller.register(sim)
        sim.start()
        if via_marker:
            sim.transmit_at(5, "client", ARM_BROADCAST_MARKER)
        else:
            sim.schedule(5, lambda: controller.broadcast.activate())
        sim.run(until=40)
        frames = [
            (e.tick, e.frame.text)
            for e in sim.trace.events
            if e.origin == "listener" and not e.frame.is_polling
        ]
        # first churn frame lands the tick after activation either way
        assert frames[0][0] == 6
        texts = [t for _, t in frames]
        assert texts[:5] == ["10:04", "1f:82:10:00", "1f:82:20:00", "1f:82:30:00", "1f:82:40:00"]
