"""Simulator tests: address allocation, delivery, acks, determinism."""

import copy
import dataclasses
import functools
import heapq
import itertools
import logging
import re
from random import Random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cecsim import devices as dv
from cecsim import frames as fr
from cecsim import bus
from cecsim.attacks import BroadcastDos
from cecsim.bus import Actor, BusEvent, Simulator, StateChange, Trace, parse_trace_line
from cecsim.devices import UserAction
from cecsim.frames import (
    CecFrame,
    OP_GIVE_OSD_NAME,
    OP_GIVE_POWER_STATUS,
    OP_STANDBY,
    PowerState,
)
from cecsim.ids import apply_mitigation
from cecsim.relay import RelayPoller
from cecsim.scenarios import builtin_scenario, builtin_scenario_names, run_scenario
from cecsim.topology import TopologyError, build_topology, propagation_domains

from conftest import build_testbed, make_chain, rendered
from test_frames import _reference_parse


# ---------------------------------------------------------------------------
# Random tree topologies
# ---------------------------------------------------------------------------

_CHILD_KINDS = ("switch", "source", "hub_splitter", "attacker_listener")
_CHILD_TYPES = ("recording", "tuner", "playback")


def _passthrough(raw):
    return raw["kind"] in ("switch", "hub_splitter") and not raw.get(
        "edid_address_available", True
    )


@st.composite
def tree_documents(draw, max_nodes=8):
    """A topology document of a random tree whose nodes are n0, n1, ... in
    declaration order; n0, the root, is a display."""
    count = draw(st.integers(2, max_nodes))
    nodes = [{"id": "n0", "kind": "display", "device_type": "television", "osd_name": "N0"}]
    edges = []
    slot_depth = [0]
    used_ports = [set()]
    for i in range(1, count):
        candidates = [
            j for j in range(i)
            if (_passthrough(nodes[j]) or slot_depth[j] <= 3) and len(used_ports[j]) < 15
        ]
        parent = draw(st.sampled_from(candidates))
        port = draw(st.sampled_from(sorted(set(range(1, 16)) - used_ports[parent])))
        used_ports[parent].add(port)
        kind = draw(st.sampled_from(_CHILD_KINDS))
        raw = {
            "id": "n%d" % i,
            "kind": kind,
            "device_type": draw(st.sampled_from(_CHILD_TYPES)),
            "osd_name": "N%d" % i,
            "edid_address_available": draw(st.booleans()),
        }
        nodes.append(raw)
        edges.append(
            {
                "parent": "n%d" % parent,
                "child": "n%d" % i,
                "port": port,
                "cec_propagates": draw(st.booleans()),
            }
        )
        used_ports.append(set())
        slot_depth.append(slot_depth[parent] if _passthrough(nodes[parent]) else slot_depth[parent] + 1)
    return {"nodes": nodes, "edges": edges}


def tree_topologies(max_nodes=8):
    return tree_documents(max_nodes).map(build_topology)


# ---------------------------------------------------------------------------
# Logical address allocation
# ---------------------------------------------------------------------------

class TestAllocation:
    def test_testbed_allocation(self, testbed_sim):
        assert testbed_sim.logical == {
            "tv": 0,
            "listener": 1,
            "client": 2,
            "switch": None,
            "hub": None,
            "amp": 5,
            "chromecast": 4,
        }

    def test_allocation_emits_polls_first(self, testbed_sim):
        head = testbed_sim.trace.events[:6]
        assert all(e.tick == 0 and e.frame.is_polling for e in head)
        # each poll probes the candidate with initiator == destination
        assert [e.frame.destination for e in head] == [0, 1, 1, 2, 5, 4]

    def test_second_device_of_type_takes_next_candidate(self, testbed_sim):
        # listener and client are both recording devices; the second one
        # finds address 1 acked and settles on 2.
        assert testbed_sim.logical["listener"] == 1
        assert testbed_sim.logical["client"] == 2

    @given(tree_topologies())
    @settings(deadline=None, max_examples=60)
    def test_allocation_injective_within_domain(self, topology):
        sim = Simulator(topology)
        sim.start()
        domains = propagation_domains(topology)
        for node_id in topology.nodes:
            domain = domains[node_id]
            taken = [
                sim.logical[d]
                for d in domain
                if sim.logical.get(d) not in (None, 15)
            ]
            assert len(taken) == len(set(taken)), "duplicate address inside a domain"

    @given(tree_topologies())
    @settings(deadline=None, max_examples=40)
    def test_unaddressed_kinds_never_claim(self, topology):
        sim = Simulator(topology)
        sim.start()
        for node_id, node in topology.nodes.items():
            if not node.cec_addressed:
                assert sim.logical[node_id] is None

    def test_exhausted_candidates_fall_back_to_unregistered(self):
        nodes = [{"id": "tv", "kind": "display", "device_type": "television", "osd_name": "TV"}]
        edges = []
        for i in range(6):
            nodes.append(
                {"id": "p%d" % i, "kind": "source", "device_type": "playback",
                 "osd_name": "P%d" % i}
            )
            edges.append({"parent": "tv", "child": "p%d" % i, "port": i + 1})
        # A tuner configured to a taken address, and a playback device
        # behind a cable that does not carry CEC: a domain of its own.
        nodes.append({"id": "t", "kind": "source", "device_type": "tuner",
                      "osd_name": "T", "logical_address": 8})
        nodes.append({"id": "far", "kind": "source", "device_type": "playback",
                      "osd_name": "Far"})
        edges.append({"parent": "tv", "child": "t", "port": 7})
        edges.append({"parent": "tv", "child": "far", "port": 8, "cec_propagates": False})
        sim = Simulator(build_topology({"nodes": nodes, "edges": edges}))
        tap = _Listener("tv")
        sim.add_actor(tap)
        sim.start()
        taken = [sim.logical["p%d" % i] for i in range(6)]
        assert taken[:5] == [4, 8, 9, 11, 14]
        assert taken[5] == 15
        assert (sim.logical["t"], sim.logical["far"]) == (3, 4)
        # Each device polls in declaration order, its candidates in claim
        # order, a configured address first, until one goes unacknowledged.
        # p5 finds every candidate taken and stays unregistered.
        assert [(e.origin, e.frame.text, e.acknowledged) for e in sim.trace.events] == [
            ("tv", "00", False),
            ("p0", "44", False),
            ("p1", "44", True), ("p1", "88", False),
            ("p2", "44", True), ("p2", "88", True), ("p2", "99", False),
            ("p3", "44", True), ("p3", "88", True), ("p3", "99", True), ("p3", "bb", False),
            ("p4", "44", True), ("p4", "88", True), ("p4", "99", True), ("p4", "bb", True),
            ("p4", "ee", False),
            ("p5", "44", True), ("p5", "88", True), ("p5", "99", True), ("p5", "bb", True),
            ("p5", "ee", True),
            ("t", "88", True), ("t", "33", False),
            ("far", "44", False),
        ]
        # An actor added before start hears every poll of its domain.
        assert tap.heard == sim.trace.events[:-1]
        assert sim.trace.events[-1].observers == ("far",)


    def test_fallbacks_log_one_warning_per_run(self, caplog, testbed_topology):
        # Nine playback sources share a claim order of five addresses.
        topology, sources = _playback_tree(10)
        with caplog.at_level(logging.WARNING, logger="cecsim.bus"):
            sim = Simulator(topology)
            sim.start()
            assert sources == 9 and list(sim.logical.values()).count(15) == 4
            assert caplog.messages == [
                "4 device(s) found no free logical address and stay unregistered (15)"
            ]
            caplog.clear()
            Simulator(testbed_topology).start()
            assert caplog.messages == []


class _PollRecorder(Actor):
    """Hears every poll its device observes."""

    hears = frozenset({None})

    def __init__(self, device, heard):
        super().__init__(device)
        self.heard = heard

    def on_event(self, sim, event):
        self.heard.append(event)


def _claims_by_the_rule(topology):
    """Each node's logical address, each domain's holders and each poll as
    (origin, address, ack), from the claim rule alone: in declaration order,
    each CEC-addressed device polls its candidates, a configured address
    first, until a poll goes unacknowledged, or else takes 15.  A poll is
    acknowledged when the first holder of its address in the poller's
    domain, in members order, reports information."""
    domains = propagation_domains(topology)
    logical = dict.fromkeys(topology.nodes)
    holders, polls = {}, []
    for node_id, node in topology.nodes.items():
        if not node.cec_addressed:
            continue
        members, fixed = domains[node_id], node.logical_address
        order = fr.logical_candidates(node.device_type)
        if fixed is not None:
            order = [fixed] + [c for c in order if c != fixed]
        logical[node_id] = 15
        for address in order:
            taken = sorted(holders.get((members, address), []), key=members.index)
            acknowledged = bool(taken) and topology.nodes[taken[0]].cec_info_reporting_enabled
            polls.append((node_id, address, acknowledged))
            if not acknowledged:
                logical[node_id] = address
                break
        holders.setdefault((members, logical[node_id]), []).append(node_id)
    by_node = {
        node_id: {a: sorted(h, key=members.index) for (m, a), h in holders.items() if m == members}
        for node_id, members in domains.items()
    }
    return logical, by_node, polls


class TestClaimRule:
    @given(tree_topologies(), st.data())
    @settings(deadline=None, max_examples=60)
    def test_claims_follow_the_rule_and_are_heard(self, topology, data):
        # Some nodes report nothing, and some are configured to an address.
        names = st.sampled_from(sorted(topology.nodes))
        muted = data.draw(st.sets(names))
        fixed = data.draw(st.dictionaries(names, st.integers(0, 14)))
        nodes = {
            n: dataclasses.replace(
                node, cec_info_reporting_enabled=n not in muted, logical_address=fixed.get(n)
            )
            for n, node in topology.nodes.items()
        }
        topology = dataclasses.replace(topology, nodes=nodes)
        plain, heard_sim, heard = Simulator(topology), Simulator(topology), []
        # One recorder per domain, so that each poll is heard once.
        for members in {id(m): m for m in topology.domains.values()}.values():
            heard_sim.add_actor(_PollRecorder(members[0], heard))
        plain.start()
        heard_sim.start()
        logical, holders, polls = _claims_by_the_rule(topology)
        claimed = [n for n, node in nodes.items() if node.cec_addressed]
        assert heard == heard_sim.trace.events == plain.trace.events
        assert [(e.origin, e.frame.destination, e.acknowledged) for e in heard] == polls
        assert all(e.tick == 0 and e.frame is bus._POLLS[e.frame.destination] for e in heard)
        for sim in (plain, heard_sim):
            assert sim.logical == logical
            assert {n: d.holders for n, d in sim._domains.items()} == holders
            assert sim._memos == {n: {} for n in claimed}
            for node_id, node in nodes.items():
                assert sim.device_states[node_id] == dv.DeviceState.initial(node)
                assert sim.device_ctx(node_id) == dv.DeviceCtx(
                    node, logical[node_id], topology.physical[node_id]
                )
        # Equal initial states are one object, in one run and across runs.
        for node_id in nodes:
            assert plain.device_states[node_id] is heard_sim.device_states[node_id]

    def test_a_mitigated_topology_makes_claims_of_its_own(self, testbed_topology):
        # Without CEC the listener no longer acks its poll, so the client,
        # the next recording device, claims its address too.
        mitigated = apply_mitigation(testbed_topology, {"type": "disable_cec", "device": "listener"})
        original, own = Simulator(testbed_topology), Simulator(mitigated)
        own.start()
        original.start()
        assert (original.logical["listener"], original.logical["client"]) == (1, 2)
        assert (own.logical["listener"], own.logical["client"]) == (1, 1)
        assert not own.device_states["listener"].cec_info_reporting_enabled
        assert [(e.origin, e.frame.text, e.acknowledged) for e in own.trace.events[1:3]] == [
            ("listener", "11", False), ("client", "11", False),
        ]
        assert [(e.origin, e.frame.text, e.acknowledged) for e in original.trace.events[1:4]] == [
            ("listener", "11", False), ("client", "11", True), ("client", "22", False),
        ]
        assert own._domains["client"].holders[1] == ["listener", "client"]
        assert original._domains["client"].holders[1] == ["listener"]


# ---------------------------------------------------------------------------
# Delivery and acknowledgement
# ---------------------------------------------------------------------------

def bfs_component(topology, start: str) -> set[str]:
    """The nodes reached from `start` over propagating edges, either way."""
    adjacency = {n: set() for n in topology.nodes}
    for edge in topology.edges:
        if edge.cec_propagates:
            adjacency[edge.parent].add(edge.child)
            adjacency[edge.child].add(edge.parent)
    component = {start}
    frontier = [start]
    while frontier:
        for neighbour in adjacency[frontier.pop()]:
            if neighbour not in component:
                component.add(neighbour)
                frontier.append(neighbour)
    return component


class TestDelivery:
    @given(tree_topologies())
    @settings(deadline=None, max_examples=60)
    def test_observers_match_bfs_over_propagating_edges(self, topology):
        sim = Simulator(topology)
        sim.start()
        start = len(sim.trace.events)
        for node_id in topology.nodes:
            sim.deliver(node_id, CecFrame(1, 15, 0x85))
        for event in sim.trace.events[start:]:
            assert set(event.observers) == bfs_component(topology, event.origin)

    @given(tree_topologies(), st.data())
    @settings(deadline=None, max_examples=80)
    def test_domains_match_bfs_in_any_declaration_order(self, topology, data):
        # Generated trees declare each parent before its children; a drawn
        # order also puts children first, so a domain's top may come last.
        order = data.draw(st.permutations(list(topology.nodes)))
        shuffled = dataclasses.replace(topology, nodes={n: topology.nodes[n] for n in order})
        domains = propagation_domains(shuffled)
        for node_id in order:
            component = bfs_component(shuffled, node_id)
            assert domains[node_id] == tuple(n for n in order if n in component)
            assert all(domains[member] is domains[node_id] for member in component)

    @given(tree_topologies())
    @settings(deadline=None, max_examples=60)
    def test_ack_oracle(self, topology):
        sim = Simulator(topology)
        sim.start()
        start = len(sim.trace.events)
        for node_id in topology.nodes:
            for destination in (0, 4, 15):
                sim.deliver(node_id, CecFrame(1, destination, 0x85))
        for event in sim.trace.events[start:]:
            others = [o for o in event.observers if o != event.origin]
            if event.frame.is_broadcast:
                expected = any(topology.nodes[o].cec_addressed for o in others)
            else:
                expected = any(
                    sim.logical.get(o) == event.frame.destination
                    and sim.device_states[o].cec_info_reporting_enabled
                    for o in others
                )
            assert event.acknowledged == expected

    def test_island_frame_unacked(self):
        topology = make_chain(3, propagates=False)
        sim = Simulator(topology)
        sim.start()
        event = sim.deliver("d2", CecFrame(4, 0, 0x8F))
        assert event.observers == ("d2",)
        assert not event.acknowledged

    def test_directed_to_absent_address_unacked(self, testbed_sim):
        event = testbed_sim.deliver("tv", CecFrame(0, 9, 0x8F))
        assert not event.acknowledged

    def test_broadcast_acked_with_peers(self, testbed_sim):
        event = testbed_sim.deliver("tv", CecFrame(0, 15, 0x85))
        assert event.acknowledged

    def test_unknown_transmitter_raises(self, testbed_sim):
        logged = len(testbed_sim.trace.events)
        with pytest.raises(TopologyError, match="unknown transmitter 'ghost'"):
            testbed_sim.deliver("ghost", CecFrame(0, 15, 0x85))
        assert len(testbed_sim.trace.events) == logged

    def test_a_frame_on_a_never_started_simulator_raises(self, pair_topology):
        # Only `start` makes the claims: a frame does not start a run.
        sim = Simulator(pair_topology)
        with pytest.raises(TopologyError, match="unknown transmitter 'tv'"):
            sim.deliver("tv", CecFrame(0, 15, 0x85))
        assert sim.trace.events == [] and sim.logical == {}

    def test_scheduling_into_the_past_raises(self, testbed_sim):
        testbed_sim.run(until=5)
        with pytest.raises(ValueError, match="cannot schedule at tick 4, clock is already at 5"):
            testbed_sim.schedule(4, print)


# ---------------------------------------------------------------------------
# Who reacts: the holder index
# ---------------------------------------------------------------------------

@pytest.fixture
def react_calls(monkeypatch):
    """Ids of the devices `devices.react` runs for, in call order."""
    calls = []
    real = dv.react

    def counting(ctx, state, frame):
        calls.append(ctx.node.id)
        return real(ctx, state, frame)

    monkeypatch.setattr(dv, "react", counting)
    return calls


_KNOWN_OPCODES = set(
    fr.QUERY_OPCODES + fr.CONTROL_OPCODES + fr.ANNOUNCE_OPCODES + fr.CHURN_OPCODES
) | fr.RESPONSE_OPCODES


def _playback_tree(count):
    """A 15-ary tree: a display at the root, dumb switches inside, playback
    sources at the leaves; node i hangs off node (i - 1) // 15."""
    internal = (count - 2) // 15 + 1
    nodes = [{"id": "n0", "kind": "display", "device_type": "television", "osd_name": "N0"}]
    edges = []
    for i in range(1, count):
        kind = "switch" if i < internal else "source"
        nodes.append({"id": "n%d" % i, "kind": kind, "device_type": "playback",
                      "osd_name": "N%d" % i})
        edges.append({"parent": "n%d" % ((i - 1) // 15), "child": "n%d" % i,
                      "port": (i - 1) % 15 + 1})
    return build_topology({"nodes": nodes, "edges": edges}), count - internal


# Frames devices act on, and others, to any destination.
_frames = st.builds(
    CecFrame,
    st.just(1),
    st.one_of(st.just(fr.BROADCAST), st.integers(0, 15)),
    st.one_of(st.sampled_from(sorted(_KNOWN_OPCODES)), st.integers(0, 255)),
    st.binary(max_size=4),
)

# Recorded with the simulator that called `react` on every observer.
_SHADOW_TRACE = """\
t=0 | tv | 00 | ack=0 | obs=tv,mute,box
t=0 | mute | 44 | ack=0 | obs=tv,mute,box
t=0 | box | 44 | ack=0 | obs=tv,mute,box
t=0 | tv | 04:46 | ack=0 | obs=tv,mute,box
t=1 | box | 40:47:42:6f:78 | ack=1 | obs=tv,mute,box
t=3 | tv | 04:36 | ack=0 | obs=tv,mute,box
t=5 | box | 44 | ack=0 | obs=tv,mute,box
t=6 | mute | 44 | ack=0 | obs=tv,mute,box
t=7 | box | 40:46 | ack=1 | obs=tv,mute,box
t=8 | tv | 04:47:54:56 | ack=0 | obs=tv,mute,box
"""


class TestReactionIndex:
    def test_start_reacts_nowhere(self, testbed_topology, react_calls):
        sim = Simulator(testbed_topology)
        sim.start()
        assert len(sim.trace.events) == 6
        assert react_calls == []

    def test_start_polls_scale_linearly(self, react_calls):
        for count in (400, 1600):
            topology, sources = _playback_tree(count)
            sim = Simulator(topology)
            sim.start()
            # one poll for the display; the k-th of the first five sources
            # claims its k-th playback address, the rest try all five
            assert len(sim.trace.events) == 1 + 15 + 5 * (sources - 5)
            assert react_calls == []

    def test_shadowed_address_reaches_every_holder(self):
        topology = build_topology(
            {
                "nodes": [
                    {"id": "tv", "kind": "display", "device_type": "television",
                     "osd_name": "TV"},
                    {"id": "mute", "kind": "source", "device_type": "playback",
                     "osd_name": "Mute", "cec_info_reporting_enabled": False},
                    {"id": "box", "kind": "source", "device_type": "playback",
                     "osd_name": "Box"},
                ],
                "edges": [
                    {"parent": "tv", "child": "mute", "port": 1},
                    {"parent": "tv", "child": "box", "port": 2},
                ],
            }
        )
        sim = Simulator(topology)
        sim.start()
        # mute never acks its poll, so box claims the same address
        assert sim.logical == {"tv": 0, "mute": 4, "box": 4}
        sim.transmit_at(0, "tv", CecFrame(0, 4, OP_GIVE_OSD_NAME))
        sim.transmit_at(3, "tv", CecFrame(0, 4, OP_STANDBY))
        sim.transmit_at(5, "box", CecFrame(4, 4))
        sim.transmit_at(6, "mute", CecFrame(4, 4))
        sim.transmit_at(7, "box", CecFrame(4, 0, OP_GIVE_OSD_NAME))
        sim.run(10)
        # both holders obey the standby; the ack follows mute, the first
        assert rendered(sim.trace.render_log) == _SHADOW_TRACE
        assert rendered(sim.trace.render_state_log) == (
            "t=3 | mute | power=standby\nt=3 | box | power=standby\n"
        )

    def test_a_device_claims_once(self, pair_topology, testbed_topology):
        # box already holds an address; the testbed's switch never can
        for topology, device in ((pair_topology, "box"), (testbed_topology, "switch")):
            sim = Simulator(topology)
            sim.start()
            logical, events = dict(sim.logical), len(sim.trace.events)
            holders = {n: copy.deepcopy(d.holders) for n, d in sim._domains.items()}
            with pytest.raises(ValueError, match=device):
                sim.allocate_logical_address(device)
            assert sim.logical == logical and len(sim.trace.events) == events
            assert {n: d.holders for n, d in sim._domains.items()} == holders

    @given(tree_topologies(), st.data())
    @settings(deadline=None, max_examples=60)
    def test_holders_are_in_members_order(self, topology, data):
        # A device that never acks its poll shares its address with the
        # next claimant of its type.
        muted = data.draw(st.sets(st.sampled_from(sorted(topology.nodes))))
        nodes = {
            n: dataclasses.replace(node, cec_info_reporting_enabled=n not in muted)
            for n, node in topology.nodes.items()
        }
        sim = Simulator(dataclasses.replace(topology, nodes=nodes))
        sim.start()
        for domain in sim._domains.values():
            for holders in domain.holders.values():
                assert holders == [n for n in domain.members if n in holders]

    @given(tree_topologies(), st.lists(_frames, min_size=1, max_size=6))
    @settings(deadline=None, max_examples=60)
    def test_skipped_devices_would_not_have_acted(self, topology, frames):
        sim = Simulator(topology)
        sim.start()
        reacted = set()
        real = dv.react

        def counting(ctx, state, frame):
            reacted.add(ctx.node.id)
            return real(ctx, state, frame)

        dv.react = counting
        try:
            # a standby broadcast first: every device starts on, so all act
            for frame in [CecFrame(1, fr.BROADCAST, OP_STANDBY)] + frames:
                for origin in topology.nodes:
                    reacted.clear()
                    # a fresh copy misses every memo, so each device reacts
                    event = sim.deliver(origin, dataclasses.replace(frame))
                    # every addressed observer but the origin may react
                    addressed = {o for o in event.observers if topology.nodes[o].cec_addressed}
                    for node_id in addressed - reacted - {origin}:
                        state = sim.device_states[node_id]
                        reaction = real(sim.device_ctx(node_id), state, frame)
                        assert reaction.state is state
                        assert not reaction.responses and not reaction.control_pressure
        finally:
            dv.react = real


@functools.cache
def _testbed_contexts():
    sim = Simulator(build_testbed())
    sim.start()
    return {node_id: sim.device_ctx(node_id) for node_id in sim.topology.nodes}


_states = st.builds(
    dv.DeviceState,
    st.sampled_from(list(PowerState)),
    st.booleans(),
    st.one_of(st.none(), st.integers(1, 15)),
    st.booleans(),
    st.booleans(),
)


class TestInertFrames:
    """Polls and responses reach no `react`; `deliver` relies on `react`
    doing nothing with a response."""

    @pytest.mark.parametrize("opcode", sorted(fr.RESPONSE_OPCODES))
    @given(data=st.data())
    @settings(deadline=None, max_examples=40)
    def test_react_does_nothing_with_a_response(self, opcode, data):
        contexts = _testbed_contexts()
        ctx = contexts[data.draw(st.sampled_from(sorted(contexts)))]
        own = () if ctx.logical is None else (ctx.logical,)
        frame = CecFrame(
            data.draw(st.integers(0, 15)),
            data.draw(st.sampled_from((fr.BROADCAST,) + own) | st.integers(0, 15)),
            opcode,
            data.draw(st.binary(max_size=fr.MAX_OPERANDS)),
        )
        state = data.draw(_states)
        reaction = dv.react(ctx, state, frame)
        assert reaction.state is state
        assert reaction.responses == () and reaction.changed == ()
        assert not reaction.control_pressure

    def test_responses_are_heard_but_not_reacted_to(self, testbed_sim, react_calls):
        listeners = [_Listener(node_id) for node_id in testbed_sim.topology.nodes]
        for listener in listeners:
            testbed_sim.add_actor(listener)
        cast = testbed_sim.logical["chromecast"]
        report = CecFrame(
            cast, fr.BROADCAST, fr.OP_REPORT_PHYSICAL_ADDRESS,
            testbed_sim.topology.physical["chromecast"].to_bytes() + b"\x04",
        )
        name = CecFrame(cast, 0, fr.OP_SET_OSD_NAME, b"Chromecast")
        events = [testbed_sim.deliver("chromecast", f) for f in (report, name)]
        assert react_calls == []
        assert all(e.acknowledged and len(e.observers) > 1 for e in events)
        for listener in listeners:
            assert listener.heard == [e for e in events if listener.device in e.observers]


# ---------------------------------------------------------------------------
# Scheduling and timing
# ---------------------------------------------------------------------------

# A call: the offset from the clock it is queued at, 0-3, and the calls it
# queues when it runs.  A program is the calls queued before `run`.
_calls = st.recursive(
    st.tuples(st.integers(0, 3), st.just(())),
    lambda children: st.tuples(st.integers(0, 3), st.lists(children, max_size=3).map(tuple)),
    max_leaves=12,
)

_SCHEDULING_TOPOLOGY = build_testbed()


def _run_order(program):
    """(tick, path) of each call of `program`, in the order a simulator runs
    them; a path names a call by its index in each list above it."""
    sim, ran = Simulator(_SCHEDULING_TOPOLOGY), []

    def call(path, children):
        ran.append((sim.clock, path))
        for i, (offset, grandchildren) in enumerate(children):
            sim.schedule(sim.clock + offset, call, path + (i,), grandchildren)

    for i, (tick, children) in enumerate(program):
        sim.schedule(tick, call, (i,), children)
    sim.run(until=10**6)
    return ran


def _reference_order(program):
    """The same, from one plain heap keyed by (tick, global insertion index)."""
    heap, index, ran = [], itertools.count(), []
    for i, (tick, children) in enumerate(program):
        heapq.heappush(heap, (tick, next(index), (i,), children))
    while heap:
        tick, _, path, children = heapq.heappop(heap)
        ran.append((tick, path))
        for i, (offset, grandchildren) in enumerate(children):
            heapq.heappush(heap, (tick + offset, next(index), path + (i,), grandchildren))
    return ran


class TestTiming:
    def test_query_answered_next_tick(self, testbed_sim):
        testbed_sim.transmit_at(3, "client", CecFrame(2, 0, OP_GIVE_POWER_STATUS))
        testbed_sim.run(until=6)
        replies = [
            e for e in testbed_sim.trace.events
            if e.origin == "tv" and e.frame.opcode == 0x90
        ]
        assert len(replies) == 1
        assert replies[0].tick == 4

    def test_power_on_announcements_consecutive(self, pair_topology):
        sim = Simulator(pair_topology)
        sim.start()
        sim.schedule(2, sim.user_action, "tv", UserAction.POWER_OFF)
        sim.schedule(5, sim.user_action, "tv", UserAction.POWER_ON)
        sim.run(until=10)
        announced = [
            (e.tick, e.frame.opcode) for e in sim.trace.events if e.origin == "tv" and e.tick >= 5
        ]
        assert announced == [(5, 0x84), (6, 0x87)]

    def test_same_tick_insertion_order(self, testbed_sim):
        first = CecFrame(2, 0, 0x8F)
        second = CecFrame(4, 0, 0x8F)
        testbed_sim.transmit_at(2, "client", first)
        testbed_sim.transmit_at(2, "chromecast", second)
        testbed_sim.run(until=3)
        at_two = [e.frame for e in testbed_sim.trace.events if e.tick == 2]
        assert at_two == [first, second]

    def test_same_tick_calls_run_in_queue_order(self, testbed_sim):
        ran = []
        testbed_sim.schedule(4, ran.append, "first")
        testbed_sim.schedule(3, ran.append, "earlier tick")
        testbed_sim.schedule(4, ran.append, "second")
        testbed_sim.run(until=5)
        assert ran == ["earlier tick", "first", "second"]

    @given(st.lists(_calls, max_size=6))
    @example([(1, ((0, ()),)), (1, ())])
    @settings(deadline=None, max_examples=200)
    def test_calls_run_in_the_order_of_one_tick_and_insertion_heap(self, program):
        assert _run_order(program) == _reference_order(program)

    def test_clock_advances_without_work(self, testbed_sim):
        testbed_sim.run(until=25)
        assert testbed_sim.clock == 25

    def test_determinism_with_seeded_actions(self):
        def run_once():
            sim = Simulator(build_testbed())
            sim.start()
            rng = Random(99)
            for _ in range(30):
                tick = rng.randrange(1, 40)
                origin = rng.choice(list(sim.topology.nodes))
                frame = CecFrame(rng.randrange(16), rng.randrange(16), rng.randrange(256))
                sim.transmit_at(tick, origin, frame)
            sim.run(until=45)
            return rendered(sim.trace.render_log)

        assert run_once() == run_once()


class _Listener(Actor):
    def __init__(self, device):
        super().__init__(device)
        self.heard = []

    def on_event(self, sim, event):
        self.heard.append(event)


class _Ticker(Actor):
    def __init__(self, device):
        super().__init__(device)
        self.ticks = []

    def on_tick(self, sim, tick):
        self.ticks.append(tick)


class _Witness(_Listener, _Ticker):
    """Records both callbacks."""


class _StandbyListener(_Listener):
    hears = frozenset({OP_STANDBY})


class _PollListener(_Listener):
    hears = frozenset({None})


class _Deaf(_Listener):
    hears = frozenset()


class _Recruiter(_Witness):
    """Adds and wakes `recruit` while it hears its first frame or, with
    `at_tick` set, during its first tick."""

    def __init__(self, device, recruit, at_tick=False):
        super().__init__(device)
        self.recruit = recruit
        self.at_tick = at_tick

    def on_event(self, sim, event):
        super().on_event(sim, event)
        if len(self.heard) == 1 and not self.at_tick:
            sim.add_actor(self.recruit)
            sim.wake(self.recruit)

    def on_tick(self, sim, tick):
        super().on_tick(sim, tick)
        if len(self.ticks) == 1 and self.at_tick:
            sim.add_actor(self.recruit)
            sim.wake(self.recruit)


class _Remover(_Witness):
    """Removes `target`, itself by default, while it hears its first frame."""

    def __init__(self, device, target=None):
        super().__init__(device)
        self.target = target or self

    def on_event(self, sim, event):
        super().on_event(sim, event)
        if len(self.heard) == 1:
            sim.remove_actor(self.target)


class TestHearing:
    def test_actor_hears_only_what_its_device_observes(self):
        # the podium's control link is stripped, so client is alone on its wire
        sim = Simulator(builtin_scenario("podium-strip-scan").topology)
        actor = _Listener("client")
        sim.add_actor(actor)
        sim.start()
        own = CecFrame(sim.logical["client"], 15, 0x85)
        sim.transmit_at(2, "tv", CecFrame(0, 15, 0x85))
        sim.transmit_at(3, "client", own)
        sim.transmit_at(4, "chromecast", CecFrame(4, 0, OP_GIVE_POWER_STATUS))
        sim.run(until=8)
        assert actor.heard == [e for e in sim.trace.events if "client" in e.observers]
        assert any(e.origin == "tv" for e in sim.trace.events)
        assert {e.origin for e in actor.heard} == {"client"}
        assert any(e.frame == own for e in actor.heard)

    def test_actor_hears_only_the_opcodes_it_declares(self, testbed_sim):
        standby, everything, deaf = _StandbyListener("tv"), _Listener("tv"), _Deaf("tv")
        for actor in (standby, everything, deaf):
            testbed_sim.add_actor(actor)
        testbed_sim.transmit_at(1, "client", CecFrame(2, 0, OP_GIVE_POWER_STATUS))
        testbed_sim.transmit_at(2, "client", CecFrame(2, 0, OP_STANDBY))
        testbed_sim.transmit_at(3, "client", CecFrame(2, 15, OP_STANDBY))
        testbed_sim.run(until=6)
        assert len(standby.heard) == 2 and len(everything.heard) > 2
        assert standby.heard == [e for e in everything.heard if e.frame.opcode == OP_STANDBY]
        assert deaf.heard == []

    def test_none_in_hears_means_polls(self):
        sim = Simulator(build_testbed())
        polls, standby, everything = _PollListener("tv"), _StandbyListener("tv"), _Listener("tv")
        for actor in (polls, standby, everything):
            sim.add_actor(actor)
        sim.start()
        sim.transmit_at(1, "client", CecFrame(2, 0, OP_GIVE_POWER_STATUS))
        sim.run(until=4)
        assert Actor.hears is None and everything.heard == sim.trace.events
        assert polls.heard == [e for e in sim.trace.events if e.frame.is_polling]
        assert polls.heard and len(polls.heard) < len(everything.heard)
        assert standby.heard == []

    def test_program_actors_that_do_not_listen_are_never_called(self, monkeypatch):
        # The same patch a tracer makes: an `on_event` on every actor class.
        calls = []
        for cls in (BroadcastDos, RelayPoller):
            monkeypatch.setattr(cls, "on_event", lambda self, sim, event: calls.append(self))
        result = run_scenario(builtin_scenario("attack5-remote-churn"))
        assert result.poller is not None and result.controllers["listener"].broadcast.active
        assert calls == []

    def test_simulators_of_one_topology_share_only_its_views(self):
        topology = build_testbed()
        first, second = Simulator(topology), Simulator(topology)
        first.start()
        second.start()
        assert first.device_states is not second.device_states
        for node_id in topology.nodes:
            assert first._domains[node_id].holders is not second._domains[node_id].holders
        first.transmit_at(1, "client", CecFrame(2, 0, OP_STANDBY))
        first.run(until=3)
        second.run(until=3)
        assert first.device_states["tv"].power is PowerState.STANDBY
        assert second.device_states["tv"].power is PowerState.ON

    def test_actor_added_while_a_frame_is_heard_starts_after_it(self, testbed_sim):
        late = _Witness("tv")
        recruiter = _Recruiter("tv", late)
        testbed_sim.add_actor(recruiter)
        testbed_sim.transmit_at(2, "client", CecFrame(2, 0, OP_GIVE_POWER_STATUS))
        testbed_sim.transmit_at(4, "client", CecFrame(2, 0, OP_GIVE_OSD_NAME))
        testbed_sim.run(until=7)
        first = recruiter.heard[0]
        assert (first.tick, first.origin) == (2, "client")
        # it missed the frame it was added during, and that frame's tick
        assert len(recruiter.heard) > 2
        assert late.heard == recruiter.heard[1:]
        assert late.ticks == [3, 4, 5, 6]

    def test_actor_added_during_a_tick_starts_on_the_next(self, testbed_sim):
        late = _Witness("tv")
        recruiter = _Recruiter("tv", late, at_tick=True)
        testbed_sim.add_actor(recruiter)
        testbed_sim.wake(recruiter)
        testbed_sim.run(until=4)
        assert late.ticks == [1, 2, 3]

    def test_one_callback_actors_get_theirs(self, testbed_sim):
        ticker, listener, idle = _Ticker("tv"), _Listener("tv"), Actor("amp")
        for actor in (ticker, listener, idle):
            testbed_sim.add_actor(actor)
        testbed_sim.wake(ticker)
        start = len(testbed_sim.trace.events)
        testbed_sim.transmit_at(1, "client", CecFrame(2, 0, OP_GIVE_POWER_STATUS))
        testbed_sim.run(until=3)
        assert ticker.ticks == [0, 1, 2]
        heard = [e for e in testbed_sim.trace.events[start:] if "tv" in e.observers]
        assert len(heard) == 2 and listener.heard == heard
        assert testbed_sim.actors == [ticker, listener, idle]

    def test_removed_actor_stops_from_the_next_tick_and_frame(self, testbed_sim):
        leaver, stayer = _Remover("tv"), _Witness("tv")
        testbed_sim.add_actor(leaver)
        testbed_sim.add_actor(stayer)
        testbed_sim.wake(leaver)
        testbed_sim.wake(stayer)
        testbed_sim.transmit_at(2, "client", CecFrame(2, 0, OP_GIVE_POWER_STATUS))
        testbed_sim.transmit_at(4, "client", CecFrame(2, 0, OP_GIVE_OSD_NAME))
        testbed_sim.run(until=7)
        assert len(stayer.heard) > 2 and leaver.heard == stayer.heard[:1]
        assert leaver.ticks == [0, 1, 2] and stayer.ticks == list(range(7))
        assert testbed_sim.actors == [stayer]

    def test_actor_removed_while_a_frame_is_heard_still_hears_it(self, testbed_sim):
        victim = _Witness("tv")
        remover = _Remover("tv", victim)
        testbed_sim.add_actor(remover)
        testbed_sim.add_actor(victim)
        testbed_sim.wake(victim)
        testbed_sim.transmit_at(2, "client", CecFrame(2, 0, OP_GIVE_POWER_STATUS))
        testbed_sim.run(until=5)
        assert len(remover.heard) > 1 and victim.heard == remover.heard[:1]
        assert victim.ticks == [0, 1, 2]
        assert testbed_sim.actors == [remover]


class _Sleeper(_Ticker):
    """Rests itself on its `stop`-th tick."""

    def __init__(self, device, stop):
        super().__init__(device)
        self.stop = stop

    def on_tick(self, sim, tick):
        super().on_tick(sim, tick)
        if len(self.ticks) == self.stop:
            sim.rest(self)


class TestWaking:
    """`on_tick` runs only between `wake` and `rest` or `remove_actor`."""

    def test_added_actor_does_not_tick_until_woken(self, testbed_sim):
        ticker = _Ticker("tv")
        testbed_sim.add_actor(ticker)
        testbed_sim.run(until=5)
        assert ticker.ticks == []
        testbed_sim.wake(ticker)
        testbed_sim.run(until=8)
        assert ticker.ticks == [5, 6, 7]

    def test_actor_woken_by_a_queued_call_starts_on_the_next_tick(self, testbed_sim):
        ticker = _Ticker("tv")
        testbed_sim.add_actor(ticker)
        testbed_sim.schedule(4, testbed_sim.wake, ticker)
        testbed_sim.run(until=8)
        assert ticker.ticks == [5, 6, 7]

    def test_actor_woken_twice_ticks_once_per_tick(self, testbed_sim):
        ticker = _Ticker("tv")
        testbed_sim.add_actor(ticker)
        testbed_sim.wake(ticker)
        testbed_sim.schedule(2, testbed_sim.wake, ticker)
        testbed_sim.run(until=5)
        assert ticker.ticks == [0, 1, 2, 3, 4]

    def test_adding_an_actor_twice_raises(self, testbed_sim):
        # Added twice, it would tick twice a tick and hear after a removal.
        ticker = _Ticker("tv")
        testbed_sim.add_actor(ticker)
        with pytest.raises(ValueError, match="already added"):
            testbed_sim.add_actor(ticker)
        testbed_sim.wake(ticker)
        testbed_sim.run(until=3)
        assert ticker.ticks == [0, 1, 2] and testbed_sim.actors == [ticker]

    def test_rest_stops_ticks_from_the_next_tick(self, testbed_sim):
        sleeper, other = _Sleeper("tv", stop=2), _Ticker("tv")
        for actor in (sleeper, other):
            testbed_sim.add_actor(actor)
            testbed_sim.wake(actor)
        testbed_sim.schedule(3, testbed_sim.rest, other)
        testbed_sim.run(until=6)
        assert sleeper.ticks == [0, 1] and other.ticks == [0, 1, 2, 3]
        assert testbed_sim.actors == [sleeper, other]

    def test_awake_actors_tick_in_add_order(self, testbed_sim):
        order = []
        actors = [_Ticker(device) for device in ("tv", "amp", "client")]
        for actor in actors:
            testbed_sim.add_actor(actor)
            actor.on_tick = lambda sim, tick, actor=actor: order.append(actor.device)
        for actor in reversed(actors):
            testbed_sim.wake(actor)
        testbed_sim.run(until=2)
        assert order == ["tv", "amp", "client"] * 2

    def test_waking_an_actor_not_added_raises(self, testbed_sim):
        stranger, leaver = _Ticker("tv"), _Ticker("tv")
        testbed_sim.add_actor(leaver)
        testbed_sim.remove_actor(leaver)
        for actor in (stranger, leaver):
            with pytest.raises(ValueError, match="never added"):
                testbed_sim.wake(actor)

    def test_idle_run_jumps_to_the_next_queued_call(self, testbed_sim):
        # No actor is awake: the clock jumps over a billion empty ticks.
        calls = []
        testbed_sim.add_actor(_Ticker("tv"))
        testbed_sim.schedule(10**9 - 1, lambda: calls.append(testbed_sim.clock))
        testbed_sim.run(until=10**9)
        assert calls == [10**9 - 1] and testbed_sim.clock == 10**9

    def test_idle_run_ends_at_until(self, testbed_sim):
        calls = []
        testbed_sim.schedule(50, lambda: calls.append(testbed_sim.clock))
        testbed_sim.run(until=20)
        assert calls == [] and testbed_sim.clock == 20
        testbed_sim.run(until=60)
        assert calls == [50] and testbed_sim.clock == 60

    def test_actor_woken_after_a_jump_ticks_every_tick(self, testbed_sim):
        ticker = _Ticker("tv")
        testbed_sim.add_actor(ticker)
        testbed_sim.schedule(1000, testbed_sim.wake, ticker)
        testbed_sim.schedule(1003, testbed_sim.rest, ticker)
        testbed_sim.schedule(5000, lambda: None)
        testbed_sim.run(until=10**6)
        assert ticker.ticks == [1001, 1002, 1003]
        assert testbed_sim.clock == 10**6


# ---------------------------------------------------------------------------
# Trace round trip
# ---------------------------------------------------------------------------

def _line(event: BusEvent) -> str:
    """The `trace.log` line of one event."""
    return rendered(Trace([event]).render_log)


class TestTraceFormat:
    def test_render_shape(self, testbed_sim):
        event = testbed_sim.deliver("tv", CecFrame(0, 15, 0x85))
        line = _line(event)
        assert line.startswith("t=%d | tv | 0f:85 | ack=1 | obs=" % event.tick)

    def test_round_trip(self, testbed_sim):
        testbed_sim.transmit_at(1, "client", CecFrame(2, 0, OP_GIVE_POWER_STATUS))
        testbed_sim.run(until=4)
        for event in testbed_sim.trace.events:
            again = parse_trace_line(_line(event))
            assert again.tick == event.tick
            assert again.origin == event.origin
            assert again.frame == event.frame
            assert again.acknowledged == event.acknowledged
            assert again.observers == event.observers

    @given(st.text(min_size=1, max_size=12))
    @settings(deadline=None, max_examples=200)
    @example(node_id="evil box")
    @example(node_id="c,d")
    @example(node_id="t\u00e9l\u00e9")
    def test_every_node_id_that_loads_survives_its_trace_line(self, node_id):
        # Trace fields are split at spaces and observers at commas: a node
        # id the loader accepts must come back whole from either place.
        assume(node_id != "tv")
        nodes = [{"id": "tv", "kind": "display", "device_type": "television"},
                 {"id": node_id, "kind": "source", "device_type": "playback"}]
        edges = [{"parent": "tv", "child": node_id, "port": 1}]
        try:
            sim = Simulator(build_topology({"nodes": nodes, "edges": edges}))
        except TopologyError as exc:
            assert repr(node_id) in str(exc)
            return
        sim.start()
        sim.deliver(node_id, CecFrame(4, 15, 0x85))
        sim.deliver("tv", CecFrame(0, 15, 0x85))
        lines = rendered(sim.trace.render_log).splitlines()
        assert [parse_trace_line(line) for line in lines] == sim.trace.events
        assert all(node_id in event.observers for event in sim.trace.events)

    @pytest.mark.parametrize("name", builtin_scenario_names())
    def test_every_builtin_event_parses_back_equal(self, name):
        events = run_scenario(builtin_scenario(name)).sim.trace.events
        assert events
        replayed = [parse_trace_line(_line(e)) for e in events]
        assert replayed == events
        # Replayed events of one domain share one observers tuple.
        shared: dict[tuple[str, ...], tuple[str, ...]] = {}
        for event in replayed:
            assert shared.setdefault(event.observers, event.observers) is event.observers

    def test_records_are_immutable(self, testbed_sim):
        event = testbed_sim.deliver("tv", CecFrame(0, 15, 0x85))
        change = StateChange(0, "tv", "power", "standby")
        for record in (event, change):
            for name in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, name, getattr(record, name))
        assert change == StateChange(tick=0, device="tv", field="power", value="standby")
        assert rendered(Trace(changes=[change]).render_state_log) == "t=0 | tv | power=standby\n"

    def test_state_log_lines(self, pair_topology):
        sim = Simulator(pair_topology)
        sim.start()
        sim.schedule(2, sim.user_action, "tv", UserAction.POWER_OFF)
        sim.run(until=4)
        text = rendered(sim.trace.render_state_log)
        assert "t=2 | tv | power=standby" in text

    def test_state_log_tells_true_from_one(self, pair_topology):
        # `True == 1`: values that share texts must still log as their own.
        sim = Simulator(pair_topology)
        sim.start()
        sim.transmit_at(0, "tv", CecFrame(0, fr.BROADCAST, fr.OP_ACTIVE_SOURCE, b"\x10\x00"))
        sim.transmit_at(1, "box", CecFrame(4, fr.BROADCAST, fr.OP_ACTIVE_SOURCE, b"\x10\x00"))
        sim.run(until=3)
        assert rendered(sim.trace.render_state_log) == (
            "t=0 | box | active_source=True\nt=1 | tv | active_input_port=1\n"
        )


# ---------------------------------------------------------------------------
# Trace replay memos
# ---------------------------------------------------------------------------

# The whole-line pattern `parse_trace_line` matched before it split off the tick.
TRACE_LINE = re.compile(
    r"^t=(?P<tick>\d+) \| (?P<origin>\S+) \| (?P<frame>[0-9a-f:]+) \| "
    r"ack=(?P<ack>[01]) \| obs=(?P<obs>\S*)$"
)


def _reference_decode(line: str) -> BusEvent:
    """`parse_trace_line` as one whole-line match, without its memos."""
    match = TRACE_LINE.match(line.strip())
    if match is None:
        raise ValueError("unrecognised trace line: %r" % line)
    return BusEvent(
        tick=int(match.group("tick")),
        origin=match.group("origin"),
        frame=_reference_parse(match.group("frame")),
        observers=tuple(x for x in match.group("obs").split(",") if x),
        acknowledged=match.group("ack") == "1",
    )


def _outcome(decode, line):
    try:
        return decode(line)
    except ValueError as exc:
        return type(exc), str(exc)


_names = st.from_regex(r"[a-z][a-z0-9_-]{0,7}", fullmatch=True)


@st.composite
def rendered_events(draw):
    opcode = draw(st.none() | st.integers(0, 255))
    operands = b"" if opcode is None else draw(st.binary(max_size=fr.MAX_OPERANDS))
    event = BusEvent(
        tick=draw(st.integers(0, 10**6)),
        origin=draw(_names),
        frame=CecFrame(draw(st.integers(0, 15)), draw(st.integers(0, 15)), opcode, operands),
        observers=tuple(draw(st.lists(_names, max_size=6))),
        acknowledged=draw(st.booleans()),
    )
    return _line(event)


@st.composite
def edited_lines(draw):
    """A rendered line with one slice replaced by random text."""
    line = draw(rendered_events())
    start = draw(st.integers(0, len(line)))
    stop = draw(st.integers(start, len(line)))
    return line[:start] + draw(st.text(max_size=4)) + line[stop:]


class TestTraceMemo:
    @given(st.text() | st.from_regex(TRACE_LINE) | rendered_events() | edited_lines())
    @settings(deadline=None, max_examples=300)
    @example(line="t=1 | tv | 1F:82 | ack=1 | obs=tv")
    @example(line="t=\u0661 | tv | 1f:82 | ack=0 | obs=")
    @example(line=" t=1 | tv | 1f | ack=1 | obs=tv,box\n")
    @example(line="t=1 | tv | 1f | ack=1 | obs=tv\nx")
    def test_memoised_decode_matches_reference(self, line):
        expected = _outcome(_reference_decode, line)
        first, again = (_outcome(parse_trace_line, line) for _ in range(2))
        assert first == expected and again == expected
        if isinstance(expected, BusEvent):
            assert again.frame is not first.frame

    def test_bad_frame_raises_every_time(self):
        line = "t=1 | tv | 1f:8 | ack=1 | obs=tv"
        errors = []
        for _ in range(2):
            with pytest.raises(fr.FrameError) as caught:
                parse_trace_line(line)
            errors.append(str(caught.value))
        assert errors == ["octet 1 is not two hex digits: '8'"] * 2

    def test_replay_past_the_memos_stays_bounded(self):
        memos = (bus._trace_fields, bus._trace_observers, fr._frame_fields)
        distinct = max(memo.cache_info().maxsize for memo in memos) + 9
        events = [
            BusEvent(tick, "tv", CecFrame(0, 15, 0x47, (tick % distinct).to_bytes(2, "big")),
                     ("tv", "d%d" % (tick % distinct)), False)
            for tick in range(3 * distinct)
        ]
        replayed = []
        for event in events:
            replayed.append(parse_trace_line(_line(event)))
            for memo in memos:
                assert memo.cache_info().currsize <= memo.cache_info().maxsize
        assert replayed == events


def _per_line_log(events) -> str:
    """`trace.log` with every frame encoded on its own line."""
    return "".join(
        "t=%d | %s | %s | ack=%d | obs=%s\n"
        % (e.tick, e.origin, fr.encode_frame(e.frame), e.acknowledged, ",".join(e.observers))
        for e in events
    )


class TestTraceRecords:
    def test_shared_frame_objects_render_as_distinct_equal_ones(self):
        shared = [CecFrame(0, 15, 0x85), CecFrame(4, 0, 0x36), CecFrame(1, 1)]
        events = [
            BusEvent(tick, "tv", shared[tick % 3], ("tv", "box"), bool(tick % 2))
            for tick in range(10)
        ]
        copies = [e._replace(frame=dataclasses.replace(e.frame)) for e in events]
        assert all(c.frame is not e.frame for c, e in zip(copies, events))
        assert rendered(Trace(events).render_log) == rendered(Trace(copies).render_log)
        assert rendered(Trace(events).render_log) == _per_line_log(events)

    def test_built_records_keep_their_types(self, testbed_sim):
        testbed_sim.schedule(1, testbed_sim.user_action, "tv", UserAction.POWER_OFF)
        testbed_sim.run(until=3)
        event = testbed_sim.trace.events[-1]
        assert type(event) is BusEvent and type(parse_trace_line(_line(event))) is BusEvent
        assert testbed_sim.trace.changes
        assert all(type(c) is StateChange for c in testbed_sim.trace.changes)
