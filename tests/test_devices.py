"""Device reaction model: queries, control gating, announcements, menus."""

import copy
import dataclasses
import heapq
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cecsim import bus, devices, scenarios
from cecsim import frames as fr
from cecsim import topology as topo
from cecsim.bus import Simulator
from cecsim.devices import (
    ABORT_REFUSED,
    ABORT_UNRECOGNIZED,
    DeviceCtx,
    DeviceState,
    UserAction,
    announcement_frames,
    apply_user_action,
    react,
)
from cecsim.frames import (
    CecFrame,
    DeviceType,
    OP_ACTIVE_SOURCE,
    OP_FEATURE_ABORT,
    OP_GET_CEC_VERSION,
    OP_GIVE_OSD_NAME,
    OP_GIVE_PHYSICAL_ADDRESS,
    OP_GIVE_POWER_STATUS,
    OP_IMAGE_VIEW_ON,
    OP_REQUEST_ACTIVE_SOURCE,
    OP_STANDBY,
    PhysicalAddress,
    PowerState,
    QUERY_OPCODES,
    RESPONSE_OPCODES,
)
from cecsim.scenarios import (
    builtin_scenario,
    builtin_scenario_names,
    load_scenario,
    run_scenario,
    write_artifacts,
)
from cecsim.topology import MAX_PORTS, DeviceKind, build_topology

from conftest import build_testbed, rendered


@pytest.fixture
def sim():
    s = Simulator(build_testbed())
    s.start()
    return s


def ctx_and_state(sim, device):
    return sim.device_ctx(device), sim.device_states[device]


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

class TestQueries:
    @pytest.mark.parametrize("opcode", QUERY_OPCODES)
    def test_every_query_answered_when_reporting(self, sim, opcode):
        ctx, state = ctx_and_state(sim, "tv")
        reaction = react(ctx, state, CecFrame(2, 0, opcode))
        assert len(reaction.responses) == 1
        assert reaction.state == state

    def test_osd_name_reply_spells_name(self, sim):
        ctx, state = ctx_and_state(sim, "tv")
        reaction = react(ctx, state, CecFrame(2, 0, OP_GIVE_OSD_NAME))
        reply = reaction.responses[0]
        assert reply.opcode == 0x47
        assert bytes(reply.operands).decode("ascii") == "TV"
        assert reply.destination == 2

    def test_physical_address_reply_broadcast(self, sim):
        ctx, state = ctx_and_state(sim, "chromecast")
        reaction = react(ctx, state, CecFrame(0, 4, OP_GIVE_PHYSICAL_ADDRESS))
        reply = reaction.responses[0]
        assert reply.is_broadcast
        assert reply.operands[:2] == bytes((0x30, 0x00))

    def test_unknown_cec_version_refused(self):
        nodes = [
            {"id": "tv", "kind": "display", "device_type": "television", "cec_version": "2.0"},
            {"id": "box", "kind": "source", "device_type": "playback"},
        ]
        sim = Simulator(build_topology(
            {"nodes": nodes, "edges": [{"parent": "tv", "child": "box", "port": 1}]}
        ))
        sim.start()
        ctx, state = ctx_and_state(sim, "tv")
        reaction = react(ctx, state, CecFrame(4, 0, OP_GET_CEC_VERSION))
        assert reaction.responses == (
            CecFrame(0, 4, OP_FEATURE_ABORT, bytes((OP_GET_CEC_VERSION, ABORT_REFUSED))),
        )

    def test_queries_answered_from_standby(self, sim):
        ctx, state = ctx_and_state(sim, "amp")
        assert state.power is PowerState.STANDBY
        reaction = react(ctx, state, CecFrame(0, 5, OP_GIVE_POWER_STATUS))
        assert reaction.responses[0].operands == bytes((0x01,))

    def test_queries_silent_without_reporting(self, sim):
        ctx, state = ctx_and_state(sim, "tv")
        muted = dataclasses.replace(state, cec_info_reporting_enabled=False)
        for opcode in QUERY_OPCODES:
            assert react(ctx, muted, CecFrame(2, 0, opcode)).responses == ()

    def test_polling_is_ignored(self, sim):
        ctx, state = ctx_and_state(sim, "tv")
        reaction = react(ctx, state, CecFrame(0, 0))
        assert reaction.responses == ()
        assert reaction.state == state

    def test_frames_for_other_addresses_ignored(self, sim):
        ctx, state = ctx_and_state(sim, "tv")
        reaction = react(ctx, state, CecFrame(2, 5, OP_GIVE_POWER_STATUS))
        assert reaction.responses == ()


# ---------------------------------------------------------------------------
# Unknown opcodes
# ---------------------------------------------------------------------------

class TestAborts:
    def test_unknown_addressed_opcode_aborted(self, sim):
        ctx, state = ctx_and_state(sim, "tv")
        reaction = react(ctx, state, CecFrame(2, 0, 0xAB))
        reply = reaction.responses[0]
        assert reply.opcode == OP_FEATURE_ABORT
        assert reply.operands == bytes((0xAB, ABORT_UNRECOGNIZED))

    def test_unknown_broadcast_not_aborted(self, sim):
        ctx, state = ctx_and_state(sim, "tv")
        assert react(ctx, state, CecFrame(2, 15, 0xAB)).responses == ()

    @pytest.mark.parametrize("opcode", sorted(RESPONSE_OPCODES))
    def test_responses_never_aborted(self, sim, opcode):
        # Replies from other devices must not trigger abort ping-pong.
        ctx, state = ctx_and_state(sim, "tv")
        reaction = react(ctx, state, CecFrame(2, 0, opcode, b"\x00"))
        assert reaction.responses == ()


# ---------------------------------------------------------------------------
# Control opcodes
# ---------------------------------------------------------------------------

class TestControl:
    def test_standby_powers_down(self, sim):
        ctx, state = ctx_and_state(sim, "tv")
        reaction = react(ctx, state, CecFrame(1, 0, OP_STANDBY))
        assert reaction.state.power is PowerState.STANDBY
        assert reaction.control_pressure

    def test_standby_ignored_when_control_disabled(self, sim):
        ctx, state = ctx_and_state(sim, "tv")
        deaf = dataclasses.replace(state, cec_control_enabled=False)
        reaction = react(ctx, deaf, CecFrame(1, 0, OP_STANDBY))
        assert reaction.state.power is PowerState.ON
        assert not reaction.control_pressure

    def test_image_view_on_wakes_and_announces(self, sim):
        ctx, state = ctx_and_state(sim, "tv")
        asleep = dataclasses.replace(state, power=PowerState.STANDBY)
        reaction = react(ctx, asleep, CecFrame(1, 0, OP_IMAGE_VIEW_ON))
        assert reaction.state.power is PowerState.ON
        assert [f.opcode for f in reaction.responses] == [
            f.opcode for f in announcement_frames(ctx, reaction.state)
        ]

    def test_active_source_claim_moves_display_input(self, sim):
        ctx, state = ctx_and_state(sim, "tv")
        reaction = react(ctx, state, CecFrame(4, 15, OP_ACTIVE_SOURCE, b"\x10\x00"))
        assert reaction.state.active_input_port == 1
        assert reaction.control_pressure

    def test_active_source_claim_sets_own_flag(self, sim):
        ctx, state = ctx_and_state(sim, "chromecast")
        claiming = CecFrame(4, 15, OP_ACTIVE_SOURCE, b"\x30\x00")
        reaction = react(ctx, state, claiming)
        assert reaction.state.active_source

    def test_other_claim_clears_flag(self, sim):
        ctx, state = ctx_and_state(sim, "listener")
        assert state.active_source
        reaction = react(ctx, state, CecFrame(4, 15, OP_ACTIVE_SOURCE, b"\x30\x00"))
        assert not reaction.state.active_source

    @given(st.integers(0, 255))
    @settings(deadline=None)
    def test_disabled_control_never_changes_state(self, sim_opcode):
        sim = Simulator(build_testbed())
        sim.start()
        ctx, state = ctx_and_state(sim, "tv")
        deaf = dataclasses.replace(state, cec_control_enabled=False)
        reaction = react(ctx, deaf, CecFrame(2, 0, sim_opcode))
        assert reaction.state.power == deaf.power
        assert reaction.state.active_input_port == deaf.active_input_port
        assert not reaction.control_pressure


# ---------------------------------------------------------------------------
# Announcements
# ---------------------------------------------------------------------------

class TestAnnouncements:
    def test_display_announces_three_frames(self, sim):
        ctx, state = ctx_and_state(sim, "tv")
        frames = announcement_frames(ctx, state)
        assert [f.opcode for f in frames] == [0x84, 0x87, 0x80]
        assert all(f.is_broadcast for f in frames)

    def test_display_routing_announcement_names_input(self, sim):
        ctx, state = ctx_and_state(sim, "tv")
        routing = announcement_frames(ctx, state)[-1]
        # old path is the display itself, new path is the active input slot
        assert routing.operands == bytes((0x00, 0x00, 0x30, 0x00))

    def test_source_announces_two_frames(self, sim):
        ctx, state = ctx_and_state(sim, "amp")
        frames = announcement_frames(ctx, state)
        assert [f.opcode for f in frames] == [0x84, 0x87]

    def test_active_source_adds_claim(self, sim):
        ctx, state = ctx_and_state(sim, "chromecast")
        claiming = dataclasses.replace(state, active_source=True)
        frames = announcement_frames(ctx, claiming)
        assert [f.opcode for f in frames] == [0x84, 0x87, 0x82]

    @pytest.mark.parametrize(
        "address", [PhysicalAddress.unregistered(), PhysicalAddress((1, 2, 3, 4))],
        ids=["f.f.f.f", "1.2.3.4"],
    )
    def test_display_with_no_port_below_skips_the_route(self, sim, address):
        ctx, state = ctx_and_state(sim, "tv")
        ctx = dataclasses.replace(ctx, physical=address)
        assert [f.opcode for f in announcement_frames(ctx, state)] == [0x84, 0x87]

    def test_display_without_its_own_address_powers_on(self):
        topology = build_topology(
            {
                "nodes": [
                    {"id": "tv", "kind": "display", "device_type": "television",
                     "osd_name": "TV"},
                    {"id": "mon", "kind": "display", "device_type": "playback",
                     "osd_name": "Mon", "edid_address_available": False,
                     "initial_power": "standby", "active_input_port": 1},
                ],
                "edges": [{"parent": "tv", "child": "mon", "port": 1}],
            }
        )
        sim = Simulator(topology)
        sim.schedule(2, sim.user_action, "mon", UserAction.POWER_ON)
        sim.run(5)
        assert sim.device_states["mon"].power is PowerState.ON
        # the two reports and no route: there is no address below f.f.f.f
        sent = [e.frame.opcode for e in sim.trace.events if e.origin == "mon" and e.tick >= 2]
        assert sent == [0x84, 0x87]


# ---------------------------------------------------------------------------
# User actions
# ---------------------------------------------------------------------------

class TestUserActions:
    def test_power_on_from_standby_announces(self, sim):
        ctx, state = ctx_and_state(sim, "amp")
        refusal, reaction = apply_user_action(ctx, state, UserAction.POWER_ON)
        assert refusal == ""
        assert reaction.state.power is PowerState.ON
        assert [f.opcode for f in reaction.responses] == [0x84, 0x87]

    def test_power_on_when_already_on_rejected(self, sim):
        ctx, state = ctx_and_state(sim, "tv")
        refusal, reaction = apply_user_action(ctx, state, UserAction.POWER_ON)
        assert "already" in refusal
        assert reaction.state is state
        assert reaction.responses == ()

    def test_power_off_is_silent(self, sim):
        ctx, state = ctx_and_state(sim, "tv")
        refusal, reaction = apply_user_action(ctx, state, UserAction.POWER_OFF)
        assert refusal == ""
        assert reaction.state.power is PowerState.STANDBY
        assert reaction.responses == ()

    def test_select_input_broadcasts_route(self, sim):
        ctx, state = ctx_and_state(sim, "tv")
        refusal, reaction = apply_user_action(ctx, state, UserAction.SELECT_INPUT, argument=1)
        assert refusal == ""
        assert reaction.state.active_input_port == 1
        claim = reaction.responses[0]
        assert claim.opcode == OP_ACTIVE_SOURCE
        assert claim.operands == bytes((0x10, 0x00))

    def test_select_input_below_a_full_address_claims_nothing(self, sim):
        ctx, state = ctx_and_state(sim, "tv")
        ctx = dataclasses.replace(ctx, physical=PhysicalAddress((1, 2, 3, 4)))
        refusal, reaction = apply_user_action(ctx, state, UserAction.SELECT_INPUT, argument=1)
        assert refusal == "" and reaction.state.active_input_port == 1
        assert reaction.responses == ()

    def test_select_input_rejects_bad_port(self, sim):
        ctx, state = ctx_and_state(sim, "tv")
        refusal, _ = apply_user_action(ctx, state, UserAction.SELECT_INPUT, argument=9)
        assert refusal == "unknown input port 9"

    def test_select_input_only_for_inputs(self, sim):
        ctx, state = ctx_and_state(sim, "chromecast")
        refusal, _ = apply_user_action(ctx, state, UserAction.SELECT_INPUT, argument=1)
        assert refusal == "device has no selectable inputs"

    def test_disable_cec_needs_menu(self, sim):
        ctx, state = ctx_and_state(sim, "tv")
        refusal, blocked = apply_user_action(
            ctx, state, UserAction.DISABLE_CEC, menu_accessible=False
        )
        assert refusal == "settings menu unresponsive"
        assert blocked.state.cec_control_enabled
        refusal, allowed = apply_user_action(
            ctx, state, UserAction.DISABLE_CEC, menu_accessible=True
        )
        assert refusal == ""
        assert not allowed.state.cec_control_enabled
        assert not allowed.state.cec_control_enabled
        assert not allowed.state.cec_info_reporting_enabled


# ---------------------------------------------------------------------------
# Menu pressure through the simulator
# ---------------------------------------------------------------------------

class TestMenuPressure:
    def test_menu_open_under_light_traffic(self, sim):
        sim.transmit_at(5, "client", CecFrame(2, 0, OP_STANDBY))
        sim.run(until=20)
        assert sim.settings_menu_accessible("tv")

    def test_menu_blocked_under_sustained_control(self, sim):
        for tick in range(5, 12):
            sim.transmit_at(tick, "client", CecFrame(2, 0, OP_IMAGE_VIEW_ON))
        sim.run(until=13)
        assert not sim.settings_menu_accessible("tv")

    def test_menu_recovers_after_quiet_window(self, sim):
        for tick in range(5, 12):
            sim.transmit_at(tick, "client", CecFrame(2, 0, OP_IMAGE_VIEW_ON))
        sim.run(until=40)
        assert sim.settings_menu_accessible("tv")

    def test_blocked_menu_rejects_user_action(self, sim):
        for tick in range(5, 12):
            sim.transmit_at(tick, "client", CecFrame(2, 0, OP_IMAGE_VIEW_ON))
        sim.schedule(12, sim.user_action, "tv", UserAction.DISABLE_CEC)
        sim.run(until=14)
        record = sim.user_actions[-1]
        assert record.action == "disable_cec"
        assert not record.ok


# ---------------------------------------------------------------------------
# Reported changes
# ---------------------------------------------------------------------------

# The fields the state log records, in the order it records them.
STATE_LOG_FIELDS = ("power", "active_source", "active_input_port", "cec_control_enabled")

_TESTBED = build_testbed()


@st.composite
def physical_addresses(draw):
    if draw(st.integers(0, 9)) == 0:
        return PhysicalAddress.unregistered()
    depth = draw(st.integers(0, 4))
    prefix = [draw(st.integers(1, 15)) for _ in range(depth)]
    return PhysicalAddress(tuple(prefix + [0] * (4 - depth)))


@st.composite
def device_contexts(draw):
    node = _TESTBED.nodes[draw(st.sampled_from(sorted(_TESTBED.nodes)))]
    return DeviceCtx(node, draw(st.none() | st.integers(0, 15)), draw(physical_addresses()))


device_states = st.builds(
    DeviceState,
    st.sampled_from(PowerState),
    st.booleans(),
    st.none() | st.integers(1, 5),
    st.booleans(),
    st.booleans(),
)


@st.composite
def observed_frames(draw, ctx):
    """A frame aimed at the device, broadcast or sent elsewhere."""
    destination = draw(
        st.sampled_from([fr.BROADCAST, 0 if ctx.logical is None else ctx.logical])
        | st.integers(0, 15)
    )
    opcode = draw(
        st.sampled_from(fr.QUERY_OPCODES + fr.CONTROL_OPCODES + (fr.OP_REQUEST_ACTIVE_SOURCE,))
        | st.none()
        | st.integers(0, 255)
    )
    if opcode is None:
        return CecFrame(draw(st.integers(0, 15)), destination)
    operands = draw(st.binary(max_size=4))
    return CecFrame(draw(st.integers(0, 15)), destination, opcode, operands)


def control_frames(ctx, port):
    """Every control frame at the device or broadcast, with operands naming
    its own address, the address on `port` below it, or both."""
    here = ctx.physical.to_bytes()
    there = ctx.physical.child(port).to_bytes() if ctx.physical.depth() < 4 else here
    for destination in (fr.BROADCAST, 0 if ctx.logical is None else ctx.logical):
        for opcode in fr.CONTROL_OPCODES:
            for operands in (here, there, here + there):
                yield CecFrame(1, destination, opcode, operands)


def _differing(old, new):
    """The state log's (field, text) pair for each logged field that differs."""
    return tuple(
        (name, new.power.value if name == "power" else str(getattr(new, name)))
        for name in STATE_LOG_FIELDS
        if getattr(old, name) != getattr(new, name)
    )


class TestReportedChanges:
    @given(st.data(), st.integers(1, 5))
    @settings(deadline=None, max_examples=100)
    def test_react_reports_exactly_the_logged_fields_that_differ(self, data, port):
        ctx = data.draw(device_contexts())
        state = data.draw(device_states)
        for frame in [data.draw(observed_frames(ctx))] + list(control_frames(ctx, port)):
            reaction = react(ctx, state, frame)
            assert reaction.changed == _differing(state, reaction.state)
            if reaction.state is state:
                assert reaction.changed == ()

    @given(
        device_contexts(),
        device_states,
        st.sampled_from(UserAction),
        st.none() | st.integers(0, 6),
        st.booleans(),
    )
    @settings(deadline=None, max_examples=100)
    def test_user_action_reports_exactly_the_logged_fields_that_differ(
        self, ctx, state, action, argument, accessible
    ):
        _, reaction = apply_user_action(ctx, state, action, argument, accessible)
        assert reaction.changed == _differing(state, reaction.state)
        # `Simulator.user_action` records no control pressure.
        assert not reaction.control_pressure


# ---------------------------------------------------------------------------
# The simulator's reaction memo
# ---------------------------------------------------------------------------

# Opcodes that skip the memo when `bus._UNMEMOIZED` is patched to this: all.
_NO_MEMO = frozenset(range(256))

_ADDRESSED = sorted(n for n, node in _TESTBED.nodes.items() if node.cec_addressed)


def _neighbour(sim, device):
    """Another member of `device`'s domain, to put frames on its wire."""
    return next(n for n in sim.topology.domains[device] if n != device)


def _effects(sim):
    """What deliveries leave behind: states, logged changes, control
    pressure and the queued responses."""
    pressure = {n: list(ticks) for n, ticks in sim._pressure.items() if ticks}
    queued = sorted((tick, seq, args) for tick, seq, _, args in sim._queue)
    return dict(sim.device_states), list(sim.trace.changes), pressure, queued


class TestMemo:
    @given(st.data(), st.integers(1, 5), st.integers(1, 8))
    @settings(deadline=None, max_examples=150)
    def test_memoized_react_equals_a_fresh_one(self, data, port, limit):
        # Two simulators take the same frames; only the first keeps a memo.
        memoized, fresh = Simulator(_TESTBED), Simulator(_TESTBED)
        memoized.start()
        fresh.start()
        device = data.draw(st.sampled_from(_ADDRESSED))
        origin, ctx = _neighbour(memoized, device), memoized.device_ctx(device)
        state = data.draw(device_states)
        memoized.device_states[device] = fresh.device_states[device] = state
        # Few distinct frames, so that (state, frame) pairs repeat.
        frames = observed_frames(ctx) | st.sampled_from(list(control_frames(ctx, port)))
        pool = data.draw(st.lists(frames, min_size=1, max_size=4))
        steps = data.draw(
            st.lists(st.tuples(st.sampled_from(pool), st.booleans()), min_size=1, max_size=16)
        )
        for frame, copy in steps:
            if copy:
                # Equal values in other objects: a miss that acts the same.
                frame = dataclasses.replace(frame)
                for sim in (memoized, fresh):
                    sim.device_states[device] = dataclasses.replace(sim.device_states[device])
            before, logged = memoized.device_states[device], len(memoized.trace.changes)
            with mock.patch.object(bus, "_MEMO_LIMIT", limit):
                memoized.deliver(origin, frame)
            with mock.patch.object(bus, "_UNMEMOIZED", _NO_MEMO):
                fresh.deliver(origin, frame)
            assert _effects(memoized) == _effects(fresh)
            if all(change.device != device for change in memoized.trace.changes[logged:]):
                assert memoized.device_states[device] is before
            assert all(len(memo) <= limit for memo in memoized._memos.values())
        assert not any(fresh._memos.values())

    @given(st.data())
    @settings(deadline=None, max_examples=50)
    def test_simulators_of_one_topology_keep_separate_memos(self, data):
        topology = build_testbed()
        first, second = Simulator(topology), Simulator(topology)
        first.start()
        second.start()
        device = data.draw(st.sampled_from(_ADDRESSED))
        ctx = first.device_ctx(device)
        for frame in data.draw(st.lists(observed_frames(ctx), min_size=1, max_size=6)):
            first.deliver(_neighbour(first, device), frame)
        assert first._memos[device] is not second._memos[device]
        assert not any(second._memos.values())

    def test_contexts_cannot_change(self, sim):
        # The memo is not keyed by the context, so a changed one would leave
        # reactions cached under the old one.
        ctx = sim.device_ctx("tv")
        for name, value in (("node", sim.topology.nodes["amp"]), ("logical", 5), ("physical", None)):
            with pytest.raises(FrozenInstanceError):
                setattr(ctx, name, value)
        assert ctx == DeviceCtx(sim.topology.nodes["tv"], 0, PhysicalAddress((0, 0, 0, 0)))

    def test_memo_is_cleared_at_its_limit(self, sim, monkeypatch):
        reacted = []
        real = devices.react

        def counting(ctx, state, frame):
            if ctx.node.id == "tv":
                reacted.append(frame)
            return real(ctx, state, frame)

        monkeypatch.setattr(devices, "react", counting)
        memo = sim._memos["tv"]
        # Distinct unknown broadcasts: each one a miss that keeps the state.
        frames = [
            CecFrame(4, fr.BROADCAST, 0xAB, i.to_bytes(2, "big"))
            for i in range(bus._MEMO_LIMIT + 1)
        ]
        sim.deliver("chromecast", frames[0])
        sim.deliver("chromecast", frames[0])
        assert reacted == [frames[0]]
        for frame in frames[1:]:
            sim.deliver("chromecast", frame)
            assert len(memo) <= bus._MEMO_LIMIT
        assert len(memo) == 1
        assert reacted == frames

    def test_a_memo_entry_holds_its_keys_state_and_frame(self):
        sim = run_scenario(builtin_scenario("attack5-input-churn")).sim
        memos = {node_id: memo for node_id, memo in sim._memos.items() if memo}
        assert memos
        for node_id, memo in memos.items():
            ctx = sim.device_ctx(node_id)
            for key, (reaction, state, frame) in memo.items():
                assert key == (id(state), id(frame))
                assert reaction == react(ctx, state, frame)


# attack5-input-churn stretched to 600 ticks, with the owner's attempts to
# disable CEC spread over the run.
_LONG_CHURN = {
    "name": "long-churn",
    "topology": "testbed",
    "duration": 600,
    "overrides": {"tv": {"initial_power": "standby"}},
    "ids": {"tap": "tv"},
    "actions": [
        {"tick": 2, "actor": "client", "action": "send_frame", "args": {"frame": "dd:dd:dd:dd"}}
    ]
    + [{"tick": t, "actor": "tv", "action": "disable_cec"} for t in range(31, 600, 30)],
}


def _logs(scenario):
    trace = run_scenario(scenario).trace
    return rendered(trace.render_log), rendered(trace.render_state_log)


def _scenario(name):
    return load_scenario(_LONG_CHURN) if name == "long-churn" else builtin_scenario(name)


@pytest.mark.parametrize("name", builtin_scenario_names() + ["long-churn"])
def test_a_whole_run_without_the_memo_logs_the_same(name):
    memoized = _logs(_scenario(name))
    with mock.patch.object(bus, "_UNMEMOIZED", _NO_MEMO):
        assert _logs(_scenario(name)) == memoized
    assert memoized[0]


@pytest.mark.parametrize("name", builtin_scenario_names() + ["long-churn"])
def test_two_runs_of_one_loaded_scenario_write_the_same_logs(name, tmp_path):
    # States are interned for the whole process, so the second run finds
    # the objects the first made; neither they nor the loaded scenario may
    # carry anything of one run into the next.
    scenario = _scenario(name)
    written = []
    for out in ("first", "second"):
        write_artifacts(run_scenario(scenario), str(tmp_path / out))
        written.append([(tmp_path / out / f).read_bytes() for f in ("trace.log", "state.log", "alerts.jsonl")])
    assert written[0] == written[1]
    assert written[0][0]


class _HeapOnly(Simulator):
    """A simulator that queues every call on the (tick, insertion order)
    heap, those for the current tick too: the reference for `_now`."""

    def schedule(self, tick, fn, *args):
        assert tick >= self.clock
        heapq.heappush(self._queue, (tick, self._seq, fn, args))
        self._seq += 1


@pytest.mark.parametrize("name", builtin_scenario_names() + ["long-churn"])
def test_a_whole_run_with_every_call_on_the_heap_logs_the_same(name, monkeypatch):
    split = _logs(_scenario(name))
    monkeypatch.setattr(scenarios, "Simulator", _HeapOnly)
    assert type(run_scenario(_scenario(name)).sim) is _HeapOnly
    assert _logs(_scenario(name)) == split
    assert split[0]


# ---------------------------------------------------------------------------
# Interned states
# ---------------------------------------------------------------------------

class TestInterning:
    @given(
        device_states, st.sampled_from(PowerState), st.booleans(), st.none() | st.integers(1, 5),
        st.permutations(("power", "active_source", "active_input_port")),
    )
    @settings(deadline=None, max_examples=100)
    def test_equal_transition_results_are_one_object(self, state, power, source, port, order):
        copy = dataclasses.replace(state)
        assert copy is not state
        values = {"power": power, "active_source": source, "active_input_port": port}
        made = devices._state(state, **values)
        assert made == dataclasses.replace(state, **values)
        # Equal inputs, with the changes named in any order, give one object.
        assert devices._state(copy, **{name: values[name] for name in order}) is made
        stepped = copy
        for name in order:
            stepped = devices._state(stepped, **{name: values[name]})
        assert stepped is made
        assert devices._state(made) is made
        ctx = DeviceCtx(_TESTBED.nodes["tv"], 0, PhysicalAddress((0, 0, 0, 0)))
        _, disabled = apply_user_action(ctx, state, UserAction.DISABLE_CEC)
        assert disabled.state is apply_user_action(ctx, copy, UserAction.DISABLE_CEC)[1].state
        assert disabled.state is devices._state(disabled.state, power=disabled.state.power)

    def test_an_initial_state_is_the_tables_object_of_its_value(self, sim):
        tv = sim.topology.nodes["tv"]
        initial = DeviceState.initial(tv)
        assert initial is sim.device_states["tv"] and devices._STATES[initial] is initial
        # A node that starts with equal fields starts in this object, and a
        # transition back to its value returns it.
        assert DeviceState.initial(dataclasses.replace(tv, id="twin", osd_name="Twin")) is initial
        other = PowerState.STANDBY if initial.power is PowerState.ON else PowerState.ON
        assert devices._state(devices._state(initial, power=other), power=initial.power) is initial

    def test_the_table_stays_within_its_256_values_after_the_builtins(self):
        for name in builtin_scenario_names():
            run_scenario(builtin_scenario(name))
        table = devices._STATES
        assert 0 < len(table) <= len(PowerState) * 2 * (MAX_PORTS + 1) * 2 * 2 == 256
        for key, state in table.items():
            assert key is state
            assert state.active_input_port is None or 1 <= state.active_input_port <= MAX_PORTS

    def test_a_reaction_that_changes_nothing_is_shared(self, sim):
        # Request Active Source changes no state, and amp holds no claim to
        # answer it with: every call hands out the state's one reaction.
        ctx, state = ctx_and_state(sim, "amp")
        first = react(ctx, state, CecFrame(0, fr.BROADCAST, OP_REQUEST_ACTIVE_SOURCE))
        assert first is react(ctx, state, CecFrame(4, fr.BROADCAST, OP_REQUEST_ACTIVE_SOURCE))
        assert first.state is state
        assert (first.responses, first.control_pressure, first.changed) == ((), False, ())
        # A state made outside the table gets a reaction of its own.
        loose = dataclasses.replace(state)
        reaction = react(ctx, loose, CecFrame(0, fr.BROADCAST, OP_REQUEST_ACTIVE_SOURCE))
        assert reaction.state is loose and reaction is not first

    def test_every_interned_state_has_its_no_change_reaction(self):
        for name in builtin_scenario_names():
            run_scenario(builtin_scenario(name))
        assert len(devices._UNCHANGED) == len(devices._STATES)
        for state in devices._STATES.values():
            reaction = devices._UNCHANGED[id(state)]
            assert reaction.state is state and not reaction.control_pressure
            assert reaction.responses == reaction.changed == ()


# ---------------------------------------------------------------------------
# Identity-hashed enums
# ---------------------------------------------------------------------------

_ENUMS = (DeviceType, PowerState, DeviceKind, UserAction)


@pytest.mark.parametrize("kind", _ENUMS, ids=lambda kind: kind.__name__)
def test_enum_members_hash_by_identity_and_survive_pickle_and_copy(kind):
    for member in kind:
        assert hash(member) == object.__hash__(member)
        assert pickle.loads(pickle.dumps(member)) is member
        assert copy.copy(member) is member and copy.deepcopy(member) is member
        assert kind(member.value) is member


def test_every_enum_keyed_table_finds_each_member():
    for device_type in DeviceType:
        assert fr.logical_candidates(device_type) is fr._TYPE_CANDIDATES[device_type]
        assert device_type in fr.DEVICE_TYPE_OPERAND
        assert topo._TYPE_ALIASES[device_type.value] is device_type
    for kind in DeviceKind:
        assert topo._KIND_ALIASES[kind.value] is kind
    for power in PowerState:
        assert power in fr.POWER_STATUS_OPERAND
        # The initial-state cache and the state table find an equal state.
        initial = devices._initial(power, False, None, True, True)
        assert devices._initial(power, False, None, True, True) is initial
        assert devices._STATES[DeviceState(power)] is initial
    assert len(fr._TYPE_CANDIDATES) == len(fr.DEVICE_TYPE_OPERAND) == len(DeviceType)
    assert len(fr.POWER_STATUS_OPERAND) == len(PowerState)


def test_a_run_writes_the_same_logs_under_any_hash_seed(tmp_path):
    # Members hash by identity, which no hash seed fixes: two fresh
    # interpreters must still write the same bytes.
    src = os.path.dirname(os.path.dirname(devices.__file__))
    written = []
    for seed in ("0", "1"):
        out = tmp_path / seed
        done = subprocess.run(
            [sys.executable, "-m", "cecsim.cli", "run", "--scenario", "attack5-input-churn",
             "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        written.append([(out / f).read_bytes() for f in ("trace.log", "state.log", "alerts.jsonl")])
    assert written[0] == written[1]
    assert all(written[0])
