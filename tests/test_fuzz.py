"""Untrusted inputs end in the module's own error type, never a traceback.

Each test feeds arbitrary JSON (or text, or bytes) to one entry point that
reads outside input: scenario documents, topology documents, trace lines,
relay HTTP requests and relay command envelopes.
"""

import copy
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cecsim.attacks import AttackController
from cecsim.bus import Simulator, parse_trace_line
from cecsim.relay import LISTENER_PATH, WEBCLIENT_PATH, RelayPoller, RelayState
from cecsim.scenarios import ScenarioError, evaluate_checks, load_scenario, run_scenario
from cecsim.testbed import TESTBED_TOPOLOGY
from cecsim.topology import TopologyError, build_topology
from cecsim.transfer import PayloadStore

from conftest import KNOWN_COMMANDS, build_testbed
from test_bus import TRACE_LINE

FUZZ = settings(
    deadline=None, max_examples=100, suppress_health_check=[HealthCheck.too_slow]
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=12), children, max_size=4),
    max_leaves=10,
)

# A document that loads and runs, using every section and action kind.
SCENARIO = {
    "name": "fuzz-base",
    "topology": copy.deepcopy(TESTBED_TOPOLOGY),
    "duration": 120,
    "seed": 3,
    "overrides": {"tv": {"osd_name": "Lounge"}},
    "mitigations": [{"type": "disable_control", "device": "amp"}],
    "listener_options": {"mic_bytes": 64, "capture_bytes": 100},
    "actions": [
        {"tick": 2, "actor": "listener", "action": "scan"},
        {"tick": 3, "actor": "client", "action": "send_frame", "args": {"frame": "bb:bb:bb:bb"}},
        {"tick": 4, "actor": "client", "action": "send_frame", "args": {"frame": "cc:cc:cc:cc"}},
        {"tick": 10, "actor": "tv", "action": "select_input", "args": {"port": 1}},
        {"tick": 20, "actor": "amp", "action": "power_on"},
        {"tick": 40, "actor": "client", "action": "request_file", "args": {"peer": "listener"}},
        {"tick": 80, "actor": "client", "action": "send_frame", "args": {"frame": "dd:dd:dd:dd"}},
    ],
    "relay": {
        "enabled": True,
        "interval_ticks": 5,
        "commands": [
            {"tick": 5, "command": "TDOS", "target": 4},
            {"tick": 15, "command": "SCAN"},
            {"tick": 50, "command": "GETFILE"},
            {"tick": 60, "command": "DOS1"},
            {"tick": 70, "command": "CANCEL"},
        ],
    },
    "ids": {"tap": "tv", "config": {"scan_window": 40}},
    "checks": [
        {"type": "scan_report_equals", "expected": "testbed"},
        {"type": "scan_only_actor", "actor": "client"},
        {"type": "zero_alerts"},
        {"type": "alerts_include", "rule": "ScanBurst"},
        {"type": "alert_exactly", "rule": "ScanBurst", "count": 1, "subject": "listener"},
        {"type": "transfer_complete", "source": "mic"},
        {"type": "min_input_cycles", "device": "tv", "count": 1},
        {"type": "powered_on_by", "device": "amp", "tick": 30},
        {"type": "max_on_streak", "device": "tv", "ticks": 3, "from_tick": 6},
        {"type": "standby_follows_announcement", "device": "tv", "within": 1},
        {"type": "disable_cec_attempts_rejected", "device": "tv", "min_attempts": 1},
        {"type": "device_power_at_end", "device": "tv", "power": "on"},
        {"type": "device_remains_on", "device": "tv", "from_tick": 0},
        {"type": "no_control_frames_reach", "device": "tv", "from_origin": "listener"},
        {"type": "relay_latency", "within": 10},
    ],
}

# Past this many ticks a run only costs time; every field shape is covered below it.
RUN_TICKS_LIMIT = 2000


def paths(value, prefix=()):
    """Every position in a JSON document, the whole document first."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from paths(item, prefix + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from paths(item, prefix + (index,))


def replaced(document, path, value):
    if not path:
        return value
    document = copy.deepcopy(document)
    holder = document
    for step in path[:-1]:
        holder = holder[step]
    holder[path[-1]] = value
    return document


SCENARIO_PATHS = list(paths(SCENARIO))
TOPOLOGY_PATHS = list(paths(TESTBED_TOPOLOGY))


def test_base_scenario_runs_and_passes_some_checks():
    result = run_scenario(load_scenario(copy.deepcopy(SCENARIO)))
    assert any(outcome.ok for outcome in evaluate_checks(result))
    assert result.transfers and result.reports


@given(st.sampled_from(SCENARIO_PATHS), json_values)
@FUZZ
def test_load_scenario_raises_only_scenario_error(path, value):
    try:
        scenario = load_scenario(replaced(SCENARIO, path, value))
    except ScenarioError:
        return
    if scenario.duration <= RUN_TICKS_LIMIT:
        evaluate_checks(run_scenario(scenario))


@given(st.sampled_from(TOPOLOGY_PATHS), json_values)
@FUZZ
def test_build_topology_raises_only_topology_error(path, value):
    try:
        build_topology(replaced(TESTBED_TOPOLOGY, path, value))
    except TopologyError:
        pass


@given(st.text() | st.from_regex(TRACE_LINE))
@FUZZ
def test_parse_trace_line_raises_only_value_error(line):
    try:
        parse_trace_line(line)
    except ValueError:
        pass


bodies = st.binary() | json_values.map(lambda v: json.dumps(v).encode("utf-8")) | (
    json_values.map(lambda v: json.dumps({"value": v}).encode("utf-8"))
)


@given(
    st.sampled_from(["GET", "POST", "PUT"]) | st.text(max_size=8),
    st.sampled_from([LISTENER_PATH, WEBCLIENT_PATH]) | st.text(max_size=16),
    bodies,
)
@FUZZ
def test_relay_handle_answers_with_a_status(method, path, body):
    status, payload = RelayState().handle(method, path, body)
    assert status in (200, 400, 404, 405)
    assert isinstance(payload, dict)


envelopes = (
    st.text()
    | json_values.map(json.dumps)
    | st.dictionaries(st.text(max_size=8), json_values, max_size=3).flatmap(
        lambda extra: st.sampled_from(KNOWN_COMMANDS).map(
            lambda command: json.dumps(dict(extra, command=command))
        )
    )
)


class _NullClient:
    """A relay that accepts every publish."""

    def get(self, path):
        return None

    def post(self, path, value):
        pass


@given(envelopes)
@FUZZ
def test_relay_dispatch_never_raises(value):
    sim = Simulator(build_testbed())
    controller = AttackController("listener", PayloadStore(seed=0, mic_bytes=16))
    controller.register(sim)
    poller = RelayPoller(_NullClient(), controller, interval_ticks=1)
    sim.start()
    poller._dispatch(sim, value)
    sim.run(until=3)
