"""Metamorphic relations between whole runs on generated inputs.

Renaming: giving every device a new id, by a random bijection, renames
the devices in `trace.log`, `state.log` and the alerts and changes nothing
else, and every check reaches the same verdict.  The bijection reorders
the ids, so a run that sorted devices by id would break it.

Shifting: moving every action, every relay command and the duration k
ticks later keeps the claims made at tick 0 and moves every later line of
`trace.log` and `state.log` k ticks later, with as many alerts.  The relay
poller polls from tick 0 every `interval_ticks`, so with a relay k is a
multiple of that interval.  An actor that kept time by the absolute tick
would break it.

Isolation: hanging two devices that do nothing from a free port, over a
cable that does not carry CEC, adds their two claims to `trace.log` and
changes nothing else: every other line, `state.log`, the alerts and every
verdict stay.  A bus that let a frame cross that cable would break it."""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from cecsim.bus import parse_trace_line
from cecsim.ids import RULES
from cecsim.scenarios import evaluate_checks, load_scenario, run_scenario
from cecsim.topology import TopologyError, build_topology

from conftest import rendered
from test_bus import tree_documents

DURATION = 160

_FRAMES = (
    "aa:aa:aa:aa", "bb:bb:bb:bb", "cc:cc:cc:cc", "dd:dd:dd:dd", "ee:ee:ee:ee",
    "0f:36", "10:36", "1f:82:10:00", "4f:84:10:00:04", "10:8f", "1f:85", "40:04",
)
_RELAY_COMMANDS = ("DOS1", "TDOS", "SCAN", "CANCEL", "GETFILE")

# Check fields that name a device.
_DEVICE_FIELDS = ("device", "actor", "from_origin", "subject")

_ticks = st.integers(0, DURATION - 1)


@st.composite
def _actions(draw, topology):
    ids = list(topology.nodes)
    addressed = [n for n in ids if topology.nodes[n].cec_addressed]
    requesters = [n for n in addressed if n not in topology.listeners()]
    kinds = ["power_on", "power_off", "disable_cec", "select_input", "send_frame", "scan"]
    kind = draw(st.sampled_from(kinds + (["request_file"] if requesters else [])))
    action = {"tick": draw(_ticks), "actor": draw(st.sampled_from(ids)), "action": kind}
    if kind == "select_input":
        action["args"] = {"port": draw(st.integers(1, 4))}
    elif kind == "send_frame":
        action["args"] = {"frame": draw(st.sampled_from(_FRAMES))}
    elif kind == "request_file":
        action["actor"] = draw(st.sampled_from(requesters))
        peer = draw(st.none() | st.sampled_from(addressed) | st.integers(0, 15))
        action["args"] = {"peer": peer}
    return action


def _check(kind, **fields):
    return st.fixed_dictionaries({"type": st.just(kind), **fields})


def _checks(ids):
    device, rule = st.sampled_from(ids), st.sampled_from(RULES)
    return st.one_of(
        _check("zero_alerts"),
        _check("alerts_include", rule=rule),
        _check("alert_exactly", rule=rule, count=st.integers(0, 2), subject=device),
        _check("transfer_complete"),
        _check("scan_only_actor", actor=device),
        _check("min_input_cycles", device=device, count=st.just(1)),
        _check("powered_on_by", device=device, tick=_ticks),
        _check("max_on_streak", device=device, ticks=_ticks),
        _check("standby_follows_announcement", device=device),
        _check("disable_cec_attempts_rejected", device=device),
        _check("device_power_at_end", device=device, power=st.sampled_from(["on", "standby"])),
        _check("device_remains_on", device=device),
        _check("no_control_frames_reach", device=device, from_origin=device),
    )


@st.composite
def scenario_documents(draw):
    """A scenario on a random tree with a random action schedule, relay
    commands when a listener can take them, a detector tap, and checks."""
    topology_document = draw(tree_documents())
    topology = build_topology(topology_document)
    ids = list(topology.nodes)
    document = {
        "name": "generated",
        "topology": topology_document,
        "duration": DURATION,
        "seed": draw(st.integers(0, 3)),
        "actions": draw(st.lists(_actions(topology), max_size=8)),
        "ids": {"tap": draw(st.sampled_from(ids))},
        "checks": draw(st.lists(_checks(ids), max_size=6)),
    }
    if topology.listeners() and draw(st.booleans()):
        commands = st.fixed_dictionaries(
            {"tick": _ticks, "command": st.sampled_from(_RELAY_COMMANDS)}
        )
        document["relay"] = {
            "enabled": True,
            "interval_ticks": draw(st.integers(1, 20)),
            "commands": draw(st.lists(commands, max_size=4)),
        }
    return document


def renamed(document, names):
    """The document with each device id replaced by its entry in `names`."""
    topology = document["topology"]
    actions = []
    for action in document["actions"]:
        action = {**action, "actor": names[action["actor"]]}
        peer = action.get("args", {}).get("peer")
        if isinstance(peer, str):
            action["args"] = {"peer": names[peer]}
        actions.append(action)
    return {
        **document,
        "topology": {
            "nodes": [{**node, "id": names[node["id"]]} for node in topology["nodes"]],
            "edges": [
                {**edge, "parent": names[edge["parent"]], "child": names[edge["child"]]}
                for edge in topology["edges"]
            ],
        },
        "actions": actions,
        "ids": {"tap": names[document["ids"]["tap"]]},
        "checks": [
            {key: names[value] if key in _DEVICE_FIELDS else value for key, value in check.items()}
            for check in document["checks"]
        ],
    }


def _outputs(document):
    result = run_scenario(load_scenario(document))
    texts = (
        rendered(result.trace.render_log),
        rendered(result.trace.render_state_log),
        "".join(alert.to_json() + "\n" for alert in result.alerts),
    )
    return texts, [check.ok for check in evaluate_checks(result)]


# A generated device id in a log line or an alert.
_DEVICE_ID = re.compile(r"\bn\d+\b")


@given(scenario_documents(), st.data())
@settings(deadline=None, max_examples=100)
def test_renaming_devices_renames_the_logs_and_keeps_every_verdict(document, data):
    ids = [node["id"] for node in document["topology"]["nodes"]]
    order = data.draw(st.permutations(range(len(ids))))
    names = {old: "m%d" % new for old, new in zip(ids, order)}
    texts, verdicts = _outputs(document)
    renamed_texts, renamed_verdicts = _outputs(renamed(document, names))
    mapped = tuple(_DEVICE_ID.sub(lambda m: names[m.group()], text) for text in texts)
    assert mapped == renamed_texts
    assert verdicts == renamed_verdicts


def shifted(document, k):
    """The document with every action, relay command and the duration k ticks later."""
    moved = {
        **document,
        "duration": document["duration"] + k,
        "actions": [{**action, "tick": action["tick"] + k} for action in document["actions"]],
    }
    if "relay" in document:
        relay = document["relay"]
        commands = [{**command, "tick": command["tick"] + k} for command in relay["commands"]]
        moved["relay"] = {**relay, "commands": commands}
    return moved


_LINE_TICK = re.compile(r"^t=(\d+) ", re.MULTILINE)


@given(scenario_documents(), st.data())
@settings(deadline=None, max_examples=100)
def test_shifting_every_action_keeps_the_claims_and_moves_every_later_line(document, data):
    relay = document.get("relay")
    if relay is None:
        k = data.draw(st.integers(1, 60), label="k")
    else:
        k = relay["interval_ticks"] * data.draw(st.integers(1, 3), label="intervals")
    texts, _ = _outputs(document)
    moved_texts, _ = _outputs(shifted(document, k))
    for text, moved_text in zip(texts[:2], moved_texts[:2]):
        lines, moved_lines = text.splitlines(True), moved_text.splitlines(True)
        claims = [line for line in moved_lines if line.startswith("t=0 ")]
        assert lines[:len(claims)] == claims
        later = _LINE_TICK.sub(lambda m: "t=%d " % (int(m[1]) + k), "".join(lines[len(claims):]))
        assert later == "".join(moved_lines[len(claims):])
    assert texts[2].count("\n") == moved_texts[2].count("\n")


# The idle subtree: a playback device, and a recorder on its port 1.
_SUBTREE = ("x0", "x1")


def isolated(document, parent, port):
    """The document with the idle subtree hung from `parent`'s `port` over a
    cable that does not carry CEC."""
    topology = document["topology"]
    nodes = [
        {"id": "x0", "kind": "source", "device_type": "playback"},
        {"id": "x1", "kind": "source", "device_type": "recording"},
    ]
    edges = [
        {"parent": parent, "child": "x0", "port": port, "cec_propagates": False},
        {"parent": "x0", "child": "x1", "port": 1},
    ]
    return {
        **document,
        "topology": {"nodes": topology["nodes"] + nodes, "edges": topology["edges"] + edges},
    }


def _free_ports(document):
    """Each node's free ports, for the nodes the subtree fits below."""
    used: dict[str, set[int]] = {}
    for edge in document["topology"]["edges"]:
        used.setdefault(edge["parent"], set()).add(edge["port"])
    free = {}
    for node in document["topology"]["nodes"]:
        ports = sorted(set(range(1, 16)) - used.get(node["id"], set()))
        try:  # too deep for two more address nibbles?
            build_topology(isolated(document, node["id"], ports[0])["topology"])
        except TopologyError:
            continue
        free[node["id"]] = ports
    return free


@given(scenario_documents(), st.data())
@settings(deadline=None, max_examples=100)
def test_an_idle_subtree_behind_a_cable_without_cec_adds_only_its_claims(document, data):
    free = _free_ports(document)
    parent = data.draw(st.sampled_from(sorted(free)), label="parent")
    port = data.draw(st.sampled_from(free[parent]), label="port")
    texts, verdicts = _outputs(document)
    (trace, *others), isolated_verdicts = _outputs(isolated(document, parent, port))
    own, rest = [], []
    for line in trace.splitlines(True):
        (own if parse_trace_line(line).origin in _SUBTREE else rest).append(line)
    assert "".join(rest) == texts[0]
    claims = [parse_trace_line(line) for line in own]
    assert [e.origin for e in claims] == list(_SUBTREE)
    for event in claims:
        assert event.tick == 0 and event.frame.is_polling and not event.acknowledged
        assert event.observers == _SUBTREE
    assert tuple(others) == texts[1:]
    assert isolated_verdicts == verdicts
