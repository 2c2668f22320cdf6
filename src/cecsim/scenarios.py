"""Scenario loading, the canned scenario catalogue, and the runner.

A scenario is a JSON document: a topology (inline, by file, or the built
in lab tree), optional per-node overrides and mitigations, a timed action
list, optional relay plumbing, and post-run checks.  A key the loader does
not know, at the top level or in `relay`, `ids` or `listener_options`, is
refused.  Only `load_scenario` checks a document; the `Scenario` it
returns is read-only, so the runner and the checks trust it.  Marker
frames from another device, or relay commands, arm the listener.  The
runner wires up the attack services, replays the actions, runs the
detector over the finished trace, and can persist its artifacts.
"""

import json
import logging
import os
from dataclasses import dataclass, field
from inspect import signature
from random import Random
from types import MappingProxyType

from cecsim import frames as fr
from cecsim import ids as ids_mod
from cecsim import relay as relay_mod
from cecsim import schema
from cecsim.attacks import AttackController, ScanWalk
from cecsim.bus import Simulator, Trace
from cecsim.devices import UserAction
from cecsim.frames import FrameError, parse_frame
from cecsim.testbed import EXPECTED_TESTBED_SCAN, TESTBED_NAME, TESTBED_TOPOLOGY
from cecsim.schema import FieldError
from cecsim.topology import Topology, TopologyError, build_topology
from cecsim.transfer import MAX_PAYLOAD, FileReceiver, PayloadStore, write_transfer_artifacts

log = logging.getLogger(__name__)

_SCENARIO_KEYS = ("name", "topology", "duration", "seed", "overrides", "mitigations",
                  "actions", "relay", "listener_options", "ids", "checks")
_RELAY_KEYS = ("enabled", "commands", "interval_ticks")


class ScenarioError(FieldError):
    """Raised when a scenario document fails validation."""


@dataclass(frozen=True)
class ScenarioAction:
    tick: int
    actor: str
    action: str
    args: MappingProxyType


@dataclass(frozen=True)
class Scenario:
    name: str
    topology: Topology
    duration: int
    seed: int
    actions: tuple[ScenarioAction, ...]
    relay: MappingProxyType
    listener_options: MappingProxyType
    # "tap" names a device; "config" is a built RuleConfig.
    ids_options: MappingProxyType
    # (type, function, keyword arguments), as _bind_check returned them.
    checks: tuple[tuple, ...]


def _resolve_topology(raw, base_dir: str | None) -> dict:
    if isinstance(raw, dict):
        return raw
    if raw == TESTBED_NAME:
        return TESTBED_TOPOLOGY
    if isinstance(raw, str):
        path = raw if os.path.isabs(raw) or base_dir is None else os.path.join(base_dir, raw)
        if not os.path.isfile(path):
            raise ScenarioError("topology %r is neither builtin nor a file" % raw)
        return schema.read_json_file(path, "topology")
    raise ScenarioError("scenario topology must be a name, path, or object")


@schema.raises(ScenarioError)
def load_scenario(document: dict, base_dir: str | None = None) -> Scenario:
    """Validate a scenario document; every complaint names the field."""
    schema.keyed(document, "scenario", _SCENARIO_KEYS)
    name = schema.text(document.get("name"), "scenario name")
    if "topology" not in document:
        raise ScenarioError("scenario %r is missing its topology" % name)
    duration = schema.integer(document.get("duration"), "scenario %r duration" % name, 1)

    config = _resolve_topology(document["topology"], base_dir)
    overrides = schema.obj(document.get("overrides", {}), "overrides")
    try:
        node_ids = {n["id"] for n in config["nodes"]} if overrides else ()
    except (KeyError, TypeError):
        raise ScenarioError("overrides need a topology whose nodes all have ids") from None
    for node_id, patch in overrides.items():
        if node_id not in node_ids:
            raise ScenarioError("override targets unknown node %r" % node_id)
        schema.obj(patch, "overrides for %r" % node_id)
    if overrides:
        # build_topology only reads; copy just the patched nodes, keeping duplicates.
        nodes = [{**n, **overrides[n["id"]]} if n["id"] in overrides else n
                 for n in config["nodes"]]
        config = {**config, "nodes": nodes}

    try:
        topology = build_topology(config)
    except TopologyError as exc:
        raise ScenarioError("scenario %r topology invalid: %s" % (name, exc)) from None

    for raw in schema.objects(document.get("mitigations", []), "mitigations"):
        try:
            topology = ids_mod.apply_mitigation(topology, raw)
        except FieldError as exc:
            raise ScenarioError("scenario %r mitigation invalid: %s" % (name, exc)) from None

    listeners = topology.listeners()
    actions = []
    for raw in schema.objects(document.get("actions", []), "actions"):
        tick = schema.integer(raw.get("tick"), "action tick")
        actor = schema.text(raw.get("actor"), "actor at tick %d" % tick, topology.nodes)
        action = schema.text(raw.get("action"), "action at tick %d" % tick, _ACTIONS)
        where = "%s at tick %d" % (action, tick)
        args = schema.obj(raw.get("args", {}), where + " args")
        if action == "send_frame":
            try:
                parse_frame(args.get("frame", ""))
            except FrameError as exc:
                raise ScenarioError("%s: %s" % (where, exc)) from None
        if action == "select_input":
            schema.integer(args.get("port"), where + " port", low=None)
        if action == "request_file":
            peer = args.get("peer")
            if isinstance(peer, str):
                schema.text(peer, where + " peer", topology.nodes)
                if not topology.nodes[peer].cec_addressed:
                    raise ScenarioError("%s peer %r has no logical address" % (where, peer))
            elif peer is not None:
                schema.integer(peer, where + " peer", 0, fr.BROADCAST)
            if actor in listeners or not topology.nodes[actor].cec_addressed:
                raise ScenarioError("%s cannot run on %r" % (where, actor))
        actions.append(ScenarioAction(tick, actor, action, MappingProxyType(dict(args))))
    actions.sort(key=lambda a: a.tick)

    relay_cfg = schema.keyed(document.get("relay", {}), "relay", _RELAY_KEYS)
    if schema.flag(relay_cfg.get("enabled", False), "relay enabled") and not listeners:
        raise ScenarioError("relay needs an attacker listener in the topology")
    commands = schema.objects(relay_cfg.get("commands", []), "relay commands")
    for cmd in commands:
        schema.integer(cmd.get("tick"), "relay command tick")
        schema.text(cmd.get("command"), "relay command")
    if "interval_ticks" in relay_cfg:
        schema.integer(relay_cfg["interval_ticks"], "relay interval_ticks", 1)

    seed = schema.integer(document.get("seed", 0), "scenario %r seed" % name, low=None)
    listener_options = schema.keyed(
        document.get("listener_options", {}), "listener_options", ("mic_bytes", "capture_bytes")
    )
    for key, value in listener_options.items():
        schema.integer(value, "listener_options " + key, 0, MAX_PAYLOAD)

    ids_options = dict(schema.keyed(document.get("ids", {}), "ids", ("tap", "config")))
    if "config" in ids_options:
        try:
            ids_options["config"] = ids_mod.RuleConfig.from_dict(ids_options["config"])
        except FieldError as exc:
            raise ScenarioError("detector config invalid: %s" % exc) from None
    tap = ids_options.get("tap")
    if tap is not None and (type(tap) is not str or tap not in topology.nodes):
        raise ScenarioError("detector tap %r names no device" % (tap,))

    checks = []
    for index, entry in enumerate(schema.objects(document.get("checks", []), "checks")):
        try:
            checks.append(_bind_check(entry, topology.nodes))
        except FieldError as exc:
            raise ScenarioError("checks[%d]: %s" % (index, exc)) from None

    # Read-only copies: nothing edits a loaded scenario or, through it, the document.
    return Scenario(
        name=name,
        topology=topology,
        duration=duration,
        seed=seed,
        actions=tuple(actions),
        relay=MappingProxyType({**relay_cfg, "commands": tuple(
            MappingProxyType(dict(cmd)) for cmd in commands)}),
        listener_options=MappingProxyType(dict(listener_options)),
        ids_options=MappingProxyType(ids_options),
        checks=tuple(checks),
    )


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    label: str
    ok: bool
    detail: str


@dataclass
class RunResult:
    scenario: Scenario
    sim: Simulator
    controllers: dict[str, AttackController]
    # A device's receiver, created by its first request_file action.
    receivers: dict[str, FileReceiver] = field(default_factory=dict)
    alerts: list = field(default_factory=list)
    poller: relay_mod.RelayPoller | None = None
    relay_posts: list = field(default_factory=list)
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def trace(self) -> Trace:
        return self.sim.trace

    @property
    def reports(self):
        return self.sim.artifacts.scan_reports

    @property
    def transfers(self):
        return self.sim.artifacts.transfers


def run_scenario(scenario: Scenario, *, relay_client=None) -> RunResult:
    """Build the simulator, wire services, replay actions, detect.

    A `relay_client` carries an enabled relay's traffic; without one, the
    relay runs over an in-process loopback."""
    topology = scenario.topology
    sim = Simulator(topology)

    options = scenario.listener_options
    capture_bytes = options.get("capture_bytes")
    controllers: dict[str, AttackController] = {}
    for listener in topology.listeners():
        rng = Random(scenario.seed ^ 0x636170)
        capture = rng.randbytes(capture_bytes) if capture_bytes else None
        store = PayloadStore(scenario.seed, options.get("mic_bytes", 1024), capture)
        controller = controllers[listener] = AttackController(listener, store)
        controller.register(sim)
    result = RunResult(scenario, sim, controllers)

    relay_cfg = scenario.relay
    if relay_cfg.get("enabled"):
        client = relay_client if relay_client is not None else relay_mod.LoopbackRelayClient()
        interval = relay_cfg.get("interval_ticks", 20)
        poller = relay_mod.RelayPoller(client, next(iter(controllers.values())), interval)
        poller.start(sim)
        result.poller = poller
        for cmd in relay_cfg["commands"]:
            envelope = {k: v for k, v in cmd.items() if k != "tick"}
            envelope.setdefault("issued_at", cmd["tick"])
            sim.schedule(cmd["tick"], _post_command, sim, client, envelope, result)

    sim.start()
    for action in scenario.actions:
        sim.schedule(action.tick, _ACTIONS[action.action], sim, action, result)
    sim.run(scenario.duration)

    tap = scenario.ids_options.get("tap") or topology.root
    result.alerts = ids_mod.detect(sim.trace.events, scenario.ids_options.get("config"), tap)
    return result


def _post_command(sim: Simulator, client, envelope: dict, result: RunResult):
    """The operator drops a command into the relay's listener slot."""
    try:
        client.post(relay_mod.LISTENER_PATH, json.dumps(envelope))
        result.relay_posts.append((sim.clock, envelope.get("command")))
    except relay_mod.RelayUnreachable as exc:
        log.warning("scenario post failed: %s", exc)


def _user_action(sim: Simulator, action: ScenarioAction, result: RunResult):
    sim.user_action(action.actor, UserAction(action.action), action.args.get("port"))


def _send_frame(sim: Simulator, action: ScenarioAction, result: RunResult):
    sim.deliver(action.actor, parse_frame(action.args["frame"]))


def _scan(sim: Simulator, action: ScenarioAction, result: RunResult):
    controller = result.controllers.get(action.actor)
    if controller is not None:
        controller.start_scan(sim)
    else:
        walk = ScanWalk(action.actor)
        sim.add_actor(walk)
        walk.start(sim)


def _request_file(sim: Simulator, action: ScenarioAction, result: RunResult):
    peer = action.args.get("peer")
    if isinstance(peer, str):
        peer = sim.logical.get(peer)
    receiver = result.receivers.get(action.actor)
    if receiver is None:
        receiver = result.receivers[action.actor] = FileReceiver(action.actor)
        sim.add_actor(receiver)
    receiver.request_file(sim, peer)


# Each scenario action and what it runs at its tick.
_ACTIONS = {
    "send_frame": _send_frame,
    "scan": _scan,
    "request_file": _request_file,
    **dict.fromkeys((a.value for a in UserAction), _user_action),
}


def write_artifacts(result: RunResult, out_dir: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def save(name: str, text: str):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        written.append(name)

    for name, render in (("trace.log", result.trace.render_log),
                         ("state.log", result.trace.render_state_log)):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            render(fh)
        written.append(name)
    save("alerts.jsonl", "".join(alert.to_json() + "\n" for alert in result.alerts))
    if result.reports:
        report = result.reports[-1]
        save("scanreport.json", report.to_json() + "\n")
        save("scanreport.txt", report.render_table())
    written.extend(write_transfer_artifacts(result.transfers, out_dir))
    summary = {
        "scenario": result.scenario.name,
        "seed": result.scenario.seed,
        "duration": result.scenario.duration,
        "events": len(result.trace.events),
        "alerts": len(result.alerts),
        "scan_reports": len(result.reports),
        "transfers": [
            {"session": t.session_id, "status": t.status, "bytes": len(t.payload)}
            for t in result.transfers
        ],
        "checks": [
            {"label": c.label, "ok": c.ok, "detail": c.detail} for c in result.checks
        ],
    }
    save("summary.json", json.dumps(summary, indent=2) + "\n")
    return written


# ---------------------------------------------------------------------------
# Post-run checks: each returns whether it passed and a line saying why
# ---------------------------------------------------------------------------

def _power_spans(result: RunResult, device: str, start=0) -> list[tuple]:
    """A device's power from tick `start` to the run's end, as (first, end,
    value) spans read from its logged changes rather than tick by tick."""
    stop = result.scenario.duration
    power = {0: result.sim.topology.nodes[device].initial_power.value}
    # The last change logged at each tick is the power that tick ends with.
    power.update((c.tick, c.value) for c in result.trace.changes
                 if c.device == device and c.field == "power" and c.tick < stop)
    ticks = sorted(power)
    ends = ticks[1:] + [stop]
    return [(max(t, start), end, power[t]) for t, end in zip(ticks, ends) if end > start]


def _check_scan_report_equals(result: RunResult, *, expected) -> tuple[bool, str]:
    if expected == TESTBED_NAME:
        expected = EXPECTED_TESTBED_SCAN
    if not result.reports:
        return False, "no scan report was produced"
    got = result.reports[-1].to_dict()
    if got == expected:
        return True, "%d rows match" % len(got)
    missing = {k: v for k, v in expected.items() if got.get(k) != v}
    extra = sorted(set(got) - set(expected))
    return False, "mismatched rows %s, unexpected rows %s" % (sorted(missing), extra)


def _check_scan_only_actor(result: RunResult, *, actor) -> tuple[bool, str]:
    if not result.reports:
        return False, "no scan report was produced"
    report = result.reports[-1]
    own = result.sim.logical.get(actor)
    addrs = sorted(report.entries)
    if report.actor == actor and addrs == [own]:
        return True, "only address %d visible" % own
    return False, "report by %s lists addresses %s, expected just %s" % (report.actor, addrs, own)


def _check_zero_alerts(result: RunResult) -> tuple[bool, str]:
    if not result.alerts:
        return True, "no alerts raised"
    rules = sorted({a.rule for a in result.alerts})
    return False, "%d alerts raised: %s" % (len(result.alerts), rules)


def _check_alerts_include(result: RunResult, *, rule) -> tuple[bool, str]:
    hits = [a for a in result.alerts if a.rule == rule]
    if hits:
        return True, "%d %s alert(s)" % (len(hits), rule)
    return False, "no %s alert raised" % rule


def _check_alert_exactly(result: RunResult, *, rule, count=1, subject=None) -> tuple[bool, str]:
    hits = [a for a in result.alerts if a.rule == rule]
    ok = len(hits) == count and (subject is None or all(a.subject == subject for a in hits))
    return ok, "%d %s alert(s), subjects %s" % (len(hits), rule, sorted({a.subject for a in hits}))


def _check_transfer_complete(result: RunResult, *, source=None) -> tuple[bool, str]:
    if not result.transfers:
        return False, "no transfer attempted"
    record = result.transfers[-1]
    if record.status != "complete":
        return False, "transfer status %s" % record.status
    if source is not None:
        if not result.controllers:
            return False, "no listener holds a %s payload" % source
        store = next(iter(result.controllers.values())).store
        sources = {"mic": store.mic_blob, "capture": store.capture, "scan_report": store.scan_report}
        expected = sources[source]
        if expected is None:
            return False, "store has no %s payload" % source
        if record.payload != expected:
            return False, "payload differs from %s source (%d vs %d bytes)" % (
                source, len(record.payload), len(expected)
            )
    return True, "%d bytes delivered intact" % len(record.payload)


# Each logged port text that matters to an input cycle, as one character,
# so that `str.count`, which counts non-overlapping matches from the left,
# counts the greedy 1, 2, 3, 4 runs.  "None" (no input) is skipped, and any
# other port (`devices` logs `str(port)`) only breaks a run.
_CYCLE_PORTS = {"None": "", "1": "1", "2": "2", "3": "3", "4": "4"}


def _check_min_input_cycles(result: RunResult, *, device, count) -> tuple[bool, str]:
    ports = "".join([
        _CYCLE_PORTS.get(c.value, "-") for c in result.trace.changes
        if c.device == device and c.field == "active_input_port"
    ])
    cycles = ports.count("1234")
    return cycles >= count, "%d full input cycles (need %d)" % (cycles, count)


def _check_powered_on_by(result: RunResult, *, device, tick) -> tuple[bool, str]:
    on_at = next((at for at, _, value in _power_spans(result, device) if value == "on"), None)
    if on_at is not None and on_at <= tick:
        return True, "%s on at tick %d" % (device, on_at)
    return False, "%s not on by tick %d" % (device, tick)


def _check_max_on_streak(result: RunResult, *, device, ticks, from_tick=0) -> tuple[bool, str]:
    worst = streak = 0
    for first, end, value in _power_spans(result, device, from_tick):
        streak = streak + end - first if value == "on" else 0
        worst = max(worst, streak)
    return worst <= ticks, "%s longest on-streak %d ticks from tick %d (limit %d)" % (
        device, worst, from_tick, ticks
    )


def _check_standby_follows_announcement(
    result: RunResult, *, device, within=1, from_tick=0
) -> tuple[bool, str]:
    address = result.sim.logical.get(device)
    announced = [
        e.tick for e in result.trace.events
        if e.origin == device and e.frame.opcode in fr.ANNOUNCE_OPCODES and e.tick >= from_tick
    ]
    if not announced:
        return False, "%s never announced" % device
    standbys = [
        e.tick for e in result.trace.events
        if e.frame.opcode == fr.OP_STANDBY and e.frame.destination == address and e.origin != device
    ]
    misses = [t for t in announced if not any(t < s <= t + within for s in standbys)]
    if misses:
        return False, "announcements at ticks %s drew no standby" % misses[:5]
    return True, "%d announcements, all answered within %d tick(s)" % (len(announced), within)


def _check_disable_cec_attempts_rejected(
    result: RunResult, *, device, min_attempts=1
) -> tuple[bool, str]:
    attempts = [
        r for r in result.sim.artifacts.user_actions
        if r.device == device and r.action == "disable_cec"
    ]
    rejected = [r for r in attempts if not r.ok]
    ok = len(attempts) >= min_attempts and len(rejected) == len(attempts)
    return ok, "%d of %d attempts rejected (need at least %d attempts)" % (
        len(rejected), len(attempts), min_attempts
    )


def _check_device_power_at_end(result: RunResult, *, device, power) -> tuple[bool, str]:
    got = result.sim.device_states[device].power.value
    return got == power, "%s finished %s (expected %s)" % (device, got, power)


def _check_device_remains_on(result: RunResult, *, device, from_tick=0) -> tuple[bool, str]:
    off_at = next((t for t, _, v in _power_spans(result, device, from_tick) if v != "on"), None)
    if off_at is None:
        return True, "%s on from tick %d onward" % (device, from_tick)
    return False, "%s left on-state at tick %d" % (device, off_at)


def _check_no_control_frames_reach(
    result: RunResult, *, device, from_origin
) -> tuple[bool, str]:
    hits = [
        e.tick for e in result.trace.events
        if e.origin == from_origin and e.frame.opcode in fr.CONTROL_OPCODES
        and device in e.observers
    ]
    if not hits:
        return True, "no control frame from %s reached %s" % (from_origin, device)
    return False, "%d control frames from %s reached %s (first at tick %d)" % (
        len(hits), from_origin, device, hits[0]
    )


def _check_relay_latency(result: RunResult, *, within=None) -> tuple[bool, str]:
    if result.poller is None:
        return False, "scenario ran without a relay"
    budget = result.poller.interval_ticks + 2 if within is None else within
    post = next((t for t, cmd in result.relay_posts if cmd == "DOS1"), None)
    if post is None:
        return False, "no DOS1 command was posted"
    listeners = set(result.controllers)
    first = next(
        (
            e.tick for e in result.trace.events
            if e.tick > post and e.origin in listeners and e.frame.opcode in fr.CHURN_OPCODES
        ),
        None,
    )
    if first is None:
        return False, "relay command never produced bus traffic"
    delay = first - post
    return delay <= budget, "first attack frame %d ticks after the post (budget %d)" % (
        delay, budget
    )


_CHECKS = {
    "scan_report_equals": _check_scan_report_equals,
    "scan_only_actor": _check_scan_only_actor,
    "zero_alerts": _check_zero_alerts,
    "alerts_include": _check_alerts_include,
    "alert_exactly": _check_alert_exactly,
    "transfer_complete": _check_transfer_complete,
    "min_input_cycles": _check_min_input_cycles,
    "powered_on_by": _check_powered_on_by,
    "max_on_streak": _check_max_on_streak,
    "standby_follows_announcement": _check_standby_follows_announcement,
    "disable_cec_attempts_rejected": _check_disable_cec_attempts_rejected,
    "device_power_at_end": _check_device_power_at_end,
    "device_remains_on": _check_device_remains_on,
    "no_control_frames_reach": _check_no_control_frames_reach,
    "relay_latency": _check_relay_latency,
}

# The shape of each check field.  A check function's keyword parameters are
# its fields, and one without a default is required.
_DEVICE = "device"
_CHECK_FIELDS = {
    **dict.fromkeys(("device", "actor", "from_origin", "subject"), _DEVICE),
    **dict.fromkeys(("count", "tick", "ticks", "from_tick", "within", "min_attempts"),
                    schema.integer),
    "rule": ids_mod.RULES,
    "power": ("on", "standby"),
    "source": ("mic", "capture", "scan_report"),
    "expected": lambda value, name: value == TESTBED_NAME or schema.obj(value, name),
}

# Each check function's fields, after the run result: (name, required).
_CHECK_PARAMS = {
    fn: [(p.name, p.default is p.empty) for p in list(signature(fn).parameters.values())[1:]]
    for fn in _CHECKS.values()
}


def _bind_check(entry: dict, nodes) -> tuple:
    """The type a check names, its function and its keyword arguments, read
    from the entry by the function's signature; other keys are ignored.  A
    field missing or of the wrong shape raises FieldError."""
    kind = schema.text(entry.get("type"), "check type", _CHECKS)
    fn = _CHECKS[kind]
    kwargs = {}
    for name, required in _CHECK_PARAMS[fn]:
        if name not in entry:
            if required:
                raise FieldError("check is missing field %r" % name)
            continue
        value = kwargs[name] = entry[name]
        shape = _CHECK_FIELDS[name]
        if shape is _DEVICE:
            if type(value) is not str or value not in nodes:
                raise FieldError("check names no device %r" % (value,))
            continue
        try:
            shape(value, name) if callable(shape) else schema.text(value, name, shape)
        except FieldError as exc:
            raise FieldError("check has a bad field: %s" % exc) from None
    return kind, fn, MappingProxyType(kwargs)


def evaluate_checks(result: RunResult) -> list[CheckResult]:
    """Run the scenario's checks, bound when it was loaded."""
    result.checks = [CheckResult(kind, *fn(result, **kwargs))
                     for kind, fn, kwargs in result.scenario.checks]
    return result.checks


# ---------------------------------------------------------------------------
# Builtin catalogue
# ---------------------------------------------------------------------------

_BUILTIN_SCENARIOS: dict[str, dict] = {
    "attack1-device-walk": {
        "topology": "testbed",
        "duration": 170,
        "seed": 11,
        "actions": [
            {"tick": 2, "actor": "listener", "action": "scan"},
            {"tick": 60, "actor": "client", "action": "request_file", "args": {"peer": "listener"}},
        ],
        "checks": [
            {"type": "scan_report_equals", "expected": "testbed"},
            {"type": "alert_exactly", "rule": "ScanBurst", "count": 1, "subject": "listener"},
            {"type": "transfer_complete", "source": "scan_report"},
        ],
    },
    "attack2-mic-exfil": {
        "topology": "testbed",
        "duration": 140,
        "seed": 2,
        "listener_options": {"mic_bytes": 1024},
        "actions": [
            {"tick": 2, "actor": "client", "action": "send_frame", "args": {"frame": "bb:bb:bb:bb"}},
            {"tick": 6, "actor": "client", "action": "request_file", "args": {"peer": "listener"}},
        ],
        "checks": [
            {"type": "transfer_complete", "source": "mic"},
            {"type": "alerts_include", "rule": "CovertMarker"},
            {"type": "alerts_include", "rule": "CovertStream"},
        ],
    },
    "attack3-file-theft": {
        "topology": "testbed",
        "duration": 200,
        "seed": 3,
        "listener_options": {"capture_bytes": 2048},
        "actions": [
            {"tick": 2, "actor": "client", "action": "request_file", "args": {"peer": "listener"}},
        ],
        "checks": [
            {"type": "transfer_complete", "source": "capture"},
            {"type": "alerts_include", "rule": "CovertMarker"},
            {"type": "alerts_include", "rule": "CovertStream"},
        ],
    },
    "attack4-targeted-standby": {
        "topology": "testbed",
        "duration": 70,
        "seed": 4,
        "actions": [
            {"tick": 2, "actor": "client", "action": "send_frame", "args": {"frame": "cc:cc:cc:cc"}},
            {"tick": 5, "actor": "tv", "action": "power_off"},
            {"tick": 10, "actor": "tv", "action": "power_on"},
            {"tick": 25, "actor": "tv", "action": "power_on"},
            {"tick": 40, "actor": "tv", "action": "power_on"},
        ],
        "checks": [
            {"type": "standby_follows_announcement", "device": "tv", "within": 1, "from_tick": 6},
            {"type": "max_on_streak", "device": "tv", "ticks": 3, "from_tick": 6},
            {"type": "alerts_include", "rule": "TargetedStandby"},
        ],
    },
    "attack5-input-churn": {
        "topology": "testbed",
        "duration": 1000,
        "seed": 5,
        "overrides": {"tv": {"initial_power": "standby"}},
        "actions": [
            {"tick": 2, "actor": "client", "action": "send_frame", "args": {"frame": "dd:dd:dd:dd"}},
        ]
        + [
            {"tick": 30 + 50 * k, "actor": "tv", "action": "disable_cec"} for k in range(19)
        ],
        "checks": [
            {"type": "powered_on_by", "device": "tv", "tick": 10},
            {"type": "min_input_cycles", "device": "tv", "count": 190},
            {"type": "disable_cec_attempts_rejected", "device": "tv", "min_attempts": 15},
            {"type": "alerts_include", "rule": "InputChurnDoS"},
        ],
    },
    "attack5-remote-churn": {
        "topology": "testbed",
        "duration": 200,
        "seed": 6,
        "overrides": {"tv": {"initial_power": "standby"}},
        "relay": {"enabled": True, "commands": [{"tick": 5, "command": "DOS1"}]},
        "checks": [
            {"type": "relay_latency"},
            {"type": "min_input_cycles", "device": "tv", "count": 25},
            {"type": "alerts_include", "rule": "InputChurnDoS"},
        ],
    },
    "benign-power-cycle": {
        "topology": "testbed",
        "duration": 100,
        "seed": 21,
        "actions": [
            {"tick": 10, "actor": "tv", "action": "power_off"},
            {"tick": 30, "actor": "tv", "action": "power_on"},
            {"tick": 50, "actor": "amp", "action": "power_on"},
        ],
        "checks": [
            {"type": "zero_alerts"},
            {"type": "device_power_at_end", "device": "tv", "power": "on"},
            {"type": "device_power_at_end", "device": "amp", "power": "on"},
        ],
    },
    "benign-input-select": {
        "topology": "testbed",
        "duration": 80,
        "seed": 22,
        "actions": [
            {"tick": 10, "actor": "tv", "action": "select_input", "args": {"port": 1}},
            {"tick": 40, "actor": "tv", "action": "select_input", "args": {"port": 3}},
        ],
        "checks": [{"type": "zero_alerts"}],
    },
    "benign-status-query": {
        "topology": "testbed",
        "duration": 40,
        "seed": 23,
        "actions": [
            {"tick": 10, "actor": "tv", "action": "send_frame", "args": {"frame": "05:8f"}},
        ],
        "checks": [{"type": "zero_alerts"}],
    },
    "attack4-disable-control-mitigated": {
        "topology": "testbed",
        "duration": 140,
        "seed": 34,
        "mitigations": [{"type": "disable_control", "device": "tv"}],
        "actions": [
            {"tick": 2, "actor": "client", "action": "send_frame", "args": {"frame": "cc:cc:cc:cc"}},
            {"tick": 5, "actor": "tv", "action": "power_off"},
            {"tick": 10, "actor": "tv", "action": "power_on"},
            {"tick": 30, "actor": "listener", "action": "scan"},
        ],
        "checks": [
            {"type": "device_remains_on", "device": "tv", "from_tick": 11},
            {"type": "scan_report_equals", "expected": "testbed"},
        ],
    },
    "attack5-strip-mitigated": {
        "topology": "testbed",
        "duration": 120,
        "seed": 35,
        "overrides": {"tv": {"initial_power": "standby"}},
        "mitigations": [{"type": "strip_edge", "parent": "tv", "child": "switch"}],
        "actions": [
            {"tick": 2, "actor": "client", "action": "send_frame", "args": {"frame": "dd:dd:dd:dd"}},
        ],
        "checks": [
            {"type": "no_control_frames_reach", "device": "tv", "from_origin": "listener"},
            {"type": "device_power_at_end", "device": "tv", "power": "standby"},
        ],
    },
    "podium-strip-scan": {
        "topology": "testbed",
        "duration": 60,
        "seed": 36,
        "mitigations": [{"type": "strip_edge", "parent": "switch", "child": "client"}],
        "actions": [
            {"tick": 2, "actor": "client", "action": "scan"},
        ],
        "checks": [{"type": "scan_only_actor", "actor": "client"}],
    },
}


def builtin_scenario_names() -> list[str]:
    return sorted(_BUILTIN_SCENARIOS)


def builtin_scenario(name: str) -> Scenario:
    if name not in _BUILTIN_SCENARIOS:
        raise ScenarioError(
            "unknown scenario %r; builtin names: %s" % (name, ", ".join(builtin_scenario_names()))
        )
    return load_scenario({"name": name, **_BUILTIN_SCENARIOS[name]})


@schema.raises(ScenarioError)
def scenario_document(ref: str) -> tuple[dict, str | None]:
    """The document of a builtin name or of a scenario file, and the
    directory its relative paths start from."""
    if ref in _BUILTIN_SCENARIOS:
        return {"name": ref, **_BUILTIN_SCENARIOS[ref]}, None
    if os.path.exists(ref):
        document = schema.obj(schema.read_json_file(ref, "scenario"), "scenario")
        return document, os.path.dirname(os.path.abspath(ref))
    raise ScenarioError(
        "%r is neither a builtin scenario nor a file; builtin names: %s"
        % (ref, ", ".join(builtin_scenario_names()))
    )
