"""Scenario loading, the canned scenario catalogue, and the runner.

A scenario is a JSON document: a topology (inline, by file, or the built
in lab tree), optional per-node overrides and mitigations, a timed action
list, optional relay plumbing, and a list of post-run checks.  The runner
wires up the attack services, replays the actions, runs the detector over
the finished trace, and can persist every artifact of the run.
"""

import copy
import json
import logging
import os
from dataclasses import dataclass, field
from random import Random

from cecsim import frames as fr
from cecsim import ids as ids_mod
from cecsim import relay as relay_mod
from cecsim.attacks import AttackController, ScanWalk, check_target
from cecsim.bus import Simulator, Trace
from cecsim.devices import UserAction
from cecsim.frames import FrameError, parse_frame
from cecsim.testbed import EXPECTED_TESTBED_SCAN, TESTBED_NAME, TESTBED_TOPOLOGY
from cecsim.topology import MAX_NESTING, Topology, TopologyError, build_topology, nesting
from cecsim.transfer import MAX_PAYLOAD, FileReceiver, PayloadStore, write_transfer_artifacts

log = logging.getLogger(__name__)

_USER_ACTIONS = {action.value: action for action in UserAction}


class ScenarioError(ValueError):
    """Raised when a scenario document fails validation."""


@dataclass
class ScenarioAction:
    tick: int
    actor: str
    action: str
    args: dict = field(default_factory=dict)


@dataclass
class Scenario:
    name: str
    # Built and mitigated once by load_scenario; runs read it, never change it.
    topology: Topology
    duration: int
    seed: int = 0
    ticks_per_second: int = 10
    actions: list[ScenarioAction] = field(default_factory=list)
    relay: dict | None = None
    listener_options: dict = field(default_factory=dict)
    ids_options: dict = field(default_factory=dict)
    checks: list[dict] = field(default_factory=list)


def _resolve_topology(raw, base_dir: str | None) -> dict:
    if isinstance(raw, dict):
        return copy.deepcopy(raw)
    if raw == TESTBED_NAME:
        return copy.deepcopy(TESTBED_TOPOLOGY)
    if isinstance(raw, str):
        path = raw if os.path.isabs(raw) or base_dir is None else os.path.join(base_dir, raw)
        if not os.path.isfile(path):
            raise ScenarioError("topology %r is neither builtin nor a file" % raw)
        return read_json_file(path, "topology")
    raise ScenarioError("scenario topology must be a name, path, or object")


def load_scenario(document: dict, base_dir: str | None = None) -> Scenario:
    """Validate a scenario document; every complaint names the field."""
    if not isinstance(document, dict):
        raise ScenarioError("scenario must be a JSON object")
    name = document.get("name")
    if not isinstance(name, str) or not name:
        raise ScenarioError("scenario needs a non-empty name")
    if "topology" not in document:
        raise ScenarioError("scenario %r is missing its topology" % name)
    duration = document.get("duration")
    if type(duration) is not int or duration < 1:
        raise ScenarioError("scenario %r duration must be a positive tick count" % name)

    config = _resolve_topology(document["topology"], base_dir)
    overrides = document.get("overrides") or {}
    if not isinstance(overrides, dict) or not all(isinstance(p, dict) for p in overrides.values()):
        raise ScenarioError("overrides must map node ids to objects")
    try:
        by_id = {n["id"]: n for n in config["nodes"]} if overrides else {}
    except (KeyError, TypeError):
        raise ScenarioError("overrides need a topology whose nodes all have ids") from None
    for node_id, patch in overrides.items():
        if node_id not in by_id:
            raise ScenarioError("override targets unknown node %r" % node_id)
        by_id[node_id].update(patch)

    try:
        topology = build_topology(config)
    except TopologyError as exc:
        raise ScenarioError("scenario %r topology invalid: %s" % (name, exc)) from None

    for raw in _objects(document.get("mitigations"), "mitigations"):
        try:
            topology = ids_mod.apply_mitigation(topology, ids_mod.parse_mitigation(raw))
        except (TopologyError, KeyError, TypeError) as exc:
            raise ScenarioError("scenario %r mitigation invalid: %s" % (name, exc)) from None

    listeners = topology.listeners()
    actions = []
    for raw in _objects(document.get("actions"), "actions"):
        tick, actor, action = raw.get("tick"), raw.get("actor"), raw.get("action")
        if type(tick) is not int or tick < 0:
            raise ScenarioError("action %r needs a tick >= 0" % raw)
        if type(actor) is not str or actor not in topology.nodes:
            raise ScenarioError("action at tick %d names unknown actor %r" % (tick, actor))
        if type(action) is not str or not (action in _USER_ACTIONS or action in _SERVICE_ACTIONS):
            raise ScenarioError("unknown action %r at tick %d" % (action, tick))
        args = raw.get("args") or {}
        if not isinstance(args, dict):
            raise ScenarioError("%s at tick %d args must be an object" % (action, tick))
        if action == "send_frame":
            try:
                parse_frame(args.get("frame", ""))
            except FrameError as exc:
                raise ScenarioError("send_frame at tick %d: %s" % (tick, exc)) from None
        if action == "select_input" and type(args.get("port")) is not int:
            raise ScenarioError("select_input at tick %d needs an integer port" % tick)
        if action == "request_file":
            peer = args.get("peer")
            if isinstance(peer, str):
                known = peer in topology.nodes
            else:
                known = peer is None or type(peer) is int and 0 <= peer <= fr.BROADCAST
            if not known:
                raise ScenarioError("request_file at tick %d names unknown peer %r" % (tick, peer))
            if actor in listeners or not topology.nodes[actor].cec_addressed:
                raise ScenarioError("request_file at tick %d cannot run on %r" % (tick, actor))
        if action in ("arm_targeted_dos", "start_broadcast_dos", "cancel_attacks"):
            if actor not in listeners:
                raise ScenarioError(
                    "%s at tick %d must run on a listener device, not %r" % (action, tick, actor)
                )
        if action == "arm_targeted_dos" and "target" in args:
            try:
                check_target(args["target"])
            except ValueError as exc:
                raise ScenarioError("arm_targeted_dos at tick %d: %s" % (tick, exc)) from None
        actions.append(ScenarioAction(tick, actor, action, args))
    actions.sort(key=lambda a: a.tick)

    relay_cfg = document.get("relay")
    if relay_cfg is not None:
        if not isinstance(relay_cfg, dict):
            raise ScenarioError("relay section must be an object")
        if relay_cfg.get("enabled") and not listeners:
            raise ScenarioError("relay needs an attacker listener in the topology")
        for cmd in _objects(relay_cfg.get("commands"), "relay commands"):
            tick = cmd.get("tick")
            if type(tick) is not int or tick < 0 or not isinstance(cmd.get("command"), str):
                raise ScenarioError("relay commands need a tick >= 0 and a command string")
        interval = relay_cfg.get("interval_ticks")
        if "interval_ticks" in relay_cfg and (type(interval) is not int or interval < 1):
            raise ScenarioError("relay interval_ticks must be a positive integer")

    seed = document.get("seed", 0)
    if type(seed) is not int:
        raise ScenarioError("scenario %r seed must be an integer" % name)
    tps = document.get("ticks_per_second", 10)
    if type(tps) is not int or tps < 1:
        raise ScenarioError("scenario %r ticks_per_second must be a positive integer" % name)
    listener_options = document.get("listener_options") or {}
    if not isinstance(listener_options, dict):
        raise ScenarioError("listener_options must be an object")
    for key, top in (("mic_bytes", MAX_PAYLOAD), ("capture_bytes", MAX_PAYLOAD),
                     ("targeted_target", fr.BROADCAST), ("display_address", fr.BROADCAST)):
        value = listener_options.get(key, 0)
        if type(value) is not int or not 0 <= value <= top:
            raise ScenarioError("listener_options %s must be an integer 0..%d" % (key, top))

    ids_options = document.get("ids") or {}
    if not isinstance(ids_options, dict):
        raise ScenarioError("ids section must be an object")
    if ids_options.get("config"):
        try:
            ids_mod.RuleConfig.from_dict(ids_options["config"])
        except (ValueError, TypeError) as exc:
            raise ScenarioError("detector config invalid: %s" % exc) from None
    _check_tap(ids_options.get("tap"), topology)

    return Scenario(
        name=name,
        topology=topology,
        duration=duration,
        seed=seed,
        ticks_per_second=tps,
        actions=actions,
        relay=relay_cfg,
        listener_options=listener_options,
        ids_options=ids_options,
        checks=_objects(document.get("checks"), "checks"),
    )


def _check_tap(tap, topology: Topology):
    """A detector tap is absent or names a device of the topology."""
    if tap is not None and (type(tap) is not str or tap not in topology.nodes):
        raise ScenarioError("detector tap %r names no device" % (tap,))


def _objects(value, section: str) -> list:
    """A scenario section that must be a list of JSON objects, or absent."""
    if value is None or isinstance(value, list) and all(isinstance(i, dict) for i in value):
        return list(value or [])
    raise ScenarioError("%s must be a list of objects" % section)


def read_json_file(path: str, what: str):
    """A JSON file's document.  An unreadable file, text that is not JSON
    and nesting too deep to handle all raise ScenarioError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ScenarioError("%s file %s is not readable JSON: %s" % (what, path, exc)) from None
    if nesting(document) > MAX_NESTING:
        raise ScenarioError("%s file %s nests deeper than %d levels" % (what, path, MAX_NESTING))
    return document


def load_scenario_file(path: str) -> Scenario:
    document = read_json_file(path, "scenario")
    return load_scenario(document, base_dir=os.path.dirname(os.path.abspath(path)))


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

    `relay_client` picks the relay transport; without one, an enabled
    relay runs over an in-process loopback."""
    topology = scenario.topology
    # Checked again here: `cecsim run --ids-tap` sets the tap after loading.
    _check_tap(scenario.ids_options.get("tap"), topology)
    sim = Simulator(topology)

    options = scenario.listener_options
    capture_bytes = options.get("capture_bytes")
    controllers: dict[str, AttackController] = {}
    for listener in topology.listeners():
        rng = Random(scenario.seed ^ 0x636170)
        capture = rng.randbytes(capture_bytes) if capture_bytes else None
        store = PayloadStore(scenario.seed, options.get("mic_bytes", 1024), capture)
        controller = controllers[listener] = AttackController(
            listener, store, options.get("targeted_target", 0), options.get("display_address", 0)
        )
        controller.register(sim)
    result = RunResult(scenario, sim, controllers)

    relay_cfg = scenario.relay or {}
    if relay_cfg.get("enabled") or relay_client is not None:
        if not controllers:
            raise ScenarioError("relay needs an attacker listener in the topology")
        client = relay_client if relay_client is not None else relay_mod.LoopbackRelayClient()
        interval = relay_cfg.get("interval_ticks", 2 * scenario.ticks_per_second)
        poller = relay_mod.RelayPoller(client, next(iter(controllers.values())), interval)
        sim.add_actor(poller)
        result.poller = poller
        for cmd in relay_cfg.get("commands") or []:
            envelope = {k: v for k, v in cmd.items() if k != "tick"}
            envelope.setdefault("issued_at", cmd["tick"])
            sim.schedule(cmd["tick"], _post_command, sim, client, envelope, result)

    sim.start()
    for action in scenario.actions:
        user_action = _USER_ACTIONS.get(action.action)
        if user_action is not None:
            sim.schedule(
                action.tick, sim.user_action, action.actor, user_action, action.args.get("port")
            )
        else:
            sim.schedule(action.tick, _SERVICE_ACTIONS[action.action], sim, action, result)
    sim.run(scenario.duration)

    config = ids_mod.RuleConfig.from_dict(scenario.ids_options.get("config") or {})
    tap = scenario.ids_options.get("tap") or topology.root
    result.alerts = ids_mod.detect(sim.trace.events, config, tap)
    return result


def _post_command(sim: Simulator, client, envelope: dict, result: RunResult):
    """The operator drops a command into the relay's listener slot."""
    try:
        client.post(relay_mod.LISTENER_PATH, json.dumps(envelope))
        result.relay_posts.append((sim.clock, envelope.get("command")))
    except relay_mod.RelayUnreachable as exc:
        log.warning("scenario post failed: %s", exc)


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


def _arm_targeted_dos(sim: Simulator, action: ScenarioAction, result: RunResult):
    targeted = result.controllers[action.actor].targeted
    if "target" in action.args:
        targeted.target_address = action.args["target"]
    targeted.arm()


def _start_broadcast_dos(sim: Simulator, action: ScenarioAction, result: RunResult):
    result.controllers[action.actor].broadcast.activate()


def _cancel_attacks(sim: Simulator, action: ScenarioAction, result: RunResult):
    result.controllers[action.actor].cancel_all()


# Each scenario action that drives an attack service, and what it runs at
# its tick.  Device user actions go through _USER_ACTIONS instead.
_SERVICE_ACTIONS = {
    "send_frame": _send_frame,
    "scan": _scan,
    "request_file": _request_file,
    "arm_targeted_dos": _arm_targeted_dos,
    "start_broadcast_dos": _start_broadcast_dos,
    "cancel_attacks": _cancel_attacks,
}


def write_artifacts(result: RunResult, out_dir: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def save(name: str, text: str):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        written.append(name)

    save("trace.log", result.trace.render_log())
    save("state.log", result.trace.render_state_log())
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
# Post-run checks
# ---------------------------------------------------------------------------

def _power_timeline(result: RunResult, device: str) -> list[str]:
    """Per-tick power value for a device across the whole run."""
    node = result.sim.topology.nodes[device]
    timeline = []
    value = node.initial_power.value
    changes = [
        (c.tick, c.value) for c in result.trace.changes
        if c.device == device and c.field == "power"
    ]
    idx = 0
    for tick in range(result.scenario.duration):
        while idx < len(changes) and changes[idx][0] <= tick:
            value = changes[idx][1]
            idx += 1
        timeline.append(value)
    return timeline


def _input_sequence(result: RunResult, device: str) -> list[int]:
    return [
        int(c.value) for c in result.trace.changes
        if c.device == device and c.field == "active_input_port" and c.value != "None"
    ]


def _check_scan_report_equals(result: RunResult, args: dict) -> CheckResult:
    expected = args.get("expected")
    if expected == TESTBED_NAME:
        expected = EXPECTED_TESTBED_SCAN
    if not isinstance(expected, dict):
        raise TypeError("expected must be %r or an object of rows" % TESTBED_NAME)
    if not result.reports:
        return CheckResult("scan_report_equals", False, "no scan report was produced")
    got = result.reports[-1].to_dict()
    if got == expected:
        return CheckResult("scan_report_equals", True, "%d rows match" % len(got))
    missing = {k: v for k, v in expected.items() if got.get(k) != v}
    extra = sorted(set(got) - set(expected))
    return CheckResult(
        "scan_report_equals", False,
        "mismatched rows %s, unexpected rows %s" % (sorted(missing), extra),
    )


def _check_scan_only_actor(result: RunResult, args: dict) -> CheckResult:
    actor = args["actor"]
    if not result.reports:
        return CheckResult("scan_only_actor", False, "no scan report was produced")
    report = result.reports[-1]
    own = result.sim.logical.get(actor)
    addrs = sorted(report.entries)
    if report.actor == actor and addrs == [own]:
        return CheckResult("scan_only_actor", True, "only address %d visible" % own)
    return CheckResult(
        "scan_only_actor", False,
        "report by %s lists addresses %s, expected just %s" % (report.actor, addrs, own),
    )


def _check_zero_alerts(result: RunResult, args: dict) -> CheckResult:
    if not result.alerts:
        return CheckResult("zero_alerts", True, "no alerts raised")
    rules = sorted({a.rule for a in result.alerts})
    return CheckResult("zero_alerts", False, "%d alerts raised: %s" % (len(result.alerts), rules))


def _check_alerts_include(result: RunResult, args: dict) -> CheckResult:
    rule = args["rule"]
    hits = [a for a in result.alerts if a.rule == rule]
    if hits:
        return CheckResult("alerts_include", True, "%d %s alert(s)" % (len(hits), rule))
    return CheckResult("alerts_include", False, "no %s alert raised" % rule)


def _check_alert_exactly(result: RunResult, args: dict) -> CheckResult:
    rule = args["rule"]
    hits = [a for a in result.alerts if a.rule == rule]
    count = int(args.get("count", 1))
    subject = args.get("subject")
    ok = len(hits) == count and (subject is None or all(a.subject == subject for a in hits))
    detail = "%d %s alert(s), subjects %s" % (len(hits), rule, sorted({a.subject for a in hits}))
    return CheckResult("alert_exactly", ok, detail)


def _check_transfer_complete(result: RunResult, args: dict) -> CheckResult:
    if not result.transfers:
        return CheckResult("transfer_complete", False, "no transfer attempted")
    record = result.transfers[-1]
    if record.status != "complete":
        return CheckResult("transfer_complete", False, "transfer status %s" % record.status)
    source = args.get("source")
    if source:
        store = next(iter(result.controllers.values())).store
        expected = {
            "mic": store.mic_blob,
            "capture": store.capture,
            "scan_report": store.scan_report,
        }.get(source)
        if expected is None:
            return CheckResult("transfer_complete", False, "store has no %s payload" % source)
        if record.payload != expected:
            return CheckResult(
                "transfer_complete", False,
                "payload differs from %s source (%d vs %d bytes)"
                % (source, len(record.payload), len(expected)),
            )
    return CheckResult("transfer_complete", True, "%d bytes delivered intact" % len(record.payload))


def _check_min_input_cycles(result: RunResult, args: dict) -> CheckResult:
    sequence = _input_sequence(result, args["device"])
    want = int(args["count"])
    cycles = 0
    i = 0
    while i + 4 <= len(sequence):
        if sequence[i:i + 4] == [1, 2, 3, 4]:
            cycles += 1
            i += 4
        else:
            i += 1
    ok = cycles >= want
    return CheckResult("min_input_cycles", ok, "%d full input cycles (need %d)" % (cycles, want))


def _check_powered_on_by(result: RunResult, args: dict) -> CheckResult:
    device, bound = args["device"], int(args["tick"])
    timeline = _power_timeline(result, device)
    for tick, value in enumerate(timeline[: bound + 1]):
        if value == "on":
            return CheckResult("powered_on_by", True, "%s on at tick %d" % (device, tick))
    return CheckResult("powered_on_by", False, "%s not on by tick %d" % (device, bound))


def _check_max_on_streak(result: RunResult, args: dict) -> CheckResult:
    device, limit = args["device"], int(args["ticks"])
    start = int(args.get("from_tick", 0))
    timeline = _power_timeline(result, device)[start:]
    worst = streak = 0
    for value in timeline:
        streak = streak + 1 if value == "on" else 0
        worst = max(worst, streak)
    ok = worst <= limit
    return CheckResult(
        "max_on_streak", ok,
        "%s longest on-streak %d ticks from tick %d (limit %d)" % (device, worst, start, limit),
    )


def _check_standby_follows_announcement(result: RunResult, args: dict) -> CheckResult:
    device, within = args["device"], int(args.get("within", 1))
    start = int(args.get("from_tick", 0))
    address = result.sim.logical.get(device)
    announced = [
        e.tick for e in result.trace.events
        if e.origin == device and e.frame.opcode in fr.ANNOUNCE_OPCODES and e.tick >= start
    ]
    if not announced:
        return CheckResult("standby_follows_announcement", False, "%s never announced" % device)
    standbys = [
        e.tick for e in result.trace.events
        if e.frame.opcode == fr.OP_STANDBY and e.frame.destination == address and e.origin != device
    ]
    misses = [t for t in announced if not any(t < s <= t + within for s in standbys)]
    ok = not misses
    detail = "%d announcements, all answered within %d tick(s)" % (len(announced), within)
    if misses:
        detail = "announcements at ticks %s drew no standby" % misses[:5]
    return CheckResult("standby_follows_announcement", ok, detail)


def _check_disable_cec_attempts_rejected(result: RunResult, args: dict) -> CheckResult:
    device = args["device"]
    least = int(args.get("min_attempts", 1))
    attempts = [
        r for r in result.sim.artifacts.user_actions
        if r.device == device and r.action == "disable_cec"
    ]
    rejected = [r for r in attempts if not r.ok]
    ok = len(attempts) >= least and len(rejected) == len(attempts)
    return CheckResult(
        "disable_cec_attempts_rejected", ok,
        "%d of %d attempts rejected (need at least %d attempts)"
        % (len(rejected), len(attempts), least),
    )


def _check_device_power_at_end(result: RunResult, args: dict) -> CheckResult:
    device, want = args["device"], args["power"]
    got = result.sim.device_states[device].power.value
    return CheckResult(
        "device_power_at_end", got == want, "%s finished %s (expected %s)" % (device, got, want)
    )


def _check_device_remains_on(result: RunResult, args: dict) -> CheckResult:
    device = args["device"]
    start = int(args.get("from_tick", 0))
    timeline = _power_timeline(result, device)[start:]
    off_at = next((start + i for i, v in enumerate(timeline) if v != "on"), None)
    if off_at is None:
        return CheckResult("device_remains_on", True, "%s on from tick %d onward" % (device, start))
    return CheckResult("device_remains_on", False, "%s left on-state at tick %d" % (device, off_at))


def _check_no_control_frames_reach(result: RunResult, args: dict) -> CheckResult:
    device, origin = args["device"], args["from_origin"]
    hits = [
        e.tick for e in result.trace.events
        if e.origin == origin and e.frame.opcode in fr.CONTROL_OPCODES and device in e.observers
    ]
    if not hits:
        return CheckResult(
            "no_control_frames_reach", True, "no control frame from %s reached %s" % (origin, device)
        )
    return CheckResult(
        "no_control_frames_reach", False,
        "%d control frames from %s reached %s (first at tick %d)"
        % (len(hits), origin, device, hits[0]),
    )


def _check_relay_latency(result: RunResult, args: dict) -> CheckResult:
    if result.poller is None:
        return CheckResult("relay_latency", False, "scenario ran without a relay")
    budget = int(args.get("within", result.poller.interval_ticks + 2))
    post = next((t for t, cmd in result.relay_posts if cmd == "DOS1"), None)
    if post is None:
        return CheckResult("relay_latency", False, "no DOS1 command was posted")
    listeners = set(result.controllers)
    first = next(
        (
            e.tick for e in result.trace.events
            if e.tick > post and e.origin in listeners and e.frame.opcode in fr.CHURN_OPCODES
        ),
        None,
    )
    if first is None:
        return CheckResult("relay_latency", False, "relay command never produced bus traffic")
    ok = first - post <= budget
    return CheckResult(
        "relay_latency", ok,
        "first attack frame %d ticks after the post (budget %d)" % (first - post, budget),
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


# Check fields that name a device; each must name one in the topology.
_DEVICE_FIELDS = ("device", "actor", "from_origin")


def evaluate_checks(result: RunResult, extra: list[dict] | None = None) -> list[CheckResult]:
    """Run the scenario's declared checks plus any ad hoc ones."""
    nodes = result.sim.topology.nodes
    outcomes = []
    for entry in list(result.scenario.checks) + list(extra or []):
        kind = entry.get("type")
        fn = _CHECKS.get(kind) if isinstance(kind, str) else None
        if fn is None:
            outcomes.append(CheckResult(str(kind), False, "unknown check type"))
            continue
        unknown = [
            entry[name] for name in _DEVICE_FIELDS
            if name in entry and not (isinstance(entry[name], str) and entry[name] in nodes)
        ]
        if unknown:
            outcomes.append(CheckResult(kind, False, "check names no device %r" % (unknown[0],)))
            continue
        try:
            outcomes.append(fn(result, entry))
        except KeyError as exc:
            outcomes.append(CheckResult(str(kind), False, "check is missing field %s" % exc))
        except (TypeError, ValueError) as exc:
            outcomes.append(CheckResult(str(kind), False, "check has a bad field: %s" % exc))
    result.checks = outcomes
    return outcomes


# ---------------------------------------------------------------------------
# Builtin catalogue
# ---------------------------------------------------------------------------

_BUILTIN_SCENARIOS: dict[str, dict] = {
    "attack1-device-walk": {
        "name": "attack1-device-walk",
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
        "name": "attack2-mic-exfil",
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
        "name": "attack3-file-theft",
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
        "name": "attack4-targeted-standby",
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
        "name": "attack5-input-churn",
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
        "name": "attack5-remote-churn",
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
        "name": "benign-power-cycle",
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
        "name": "benign-input-select",
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
        "name": "benign-status-query",
        "topology": "testbed",
        "duration": 40,
        "seed": 23,
        "actions": [
            {"tick": 10, "actor": "tv", "action": "send_frame", "args": {"frame": "05:8f"}},
        ],
        "checks": [{"type": "zero_alerts"}],
    },
    "attack4-disable-control-mitigated": {
        "name": "attack4-disable-control-mitigated",
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
        "name": "attack5-strip-mitigated",
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
        "name": "podium-strip-scan",
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
    return load_scenario(copy.deepcopy(_BUILTIN_SCENARIOS[name]))


def resolve_scenario(ref: str) -> Scenario:
    """Accept either a builtin name or a path to a scenario file."""
    if ref in _BUILTIN_SCENARIOS:
        return builtin_scenario(ref)
    if os.path.exists(ref):
        return load_scenario_file(ref)
    raise ScenarioError(
        "%r is neither a builtin scenario nor a file; builtin names: %s"
        % (ref, ", ".join(builtin_scenario_names()))
    )
