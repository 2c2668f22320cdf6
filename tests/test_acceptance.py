"""Acceptance gate: one test per product-level requirement.

Each test prints a single PASS or FAIL line so a log scrape shows the
scorecard at a glance, then asserts, so pytest agrees with the line.
"""

import json
import time
from random import Random

from cecsim import scenarios as scen
from cecsim.attacks import AttackController, ScanWalk, TargetedDos
from cecsim.bus import Simulator
from cecsim.devices import UserAction
from cecsim.frames import CecFrame, encode_frame, parse_frame
from cecsim.relay import LISTENER_PATH, WEBCLIENT_PATH, LoopbackRelayClient, RelayPoller
from cecsim.relay_http import HttpRelayClient, RelayServer
from cecsim.testbed import EXPECTED_TESTBED_SCAN, build_testbed
from cecsim.transfer import FileReceiver, FileSender, PayloadStore, segment_count
from cecsim.ids import apply_mitigation, detect

from conftest import serving
from test_transfer import wired_sim as transfer_sim


def _report(name: str, ok: bool, detail: str = ""):
    line = "[%s] %s" % ("PASS" if ok else "FAIL", name)
    if detail:
        line += " :: " + detail
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. Device census
# ---------------------------------------------------------------------------

def test_acceptance_census_matches_reference_table():
    started = time.monotonic()
    sim = Simulator(build_testbed())
    sim.start()
    walk = ScanWalk("listener")
    sim.add_actor(walk)
    walk.start(sim)
    sim.run(until=130)
    got = sim.artifacts.scan_reports[-1].to_dict()
    with open("tests/data/scanreport_testbed.json", "r", encoding="utf-8") as fh:
        reference = json.load(fh)
    elapsed = time.monotonic() - started
    ok = got == reference == EXPECTED_TESTBED_SCAN and elapsed < 1.0
    _report(
        "census walk reproduces the reference five-device table",
        ok,
        "%d rows in %.2fs" % (len(got), elapsed),
    )


# ---------------------------------------------------------------------------
# 2. Frame codec round trip
# ---------------------------------------------------------------------------

def test_acceptance_codec_roundtrip_100k():
    rng = Random(0)
    started = time.monotonic()
    count = 100_000
    for _ in range(count):
        initiator, destination = rng.randrange(16), rng.randrange(16)
        if rng.random() < 0.1:
            frame = CecFrame(initiator, destination)
        else:
            frame = CecFrame(
                initiator,
                destination,
                rng.randrange(256),
                tuple(rng.randrange(256) for _ in range(rng.randrange(15))),
            )
        text = encode_frame(frame)
        back = parse_frame(text)
        if back != frame or encode_frame(back) != text:
            _report("frame codec round trip", False, "mismatch on %r" % text)
    elapsed = time.monotonic() - started
    _report(
        "frame codec survives 100,000 random round trips in both directions",
        elapsed < 5.0,
        "%.2fs for %d frames" % (elapsed, count),
    )


# ---------------------------------------------------------------------------
# 3. Covert transfers are lossless
# ---------------------------------------------------------------------------

def test_acceptance_transfers_lossless_at_scale():
    rng = Random(77)
    sizes = [0, 14, 28, 10240] + [rng.randrange(0, 10241) for _ in range(196)]
    started = time.monotonic()
    for index, size in enumerate(sizes):
        payload = Random(index).randbytes(size)
        sim, sender, receiver, _ = transfer_sim(payload, seed=index)
        sim.schedule(1, lambda: receiver.request_file(sim))
        sim.run(until=segment_count(size) + 25)
        record = sim.artifacts.transfers[-1]
        if record.status != "complete" or record.payload != payload:
            _report("covert transfers", False, "size %d corrupted" % size)
        if record.segments != segment_count(size):
            _report("covert transfers", False, "size %d segment count" % size)
    elapsed = time.monotonic() - started
    _report(
        "200 covert transfers up to 10 KiB arrive intact with exact segmentation",
        elapsed < 30.0,
        "%.2fs total" % elapsed,
    )


# ---------------------------------------------------------------------------
# 4. Targeted standby timing
# ---------------------------------------------------------------------------

def test_acceptance_targeted_standby_timing():
    rng = Random(41)
    for round_number in range(20):
        sim = Simulator(build_testbed())
        dos = TargetedDos("listener", target_address=0)
        dos.arm()
        sim.add_actor(dos)
        sim.start()
        sim.schedule(3, sim.user_action, "tv", UserAction.POWER_OFF)
        presses = sorted(rng.sample(range(6, 100), rng.randrange(2, 5)))
        for tick in presses:
            sim.schedule(tick, sim.user_action, "tv", UserAction.POWER_ON)
        sim.run(until=110)

        address = sim.logical["tv"]
        announcements = [
            e.tick for e in sim.trace.events
            if e.origin == "tv" and e.frame.opcode in (0x84, 0x87, 0x80)
        ]
        standbys = [
            e.tick for e in sim.trace.events
            if e.origin == "listener"
            and e.frame.opcode == 0x36
            and e.frame.destination == address
        ]
        for tick in announcements:
            if not any(tick < s <= tick + 1 for s in standbys):
                _report(
                    "targeted standby timing", False,
                    "round %d: announcement at %d unanswered" % (round_number, tick),
                )

        power = "on"
        changes = [
            (c.tick, c.value) for c in sim.trace.changes
            if c.device == "tv" and c.field == "power"
        ]
        idx = streak = worst = 0
        for tick in range(4, 110):
            while idx < len(changes) and changes[idx][0] <= tick:
                power = changes[idx][1]
                idx += 1
            streak = streak + 1 if power == "on" else 0
            worst = max(worst, streak)
        if worst > 3:
            _report(
                "targeted standby timing", False,
                "round %d: display stayed on %d ticks" % (round_number, worst),
            )
    _report(
        "armed listener answers every wake announcement within one tick "
        "across 20 randomized schedules",
        True,
        "display never on for more than 3 consecutive ticks",
    )


# ---------------------------------------------------------------------------
# 5. Broadcast churn denial of service
# ---------------------------------------------------------------------------

def test_acceptance_broadcast_churn_over_thousand_ticks():
    scenario = scen.builtin_scenario("attack5-input-churn")
    result = scen.run_scenario(scenario)
    outcomes = scen.evaluate_checks(result)
    by_label = {o.label: o for o in outcomes}
    ok = all(o.ok for o in outcomes)
    _report(
        "thousand-tick broadcast churn wakes the display, sustains at least "
        "190 input cycles, and starves every settings-menu attempt",
        ok,
        "; ".join("%s: %s" % (o.label, o.detail) for o in by_label.values()),
    )


# ---------------------------------------------------------------------------
# 6. Remote relay
# ---------------------------------------------------------------------------

def _relay_roundtrip(client, relay_log) -> tuple[bool, str]:
    # DOS1 command: bus traffic within poll interval + 2 ticks of the post
    scenario = scen.builtin_scenario("attack5-remote-churn")
    result = scen.run_scenario(scenario, relay_client=client)
    outcomes = scen.evaluate_checks(result)
    if not all(o.ok for o in outcomes):
        return False, "; ".join("%s: %s" % (o.label, o.detail) for o in outcomes)
    if relay_log.executed != ["DOS1"]:
        return False, "expected exactly one DOS1 execution, got %r" % relay_log.executed

    # SCAN command publishes the census JSON to the outbound mailbox
    scan_scenario = scen.builtin_scenario("attack1-device-walk")
    scan_scenario.actions = [a for a in scan_scenario.actions if a.action == "request_file"]
    scan_scenario.relay = {"enabled": True, "commands": [{"tick": 5, "command": "SCAN"}]}
    scen.run_scenario(scan_scenario, relay_client=client)
    published = client.get(WEBCLIENT_PATH)
    if published is None or json.loads(published) != EXPECTED_TESTBED_SCAN:
        return False, "webclient mailbox did not receive the census"

    # a re-posted identical envelope is deduplicated, never re-run
    sim = Simulator(build_testbed())
    controller = AttackController("listener", PayloadStore(seed=0))
    controller.register(sim)
    poller = RelayPoller(client, controller, interval_ticks=5)
    sim.add_actor(poller)
    envelope = json.dumps({"command": "TDOS", "issued_at": 1})
    client.post(LISTENER_PATH, envelope)
    sim.start()
    sim.schedule(12, lambda: client.post(LISTENER_PATH, envelope))
    relay_log.clear()
    sim.run(until=30)
    if relay_log.executed != ["TDOS"]:
        return False, "duplicate envelope re-executed: %r" % relay_log.executed
    return True, "command, census publication, and dedup verified"


def test_acceptance_relay_loopback(relay_log):
    ok, detail = _relay_roundtrip(LoopbackRelayClient(), relay_log)
    _report("relay drives attacks over the in-process transport", ok, detail)


def test_acceptance_relay_http_socket(relay_log):
    with serving(RelayServer(("127.0.0.1", 0))) as server:
        ok, detail = _relay_roundtrip(HttpRelayClient(server.url), relay_log)
    _report("relay drives attacks over a real HTTP socket", ok, detail)


# ---------------------------------------------------------------------------
# 7. Detection coverage
# ---------------------------------------------------------------------------

def test_acceptance_detector_flags_attacks_not_baseline():
    expectations = {
        "attack1-device-walk": {"ScanBurst"},
        "attack2-mic-exfil": {"CovertMarker", "CovertStream"},
        "attack3-file-theft": {"CovertMarker", "CovertStream"},
        "attack4-targeted-standby": {"TargetedStandby"},
        "attack5-input-churn": {"InputChurnDoS"},
    }
    problems = []
    for name, required in expectations.items():
        result = scen.run_scenario(scen.builtin_scenario(name))
        rules = {a.rule for a in result.alerts}
        missing = required - rules
        if missing:
            problems.append("%s missed %s" % (name, sorted(missing)))
    for name in ("benign-power-cycle", "benign-input-select", "benign-status-query"):
        result = scen.run_scenario(scen.builtin_scenario(name))
        if result.alerts:
            problems.append(
                "%s raised %s" % (name, sorted({a.rule for a in result.alerts}))
            )
    _report(
        "detector flags every attack scenario with the right rule and stays "
        "silent on all baseline traffic",
        not problems,
        "; ".join(problems) or "5 attacks flagged, 3 baselines clean",
    )


# ---------------------------------------------------------------------------
# 8. Mitigations
# ---------------------------------------------------------------------------

def test_acceptance_mitigations_change_outcomes():
    problems = []

    strip = scen.run_scenario(scen.builtin_scenario("podium-strip-scan"))
    for outcome in scen.evaluate_checks(strip):
        if not outcome.ok:
            problems.append("strip: %s" % outcome.detail)

    calmed = scen.run_scenario(scen.builtin_scenario("attack4-disable-control-mitigated"))
    for outcome in scen.evaluate_checks(calmed):
        if not outcome.ok:
            problems.append("disable-control: %s" % outcome.detail)

    # direct immunity probes on the patched topology
    patched = apply_mitigation(build_testbed(), {"type": "disable_control", "device": "tv"})
    sim = Simulator(patched)
    sim.start()
    sim.transmit_at(2, "listener", CecFrame(1, 0, 0x36))
    sim.transmit_at(4, "chromecast", CecFrame(4, 15, 0x82, (0x30, 0x00)))
    sim.run(until=8)
    if sim.device_states["tv"].power.value != "on":
        problems.append("standby frame still powers the display down")
    if sim.device_states["tv"].active_input_port != 3:
        problems.append("active-source claim still moves the input")

    _report(
        "stripping the podium edge blinds its census and disabling control "
        "immunizes the display without hiding it",
        not problems,
        "; ".join(problems) or "both mitigations verified",
    )


# ---------------------------------------------------------------------------
# 9. Determinism
# ---------------------------------------------------------------------------

def test_acceptance_builtin_scenarios_deterministic():
    unstable = []
    for name in scen.builtin_scenario_names():
        first = scen.run_scenario(scen.builtin_scenario(name)).trace.render_log()
        second = scen.run_scenario(scen.builtin_scenario(name)).trace.render_log()
        if first != second:
            unstable.append(name)
    _report(
        "every builtin scenario produces a byte-identical trace on repeat runs",
        not unstable,
        ", ".join(unstable) or "%d scenarios replayed" % len(scen.builtin_scenario_names()),
    )
