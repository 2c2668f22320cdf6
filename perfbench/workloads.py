"""The four workloads, the operation each one repeats, and its output checks.

An operation is one scenario run: `run_scenario`, `evaluate_checks` and
`write_artifacts` (for `builtins` also `builtin_scenario`, which copies and
validates the document; for `churn-long` also the replay of `trace.log`).
A pass runs every scenario of the workload once: twelve operations for
`builtins`, one for the others.

Every operation is checked.  It fails when a scenario check fails, when a
digest of its trace, state log, alerts or transfer payloads differs from the
pinned one (or, for a seed with no pin, from the first pass of the same
process), when replayed alerts differ from the run's alerts, or when it
raises.  A failure is counted, never raised.
"""

import gc
import hashlib
import os
import time
import traceback
from dataclasses import dataclass, field
from random import Random

from cecsim import bus as cbus
from cecsim import ids as cids
from cecsim import scenarios as scen
from perfbench import fleet

WORKLOADS = ("builtins", "churn-long", "covert-bulk", "fleet-census")

# Input sizes.  "tiny" is for the benchmark's own tests only.
SIZES = {
    "full": {"churn_ticks": 20000, "capture_bytes": 262144, "fleet_nodes": fleet.FLEET_NODES},
    "tiny": {"churn_ticks": 600, "capture_bytes": 4096, "fleet_nodes": 40},
}
SCALING_NODES = {"full": fleet.SCALING_NODES, "tiny": 20}

# Workloads whose outputs do not depend on the seed share one pin for all
# seeds; the others are pinned per seed.
SEED_FREE_PIN = "any"
DIGEST_FIELDS = ("trace", "state", "alerts", "payload")


def churn_document(seed: int, ticks: int) -> dict:
    """attack5-input-churn stretched to `ticks`.  The seed moves the
    owner's 19 attempts to disable CEC; the flood starves the settings menu
    throughout, so every attempt is rejected and the bus trace does not
    depend on the seed."""
    attempts = sorted(Random(seed).sample(range(30, ticks), 19))
    return {
        "name": "churn-long",
        "topology": "testbed",
        "duration": ticks,
        "seed": seed,
        "overrides": {"tv": {"initial_power": "standby"}},
        "ids": {"tap": "tv"},
        "actions": [
            {"tick": 2, "actor": "client", "action": "send_frame", "args": {"frame": "dd:dd:dd:dd"}}
        ]
        + [{"tick": t, "actor": "tv", "action": "disable_cec"} for t in attempts],
        "checks": [
            {"type": "powered_on_by", "device": "tv", "tick": 10},
            {"type": "min_input_cycles", "device": "tv", "count": ticks // 5 - 10},
            {"type": "disable_cec_attempts_rejected", "device": "tv", "min_attempts": 19},
            {"type": "alert_exactly", "rule": "InputChurnDoS", "count": 1, "subject": "listener"},
        ],
    }


def covert_document(seed: int, capture_bytes: int) -> dict:
    """attack3-file-theft with a `capture_bytes` capture; the seed picks
    the captured bytes.  The duration leaves 40 ticks of slack after the
    last segment."""
    segments = -(-capture_bytes // 14)
    return {
        "name": "covert-bulk",
        "topology": "testbed",
        "duration": segments + 40,
        "seed": seed,
        "listener_options": {"capture_bytes": capture_bytes},
        "ids": {"tap": "tv"},
        "actions": [
            {"tick": 2, "actor": "client", "action": "request_file", "args": {"peer": "listener"}}
        ],
        "checks": [
            {"type": "transfer_complete", "source": "capture"},
            {"type": "alert_exactly", "rule": "CovertStream", "count": 1, "subject": "listener"},
            {"type": "alerts_include", "rule": "CovertMarker"},
        ],
    }


def documents(workload: str, seed: int, size: str) -> list[tuple[str, object]]:
    """The generated inputs of one pass, as (pin key, document) pairs.  A
    builtin scenario's document is its catalogue name."""
    sizes = SIZES[size]
    if workload == "builtins":
        names = scen.builtin_scenario_names()
        Random(seed).shuffle(names)
        return [(name, name) for name in names]
    if workload == "churn-long":
        return [(SEED_FREE_PIN, churn_document(seed, sizes["churn_ticks"]))]
    if workload == "covert-bulk":
        return [(str(seed), covert_document(seed, sizes["capture_bytes"]))]
    if workload == "fleet-census":
        return [(str(seed), fleet.fleet_scenario(seed, sizes["fleet_nodes"]))]
    raise ValueError("unknown workload %r; known: %s" % (workload, ", ".join(WORKLOADS)))


def load(document):
    if isinstance(document, str):
        return scen.builtin_scenario(document)
    return scen.load_scenario(document)


def replay_alerts(path: str, tap: str) -> list:
    """Alerts from `trace.log` parsed back line by line, as `cecsim ids
    analyze --ids-tap <tap>` computes them."""
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(cbus.parse_trace_line(line))
    return cids.detect(events, None, tap)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return _digest(fh.read())


@dataclass
class PassResult:
    """One pass: timings in host seconds, everything else exact."""

    run_s: float = 0.0
    scenario_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    frames: int = 0
    acked: int = 0
    state_changes: int = 0
    alerts: int = 0
    segments: int = 0
    payload_bytes: int = 0
    trace_bytes: int = 0
    artifact_bytes: int = 0
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    # perf_counter (begin, end) of each timed interval, for speed correction.
    run_spans: list = field(default_factory=list)
    scenario_spans: list = field(default_factory=list)

    @property
    def counts(self) -> tuple[int, int, int]:
        return (self.frames, self.state_changes, self.alerts)


class Runner:
    """Runs passes of one workload and checks their outputs.

    `pins` maps a pin key to the expected digests.  Keys with no pin are
    checked against the first pass of this runner instead, which still
    catches a run that does not repeat itself."""

    def __init__(self, workload: str, seed: int, size: str, out_root: str, pins: dict):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.out_root = out_root
        self.pins = pins
        self.unpinned: set[str] = set()
        self._seen: dict[str, dict] = {}
        self.items: list[tuple[str, object, object]] = []

    def setup(self):
        """Generate the inputs and load them.  `builtins` also loads again
        inside every pass, because copying and validating the scenario is
        part of running a builtin."""
        self.items = []
        for key, doc in documents(self.workload, self.seed, self.size):
            scenario = load(doc)
            self.items.append((key, doc, None if self.workload == "builtins" else scenario))

    def reload(self):
        """Load the inputs again, outside any pass (`builtins` reloads
        inside its passes anyway)."""
        self.items = [
            (key, doc, None if scenario is None else load(doc))
            for key, doc, scenario in self.items
        ]

    def run_pass(self) -> PassResult:
        out = PassResult()
        gc.collect()
        for key, doc, scenario in self.items:
            out.attempted += 1
            try:
                problems = self._run_one(out, key, doc, scenario)
            except Exception:
                problems = ["raised:\n" + traceback.format_exc()]
            if problems:
                out.failed += 1
                out.problems.extend("%s %s: %s" % (self.workload, key, p) for p in problems)
        return out

    def _run_one(self, out: PassResult, key: str, doc, scenario) -> list[str]:
        out_dir = os.path.join(self.out_root, key)
        t0 = time.perf_counter()
        if scenario is None:
            scenario = load(doc)
        t1 = time.perf_counter()
        result = scen.run_scenario(scenario)
        t2 = time.perf_counter()
        checks = scen.evaluate_checks(result)
        written = scen.write_artifacts(result, out_dir)
        replayed = None
        if self.workload == "churn-long":
            tap = scenario.ids_options.get("tap") or result.sim.topology.root
            replayed = replay_alerts(os.path.join(out_dir, "trace.log"), tap)
        t3 = time.perf_counter()

        out.run_s += t3 - t0
        out.scenario_s += t2 - t1
        out.run_spans.append((t0, t3))
        out.scenario_spans.append((t1, t2))
        out.frames += len(result.trace.events)
        out.acked += sum(1 for e in result.trace.events if e.acknowledged)
        out.state_changes += len(result.trace.changes)
        out.alerts += len(result.alerts)
        out.segments += sum(t.segments for t in result.transfers)
        out.payload_bytes += sum(len(t.payload) for t in result.transfers if t.status == "complete")
        out.trace_bytes += os.path.getsize(os.path.join(out_dir, "trace.log"))
        out.artifact_bytes += sum(os.path.getsize(os.path.join(out_dir, n)) for n in written)

        problems = ["check %s failed: %s" % (c.label, c.detail) for c in checks if not c.ok]
        if replayed is not None and replayed != result.alerts:
            problems.append(
                "replayed alerts differ: %d replayed, %d from the run"
                % (len(replayed), len(result.alerts))
            )
        digests = {
            "trace": _file_digest(os.path.join(out_dir, "trace.log")),
            "state": _file_digest(os.path.join(out_dir, "state.log")),
            "alerts": _file_digest(os.path.join(out_dir, "alerts.jsonl")),
            "payload": _digest(b"".join(t.payload for t in result.transfers)),
        }
        out.digests[key] = digests
        expected = self.pins.get(key)
        if expected is None:
            self.unpinned.add(key)
            expected = self._seen.setdefault(key, digests)
        problems.extend(
            "%s digest %s, expected %s" % (name, digests[name], expected.get(name))
            for name in DIGEST_FIELDS
            if digests[name] != expected.get(name)
        )
        return problems


def pins_for(all_pins: dict, workload: str, seed: int, size: str) -> dict:
    """The pinned digests that apply to this workload, seed and size, by
    pin key.  `all_pins` is pins.json: "<size>/<workload>/<pin key>" to
    digests."""
    prefix = "%s/%s/" % (size, workload)
    table = {k[len(prefix):]: v for k, v in all_pins.items() if k.startswith(prefix)}
    if workload == "builtins":
        return table
    key = SEED_FREE_PIN if workload == "churn-long" else str(seed)
    return {key: table[key]} if key in table else {}
