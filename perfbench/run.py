"""Benchmark command for cecsim.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout: it imports cecsim from `src/` there and
exits with code 2, printing no result, when that is missing.  The seed
generates the workload's inputs; the same seed gives the same inputs.

With `--trace 0` it reports the end-to-end metrics.  Times are host seconds
corrected for swings in host speed (speed.py); the raw medians are printed
too:

- `setup_s`: importing cecsim, generating the inputs and loading them, timed
  in fresh processes (median over every child process and this one);
- `run_s`: median over passes of one pass (see workloads.py);
- `frames_per_s`: frames on the bus over host seconds in `run_scenario`,
  median over passes;
- `peak_rss_mb`: `ru_maxrss` of fresh untraced processes that set up and
  run one pass (median of `RSS_PROCESSES`);
- `artifact_bytes`: bytes `write_artifacts` writes in one pass (exact).

The failed ratio is the `failed` and `attempted` fields of the result line
and is printed by name above it.  Passes are timed back to back in this
process for `--seconds`; child processes run one at a time, before that.

With `--trace 1` it times a few untraced passes, then wraps cecsim's public
functions (tracer.py), runs at least two traced passes, and reports the
per-layer metrics of `PER_LAYER` below.  The spans are written to
`.perfbench/spans-<workload>.bin` under the checkout.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import json
import logging
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.speed import SpeedSampler  # noqa: E402  (stdlib only)

WORK_DIR = os.path.join(ROOT, ".perfbench")
PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")

SETUP_PROCESSES = 6
RSS_PROCESSES = 2
MIN_PASSES = 3
# Traced passes keep every span in memory (22 bytes each): at least 2
# passes, then more only while under both caps and the time budget.
MAX_TRACED_PASSES = 10
MAX_TRACED_SPANS = 3_000_000
CHILD_TIMEOUT_S = 120
# Share of --seconds spent on untraced passes in a traced run.
UNTRACED_SHARE = 0.25
# How far `trace.self_sum_ratio` may fall below 1: the wrappers' own entry
# and exit around `run_scenario` lie outside every span.
SELF_SUM_TOLERANCE = 0.01

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("frames_per_s", "frames/s"),
    ("peak_rss_mb", "MB"),
    ("artifact_bytes", "bytes"),
)

LAYERS = ("frames", "topology", "devices", "bus", "attacks", "transfer", "relay", "ids", "scenarios")

PER_LAYER = (
    ("frames.constructed", "count"),
    ("frames.encode_us", "us"),
    ("frames.parse_us", "us"),
    ("topology.builds", "count"),
    ("topology.build_s", "s"),
    ("topology.address_s", "s"),
    ("topology.domains_s", "s"),
    ("devices.react_calls", "count"),
    ("devices.react_us", "us"),
    ("devices.react_useful_ratio", "ratio"),
    ("bus.start_s", "s"),
    ("bus.start_polls", "count"),
    ("bus.start_scaling", "log2"),
    ("bus.deliver_calls", "count"),
    ("bus.deliver_self_us", "us"),
    ("bus.actor_callbacks", "count"),
    ("bus.ack_ratio", "ratio"),
    ("bus.state_changes", "count"),
    ("bus.render_s", "s"),
    ("bus.trace_bytes", "bytes"),
    ("bus.parse_us", "us"),
    ("attacks.broadcast_tick_us", "us"),
    ("attacks.scan_s", "s"),
    ("transfer.sender_tick_us", "us"),
    ("transfer.receiver_event_us", "us"),
    ("transfer.segments", "count"),
    ("transfer.bytes_per_s", "bytes/s"),
    ("ids.feed_calls", "count"),
    ("ids.feed_us", "us"),
    ("ids.detect_s", "s"),
    ("ids.alerts", "count"),
    ("relay.handle_calls", "count"),
    ("relay.handle_us", "us"),
    ("scenarios.load_s", "s"),
    ("scenarios.run_s", "s"),
    ("scenarios.checks_s", "s"),
    ("scenarios.artifacts_s", "s"),
) + tuple(("self.%s_s" % layer, "s") for layer in LAYERS) + (
    ("trace.self_sum_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)


def _import_cecsim():
    """Make the checkout's cecsim and this benchmark importable, or exit 2."""
    if not os.path.isfile(os.path.join(ROOT, "src", "cecsim", "__init__.py")):
        print("no cecsim sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        sys.exit(2)
    if os.path.join(ROOT, "src") not in sys.path:
        sys.path.insert(0, os.path.join(ROOT, "src"))
    logging.getLogger("cecsim").setLevel(logging.ERROR)
    from perfbench import workloads

    return workloads


def _load_pins(workloads, workload: str, seed: int, size: str) -> dict:
    with open(PINS_PATH, "r", encoding="utf-8") as fh:
        return workloads.pins_for(json.load(fh), workload, seed, size)


def _percentile_line(name: str, values: list[float], unit: str) -> str:
    """Median, and the highest percentile with at least ten samples above
    it, with the sample count."""
    ordered = sorted(values)
    text = "%s median %.6g %s" % (name, statistics.median(ordered), unit)
    if len(ordered) >= 20:
        pct = math.floor(100 * (1 - 10 / len(ordered)))
        text += ", p%d %.6g %s" % (pct, ordered[math.ceil(pct / 100 * len(ordered)) - 1], unit)
    return text + " (n=%d)" % len(ordered)


# ----------------------------------------------------------------------
# Child processes: set-up time and peak memory
# ----------------------------------------------------------------------

def _setup(workload: str, seed: int, size: str, out_dir: str):
    """Import cecsim, generate the inputs and load them, under a speed
    sampler.  Returns the runner and the set-up time, raw and corrected."""
    with SpeedSampler() as sampler:
        t0 = time.perf_counter()
        workloads = _import_cecsim()
        runner = workloads.Runner(
            workload, seed, size, out_dir, _load_pins(workloads, workload, seed, size)
        )
        runner.setup()
        t1 = time.perf_counter()
    return workloads, runner, t1 - t0, sampler.corrected(t0, t1)


def _child(kind: str, workload: str, seed: int, size: str) -> dict:
    out_dir = os.path.join(WORK_DIR, "child-%d" % os.getpid())
    _, runner, raw_s, setup_s = _setup(workload, seed, size, out_dir)
    report = {"setup_s": setup_s, "raw_setup_s": raw_s, "attempted": 0, "failed": 0}
    if kind == "full":
        try:
            result = runner.run_pass()
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        for problem in result.problems:
            print(problem, file=sys.stderr)
        report["attempted"], report["failed"] = result.attempted, result.failed
        report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return report


def _spawn(kind: str, args) -> dict | None:
    command = [
        sys.executable, os.path.abspath(__file__), "--child", kind,
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
    ]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print("%s child timed out" % kind, file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print("%s child exited with %d" % (kind, proc.returncode), file=sys.stderr)
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        print("%s child printed no result" % kind, file=sys.stderr)
        return None


# ----------------------------------------------------------------------
# Untraced and traced runs
# ----------------------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int, problems=()):
        self.attempted += attempted
        self.failed += failed
        for problem in list(problems)[:20]:
            print(problem, file=sys.stderr)


def _timed_passes(runner, tally: Tally, seconds: float, minimum: int) -> list:
    passes = []
    begin = time.perf_counter()
    while len(passes) < minimum or time.perf_counter() - begin < seconds:
        result = runner.run_pass()
        tally.add(result.attempted, result.failed, result.problems)
        passes.append(result)
    return passes


def run_untraced(args, workloads, runner, tally: Tally) -> dict:
    setup_samples, raw_setup, rss_samples = [args.setup_s], [args.raw_setup_s], []
    for kind, count in (("setup", SETUP_PROCESSES), ("full", RSS_PROCESSES)):
        for _ in range(count):
            report = _spawn(kind, args)
            if report is None:
                tally.add(1, 1)
                continue
            setup_samples.append(report["setup_s"])
            raw_setup.append(report["raw_setup_s"])
            if kind == "full":
                rss_samples.append(report["rss_mb"])
                tally.add(report["attempted"], report["failed"])

    with SpeedSampler() as sampler:
        warm = runner.run_pass()
        tally.add(warm.attempted, warm.failed, warm.problems)
        passes = _timed_passes(runner, tally, args.seconds, MIN_PASSES)

    def corrected(spans):
        return sum(sampler.corrected(begin, end) for begin, end in spans)

    run_times = [corrected(p.run_spans) for p in passes]
    rates = [p.frames / corrected(p.scenario_spans) for p in passes]
    print(_percentile_line("raw setup_s", raw_setup, "s"))
    print(_percentile_line("raw run_s", [p.run_s for p in passes], "s"))
    print(_percentile_line("raw frames_per_s", [p.frames / p.scenario_s for p in passes], "frames/s"))
    print(_percentile_line("setup_s", setup_samples, "s"))
    print(_percentile_line("run_s", run_times, "s"))
    print(_percentile_line("frames_per_s", rates, "frames/s"))
    if not rss_samples:
        # Every child failed, and each failure is already counted; report
        # this process's peak so that the metric is still printed.
        rss_samples.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return {
        "setup_s": statistics.median(setup_samples),
        "run_s": statistics.median(run_times),
        "frames_per_s": statistics.median(rates),
        "peak_rss_mb": statistics.median(rss_samples),
        "artifact_bytes": passes[0].artifact_bytes,
    }


def _start_seconds(seed: int, nodes: int) -> float:
    """Speed-corrected seconds of `Simulator.start` on a fleet of `nodes`
    nodes, untraced, best of two."""
    from cecsim import bus, topology
    from perfbench import fleet

    config = fleet.fleet_topology(seed, nodes)
    best = math.inf
    for _ in range(2):
        sim = bus.Simulator(topology.build_topology(config))
        with SpeedSampler() as sampler:
            t0 = time.perf_counter()
            sim.start()
            t1 = time.perf_counter()
        best = min(best, sampler.corrected(t0, t1))
    return best


def _layer_metrics(stats, tracer, result, useful_reactions: int) -> dict:
    """Per-layer metrics of one traced pass."""
    runs = result.attempted
    count, incl, selfs = stats.count, stats.inclusive_s, stats.self_s

    def per_call_us(name: str, total) -> float:
        calls = count(name)
        return total(name) / calls * 1e6 if calls else 0.0

    actor_calls = sum(count(name) for name in tracer.actor_names)
    react_calls = count("devices.react")
    layer_self = stats.layer_self_ns
    metrics = {
        "frames.constructed": count("frames.CecFrame.__post_init__") / runs,
        "frames.encode_us": per_call_us("frames.encode_frame", incl),
        "frames.parse_us": per_call_us("frames.parse_frame", incl),
        "topology.builds": count("topology.build_topology") / runs,
        "topology.build_s": incl("topology.build_topology") / runs,
        "topology.address_s": incl("topology.assign_physical_addresses") / runs,
        "topology.domains_s": incl("topology.propagation_domains") / runs,
        "devices.react_calls": react_calls / runs,
        "devices.react_us": per_call_us("devices.react", selfs),
        "devices.react_useful_ratio": (
            useful_reactions / react_calls if react_calls else 0.0
        ),
        "bus.start_s": incl("bus.Simulator.start") / runs,
        "bus.start_polls": count("bus.Simulator.deliver", under_root=True) / runs,
        "bus.deliver_calls": count("bus.Simulator.deliver") / runs,
        "bus.deliver_self_us": per_call_us("bus.Simulator.deliver", selfs),
        "bus.actor_callbacks": actor_calls / runs,
        "bus.ack_ratio": result.acked / result.frames if result.frames else 0.0,
        "bus.state_changes": result.state_changes / runs,
        "bus.render_s": (incl("bus.Trace.render_log") + incl("bus.Trace.render_state_log")) / runs,
        "bus.trace_bytes": result.trace_bytes / runs,
        "bus.parse_us": per_call_us("bus.parse_trace_line", incl),
        "attacks.broadcast_tick_us": per_call_us("attacks.BroadcastDos.on_tick", incl),
        "attacks.scan_s": (incl("attacks.ScanWalk.on_tick") + incl("attacks.ScanWalk.on_event")) / runs,
        "transfer.sender_tick_us": per_call_us("transfer.FileSender.on_tick", incl),
        "transfer.receiver_event_us": per_call_us("transfer.FileReceiver.on_event", incl),
        "transfer.segments": result.segments / runs,
        "ids.feed_calls": count("ids.Detector.feed") / runs,
        "ids.feed_us": per_call_us("ids.Detector.feed", incl),
        "ids.detect_s": incl("ids.detect") / runs,
        "ids.alerts": result.alerts / runs,
        "relay.handle_calls": count("relay.RelayState.handle") / runs,
        "relay.handle_us": per_call_us("relay.RelayState.handle", incl),
        "scenarios.load_s": incl("scenarios.load_scenario") / runs,
        "scenarios.run_s": incl("scenarios.run_scenario") / runs,
        "scenarios.checks_s": incl("scenarios.evaluate_checks") / runs,
        "scenarios.artifacts_s": incl("scenarios.write_artifacts") / runs,
        # Against the runner's own clock around `run_scenario`, which the
        # tracer does not own: time outside every span, or counted twice,
        # moves this away from 1.
        "trace.self_sum_ratio": sum(layer_self.values()) / 1e9 / result.scenario_s,
    }
    for layer in LAYERS:
        metrics["self.%s_s" % layer] = layer_self.get(layer, 0) / 1e9 / runs
    return metrics


def run_traced(args, workloads, runner, tally: Tally) -> dict:
    from perfbench import tracer as tracing

    small = _start_seconds(args.seed, workloads.SCALING_NODES[args.size])
    large = _start_seconds(args.seed, workloads.SIZES[args.size]["fleet_nodes"])

    tracer = tracing.Tracer()
    traced, bounds = [], []
    # The speed sampler also runs inside the traced passes, adding about 1%
    # to whichever span is open, so that the overhead compares like with like.
    with SpeedSampler() as sampler:
        warm = runner.run_pass()
        tally.add(warm.attempted, warm.failed, warm.problems)
        untraced = _timed_passes(runner, tally, args.seconds * UNTRACED_SHARE, 2)
        begin = time.perf_counter()
        with tracer:
            while len(traced) < 2 or (
                len(traced) < MAX_TRACED_PASSES
                and tracer.span_count() < MAX_TRACED_SPANS
                and time.perf_counter() - begin < args.seconds * (1 - UNTRACED_SHARE)
            ):
                first, useful = tracer.span_count(), tracer.useful_reactions
                runner.reload()
                result = runner.run_pass()
                tally.add(result.attempted, result.failed, result.problems)
                traced.append(result)
                bounds.append(
                    (first, tracer.span_count(), tracer.useful_reactions - useful)
                )

    def corrected(spans):
        return sum(sampler.corrected(b, e) for b, e in spans)

    os.makedirs(WORK_DIR, exist_ok=True)
    tracer.dump(os.path.join(WORK_DIR, "spans-%s.bin" % args.workload))

    per_pass = []
    for result, (first, last, useful) in zip(traced, bounds):
        stats = tracing.SpanStats(
            tracer, first, last, "scenarios.run_scenario", "bus.Simulator.start"
        )
        per_pass.append(_layer_metrics(stats, tracer, result, useful))

    # A change that only speeds the simulator up leaves these identical.
    reference = traced[0]
    exact = ("frames.constructed", "devices.react_calls")
    for result, metrics in zip(traced, per_pass):
        if result.counts != untraced[0].counts:
            problem = "traced and untraced passes disagree on counts"
        elif result.counts != reference.counts or any(metrics[k] != per_pass[0][k] for k in exact):
            problem = "traced passes disagree on exact counts"
        else:
            continue
        tally.add(0, result.attempted - result.failed, [problem])

    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["bus.start_scaling"] = math.log2(large / small)
    metrics["transfer.bytes_per_s"] = statistics.median(
        p.payload_bytes / corrected(p.scenario_spans) for p in untraced
    )
    metrics["trace.overhead_ratio"] = statistics.median(
        corrected(p.run_spans) for p in traced
    ) / statistics.median(corrected(p.run_spans) for p in untraced)
    if abs(metrics["trace.self_sum_ratio"] - 1) > SELF_SUM_TOLERANCE:
        print("layer self times add up to %.4f of run_scenario, off by more than %g"
              % (metrics["trace.self_sum_ratio"], SELF_SUM_TOLERANCE), file=sys.stderr)
    print("traced passes %d, spans %d" % (len(traced), tracer.span_count()))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--child", choices=("setup", "full"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        print(json.dumps(_child(args.child, args.workload, args.seed, args.size)))
        return 0

    out_dir = os.path.join(WORK_DIR, "work-%d" % os.getpid())
    workloads, runner, args.raw_setup_s, args.setup_s = _setup(
        args.workload, args.seed, args.size, out_dir
    )

    tally = Tally()
    try:
        if args.trace:
            values, table = run_traced(args, workloads, runner, tally), PER_LAYER
        else:
            values, table = run_untraced(args, workloads, runner, tally), END_TO_END
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    keys = len(runner.items)
    print(
        "outputs checked against pins: %d of %d scenarios (the rest against the first pass)"
        % (keys - len(runner.unpinned), keys)
    )
    print("failed_ratio %d/%d" % (tally.failed, tally.attempted))
    metrics = {}
    for name, unit in table:
        metrics[name] = {"value": values[name], "unit": unit}
        print("%s %.6g %s" % (name, values[name], unit))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
