"""Tests of the benchmark itself, at the tiny input size.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from cecsim import attacks, bus, frames, scenarios
from cecsim.topology import build_topology
from perfbench import fleet, run, tracer, workloads

ROOT = run.ROOT
RUN = os.path.join(ROOT, "perfbench", "run.py")


def _bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN if cwd == ROOT else os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "0.2",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc = _bench(workload, 0)
    result = _result(proc)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert "failed_ratio 0/%d" % result["attempted"] in proc.stdout
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    result = _result(_bench(workload, 1))
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.PER_LAYER)
    ratio = result["metrics"]["trace.self_sum_ratio"]["value"]
    assert 1 - run.SELF_SUM_TOLERANCE <= ratio <= 1


def test_layer_self_times_add_up_to_traced_run_scenario():
    proc = _bench("churn-long", 1)
    metrics = _result(proc)["metrics"]
    ratio = metrics["trace.self_sum_ratio"]["value"]
    assert 1 - run.SELF_SUM_TOLERANCE <= ratio <= 1
    assert "layer self times add up" not in proc.stderr
    assert metrics["frames.constructed"]["value"] > metrics["bus.deliver_calls"]["value"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_wrong_pinned_digest_fails_every_operation(workload, tmp_path):
    wrong = dict.fromkeys(workloads.DIGEST_FIELDS, "0" * 16)
    keys = [key for key, _ in workloads.documents(workload, 0, "tiny")]
    runner = workloads.Runner(workload, 0, "tiny", str(tmp_path), {k: wrong for k in keys})
    runner.setup()
    result = runner.run_pass()
    assert result.attempted == len(keys)
    assert result.failed == result.attempted
    assert all("digest" in problem for problem in result.problems)


def test_benchmark_json_matches_what_the_command_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    setup_bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in bench["end_to_end"])


def test_pins_cover_the_default_seed_of_every_workload():
    with open(run.PINS_PATH, "r", encoding="utf-8") as fh:
        pins = json.load(fh)
    for size in workloads.SIZES:
        for workload in workloads.WORKLOADS:
            keys = [key for key, _ in workloads.documents(workload, 0, size)]
            assert set(keys) <= set(workloads.pins_for(pins, workload, 0, size)), (size, workload)


def test_tracer_puts_every_original_back():
    before = (frames.CecFrame.__post_init__, bus.Simulator.deliver, scenarios.run_scenario,
              bus.parse_trace_line, workloads.cbus.parse_trace_line)
    with tracer.Tracer() as t:
        assert bus.Simulator.deliver is not before[1]
        frames.CecFrame(0, 15)
        bus.parse_trace_line("t=0 | tv | 0f:36 | ack=0 | obs=tv")
    after = (frames.CecFrame.__post_init__, bus.Simulator.deliver, scenarios.run_scenario,
             bus.parse_trace_line, workloads.cbus.parse_trace_line)
    assert after == before
    assert "on_tick" not in vars(attacks.TargetedDos)
    names = [t.names[i] for i in t.name_ix]
    assert names.count("frames.CecFrame.__post_init__") == 2
    assert "bus.parse_trace_line" in names and "frames.parse_frame" in names
    parse_index = names.index("frames.parse_frame")
    assert t.names[t.name_ix[t.parent[parse_index]]] == "bus.parse_trace_line"


def test_fleet_generator_is_deterministic_and_valid():
    first = fleet.fleet_topology(7)
    assert first == fleet.fleet_topology(7)
    assert first != fleet.fleet_topology(8)
    assert len(first["nodes"]) == fleet.FLEET_NODES
    topology = build_topology(first)
    assert len(topology.listeners()) == 1
    assert len(build_topology(fleet.fleet_topology(3, fleet.SCALING_NODES)).nodes) == 250


def test_without_cecsim_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = _bench("builtins", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
