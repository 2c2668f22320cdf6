"""A/B benchmark of two commits: the parent's perfbench runs against the change's.

    python3 tools/ab.py PARENT CHANGE --workload churn-long --workload builtins \\
        --pairs 5 --seconds 15 --seeds 501 502 503 504 505 [--label NN]

Run it from a git checkout.  It exports both commits from local git objects
with `git archive` into `parent/` and `change/` under one temporary
directory, so the two trees sit at paths of equal length, and runs each
tree's own, unchanged `perfbench/run.py --trace 0` with
`PYTHONDONTWRITEBYTECODE=1`, so neither side reads or writes a bytecode
cache.  For each workload it runs `--pairs` pairs, the parent first in each,
pair i on seed `seeds[i % len(seeds)]`, one run at a time.

For each end-to-end metric of the change's `BENCHMARK.json` it prints both
sides' medians and quartiles, the change's median as a percentage of the
parent's, the pairs the change wins (strictly better than the parent run
beside it) and the gap: the change's median gain over the parent's,
divided by the parent's interquartile range (above 1 is a gain larger than
the parent's own spread; none when that range is 0).  Failed operations
are summed per side.  Everything, the raw result lines too, goes to
`BENCH_<label>_<change sha>.json` (`BENCH_<change sha>.json` without a
label) in the current directory, with the Python version, the seeds and the
seconds.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

SIDES = ("parent", "change")


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric of `better` (name to "higher" or "lower"), the medians,
    quartiles, change in percent, wins and gap over the parent's IQR of
    `pairs`, each {"parent": result, "change": result} with a result being
    {"failed": n, "attempted": n, "metrics": {name: value}}, under
    "metrics"; and the failed and attempted operations per side, under
    "operations"."""
    summary = {
        "operations": {
            side: {
                "failed": sum(p[side]["failed"] for p in pairs),
                "attempted": sum(p[side]["attempted"] for p in pairs),
            }
            for side in SIDES
        },
        "metrics": {},
    }
    for name, direction in better.items():
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        sign = 1 if direction == "higher" else -1
        quartiles = {side: _quartiles(values[side]) for side in SIDES}
        parent_median, change_median = quartiles["parent"][1], quartiles["change"][1]
        iqr = quartiles["parent"][2] - quartiles["parent"][0]
        gain = sign * (change_median - parent_median)
        summary["metrics"][name] = {
            "better": direction,
            "parent_quartiles": list(quartiles["parent"]),
            "change_quartiles": list(quartiles["change"]),
            "change_pct": 100 * (change_median / parent_median - 1) if parent_median else None,
            "wins": sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])),
            "gap_over_iqr": gain / iqr if iqr else None,
        }
    return summary


def report(workload: str, summary: dict, pairs: int) -> str:
    operations = summary["operations"]
    lines = [
        "%s: %d pairs; failed %s"
        % (workload, pairs, ", ".join("%s %d/%d" % (s, operations[s]["failed"], operations[s]["attempted"]) for s in SIDES))
    ]
    for name, row in summary["metrics"].items():
        pq, cq = row["parent_quartiles"], row["change_quartiles"]
        lines.append(
            "  %-15s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  %s  wins %d/%d  gap/IQR %s"
            % (
                name, pq[1], pq[0], pq[2], cq[1], cq[0], cq[2],
                "n/a" if row["change_pct"] is None else "%+.1f%%" % row["change_pct"],
                row["wins"], pairs,
                "n/a" if row["gap_over_iqr"] is None else "%.2f" % row["gap_over_iqr"],
            )
        )
    return "\n".join(lines)


def _git(*args: str) -> bytes:
    return subprocess.run(("git",) + args, check=True, capture_output=True).stdout


def export(rev: str, dest: str) -> str:
    """Extract commit `rev` into `dest`; return its full sha."""
    sha = _git("rev-parse", "--verify", rev + "^{commit}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", sha))) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return sha


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in `tree`; its result line, metrics as
    plain values."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True,
                          timeout=600 + 20 * seconds)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("%s failed in %s (exit %d):\n%s" % (" ".join(command), tree, done.returncode, done.stderr[-2000:]))
    result = json.loads(lines[-1])
    return {
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--label", help="put into the output file name after BENCH_")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    work = tempfile.mkdtemp(prefix="ab-")
    try:
        trees = {side: os.path.join(work, side) for side in SIDES}
        shas = {side: export(getattr(args, side), trees[side]) for side in SIDES}
        with open(os.path.join(trees["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
            better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
        workloads = {}
        for workload in args.workload:
            pairs = []
            for i in range(args.pairs):
                seed = args.seeds[i % len(args.seeds)]
                pair = {"seed": seed}
                for side in SIDES:
                    pair[side] = run_once(trees[side], workload, seed, args.seconds)
                pairs.append(pair)
                print("%s pair %d/%d done (seed %d)" % (workload, i + 1, args.pairs, seed), file=sys.stderr)
            summary = summarize(pairs, better)
            print(report(workload, summary, len(pairs)), flush=True)
            workloads[workload] = {"pairs": pairs, "summary": summary}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    name = "BENCH_%s%s.json" % (args.label + "_" if args.label else "", shas["change"][:12])
    with open(name, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "parent": shas["parent"],
                "change": shas["change"],
                "python": sys.version,
                "seconds": args.seconds,
                "seeds": args.seeds,
                "workloads": workloads,
            },
            fh,
            indent=1,
        )
        fh.write("\n")
    print("wrote %s" % name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
