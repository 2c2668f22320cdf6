"""Record the digests that the benchmark checks every operation against.

    python3 perfbench/pin.py

Writes perfbench/pins.json from the checkout's current cecsim: for each size,
the `builtins` scenarios by name, `churn-long` once (its outputs do not
depend on the seed; checked here on two seeds), and `covert-bulk` and
`fleet-census` for each seed of `PINNED_SEEDS`.  Re-pin only in a change
that means to alter simulated outputs, and say in that change why they moved.
"""

import json
import os
import shutil
import sys

from run import PINS_PATH, WORK_DIR, _import_cecsim

# The seeds whose `covert-bulk` and `fleet-census` outputs are pinned.
PINNED_SEEDS = range(100)


def pin_workload(workloads, workload: str, size: str, seeds) -> dict:
    table = {}
    for seed in seeds:
        out_dir = os.path.join(WORK_DIR, "pin")
        runner = workloads.Runner(workload, seed, size, out_dir, {})
        runner.setup()
        try:
            result = runner.run_pass()
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if result.failed:
            sys.exit("\n".join(result.problems))
        for key, digests in result.digests.items():
            if table.setdefault(key, digests) != digests:
                sys.exit("%s %s: seed %d changed seed-independent outputs" % (workload, key, seed))
    return table


def main() -> int:
    workloads = _import_cecsim()
    pins = {}
    for size in workloads.SIZES:
        pins[size] = {}
        for workload in workloads.WORKLOADS:
            if workload in ("builtins", "churn-long"):
                seeds = (0, 1)
            else:
                seeds = PINNED_SEEDS
            pins[size][workload] = pin_workload(workloads, workload, size, seeds)
            print("pinned %s %s" % (size, workload), flush=True)
    # One line per pinned key keeps the file short and its diffs readable.
    lines = []
    for size, by_workload in sorted(pins.items()):
        for workload, table in sorted(by_workload.items()):
            for key, digests in sorted(table.items(), key=lambda kv: kv[0].zfill(8)):
                lines.append("  %s: %s" % (json.dumps("%s/%s/%s" % (size, workload, key)),
                                            json.dumps(digests, sort_keys=True)))
    with open(PINS_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
