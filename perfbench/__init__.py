"""Benchmark of the cecsim simulator: workloads, pinned outputs and tracing.

Run it with `python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>` from the root of a checkout.
"""
