"""Benchmark of binperiod: three workloads, each checked against the benchmark's own oracles.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; see ``perfbench/README.md``.
"""
