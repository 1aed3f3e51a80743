#!/usr/bin/env python3
"""Paired benchmark runs of this checkout (and optionally a parent checkout), summarised in one file.

    python3 scripts/bench.py [--parent DIR]

Every run is one ``python3 perfbench/run.py`` process in its own checkout;
its record, ``.perfbench/result-<workload>.json``, is read back after the
run, so no second harness is involved. Each workload gets ten pairs of 20 s
runs: pair i uses seed ``1000 + i`` on both sides, and the side that runs
first alternates with i. After the pairs, one ``--trace 1`` run per side
gives the per-layer metrics, and one run of the tier-1 suite per side gives
its wall time; a failing suite stops the script.

The output, ``BENCH_<short-commit>.json`` in this checkout, holds, per side
and workload, the median and interquartile range of the six end-to-end
metrics with every run's value, the pairs the change won on each metric
(with ``--parent``), the per-layer metrics, the tier-1 wall time and the
``src/`` line count. A checkout whose ``src/`` differs from its HEAD is
named ``BENCH_<short-commit>+<first 8 hex digits of its src_sha256>``.
``mc_table`` and ``limit_sampler`` get no per-layer metrics: both Monte
Carlo engines run shards on helper threads, and perfbench's tracer keeps one
span stack for all threads, so the helpers' spans get wrong parents and
wall times.
Times are at the reference speed of ``perfbench/speed.py``; wall-clock
figures on a small shared machine are noisy, so nothing here gates a test.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mc_table", "limit_sampler", "test_requests")
UNTRACED = ("mc_table", "limit_sampler")  # sharded on helper threads; the tracer is not thread-aware
PAIRS = 10
SECONDS = 20.0
FIRST_SEED = 1000
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def git(tree: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True,
                          check=True).stdout.strip()


def perfbench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in ``tree``; returns the record it wrote."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed in {tree}:\n{proc.stderr[-2000:]}")
    return json.loads((tree / ".perfbench" / f"result-{workload}.json").read_text())


def tier1_seconds(tree: Path) -> float:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=tree, capture_output=True, text=True, env=env)
    elapsed = time.perf_counter() - t0
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    print(f"  tier-1 in {tree}: {summary} ({elapsed:.1f} s)", flush=True)
    if proc.returncode != 0:
        raise SystemExit(f"tier-1 failed in {tree} (exit {proc.returncode}): {summary}")
    return elapsed


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def summarise(records: list[dict], better: dict) -> dict:
    e2e = {name: spread([r["end_to_end"][name]["value"] for r in records]) for name in better}
    return {
        "seeds": [r["seed"] for r in records],
        "failed": [r["failed"] for r in records],
        "correct": all(r["correct"] for r in records),
        "end_to_end": e2e,
    }


def wins(change: list[float], parent: list[float], better: str) -> int:
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (c - p) > 0 for c, p in zip(change, parent))


def tree_id(tree: Path, src_sha256: str) -> str:
    short = git(tree, "rev-parse", "--short", "HEAD")
    dirty = git(tree, "status", "--porcelain", "--", "src")
    return f"{short}+{src_sha256[:8]}" if dirty else short


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout of the commit to compare against")
    args = parser.parse_args(argv)
    trees = {"change": ROOT}
    if args.parent is not None:
        trees["parent"] = args.parent.resolve()
        if not (trees["parent"] / "perfbench" / "run.py").is_file():
            parser.error(f"{args.parent} has no perfbench/run.py")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    runs = {side: {} for side in trees}
    traced = {side: {} for side in trees}
    for workload in WORKLOADS:
        for side in trees:
            runs[side][workload] = []
        for i in range(PAIRS):
            order = list(trees) if i % 2 == 0 else list(reversed(trees))
            for side in order:
                rec = perfbench(trees[side], workload, FIRST_SEED + i, SECONDS, 0)
                runs[side][workload].append(rec)
                print(f"{workload} pair {i} {side}: "
                      + "  ".join(f"{k}={v['value']:.4g}" for k, v in rec["end_to_end"].items()),
                      flush=True)
        if workload not in UNTRACED:
            for side in trees:
                rec = perfbench(trees[side], workload, FIRST_SEED, SECONDS, 1)
                traced[side][workload] = rec["per_layer"]

    first = {side: next(iter(runs[side].values()))[0] for side in trees}
    out = {
        "seconds": SECONDS,
        "pairs": PAIRS,
        "python": first["change"]["python"],
        "numpy": first["change"]["numpy"],
        "nproc": first["change"]["nproc"],
        "sides": {},
    }
    for side, tree in trees.items():
        rec = first[side]
        out["sides"][side] = {
            "tree": tree_id(tree, rec["src_sha256"]),
            "commit": rec["commit"],
            "src_sha256": rec["src_sha256"],
            "src_lines": rec["src_lines"],
            "tier1_s": tier1_seconds(tree),
            "workloads": {
                w: {**summarise(recs, better), "per_layer": traced[side].get(w)}
                for w, recs in runs[side].items()
            },
        }
    if "parent" in trees:
        out["change_wins"] = {
            w: {
                name: wins(out["sides"]["change"]["workloads"][w]["end_to_end"][name]["runs"],
                           out["sides"]["parent"]["workloads"][w]["end_to_end"][name]["runs"],
                           better[name])
                for name in better
            }
            for w in runs["change"]
        }
    path = ROOT / f"BENCH_{out['sides']['change']['tree']}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
