#!/usr/bin/env python3
"""Benchmark of binperiod: one workload per run, every answer checked by the benchmark's own oracles.

    python3 perfbench/run.py --workload {mc_table,limit_sampler,test_requests}
                             --seed N --seconds S --trace {0,1}

Run from the repository root. The run

1. times the set-up (``import binperiod`` plus warm-up calls) in fresh
   processes, one after another, and keeps the median;
2. makes the workload's inputs from ``--seed``;
3. measures whole cycles of the workload for about ``--seconds`` seconds,
   closed loop, one client, warnings captured;
4. checks every answer against its oracle, outside the timed phase;
5. with ``--trace 1``, replays the same operations with spans around each
   binperiod layer, requires the outputs to be equal, and reports per-layer
   metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A record with the
provenance of the result is written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_RUNS = 9
# One process and one BLAS thread: the load stays on one core, and a
# multi-threaded BLAS spinning between calls made set-up times scatter.
BLAS_THREADS = 1


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def percentile(values, p: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), p))


def src_provenance() -> dict:
    files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines}


def measure_setup(workload: str, env: dict) -> tuple[list[float], list[float], int]:
    """Set-up seconds of SETUP_RUNS fresh processes, the speed kernel's seconds
    in each, and the warnings they printed."""
    times, kernel, warned = [], [], 0
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "warmup.py"), workload],
            env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-500:]}")
        setup_s, kernel_s = map(float, proc.stdout.split())
        times.append(setup_s)
        kernel.append(kernel_s)
        warned += proc.stderr.count("Warning")
    return times, kernel, warned


def grade(wl, ops, outs, errors):
    """Oracle verdicts: (answers, wrong, of which the known defect, failed, reasons)."""
    wrong = known = failed = 0
    reasons = []
    cost = {}
    for op, out, err in zip(ops, outs, errors):
        t0 = perf_counter()
        verdict = wl.check(op, out) if err is None else (f"error {err}", wl.known_error(op, err))
        cost[op[0]] = cost.get(op[0], 0.0) + perf_counter() - t0
        if verdict is None:
            continue
        reason, explained = verdict
        wrong += 1
        known += explained
        failed += not explained
        reasons.append(("known defect: " if explained else f"{op[0]}: ") + reason)
    extra = wl.extra_checks(ops, outs)
    for reason in filter(None, extra):
        wrong += 1
        failed += 1
        reasons.append(reason)
    return len(ops) + len(extra), wrong, known, failed, reasons, cost


def end_to_end(wl, run, setup_s, peak_rss_mb, attempted, wrong, scaled=True) -> dict:
    """The six end-to-end metrics, name -> (value, unit); times at reference
    speed unless ``scaled`` is false."""
    lat = run.scaled if scaled else run.latencies
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "right_share": ((attempted - wrong) / attempted, "share"),
        "items_per_s": (statistics.median(run.cycle_rates(wl, scaled)), "1/s"),
        "p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "p99_ms": (percentile(lat, 99) * 1e3, "ms"),
    }


def issue_names(workload: str, e2e: dict, wrong_share: float, cold_p50: float) -> dict:
    """The same figures under the per-workload names the benchmark was specified with."""
    named = {
        "setup_s": e2e["setup_s"],
        "peak_rss_mb": e2e["peak_rss_mb"],
        "wrong_share": (wrong_share, "share"),
    }
    rate = e2e["items_per_s"][0]
    if workload == "mc_table":
        named["mc_reps_per_s"] = (rate, "1/s")
        named["mc_cell_p50_s"] = (e2e["p50_ms"][0] / 1e3, "s")
    elif workload == "limit_sampler":
        named["limit_draws_per_s"] = (rate, "1/s")
    else:
        named["req_per_s"] = (rate, "1/s")
        named["req_p50_ms"] = e2e["p50_ms"]
        named["req_p99_ms"] = e2e["p99_ms"]
        named["cli_cold_p50_s"] = (cold_p50, "s")
    return named


def run_workload(args, env: dict, workdir: Path) -> dict:
    """Set-up, measured pass, cold processes, oracles and the optional traced replay."""
    import numpy as np

    from perfbench import speed, tracing, warmup, workloads

    phases = {}
    t0 = perf_counter()
    setup_times, setup_kernel, setup_warnings = measure_setup(args.workload, env)
    setup_scaled = list(speed.scale(setup_times, setup_kernel))
    phases["setup_probes"] = perf_counter() - t0

    t0 = perf_counter()
    wl = workloads.make(args.workload, args.seed, workdir)
    warmup.warm_up(args.workload)
    phases["inputs"] = perf_counter() - t0

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run = workloads.measure(wl, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    phases["measured"] = run.wall

    t0 = perf_counter()
    cold = wl.cold_runs(env) if hasattr(wl, "cold_runs") else []
    cold_p50 = statistics.median(c[1] for c in cold) if cold else 0.0
    phases["cold_cli"] = perf_counter() - t0

    t0 = perf_counter()
    attempted, wrong, known, failed, reasons, oracle_cost = grade(
        wl,
        run.ops + [c[0] for c in cold],
        run.outs + [c[2] for c in cold],
        run.errors + [c[3] for c in cold],
    )
    phases["oracles"] = perf_counter() - t0
    e2e = end_to_end(wl, run, setup_scaled, peak_rss_mb, attempted, wrong)
    raw = end_to_end(wl, run, setup_times, peak_rss_mb, attempted, wrong, scaled=False)

    correct = failed == 0
    layer = None
    if args.trace:
        t0 = perf_counter()
        # Start the replay from the state the measured pass started from.
        tracing.clear_caches()
        warmup.warm_up(args.workload)
        tracer = tracing.Tracer(warm_d=warmup.WARM_D[args.workload])
        with warnings.catch_warnings(record=True), tracer:
            warnings.simplefilter("always")
            traced = workloads.measure(wl, args.seconds, replay=run.ops, tracer=tracer)
        mismatches = sum(
            (e1 is None) != (e2 is None) or (e1 is None and wl.key(op, o1) != wl.key(op, o2))
            for op, o1, o2, e1, e2 in zip(run.ops, run.outs, traced.outs, run.errors, traced.errors)
        )
        if mismatches:
            correct = False
            reasons.append(f"traced outputs differ from untraced ones in {mismatches} operations")
        tracer.write(OUT / f"trace-{args.workload}.npz")
        layer = tracer.metrics()
        layer["cli.cold_p50_s"] = cold_p50
        layer["trace.overhead_s"] = traced.wall - run.wall
        layer["trace.overhead_share"] = (traced.wall - run.wall) / run.wall
        phases["traced_replay"] = perf_counter() - t0

    p99 = e2e["p99_ms"][0] / 1e3
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **src_provenance(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc(),
        "blas_threads": BLAS_THREADS,
        "warnings": {"measured": len(caught), "setup": setup_warnings},
        "operations": len(run.ops),
        "phases_s": phases,
        "oracle_s_by_kind": oracle_cost,
        "latency_samples": len(run.latencies),
        "p99_samples_beyond": int(np.count_nonzero(run.scaled > p99)),
        "setup_samples_s": setup_times,
        "setup_kernel_s": setup_kernel,
        "speed_reference_s": speed.REFERENCE_S,
        "end_to_end_unscaled": {k: v for k, (v, _) in raw.items()},
        "cold_cli_s": [c[1] for c in cold],
        "correct": correct,
        "answers": attempted,
        "wrong": wrong,
        "known_defect": known,
        "failed": failed,
        "reasons": reasons[:50],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "named": {k: {"value": v, "unit": u} for k, (v, u) in
                  issue_names(args.workload, e2e, wrong / attempted, cold_p50).items()},
        "per_layer": layer,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("mc_table", "limit_sampler", "test_requests"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63 or args.seconds <= 0:
        parser.error("--seed must be in [0, 2^63) and --seconds positive")

    if not (ROOT / "src" / "binperiod" / "__init__.py").is_file():
        print(f"error: no binperiod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    import binperiod
    from perfbench import tracing, workloads

    if Path(binperiod.__file__).resolve().parent != ROOT / "src" / "binperiod":
        print(f"error: imported binperiod from {binperiod.__file__}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as workdir:
        rec = run_workload(args, workloads.subprocess_env(ROOT), Path(workdir))
    (OUT / f"result-{args.workload}.json").write_text(json.dumps(rec, indent=1) + "\n")

    print(f"workload {rec['workload']}  seed {rec['seed']}  operations {rec['operations']}"
          f"  answers {rec['answers']}  wrong {rec['wrong']} (known defects {rec['known_defect']})"
          f"  times at reference speed")
    for name, m in rec["named"].items():
        print(f"  {name:<17} {m['value']:.6g} {m['unit']}")
    for reason in rec["reasons"][:10]:
        print(f"  wrong: {reason}")
    print("record: " + json.dumps({k: rec[k] for k in (
        "commit", "src_sha256", "src_lines", "python", "numpy", "nproc", "blas_threads",
        "warnings", "seed")}))

    if rec["per_layer"] is None:
        metrics = rec["end_to_end"]
    else:
        metrics = {k: {"value": rec["per_layer"][k], "unit": u} for k, u in tracing.UNITS.items()}
    print(json.dumps({"correct": rec["correct"], "attempted": rec["answers"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
