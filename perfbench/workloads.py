"""The three workloads: seeded inputs, the operations a client sends, and their checks.

Every workload is a closed loop with one client in one process: the next
operation starts when the previous one has returned. Operations come in
cycles of fixed composition, and a run measures whole cycles, so the mix is
the same in every run and the seed only changes the values.

A workload object offers:

* ``cycles()``: an endless iterator of lists of operations;
* ``execute(op)``: the timed call into binperiod, returning its raw result;
* ``key(op, out)``: a comparable fingerprint of the result, taken outside
  the timed region;
* ``items(op)``: the units of work one operation does (replications, draws
  or requests);
* ``check(op, out)``: ``None``, or (why the answer fails its oracle,
  whether a documented defect explains it);
* ``extra_checks(ops, outs)``: checks over the whole run, one answer each;
* ``known_error(op, err)``: whether a documented defect explains an
  operation that raised.

binperiod functions are always looked up on their module at call time, so
the tracer's wrappers are seen.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path
from time import perf_counter

import numpy as np

from binperiod import cli, nulldist, series, simulate, theory

from . import oracles, speed

WORKLOADS = ("mc_table", "limit_sampler", "test_requests")


def derived_seed(*parts: int) -> int:
    """A 64-bit seed for binperiod, derived from the benchmark seed."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


class Workload:
    """Defaults shared by the workloads."""

    def key(self, op, out):
        return out

    def items(self, op):
        return 1

    def extra_checks(self, ops, outs):
        return []

    def known_error(self, op, err):
        return False


# ------------------------------------------------------------------ mc_table


class McTable(Workload):
    """Table cells at the paper's shape, 20,000 replications each."""

    REPLICATIONS = 20000

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        shape = dict(n=1200, d=60, alpha=0.05, replications=self.REPLICATIONS)
        cells = [
            ("CONSTANT p1=0.1", dict(kind="CONSTANT", p1=0.1)),
            ("CONSTANT p1=0.5", dict(kind="CONSTANT", p1=0.5)),
        ]
        cells += [
            (f"ARITH_STEP 0.01 r={r}", dict(kind="ARITH_STEP", r=r, step=0.01))
            for r in (7, 15, 20, 30)
        ]
        cells += [
            ("ARITH_STEP 0.02 r=20", dict(kind="ARITH_STEP", r=20, step=0.02)),
            ("ENDPOINTS r=3", dict(kind="ENDPOINTS", r=3, p_lo=0.4, p_hi=0.6)),
            ("SINE r=4", dict(kind="SINE", r=4)),
            ("SINE r=5", dict(kind="SINE", r=5)),
            ("RANDOM_IID", dict(kind="RANDOM_IID")),
        ]
        self.cells = [(label, {**shape, **kw}) for label, kw in cells]
        self.cells.append(
            (
                "PI_DIGITS n=120 d=12",
                dict(kind="PI_DIGITS", length=120, n=120, d=12, alpha=0.05,
                     replications=self.REPLICATIONS),
            )
        )

    def cycles(self):
        rng = np.random.default_rng([self.seed, 0])
        cycle = 0
        while True:
            ops = []
            for i in rng.permutation(len(self.cells)):
                label, fields = self.cells[i]
                spec = simulate.ScenarioSpec(seed=derived_seed(self.seed, cycle, i), **fields)
                ops.append(("cell", label, spec))
            yield ops
            cycle += 1

    def execute(self, op):
        return simulate.estimate_power(op[2])

    def key(self, op, out):
        return out.rejections

    def items(self, op):
        return op[2].replications

    def check(self, op, out):
        reason = oracles.check_cell(op[1], out.rejections, op[2].replications)
        return None if reason is None else (reason, False)


# ------------------------------------------------------------- limit_sampler


class LimitSampler(Workload):
    """Equal-weight draws of the limit statistic at d = 2520 (q = 1259)."""

    D = 2520
    COUNT = 1000

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.q = (self.D - 1) // 2
        self.weights = np.ones(self.D)
        self._tails = None

    def cycles(self):
        k = 0
        while True:
            yield [("draws", derived_seed(self.seed, k))]
            k += 1

    def execute(self, op):
        return nulldist.sample_limit_statistic(self.D, self.weights, self.COUNT, seed=op[1])

    def key(self, op, out):
        return out.tobytes()

    def items(self, op):
        return self.COUNT

    def tails(self):
        if self._tails is None:
            self._tails = oracles.sampler_tails(self.q)
        return self._tails

    def check(self, op, out):
        reason = oracles.check_draws(self.q, out, self.tails())
        return None if reason is None else (reason, False)

    def extra_checks(self, ops, outs):
        pooled = [o for o in outs if isinstance(o, np.ndarray)]
        if not pooled:
            return []
        return [oracles.check_draws(self.q, np.concatenate(pooled), self.tails())]


# ------------------------------------------------------------- test_requests

D_LIST = (12, 60, 120, 360, 840, 1001)
Q_LIST = tuple((d - 1) // 2 for d in D_LIST)
ALPHAS = (0.1, 0.05, 0.01, 0.001)
REPORT_FIELDS = (
    "n", "d", "q", "blocks", "discarded", "statistic", "degenerate", "argmax_j",
    "alpha", "p_exact", "p_approx", "k_alpha_exact", "k_alpha_approx",
    "decision", "decision_exact",
)


def dyadic(x: float, bits: int = 32) -> float:
    """x rounded to a multiple of 2^-bits, which keeps the exact tail cheap."""
    return math.ldexp(round(math.ldexp(x, bits)), -bits)


def write_series_file(path: Path, bits: np.ndarray, sep: bytes, per_line: int = 60) -> None:
    """Write 0/1 tokens, ``per_line`` to a line, under a comment line."""
    text = np.full(2 * bits.size, ord(sep), dtype=np.uint8)
    text[0::2] = bits + ord("0")
    text[2 * per_line - 1 :: 2 * per_line] = ord("\n")
    text[-1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(b"# binperiod benchmark series\n")
        fh.write(text.tobytes())


class TestRequests(Workload):
    """A mix of `test`, `pvalue`, `critval` and `theory` requests, then cold CLI runs."""

    FILES = 16
    MIN_TOKENS, MAX_TOKENS = 1200, 1_000_000
    PVALUES, CRITVALS = 4, 3  # per q and cycle
    NULL_STATS = 16  # per q
    COLD_RUNS = 5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rng = np.random.default_rng([seed, 2])
        sizes = np.geomspace(self.MIN_TOKENS, self.MAX_TOKENS, self.FILES)
        self.bits: list[np.ndarray] = []
        self.paths: list[Path] = []
        for k, size in enumerate(np.rint(sizes).astype(int)):
            if k % 2:
                r = int(rng.integers(3, 13))
                probs = 0.5 + 0.08 * np.sin(2 * np.pi * np.arange(size) / r)
            else:
                probs = np.full(size, rng.uniform(0.1, 0.9))
            bits = (rng.random(size) < probs).astype(np.int8)
            path = workdir / f"series-{k:02d}.txt"
            write_series_file(path, bits, b"," if k % 4 == 1 else b" ")
            self.bits.append(bits)
            self.paths.append(path)
        # Statistics of null series, for half of the p-value queries.
        self.null_stats = {}
        for d, q in zip(D_LIST, Q_LIST):
            stats = []
            while len(stats) < self.NULL_STATS:
                counts, blocks = oracles.fold_counts(
                    (rng.random(1200) < rng.uniform(0.1, 0.9)).astype(np.int64), d
                )
                if oracles.degenerate_counts(counts):
                    continue
                ords = oracles.ordinates(counts / blocks)
                stats.append(dyadic(float(ords.max() / ords.sum())))
            self.null_stats[q] = stats
        self.cold_file = int(np.argmin(np.abs(sizes - 10_000)))
        self._reference = lru_cache(maxsize=None)(self._reference_uncached)
        self._stat = lru_cache(maxsize=None)(self._stat_uncached)
        self._p_exact = lru_cache(maxsize=None)(oracles.check_p_exact)
        self._p_approx = lru_cache(maxsize=None)(oracles.check_p_approx)
        self._crit = lru_cache(maxsize=None)(oracles.check_critical_value)

    # -- operations ------------------------------------------------------
    def cycles(self):
        rng = np.random.default_rng([self.seed, 3])
        file_order = rng.permutation(self.FILES)
        cycle = 0
        while True:
            ops = []
            for t, k in enumerate(file_order):
                ops.append(("test", int(k), D_LIST[(t + cycle) % len(D_LIST)]))
            for q in Q_LIST:
                for i in range(self.PVALUES):
                    if i % 2:
                        x = self.null_stats[q][int(rng.integers(self.NULL_STATS))]
                    else:
                        x = dyadic(math.exp(rng.uniform(-math.log(q), 0.0)))
                        if x * q <= 1.0:
                            x += 2.0**-32
                    ops.append(("pvalue", q, x))
                for _ in range(self.CRITVALS):
                    ops.append(("critval", q, ALPHAS[int(rng.integers(len(ALPHAS)))]))
            for d in D_LIST:
                r = int(rng.integers(2, 13))
                ops.append(("theory", tuple(int(v) for v in rng.integers(1, 64, size=r)), d))
            yield [ops[i] for i in rng.permutation(len(ops))]
            cycle += 1

    def execute(self, op):
        kind = op[0]
        if kind == "test":
            report = cli.run_test(series.read_series(self.paths[op[1]]), op[2], 0.05)
            return tuple(getattr(report, f) for f in REPORT_FIELDS)
        if kind == "pvalue":
            return (nulldist.p_value(op[1], op[2], "exact"), nulldist.p_value(op[1], op[2], "approx"))
        if kind == "critval":
            cv = nulldist.critical_value(op[1], op[2])
            return (cv.exact, cv.approx)
        if kind == "theory":
            profile = theory.PeriodicProfile(np.array(op[1], dtype=float) / 64.0)
            return theory.detectability(profile, op[2])
        raise ValueError(kind)

    def key(self, op, out):
        if op[0] == "theory":
            return (out.e.tobytes(), out.v.tobytes(), out.b, out.e_in_A, out.limit_g)
        return out

    # -- oracles ---------------------------------------------------------
    def _reference_uncached(self, k: int, d: int):
        counts, blocks = oracles.fold_counts(self.bits[k], d)
        return counts, blocks, oracles.degenerate_counts(counts)

    def check(self, op, out):
        kind = op[0]
        if kind in ("test", "cli"):
            return self._check_report(op[1], op[2], out)
        if kind == "pvalue":
            q, x = op[1], op[2]
            reason = self._p_approx(q, x, out[1])
            if reason:
                return reason, False
            reason = self._p_exact(q, x, out[0])
            return None if reason is None else (reason, oracles.is_known_defect(q, x))
        if kind == "critval":
            reason = self._crit(op[1], op[2], out[0], out[1])
            return None if reason is None else (reason, False)
        if kind == "theory":
            reason = self._check_theory(op[1], op[2], out)
            return None if reason is None else (reason, False)
        raise ValueError(kind)

    def _check_report(self, k, d, out):
        rep = dict(zip(REPORT_FIELDS, out))
        counts, blocks, degenerate = self._reference(k, d)
        n = self.bits[k].size
        q = (d - 1) // 2
        want = dict(n=n, d=d, q=q, blocks=blocks, discarded=n - blocks * d, alpha=0.05)
        for field, value in want.items():
            if rep[field] != value:
                return f"{field} = {rep[field]!r}, want {value!r}", False
        stat = rep["statistic"]
        reason = self._stat(k, d, stat, rep["argmax_j"], rep["degenerate"])
        if reason:
            return reason, False
        reason = self._crit(q, 0.05, rep["k_alpha_exact"], rep["k_alpha_approx"])
        if reason:
            return reason, False
        for field, bound in (("decision", "k_alpha_approx"), ("decision_exact", "k_alpha_exact")):
            expect = "reject" if stat > rep[bound] else "accept"
            if rep[field] != expect:
                return f"{field} = {rep[field]!r}, want {expect!r}", False
        if degenerate:
            if rep["p_exact"] != 1.0 or rep["p_approx"] != 1.0:
                return "degenerate statistic with p-value below 1", False
            return None
        reason = self._p_approx(q, stat, rep["p_approx"])
        if reason:
            return reason, False
        reason = self._p_exact(q, stat, rep["p_exact"])
        return None if reason is None else (reason, oracles.is_known_defect(q, stat))

    def _stat_uncached(self, k, d, value, argmax, degenerate):
        counts, blocks, exact_degenerate = self._reference(k, d)
        return oracles.check_statistic(counts / blocks, exact_degenerate, value, argmax, degenerate)

    def _check_theory(self, ks, d, out):
        # p_i = k_i / 64, so 64 r e_i and 4096 r v_i are integer coset sums,
        # and one float division rounds each limit correctly.
        r = len(ks)
        k = np.array(ks, dtype=np.int64)
        coset = (np.arange(d)[:, None] + d * np.arange(r)[None, :]) % r
        e_num = k[coset].sum(axis=1)
        v_num = (k * (64 - k))[coset].sum(axis=1)
        for name, want, got in (("e", e_num / (64 * r), out.e), ("v", v_num / (4096 * r), out.v)):
            if len(got) != d or np.any(np.abs(np.asarray(got) - want) > 1e-12 * np.abs(want)):
                return f"theory {name} differs from the coset averages"
        if out.b != math.gcd(r, d):
            return f"b = {out.b}, want {math.gcd(r, d)}"
        in_a = oracles.degenerate_counts(e_num)
        if bool(out.e_in_A) != in_a:
            return f"e_in_A = {out.e_in_A}, want {in_a}"
        if in_a:
            return None if out.limit_g is None else "limit_g given for e in A"
        ords = oracles.ordinates(e_num / (64 * r))
        want_g = float(ords.max() / ords.sum())
        if out.limit_g is None or abs(out.limit_g - want_g) > oracles.STAT_REL_TOL * want_g:
            return f"limit_g = {out.limit_g!r}, direct sum gives {want_g!r}"
        return None

    def known_error(self, op, err):
        return op[0] == "theory" and oracles.is_known_theory_defect(len(op[1]), op[2], err)

    # -- cold command-line processes ---------------------------------------
    def cold_runs(self, env: dict) -> list[tuple]:
        """Start ``binperiod test`` processes one at a time: (op, seconds, report, error)."""
        runs = []
        for i in range(self.COLD_RUNS):
            op = ("cli", self.cold_file, D_LIST[i % len(D_LIST)])
            cmd = [
                sys.executable, "-m", "binperiod", "test", str(self.paths[op[1]]),
                "--d", str(op[2]), "--csv", "--full-precision",
            ]
            t0 = perf_counter()
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
            elapsed = perf_counter() - t0
            runs.append((op, elapsed, *parse_cli_csv(proc)))
        return runs


def parse_cli_csv(proc) -> tuple:
    """(report tuple, None) from ``binperiod test --csv --full-precision``, or (None, error)."""
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) != 2:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    conv = dict(
        n=int, d=int, q=int, blocks=int, discarded=int, statistic=float,
        degenerate=lambda s: bool(int(s)), argmax_j=int, alpha=float, p_exact=float,
        p_approx=float, k_alpha_exact=float, k_alpha_approx=float, decision=str,
        decision_exact=str,
    )
    try:
        return tuple(conv[f](row[f]) for f in REPORT_FIELDS), None
    except (KeyError, ValueError) as exc:
        return None, f"unreadable CSV: {exc}"


def make(name: str, seed: int, workdir: Path):
    cls = {"mc_table": McTable, "limit_sampler": LimitSampler, "test_requests": TestRequests}
    return cls[name](seed, workdir)


# ------------------------------------------------------------------- harness


class Pass:
    """Operations of one measured pass, with results and timings."""

    def __init__(self):
        self.ops: list = []
        self.outs: list = []
        self.errors: list[str | None] = []
        self.latencies: list[float] = []  # seconds as measured
        self.scaled = np.empty(0)  # seconds at reference speed
        self.cycles: list[int] = []  # index of the first operation of each cycle
        self.wall = 0.0

    def cycle_rates(self, wl, scaled: bool = True) -> list[float]:
        """Items per second of each cycle, from the operations' times."""
        lat = self.scaled if scaled else np.asarray(self.latencies)
        bounds = self.cycles + [len(self.ops)]
        return [
            sum(wl.items(op) for op, err in zip(self.ops[a:b], self.errors[a:b]) if err is None)
            / float(lat[a:b].sum())
            for a, b in zip(bounds[:-1], bounds[1:])
        ]


def measure(wl, seconds: float, replay=None, tracer=None) -> Pass:
    """Run whole cycles until about ``seconds`` have passed.

    Another cycle starts while the run, extended by half the last cycle, is
    still within ``seconds``, so a run ends within half a cycle of it. With
    ``replay`` given, run exactly those operations instead. With a
    ``tracer``, each operation's spans carry its index as request id. The
    speed kernel is timed between operations, at most every
    ``speed.EVERY_S``, and once at each end of the pass.
    """
    run = Pass()
    sample_t, sample_v, starts = [], [], []

    def sample():
        sample_v.append(speed.calibrate())
        sample_t.append(perf_counter())

    cycles = iter([replay]) if replay is not None else wl.cycles()
    sample()
    t_start = perf_counter()
    last = 0.0
    for cycle in cycles:
        c0 = perf_counter()
        if run.ops and replay is None and (c0 - t_start) + last / 2 > seconds:
            break
        run.cycles.append(len(run.ops))
        for op in cycle:
            if perf_counter() - sample_t[-1] >= speed.EVERY_S:
                sample()
            if tracer is not None:
                tracer.current_request = len(run.ops)
            t0 = perf_counter()
            try:
                out, err = wl.execute(op), None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            run.latencies.append(perf_counter() - t0)
            starts.append(t0)
            run.ops.append(op)
            run.outs.append(out)
            run.errors.append(err)
        last = perf_counter() - c0
    run.wall = perf_counter() - t_start
    sample()
    start = np.array(starts)
    kernel = speed.kernel_near(
        np.array(sample_t), np.array(sample_v), start, start + np.array(run.latencies)
    )
    run.scaled = speed.scale(run.latencies, kernel)
    return run


def subprocess_env(root: Path) -> dict:
    """The benchmark's environment, with the checkout's sources first on the path."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
