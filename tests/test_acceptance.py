"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The Monte Carlo criteria run at 20,000 replications and take a couple of
minutes in total; run this module with ``pytest -s tests/test_acceptance.py``
to watch the per-criterion lines.
"""

import math
import warnings

import numpy as np

from binperiod.cli import main
from binperiod.nulldist import sample_limit_statistic, tail
from binperiod.rng import substream
from binperiod.series import fold
from binperiod.simulate import ScenarioSpec, estimate_power, iter_table, simulate_series
from binperiod.spectral import fisher_g, fisher_g_batch, periodogram_batch
from binperiod.theory import PeriodicProfile, detectability

REPS = 20000
SEED = 12345


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def _power(kind: str, **kw) -> float:
    spec = ScenarioSpec(
        kind=kind, alpha=0.05, replications=REPS, seed=SEED, n=1200, d=60, **kw
    )
    return estimate_power(spec).rate


def test_criterion_01_critical_value(capsys):
    code = main(["critval", "29", "0.05", "--csv", "--full-precision"])
    out = capsys.readouterr().out
    approx = float(out.strip().splitlines()[1].split(",")[3])
    ok = code == 0 and abs(approx - 0.2033) <= 5e-4
    _report("criterion 1 (critical value q=29 alpha=0.05)", ok, f"approx={approx:.6f}")
    assert ok, f"approx={approx}"


def test_criterion_02_null_level_sweep():
    estimates = list(iter_table("T1", replications=REPS, seed=SEED))
    elapsed = sum(est.elapsed for est in estimates)
    rates = {est.scenario.p1: est.rate for est in estimates}
    ok_rates = all(abs(rate - 0.05) <= 0.01 for rate in rates.values())
    ok_time = elapsed < 300.0
    detail = (
        " ".join(f"p1={p:.1f}:{rate:.4f}" for p, rate in sorted(rates.items()))
        + f" elapsed={elapsed:.1f}s"
    )
    _report("criterion 2 (null level, nine constants)", ok_rates and ok_time, detail)
    assert ok_rates, detail
    assert ok_time, detail


def test_criterion_03_table2_spot_checks():
    targets = {30: (0.7473, 0.02), 20: (0.2939, 0.02), 15: (0.1350, 0.015), 7: (0.05, 0.01)}
    results = {r: _power("ARITH_STEP", r=r, step=0.01) for r in targets}
    ok = all(abs(results[r] - t) <= tol for r, (t, tol) in targets.items())
    detail = " ".join(
        f"r={r}:{results[r]:.4f} (want {t}±{tol})" for r, (t, tol) in targets.items()
    )
    _report("criterion 3 (step 0.01 power spot checks)", ok, detail)
    assert ok, detail


def test_criterion_04_table3_spot_checks():
    targets = {20: (0.9685, 0.01), 15: (0.7550, 0.02), 10: (0.3204, 0.02)}
    results = {r: _power("ARITH_STEP", r=r, step=0.02) for r in (20, 15, 10, 30)}
    ok = all(abs(results[r] - t) <= tol for r, (t, tol) in targets.items())
    ok = ok and results[30] >= 0.999
    detail = (
        " ".join(f"r={r}:{results[r]:.4f}" for r in (20, 15, 10))
        + f" r=30:{results[30]:.4f} (want >=0.999)"
    )
    _report("criterion 4 (step 0.02 power spot checks)", ok, detail)
    assert ok, detail


def test_criterion_05_table4_spot_checks():
    targets = {3: (0.9750, 0.01), 4: (0.8362, 0.02), 2: (0.05, 0.01)}
    results = {r: _power("ENDPOINTS", r=r, p_lo=0.4, p_hi=0.6) for r in targets}
    ok = all(abs(results[r] - t) <= tol for r, (t, tol) in targets.items())
    detail = " ".join(
        f"r={r}:{results[r]:.4f} (want {t}±{tol})" for r, (t, tol) in targets.items()
    )
    _report("criterion 5 (endpoint profile spot checks)", ok, detail)
    assert ok, detail


def test_criterion_06_table5_sine_sweep():
    estimates = list(iter_table("T5", replications=REPS, seed=SEED))
    rates = {est.scenario.r: est.rate for est in estimates}
    detected = {4, 6, 8, 9, 10}
    ok = all(rates[r] >= 0.999 for r in detected)
    ok = ok and all(abs(rates[r] - 0.05) <= 0.01 for r in (2, 3, 5, 7))
    detail = " ".join(f"r={r}:{rates[r]:.4f}" for r in sorted(rates))
    _report("criterion 6 (sine profile sweep)", ok, detail)
    assert ok, detail


def test_criterion_07_pi_digit_study():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # pi digits include zeros
        rate = estimate_power(
            ScenarioSpec(
                kind="PI_DIGITS", length=120, n=120, d=12,
                alpha=0.05, replications=REPS, seed=SEED,
            )
        ).rate
    ok = abs(rate - 0.05) <= 0.012
    _report("criterion 7 (pi-digit study)", ok, f"rate={rate:.4f} (want 0.05±0.012)")
    assert ok, rate


def test_criterion_08_distribution_oracle():
    count = 100000
    lines = []
    ok = True
    for q in (2, 5, 14, 29):
        d = 2 * q + 1
        draws = sample_limit_statistic(d, np.ones(d), count, seed=SEED)
        for x in (0.1, 0.2, 0.3):
            expected = tail(q, x)
            empirical = float(np.mean(draws >= x))
            se = math.sqrt(expected * (1.0 - expected) / count)
            ok = ok and abs(empirical - expected) <= 3.0 * se
            lines.append(f"q={q},x={x}:{empirical:.4f}/{expected:.4f}")
    _report("criterion 8 (normal-input law matches closed form)", ok, " ".join(lines))
    assert ok, lines


def test_criterion_09_limit_structure_brute_force():
    rng = np.random.default_rng(SEED)
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for r in range(1, 25):
            for d in range(3, 25):
                p = rng.integers(1, 64, size=r) / 64.0
                profile = PeriodicProfile(p)
                e = detectability(profile, d).e
                extended = np.array([p[(ell - 1) % r] for ell in range(1, r * d + 1)])
                oracle = np.array(
                    [
                        math.fsum(extended[i + k * d - 1] for k in range(r)) / r
                        for i in range(1, d + 1)
                    ]
                )
                assert np.array_equal(e, oracle), (r, d)
                b = math.gcd(r, d)
                assert np.array_equal(e[: d - b], e[b:]), (r, d)
                if b == 1:
                    assert np.all(e == e[0]), (r, d)
                checked += 1
    _report(
        "criterion 9 (limit vector structure, brute force)",
        True,
        f"{checked} (r,d) pairs matched the defining sum exactly",
    )


def test_criterion_10_consistency_under_alternative():
    profile = PeriodicProfile([0.2, 0.5, 0.8])
    d, reps = 6, 500
    limit_g = detectability(profile, d).limit_g
    errors = []
    for n in (600, 6000, 60000):
        total = 0.0
        for k in range(reps):
            series = simulate_series(profile, n, substream(SEED, k))
            total += abs(fisher_g(fold(series, d).z).value - limit_g)
        errors.append(total / reps)
    ok = errors[0] > errors[1] > errors[2]
    detail = " ".join(
        f"n={n}:{err:.6f}" for n, err in zip((600, 6000, 60000), errors)
    )
    _report("criterion 10 (statistic converges to its limit)", ok, detail)
    assert ok, detail


def test_criterion_11_invariance_suite():
    rows = 1000
    worst_shift = worst_scale = worst_affine = 0.0
    for d in range(3, 65):
        rng = substream(SEED, d)
        x = rng.standard_normal((rows, d))
        shift = rng.uniform(-10.0, 10.0, size=rows)
        scale = np.exp(rng.uniform(math.log(0.01), math.log(100.0), size=rows))
        const = rng.uniform(-5.0, 5.0, size=rows)
        alt_amp = rng.uniform(-5.0, 5.0, size=rows) if d % 2 == 0 else np.zeros(rows)

        base_p = periodogram_batch(x)
        shifted_p = periodogram_batch(x + shift[:, None])
        atol = 1e-10 * np.maximum(1.0, base_p.sum(axis=1))[:, None]
        worst_shift = max(worst_shift, float(np.max(np.abs(base_p - shifted_p) / atol)))
        assert np.all(np.abs(base_p - shifted_p) <= atol), d

        values, _, degenerate = fisher_g_batch(x)
        scaled_values, _, scaled_deg = fisher_g_batch(scale[:, None] * x)
        assert not degenerate.any() and not scaled_deg.any(), d
        worst_scale = max(worst_scale, float(np.max(np.abs(values - scaled_values))))
        assert np.all(np.abs(values - scaled_values) <= 1e-12), d

        signs = np.where(np.arange(1, d + 1) % 2 == 0, 1.0, -1.0)
        recentred = scale[:, None] * (x - const[:, None] - alt_amp[:, None] * signs)
        affine_values, _, affine_deg = fisher_g_batch(recentred)
        assert np.array_equal(degenerate, affine_deg), d
        worst_affine = max(worst_affine, float(np.max(np.abs(values - affine_values))))
        assert np.all(np.abs(values - affine_values) <= 1e-9), d
    _report(
        "criterion 11 (shift/scale/affine invariance, d=3..64)",
        True,
        f"worst shift={worst_shift:.3g} (rel), scale={worst_scale:.3g},"
        f" affine={worst_affine:.3g}",
    )
