import decimal
import math
import random
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
import tracemalloc
import warnings
from dataclasses import fields, is_dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import binperiod
from binperiod import nulldist, rng
from binperiod.cli import run_test
from binperiod.nulldist import (
    critical_value,
    p_value,
    sample_limit_statistic,
    tail,
    tail_approx,
)
from binperiod.rng import replication_stream, substream
from binperiod.series import BinarySeries, fold, write_series
from binperiod.simulate import ScenarioSpec, estimate_power, simulate_series
from binperiod.spectral import GStatistic, fisher_g_batch, num_frequencies
from binperiod.theory import PeriodicProfile, detectability


def tail_fraction(q: int, x: Fraction) -> Fraction:
    """Exact rational evaluation of the alternating tail sum.

    With x = m / den every term is an integer over den^(q-1), so the sum is
    taken in integers and divided once.
    """
    m, den = x.numerator, x.denominator
    total = sum(
        (-1) ** (j + 1) * math.comb(q, j) * (den - j * m) ** (q - 1)
        for j in range(1, q + 1)
        if den > j * m
    )
    return min(Fraction(1), max(Fraction(0), Fraction(total, den ** (q - 1))))


def tail_reference(q: int, x: float) -> float:
    """The exact tail with its binomials updated in big integers on every call
    and its ``decimal`` sum taken over every term: the float path's bits and
    the decimal path's digits that ``tail`` must keep."""
    q, x, edge = nulldist._support(q, x)
    if edge is not None:
        return edge
    if x * q < 2.0 and (x * q - 1.0) ** (q - 1) < 2.0**-55:
        return 1.0
    power, terms, size, comb = q - 1, [], 0.0, 1
    try:
        for j in range(1, q + 1):
            base = 1.0 - j * x
            if base <= 0.0:
                break
            comb = comb * (q - j + 1) // j
            p = base**power
            term = comb * p
            size += term / base
            terms.append(term if j % 2 else -term)
    except OverflowError:
        size = math.inf
    total = math.fsum(terms)
    bound = (q + 3) * 2**-52 * size
    if p < 2.0**-1022:
        bound += math.ldexp(1.0, min(q - 1074, 0))
    if bound <= 1e-10 * total:
        return min(1.0, total)
    with decimal.localcontext() as ctx:
        ctx.prec = 30 + math.ceil(q * math.log10(1.0 + math.exp(-x * power)))
        total, dx, comb = 0, decimal.Decimal(x), 1
        for j in range(1, q + 1):
            base = 1 - j * dx
            if base <= 0:
                break
            comb = comb * (q - j + 1) // j
            total += (comb if j % 2 else -comb) * base**power
    return min(1.0, max(0.0, float(total)))


def critical_value_reference(q: int, alpha: float) -> float:
    """The exact critical value by bisection over ``tail_reference`` to a
    bracket width of BISECTION_TOL, the rule for every q <= 10^4."""
    lo, hi = 1.0 / q, 1.0
    while hi - lo > nulldist.BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if tail_reference(q, mid) > alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def tail_mpmath(q: int, x, mp):
    """The alternating sum in mpmath at the working precision, up to the
    first term below 10^-45 of the sum before it (by Bonferroni, the sum is
    then within that term of the tail)."""
    x, total = mp.mpf(x), mp.mpf(0)
    for j in range(1, q + 1):
        base = 1 - j * x
        if base <= 0:
            break
        term = mp.binomial(q, j) * base ** (q - 1)
        if term <= mp.mpf(10) ** -45 * abs(total):
            break
        total += term if j % 2 else -term
    return total


def assert_matches_oracle(q: int, x: Fraction) -> None:
    expected = float(tail_fraction(q, x))
    got = tail(q, float(x))
    assert got == pytest.approx(expected, rel=1e-9, abs=1e-15), (q, x)
    assert abs(got - expected) <= 5e-13, (q, x)


def test_two_term_hand_value():
    # q=2, x=0.75: 2*(0.25) - 0
    assert tail(2, 0.75) == pytest.approx(0.5, abs=1e-14)


def test_tail_is_zero_at_and_above_one():
    # At q = 1 the statistic is identically 1, so P(g >= 1) = 1.
    for q in (1, 2, 7, 29):
        assert tail(q, 1.0) == (1.0 if q == 1 else 0.0)
        assert tail(q, 1.5) == 0.0


def test_tail_is_one_on_lower_support():
    # exact thanks to the support shortcut at x <= 1/q
    for q in range(2, 31):
        assert tail(q, 1.0 / q) == 1.0
        assert tail(q, 0.9 / q) == 1.0
    assert tail(1, 0.999) == 1.0


def test_tail_monotone_grid():
    xs = np.linspace(0.0, 1.0, 101)
    for q in range(1, 101):
        values = [tail(q, x) for x in xs]
        assert all(a >= b - 5e-12 for a, b in zip(values, values[1:]))
        assert values[0] == 1.0
        assert values[-1] == (1.0 if q == 1 else 0.0)  # g is identically 1 at q = 1


def test_tail_matches_rational_oracle():
    # Few-bit dyadic x are exact floats and keep the oracle cheap. num/64
    # spans the support; k/2^b with 2^b >= 16q covers (1/q, 4/q], where the
    # alternating sum cancels most.
    for q in (*range(1, 51), 51, 64, 66, 67, 100, 140, 179, 300, 419, 500):
        scale = 2 ** (q.bit_length() + 4)
        edge = range(scale // q + 1, 4 * scale // q + 1)
        grid = [Fraction(num, 64) for num in range(1, 64)]
        for x in grid + [Fraction(k, scale) for k in edge]:
            assert_matches_oracle(q, x)


def test_log_domain_matches_rational_oracle():
    # q > 50 once took log-domain binomials; it now shares the one certified
    # path, held to the same oracle bound as the small-q cases.
    for q in (51, 64, 100):
        for num in (1, 3, 7, 13, 25, 40, 63):
            assert_matches_oracle(q, Fraction(num, 64))


def test_tail_beyond_q500_is_exact_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q in (510, 1259):
            scale = 2**13
            for k in range(scale // q + 1, 4 * scale // q + 1, 3):
                assert_matches_oracle(q, Fraction(k, scale))
            assert_matches_oracle(q, Fraction(1, 64))
        assert_matches_oracle(510, Fraction(0.05))
        assert_matches_oracle(1259, Fraction(0.0056))


BITWISE_QS = (*range(1, 61), 100, 179, 419, 500, 1029, 1030, 1031, 1259, 2000)


@pytest.mark.parametrize("q", BITWISE_QS)
def test_tail_matches_big_integer_reference_bit_for_bit(q):
    # Seeded log-uniform x on (1/q, 1), and the edge grid of
    # test_tail_matches_rational_oracle up to 4/q. q = 1029..1031 straddle the
    # first q whose binomial row leaves the float range.
    rnd = random.Random(q)
    xs = [math.exp(rnd.uniform(-math.log(q), 0.0)) for _ in range(25)]
    scale = 2 ** (q.bit_length() + 4)
    xs += [k / scale for k in range(scale // q + 1, 4 * scale // q + 1)]
    assert [tail(q, x) for x in xs] == [tail_reference(q, x) for x in xs]


@pytest.mark.parametrize("q", [1, 2, 3, 5, 14, 29, 60, 179, 419, 500, 1029, 1030, 1031, 1259, 2000])
def test_critical_value_matches_big_integer_reference_bit_for_bit(q):
    for alpha in (0.1, 0.05, 0.01, 0.001):
        assert critical_value(q, alpha).exact == critical_value_reference(q, alpha), (q, alpha)


@pytest.mark.parametrize("q", [10**6, 10**9, 2**53])
@pytest.mark.parametrize("alpha", [0.05, 0.001])
def test_critical_value_is_relative_at_large_q(q, alpha):
    # The root is about (ln q + ln 1/alpha) / q, so an absolute 1e-10 bracket
    # is 0.1 in units of 1/q at q = 10^9; the width is 1e-6 / q beyond 10^4.
    crit = critical_value(q, alpha)
    assert crit.exact <= crit.approx  # the one-term sum bounds the tail above
    assert abs(tail(q, crit.exact) / alpha - 1.0) <= 1e-6


@pytest.mark.parametrize("q", [1031, 5000, 50000])
def test_tail_matches_mpmath_at_large_q(q):
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    with mp.workdps(80):
        for qx in np.geomspace(1.01, 30.0, 40):
            x = float(qx) / q
            got = tail(q, x)
            # P(g < x) <= (1 - (1 - x)^(q-1))^q; below 2^-55 the tail rounds to 1.0.
            if (1 - (1 - mp.mpf(x)) ** (q - 1)) ** q < mp.mpf(2) ** -55:
                assert got == 1.0, (q, qx)
            else:
                expected = float(tail_mpmath(q, x, mp))
                assert got == pytest.approx(expected, rel=1e-9, abs=1e-300), (q, qx)


@pytest.mark.parametrize("q, qx", [(10**6, 15.0), (2**53, 39.7)])
def test_one_term_law_matches_mpmath_at_large_q(q, qx):
    # 1 - x rounds to a multiple of 2^-53 here, so only a log1p form keeps
    # the digits of q (1 - x)^(q-1) and of its root.
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    x = qx / q
    with mp.workdps(50):
        expected = float(q * (1 - mp.mpf(x)) ** (q - 1))
        assert tail_approx(q, x) == pytest.approx(expected, rel=1e-12)
        for alpha in (0.1, 0.05, 0.01):
            k = nulldist._approx_critical_value(q, alpha)
            assert float(q * (1 - mp.mpf(k)) ** (q - 1)) == pytest.approx(alpha, rel=1e-12)


@pytest.mark.parametrize("q, alpha", [(29, 0.05), (5, 0.05), (5, 0.1)])
def test_one_term_critical_value_keeps_the_table_cells_bits(q, alpha):
    # The shipped tables and the CLI scenario decide against these thresholds.
    assert nulldist._approx_critical_value(q, alpha) == 1.0 - (alpha / q) ** (1.0 / (q - 1))


@pytest.mark.parametrize("q", [2, 10**4])
def test_one_term_critical_value_at_the_smallest_level(q):
    # alpha / q underflows to 0.0 here, so the root is formed from
    # log(alpha) - log(q); at q = 2 it rounds to 1, at q = 10^4 it does not.
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    alpha = 5e-324
    with mp.workdps(50):
        expected = float(1 - (mp.mpf(alpha) / q) ** (1 / mp.mpf(q - 1)))
    assert critical_value(q, alpha).approx == pytest.approx(expected, rel=1e-12)
    assert (q == 2) == (expected == 1.0)


@pytest.mark.parametrize("q", [1031, 5000, 50000])
def test_critical_value_matches_mpmath_inversion(q):
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    width = nulldist.BISECTION_TOL * min(1.0, 1e4 / q)
    with mp.workdps(40):
        for alpha in (0.05, 0.001):
            crit = critical_value(q, alpha)
            # The one-term value bounds the root above (Bonferroni).
            root = mp.findroot(
                lambda x: tail_mpmath(q, x, mp) - alpha,
                (mp.mpf(crit.approx) * 0.9, mp.mpf(crit.approx)),
                solver="anderson",
            )
            assert abs(crit.exact - float(root)) <= width, (q, alpha)


@pytest.mark.parametrize("q", [2, 3, 5, 14, 29, 60, 179, 500])
def test_negative_association_bound_holds(q):
    # The bound that certifies tail = 1.0, against the exact P(g < x).
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    scale = 2 ** (q.bit_length() + 5)
    lo, hi = math.ceil(1.05 * scale / q), min(8 * scale // q, scale - 1)
    with mp.workdps(50):
        for k in range(lo, hi + 1, max(1, (hi - lo) // 150)):
            below = 1 - tail_fraction(q, Fraction(k, scale))
            bound = (1 - (1 - mp.mpf(k) / scale) ** (q - 1)) ** q
            assert mp.mpf(below.numerator) / below.denominator <= bound, (q, k, scale)


@pytest.mark.parametrize("q", [2 * 10**4, 10**6, 2**53])
def test_decimal_terms_are_bounded_at_large_q(monkeypatch, q):
    # Counted, not timed: every decimal sum takes at most 200 terms at no more
    # than 50 digits, from the support edge to the far tail and at every
    # bisection step of two critical values.
    counts, precs, terms = [], [], nulldist._decimal_terms

    def counting(q, x):
        counts.append(0)
        precs.append(decimal.getcontext().prec)
        for term in terms(q, x):
            counts[-1] += 1
            yield term

    monkeypatch.setattr(nulldist, "_decimal_terms", counting)
    for qx in np.geomspace(1.001, 200.0, 300):
        tail(q, float(qx) / q)
    for alpha in (0.05, 0.001):
        critical_value(q, alpha)
    assert counts and max(counts) <= 200
    assert max(precs) <= 50


def test_critical_value_reads_q_once(monkeypatch):
    # The bisection calls the tail kernel on a q read once, not the public
    # tail, which reads its arguments on every call.
    calls, as_int = [], nulldist._as_int

    def counting(*args, **kwargs):
        calls.append(args[0])
        return as_int(*args, **kwargs)

    monkeypatch.setattr(nulldist, "_as_int", counting)
    for q in (1, 2, 5, 29, 1259, 2**53):
        for alpha in (0.05, 0.001):
            calls.clear()
            critical_value(q, alpha)
            assert calls == ["q"], (q, alpha)
        for x in (0.0, 1.5 / q, 0.5, 1.0):
            calls.clear()
            tail(q, x)
            assert calls == ["q"], (q, x)


def test_nan_statistic_is_rejected():
    for f in (tail, tail_approx):
        with pytest.raises(ValueError, match="NaN"):
            f(29, float("nan"))
        assert f(29, math.inf) == 0.0
        assert f(29, -math.inf) == 1.0


def test_invalid_q():
    with pytest.raises(ValueError, match="q must be >= 1"):
        tail(0, 0.5)
    with pytest.raises(ValueError, match="q must be >= 1"):
        critical_value(0, 0.05)


def test_q_is_at_most_two_to_the_53():
    for f in (tail, tail_approx, p_value, critical_value):
        with pytest.raises(ValueError, match=r"^q must be >= 1 and <= 9007199254740992$"):
            f(2**53 + 1, 0.5)
    t0 = time.perf_counter()
    assert tail(2**53, 0.5) == 0.0
    assert tail_approx(2**53, 0.5) == 0.0
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("q", [5, 29, 179, 500, 1259])
def test_numpy_integer_q_matches_python_int(q):
    # A numpy q once made the binomial coefficients wrap in int64.
    grid = np.linspace(1.0 / q, 1.0, 40).tolist() + [0.0084, 0.02, 0.05]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (tail, tail_approx):
            assert [f(np.int64(q), x) for x in grid] == [f(q, x) for x in grid]
        for alpha in (0.01, 0.05):
            assert critical_value(np.int64(q), alpha) == critical_value(q, alpha)
            assert type(critical_value(np.int64(q), alpha).q) is int


def test_reference_tail_value():
    # frozen from the exact rational oracle
    assert tail(29, 0.2033) == pytest.approx(0.0497805976, abs=1e-9)


def test_critical_value_reference_q29():
    crit = critical_value(29, 0.05)
    assert crit.approx == pytest.approx(0.2033, abs=5e-4)
    assert crit.exact == pytest.approx(0.2031740774, abs=1e-8)
    assert crit.exact < crit.approx


def test_critical_value_q2_closed_form():
    # On [1/2, 1] the tail is 2(1-x), so the median point is 0.75 for both.
    crit = critical_value(2, 0.5)
    assert crit.exact == pytest.approx(0.75, abs=1e-9)
    assert crit.approx == pytest.approx(0.75, abs=1e-12)


def test_critical_value_q1_degenerate():
    crit = critical_value(1, 0.05)
    assert crit.exact == 1.0
    assert crit.approx == 1.0


def test_critical_value_round_trip():
    step = Fraction(1, 2**33)
    for q in (2, 3, 5, 14, 29, 60, 100, 179, 500, 1259):
        for alpha in (0.01, 0.05, 0.1, 0.5):
            crit = critical_value(q, alpha)
            if q <= 100:
                assert tail(q, crit.exact) == pytest.approx(alpha, abs=1e-9)
            else:
                # The tail is too steep here for 1e-9 at the bisection's
                # resolution; the exact root lies within 2^-33 of the result.
                lo = math.floor(Fraction(crit.exact) / step) * step - step
                hi = lo + 3 * step
                assert tail_fraction(q, lo) >= Fraction(alpha) >= tail_fraction(q, hi)


def test_approx_critical_value_is_conservative():
    # The dropped alternating terms are a positive correction at small alpha;
    # q=2 is an exact-equality case, so allow the bisection resolution.
    for q in range(2, 61):
        for alpha in (0.01, 0.05, 0.1):
            crit = critical_value(q, alpha)
            assert crit.approx >= crit.exact - 2e-10


def test_invalid_level():
    for alpha in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError, match="invalid level"):
            critical_value(5, alpha)


def test_p_value_degenerate_is_one():
    stat = GStatistic(value=0.0, argmax_j=1, degenerate=True)
    assert p_value(29, stat) == 1.0
    assert p_value(29, stat, "approx") == 1.0


@pytest.mark.parametrize("convention", ["exact", "approx"])
@pytest.mark.parametrize("x", [0.5, 1.0])
def test_p_value_at_q1_is_one(x, convention):
    # g is identically 1 at q = 1, so P(g >= x) = 1 for every x <= 1.
    assert p_value(1, x, convention) == 1.0


def test_p_value_conventions():
    stat = GStatistic(value=0.2033, argmax_j=3, degenerate=False)
    assert p_value(29, stat, "exact") == pytest.approx(0.0497805976, abs=1e-9)
    assert p_value(29, stat, "approx") == pytest.approx(0.05, abs=2e-4)
    with pytest.raises(ValueError, match="convention"):
        p_value(29, stat, "bayes")


def test_p_value_flood_statistics():
    # Reported p-values 0.4900 and 0.4062 follow the one-term convention;
    # the small residual covers rounding of the published statistics.
    assert p_value(29, 0.1356, "approx") == pytest.approx(0.4902428, abs=1e-6)
    assert abs(p_value(29, 0.1356, "approx") - 0.4900) < 25e-4
    assert p_value(29, 0.1414, "approx") == pytest.approx(0.4060156, abs=1e-6)
    assert abs(p_value(29, 0.1414, "approx") - 0.4062) < 25e-4
    # exact-tail counterparts, frozen from the rational oracle
    assert p_value(29, 0.1356, "exact") == pytest.approx(0.4341151, abs=1e-6)
    assert p_value(29, 0.1414, "exact") == pytest.approx(0.3698711, abs=1e-6)


def test_sampler_draws_replay_from_their_group():
    w = np.linspace(0.5, 2.0, 11)
    full = sample_limit_statistic(11, w, 600, seed=7)
    for count in (10, 300):
        assert np.array_equal(sample_limit_statistic(11, w, count, seed=7), full[:count])
    for k in (0, 255, 256, 511, 512, 599):
        normals = substream(7, k // 256).standard_normal((256, 11))[k % 256]
        values, _, _ = fisher_g_batch((normals * w)[None, :])
        assert full[k] == values[0]


def test_sampler_working_set_is_bounded():
    # One 256 x d group is live at a time; a 1000 x 2520 normals buffer and
    # its products would take about 77 MB.
    tracemalloc.start()
    try:
        sample_limit_statistic(2520, np.ones(2520), 1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def serial_limit_statistic(d, weights, count, seed):
    """The unsharded sampler: one whole group of up to 256 rows at a time."""
    out = np.empty(count)
    for start in range(0, count, 256):
        m = min(256, count - start)
        normals = substream(seed, start // 256).standard_normal((m, d))
        out[start : start + m], _, _ = fisher_g_batch(normals * weights)
    return out


# Per d, a count of three or more batches, and its shards on 1, 2, 3 and 8 CPUs.
SHARDED_DRAWS = {11: (24000, [1, 2, 3, 3]), 60: (5000, [1, 2, 3, 3]), 2520: (1000, [1, 2, 3, 4])}


@pytest.mark.parametrize("d", [11, 60, 2520])
@pytest.mark.parametrize("equal", [True, False], ids=["equal", "unequal"])
def test_draws_do_not_depend_on_worker_count(monkeypatch, d, equal):
    w = np.ones(d) if equal else np.random.default_rng(d).uniform(0.2, 3.0, d)
    sharded, shards = SHARDED_DRAWS[d]
    firsts, draw_groups = [], nulldist._draw_groups

    def recording(seed, w, out, first, stop, batch):
        firsts.append(first)  # one call per shard
        return draw_groups(seed, w, out, first, stop, batch)

    monkeypatch.setattr(nulldist, "_draw_groups", recording)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the shards as finely as we can
    try:
        for count in sorted({1, 255, 257, 600, 1000, sharded}):
            expected = serial_limit_statistic(d, w, count, seed=d)
            ran = []
            for workers in (1, 2, 3, 8):
                monkeypatch.setattr(rng, "_cpu_count", lambda: workers)
                firsts.clear()
                got = sample_limit_statistic(d, w, count, seed=d)
                assert np.array_equal(got, expected), (count, workers)
                ran.append(len(firsts))
            if count == sharded:
                assert ran == shards
    finally:
        sys.setswitchinterval(interval)


def test_sampler_helper_exception_reaches_caller(monkeypatch):
    # 1,000 draws at d = 2520 are 4 groups of 20 batches: two shards.
    monkeypatch.setattr(rng, "_cpu_count", lambda: 2)
    outcome, threads = [], set()

    def failing_in_helpers(x):
        threads.add(threading.current_thread())
        if threading.current_thread() is not caller:
            raise RuntimeError("shard 1 failed")
        return fisher_g_batch(x)

    def call():
        try:
            sample_limit_statistic(2520, np.ones(2520), 1000)
        except RuntimeError as exc:
            outcome.append(exc)

    monkeypatch.setattr(nulldist, "fisher_g_batch", failing_in_helpers)
    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert [str(exc) for exc in outcome] == ["shard 1 failed"]
    assert len(threads) == 2


def test_sampler_caller_failure_joins_helpers(monkeypatch):
    monkeypatch.setattr(rng, "_cpu_count", lambda: 2)
    threads = set()

    def failing_in_caller(x):
        threads.add(threading.current_thread())
        if threading.current_thread() is threading.main_thread():
            raise RuntimeError("shard 0 failed")
        time.sleep(0.02)  # keeps the helper busy well after shard 0 fails
        return fisher_g_batch(x)

    monkeypatch.setattr(nulldist, "fisher_g_batch", failing_in_caller)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="shard 0 failed"):
        sample_limit_statistic(2520, np.ones(2520), 1000)
    assert not [t for t in threading.enumerate() if t not in before and t.is_alive()]
    assert len(threads) == 2


def test_sampler_working_set_does_not_grow_with_workers(monkeypatch):
    # Eight shards share two batches' worth of rows (13 rows each at
    # d = 2520) instead of holding eight 256-row groups (about 39 MiB).
    monkeypatch.setattr(rng, "_cpu_count", lambda: 8)
    tracemalloc.start()
    try:
        sample_limit_statistic(2520, np.ones(2520), 1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_sampler_runs_rows_wider_than_its_share_on_one_thread(monkeypatch):
    # A 1,500-wide row is over half of a 2 x 1024-double budget, so one row
    # fills it: eight shards of one row each held about six times as much.
    monkeypatch.setattr(rng, "_BATCH_WORDS", 1024)
    monkeypatch.setattr(rng, "_cpu_count", lambda: 8)
    threads = set()

    def recording(x):
        threads.add(threading.current_thread())
        return fisher_g_batch(x)

    monkeypatch.setattr(nulldist, "fisher_g_batch", recording)
    w = np.linspace(0.5, 2.0, 1500)
    got = sample_limit_statistic(1500, w, 2048, seed=4)
    assert threads == {threading.current_thread()}
    assert np.array_equal(got, serial_limit_statistic(1500, w, 2048, seed=4))


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_sampler_checks_seed_before_sharding(monkeypatch, seed):
    def no_plan():
        raise AssertionError("planned shards with an invalid seed")

    monkeypatch.setattr(rng, "_cpu_count", no_plan)
    with pytest.raises(ValueError, match="seed"):
        sample_limit_statistic(60, np.ones(60), 1000, seed=seed)


NOT_INTEGERS = [1.5, 2.0, 12.0, True, math.nan]
SERIES = BinarySeries(np.resize([0, 1, 1, 0, 1], 60))
PROFILE = PeriodicProfile([0.2, 0.5, 0.8])


def written(per_line) -> bytes:
    """The bytes ``write_series`` writes for SERIES with ``per_line``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "series.txt"
        write_series(path, SERIES, per_line=per_line)
        return path.read_bytes()


INTEGER_ARGUMENTS = {
    "substream": ("seed", lambda v: substream(v, 0)),
    "replication_stream": ("seed", lambda v: replication_stream(v, 0, 4)),
    "sample_limit_statistic": ("seed", lambda v: sample_limit_statistic(5, np.ones(5), 3, seed=v)),
    "ScenarioSpec": ("seed", lambda v: ScenarioSpec(kind="SINE", r=6, n=120, d=12, seed=v)),
    "critical_value": ("q", lambda v: critical_value(v, 0.05)),
    # 1.5 was truncated to index 1; replication_stream raised numpy's TypeError.
    "substream:index": ("index", lambda v: substream(0, v)),
    "replication_stream:index": ("index", lambda v: replication_stream(0, v, 4)),
    "replication_stream:width": ("width", lambda v: replication_stream(0, 0, v)),
    "sample_limit_statistic:count": ("count", lambda v: sample_limit_statistic(5, np.ones(5), v)),
    # r = 3.5 ran np.arange(3.5); n = 120.5 and replications = 10.7 failed
    # inside estimate_power with numpy's TypeError.
    "ScenarioSpec:n": ("n", lambda v: ScenarioSpec(kind="SINE", r=6, n=v, d=12)),
    "ScenarioSpec:d": ("d", lambda v: ScenarioSpec(kind="SINE", r=6, n=120, d=v)),
    "ScenarioSpec:replications": (
        "replications", lambda v: ScenarioSpec(kind="SINE", r=6, n=120, d=12, replications=v)
    ),
    "ScenarioSpec:r": (
        "r", lambda v: ScenarioSpec(kind="ENDPOINTS", r=v, p_lo=0.4, p_hi=0.6, n=120, d=12)
    ),
    "ScenarioSpec:length": (
        "length", lambda v: ScenarioSpec(kind="PI_DIGITS", length=v, n=120, d=12)
    ),
    # d = 12.0 raised numpy's TypeError, and num_frequencies(2.5) returned 0.0.
    "fold": ("d", lambda v: fold(SERIES, v)),
    "run_test": ("d", lambda v: run_test(SERIES, v)),
    "detectability": ("d", lambda v: detectability(PROFILE, v)),
    "num_frequencies": ("d", num_frequencies),
    "sample_limit_statistic:d": ("d", lambda v: sample_limit_statistic(v, np.ones(12), 3)),
    "tail": ("q", lambda v: tail(v, 0.2)),
    "tail_approx": ("q", lambda v: tail_approx(v, 0.2)),
    "p_value": ("q", lambda v: p_value(v, 0.2)),
    "p_value:degenerate": ("q", lambda v: p_value(v, GStatistic(0.0, 1, True))),
    "write_series": ("per_line", written),
    "simulate_series": ("n", lambda v: simulate_series(PROFILE, v, substream(1, 0))),
}


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("entry", INTEGER_ARGUMENTS)
def test_integer_arguments_refuse_other_values(entry, value):
    # 1.5 and 2.0 were truncated to seed 1 and 2, and True read as 1.
    name, call = INTEGER_ARGUMENTS[entry]
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        call(value)


# Every d below 3, zero and negative d included, gets the one fold-length message.
D_ARGUMENTS = {entry: call for entry, (name, call) in INTEGER_ARGUMENTS.items() if name == "d"}


@pytest.mark.parametrize("d", [2, 1, 0, -1])
@pytest.mark.parametrize("entry", D_ARGUMENTS)
def test_every_d_below_three_is_too_small(entry, d):
    with pytest.raises(ValueError, match=r"^d too small \(q would be 0\)$"):
        D_ARGUMENTS[entry](d)


def comparable(result):
    """A comparable form of a result: each value with its type, arrays by
    dtype and bytes, dataclasses field by field."""
    if is_dataclass(result):
        return [(f.name, comparable(getattr(result, f.name))) for f in fields(result)]
    if isinstance(result, np.ndarray):
        return (result.dtype.str, result.shape, result.tobytes())
    return (type(result), result)


# Each entry point with a valid value of its integer argument.
NUMPY_INTEGER_CALLS = {
    "fold": (12, lambda v: fold(SERIES, v)),
    "run_test": (12, lambda v: run_test(SERIES, v)),
    "detectability": (12, lambda v: detectability(PROFILE, v)),
    "detectability:r>d": (3, lambda v: detectability(PeriodicProfile(np.arange(1, 10) / 10), v)),
    "num_frequencies": (12, num_frequencies),
    "sample_limit_statistic": (11, lambda v: sample_limit_statistic(v, np.arange(1, 12), 300)),
    "tail": (29, lambda v: tail(v, 0.2)),
    "tail_approx": (29, lambda v: tail_approx(v, 0.2)),
    "p_value": (29, lambda v: p_value(v, 0.2)),
    "critical_value": (29, lambda v: critical_value(v, 0.05)),
    "write_series": (7, written),
    "simulate_series": (120, lambda v: simulate_series(PROFILE, v, substream(1, 0))),
}


@pytest.mark.parametrize("entry", NUMPY_INTEGER_CALLS)
def test_numpy_integer_arguments_give_identical_results(entry):
    value, call = NUMPY_INTEGER_CALLS[entry]
    assert comparable(call(np.int64(value))) == comparable(call(value))


@pytest.mark.parametrize("seed", [np.int64(5), np.uint64(5)], ids=lambda s: type(s).__name__)
def test_numpy_integer_seeds_draw_as_python_ints(seed):
    assert np.array_equal(substream(seed, 0).random(4), substream(5, 0).random(4))
    assert np.array_equal(
        replication_stream(seed, 3, 6).random(8), replication_stream(5, 3, 6).random(8)
    )
    w = np.linspace(0.5, 2.0, 11)
    assert np.array_equal(
        sample_limit_statistic(11, w, 300, seed=seed), sample_limit_statistic(11, w, 300, seed=5)
    )
    spec = ScenarioSpec(kind="SINE", r=6, n=120, d=12, replications=200, seed=5)
    assert estimate_power(replace(spec, seed=seed)).rejections == estimate_power(spec).rejections


def test_numpy_integer_spec_fields_run_as_python_ints():
    fields = dict(kind="ARITH_STEP", r=4, step=0.1, n=122, d=12, replications=300, seed=5)
    spec = ScenarioSpec(**fields)
    numpy_spec = ScenarioSpec(**{k: np.int64(v) if type(v) is int else v for k, v in fields.items()})
    assert numpy_spec == spec and numpy_spec.label() == spec.label()
    for name in ("n", "d", "replications", "seed", "r"):
        assert type(getattr(numpy_spec, name)) is int, name
    assert estimate_power(numpy_spec).rejections == estimate_power(spec).rejections


def test_single_shard_calls_start_no_thread():
    # One sampler group and one estimate_power batch run as plain calls:
    # no thread, and no import of concurrent.futures (which loads logging).
    script = textwrap.dedent(
        f"""
        import sys, threading
        sys.path.insert(0, {str(Path(binperiod.__file__).parent.parent)!r})
        started = []
        start = threading.Thread.start
        threading.Thread.start = lambda self: (started.append(self), start(self))
        import numpy as np
        import binperiod
        from binperiod.nulldist import sample_limit_statistic
        from binperiod.simulate import ScenarioSpec, estimate_power
        assert "concurrent.futures" not in sys.modules and "logging" not in sys.modules
        sample_limit_statistic(2520, np.ones(2520), 8)
        estimate_power(ScenarioSpec(kind="SINE", r=6, n=1200, d=60, replications=64))
        assert "concurrent.futures" not in sys.modules, "imported concurrent.futures"
        assert not started, started
        """
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_sampler_validates_weights():
    with pytest.raises(ValueError, match="invalid weight"):
        sample_limit_statistic(5, [1.0, 1.0, 0.0, 1.0, 1.0], 3)
    with pytest.raises(ValueError, match="weights"):
        sample_limit_statistic(5, [1.0, 1.0], 3)
    with pytest.raises(ValueError, match="q would be 0"):
        sample_limit_statistic(2, [1.0, 1.0], 3)
    with pytest.raises(ValueError, match="count"):
        sample_limit_statistic(5, np.ones(5), 0)


def test_sampler_matches_tail_for_equal_weights():
    # With unit weights the draws follow the closed-form null law exactly.
    d, q, count = 11, 5, 20000
    draws = sample_limit_statistic(d, np.ones(d), count, seed=3)
    for x in (0.3, 0.45, 0.6):
        expected = tail(q, x)
        se = math.sqrt(expected * (1.0 - expected) / count)
        assert abs(float(np.mean(draws >= x)) - expected) <= 4.0 * se


@pytest.mark.parametrize("count", [sys.maxsize // 2 + 1, 10**400], ids=["maxsize//2+1", "10^400"])
def test_sampler_count_is_index_sized(monkeypatch, count):
    monkeypatch.setattr(rng, "_cpu_count", lambda: pytest.fail("planned shards with a huge count"))
    with pytest.raises(ValueError, match=f"count must be >= 1 and <= {sys.maxsize // 2}"):
        sample_limit_statistic(60, np.ones(60), count)
