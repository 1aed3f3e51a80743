import cmath
import math
import warnings

import numpy as np
import pytest

from binperiod.rng import substream
from binperiod.series import fold
from binperiod.simulate import simulate_series
from binperiod.spectral import fisher_g
from binperiod.theory import (
    PeriodicProfile,
    PowerRegime,
    detectability,
    effective_period,
)


def coset_limits_oracle(p, d):
    """Direct evaluation of the defining sums over an extended index range."""
    p = np.asarray(p, dtype=float)
    r = p.size
    extended = np.array([p[(ell - 1) % r] for ell in range(1, r * d + 1)])
    e = [math.fsum(extended[i + k * d - 1] for k in range(r)) / r for i in range(1, d + 1)]
    var = extended * (1.0 - extended)
    v = [math.fsum(var[i + k * d - 1] for k in range(r)) / r for i in range(1, d + 1)]
    return np.array(e), np.array(v)


def test_limits_e_period_divides_d():
    profile = PeriodicProfile([0.2, 0.5, 0.8])
    e = detectability(profile, 6).e
    assert np.allclose(e, [0.2, 0.5, 0.8, 0.2, 0.5, 0.8], atol=1e-15)
    assert np.array_equal(e[:3], e[3:])  # 3-periodic to the last bit


def test_limits_e_shared_divisor():
    profile = PeriodicProfile([0.1, 0.2, 0.3, 0.4])
    e = detectability(profile, 6).e
    assert np.allclose(e, [0.2, 0.3, 0.2, 0.3, 0.2, 0.3], atol=1e-15)


def test_limits_e_coprime_is_constant():
    profile = PeriodicProfile(np.linspace(0.05, 0.95, 7))
    e = detectability(profile, 60).e
    assert np.all(e == e[0])
    assert e[0] == pytest.approx(float(np.mean(profile.p)), abs=1e-15)


def test_limits_v_constant_profile():
    profile = PeriodicProfile([0.3])
    assert np.allclose(detectability(profile, 8).v, 0.21, atol=1e-15)


def test_limits_v_alternating():
    sym = detectability(PeriodicProfile([0.3, 0.7]), 6).v
    assert np.allclose(sym, 0.21, atol=1e-15)
    asym = detectability(PeriodicProfile([0.2, 0.6]), 6).v
    assert np.allclose(asym, [0.16, 0.24, 0.16, 0.24, 0.16, 0.24], atol=1e-15)


def test_limits_v_coprime_is_constant():
    profile = PeriodicProfile([0.1, 0.5, 0.9, 0.4, 0.25])
    v = detectability(profile, 12).v
    assert np.all(v == v[0])
    expected = math.fsum(p * (1 - p) for p in profile.p) / profile.r
    assert v[0] == pytest.approx(expected, abs=1e-15)


def test_structure_against_oracle_small_grid():
    # exact equality: both routes are correctly rounded sums of one multiset
    rng = np.random.default_rng(17)
    for r in range(1, 13):
        for d in range(3, 13):
            p = rng.integers(1, 20, size=r) / 20.0
            with warnings.catch_warnings():
                # random profiles may be accidentally non-minimal
                warnings.simplefilter("ignore", UserWarning)
                profile = PeriodicProfile(p)
            summary = detectability(profile, d)
            e, v = summary.e, summary.v
            e_ref, v_ref = coset_limits_oracle(p, d)
            assert np.array_equal(e, e_ref)
            assert np.array_equal(v, v_ref)
            b = math.gcd(r, d)
            assert np.array_equal(e[: d - b], e[b:])
            if b == 1:
                assert np.all(e == e[0])


def per_position_mean(values, d, i):
    """e_i (or v_i) as its defining sum over k = 0..r-1, one position at a time."""
    r = values.size
    return math.fsum(values[(i + k * d - 1) % r] for k in range(r)) / r


def b_copies_mean(values, d):
    """e (or v) as the fsum of b = gcd(r, d) copies of each coset, over r."""
    r = values.size
    b = math.gcd(r, d)
    sums = np.array([math.fsum(values[c::b].tolist() * b) / r for c in range(b)])
    return sums[np.arange(d) % b]


def test_coset_sums_match_per_position_definition():
    # The limits are taken as b = gcd(r, d) coset sums; every field derived
    # from them must equal the per-position definition to the last bit.
    rng = np.random.default_rng(23)
    for r in range(1, 25):
        p = rng.uniform(0.05, 0.95, size=r)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            profile = PeriodicProfile(p)
        var = p * (1.0 - p)
        for d in [*range(3, 40), 360, 1001]:
            e_ref = np.array([per_position_mean(p, d, i) for i in range(1, d + 1)])
            v_ref = np.array([per_position_mean(var, d, i) for i in range(1, d + 1)])
            head = [per_position_mean(p, d, k) for k in range(1, r + 1)]
            b = math.gcd(r, d)
            terms = [
                head[k - 1] * cmath.exp(-2j * cmath.pi * k / b) * ((d - k) // r + 1)
                for k in range(1, r + 1)
            ]
            summary = detectability(profile, d)
            g_ref = fisher_g(e_ref)
            assert np.array_equal(summary.e, e_ref), (r, d)
            assert np.array_equal(summary.v, v_ref), (r, d)
            assert summary.detect_sum == complex(
                math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)
            ), (r, d)
            assert summary.detect_tol == (
                1e-10 * math.fsum(abs(x) for x in head[: min(r, d)]) * (d // r + 1)
            ), (r, d)
            assert summary.e_in_A == g_ref.degenerate, (r, d)
            assert summary.limit_g == (None if g_ref.degenerate else g_ref.value), (r, d)
    # At r = d every coset is one value taken b = r times; the oracle sums
    # b copies of it. The edge values include subnormals, 2^-900 and
    # 1 - 2^-53, whose scaled copies and variances p(1 - p) must all be
    # summed exactly.
    edges = [0.0, 1.0, 5e-324, 3 * 2.0**-1074, 2.0**-900, 1 - 2.0**-53]
    for r in (1000, 1001, 2520):
        p = rng.uniform(0.0, 1.0, r)
        p[: 20 * len(edges)] = np.tile(edges, 20)
        rng.shuffle(p)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the profile touches 0 and 1
            summary = detectability(PeriodicProfile(p), r)
        assert summary.b == r
        assert np.array_equal(summary.e, b_copies_mean(p, r)), r
        assert np.array_equal(summary.v, b_copies_mean(p * (1.0 - p), r)), r


def test_detection_tolerance_reads_only_the_summed_positions():
    # Positions past d have weight 0 in the detection sum, so they must not
    # scale its tolerance: over all 6,000 positions it was 3.0e-7, above
    # |detect_sum| = 7.2e-8, and a CONSISTENT profile read inconclusive.
    p = 0.5 + 1e-6 * np.random.default_rng(4).standard_normal(6000)
    summary = detectability(PeriodicProfile(p), 60)
    assert summary.regime is PowerRegime.CONSISTENT
    assert summary.detect_nonzero
    assert abs(summary.detect_sum) == pytest.approx(7.2e-8, rel=0.01)
    assert summary.detect_tol == pytest.approx(3.0e-9, rel=0.01)


def test_detectability_example():
    profile = PeriodicProfile([0.2, 0.5, 0.8])
    summary = detectability(profile, 6)
    assert summary.b == 3
    omega = np.exp(-2j * np.pi / 3)
    expected = 2.0 * (0.8 + 0.2 * omega + 0.5 * omega**2)
    assert summary.detect_sum == pytest.approx(expected, abs=1e-12)
    assert summary.detect_nonzero
    assert not summary.e_in_A
    assert summary.limit_g == pytest.approx(1.0, abs=1e-12)


def test_detectability_coprime():
    summary = detectability(PeriodicProfile([0.1, 0.5, 0.9]), 7)
    assert summary.b == 1
    assert summary.e_in_A
    assert summary.limit_g is None


def test_detectability_period_two():
    for d in (6, 12, 60):
        summary = detectability(PeriodicProfile([0.15, 0.85]), d)
        assert summary.b == 2
        assert summary.e_in_A
        assert summary.limit_g is None


def test_detectability_never_raises_on_small_grid():
    # For b = 2 the detection sum is the excluded ordinate d/2, so a nonzero
    # sum next to e in A is consistent; for a linear profile e is in A
    # exactly when b <= 2.
    for r in range(1, 25):
        profile = PeriodicProfile(np.linspace(0.3, 0.7, r))
        for d in range(3, 25):
            summary = detectability(profile, d)
            assert summary.e_in_A == (summary.b <= 2), (r, d)
            assert (summary.limit_g is None) == summary.e_in_A, (r, d)


def test_regimes():
    assert detectability(PeriodicProfile([0.4]), 12).regime is PowerRegime.NULL_LIKE
    assert detectability(PeriodicProfile([0.2, 0.6]), 60).regime is PowerRegime.R2_LIMIT
    assert (
        detectability(PeriodicProfile([0.2, 0.5, 0.8]), 6).regime
        is PowerRegime.CONSISTENT
    )
    # symmetric period-2 profile: variance limits coincide, so null-like
    assert detectability(PeriodicProfile([0.3, 0.7]), 60).regime is PowerRegime.NULL_LIKE
    # Decimal intent: the coset means are all 0.2, although 0.1 + 0.3 and
    # 0.2 + 0.2 differ by 2.8e-17 in binary, so e is in A (b = 3).
    for d in (3, 9):
        summary = detectability(PeriodicProfile([0.1, 0.2, 0.3, 0.3, 0.2, 0.1]), d)
        assert summary.e_in_A, d
        assert summary.regime is PowerRegime.R2_LIMIT, d


def test_profile_validation():
    with pytest.raises(ValueError, match="outside"):
        PeriodicProfile([0.5, 1.2])
    with pytest.raises(ValueError, match="non-empty"):
        PeriodicProfile([])


def test_profile_warns_on_boundary_probability():
    with pytest.warns(UserWarning, match="touches 0 or 1"):
        PeriodicProfile([0.0, 0.5])


def test_profile_warnings_name_the_caller():
    # Not the dataclass-generated __init__ (filename "<string>").
    with pytest.warns(UserWarning) as record:
        PeriodicProfile([0.0, 0.5])
        PeriodicProfile([0.3, 0.6, 0.3, 0.6])
    assert [w.filename for w in record] == [__file__, __file__]


def test_profile_warns_on_non_minimal_period():
    with pytest.warns(UserWarning, match="effective period 2"):
        PeriodicProfile([0.3, 0.6, 0.3, 0.6])
    assert effective_period([0.3, 0.6, 0.3, 0.6]) == 2
    assert effective_period([0.3, 0.6, 0.7]) == 3


def test_effective_period_matches_definition():
    def by_definition(arr):
        r = arr.size
        periods = (
            s for s in range(1, r)
            if r % s == 0 and all(arr[i] == arr[i % s] for i in range(r))
        )
        return next(periods, r)  # r itself, even where a NaN equals nothing

    rng = np.random.default_rng(6)
    for _ in range(600):
        r = int(rng.integers(1, 25))
        divisors = [s for s in range(1, r + 1) if r % s == 0]
        s = divisors[rng.integers(len(divisors))]
        arr = np.resize(rng.integers(0, 3, s) / 2.0, r)
        if rng.random() < 0.3:  # a planted break in one period
            arr[rng.integers(r)] = 0.25
        if rng.random() < 0.2:  # NaN equals nothing, itself included
            arr[rng.integers(r)] = np.nan
        assert effective_period(arr) == by_definition(arr), arr


def test_fold_means_converge_to_e():
    # mean of Z_i over replications approaches e_i within 3 standard errors
    profile = PeriodicProfile([0.2, 0.5, 0.8])
    d, n, reps = 6, 600, 400
    summary = detectability(profile, d)
    e, v = summary.e, summary.v
    blocks = n // d
    acc = np.zeros(d)
    for k in range(reps):
        series = simulate_series(profile, n, substream(99, k))
        acc += fold(series, d).z
    means = acc / reps
    se = np.sqrt(v / blocks / reps)
    assert np.all(np.abs(means - e) <= 3.0 * se + 1e-12)


def test_statistic_approaches_limit_g():
    # light version of the consistency criterion: error shrinks with n
    profile = PeriodicProfile([0.2, 0.5, 0.8])
    d = 6
    limit_g = detectability(profile, d).limit_g
    errors = []
    for n in (600, 6000):
        total = 0.0
        for k in range(100):
            series = simulate_series(profile, n, substream(123, k))
            total += abs(fisher_g(fold(series, d).z).value - limit_g)
        errors.append(total / 100)
    assert errors[1] < errors[0]


def test_detectability_never_raises_on_near_constant_and_tiny_profiles():
    # Near-constant and small-probability profiles, down to subnormal ones:
    # the detection sum and the degenerate guard must agree on every one. For
    # b >= 3 a detection sum above its tolerance puts e outside A (the
    # argument at spectral.A_REL_TOL, for every d), so it never stands beside
    # e in A. The grid is 4,050 profiles at bases down to 1e-9, 4,050 at the
    # tiny bases, a few past d = 12,000, and subnormal profiles whose terms
    # and tolerance underflow unless e is scaled up.
    rng = np.random.default_rng(5)

    def cases():
        for bases in ((0.5, 1e-6, 1e-9), (1e-200, 1e-310, 1e-320)):
            for r in range(3, 13):
                for d in (6, 12, 24, 60, 120, 360, 840, 1001, 2520):
                    for k in range(-15, 0):
                        for base in bases:
                            p = base * (1.0 + 10.0**k * rng.uniform(-1, 1, r))
                            yield (r, d, k, base), p, d
        for r, d in ((36_867, 36_867), (12, 65_536)):
            for k in (-12, -2):
                for base in (0.5, 1e-200, 1e-310, 1e-320):
                    yield (r, d, k, base), base * (1.0 + 10.0**k * rng.uniform(-1, 1, r)), d
        yield "constant 5e-324", np.full(5, 5e-324), 10
        # Minimal period 15; each coset mod 5 holds 0, 5e-324 and 1e-323.
        orders = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (1, 0, 2)]
        yield "0, 5e-324, 1e-323", 5e-324 * np.array(orders, dtype=float).T.ravel(), 5

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # clipped profiles may touch 0 or 1
        for case, p, d in cases():
            summary = detectability(PeriodicProfile(np.clip(p, 0, 1)), d)
            assert (summary.limit_g is None) == summary.e_in_A, case
            assert not (summary.b > 2 and summary.detect_nonzero and summary.e_in_A), case


def test_regimes_do_not_depend_on_scale():
    for k in range(0, 101, 5):
        s = 10.0**-k
        assert detectability(PeriodicProfile([0.1 * s, 0.3 * s]), 6).regime is PowerRegime.R2_LIMIT
        with pytest.warns(UserWarning, match="not minimal"):
            profile = PeriodicProfile([0.3 * s, 0.3 * s])
        assert detectability(profile, 6).regime is PowerRegime.NULL_LIKE, k
    # Down to subnormal probabilities (0.2e-320 is about 405 * 2^-1074).
    for k in range(0, 321):
        s = 10.0**-k
        summary = detectability(PeriodicProfile([0.2 * s, 0.5 * s, 0.8 * s]), 6)
        assert summary.regime is PowerRegime.CONSISTENT, k
        assert summary.limit_g == 1.0, k
