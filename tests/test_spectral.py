import cmath

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from binperiod.spectral import (
    fisher_g,
    fisher_g_batch,
    num_frequencies,
    periodogram_batch,
)


def brute_force_periodogram(x):
    """Independent O(d^2) evaluation of the defining sum via cmath."""
    x = list(map(float, x))
    d = len(x)
    out = []
    for j in range(1, (d - 1) // 2 + 1):
        total = 0j
        for ell in range(1, d + 1):
            total += x[ell - 1] * cmath.exp(-1j * 2.0 * cmath.pi * ell * j / d)
        out.append(abs(total) ** 2 / d)
    return np.array(out)


def test_q_counts():
    assert num_frequencies(3) == 1
    assert num_frequencies(4) == 1
    assert num_frequencies(5) == 2
    assert num_frequencies(60) == 29


def test_rejects_too_short_vectors():
    with pytest.raises(ValueError, match="q would be 0"):
        periodogram_batch([1.0, 2.0])
    for empty in ([], np.empty((4, 0))):
        with pytest.raises(ValueError, match=r"^d too small \(q would be 0\)$"):
            fisher_g_batch(empty)


def test_rejects_arrays_of_three_dimensions():
    for f in (fisher_g_batch, periodogram_batch):
        with pytest.raises(ValueError, match="expected a vector or a matrix of row vectors"):
            f(np.ones((2, 3, 5)))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_row_is_rejected(bad):
    batch = np.ones((3, 5))
    batch[0] = [1.0, 0.0, 0.0, 0.0, 1.0]
    batch[1, 2] = bad
    with pytest.raises(ValueError, match="NaN or infinite"):
        fisher_g_batch(batch)
    with pytest.raises(ValueError, match="NaN or infinite"):
        fisher_g(batch[1])


def test_single_spike_d4():
    values = periodogram_batch([1.0, 0.0, 0.0, 0.0])[0]
    assert values.shape == (1,)
    assert values[0] == pytest.approx(0.25, rel=1e-12)


def test_cancelling_spikes_d4():
    values = periodogram_batch([1.0, 0.0, 1.0, 0.0])[0]
    assert values[0] == pytest.approx(0.0, abs=1e-15)


def test_constant_vector_vanishes():
    for d in (3, 4, 7, 12):
        values = periodogram_batch(np.full(d, 3.7))[0]
        assert np.all(values <= 1e-12)


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(7)
    for d in range(3, 65):
        for _ in range(3):
            x = rng.normal(size=d)
            fast = periodogram_batch(x)[0]
            slow = brute_force_periodogram(x)
            assert np.allclose(fast, slow, rtol=1e-10, atol=1e-12)


def test_in_set_A_examples():
    assert fisher_g(np.full(9, 0.4)).degenerate
    # even d: constant plus alternating sign component
    d = 10
    signs = np.where(np.arange(1, d + 1) % 2 == 0, 1.0, -1.0)
    assert fisher_g(1.3 + 0.4 * signs).degenerate
    assert not fisher_g([1.0, 0.0, 0.0, 0.0]).degenerate


def test_alternating_not_degenerate_for_odd_d():
    # For odd d the alternating pattern is off the Fourier grid.
    d = 9
    signs = np.where(np.arange(1, d + 1) % 2 == 0, 1.0, -1.0)
    assert not fisher_g(0.5 + 0.25 * signs).degenerate


def test_statistic_single_spike_d5():
    # Both ordinates equal 1/5; tie resolves to the smallest j.
    stat = fisher_g([1.0, 0.0, 0.0, 0.0, 0.0])
    assert stat.value == pytest.approx(0.5, rel=1e-12)
    assert stat.argmax_j == 1
    assert not stat.degenerate


def test_statistic_degenerate_on_constant():
    stat = fisher_g(np.full(8, 0.25))
    assert stat.degenerate
    assert stat.value == 0.0
    assert stat.argmax_j == 1


def test_statistic_bounds_random():
    rng = np.random.default_rng(11)
    for d in (3, 6, 15, 31, 60):
        q = num_frequencies(d)
        values, argmax, degenerate = fisher_g_batch(rng.normal(size=(50, d)))
        assert not degenerate.any()
        assert np.all(values >= 1.0 / q - 1e-12)
        assert np.all(values <= 1.0 + 1e-12)
        assert np.all((argmax >= 1) & (argmax <= q))


def exactly_in_A(x):
    """Membership in A by its definition: constant, or (even d) constant
    plus alternating, i.e. constant on odd and on even positions."""
    x = list(x)
    if len(set(x)) == 1:
        return True
    return len(x) % 2 == 0 and len(set(x[0::2])) == 1 and len(set(x[1::2])) == 1


def test_degenerate_flag_matches_set_membership():
    rng = np.random.default_rng(13)
    for d in (4, 5, 12, 101, 1000, 1001):
        signs = np.where(np.arange(1, d + 1) % 2 == 0, 1.0, -1.0)
        counts = rng.integers(0, 21, size=d)
        candidates = [
            np.full(d, 0.3),
            rng.normal(size=d),
            2.0 + 0.1 * signs,
            counts / 20.0,
            np.where(signs > 0, 7.0, 13.0) / 20.0,
            np.r_[np.full(d - 1, 0.45), 0.5],
        ]
        for x in candidates:
            assert fisher_g(x).degenerate == exactly_in_A(x), (d, x[:4])


def direct_periodogram(x):
    """Defining O(d q) sum with each angle reduced mod d before rounding."""
    x = np.asarray(x, dtype=float)
    d = x.size
    q = num_frequencies(d)
    phase = np.outer(np.arange(1, d + 1), np.arange(1, q + 1)) % d
    roots = np.exp(-2j * np.pi * np.arange(d) / d)
    s = (x[:, None] * roots[phase]).sum(axis=0)
    return (s.real**2 + s.imag**2) / d


@pytest.mark.parametrize("d", [997, 1000, 1001, 2520])
def test_fft_matches_direct_sum_at_large_d(d):
    rng = np.random.default_rng(d)
    rows = np.stack([rng.normal(size=d), rng.integers(0, 21, size=d) / 20.0])
    fast = periodogram_batch(rows)
    assert fast.shape == (2, num_frequencies(d))
    for x, got in zip(rows, fast):
        assert np.allclose(got, direct_periodogram(x), rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("d", [101, 1000, 2520])
def test_unit_spike_ties_resolve_to_first_frequency(d):
    # Every ordinate of a unit spike is exactly 1/d; rounding must not split
    # the tie, wherever the spike sits.
    q = num_frequencies(d)
    for pos in (0, 1, d // 3, d // 2, d - 1):
        x = np.zeros(d)
        x[pos] = 1.0
        stat = fisher_g(x)
        assert stat.argmax_j == 1, pos
        assert stat.value == pytest.approx(1.0 / q, rel=1e-12)
        assert not stat.degenerate


def ordinate_rows(d):
    """Nine rows: random ones, a constant row (row 2), a constant-plus-
    alternating row at even d, and three unit spikes (all ordinates tied)
    last."""
    rng = np.random.default_rng(d)
    rows = [rng.normal(size=d), rng.integers(0, 21, size=d) / 20.0, np.full(d, 0.3)]
    if d % 2 == 0:
        rows.append(np.where(np.arange(d) % 2 == 0, 7.0, 13.0) / 20.0)
    rows += [rng.normal(size=d) for _ in range(6 - len(rows))]
    return np.stack(rows + [np.eye(1, d, pos)[0] for pos in (0, d // 2, d - 1)])


@pytest.mark.parametrize("d", [3, 4, 5, 12, 60, 1001, 2520])
def test_ordinates_and_batch_splits_are_bit_identical(d):
    # The sharded engines and their serial references share this arithmetic,
    # so the worker-count tests cannot see a change to it; this pins it.
    x = ordinate_rows(d)
    coef = np.fft.rfft(x, axis=1)[:, 1 : num_frequencies(d) + 1]
    assert np.array_equal(periodogram_batch(x), (coef.real**2 + coef.imag**2) / d)

    # The shards split a batch into sub-batches whose row count depends on
    # the worker count: a shorter last batch and single rows give the bits
    # of the whole batch.
    whole = fisher_g_batch(x)
    for lo, hi in [(len(x) - 4, len(x))] + [(i, i + 1) for i in range(len(x))]:
        got = fisher_g_batch(x[lo:hi])
        for field, a, b in zip(("values", "argmax", "degenerate"), got, whole):
            assert np.array_equal(a, b[lo:hi]), (d, lo, hi, field)
    _, argmax, degenerate = whole
    assert degenerate[2] and degenerate[3] == (d % 2 == 0) and not degenerate[-3:].any()
    assert np.all(argmax[-3:] == 1)


def batch_row_zero(x):
    """fisher_g_batch on x as a one-row batch: its row 0, or its error text."""
    try:
        values, argmax, degenerate = fisher_g_batch(np.asarray(x)[None, :])
    except ValueError as exc:
        return str(exc)
    return float(values[0]).hex(), int(argmax[0]), bool(degenerate[0])


def single(x):
    """fisher_g on x in the form of batch_row_zero, with the result's types."""
    try:
        stat = fisher_g(x)
    except ValueError as exc:
        return str(exc)
    assert type(stat.value) is float and type(stat.argmax_j) is int
    assert type(stat.degenerate) is bool
    return stat.value.hex(), stat.argmax_j, stat.degenerate


@pytest.mark.parametrize("d", [3, 4, 5, 12, 60, 129, 257, 1001, 2520])
def test_fisher_g_is_row_zero_of_the_batch(d):
    # The one-vector kernel keeps the batch's bits, ties and errors: random
    # and count/blocks rows, a constant, constant-plus-alternating at even d
    # and unit spikes (all ordinates tied), at scales 2^-1000..2^1000, where
    # the largest overflow when squared.
    rows = ordinate_rows(d)
    for k in range(-1000, 1001, 50):
        for x in np.ldexp(rows, k):
            assert single(x) == batch_row_zero(x), (d, k, x[:3])
    assert [single(x)[1:] for x in rows[-3:]] == [(1, False)] * 3  # ties go to j = 1
    for bad in (np.nan, np.inf, -np.inf, 1e200):
        x = rows[0].copy()
        x[d // 2] = bad
        assert single(x) == batch_row_zero(x) == (
            "input has a NaN or infinite value, or overflows when squared"
        ), (d, bad)


def test_fisher_g_takes_only_a_vector():
    for x in (np.ones((2, 3)), np.ones((1, 5)), 0.5):
        with pytest.raises(ValueError, match=r"^expected a vector$"):
            fisher_g(x)
    for x in ([], [1.0, 2.0]):
        with pytest.raises(ValueError, match=r"^d too small \(q would be 0\)$"):
            fisher_g(x)


def _spectral_atol(*ordinate_sets):
    # Shift residue scales with spectral mass; floor the scale at 1.
    return 1e-10 * max(1.0, *(float(v.sum()) for v in ordinate_sets))


vector_st = st.integers(3, 16).flatmap(
    lambda d: st.lists(
        st.floats(-10, 10, allow_nan=False, allow_infinity=False),
        min_size=d,
        max_size=d,
    )
)


@given(x=vector_st, c=st.floats(-100, 100, allow_nan=False, allow_infinity=False))
@settings(max_examples=200)
def test_shift_invariance(x, c):
    x = np.array(x)
    base = periodogram_batch(x)[0]
    shifted = periodogram_batch(x + c)[0]
    atol = _spectral_atol(base, shifted)
    assert np.all(np.abs(base - shifted) <= atol)


@given(x=vector_st, c=st.floats(0.01, 100.0, allow_nan=False))
@settings(max_examples=200)
def test_scale_invariance(x, c):
    x = np.array(x)
    assume(periodogram_batch(x)[0].sum() > 1e-6 * max(1.0, float(x @ x)))
    assert abs(fisher_g(c * x).value - fisher_g(x).value) <= 1e-12


@given(
    x=vector_st,
    a=st.floats(-5, 5, allow_nan=False),
    b=st.floats(-5, 5, allow_nan=False),
    c=st.floats(0.01, 100.0, allow_nan=False),
)
@settings(max_examples=200)
def test_affine_recentering_invariance(x, a, b, c):
    # Recentring by any member of A and rescaling never moves the statistic.
    x = np.array(x)
    d = x.size
    assume(periodogram_batch(x)[0].sum() > 1e-6 * max(1.0, float(x @ x)))
    signs = np.where(np.arange(1, d + 1) % 2 == 0, 1.0, -1.0)
    e = a + (b * signs if d % 2 == 0 else 0.0)
    before = fisher_g(x)
    after = fisher_g(c * (x - e))
    assert after.degenerate == before.degenerate
    assert abs(after.value - before.value) <= 1e-9


@pytest.mark.parametrize(
    "x",
    [
        np.array([1.0, 2.0, 3.0, 1.0, 2.0, 3.0]),
        np.random.default_rng(17).normal(size=60),
        np.r_[np.full(1000, 0.45), 0.5],
    ],
    ids=["period-3", "normal-60", "one-step-1001"],
)
def test_statistic_does_not_depend_on_scale(x):
    # The guard is relative to the energy with no floor, so g is scale-free
    # from 1e-150 (squares near 1e-300) up to 1e150.
    reference = fisher_g(x)
    for k in range(-150, 151, 10):
        stat = fisher_g(10.0**k * x)
        assert not stat.degenerate, k
        assert abs(stat.value - reference.value) <= 1e-12, k


def test_member_of_A_is_degenerate_at_every_scale():
    signs = np.where(np.arange(1, 11) % 2 == 0, 1.0, -1.0)
    for x in (1.3 + 0.4 * signs, np.full(9, 0.4), -2.0 + 5.0 * signs):
        for k in range(-150, 151, 10):
            assert fisher_g(10.0**k * x).degenerate, (x[:2], k)
