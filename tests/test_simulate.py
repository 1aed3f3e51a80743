import math
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from binperiod import nulldist, rng, simulate
from binperiod.nulldist import critical_value
from binperiod.rng import block_words, replication_stream, substream
from binperiod.series import fold
from binperiod.simulate import (
    KINDS,
    PI_DIGITS,
    TABLE_IDS,
    ScenarioSpec,
    build_profile,
    estimate_power,
    iter_table,
    read_scenario,
    simulate_series,
    table_specs,
)
from binperiod.spectral import fisher_g, fisher_g_batch, num_frequencies
from binperiod.theory import PeriodicProfile


def test_pi_digit_table_is_vetted():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 140
    digits = mpmath.nstr(mpmath.pi, 130).split(".")[1][:120]
    assert digits == PI_DIGITS
    assert len(PI_DIGITS) == 120
    assert sum(int(c) for c in PI_DIGITS) == 561  # frozen checksum


def test_arith_step_profile_centering():
    spec = ScenarioSpec(kind="ARITH_STEP", r=3, step=0.01, n=60, d=6)
    assert np.allclose(build_profile(spec).p, [0.49, 0.50, 0.51], atol=1e-12)


def test_sine_profile_collapses_for_r5():
    spec = ScenarioSpec(kind="SINE", r=5, n=60, d=6)
    assert np.allclose(build_profile(spec).p, 0.5, atol=1e-9)


def test_sine_profile_r4():
    spec = ScenarioSpec(kind="SINE", r=4, n=60, d=6)
    p = build_profile(spec).p
    assert p[0] == pytest.approx(0.5)
    assert p[3] == pytest.approx(0.5, abs=1e-9)
    assert p[1] == pytest.approx(0.5 + 0.4 * math.sin(4 * math.pi / 3), abs=1e-12)


def test_endpoints_profile():
    spec = ScenarioSpec(kind="ENDPOINTS", r=2, p_lo=0.4, p_hi=0.6, n=60, d=6)
    assert np.allclose(build_profile(spec).p, [0.4, 0.6], atol=1e-15)
    spec = ScenarioSpec(kind="ENDPOINTS", r=3, p_lo=0.4, p_hi=0.6, n=60, d=6)
    assert np.allclose(build_profile(spec).p, [0.4, 0.5, 0.6], atol=1e-15)


def test_pi_profile_values():
    spec = ScenarioSpec(kind="PI_DIGITS", length=6, n=60, d=6)
    assert np.allclose(build_profile(spec).p, [0.1, 0.4, 0.1, 0.5, 0.9, 0.2])


def test_pi_profile_contains_zero_digits():
    spec = ScenarioSpec(kind="PI_DIGITS", length=120, n=120, d=12)
    with pytest.warns(UserWarning, match="touches 0 or 1"):
        profile = build_profile(spec)
    assert profile.p.min() == 0.0
    assert profile.r == 120


def former_profiles(r):
    """Each fixed kind's profile as build_profile computed it when it was an
    if-chain, written out as the oracle: (ScenarioSpec fields, profile)."""
    idx = np.arange(1, r + 1, dtype=float)
    grid = 4.0 * np.pi * np.arange(r) / (r - 1)

    def arith(step, mean):
        return mean + step * (idx - (r + 1) / 2.0)

    def ends(p_lo, p_hi):
        return p_lo + (p_hi - p_lo) * np.arange(r) / (r - 1)

    def pi(length):
        return np.array([int(c) for c in PI_DIGITS[:length]], dtype=float) / 10.0

    return [
        (dict(kind="CONSTANT", p1=1.0 / r), np.array([1.0 / r], dtype=float)),
        (dict(kind="ARITH_STEP", r=r, step=0.01), arith(0.01, 0.5)),
        (dict(kind="ARITH_STEP", r=r, step=0.013, mean=0.47), arith(0.013, 0.47)),
        (dict(kind="ENDPOINTS", r=r, p_lo=0.4, p_hi=0.6), ends(0.4, 0.6)),
        (dict(kind="ENDPOINTS", r=r, p_lo=0.0, p_hi=1.0), ends(0.0, 1.0)),
        (dict(kind="ENDPOINTS", r=r, p_lo=0.13, p_hi=0.87), ends(0.13, 0.87)),
        (dict(kind="SINE", r=r), 0.4 * np.sin(grid) + 0.5),
        (dict(kind="PI_DIGITS", length=6), pi(6)),
        (dict(kind="PI_DIGITS", length=120), pi(120)),
    ]


@pytest.mark.parametrize("r", [2, 3, 7, 30])
def test_profiles_keep_their_bits(r):
    cases = former_profiles(r)
    assert {cell["kind"] for cell, _ in cases} == set(KINDS) - {"RANDOM_IID"}
    for cell, expected in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            p = build_profile(ScenarioSpec(n=120, d=6, **cell)).p
        assert np.array_equal(p, expected), cell


def test_table_ids_are_pinned():
    # The CLI's table choices, in this order.
    assert TABLE_IDS == ("T1", "T2", "T3", "T4", "T5", "PI")


def test_random_iid_is_the_constant_profile_one_half():
    # A uniform p_i for each Y_i makes the Y_i i.i.d. Bernoulli(1/2), so the
    # engine draws RANDOM_IID exactly as CONSTANT p1 = 0.5, also where n
    # leaves a discarded tail.
    assert build_profile(ScenarioSpec(kind="RANDOM_IID", n=60, d=6)).p.tolist() == [0.5]
    for n in (1200, 1210):
        for seed in range(5):
            common = dict(n=n, d=60, replications=2000, seed=seed)
            iid = estimate_power(ScenarioSpec(kind="RANDOM_IID", **common))
            half = estimate_power(ScenarioSpec(kind="CONSTANT", p1=0.5, **common))
            assert iid.rejections == half.rejections, (n, seed)


def test_profile_out_of_range_rejected():
    # ARITH_STEP is the one kind whose fields do not bound its profile: the
    # spec itself refuses a profile that leaves [0,1], or a non-finite step.
    for step in (0.04, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"ARITH_STEP\[.*\] has a probability outside \[0,1\]"):
            ScenarioSpec(kind="ARITH_STEP", r=30, step=step, n=60, d=6)


def test_arith_step_spec_agrees_with_its_profile():
    # The spec reads only p_1 and p_r; the profile checks every p_i.
    for r in (2, 3, 7, 30, 101):
        for step in (0.0, 0.005, 0.01, 1.0 / (r - 1), 0.034, -0.02, 0.5, 1.0):
            for mean in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
                fields = dict(kind="ARITH_STEP", r=r, step=step, mean=mean, n=120, d=6)
                probs = mean + step * (np.arange(1, r + 1) - (r + 1) / 2.0)
                in_range = bool(np.all((probs >= 0.0) & (probs <= 1.0)))
                try:
                    spec = ScenarioSpec(**fields)
                except ValueError:
                    assert not in_range, fields
                    continue
                assert in_range, fields
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    assert np.array_equal(build_profile(spec).p, probs)


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown scenario kind"):
        ScenarioSpec(kind="NOISE", n=60, d=6)
    with pytest.raises(ValueError, match="d too small"):
        ScenarioSpec(kind="CONSTANT", p1=0.5, n=60, d=2)
    with pytest.raises(ValueError, match="shorter than d"):
        ScenarioSpec(kind="CONSTANT", p1=0.5, n=5, d=6)
    with pytest.raises(ValueError, match="d too small"):  # d's own rule comes first
        ScenarioSpec(kind="CONSTANT", p1=0.5, n=1, d=2)
    with pytest.raises(ValueError, match="invalid level"):
        ScenarioSpec(kind="CONSTANT", p1=0.5, n=60, d=6, alpha=1.5)
    with pytest.raises(ValueError, match="needs p1"):
        ScenarioSpec(kind="CONSTANT", n=60, d=6)
    with pytest.raises(ValueError, match="length"):
        ScenarioSpec(kind="PI_DIGITS", length=500, n=600, d=6)


def test_simulate_series_degenerate_profiles():
    with pytest.warns(UserWarning):
        zeros = PeriodicProfile([0.0])
        ones = PeriodicProfile([1.0])
    assert not simulate_series(zeros, 50, substream(1, 0)).values.any()
    assert simulate_series(ones, 50, substream(1, 0)).values.all()


def test_simulate_series_reads_n_by_the_scenario_rule():
    with pytest.raises(ValueError, match=f"^n must be >= 1 and <= {sys.maxsize // 2}$"):
        simulate_series(PeriodicProfile([0.5]), 2**70, substream(0, 0))


def test_simulate_series_working_set_is_bounded():
    # The profile repeated to n doubles, n uniform doubles and their compare:
    # 17 bytes a value. Repeating by concatenation held 40.7 MB at n = 10^6.
    profile = PeriodicProfile([0.5])
    n = 10**6
    simulate_series(profile, 1000, substream(0, 0))  # one-off first-call allocations
    tracemalloc.start()
    try:
        simulate_series(profile, n, substream(0, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 18 * n


def test_simulate_series_deterministic():
    profile = PeriodicProfile([0.2, 0.8])
    a = simulate_series(profile, 200, substream(42, 7)).values
    b = simulate_series(profile, 200, substream(42, 7)).values
    assert np.array_equal(a, b)
    c = simulate_series(profile, 200, substream(42, 8)).values
    assert not np.array_equal(a, c)


def test_estimate_power_deterministic():
    # n = 120 fills whole counter blocks; n = 122 leaves two words of padding
    # per replication.
    specs = [
        ScenarioSpec(kind="PI_DIGITS", length=120, n=120, d=12, replications=300, seed=11),
        ScenarioSpec(kind="ARITH_STEP", r=4, step=0.2, n=122, d=12, replications=300, seed=11),
        ScenarioSpec(kind="RANDOM_IID", n=122, d=12, replications=300, seed=11),
    ]
    for spec in specs:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            first = estimate_power(spec)
            second = estimate_power(spec)
        assert first.rejections == second.rejections
        assert first.rate == first.rejections / spec.replications
        assert first.std_error == pytest.approx(
            math.sqrt(first.rate * (1 - first.rate) / spec.replications)
        )


def test_estimate_power_needs_no_exact_tail(monkeypatch):
    # The engine rejects at the one-term critical value, which is closed form.
    spec = ScenarioSpec(kind="ARITH_STEP", r=4, step=0.2, n=122, d=12, replications=300, seed=11)
    expected = estimate_power(spec).rejections

    def no_tail(q, x):
        raise AssertionError("estimate_power evaluated the exact tail")

    monkeypatch.setattr(nulldist, "tail", no_tail)
    assert estimate_power(spec).rejections == expected


@pytest.mark.parametrize("width", [1, 5, 122, 244])
def test_replication_blocks_tile_one_stream(width):
    words = block_words(width)
    assert words % 4 == 0 and width <= words < width + 4
    rows = replication_stream(3, 0, width).random((6, words))
    for k in range(6):
        assert np.array_equal(replication_stream(3, k, width).random(width), rows[k, :width])


@pytest.mark.parametrize("kind", ["ARITH_STEP", "RANDOM_IID"])
def test_replication_replays_alone(kind):
    spec = ScenarioSpec(kind=kind, r=4, step=0.2, n=122, d=12, replications=60, seed=6)
    k_alpha = critical_value(num_frequencies(spec.d), spec.alpha).approx
    profile = build_profile(spec)
    decisions = []
    for k in range(spec.replications):
        rng = replication_stream(spec.seed, k, spec.n)
        series = simulate_series(profile, spec.n, rng)
        decisions.append(int(fisher_g(fold(series, spec.d).z).value > k_alpha))
    assert 0 < sum(decisions) < len(decisions)
    # Every prefix of a run is the shorter run, so the running counts pin
    # each replication's decision, not only their sum.
    prefix_counts = [
        estimate_power(replace(spec, replications=m)).rejections
        for m in range(1, spec.replications + 1)
    ]
    assert prefix_counts == np.cumsum(decisions).tolist()
    assert prefix_counts[-1] == estimate_power(spec).rejections


def test_estimate_power_working_set_is_bounded():
    # One replication at n = 10^5 is 10^5 words (0.8 MB); a batch of all 16
    # rows at once would hold 12.8 MB. At n = 2*10^5 the cell's threshold row
    # (1.6 MB) is built once, not once per shard, and the profile is not
    # repeated to n doubles: that held 7.6 MiB for CONSTANT. The first call of
    # a process also makes one-off allocations (the shards' thread pool
    # import), so the first cell runs once before it is measured.
    common = dict(d=60, replications=16, seed=1)
    specs = [
        ScenarioSpec(kind="RANDOM_IID", n=100_000, **common),
        ScenarioSpec(kind="CONSTANT", p1=0.5, n=200_000, **common),
        ScenarioSpec(kind="ARITH_STEP", r=20, step=0.01, n=200_000, **common),
    ]
    estimate_power(specs[0])
    for spec in specs:
        tracemalloc.start()
        try:
            estimate_power(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, spec.label()


# Every spec has at least three batches, so that it runs on as many shards as
# CPUs, up to three or more.
SHARDED_SPECS = [
    ScenarioSpec(kind="PI_DIGITS", length=120, n=120, d=12, replications=2500, seed=11),
    ScenarioSpec(kind="ARITH_STEP", r=4, step=0.2, n=122, d=12, replications=2500, seed=11),
    ScenarioSpec(kind="RANDOM_IID", n=122, d=12, replications=2500, seed=11),
    ScenarioSpec(kind="ARITH_STEP", r=20, step=0.01, n=1200, d=60, replications=2000, seed=3),
    ScenarioSpec(kind="RANDOM_IID", n=1200, d=60, replications=2000, seed=3),
]


@pytest.mark.parametrize("spec", SHARDED_SPECS, ids=lambda spec: f"{spec.kind}-{spec.n}")
def test_counts_do_not_depend_on_worker_count(monkeypatch, spec):
    rows = rng._BATCH_WORDS // block_words(spec.n)
    batches = -(-spec.replications // rows)
    assert batches >= 3
    starts = []

    def recording_stream(seed, index, width):
        starts.append(index)
        return replication_stream(seed, index, width)

    monkeypatch.setattr(simulate, "replication_stream", recording_stream)
    counts = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the shards as finely as we can
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            for workers in (1, 2, 3, 8):
                monkeypatch.setattr(rng, "_cpu_count", lambda: workers)
                starts.clear()
                counts.append(estimate_power(spec).rejections)
                # One stream per shard, at the shard's first replication.
                shards = min(workers, batches)
                assert sorted(starts) == [spec.replications * i // shards for i in range(shards)]
    finally:
        sys.setswitchinterval(interval)
    assert counts == [counts[0]] * 4


@pytest.mark.parametrize("kind", ["ARITH_STEP", "RANDOM_IID"])
def test_prefix_counts_match_on_three_workers(monkeypatch, kind):
    # test_replication_replays_alone pins the serial prefix counts to the
    # replayed decisions. Two-row batches put every prefix of five or more
    # replications on three shards, which split the cell's two batches into
    # one-row batches.
    spec = ScenarioSpec(kind=kind, r=4, step=0.2, n=122, d=12, replications=60, seed=6)
    monkeypatch.setattr(rng, "_BATCH_WORDS", 2 * block_words(spec.n))

    def prefix_counts(workers):
        monkeypatch.setattr(rng, "_cpu_count", lambda: workers)
        return [
            estimate_power(replace(spec, replications=m)).rejections
            for m in range(1, spec.replications + 1)
        ]

    assert prefix_counts(3) == prefix_counts(1)


def test_helper_exception_reaches_caller(monkeypatch):
    spec = ScenarioSpec(kind="ARITH_STEP", r=20, step=0.01, n=1200, d=60, replications=2000, seed=3)
    monkeypatch.setattr(rng, "_cpu_count", lambda: 2)
    outcome, threads = [], set()

    def failing_in_helpers(x):
        threads.add(threading.current_thread())
        if threading.current_thread() is not caller:
            raise RuntimeError("shard 1 failed")
        return fisher_g_batch(x)

    def call():
        try:
            estimate_power(spec)
        except RuntimeError as exc:
            outcome.append(exc)

    monkeypatch.setattr(simulate, "fisher_g_batch", failing_in_helpers)
    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert [str(exc) for exc in outcome] == ["shard 1 failed"]
    assert len(threads) == 2


def test_caller_failure_joins_helpers(monkeypatch):
    spec = ScenarioSpec(kind="ARITH_STEP", r=20, step=0.01, n=1200, d=60, replications=2000, seed=3)
    monkeypatch.setattr(rng, "_cpu_count", lambda: 2)
    threads = set()

    def failing_in_caller(x):
        threads.add(threading.current_thread())
        if threading.current_thread() is threading.main_thread():
            raise RuntimeError("shard 0 failed")
        time.sleep(0.02)  # keeps the helper busy well after shard 0 fails
        return fisher_g_batch(x)

    monkeypatch.setattr(simulate, "fisher_g_batch", failing_in_caller)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="shard 0 failed"):
        estimate_power(spec)
    assert not [t for t in threading.enumerate() if t not in before and t.is_alive()]
    assert len(threads) == 2


@pytest.mark.parametrize("kind", ["ARITH_STEP", "RANDOM_IID"])
def test_working_set_does_not_grow_with_workers(monkeypatch, kind):
    # Two shards hold two batches (about 2.7 MiB at n = 1200); eight shards
    # share the same budget instead of holding eight batches (about 9 MiB).
    # The blocks of fold means shrink with the shards' share too; a fixed
    # 1024-row block per shard exceeds the bound. The first call of a
    # process also makes one-off allocations (5.0 MiB in all), so the first
    # cell runs once before it is measured.
    monkeypatch.setattr(rng, "_cpu_count", lambda: 8)
    specs = [
        ScenarioSpec(kind=kind, r=20, step=0.01, n=1200, d=60, replications=reps, seed=3)
        for reps in (2000, 20000)
    ]
    estimate_power(specs[0])
    for spec in specs:
        tracemalloc.start()
        try:
            estimate_power(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 2**20, spec.replications


def test_wide_replications_run_serially(monkeypatch):
    # Eight shards of a working-set spec would hold eight rows. At n = 10^5
    # the budget holds two 0.8 MB rows, so two shards run; at n = 2*10^5 a
    # 1.6 MB row is wider than half the budget, so one shard opens one stream.
    monkeypatch.setattr(rng, "_cpu_count", lambda: 8)
    starts = []

    def recording_stream(seed, index, width):
        starts.append(index)
        return replication_stream(seed, index, width)

    monkeypatch.setattr(simulate, "replication_stream", recording_stream)
    for n, streams in ((100_000, [0, 8]), (200_000, [0])):
        spec = ScenarioSpec(kind="RANDOM_IID", n=n, d=60, replications=16, seed=1)
        starts.clear()
        tracemalloc.start()
        try:
            estimate_power(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, n
        assert sorted(starts) == streams, n


def former_rejections(spec: ScenarioSpec) -> int:
    """Rejections of ``spec`` by the engine's former loop, run serially: a
    fresh comparison, an int64 fold and one statistic call per batch."""
    n, d = spec.n, spec.d
    probs = np.resize(build_profile(spec).p, n)
    k_alpha = nulldist._approx_critical_value(num_frequencies(d), spec.alpha)
    blocks = n // d
    rows = max(1, 2**17 // block_words(n))
    rng = replication_stream(spec.seed, 0, n)
    buf = np.empty((min(rows, spec.replications), block_words(n)))
    start, stop, rejections = 0, spec.replications, 0
    while start < stop:
        m = min(rows, stop - start)
        u = rng.random(out=buf[:m])
        bits = u[:, :n] < probs
        counts = bits[:, : blocks * d].reshape(m, blocks, d).sum(axis=1)
        values, _, _ = fisher_g_batch(counts / blocks)
        rejections += int(np.count_nonzero(values > k_alpha))
        start += m
    return rejections


ENGINE_SPECS = [
    ScenarioSpec(kind="CONSTANT", p1=0.3, n=1200, d=60, replications=2000, seed=8),
    ScenarioSpec(kind="ARITH_STEP", r=20, step=0.01, n=1200, d=60, replications=2000, seed=8),
    ScenarioSpec(kind="ENDPOINTS", r=4, p_lo=0.4, p_hi=0.6, n=1200, d=60, replications=2000,
                 seed=8),
    ScenarioSpec(kind="SINE", r=6, n=1200, d=60, replications=2000, seed=8),
    ScenarioSpec(kind="PI_DIGITS", length=120, n=120, d=12, replications=5000, seed=8),
    ScenarioSpec(kind="RANDOM_IID", n=1200, d=60, replications=2000, seed=8),
    # A discarded tail of ten positions.
    ScenarioSpec(kind="ARITH_STEP", r=7, step=0.02, n=1210, d=60, replications=2000, seed=8),
    ScenarioSpec(kind="RANDOM_IID", n=1210, d=60, replications=2000, seed=8),
    # 2,003 replications leave every shard a short last block.
    ScenarioSpec(kind="SINE", r=4, n=1200, d=60, replications=2003, seed=8),
    # p = 0 and p = 1, whose integer threshold wraps to 0. With r coprime to
    # d the count is not saturated, so bits lost at p = 1 move it (118 to 106).
    ScenarioSpec(kind="ENDPOINTS", r=7, p_lo=0.0, p_hi=1.0, n=1200, d=60, replications=2000,
                 seed=8),
    # 67,000 blocks: a fold count near 65,536 wraps in a 16-bit accumulator
    # in about half of the positions, which took all 3 rejections to 0.
    ScenarioSpec(kind="CONSTANT", p1=65536 / 67000, n=7 * 67000, d=7, replications=30, seed=0),
    # 400 blocks: the in-place halving stops at 128 blocks a byte, and four
    # rows are left for the int64 sum (86 rejections).
    ScenarioSpec(kind="ARITH_STEP", r=5, step=0.01, n=2000, d=5, replications=2000, seed=8),
]


@pytest.mark.parametrize(
    "spec", ENGINE_SPECS, ids=lambda spec: f"{spec.label()}-{spec.n}-{spec.replications}"
)
def test_counts_match_former_batch_loop(monkeypatch, spec):
    counts = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the shards as finely as we can
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            expected = former_rejections(spec)
            for workers in (1, 2, 3, 8):
                monkeypatch.setattr(rng, "_cpu_count", lambda: workers)
                counts.append(estimate_power(spec).rejections)
    finally:
        sys.setswitchinterval(interval)
    assert counts == [expected] * 4


def test_thresholds_decide_as_the_double_compare():
    # Column j holds the words around p_j's threshold T_j * 2^11 and the
    # extreme words, each with the decision Generator.random's double gives.
    p = [0.0, 2**-53, 0.1, 0.5, 1 - 2**-53, 1.0]
    thresholds, certain = simulate._thresholds(p, len(p))
    edges = [math.ceil(x * 2**53) * 2**11 for x in p]
    assert thresholds.tolist() == [edge % 2**64 for edge in edges]
    assert certain.tolist() == [5]
    words = np.array(
        [[min(max(w, 0), 2**64 - 1) for w in (0, edge - 1, edge, 2**64 - 1)] for edge in edges],
        dtype=np.uint64,
    ).T
    bits = words < thresholds
    bits[:, certain] = True
    assert bits.tolist() == ((words >> np.uint64(11)) * 2.0**-53 < np.array(p)).tolist()
    # A profile repeated to a length that cuts its last period, after a 1.0.
    thresholds, certain = simulate._thresholds([0.25, 1.0, 0.5], 7)
    p = [0.25, 1.0, 0.5, 0.25, 1.0, 0.5, 0.25]
    assert thresholds.tolist() == [math.ceil(x * 2**53) * 2**11 % 2**64 for x in p]
    assert certain.tolist() == [1, 4]


# Rejections of every T1-T5 and PI cell at 2,000 replications, seed 0, as
# the engine drew them from doubles; the integer compares must not move one.
TABLE_COUNTS = {
    "T1": [80, 117, 83, 98, 100, 87, 107, 92, 101],
    "T2": [97, 84, 99, 109, 91, 98, 92, 90, 147, 88, 158, 95, 92, 280, 95, 85, 116, 89, 612,
           103, 90, 107, 164, 106, 89, 100, 86, 92, 1471],
    "T3": [96, 92, 126, 156, 175, 102, 123, 95, 630, 79, 1016, 94, 84, 1516, 128, 115, 206, 95,
           1939, 88, 92, 104, 1083, 174, 104, 109, 120, 247, 2000],
    "T4": [100, 1948, 1697, 1364, 1202, 96, 205, 117, 842, 79, 803, 81, 99, 745, 100, 104, 111,
           90, 701, 103, 87, 106, 139, 100, 88, 97, 103, 105, 665],
    "T5": [100, 100, 2000, 100, 2000, 72, 2000, 2000, 2000],
    "PI": [104],
}


@pytest.mark.parametrize("table_id", list(TABLE_COUNTS))
def test_table_counts_are_pinned(table_id):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        counts = [est.rejections for est in iter_table(table_id, replications=2000, seed=0)]
    assert counts == TABLE_COUNTS[table_id]


def test_statistic_runs_once_per_block_of_batches(monkeypatch):
    # One call per 109-row batch made 184 calls on two workers.
    calls = []

    def counting(x):
        calls.append(len(x))
        return fisher_g_batch(x)

    monkeypatch.setattr(simulate, "fisher_g_batch", counting)
    monkeypatch.setattr(rng, "_cpu_count", lambda: 2)
    spec = ScenarioSpec(kind="ARITH_STEP", r=20, step=0.01, n=1200, d=60, replications=20000)
    estimate_power(spec)
    assert sum(calls) == spec.replications
    assert len(calls) <= 184 // 4


def test_benchmark_workloads_keep_their_plan(monkeypatch):
    # (shards, rows per batch, rows per statistic call) on two CPUs for the
    # table cells and the sampler call that the benchmark runs.
    monkeypatch.setattr(rng, "_cpu_count", lambda: 2)
    batches, sizes = [], []
    count_rejections, draw_groups = simulate._count_rejections, nulldist._draw_groups

    def recording_count(spec, thresholds, certain, k_alpha, start, stop, rows):
        batches.append(rows)
        return count_rejections(spec, thresholds, certain, k_alpha, start, stop, rows)

    def recording_draw(seed, w, out, first, stop, batch):
        batches.append(batch)
        return draw_groups(seed, w, out, first, stop, batch)

    def recording_statistic(x):
        sizes.append(len(x))
        return fisher_g_batch(x)

    def plan():
        recorded = (len(batches), max(batches), max(sizes))
        batches.clear()
        sizes.clear()
        return recorded

    monkeypatch.setattr(simulate, "_count_rejections", recording_count)
    monkeypatch.setattr(nulldist, "_draw_groups", recording_draw)
    monkeypatch.setattr(simulate, "fisher_g_batch", recording_statistic)
    monkeypatch.setattr(nulldist, "fisher_g_batch", recording_statistic)
    common = dict(n=1200, d=60, replications=20000, seed=1)
    estimate_power(ScenarioSpec(kind="ARITH_STEP", r=20, step=0.01, **common))
    assert plan() == (2, 109, 436)
    estimate_power(ScenarioSpec(kind="RANDOM_IID", **common))
    assert plan() == (2, 109, 436)
    with pytest.warns(UserWarning, match="touches 0 or 1"):
        estimate_power(ScenarioSpec(kind="PI_DIGITS", length=120, **dict(common, n=120, d=12)))
    assert plan() == (2, 1092, 2184)
    nulldist.sample_limit_statistic(2520, np.ones(2520), 1000, seed=1)
    assert plan() == (2, 52, 52)


def test_null_level_is_close_to_alpha():
    spec = ScenarioSpec(kind="CONSTANT", p1=0.5, n=1200, d=60, replications=2000, seed=5)
    est = estimate_power(spec)
    assert abs(est.rate - 0.05) <= 0.02


def test_coprime_periods_look_null():
    for r in (7, 11, 13):
        spec = ScenarioSpec(
            kind="ARITH_STEP", r=r, step=0.01, n=1200, d=60, replications=4000, seed=2
        )
        est = estimate_power(spec)
        assert abs(est.rate - 0.05) <= 3.0 * est.std_error + 0.005


def test_larger_step_larger_power_on_matched_seeds():
    for r in (10, 12, 15, 20, 24, 30):
        small = estimate_power(
            ScenarioSpec(
                kind="ARITH_STEP", r=r, step=0.01, n=1200, d=60, replications=4000, seed=3
            )
        )
        large = estimate_power(
            ScenarioSpec(
                kind="ARITH_STEP", r=r, step=0.02, n=1200, d=60, replications=4000, seed=3
            )
        )
        assert large.rate >= small.rate


def test_random_iid_keeps_level():
    spec = ScenarioSpec(kind="RANDOM_IID", n=1200, d=60, replications=10000, seed=9)
    est = estimate_power(spec)
    assert abs(est.rate - 0.05) <= 0.01


def test_table_specs_layout():
    assert [s.p1 for s in table_specs("T1")] == pytest.approx(
        [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    )
    assert [s.r for s in table_specs("T2")] == list(range(2, 31))
    assert {s.step for s in table_specs("T3")} == {0.02}
    assert {(s.p_lo, s.p_hi) for s in table_specs("T4")} == {(0.4, 0.6)}
    assert [s.r for s in table_specs("T5")] == list(range(2, 11))
    pi_spec = table_specs("PI")[0]
    assert (pi_spec.n, pi_spec.d, pi_spec.length) == (120, 12, 120)
    with pytest.raises(ValueError, match="unknown table"):
        table_specs("T9")


def test_run_table_smoke():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        estimates = list(iter_table("PI", replications=200, seed=1))
    assert len(estimates) == 1
    assert estimates[0].scenario.label() == "PI_DIGITS[length=120]"


def test_scenario_file_round_trip(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text(
        "# alternating endpoints scenario\n"
        "kind = endpoints\n"
        "r = 4\n"
        "p_lo = 0.4\n"
        "p_hi = 0.6\n"
        "n = 1200\n"
        "d = 60\n"
        "alpha = 0.05\n"
        "replications = 50\n"
        "seed = 13\n"
    )
    spec = read_scenario(path)
    assert spec == ScenarioSpec(
        kind="ENDPOINTS", r=4, p_lo=0.4, p_hi=0.6, n=1200, d=60,
        alpha=0.05, replications=50, seed=13,
    )


def test_scenario_file_unknown_key(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text("kind = constant\np1 = 0.5\nn = 60\nd = 6\nfoo = 1\n")
    with pytest.raises(ValueError, match="unknown scenario key 'foo'"):
        read_scenario(path)


def test_scenario_file_bad_value_names_line_and_key(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text("kind = constant\np1 = 0.5\nn = 60\nd = sixty\n")
    with pytest.raises(ValueError, match="line 4: cannot read d = 'sixty'"):
        read_scenario(path)


@pytest.mark.parametrize(
    "key, value, rule",
    [
        pytest.param("seed", "-1", "seed must be >= 0", id="-1"),
        pytest.param("seed", str(2**64), "seed must be >= 0", id=str(2**64)),
        pytest.param("n", "0", "n must be >= 1", id="n=0"),
        pytest.param("d", "2", "d too small", id="d=2"),
        pytest.param("r", "1", "r must be >= 2", id="r=1"),
        pytest.param("length", "121", "length must be >= 1 and <= 120", id="length=121"),
        pytest.param("replications", "0", "replications must be >= 1", id="replications=0"),
        pytest.param("p1", "1.5", r"p1 must be in \[0,1\]", id="p1=1.5"),
        pytest.param("alpha", "0", "invalid level", id="alpha=0"),
        pytest.param("p_lo", "-0.1", r"p_lo must be in \[0,1\]", id="p_lo=-0.1"),
        pytest.param("mean", "2", r"mean must be in \[0,1\]", id="mean=2"),
    ],
)
def test_scenario_file_seed_out_of_range_names_line(tmp_path, key, value, rule):
    # Every value of a file is checked at its line, by the rule ScenarioSpec
    # applies, even a seed that the CLI's --seed replaces.
    kinds = {"r": "sine", "length": "pi_digits", "p1": "constant", "p_lo": "endpoints",
             "mean": "arith_step"}
    kind = kinds.get(key, "random_iid")
    rest = [f"{k} = {v}" for k, v in (("n", 60), ("d", 6)) if k != key]
    path = tmp_path / "scenario.txt"
    path.write_text("\n".join([f"kind = {kind}", "# values", f"{key} = {value}", *rest]) + "\n")
    with pytest.raises(ValueError, match=f"line 3: cannot read {key} = '{value}': {rule}"):
        read_scenario(path)


def test_scenario_file_line_without_separator(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text("kind = constant\np1 0.5\nn = 60\nd = 6\n")
    with pytest.raises(ValueError, match="line 2: expected 'key = value', got 'p1 0.5'"):
        read_scenario(path)


def test_scenario_file_repeated_key(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text("kind = constant\np1 = 0.5\nn = 60\nd = 60\nd = 12\n")
    with pytest.raises(ValueError, match="line 5: repeated scenario key 'd'"):
        read_scenario(path)


def test_scenario_file_missing_required(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text("kind = constant\np1 = 0.5\nd = 6\n")
    with pytest.raises(ValueError, match="missing 'n'"):
        read_scenario(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("kind = sine\nr = 4\nstep = 0.5\nn = 60\nd = 6\n", "line 3: SINE has no parameter 'step'"),
        ("r = 4\nkind = random_iid\nn = 60\nd = 6\n", "line 1: RANDOM_IID has no parameter 'r'"),
        ("kind = constant\np1 = 0.5\nn = 60\nd = 6\nmean = 0.5\n", "line 5: CONSTANT has no parameter 'mean'"),
    ],
    ids=["sine-step", "random_iid-r", "constant-mean"],
)
def test_scenario_file_rejects_another_kinds_key(tmp_path, text, message):
    path = tmp_path / "scenario.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_scenario(path)


def test_label_and_period_of_every_kind():
    common = dict(n=60, d=6)
    cases = [
        (ScenarioSpec(kind="CONSTANT", p1=0.25, **common), "CONSTANT[p1=0.25]", 1),
        (
            ScenarioSpec(kind="ARITH_STEP", r=30, step=0.01, **common),
            "ARITH_STEP[r=30 step=0.01 mean=0.5]",
            30,
        ),
        (
            ScenarioSpec(kind="ENDPOINTS", r=4, p_lo=0.4, p_hi=1e-7, **common),
            "ENDPOINTS[r=4 p_lo=0.4 p_hi=1e-07]",
            4,
        ),
        (ScenarioSpec(kind="SINE", r=10**7, **common), "SINE[r=10000000]", 10**7),
        (ScenarioSpec(kind="PI_DIGITS", length=120, **common), "PI_DIGITS[length=120]", 120),
        (ScenarioSpec(kind="RANDOM_IID", **common), "RANDOM_IID", 0),
    ]
    assert [spec.kind for spec, _, _ in cases] == list(KINDS)
    for spec, label, period in cases:
        assert (spec.label(), spec.profile_period()) == (label, period)


def test_labels_are_csv_safe():
    for table in ("T1", "T2", "T4", "T5", "PI"):
        for spec in table_specs(table):
            assert "," not in spec.label()


# Values past what the engine can index: n so large that 2n words overflow an
# index, or a replication index past 64 bits. Only values above the bounds
# are tried; an accepted huge n would build a profile of n/r references.
_BEYOND_INDEX = [
    pytest.param("n", sys.maxsize // 2 + 1, sys.maxsize // 2, id="n=maxsize//2+1"),
    pytest.param("n", 10**400, sys.maxsize // 2, id="n=10^400"),
    pytest.param("replications", 2**64 + 1, 2**64, id="reps=2^64+1"),
    pytest.param("replications", 10**400, 2**64, id="reps=10^400"),
]


@pytest.mark.parametrize("key, value, bound", _BEYOND_INDEX)
def test_spec_refuses_values_beyond_the_index_range(key, value, bound):
    with pytest.raises(ValueError, match=f"^{key} must be >= 1 and <= {bound}$"):
        ScenarioSpec(kind="CONSTANT", p1=0.5, **{"n": 60, "d": 6, key: value})


@pytest.mark.parametrize("key, value, bound", _BEYOND_INDEX)
def test_scenario_file_value_beyond_the_index_range_names_line(tmp_path, key, value, bound):
    rest = [f"{k} = {v}" for k, v in (("n", 60), ("d", 6)) if k != key]
    path = tmp_path / "scenario.txt"
    path.write_text("\n".join(["kind = constant", "p1 = 0.5", f"{key} = {value}", *rest]) + "\n")
    message = f"line 3: cannot read {key} = '{value}': {key} must be >= 1 and <= {bound}"
    with pytest.raises(ValueError, match=message):
        read_scenario(path)


def test_replication_stream_refuses_an_index_past_64_bits():
    with pytest.raises(ValueError, match="index must be >= 0 and <= 18446744073709551615"):
        replication_stream(0, 2**64, 1200)
