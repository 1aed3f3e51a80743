"""Scenario generators and the seeded Monte Carlo rejection-rate engine."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from time import perf_counter

import numpy as np

from .nulldist import _approx_critical_value
from .rng import _MAX_LENGTH, _UINT64_MAX, _as_int, _run_shards, block_words, replication_stream
from .series import BinarySeries, _fold_counts
from .spectral import _fold_length, fisher_g_batch, num_frequencies
from .theory import PeriodicProfile

__all__ = [
    "PI_DIGITS",
    "PowerEstimate",
    "ScenarioSpec",
    "build_profile",
    "estimate_power",
    "iter_table",
    "read_scenario",
    "simulate_series",
    "table_specs",
]

# First 120 decimal digits of pi; the test suite checks this literal against
# an independently computed value.
PI_DIGITS = (
    "141592653589793238462643383279502884197169399375105820974944"
    "592307816406286208998628034825342117067982148086513282306647"
)


def _arith_step(s, i):
    """ARITH_STEP's p_i, monotone in i: its extremes are p_1 and p_r."""
    return s.mean + s.step * (i - (s.r + 1) / 2.0)


# Each kind's parameters, in label order, and its profile as a formula of the
# spec. RANDOM_IID draws each p_i uniformly and then Y_i ~ Bernoulli(p_i), so
# its observations are i.i.d. Bernoulli(1/2): the constant profile 1/2.
_KINDS = {
    "CONSTANT": (("p1",), lambda s: np.array([s.p1], dtype=float)),
    "ARITH_STEP": (("r", "step", "mean"), lambda s: _arith_step(s, np.arange(1, s.r + 1))),
    "ENDPOINTS": (
        ("r", "p_lo", "p_hi"),
        lambda s: s.p_lo + (s.p_hi - s.p_lo) * np.arange(s.r) / (s.r - 1),
    ),
    "SINE": (("r",), lambda s: 0.4 * np.sin(4.0 * np.pi * np.arange(s.r) / (s.r - 1)) + 0.5),
    "PI_DIGITS": (("length",), lambda s: np.array([int(c) / 10.0 for c in PI_DIGITS[: s.length]])),
    "RANDOM_IID": ((), lambda s: np.array([0.5])),
}
KINDS = tuple(_KINDS)

# Each field's type and range (None: unbounded), applied by _check: d's one
# check is spectral._fold_length, and alpha's range is open. replications keeps
# every replication index in 64 bits.
# ScenarioSpec stores the integers as Python ints; label() prints floats with :g.
_RULES = {
    "n": (int, 1, _MAX_LENGTH), "replications": (int, 1, 2**64), "seed": (int, 0, _UINT64_MAX),
    "r": (int, 2, None), "length": (int, 1, len(PI_DIGITS)), "d": (int, None, None),
    "alpha": (float, 0.0, 1.0), "step": (float, None, None), "p1": (float, 0.0, 1.0),
    "mean": (float, 0.0, 1.0), "p_lo": (float, 0.0, 1.0), "p_hi": (float, 0.0, 1.0),
}


def _check(name: str, value):
    """Return a field's value by its rule in ``_RULES``, or raise a ValueError."""
    if name == "d":
        return _fold_length(value)
    type_, lo, hi = _RULES[name]
    if type_ is int:
        return _as_int(name, value, lo, hi)
    if name == "alpha" and not lo < value < hi:
        raise ValueError("invalid level")
    if lo is not None and not lo <= value <= hi:
        raise ValueError(f"{name} must be in [{lo:g},{hi:g}]")
    return value


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation scenario: profile construction plus run parameters.

    Kind-specific fields (each kind's list and profile formula are in
    ``_KINDS``): CONSTANT uses ``p1``; ARITH_STEP uses ``r``, ``step`` and
    ``mean`` (probabilities in arithmetic progression with the given mean);
    ENDPOINTS uses ``r``, ``p_lo``, ``p_hi`` (linear interpolation); SINE
    uses ``r`` (two full sine periods sampled on an inclusive equidistant
    grid); PI_DIGITS uses ``length`` (p_i = digit_i/10); RANDOM_IID takes no
    parameter: a p_i drawn uniformly for each Y_i makes the Y_i i.i.d.
    Bernoulli(1/2), so it runs as the constant profile 1/2.
    """

    kind: str
    n: int
    d: int
    alpha: float = 0.05
    replications: int = 20000
    seed: int = 0
    p1: float | None = None
    r: int | None = None
    step: float | None = None
    mean: float = 0.5
    p_lo: float | None = None
    p_hi: float | None = None
    length: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        for name in ("n", "replications", "seed", *_KINDS[self.kind][0]):
            value = getattr(self, name)
            if value is None:
                raise ValueError(f"{self.kind} needs {name}")
            object.__setattr__(self, name, _check(name, value))
        object.__setattr__(self, "d", _fold_length(self.d, self.n))
        _check("alpha", self.alpha)
        ends = (1, self.r) if self.kind == "ARITH_STEP" else ()
        if not all(0.0 <= _arith_step(self, i) <= 1.0 for i in ends):
            raise ValueError(f"{self.label()} has a probability outside [0,1]")

    def profile_period(self) -> int:
        """Length of the repeating profile: the kind's first parameter if it is
        an integer (r, length), else 1 (CONSTANT); 0 for RANDOM_IID."""
        params = _KINDS[self.kind][0]
        if not params:
            return 0
        return getattr(self, params[0]) if _RULES[params[0]][0] is int else 1

    def label(self) -> str:
        """Short comma-free scenario tag used in the CSV scenario column."""
        cells = " ".join(
            f"{name}={getattr(self, name)}" if _RULES[name][0] is int
            else f"{name}={getattr(self, name):g}"
            for name in _KINDS[self.kind][0]
        )
        return f"{self.kind}[{cells}]" if cells else self.kind


def build_profile(spec: ScenarioSpec) -> PeriodicProfile:
    """Materialise the success-probability profile of a scenario (for
    RANDOM_IID, the constant profile 1/2)."""
    return PeriodicProfile(_KINDS[spec.kind][1](spec))


def simulate_series(profile: PeriodicProfile, n: int, rng: np.random.Generator) -> BinarySeries:
    """Draw Y_1..Y_n with Y_l ~ Bernoulli(p_{((l-1) mod r) + 1})."""
    n = _check("n", n)
    probs = np.tile(profile.p, -(-n // profile.r))[:n]
    return BinarySeries((rng.random(n) < probs).astype(np.int8))


@dataclass(frozen=True, eq=False)
class PowerEstimate:
    """Empirical rejection rate of one scenario with its binomial error."""

    scenario: ScenarioSpec
    rejections: int
    rate: float
    std_error: float
    elapsed: float


def _thresholds(p, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Return the uint64 thresholds ``ceil(p * 2**53) * 2**11`` of profile
    ``p`` repeated to ``length`` positions, below which a raw word's uniform
    double is below p (see :func:`estimate_power`), and the positions where
    p = 1, whose threshold 2**64 wraps to 0: the caller sets their bits
    itself."""
    p = np.asarray(p, dtype=float)
    reps = -(-length // p.size)
    thresholds = np.ceil(np.ldexp(p, 53)).astype(np.uint64) << np.uint64(11)
    return np.tile(thresholds, reps)[:length], np.flatnonzero(np.tile(p == 1.0, reps)[:length])


def _count_rejections(
    spec: ScenarioSpec, thresholds, certain, k_alpha: float, start: int, stop: int, rows: int
) -> int:
    """Rejections among replications ``[start, stop)`` of ``spec``'s run.

    ``thresholds`` and ``certain`` are the cell's threshold row and p = 1
    positions over the positions the fold keeps (:func:`_thresholds`), which
    every shard reads and none writes. The shard draws the raw words of
    ``rows`` replications at a time from its own stream, advanced to
    replication ``start``, decides their bits with one integer compare (see
    :func:`estimate_power`), and takes the statistic of a block of whole
    batches of fold means at a time: at most a fifth of its draws, or one
    batch.
    """
    n, d = spec.n, spec.d
    blocks = n // d
    used = blocks * d
    words = block_words(n)
    block = rows * max(1, words // (5 * d))
    bitgen = replication_stream(spec.seed, start, n).bit_generator
    bits = np.empty((min(rows, stop - start), used), dtype=bool)
    means = np.empty((min(block, stop - start), d))
    rejections = 0
    for first in range(start, stop, block):
        last = min(first + block, stop)
        for lo in range(first, last, rows):
            m = min(rows, last - lo)
            raw = bitgen.random_raw(m * words).reshape(m, words)
            np.less(raw[:, :used], thresholds, out=bits[:m])
            # Freed before the next draw, so a shard never holds two batches.
            del raw
            bits[:m, certain] = True
            counts = _fold_counts(bits[:m].view(np.uint8).reshape(m, blocks, d))
            np.divide(counts, blocks, out=means[lo - first : lo - first + m])
        values, _, _ = fisher_g_batch(means[: last - first])
        rejections += int(np.count_nonzero(values > k_alpha))
    return rejections


def estimate_power(spec: ScenarioSpec) -> PowerEstimate:
    """Monte Carlo rejection rate of the level-alpha test under ``spec``.

    Replication k takes its n words, one a bit, from its counter block of
    the run's stream (see :mod:`binperiod.rng`). It folds its series with
    spec.d and rejects when the guarded statistic exceeds the one-term
    approximate critical value (the convention all shipped tables use; the
    exact value is available separately from
    :func:`binperiod.nulldist.critical_value`).

    Bits are decided on the raw 64-bit words, with no conversion to double.
    ``Generator.random`` maps a word to ``u = (raw >> 11) * 2**-53``, which
    is exact and monotone in ``raw``, so setting bit l when
    ``raw_l < ceil(p_l * 2**53) * 2**11`` gives the same bits as
    ``u_l < p_l``; where p_l = 1 that threshold, 2**64, wraps to 0 in
    uint64, so those bits are set explicitly. The cell builds this threshold
    row once, over the positions the fold keeps, and its shards share it.

    :func:`binperiod.rng._run_shards` splits the replications into shards
    and sizes their batches (see :mod:`binperiod.rng`); each shard draws
    from its own generator, and the cell's count is the sum of the shards'
    integer counts, so it is the same for any shard count.
    ``simulate_series(profile, n, replication_stream(seed, k, n))``, which
    compares the doubles, reproduces replication k alone.

    A shard compares a batch into its own bool buffer, folds it there in
    place (:func:`binperiod.series._fold_counts`), and runs
    ``fisher_g_batch`` once per block of whole batches of fold means (436
    rows at n = 1200, d = 60 on up to two CPUs). The statistic is row-wise,
    so no count depends on the block.
    """
    t0 = perf_counter()
    reps = spec.replications
    k_alpha = _approx_critical_value(num_frequencies(spec.d), spec.alpha)
    # build_profile may warn; warning filters are process-wide, so it stays
    # on the calling thread.
    thresholds, certain = _thresholds(build_profile(spec).p, spec.n // spec.d * spec.d)
    count = partial(_count_rejections, spec, thresholds, certain, k_alpha)
    rejections = sum(_run_shards(count, reps, reps, block_words(spec.n)))
    rate = rejections / reps
    std_error = math.sqrt(rate * (1.0 - rate) / reps)
    return PowerEstimate(
        scenario=spec,
        rejections=rejections,
        rate=rate,
        std_error=std_error,
        elapsed=perf_counter() - t0,
    )


# Each shipped table's cells, merged into n = 1200, d = 60, alpha = 0.05.
_TABLES = {
    "T1": [dict(kind="CONSTANT", p1=k / 10.0) for k in range(1, 10)],
    "T2": [dict(kind="ARITH_STEP", r=r, step=0.01) for r in range(2, 31)],
    "T3": [dict(kind="ARITH_STEP", r=r, step=0.02) for r in range(2, 31)],
    "T4": [dict(kind="ENDPOINTS", r=r, p_lo=0.4, p_hi=0.6) for r in range(2, 31)],
    "T5": [dict(kind="SINE", r=r) for r in range(2, 11)],
    "PI": [dict(kind="PI_DIGITS", length=120, n=120, d=12)],
}
TABLE_IDS = tuple(_TABLES)


def table_specs(table_id: str, replications: int = 20000, seed: int = 0) -> list[ScenarioSpec]:
    """Scenario list for one of the shipped tables.

    T1 sweeps the constant null p1 = 0.1..0.9; T2/T3 sweep arithmetic
    profiles with steps 0.01/0.02 and mean 0.5 over r = 2..30; T4 sweeps
    endpoint profiles 0.4/0.6 over r = 2..30; T5 sweeps the sine profile over
    r = 2..10; PI runs the pi-digit scenario at n = 120, d = 12. All cells of
    a table share the seed, so cross-table comparisons are matched.
    """
    if table_id not in TABLE_IDS:
        raise ValueError(f"unknown table {table_id!r}; expected one of {TABLE_IDS}")
    common = dict(n=1200, d=60, alpha=0.05, replications=replications, seed=seed)
    return [ScenarioSpec(**{**common, **cell}) for cell in _TABLES[table_id]]


def iter_table(table_id: str, replications: int = 20000, seed: int = 0):
    """Yield PowerEstimates for a table cell by cell (cheap to stream)."""
    for spec in table_specs(table_id, replications, seed):
        yield estimate_power(spec)


def read_scenario(path) -> ScenarioSpec:
    """Parse a flat key-value scenario file.

    One ``key = value`` pair per line (``:`` also accepted); ``#`` lines are
    comments. Keys: kind, n, d, alpha, replications, seed, p1, r, step, mean,
    p_lo, p_hi, length, each at most once. A kind-specific key must be one of
    the file's kind; which of them are required follows :class:`ScenarioSpec`.
    """
    fields: dict = {}
    lines: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            sep = "=" if "=" in line else ":"
            if sep not in line:
                raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
            key, _, text = line.partition(sep)
            key = key.strip().lower()
            text = text.strip()
            if key != "kind" and key not in _RULES:
                raise ValueError(f"line {lineno}: unknown scenario key {key!r}")
            if key in fields:
                raise ValueError(f"line {lineno}: repeated scenario key {key!r}")
            try:
                fields[key] = text.upper() if key == "kind" else _check(key, _RULES[key][0](text))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: cannot read {key} = {text!r}: {exc}") from None
            lines[key] = lineno
    for required in ("kind", "n", "d"):
        if required not in fields:
            raise ValueError(f"scenario file is missing {required!r}")
    spec = ScenarioSpec(**fields)
    for key, lineno in lines.items():
        if key not in _KINDS[spec.kind][0] and any(key in params for params, _ in _KINDS.values()):
            raise ValueError(f"line {lineno}: {spec.kind} has no parameter {key!r}")
    return spec
