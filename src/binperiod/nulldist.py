"""Null law of the max-over-sum periodogram ratio: tail, p-values, quantiles.

For q i.i.d. exponential periodogram ordinates (white Gaussian noise input)
the survival function of the ratio statistic has Fisher's (1929) closed form

    P(g >= x) = sum_{j=1..q} (-1)^{j+1} C(q, j) (1 - j x)_+^{q-1},

supported on [1/q, 1]; q is an integer in [1, 2^53], all exact floats, so x q
and 1/q cannot overflow. Both tails take the edges in one order: x q <= 1
gives 1, then x >= 1 gives 0, so at q = 1 (g is identically 1) x = 1 gives 1.
Critical values solve P(g >= k) = alpha; the classical practical shortcut
keeps only the j = 1 summand and solves q (1 - x)^{q-1} = alpha in closed
form. Both routes are exposed because the alternating sum and its one-term
approximation differ visibly in the fourth decimal at conventional levels.
The alternating sum has one float path for every q, certified by a bound on
its own rounding; where the bound fails, ``decimal`` takes it up to its first
negligible term. Where a bound on P(g < x) certifies 1.0, neither sum runs.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .rng import _MAX_LENGTH, _UINT64_MAX, _as_int, _run_shards, substream
from .spectral import GStatistic, _fold_length, fisher_g_batch

__all__ = [
    "CriticalValue",
    "critical_value",
    "p_value",
    "sample_limit_statistic",
    "tail",
    "tail_approx",
]

BISECTION_TOL = 1e-10

# Limit-law draws per key of the sampler's stream.
_GROUP = 256
_MAX_Q = 2**53


def _support(q, x) -> tuple[int, float, float | None]:
    """Read ``q`` and ``x`` by the module's rules and return them with the
    tail at the support's edges, or None inside the support."""
    q = _as_int("q", q, 1, _MAX_Q)
    x = float(x)
    if math.isnan(x):  # fails every comparison, so it would pass as inside
        raise ValueError("statistic is NaN")
    if x * q <= 1.0:
        return q, x, 1.0
    return q, x, 0.0 if x >= 1.0 else None


@lru_cache(maxsize=16)
def _binomials(q: int) -> tuple[float, ...]:
    """float(C(q, j)) for j = 1, 2, ... up to q or the first one past the float
    range, each rounded once from the exact integer (as ``C(q, j) * p`` rounds)."""
    row, comb = [], 1
    try:
        for j in range(1, q + 1):
            comb = comb * (q - j + 1) // j
            row.append(float(comb))
    except OverflowError:
        pass
    return tuple(row)


def _decimal_terms(q: int, x: decimal.Decimal):
    """The terms C(q, j) (1 - j x)^(q-1) for j = 1, 2, ... while 1 - j x > 0,
    with exact binomials, in the current ``decimal`` context."""
    comb = 1
    for j in range(1, q + 1):
        base = 1 - j * x
        if base <= 0:
            return
        comb = comb * (q - j + 1) // j
        yield comb * base ** (q - 1)


def _one_term_power(q: int, x: float) -> float:
    """(1 - x)^(q-1) as exp((q - 1) log1p(-x)), which keeps its digits at large
    q, where rounding 1 - x would cost (q - 1) times its relative error."""
    return math.exp((q - 1) * math.log1p(-x))


def tail(q: int, x: float) -> float:
    """Exact survival probability P(g >= x) under the null, clamped to [0, 1].

    The float sum (``math.fsum``) is returned when a bound on its rounding,
    about q * eps times the sum of |terms|, is within 1e-10 of it; otherwise
    the sum is taken in ``decimal`` with 30 digits beyond the size of its terms,
    up to the first term below 1e-30 of the sum before it. Both tails reject a
    NaN ``x`` with ValueError; x = +-inf give 0 and 1.
    """
    q, x, edge = _support(q, x)
    if edge is not None:
        return edge
    power = q - 1
    # g is the largest coordinate of a uniform point on the simplex; points
    # with all coordinates below x map into it by u -> (x - u) / (qx - 1), so
    # P(g < x) <= (qx - 1)^(q-1). The q spacings are negatively associated
    # (Joag-Dev & Proschan, 1983), so P(g < x) <= (1 - (1 - x)^(q-1))^q. Below
    # 2^-55 the tail rounds to 1.0.
    if (x * q < 2.0 and (x * q - 1.0) ** power < 2.0**-55) or q * math.log1p(
        -_one_term_power(q, x)
    ) < -55 * math.log(2.0):
        return 1.0
    combs, terms, size = _binomials(q), [], 0.0
    for j in range(1, q + 1):
        base = 1.0 - j * x
        if base <= 0.0:
            break
        if j > len(combs):  # C(q, j) > float max
            size = math.inf
            break
        p = base**power
        term = combs[j - 1] * p
        size += term / base
        terms.append(term if j % 2 else -term)
    # Term j carries (q - 1) u / base_j from its base (1 - j x is off by one
    # rounding of 1) and four roundings u, fsum one more; 2^-52 = 2u doubles it.
    total = math.fsum(terms)
    bound = (q + 3) * 2**-52 * size
    if p < 2.0**-1022:  # underflowed powers: 2^(q-1074) in all, held at 1 (fails)
        bound += math.ldexp(1.0, min(q - 1074, 0))
    if bound <= 1e-10 * total:
        return min(1.0, total)
    with decimal.localcontext() as ctx:
        # The terms sum to at most (1 + e^{-x (q-1)})^q, as 1 - y <= e^{-y}.
        ctx.prec = 30 + math.ceil(q * math.log10(1.0 + math.exp(-x * power)))
        total, cut = 0, decimal.Decimal("1e-30")
        for j, term in enumerate(_decimal_terms(q, decimal.Decimal(x)), 1):
            if term <= cut * abs(total):  # Bonferroni: the sum is within term of the tail
                break
            total += term if j % 2 else -term
    return min(1.0, max(0.0, float(total)))


def tail_approx(q: int, x: float) -> float:
    """One-term (j = 1) approximation q (1 - x)^{q-1}, clamped to [0, 1]."""
    q, x, edge = _support(q, x)
    return min(1.0, q * _one_term_power(q, x)) if edge is None else edge


def p_value(q: int, g, convention: str = "exact") -> float:
    """P-value of an observed statistic under the chosen convention.

    ``g`` may be a :class:`GStatistic` (its value is 0 on A, where both tails
    are 1) or a bare statistic value. ``convention`` selects the exact
    alternating tail (``"exact"``) or the one-term shortcut (``"approx"``),
    the convention used for every simulated table in this package.
    """
    x = g.value if isinstance(g, GStatistic) else float(g)
    if convention == "exact":
        return tail(q, x)
    if convention == "approx":
        return tail_approx(q, x)
    raise ValueError(f"unknown convention {convention!r}")


@dataclass(frozen=True)
class CriticalValue:
    """Level-alpha critical values: exact tail inversion and one-term form."""

    q: int
    alpha: float
    exact: float
    approx: float


def _approx_critical_value(q: int, alpha: float) -> float:
    """The one-term critical value 1 - (alpha/q)^{1/(q-1)}, or 1 for q = 1,
    for a q already read as a Python int."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("invalid level")
    return 1.0 if q == 1 else -math.expm1((math.log(alpha) - math.log(q)) / (q - 1))


def critical_value(q: int, alpha: float) -> CriticalValue:
    """Critical value k with P(g >= k) = alpha.

    ``exact`` inverts the alternating tail by bisection on [1/q, 1], where the
    tail is continuous and strictly decreasing (the positive-part kinks make
    derivative-based root finding unreliable), to a bracket width of
    ``BISECTION_TOL * min(1, 10^4 / q)``: absolute up to q = 10^4, and beyond
    it about 1e-7 of the root, which is near (ln q + ln 1/alpha) / q.
    ``approx`` is the closed form 1 - (alpha/q)^{1/(q-1)} for q >= 2. At
    q = 1 the bracket is empty and both are 1, by the module's edge rule.
    """
    q = _as_int("q", q, 1, _MAX_Q)
    approx = _approx_critical_value(q, alpha)
    lo, hi = 1.0 / q, 1.0
    while hi - lo > BISECTION_TOL * min(1.0, 1e4 / q):
        mid = 0.5 * (lo + hi)
        if tail(q, mid) > alpha:
            lo = mid
        else:
            hi = mid
    exact = 0.5 * (lo + hi)
    return CriticalValue(q=q, alpha=alpha, exact=exact, approx=approx)


def _draw_groups(seed: int, w, out, first: int, stop: int, batch: int) -> None:
    """Fill the draws of key groups ``[first, stop)`` into ``out``.

    A group's rows are drawn in order, in sub-batches of at most ``batch``
    and 256 rows, into one buffer, and scaled by the weights ``w``.
    """
    d, count, rows = len(w), len(out), min(_GROUP, batch)
    buf = np.empty((min(rows, count - first * _GROUP), d))
    for group in range(first, stop):
        gen = substream(seed, group)
        end = min((group + 1) * _GROUP, count)
        for start in range(group * _GROUP, end, rows):
            normals = gen.standard_normal(out=buf[: min(rows, end - start)])
            normals *= w
            out[start : start + len(normals)], _, _ = fisher_g_batch(normals)


def sample_limit_statistic(d: int, weights, count: int, seed: int = 0) -> np.ndarray:
    """Draw ``count`` realisations of the statistic of (w_1 N_1, ..., w_d N_d).

    The N_i are i.i.d. standard normal. Draws come in key groups of 256:
    draw k is row ``k % 256`` of
    ``substream(seed, k // 256).standard_normal((m, d))``, where m is 256 or
    the rows left in the last group. Rows are filled in order, so a shorter
    ``count`` gives a prefix of a longer one. With equal weights this
    samples the exact null law of :func:`tail`.

    :func:`binperiod.rng._run_shards` splits the groups into shards and
    sizes their sub-batches (see :mod:`binperiod.rng`; 52 rows at d = 2520
    on up to two CPUs), and each shard writes its slice of the result.
    numpy fills rows in order, so every draw is the same for any shard count.
    """
    d = _fold_length(d)
    w = np.asarray(weights, dtype=float)
    if w.shape != (d,):
        raise ValueError(f"expected {d} weights, got shape {w.shape}")
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise ValueError("invalid weight")
    count = _as_int("count", count, 1, _MAX_LENGTH)
    seed = _as_int("seed", seed, 0, _UINT64_MAX)
    out = np.empty(count)
    _run_shards(partial(_draw_groups, seed, w, out), -(-count // _GROUP), count, d)
    return out
