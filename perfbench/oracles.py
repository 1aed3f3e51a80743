"""Reference answers the benchmark computes itself, without calling binperiod.

Every check takes the program's answer and returns ``None`` when it passes or
a short reason when it does not. The reasons feed ``wrong_share``; nothing is
filtered out of it.

* Null tail: the alternating sum is evaluated with Python integers. A float
  x is dyadic, x = m / 2^e, so
  P(g >= x) = sum_j (-1)^(j+1) C(q, j) (2^e - j m)^(q-1) / 2^(e (q-1))
  is an exact rational.
* Statistic: the fold is counted in integers from the bits the benchmark
  wrote, and the periodogram is the defining O(d^2) sum with every angle
  reduced modulo d in integers before the complex exponential is taken.
  Degeneracy is decided exactly on the integer counts.
* Monte Carlo cells: the acceptance suite's reference rates and tolerances.
* Limit sampler: the exact tail at fixed dyadic x in the upper tail, plus
  the support [1/q, 1] of every draw.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# A p-value is wrong when it is off by more than this share of the exact
# value (or by more than TINY_P in absolute terms, for vanishing tails).
P_REL_TOL = 1e-6
TINY_P = 1e-15
# Statistic and ordinates: measured agreement is about 1e-12 at d <= 1001.
STAT_REL_TOL = 1e-9
# The closed-form one-term values are accurate to a few q * eps.
APPROX_REL_TOL = 1e-9
# binperiod bisects the exact tail until the bracket is 1e-10 wide; the
# exact root must lie within this dyadic distance of the returned midpoint.
CRIT_HALF_WIDTH = Fraction(1, 2**33)
# Sampler bands are this many binomial standard errors wide.
BAND_Z = 6.0
# Known defect: float evaluation of the exact tail loses all accuracy near
# the support edge at large q. For the tolerance above, a dense scan of
# dyadic x in (1/q, 6/q) finds no wrong answer at q <= 66, and wrong answers
# at q = 67 and at most q above it, all in (1/q, 4/q). Only those are excused.
DEFECT_MIN_Q = 67
DEFECT_EDGE = 4


def exact_tail(q: int, x) -> Fraction:
    """P(g >= x) under the equal-weight null law, as an exact rational."""
    x = Fraction(x)
    if x >= 1:
        return Fraction(0)
    if x * q <= 1:
        return Fraction(1)
    m, den = x.numerator, x.denominator
    total = 0
    comb = 1
    for j in range(1, q + 1):
        comb = comb * (q - j + 1) // j
        base = den - j * m
        if base <= 0:
            break
        term = comb * base ** (q - 1)
        total += term if j % 2 else -term
    return Fraction(total, den ** (q - 1))


def exact_tail_approx(q: int, x) -> Fraction:
    """The one-term value min(1, q (1 - x)^(q-1)), exactly."""
    x = Fraction(x)
    if x >= 1:
        return Fraction(0)
    if x <= 0:
        return Fraction(1)
    return min(Fraction(1), q * (1 - x) ** (q - 1))


def _rel_miss(got: float, exact: float, rel: float, floor: float) -> bool:
    return not abs(got - exact) <= rel * abs(exact) + floor


def check_p_exact(q: int, x: float, got: float) -> str | None:
    exact = float(exact_tail(q, x))
    if _rel_miss(got, exact, P_REL_TOL, TINY_P):
        return f"p_exact(q={q}, x={x!r}) = {got!r}, exact {exact!r}"
    return None


def check_p_approx(q: int, x: float, got: float) -> str | None:
    exact = float(exact_tail_approx(q, x))
    if _rel_miss(got, exact, APPROX_REL_TOL, TINY_P):
        return f"p_approx(q={q}, x={x!r}) = {got!r}, exact {exact!r}"
    return None


def check_critical_value(q: int, alpha: float, exact_k: float, approx_k: float) -> str | None:
    if q == 1:
        if exact_k == 1.0 and approx_k == 1.0:
            return None
        return f"critical_value(q=1) = ({exact_k!r}, {approx_k!r}), want (1, 1)"
    a = Fraction(alpha)
    k = Fraction(exact_k)
    if not exact_tail(q, k - CRIT_HALF_WIDTH) >= a >= exact_tail(q, k + CRIT_HALF_WIDTH):
        return f"exact critical value {exact_k!r} at q={q}, alpha={alpha} misses the root"
    implied = float(q * (1 - Fraction(approx_k)) ** (q - 1))
    if _rel_miss(implied, alpha, APPROX_REL_TOL, 0.0):
        return f"approx critical value {approx_k!r} at q={q}, alpha={alpha} gives {implied!r}"
    return None


def is_known_defect(q: int, x: float) -> bool:
    """True where the documented exact-tail defect can make a p-value wrong."""
    return q >= DEFECT_MIN_Q and 1.0 < x * q < DEFECT_EDGE


def is_known_theory_defect(r: int, d: int, err: str) -> bool:
    """True for the documented crash of ``detectability`` when gcd(r, d) = 2.

    With b = gcd(r, d) = 2 and r >= 3 the limit vector is 2-periodic, so it
    lies in A for even d, but the detection sum is nonzero and
    ``detectability`` raises "inconsistent classification" instead of
    returning a summary.
    """
    return r >= 3 and math.gcd(r, d) == 2 and "inconsistent classification" in err


# ---------------------------------------------------------------- statistic


def fold_counts(bits: np.ndarray, d: int) -> tuple[np.ndarray, int]:
    """Integer ones-counts of the d cosets and the number of blocks."""
    blocks = bits.size // d
    counts = bits[: blocks * d].reshape(blocks, d).sum(axis=0, dtype=np.int64)
    return counts, blocks


def ordinates(z: np.ndarray) -> np.ndarray:
    """I(omega_j), j = 1..q, from the defining sum with exact angle reduction."""
    z = np.asarray(z, dtype=float)
    d = z.size
    q = (d - 1) // 2
    phase = np.outer(np.arange(1, d + 1), np.arange(1, q + 1)) % d
    roots = np.exp(-2j * np.pi * np.arange(d) / d)
    s = (z[:, None] * roots[phase]).sum(axis=0)
    return (s.real**2 + s.imag**2) / d


def degenerate_counts(counts) -> bool:
    """Exact membership in A: constant, or constant plus alternating (even d)."""
    c = [int(v) for v in counts]
    if len(set(c)) == 1:
        return True
    return len(c) % 2 == 0 and len(set(c[0::2])) == 1 and len(set(c[1::2])) == 1


def check_statistic(z, degenerate: bool, got_value: float, got_argmax: int,
                    got_degenerate: bool) -> str | None:
    """Guarded max-over-sum ratio of z against the direct periodogram."""
    if got_degenerate != degenerate:
        return f"degenerate flag {got_degenerate}, want {degenerate}"
    if degenerate:
        if got_value != 0.0 or got_argmax != 1:
            return f"degenerate input gave statistic {got_value!r}, argmax {got_argmax}"
        return None
    ords = ordinates(z)
    peak = float(ords.max())
    value = peak / float(ords.sum())
    if _rel_miss(got_value, value, STAT_REL_TOL, 0.0):
        return f"statistic {got_value!r}, direct sum gives {value!r}"
    if not 1 <= got_argmax <= ords.size or ords[got_argmax - 1] < peak * (1 - STAT_REL_TOL):
        return f"argmax {got_argmax} is not a maximising frequency"
    return None


# ------------------------------------------------------------- Monte Carlo

# The acceptance suite's reference rejection rates at n = 1200, d = 60,
# alpha = 0.05, 20,000 replications, as closed intervals. RANDOM_IID
# observations are marginally i.i.d. Bernoulli(1/2), so it gets the null band.
MC_REFERENCE = {
    "CONSTANT p1=0.1": (0.04, 0.06),
    "CONSTANT p1=0.5": (0.04, 0.06),
    "ARITH_STEP 0.01 r=7": (0.04, 0.06),
    "ARITH_STEP 0.01 r=15": (0.1350 - 0.015, 0.1350 + 0.015),
    "ARITH_STEP 0.01 r=20": (0.2939 - 0.02, 0.2939 + 0.02),
    "ARITH_STEP 0.01 r=30": (0.7473 - 0.02, 0.7473 + 0.02),
    "ARITH_STEP 0.02 r=20": (0.9685 - 0.01, 0.9685 + 0.01),
    "ENDPOINTS r=3": (0.9750 - 0.01, 0.9750 + 0.01),
    "SINE r=4": (0.999, 1.0),
    "SINE r=5": (0.04, 0.06),
    "RANDOM_IID": (0.04, 0.06),
    "PI_DIGITS n=120 d=12": (0.05 - 0.012, 0.05 + 0.012),
}


def check_cell(label: str, rejections: int, replications: int) -> str | None:
    lo, hi = MC_REFERENCE[label]
    rate = rejections / replications
    if not lo <= rate <= hi:
        return f"{label}: rate {rate:.4f} outside [{lo:.4f}, {hi:.4f}]"
    return None


# ----------------------------------------------------------- limit sampler

# Upper-tail points for q = 1259, where the exact tail is about 0.5, 0.1
# and 0.01. Few binary digits keep the integer evaluation cheap.
SAMPLER_X = (Fraction(24, 4096), Fraction(30, 4096), Fraction(38, 4096))


def sampler_tails(q: int) -> list[float]:
    return [float(exact_tail(q, x)) for x in SAMPLER_X]


def check_draws(q: int, values: np.ndarray, tails: list[float]) -> str | None:
    """Support and binomial bands of one set of draws of the null statistic."""
    values = np.asarray(values)
    if values.size == 0 or not np.all(np.isfinite(values)):
        return "empty or non-finite draws"
    if values.min() < (1.0 - 1e-12) / q or values.max() > 1.0:
        return f"draw outside the support [1/{q}, 1]"
    n = values.size
    for x, t in zip(SAMPLER_X, tails):
        share = np.count_nonzero(values >= float(x)) / n
        band = BAND_Z * math.sqrt(t * (1.0 - t) / n) + 1.0 / n
        if abs(share - t) > band:
            return f"share of draws >= {float(x):.6f} is {share:.4f}, exact tail {t:.4f}"
    return None
