"""Asymptotics of folded block means under a periodic success profile.

For success probabilities with period r and fold length d, each block mean
converges to the coset average

    e_i = (1/r) sum_{k=0..r-1} p_{i+kd}        (r-periodic indexing),

and the rescaled fluctuations have variance limits

    v_i = (1/r) sum_{k=0..r-1} p_{i+kd} (1 - p_{i+kd}).

The limit vector e is b-periodic with b = gcd(r, d) and constant whenever
b = 1. Whether e lies in the vanishing set A decides the large-sample
behaviour of the test statistic, which this module classifies.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .spectral import A_REL_TOL, _fold_length, fisher_g

__all__ = [
    "AsymptoticSummary",
    "PeriodicProfile",
    "PowerRegime",
    "detectability",
    "effective_period",
]


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing ``n``, by trial division."""
    primes, f = [], 2
    while f * f <= n:
        if n % f == 0:
            primes.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return primes + [n] if n > 1 else primes


def effective_period(p) -> int:
    """Smallest s dividing len(p) such that p is exactly s-periodic.

    The periods dividing r = len(p) are the multiples of the smallest one, so
    it is found by descent from r: divide by each prime factor while the
    quotient is still a period. That takes at most Omega(r) + omega(r) tests
    (prime factors with and without multiplicity), not one per divisor. A NaN
    equals nothing, so it leaves no proper period.
    """
    arr = np.asarray(p).ravel()
    s = arr.size
    for f in _prime_factors(s):
        while s % f == 0 and (arr.reshape(-1, s // f) == arr[: s // f]).all():
            s //= f
    return s


@dataclass(frozen=True, eq=False)
class PeriodicProfile:
    """Success probabilities p_1..p_r, repeated with declared period r.

    Minimality of r is not enforced; a proper sub-period only triggers a
    warning, as do boundary probabilities 0 and 1 (legal in simulation, but
    their variance contribution vanishes).
    """

    p: np.ndarray

    def __post_init__(self):
        arr = np.array(self.p, dtype=float, copy=True)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("profile must be a non-empty vector")
        lo, hi = arr.min(), arr.max()
        if not (lo >= 0.0 and hi <= 1.0):  # NaN fails both comparisons
            raise ValueError("probability outside [0,1]")
        arr.flags.writeable = False
        object.__setattr__(self, "p", arr)
        if lo == 0.0 or hi == 1.0:
            warnings.warn(
                "profile touches 0 or 1; those positions contribute no variance",
                stacklevel=3,
            )
        s = effective_period(arr)
        if s < arr.size:
            warnings.warn(
                f"declared period {arr.size} is not minimal (effective period {s})",
                stacklevel=3,
            )

    @property
    def r(self) -> int:
        return int(self.p.size)


# Most scaled terms that one batch of cosets holds as floats, unless a single
# coset has more: so memory stays near that of one coset, whatever b is.
_TERMS_PER_BATCH = 1 << 12


def _coset_means(p: np.ndarray, b: int) -> tuple[list[float], list[float]]:
    """The b distinct limits e_1..e_b and v_1..v_b of a profile p of period r.

    The defining sums (1/r) sum_k p_{i+kd}, k = 0..r-1, run over the residue
    class of i-1 mod b = gcd(r, d) in Z_r, each b times, so e and v are
    b-periodic and only b sums of each are taken. Each adds b*x as 2^k*x
    over the set bits k of b; a value in [0, 1] scaled by 2^k is exact, so
    these terms have the exact sum of b copies of the coset. fsum is exactly
    rounded, so the order of a sum never changes it: the result is the
    per-position sum to the last bit, in O(r log b) time. Each value reaches
    Python once, already scaled, in one ``tolist`` per batch of cosets.
    """
    r = p.size
    powers = [float(1 << k) for k in range(b.bit_length()) if b >> k & 1]
    step = max(1, _TERMS_PER_BATCH // (r // b * len(powers)))  # cosets per batch
    means = []
    for values in (p, p * (1.0 - p)):
        cosets = values.reshape(-1, b).T  # row c holds the coset of c
        for lo in range(0, b, step):
            terms = np.multiply.outer(cosets[lo : lo + step], powers)
            means += [math.fsum(row) / r for row in terms.reshape(len(terms), -1).tolist()]
    return means[:b], means[b:]


class PowerRegime(Enum):
    """Large-sample behaviour of the test under a given profile and d."""

    NULL_LIKE = "NULL_LIKE"
    R2_LIMIT = "R2_LIMIT"
    CONSISTENT = "CONSISTENT"


@dataclass(frozen=True, eq=False)
class AsymptoticSummary:
    """Limits and detectability diagnostics for one (profile, d) pair.

    ``e`` holds the in-probability limits e_1..e_d of the folded block means
    and ``v`` the variance limits v_1..v_d of the rescaled block means.
    ``detect_sum`` is the complex sufficiency certificate
    sum_{k=1..min(r,d)} e_k exp(-2 pi i k / b) (floor((d-k)/r) + 1), the DFT
    of e at frequency d/b (a position k > d has weight 0, so it is left out,
    also from ``detect_tol``). For b >= 3 a modulus above ``detect_tol``
    (``detect_nonzero``) guarantees that e lies outside A and the statistic
    converges to ``limit_g``. For b = 2 the sum is the excluded ordinate d/2
    and certifies nothing: e is then constant plus alternating, so in A. A
    modulus within tolerance of zero is inconclusive; ``e_in_A`` is always the
    direct membership test. Both are decided on e scaled by a power of two.
    """

    e: np.ndarray
    v: np.ndarray
    b: int
    e_in_A: bool
    detect_sum: complex
    detect_tol: float
    detect_nonzero: bool
    limit_g: float | None

    def __post_init__(self):
        for name in ("e", "v"):
            arr = np.array(getattr(self, name), dtype=float, copy=True)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def regime(self) -> PowerRegime:
        """Classify the limit: e outside A (CONSISTENT: the statistic
        converges to limit_g), or e in A with variance limits equal to 2^-40
        relative (NULL_LIKE: same limit law as under a constant profile), or
        e in A with non-constant v (R2_LIMIT: a weighted-normal limit law
        without a known closed form)."""
        if not self.e_in_A:
            return PowerRegime.CONSISTENT
        flat = self.v.max() - self.v.min() <= math.sqrt(A_REL_TOL) * self.v.max()
        return PowerRegime.NULL_LIKE if flat else PowerRegime.R2_LIMIT


def detectability(profile: PeriodicProfile, d: int) -> AsymptoticSummary:
    """Compute e, v, gcd structure, A-membership, and the limit statistic."""
    d = _fold_length(d)
    r = profile.r
    b = math.gcd(r, d)
    e, v = _coset_means(profile.p, b)
    shift = 1 - math.frexp(max(e))[1]  # exact as e <= 1; max(e * 2^shift) in [1, 2)
    es = [math.ldexp(x, shift) for x in e]
    tiled = np.empty((3, d // b, b))  # e, v and the scaled e, each tiled to length d
    tiled[:] = np.array([e, v, es])[:, None, :]
    e_d, v_d, es_d = tiled.reshape(3, d)
    g = fisher_g(es_d)
    head = es * (min(r, d) // b)  # e_1..e_min(r,d), scaled: b divides both r and d
    terms = [
        x * cmath.exp(-2j * cmath.pi * k / b) * ((d - k) // r + 1)
        for k, x in enumerate(head, start=1)
    ]
    detect_sum = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    detect_tol = 1e-10 * math.fsum(abs(x) for x in head) * (d // r + 1)
    detect_nonzero = abs(detect_sum) > detect_tol
    return AsymptoticSummary(
        e=e_d,
        v=v_d,
        b=b,
        e_in_A=g.degenerate,
        detect_sum=complex(math.ldexp(detect_sum.real, -shift), math.ldexp(detect_sum.imag, -shift)),
        detect_tol=math.ldexp(detect_tol, -shift),
        detect_nonzero=detect_nonzero,
        limit_g=None if g.degenerate else g.value,
    )
