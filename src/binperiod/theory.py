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


def effective_period(p) -> int:
    """Smallest s dividing len(p) such that p is exactly s-periodic."""
    arr = np.asarray(p).ravel()
    r = arr.size
    for s in range(1, r):
        if r % s == 0 and (arr.reshape(-1, s) == arr[:s]).all():
            return s
    return r


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
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValueError("probability outside [0,1]")
        arr.flags.writeable = False
        object.__setattr__(self, "p", arr)
        if np.any((arr == 0.0) | (arr == 1.0)):
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


def _coset_means(values: np.ndarray, d: int) -> np.ndarray:
    """The defining sums (1/r) sum_k values_{i+kd} for i = 1..d.

    The indices i-1+kd, k = 0..r-1, run over the residue class of i-1 mod
    b = gcd(r, d) in Z_r, each b times, so only b sums are taken. Each adds
    b*x as 2^k*x over the set bits k of b; a value in [0, 1] scaled by 2^k
    is exact, so these terms have the exact sum of b copies of the coset.
    fsum is exactly rounded, so the order of a sum never changes it: the
    result is the per-position sum to the last bit, in O(r log b) time.
    """
    r = values.size
    b = math.gcd(r, d)
    powers = [float(1 << k) for k in range(b.bit_length()) if b >> k & 1]
    sums = [math.fsum([x * s for x in values[c::b].tolist() for s in powers]) for c in range(b)]
    return (np.array(sums) / r)[np.arange(d) % b]


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
    p = profile.p
    r = profile.r
    b = math.gcd(r, d)
    e = _coset_means(p, d)
    v = _coset_means(p * (1.0 - p), d)
    shift = 1 - math.frexp(e.max())[1]  # exact as e <= 1; max(e * 2^shift) in [1, 2)
    es = np.ldexp(e, shift)
    g = fisher_g(es)
    head = es[: min(r, d)].tolist()
    terms = [
        x * cmath.exp(-2j * cmath.pi * k / b) * ((d - k) // r + 1)
        for k, x in enumerate(head, start=1)
    ]
    detect_sum = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    detect_tol = 1e-10 * math.fsum(abs(x) for x in head) * (d // r + 1)
    detect_nonzero = abs(detect_sum) > detect_tol
    return AsymptoticSummary(
        e=e,
        v=v,
        b=b,
        e_in_A=g.degenerate,
        detect_sum=complex(math.ldexp(detect_sum.real, -shift), math.ldexp(detect_sum.imag, -shift)),
        detect_tol=math.ldexp(detect_tol, -shift),
        detect_nonzero=detect_nonzero,
        limit_g=None if g.degenerate else g.value,
    )
