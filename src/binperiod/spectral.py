"""Periodogram at Fourier frequencies and the guarded max-over-sum statistic.

For a length-d vector x the periodogram at the jth Fourier frequency
omega_j = 2*pi*j/d is

    I(omega_j) = (1/d) |sum_{l=1..d} x_l exp(-i l omega_j)|^2,

computed for j = 1..q with q = floor((d-1)/2). Frequencies j = 0 and (for
even d) j = d/2 are deliberately excluded. The ratio statistic

    g = max_j I(omega_j) / sum_m I(omega_m)

is undefined on the degenerate set A of vectors whose periodogram vanishes
at all q frequencies (the constants, plus constant-plus-alternating vectors
when d is even); there the guarded statistic is defined to be 0. Like g, the
test for A is scale-free: ordinates summing to at most ``A_REL_TOL`` = 2^-80
of the energy sum x^2 (entries whose squares underflow read as zero).
Ordinates come from one real FFT per row, whose 0-based index adds only a
unit phase: O(d log d) time and no cached state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import _as_int

__all__ = [
    "GStatistic",
    "fisher_g",
    "fisher_g_batch",
    "num_frequencies",
    "periodogram_batch",
]

# The one rule for "numerically zero". FFT rounding leaves exact members of A,
# a + b(-1)^l, below 1.9e-31 of their energy (560 random (a, b) at scales
# 1e-100..1e100, d = 3..10^5): a margin over 4e6. NULL_LIKE uses its square
# root. At every d, an x in A by this rule is within 2^-39.5 ||x|| of a vector
# of two alternating values, so ||x||_1^2 >= (1 - 2^-38) d ||x||^2 / 2. Then
# theory's certificate, b >= 3 and |DFT of x at d/b| > 1e-10 ||x||_1, puts that
# ordinate above 5e-21 ||x||^2, 6,000 times the 2^-80 ||x||^2 the rule allows.
A_REL_TOL = 2.0**-80


def _fold_length(d, n=None) -> int:
    """Return the fold length ``d`` as a Python int: the one check of d, an
    integer (read by ``_as_int``) of at least 3, so that q >= 1, and at most
    the series length ``n`` when one is given."""
    d = _as_int("d", d)
    if d < 3:
        raise ValueError("d too small (q would be 0)")
    if n is not None and n < d:
        raise ValueError("series shorter than d")
    return d


def num_frequencies(d: int) -> int:
    """Number q = floor((d-1)/2) of usable Fourier frequencies, as a Python int."""
    return (_fold_length(d) - 1) // 2


def _as_matrix(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError("expected a vector or a matrix of row vectors")
    if arr.shape[1] < 3:  # a shape is a Python int: only a short row needs _as_int
        _fold_length(arr.shape[1])
    return arr


def _ordinates(arr: np.ndarray) -> np.ndarray:
    """Ordinates I(omega_1..omega_q) along the last axis of a checked array."""
    d = arr.shape[-1]
    coef = np.fft.rfft(arr)[..., 1 : (d - 1) // 2 + 1]
    # (coef.real**2 + coef.imag**2) / d bit for bit, but with one fresh array
    # instead of three: at the sampler's 52 x 1259 ordinates each is 0.5 MB,
    # and fresh temporaries of that size cost more than the arithmetic.
    out = np.square(coef.real)
    out += np.square(coef.imag, out=coef.imag)
    out /= d
    return out


def periodogram_batch(x) -> np.ndarray:
    """Periodogram ordinates I(omega_1..omega_q) for each row of ``x``."""
    return _ordinates(_as_matrix(x))


@dataclass(frozen=True, eq=False)
class GStatistic:
    """Max-over-sum periodogram ratio with the degenerate-set guard applied.

    ``value`` is 0 when the input lies in A, otherwise in [1/q, 1].
    ``argmax_j`` is the smallest maximising frequency index (1-based); it is
    reported but carries no information when ``degenerate`` is set.
    """

    value: float
    argmax_j: int
    degenerate: bool


# Ordinates this close to the maximum (relatively) count as tied. FFT rounding
# error is of order eps*log2(d) relative to the input energy; the equal
# ordinates of a unit spike stay within 3e-15 of each other up to d = 20,000.
# The tolerance is far below any statistically meaningful separation.
_TIE_REL_TOL = 1e-13

_NOT_FINITE = "input has a NaN or infinite value, or overflows when squared"


def fisher_g_batch(x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Guarded ratio statistic for each row of ``x``.

    Returns ``(values, argmax_j, degenerate)``; argmax indices are 1-based,
    and ties (up to relative ``_TIE_REL_TOL``, so that mathematically equal
    ordinates compare equal despite rounding) resolve to the smallest j.
    A row with a NaN or infinite entry (or one whose squares overflow) raises
    ``ValueError``.
    """
    arr = _as_matrix(x)
    # energy is NaN or inf exactly where a row has a NaN or infinite entry or
    # its squares overflow, so the check reads one value per row.
    energy = np.einsum("ij,ij->i", arr, arr)
    if not np.isfinite(energy).all():
        raise ValueError(_NOT_FINITE)
    ordinates = _ordinates(arr)
    total = ordinates.sum(axis=1)
    peak = ordinates.max(axis=1)
    near_peak = ordinates >= (peak * (1.0 - _TIE_REL_TOL))[:, None]
    argmax = near_peak.argmax(axis=1) + 1
    degenerate = total <= A_REL_TOL * energy
    # On A every ordinate is mathematically zero: all frequencies tie.
    argmax = np.where(degenerate, 1, argmax)
    values = np.where(degenerate, 0.0, peak / np.where(degenerate, 1.0, total))
    return values, argmax, degenerate


def fisher_g(x) -> GStatistic:
    """Guarded ratio statistic of a single vector.

    Row 0 of ``fisher_g_batch(x[None])`` to the last bit, with the same
    errors, from the same energy, ordinates and tie rule on the vector alone.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError("expected a vector")
    if arr.size < 3:
        _fold_length(arr.size)
    energy = np.einsum("i,i->", arr, arr)
    if not math.isfinite(energy):
        raise ValueError(_NOT_FINITE)
    ordinates = _ordinates(arr)
    total = ordinates.sum()
    if total <= A_REL_TOL * energy:
        # On A every ordinate is mathematically zero: all frequencies tie.
        return GStatistic(value=0.0, argmax_j=1, degenerate=True)
    peak = ordinates.max()
    argmax = int((ordinates >= peak * (1.0 - _TIE_REL_TOL)).argmax()) + 1
    return GStatistic(value=float(peak / total), argmax_j=argmax, degenerate=False)
