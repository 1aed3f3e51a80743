"""Machine speed, measured alongside the workload, to put times on a fixed scale.

The benchmark runs on shared virtual machines whose speed drifts by a
factor of up to two within seconds, for every process alike; measured
side by side, a table cell and a fixed interpreter-and-numpy kernel stay
in a constant ratio within a few percent. So the benchmark times
``calibrate()`` between operations, and scales every end-to-end time to
reference speed:

    scaled time = measured time * REFERENCE_S / kernel time measured next to it

``REFERENCE_S`` is the kernel's typical time on the 2-core VM the benchmark
was tuned on, so scaled figures read as seconds there. Unscaled times are
kept in the result record.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Kernel seconds at reference speed: the median on a 2-core x86-64 VM with
# Python 3.11 and numpy 2.4.
REFERENCE_S = 0.004
# Take a kernel sample before an operation once this long has passed since
# the last one.
EVERY_S = 0.25

_TOKENS = ("0 1 1 0 " * 10000).split()
_MATRIX = np.random.default_rng(0).random((128, 512))


def calibrate() -> float:
    """Seconds this process now takes for a fixed mix of interpreter and numpy work."""
    t0 = perf_counter()
    ones = 0
    for tok in _TOKENS:
        if tok == "1":
            ones += 1
    for k in range(48):
        gen = np.random.Generator(np.random.Philox(key=np.array([ones, k], dtype=np.uint64)))
        (gen.random(1200) < 0.5).reshape(20, 60).mean(axis=0)
    (_MATRIX @ _MATRIX.T).sum()
    return perf_counter() - t0


def scale(seconds, kernel_s):
    """Times at reference speed, given the kernel time measured next to each."""
    return np.asarray(seconds, dtype=float) * (REFERENCE_S / np.asarray(kernel_s, dtype=float))


def kernel_near(sample_t: np.ndarray, sample_v: np.ndarray, start: np.ndarray,
                end: np.ndarray) -> np.ndarray:
    """Kernel time around each operation: the median of the two samples before
    its start and the two after its end (fewer at the ends of the run)."""
    before = np.searchsorted(sample_t, start, side="right") - 1
    after = np.searchsorted(sample_t, end, side="left")
    out = np.empty(start.size)
    for i, (b, a) in enumerate(zip(before, after)):
        out[i] = np.median(sample_v[max(b - 1, 0) : a + 2])
    return out
