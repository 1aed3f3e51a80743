"""Counter-based random streams for reproducible, order-independent replication.

Every stream is a Philox-4x64 generator keyed by a pair ``(seed, index)``;
each counter value yields four 64-bit words. ``Generator.random`` turns a
word into the uniform double ``(word >> 11) * 2**-53``.

* Monte Carlo replications (:func:`replication_stream`): a run has the one
  key ``(seed, 0)``, and replication k of width w (the words it consumes)
  owns the counter block ``[k*c, (k+1)*c)`` with ``c = ceil(w/4)``. A batch
  of m replications is one draw of ``m * block_words(w)`` raw words
  (``bit_generator.random_raw``), which the table engine compares with
  integer thresholds; the uniform doubles of the same words give the same
  decisions (see :func:`binperiod.simulate.estimate_power`). Any
  replication can be replayed alone, and results cannot depend on batching
  or on how many workers draw disjoint replication ranges side by side.
* Limit-law draws (:func:`substream`): each group of 256 draws has its own
  key ``(seed, k // 256)``, and draw k is row ``k % 256`` of that key's
  ``standard_normal((256, d))``. Ziggurat normals consume a variable number
  of words, so a draw cannot own a fixed counter block; a group can be
  replayed from its key, and rows fill in order.

Both Monte Carlo engines plan every call with :func:`_run_shards`, and
nothing else sizes their work. A call of ``units`` indivisible units
(replications, or the sampler's key groups) and ``rows`` rows of ``words``
8-byte values (raw words, or the sampler's normals) runs on ``T = max(1,
min(_cpu_count(), units, ceil(rows / max(1, _BATCH_WORDS // words)),
budget // words))`` contiguous shards, where
``budget = _CELL_BATCHES * _BATCH_WORDS``, and each shard draws batches of
``max(1, min(_BATCH_WORDS, budget // T) // words)`` rows. So a call holds
at most the budget (one row, if a row is wider), a call of at most one
batch runs serially, and the working set does not grow with the CPU count;
a table shard adds a bool batch and fold means of at most a fifth of its
draws. Each shard draws from its own key or counter block, so a result is
the same for any T. Every integer argument of the package (seeds, indices
and widths here; the fold length d, the frequency count q and
``per_line`` elsewhere) is a Python or numpy integer, read by
:func:`_as_int`: a bool or a float (even 2.0) raises a ValueError naming
the argument.
"""

from __future__ import annotations

import operator
import os
import sys

import numpy as np

__all__ = ["replication_stream", "substream"]

_UINT64_MAX = 2**64 - 1
_MAX_LENGTH = sys.maxsize // 2  # n and sampler counts

# 8-byte values per batch of draws: about 1 MiB (109 rows at n = 1200). Whole
# 1024-row batches raised the peak RSS of one n = 1200 cell from 37 to 48 MB;
# with this cap it stays at the interpreter's 37 MB.
_BATCH_WORDS = 2**17
# Batches a sharded call holds at once. Two shards draw full batches (on 2
# CPUs the second raised mc_table's peak RSS from 42.4 to 44.3 MB); more
# shards split this budget, so the working set does not grow with the CPU
# count.
_CELL_BATCHES = 2


def _cpu_count() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_shards(work, units: int, rows: int, words: int) -> list:
    """Return ``[work(lo_i, hi_i, batch) for i in range(T)]`` in shard order,
    shard i covering units ``[units*i//T, units*(i+1)//T)``, T and ``batch``
    planned by the module's rule.

    Shard 0 runs on the calling thread and the others on a thread pool, one
    thread each. If a shard fails, the call waits for every shard to finish
    and raises the error of the lowest-numbered failed shard. A single
    shard is a plain call: no pool, and no import of ``concurrent.futures``
    (which loads ``logging``).
    """
    budget = _CELL_BATCHES * _BATCH_WORDS
    batches = -(-rows // max(1, _BATCH_WORDS // words))
    shards = max(1, min(_cpu_count(), units, batches, budget // words))
    batch = max(1, min(_BATCH_WORDS, budget // shards) // words)
    if shards == 1:
        return [work(0, units, batch)]
    from concurrent.futures import ThreadPoolExecutor

    bounds = [units * i // shards for i in range(shards + 1)]
    # Leaving the pool joins the helpers, also when shard 0 raises.
    with ThreadPoolExecutor(shards - 1) as pool:
        helpers = [pool.submit(work, bounds[i], bounds[i + 1], batch) for i in range(1, shards)]
        first = work(bounds[0], bounds[1], batch)
        return [first] + [helper.result() for helper in helpers]


def _as_int(name: str, value, lo: int | None = None, hi: int | None = None) -> int:
    """Return ``value`` as a Python int, or raise a ValueError naming ``name``
    unless it is an integer (not a bool or a float, even 2.0) in [lo, hi]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if lo is not None and (value < lo or (hi is not None and value > hi)):
        raise ValueError(f"{name} must be >= {lo}" + ("" if hi is None else f" and <= {hi}"))
    return value


def substream(seed: int, index: int) -> np.random.Generator:
    """Return the independent generator keyed by ``(seed, index)``."""
    key = [_as_int("seed", seed, 0, _UINT64_MAX), _as_int("index", index, 0, _UINT64_MAX)]
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


def block_words(width: int) -> int:
    """Words in the counter block of a replication of ``width`` words."""
    return -(-_as_int("width", width, 1) // 4) * 4


def replication_stream(seed: int, index: int, width: int) -> np.random.Generator:
    """Return run ``seed``'s generator advanced to replication ``index``.

    Its first ``width`` words are that replication's; further draws
    continue into the blocks of the replications that follow.
    """
    index = _as_int("index", index, 0, _UINT64_MAX)
    gen = substream(seed, 0)
    gen.bit_generator.advance(index * (block_words(width) // 4))
    return gen
