"""Counter-based random streams for reproducible, order-independent replication.

Every stream is a Philox-4x64 generator keyed by a pair ``(seed, index)``;
each counter value yields four 64-bit words, i.e. four uniform doubles.

* Monte Carlo replications (:func:`replication_stream`): a run has the one
  key ``(seed, 0)``, and replication k of width w (the uniforms it consumes)
  owns the counter block ``[k*c, (k+1)*c)`` with ``c = ceil(w/4)``. A batch
  of m replications is one ``random((m, block_words(w)))`` draw, any
  replication can be replayed alone, and results cannot depend on batching
  or on how many workers draw disjoint replication ranges side by side.
* Limit-law draws (:func:`substream`): each group of 256 draws has its own
  key ``(seed, k // 256)``, and draw k is row ``k % 256`` of that key's
  ``standard_normal((256, d))``. Ziggurat normals consume a variable number
  of words, so a draw cannot own a fixed counter block; a group can be
  replayed from its key, and rows fill in order.
"""

from __future__ import annotations

import numpy as np

__all__ = ["block_words", "replication_stream", "substream"]

_UINT64_MAX = 2**64


def substream(seed: int, index: int) -> np.random.Generator:
    """Return the independent generator keyed by ``(seed, index)``."""
    if not 0 <= seed < _UINT64_MAX:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    if not 0 <= index < _UINT64_MAX:
        raise ValueError("index must fit in an unsigned 64-bit integer")
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def block_words(width: int) -> int:
    """Doubles in the counter block of a replication of ``width`` uniforms."""
    if width < 1:
        raise ValueError("width must be >= 1")
    return -(-width // 4) * 4


def replication_stream(seed: int, index: int, width: int) -> np.random.Generator:
    """Return run ``seed``'s generator advanced to replication ``index``.

    Its first ``width`` uniforms are that replication's; further draws
    continue into the blocks of the replications that follow.
    """
    if not 0 <= index < _UINT64_MAX:
        raise ValueError("index must fit in an unsigned 64-bit integer")
    gen = substream(seed, 0)
    gen.bit_generator.advance(index * (block_words(width) // 4))
    return gen
