"""Binary 0/1 series and the fold that turns length n into d block means."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BinarySeries",
    "FoldedSeries",
    "fold",
    "validate",
    "read_series",
    "write_series",
]


def validate(values) -> None:
    """Check that ``values`` is a non-empty sequence over the alphabet {0, 1}.

    Raises
    ------
    ValueError
        ``"empty series"`` for a zero-length input, otherwise
        ``"value out of alphabet at position i"`` with 1-based ``i`` pointing
        at the first offending entry.
    """
    arr = np.asarray(values)
    if arr.size == 0:
        raise ValueError("empty series")
    bad = ~((arr == 0) | (arr == 1))
    if bad.any():
        pos = int(np.argmax(bad)) + 1
        raise ValueError(f"value out of alphabet at position {pos}")


@dataclass(frozen=True, eq=False)
class BinarySeries:
    """Ordered 0/1 observations Y_1..Y_n; 1-based indices in all formulas."""

    values: np.ndarray

    def __post_init__(self):
        validate(self.values)
        arr = np.array(self.values, dtype=np.int8, copy=True)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def __len__(self) -> int:
        return self.n


@dataclass(frozen=True, eq=False)
class FoldedSeries:
    """Block means Z_1..Z_d of a folded binary series.

    ``z[i-1]`` averages the ``blocks`` observations Y_i, Y_{i+d}, ..., so each
    entry is an integer count of ones divided by ``blocks``.
    """

    z: np.ndarray
    d: int
    blocks: int
    n: int

    def __post_init__(self):
        arr = np.array(self.z, dtype=float, copy=True)
        arr.flags.writeable = False
        object.__setattr__(self, "z", arr)

    @property
    def discarded(self) -> int:
        """Trailing observations ignored by the fold: n - d * blocks."""
        return self.n - self.d * self.blocks


def fold(series: BinarySeries, d: int) -> FoldedSeries:
    """Fold a binary series into d block means Z_i = mean_k Y_{i+kd}.

    Averages run over k = 0..floor(n/d)-1; the trailing n - d*floor(n/d)
    observations are discarded.

    Parameters
    ----------
    series : BinarySeries
        The raw 0/1 observations.
    d : int
        Target length of the folded series; must be >= 3 so at least one
        Fourier frequency survives, and must not exceed n.
    """
    if d < 3:
        raise ValueError("d too small (q would be 0)")
    n = series.n
    if n < d:
        raise ValueError("series shorter than d")
    blocks = n // d
    counts = series.values[: blocks * d].reshape(blocks, d).sum(axis=0, dtype=np.int64)
    return FoldedSeries(z=counts / blocks, d=d, blocks=blocks, n=n)


def _line_tokens(fh):
    """Yield (1-based line number, tokens split on commas and whitespace) per
    line of ``fh``, skipping lines whose first non-blank character is ``#``."""
    for lineno, line in enumerate(fh, start=1):
        if not line.lstrip().startswith("#"):
            yield lineno, line.replace(",", " ").split()


def read_series(path) -> BinarySeries:
    """Parse a series file: 0/1 tokens split on whitespace or commas.

    Lines whose first non-blank character is ``#`` are ignored.
    """
    tokens: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line_tokens in _line_tokens(fh):
            for tok in line_tokens:
                if tok == "0":
                    tokens.append(0)
                elif tok == "1":
                    tokens.append(1)
                else:
                    raise ValueError(
                        f"value out of alphabet at position {len(tokens) + 1}"
                        f" (line {lineno}: {tok!r})"
                    )
    if not tokens:
        raise ValueError("empty series")
    return BinarySeries(np.array(tokens, dtype=np.int8))


def write_series(path, series: BinarySeries, per_line: int = 60) -> None:
    """Write a series in the plain-text token format accepted by read_series."""
    vals = series.values
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, vals.size, per_line):
            chunk = vals[start : start + per_line]
            fh.write(" ".join(str(int(v)) for v in chunk))
            fh.write("\n")
