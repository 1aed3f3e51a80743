"""Binary 0/1 series and the fold that turns length n into d block means."""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .rng import _as_int
from .spectral import _fold_length

__all__ = [
    "BinarySeries",
    "FoldedSeries",
    "fold",
    "read_series",
    "write_series",
]


@dataclass(frozen=True, eq=False)
class BinarySeries:
    """Ordered 0/1 observations Y_1..Y_n; 1-based indices in all formulas.

    Construction raises ValueError ``"series must be a vector"`` unless the
    input is one-dimensional, ``"empty series"`` for a zero-length input,
    otherwise ``"value out of alphabet at position i"`` with 1-based ``i``
    pointing at the first entry that is not 0 or 1.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values)
        if arr.ndim != 1:
            raise ValueError("series must be a vector")
        if arr.size == 0:
            raise ValueError("empty series")
        # An entry is 0 or 1 exactly when it equals its own truth value.
        flags = arr.astype(bool)
        bad = arr != flags
        if bad.any():
            raise ValueError(f"value out of alphabet at position {int(np.argmax(bad)) + 1}")
        values = flags.view(np.int8)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

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

    Averages of exact counts (:func:`_fold_counts`) run over k = 0..floor(n/d)-1;
    the trailing n - d*floor(n/d) observations are discarded.

    Parameters
    ----------
    series : BinarySeries
        The raw 0/1 observations.
    d : int
        Target length of the folded series; must be >= 3 so at least one
        Fourier frequency survives, and must not exceed n.
    """
    n = series.n
    d = _fold_length(d, n)
    blocks = n // d
    counts = _fold_counts(series.values[: blocks * d].reshape(blocks, d).astype(np.uint8))
    return FoldedSeries(z=counts / blocks, d=d, blocks=blocks, n=n)


def _fold_counts(x: np.ndarray) -> np.ndarray:
    """Exact int64 sums over the blocks axis of a writable ``(..., blocks, d)``
    uint8 array of 0/1 values, which it overwrites. Seven levels each add the
    upper half of the live blocks onto the lower half (an odd middle block stays
    put), so a byte sums at most 2**7 = 128 blocks and an eighth level could
    pass 255; the at most ceil(blocks/128) rows left are summed in int64."""
    live = x.shape[-2]
    for _ in range(7):
        half, live = live // 2, live - live // 2
        x[..., :half, :] += x[..., live : live + half, :]
    return x[..., :live, :].sum(axis=-2, dtype=np.int64)


# The ASCII characters ``str.split`` splits on (``str.isspace``); the token
# format also separates tokens by commas.
_BLANKS = b" \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f"
_SEPARATORS = _BLANKS + b","
_LINE_END = re.compile(rb"[\n\r]")
# Bytes per pass of _ascii_bits, so that its temporaries stay cache-sized.
_CHUNK = 1 << 18


def _strip_comments(data: bytes) -> bytes | None:
    """``data`` with its comment lines cut out, or None if a ``#`` starts none.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r``, as in text mode. A ``#`` that
    does not start a comment belongs to a token, which is then not 0 or 1.
    """
    view = memoryview(data)  # its slices copy nothing: the join is the one copy
    parts = []
    pos = 0
    hash_at = data.find(b"#")
    while hash_at >= 0:
        # Every search stops at the previous comment or at the end of this
        # line, so the scan stays one pass however many comments there are.
        start = max(
            pos,
            data.rfind(b"\n", pos, hash_at) + 1,
            data.rfind(b"\r", pos, hash_at) + 1,
        )
        if data[start:hash_at].translate(None, _BLANKS):
            return None
        line_end = _LINE_END.search(data, hash_at)
        end = len(data) if line_end is None else line_end.start()
        parts.append(view[pos:start])
        pos = end
        hash_at = data.find(b"#", end)
    parts.append(view[pos:])
    return b"".join(parts) if pos else data  # pos > 0 once a comment is cut


def _ascii_bits(data: bytes) -> np.ndarray | None:
    """The 0/1 values of an ASCII series file of one-character tokens, or None
    when the file is not ASCII or holds any other token. It reads chunks of
    ``_CHUNK`` bytes, each extended to just after a ``\\n`` (or to the end),
    so no token or comment line spans two chunks."""
    if not data.isascii():
        return None
    # A checked chunk has no two adjacent 0/1 bytes, and each but the last
    # ends in a line end, so at most half the bytes (rounded up) are tokens.
    out = np.empty((len(data) + 1) // 2, dtype=np.uint8)
    used = start = 0
    while start < len(data):
        cut = data.find(b"\n", start + _CHUNK - 1)
        stop = len(data) if cut < 0 else cut + 1
        chunk, start = _strip_comments(data[start:stop]), stop
        if chunk is None:
            return None
        # A longer token has two adjacent 0/1 bytes, or a byte that is neither
        # a separator nor 0/1 and so survives the deletion of the separators.
        digit = np.frombuffer(chunk, dtype=np.uint8) - ord("0") < 2
        if np.any(digit[1:] & digit[:-1]):
            return None
        bits = np.frombuffer(chunk.translate(None, _SEPARATORS), dtype=np.uint8) - ord("0")
        if np.any(bits > 1):
            return None
        out[used : used + bits.size] = bits
        used += bits.size
    return out[:used]


# _read_tokens splits a line _PIECE characters at a time, each piece cut just
# after a separator: ``\s`` matches exactly what ``str.split`` splits on.
_PIECE = 1 << 16
_TOKEN_END = re.compile(r"[\s,]")
_COMMENT = re.compile(r"\s*#")


def _read_tokens(path, convert, what: str) -> list:
    """Each token of a series or profile file through ``convert``, naming the
    first token it rejects by position and line. A long line is read in
    pieces, so it costs no copy of the line and no list of its token strings."""
    values: list = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if _COMMENT.match(line):
                continue
            start = 0
            while start < len(line):
                cut = _TOKEN_END.search(line, start + _PIECE)
                stop = len(line) if cut is None else cut.end()
                for tok in line[start:stop].replace(",", " ").split():
                    try:
                        values.append(convert(tok))
                    except (KeyError, ValueError):
                        raise ValueError(
                            f"{what} at position {len(values) + 1} (line {lineno}: {tok!r})"
                        ) from None
                start = stop
    return values


def read_series(path) -> BinarySeries:
    """Parse a series file: 0/1 tokens split on whitespace or commas.

    Lines whose first non-blank character is ``#`` are ignored. An ASCII file
    is read in one pass over its bytes; any other file, and any file that
    pass rejects, is read token by token, so a bad token is named by position
    and line.
    """
    with open(path, "rb") as fh:
        bits = _ascii_bits(fh.read())
    if bits is None:
        bits = _read_tokens(path, {"0": 0, "1": 1}.__getitem__, "value out of alphabet")
    return BinarySeries(bits)


def write_series(path, series: BinarySeries, per_line: int = 60) -> None:
    """Write a series in the plain-text token format accepted by read_series:
    tokens separated by spaces, ``per_line`` to a line, each line ended by a
    newline."""
    per_line = _as_int("per_line", per_line, 1)
    vals = series.values
    text = np.full(2 * vals.size, ord(" "), dtype=np.uint8)
    text[0::2] = vals + ord("0")
    text[2 * per_line - 1 :: 2 * per_line] = ord("\n")
    text[-1] = ord("\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.tobytes().decode("ascii"))
