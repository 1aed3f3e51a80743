import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binperiod import series as series_module
from binperiod.series import (
    BinarySeries,
    _ascii_bits,
    _fold_counts,
    fold,
    read_series,
    write_series,
)


def token_loop_read_series(path):
    """Reference reader: the token-by-token loop that read_series must match."""
    tokens = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.lstrip().startswith("#"):
                continue
            for tok in line.replace(",", " ").split():
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


def read_outcome(reader, path):
    try:
        return reader(path).values.tolist()
    except ValueError as exc:  # UnicodeDecodeError included
        return type(exc), str(exc)


def ascii_outcome(raw: bytes):
    bits = _ascii_bits(raw)
    return None if bits is None else bits.tolist()


def assert_reads_like_token_loop(path, raw: bytes):
    # Chunks of 1, 2, 3 and 7 bytes (each extended to a line end) put a chunk
    # cut after every line end that the file has; the byte reader must accept
    # or refuse the same files, and give the same values, at every size.
    path.write_bytes(raw)
    whole = ascii_outcome(raw)
    for chunk in (series_module._CHUNK, 1, 2, 3, 7):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(series_module, "_CHUNK", chunk)
            assert ascii_outcome(raw) == whole, chunk
            assert read_outcome(read_series, path) == read_outcome(token_loop_read_series, path)


def test_fold_hand_example():
    # Y = (1,0,1,1,0,0,1), d = 3: two full rounds, Y_7 discarded.
    folded = fold(BinarySeries(np.array([1, 0, 1, 1, 0, 0, 1])), 3)
    assert np.array_equal(folded.z, [1.0, 0.0, 0.5])
    assert folded.blocks == 2
    assert folded.discarded == 1
    assert folded.n == 7


def test_fold_all_ones():
    folded = fold(BinarySeries(np.ones(20, dtype=int)), 5)
    assert np.array_equal(folded.z, np.ones(5))


def test_fold_alternating():
    folded = fold(BinarySeries(np.array([0, 1, 0, 1, 0, 1, 0, 1])), 4)
    assert np.array_equal(folded.z, [0.0, 1.0, 0.0, 1.0])
    assert folded.blocks == 2
    assert folded.discarded == 0


def test_fold_d_too_small():
    series = BinarySeries(np.array([0, 1, 0, 1]))
    with pytest.raises(ValueError, match="d too small"):
        fold(series, 2)


def test_fold_series_shorter_than_d():
    series = BinarySeries(np.array([0, 1, 0]))
    with pytest.raises(ValueError, match="shorter than d"):
        fold(series, 4)


def test_validate_ok():
    assert BinarySeries([0, 1, 1, 0]).values.tolist() == [0, 1, 1, 0]


def test_validate_position_is_one_based():
    with pytest.raises(ValueError, match="position 2"):
        BinarySeries([0, 2, 1])


def test_validate_empty():
    with pytest.raises(ValueError, match="empty series"):
        BinarySeries([])


def test_binary_series_rejects_fractions():
    with pytest.raises(ValueError, match="position 1"):
        BinarySeries(np.array([0.5, 0.0]))


@pytest.mark.parametrize(
    "values, position",
    [
        ([0, 1, 1, 0], None),
        ([True, False], None),
        (np.array([-0.0, 1.0]), None),
        (np.array([0, 1, 1.0, True], dtype=object), None),
        ([1 + 0j, 0], None),
        ([0, 2, 1], 2),
        (np.array(["0", "1"]), 1),
        ([0, None, 1], 2),
        (np.array([0, 1, "1"], dtype=object), 3),
        (np.array([0, 1], dtype="datetime64[D]"), 1),
        (np.array([0, 1, 0.5], dtype=np.float16), 3),
        ([1, 1.0000001], 2),
        ([0, np.inf], 2),
        ([1, -np.inf], 2),
        ([0, 1, np.nan], 3),
        ([1, 256], 2),
        ([0, -1], 2),
        (np.array([1, 2**63], dtype=np.uint64), 2),
        ([0, 1 + 0j, 1j], 3),
    ],
)
def test_validate_names_first_value_out_of_alphabet(values, position):
    if position is None:
        series = BinarySeries(values)
        assert series.values.dtype == np.int8
        assert series.values.tolist() == [int(abs(v)) for v in values]
    else:
        with pytest.raises(ValueError, match=f"at position {position}$"):
            BinarySeries(values)


@pytest.mark.parametrize(
    "values",
    [
        [[0, 1, 1, 0, 1, 0], [1, 1, 0, 0, 1, 0]],
        np.ones((3, 4), dtype=np.int8),
        np.zeros((1, 0)),
        1,
        "01",
    ],
)
def test_binary_series_accepts_only_vectors(values):
    # Flattened, a 2 x 6 matrix would give n = 12 and fail to reshape in fold,
    # and a 3 x 4 one would fold at d = 4 through its rows.
    with pytest.raises(ValueError, match="series must be a vector"):
        BinarySeries(values)


def test_values_are_immutable():
    series = BinarySeries(np.array([0, 1]))
    with pytest.raises(ValueError):
        series.values[0] = 1


bits = st.lists(st.integers(0, 1), min_size=3, max_size=240)


@given(bits=bits, d=st.integers(3, 24))
@settings(max_examples=200)
def test_fold_conserves_ones(bits, d):
    # Integer identity: the folded counts account for every kept observation.
    if len(bits) < d:
        bits = bits + [1] * (d - len(bits))
    series = BinarySeries(np.array(bits))
    folded = fold(series, d)
    kept = folded.blocks * d
    assert np.sum(folded.z * folded.blocks) == np.sum(series.values[:kept])


@given(bits=bits, d=st.integers(3, 24))
@settings(max_examples=100)
def test_fold_is_deterministic(bits, d):
    if len(bits) < d:
        bits = bits + [0] * (d - len(bits))
    series = BinarySeries(np.array(bits))
    assert np.array_equal(fold(series, d).z, fold(series, d).z)


@given(bits=bits, d=st.integers(3, 12))
@settings(max_examples=100)
def test_self_concatenation_doubles_blocks(bits, d):
    # For n a multiple of d, repeating the series leaves the means unchanged.
    n = (max(len(bits), d) // d) * d
    bits = (bits + [1] * d)[:n]
    once = fold(BinarySeries(np.array(bits)), d)
    twice = fold(BinarySeries(np.array(bits + bits)), d)
    assert twice.blocks == 2 * once.blocks
    assert np.array_equal(once.z, twice.z)


# Around each power of two up to 512 blocks: seven in-place levels leave a
# byte summing at most 128 blocks, and the rows left are summed in int64.
FOLD_BLOCKS = [1, 2, 3, 127, 128, 129, 255, 256, 257, 511, 512, 513, 1000]


def int64_fold(values, d):
    blocks = values.size // d
    return values[: blocks * d].reshape(blocks, d).sum(axis=0, dtype=np.int64)


@pytest.mark.parametrize("fill", ["ones", "random"])
@pytest.mark.parametrize("d", [3, 60])
@pytest.mark.parametrize("blocks", FOLD_BLOCKS)
def test_fold_counts_match_int64_sum(blocks, d, fill):
    # All ones put the largest sum in every byte at every level; one level
    # past 128 blocks a byte would wrap 256 to 0.
    if fill == "ones":
        x = np.ones((blocks, d), dtype=np.uint8)
    else:
        x = np.random.default_rng(blocks * d).integers(0, 2, (blocks, d), dtype=np.uint8)
    expected = int64_fold(x.ravel(), d)
    counts = _fold_counts(x.copy())
    assert counts.dtype == np.int64
    assert np.array_equal(counts, expected)
    # With a leading axis, as the table engine folds a batch, each row folds alone.
    batch = _fold_counts(np.stack([x, 1 - x, x]))
    assert np.array_equal(batch, [expected, blocks - expected, expected])
    # fold discards the d - 1 trailing values and leaves its series as it was.
    series = BinarySeries(np.append(x.ravel(), np.ones(d - 1, dtype=np.uint8)))
    folded = fold(series, d)
    assert folded.blocks == blocks
    assert np.array_equal(folded.z, expected / blocks)
    assert np.array_equal(series.values[: blocks * d], x.ravel())


@pytest.mark.parametrize("fill", ["ones", "random"])
@pytest.mark.parametrize("d", [3, 12, 1001])
def test_fold_of_a_million_values_matches_int64_sum(d, fill):
    # 333,333 blocks at d = 3; 999 at d = 1001.
    if fill == "ones":
        values = np.ones(10**6, dtype=np.int8)
    else:
        values = np.random.default_rng(d).integers(0, 2, 10**6, dtype=np.int8)
    folded = fold(BinarySeries(values), d)
    assert np.array_equal(folded.z, int64_fold(values, d) / (10**6 // d))


def test_fold_working_set_is_bounded():
    # fold halves a byte copy of the n kept values. At d = 3 the int64 sum of
    # the 2,605 x 3 bytes left after halving adds a 62.5 KB cast buffer.
    series = BinarySeries(np.random.default_rng(3).integers(0, 2, 10**6))
    fold(series, 3)
    tracemalloc.start()
    try:
        fold(series, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10**6 + 64 * 1024


def test_file_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    series = BinarySeries(rng.integers(0, 2, size=137))
    path = tmp_path / "series.txt"
    write_series(path, series)
    again = read_series(path)
    assert np.array_equal(series.values, again.values)


def test_read_series_comments_and_commas(tmp_path):
    path = tmp_path / "series.txt"
    path.write_text("# header comment\n0, 1,1\n  # indented comment\n0 1\n")
    series = read_series(path)
    assert np.array_equal(series.values, [0, 1, 1, 0, 1])


def test_read_series_bad_token(tmp_path):
    path = tmp_path / "series.txt"
    path.write_text("0 1\n1 x 0\n")
    with pytest.raises(ValueError, match=r"position 4 \(line 2"):
        read_series(path)


def test_read_series_empty(tmp_path):
    path = tmp_path / "series.txt"
    path.write_text("# nothing but comments\n")
    with pytest.raises(ValueError, match="empty series"):
        read_series(path)


# Pieces of series files: separators, line ends, comments, bad tokens and
# non-ASCII text (a no-break space, which str.split splits on, and a letter).
PIECES = [
    "0", "1", " ", ",", "\t", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c",
    "#", "2", "01", "\u00a0", "\u00e9",
]


@given(pieces=st.lists(st.sampled_from(PIECES), max_size=40))
@settings(max_examples=500, deadline=None)
def test_read_series_matches_token_loop(tmp_path_factory, pieces):
    path = tmp_path_factory.mktemp("series") / "series.txt"
    assert_reads_like_token_loop(path, "".join(pieces).encode("utf-8"))


@pytest.mark.parametrize(
    "raw",
    [
        b"0 1 1\n0,1\n",
        b"0 1\r\n# crlf comment\r\n1 0\r\n",
        b"0 1\r# lone-cr comment\r1\r0",
        b"0\r\n1 x\r\n",
        b"0\r1\r2\r",
        b"  \t# indented comment\n1\n\x0b\x0c# blank-led comment\r0",
        b"0 1\n,# not a comment\n1\n",
        b"0 1 # trailing\n",
        b"0 10 1\n",
        b"# only\n  # comments\r\n",
        b"",
        b" \n\t,\r\n",
        b"0 1\n# caf\xc3\xa9\n1\n",
        b"0\xc2\xa01 1\n",
        b"\xc2\xa0# comment after a no-break space\n1 0\n",
        b"0 1 \xc3\xa9\n",
        b"0 1\n# \xff invalid utf-8\n",
        b"\xef\xbb\xbf0 1\n",
        b"0\x001\n",
    ],
)
def test_read_series_matches_token_loop_on_edge_cases(tmp_path, raw):
    assert_reads_like_token_loop(tmp_path / "series.txt", raw)


def test_million_token_round_trip_with_header(tmp_path):
    bits = np.random.default_rng(8).integers(0, 2, size=10**6).astype(np.int8)
    path = tmp_path / "series.txt"
    write_series(path, BinarySeries(bits))
    # Comma and tab separators, and a comment line after every 997 data lines,
    # so that the byte reader's chunk cuts land among all of them.
    lines = path.read_bytes().splitlines()
    lines[0::3] = [line.replace(b" ", b",") for line in lines[0::3]]
    lines[1::3] = [line.replace(b" ", b"\t ") for line in lines[1::3]]
    for i in range(len(lines) // 997, 0, -1):
        lines.insert(997 * i, b"  # comment %d" % i)
    raw = b"# one million tokens\r\n" + b"\r\n".join(lines) + b"\r\n"
    path.write_bytes(raw)
    assert len(raw) > 4 * series_module._CHUNK
    assert np.array_equal(_ascii_bits(raw), bits)
    assert np.array_equal(read_series(path).values, bits)


def test_read_series_working_set_is_bounded(tmp_path):
    # The file's bytes, the parsed bytes and the values (one byte a token
    # each), and a few temporaries of a chunk each, not of the whole file.
    path = tmp_path / "series.txt"
    write_series(path, BinarySeries(np.random.default_rng(9).integers(0, 2, size=10**6)))
    read_series(path)
    tracemalloc.start()
    try:
        read_series(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= path.stat().st_size + 2 * 10**6 + 4 * series_module._CHUNK


def join_write_series(path, series, per_line=60):
    """Reference writer: the per-line join that write_series must match."""
    vals = series.values
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, vals.size, per_line):
            chunk = vals[start : start + per_line]
            fh.write(" ".join(str(int(v)) for v in chunk))
            fh.write("\n")


@pytest.mark.parametrize("n", [1, 2, 59, 60, 61, 120, 137])
@pytest.mark.parametrize("per_line", [1, 7, 60])
def test_write_series_matches_join(tmp_path, n, per_line):
    series = BinarySeries(np.random.default_rng(n).integers(0, 2, size=n))
    write_series(tmp_path / "new.txt", series, per_line)
    join_write_series(tmp_path / "old.txt", series, per_line)
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()


def test_write_series_rejects_empty_lines(tmp_path):
    with pytest.raises(ValueError, match="per_line must be >= 1"):
        write_series(tmp_path / "series.txt", BinarySeries(np.array([0, 1])), per_line=0)
