"""Plain bitvectors, the one level kind of the wavelet matrix.

Format version 8 retired the packed arrays, the sparse (Elias-Fano)
bitvectors, bitvector select and the standalone bitvector blobs, and the
range-minimum index, which no index part had read since the listing
engine retired.  Each test written for them keeps its name and checks
the fact it pinned on the structure that carries it now:

* select's answers are where rank1 steps (`test_select_every_rank`,
  `test_bitvector_select_rank_inverse`, `test_sparse_select0`);
* the fixed-width layout of packed arrays is the word layout of
  `BitVector`, and the packed code-length table (`test_packed_array_*`);
* a sparse level's ranks and ranges are a plain level's, reached through
  the sequence built with the inert compressed option (`test_sparse_*`);
* a standalone blob's round trip is a level's trip through the word
  stream (`test_bitvector_bytes_*`, `test_*_size_bits_is_serialized_size`);
* the range-minimum index's leftmost answers with ties are the largest
  counts the split walks prune by, kept per code-trie node with ties
  (`test_rmq_*`).
"""

import random
import tracemalloc
from array import array

import numpy as np
import pytest

from rfq import IndexBundle, IndexConfig
from rfq.bits import BitVector
from rfq.corpus import densify
from rfq.errors import FormatError, RangeError
from rfq.sequence import WaveletSequence, _Shape, _slot_max, code_lengths
from rfq.serial import ByteReader, ByteWriter


def brute_rank(bits, p):
    return sum(bits[:p])


def loaded(bv: BitVector) -> BitVector:
    """The vector after a trip through the level word stream."""
    w = ByteWriter()
    w.words(bv.words, counted=False)
    return BitVector(ByteReader(w.getvalue()).words(len(bv.words)), bv.n_bits)


def same(a: BitVector, b: BitVector) -> bool:
    return (a.n_bits, a.ones, a.words, a.cum) == (b.n_bits, b.ones, b.words, b.cum)


def two_symbol_seq(bits: np.ndarray, compressed: bool = True) -> WaveletSequence:
    """The sequence of a bundle over 1 + bits, built with the compressed
    option that once stored such a level sparse (one symbol when the bits
    are all equal)."""
    return IndexBundle.from_values(1 + bits.astype(np.int64), IndexConfig(compressed=compressed)).seq


# -- fixed-width values over the words (PackedArray retired) ----------------------


@pytest.mark.parametrize("width", [0, 1, 3, 7, 8, 13, 32, 40, 63, 64])
def test_packed_array_round_trip(width):
    """137 values of `width` bits laid end to end, value i at bits
    [i * width, (i + 1) * width), some straddling two words: the words
    reassemble each value, to_numpy_bool restores every bit, and rank1 at
    each value boundary is the running popcount."""
    rng = random.Random(width)
    vals = [rng.randrange(1 << width) if width else 0 for _ in range(137)]
    if width:
        vals[::5] = [v | 1 << (width - 1) for v in vals[::5]]  # top bit set
    bits = np.array([v >> j & 1 for v in vals for j in range(width)], dtype=bool)
    bv = BitVector.from_numpy_bool(bits)
    assert bv.n_bits == 137 * width
    stream = sum(w << (64 * i) for i, w in enumerate(bv.words))
    assert [stream >> (i * width) & ((1 << width) - 1) for i in range(137)] == vals
    assert bv.to_numpy_bool().tolist() == bits.tolist()
    running = np.concatenate(([0], np.cumsum([v.bit_count() for v in vals])))
    assert [bv.rank1(i * width) for i in range(138)] == running.tolist()


def test_packed_array_width_zero_is_free():
    # the one packed array left is the code-length table: a single symbol
    # has the empty code, so the table is a zero width byte and no bits
    seq = WaveletSequence.build(np.ones(1000, dtype=np.int64))
    blob = seq.to_bytes()
    assert len(blob) == 8 + 4 + 1 and blob[-1] == 0
    assert seq.size_bits() == 8 * len(blob)
    assert WaveletSequence.read_from(ByteReader(blob)).to_array().tolist() == [1] * 1000
    assert not BitVector.from_numpy_bool(np.zeros(0, dtype=bool)).words


# -- BitVector ---------------------------------------------------------------------


def test_bitvector_exhaustive_bytes():
    for pattern in range(256):
        bits = [(pattern >> i) & 1 for i in range(8)]
        bv = BitVector.from_bits(bits)
        assert bv.to_numpy_bool().tolist() == [bool(b) for b in bits]
        want = [brute_rank(bits, p) for p in range(9)]
        assert [bv.rank1(p) for p in range(9)] == want
        assert bv.rank1_array(np.arange(9)).tolist() == want


@pytest.mark.parametrize("n", [1, 63, 64, 65, 511, 512, 513, 1500])
def test_bitvector_block_boundaries(n):
    rng = random.Random(n)
    bits = [rng.randint(0, 1) for _ in range(n)]
    bv = BitVector.from_bits(bits)
    assert bv.n_bits == n
    assert bv.ones == sum(bits)
    for p in [0, 1, n // 2, n - 1, n]:
        assert bv.rank1(p) == brute_rank(bits, p)
    assert bv.to_numpy_bool().tolist() == [bool(b) for b in bits]


@pytest.mark.parametrize("density", [0, 0.01, 0.5, 0.99, 1])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 511, 512, 513, 4095, 4097, 70001])
def test_select_every_rank(n, density):
    """Select retired; what it answered is where rank1 steps.  The r-th one
    sits where rank1 reaches r and the r-th zero where p - rank1(p)
    reaches r, over every one and zero, with rank1_array across the rank
    directory's words and a partial last word at skewed densities."""
    arr = np.random.default_rng(n).random(n) < density
    bv = BitVector.from_numpy_bool(arr)
    for bit in (1, 0):
        where = np.flatnonzero(arr == bit) + 1
        r1 = bv.rank1_array(where)
        got = r1 if bit else where - r1
        assert got.tolist() == list(range(1, where.size + 1))
        assert (bv.rank1_array(where - 1) == r1 - bit).all()
    with pytest.raises(RangeError):
        bv.rank1(n + 1)


@pytest.mark.parametrize("density", [0, 0.01, 0.5, 0.99, 1])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 511, 512, 513, 4095, 4097, 70001])
def test_rank_every_prefix(n, density):
    arr = np.random.default_rng(n).random(n) < density
    bv = BitVector.from_numpy_bool(arr)
    want = [0] + np.cumsum(arr).tolist()
    assert [bv.rank1(p) for p in range(n + 1)] == want
    with pytest.raises(RangeError):
        bv.rank1(n + 1)


def test_bitvector_select_rank_inverse():
    rng = random.Random(7)
    bits = [rng.random() < 0.3 for _ in range(2000)]
    bv = BitVector.from_bits(bits)
    where = [i + 1 for i, b in enumerate(bits) if b]
    assert len(where) == bv.ones
    for r, p in enumerate(where, 1):
        assert bv.rank1(p) == r
        assert bv.rank1(p - 1) == r - 1


def test_bitvector_errors():
    bv = BitVector.from_bits([1, 0, 1])
    with pytest.raises(RangeError):
        bv.rank1(4)
    with pytest.raises(RangeError):
        bv.rank1(-1)
    with pytest.raises(FormatError, match="word count"):
        BitVector(array("Q", [5]), 65)
    with pytest.raises(FormatError, match="word count"):
        BitVector(array("Q"), -1)
    with pytest.raises(FormatError, match="stray bits"):
        BitVector(array("Q", [0b1101]), 3)


def test_bitvector_from_ones_and_numpy():
    bv = BitVector.from_ones([2, 5, 6], 8)
    assert bv.to_numpy_bool().tolist() == [
        False, True, False, False, True, True, False, False]
    arr = np.zeros(100, dtype=bool)
    arr[[0, 42, 99]] = True
    bv = BitVector.from_numpy_bool(arr)
    assert (bv.rank1(42), bv.rank1(43)) == (1, 2)  # the second one is at 43


# -- what sparse levels held, on plain levels -------------------------------------------


@pytest.mark.parametrize("n,density", [(50, 0.5), (1000, 0.02), (1000, 0.3),
                                       (4096, 0.001), (64, 1.0)])
def test_sparse_matches_plain(n, density):
    """A bundle built with the compressed option, which chose the sparse
    encoding on inputs like these, holds the plain sequence byte for byte
    and counts every sampled prefix and range alike."""
    rng = random.Random(int(n * density))
    bits = np.array([rng.random() < density for _ in range(n)])
    plain, comp = two_symbol_seq(bits, False), two_symbol_seq(bits, True)
    assert comp.to_bytes() == plain.to_bytes()
    data, _ = densify(1 + bits)
    for p in range(1, n + 1, max(1, n // 97)):
        want = dict(zip(*np.unique(data[:p], return_counts=True)))
        assert comp.range_counts(1, p) == {int(a): int(c) for a, c in want.items()}
    assert comp.to_array().tolist() == data.tolist()


def test_sparse_empty_and_full():
    empty = BitVector.from_ones([], 1000)
    assert empty.ones == 0 and empty.rank1(1000) == 0
    assert not empty.to_numpy_bool().any()
    full = BitVector.from_ones(list(range(1, 9)), 8)
    assert full.rank1(8) == 8 and full.to_numpy_bool().all()
    # in the matrix an all-equal level does not exist: one symbol, no level
    for bits in (np.zeros(1000, dtype=bool), np.ones(8, dtype=bool)):
        seq = two_symbol_seq(bits)
        assert seq.depth == 0 and seq.range_counts(1, bits.size) == {1: bits.size}


def test_sparse_ones_in_range():
    bv = BitVector.from_ones([3, 9, 10, 40, 41, 900], 1000)
    bits = bv.to_numpy_bool()

    def ones_in_range(lo, hi):
        return (np.flatnonzero(bits[lo - 1:hi]) + lo).tolist()
    for (lo, hi), want in (((9, 41), [9, 10, 40, 41]), ((1, 1000), [3, 9, 10, 40, 41, 900]),
                           ((42, 899), []), ((900, 900), [900])):
        assert ones_in_range(lo, hi) == want
        assert bv.rank1(hi) - bv.rank1(lo - 1) == len(want)


def sparse_cases():
    """(length, density name, bool array) for the every-range sweep."""
    for n in (1, 63, 64, 65, 130, 1000):
        rng = np.random.default_rng(n)
        single = np.zeros(n, dtype=bool)
        single[n // 2] = True
        yield n, "empty", np.zeros(n, dtype=bool)
        yield n, "single", single
        yield n, "0.01", rng.random(n) < 0.01
        yield n, "0.5", rng.random(n) < 0.5
        yield n, "full", np.ones(n, dtype=bool)


@pytest.mark.parametrize("loaded_", [False, True], ids=["built", "loaded"])
@pytest.mark.parametrize("n, density, bits", [
    pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in sparse_cases()])
def test_sparse_ones_in_range_every_range(n, density, bits, loaded_):
    """The sequence over 1 + bits, built with the compressed option and
    optionally reloaded, counts every range exactly: every (lo, hi) up to
    length 130; at length 1000 every lo with each hi up to 64 places on,
    and with hi = n."""
    seq = two_symbol_seq(bits)
    if loaded_:
        seq = WaveletSequence.read_from(ByteReader(seq.to_bytes()))
    data, _ = densify(1 + bits)
    assert seq.to_array().tolist() == data.tolist()
    sigma = seq.sigma
    prefix = np.zeros((sigma + 1, n + 1), dtype=np.int64)
    for a in range(1, sigma + 1):
        prefix[a, 1:] = np.cumsum(data == a)
    for lo in range(1, n + 1):
        his = range(lo, n + 1) if n <= 130 else [*range(lo, min(lo + 65, n + 1)), n]
        for hi in his:
            want = {a: int(prefix[a, hi] - prefix[a, lo - 1]) for a in range(1, sigma + 1)}
            assert seq.range_counts(lo, hi) == {a: c for a, c in want.items() if c}, (lo, hi)


def bucket_bits():
    """131072 bits holding 330 ones: 200, 65, 64 and 1 ones in the
    512-position windows 3, 10, 20 and 30 (the sparse encoding's buckets),
    and none elsewhere."""
    bits = np.zeros(1 << 17, dtype=bool)
    rng = np.random.default_rng(17)
    for bucket, ones in ((3, 200), (10, 65), (20, 64), (30, 1)):
        bits[bucket * 512 + rng.choice(512, ones, replace=False)] = True
    return bits


@pytest.mark.parametrize("loaded_", [False, True], ids=["built", "loaded"])
def test_sparse_rank_every_prefix_across_buckets(loaded_):
    bits = bucket_bits()
    bv = BitVector.from_numpy_bool(bits)
    if loaded_:
        bv = loaded(bv)
    assert bv.ones == 330
    want = np.concatenate(([0], np.cumsum(bits)))
    got = [bv.rank1(p) for p in range(bits.size + 1)]
    assert got == want.tolist()
    assert bv.rank1_array(np.arange(0, bits.size + 1, 97)).tolist() == want[::97].tolist()


@pytest.mark.parametrize("n", [1, 63, 64, 65, 4097])
def test_plain_rank_array_every_prefix(n):
    bits = np.random.default_rng(n).random(n) < 0.4
    bv = BitVector.from_numpy_bool(bits)
    want = np.concatenate(([0], np.cumsum(bits)))
    assert bv.rank1_array(np.arange(n + 1)).tolist() == want.tolist()


def test_sparse_from_ones_validation():
    with pytest.raises(RangeError):
        BitVector.from_ones([0], 5)
    with pytest.raises(RangeError):
        BitVector.from_ones([6], 5)
    # a repeated position sets its bit once
    assert BitVector.from_ones([2, 2], 5).to_numpy_bool().tolist() == [
        False, True, False, False, False]


def test_sparse_from_ones_unsorted_array():
    rng = np.random.default_rng(5)
    ones = rng.choice(np.arange(1, 5001), size=300, replace=False)
    given = ones.copy()
    got = BitVector.from_ones(ones, 5000)
    assert same(got, BitVector.from_ones(sorted(ones.tolist()), 5000))
    assert (ones == given).all()  # the caller's array is left as it was
    assert got.ones == 300
    with pytest.raises(RangeError):
        BitVector.from_ones(np.append(ones, 0), 5000)
    with pytest.raises(RangeError):
        BitVector.from_ones(np.append(ones, 5001), 5000)


def test_sparse_select0():
    bits = [0, 1, 1, 0, 0, 1, 0]
    bv = BitVector.from_ones([2, 3, 6], 7)
    zeros = [p for p in range(1, 8) if not bits[p - 1]]
    assert [p - bv.rank1(p) for p in zeros] == list(range(1, len(zeros) + 1))


# -- levels through the word stream ---------------------------------------------------


@pytest.mark.parametrize("kind", ["BitVector", "SparseBitVector"])
def test_bitvector_bytes_round_trip(kind):
    """BitVector: a level's words through the writer and the reader give an
    equal vector.  SparseBitVector: the same positions as a sequence with
    the compressed option, where sparse levels were written, reload byte
    for byte."""
    rng = random.Random(99)
    ones = sorted(rng.sample(range(1, 5001), 180))
    orig = BitVector.from_ones(ones, 5000)
    if kind == "BitVector":
        assert same(loaded(orig), orig)
        return
    seq = two_symbol_seq(orig.to_numpy_bool())
    back = WaveletSequence.read_from(ByteReader(seq.to_bytes()))
    assert back.to_bytes() == seq.to_bytes()
    assert same(back._levels[0], seq._levels[0])


def test_words_are_one_typed_buffer():
    """Built and loaded vectors, and a loaded sequence's levels, hold their
    words as array('Q') and agree."""
    arr = np.random.default_rng(3).random(5000) < 0.05
    ones = np.flatnonzero(arr) + 1
    plain = [BitVector.from_numpy_bool(arr), BitVector.from_ones(ones, arr.size)]
    plain.append(BitVector(list(plain[0].words), arr.size))  # words given as ints
    for bv in plain + [loaded(plain[0])]:
        assert type(bv.words) is array and bv.words.typecode == "Q"
        assert same(bv, plain[0])
    seq = two_symbol_seq(arr)
    for level in WaveletSequence.read_from(ByteReader(seq.to_bytes()))._levels:
        assert type(level.words) is array and level.words.typecode == "Q"


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 70001])
def test_plain_size_bits_is_serialized_size(n):
    # a level of n bits puts ceil(n / 64) words in the stream, and no more
    bv = BitVector.from_numpy_bool(np.random.default_rng(n).random(n) < 0.5)
    w = ByteWriter()
    w.words(bv.words, counted=False)
    assert len(w.getvalue()) == 8 * ((n + 63) // 64)
    assert same(loaded(bv), bv)


@pytest.mark.parametrize("density", [0, 0.01, 0.5, 1])
def test_sparse_size_bits_is_serialized_size(density):
    for n in (1, 64, 70001):
        seq = two_symbol_seq(np.random.default_rng(n).random(n) < density)
        assert seq.size_bits() == 8 * len(seq.to_bytes()), n


def test_sparse_bytes_rejects_inconsistent_fields():
    """A two-symbol sequence's one level: a declared length other than n, a
    stream one word short, and a set bit past the declared length are each
    refused by the loader."""
    bits = np.random.default_rng(4).random(1000) < 0.1
    blob = two_symbol_seq(bits).to_bytes()
    at = len(blob) - 8 * 16 - 8  # the level's u64 length, then 16 words
    assert int.from_bytes(blob[at:at + 8], "little") == 1000
    with pytest.raises(FormatError, match="level 0 holds 999 bits"):
        WaveletSequence.read_from(ByteReader(blob[:at] + (999).to_bytes(8, "little") + blob[at + 8:]))
    with pytest.raises(FormatError, match="truncated"):
        WaveletSequence.read_from(ByteReader(blob[:-8]))
    last = bytearray(blob)
    last[-1] |= 0x80  # bit 1023 of a 1000-bit level
    with pytest.raises(FormatError, match="stray bits"):
        WaveletSequence.read_from(ByteReader(bytes(last)))


def test_bitvector_bytes_bad_magic():
    # standalone bitvector blobs and their RFQB magic are gone; a file
    # starting with that magic is refused
    blob = IndexBundle.from_values([1, 2, 1]).to_bytes()
    with pytest.raises(FormatError, match="bad magic"):
        IndexBundle.from_bytes(b"RFQB" + blob[4:])


# -- the largest counts the walks prune by (RmqIndex retired) --------------------------


def slot_max_by_code(seq) -> list[tuple[int, int, int, int]]:
    """(symbol, level, stored largest count, stored smallest symbol) for
    every slot a symbol's code passes, found by following the code down
    the matrix: at each level the bit picks the child slot, which is a
    leaf among the first `leaves`."""
    out = []
    for a in range(1, seq.sigma + 1):
        node = 0
        for lvl, bit in enumerate(seq.code(a)):
            _, _, _, _, inner, leaves, least, top = seq._steps[lvl]
            child = node + inner * int(bit)
            out.append((a, lvl, top[child], least[child]))
            node = child - leaves
    return out


def check_slot_max(counts: list[int]) -> WaveletSequence:
    """Every slot on every code's path stores the largest count and the
    smallest symbol (0-based) among the symbols whose codes share its
    prefix, and the pruned walk over the whole sequence returns exactly
    the symbols above every threshold."""
    data = np.repeat(np.arange(1, len(counts) + 1), counts)
    np.random.default_rng(len(counts)).shuffle(data)
    seq = WaveletSequence.build(data)
    codes = {a: seq.code(a) for a in range(1, seq.sigma + 1)}
    for a, lvl, top, least in slot_max_by_code(seq):
        prefix = codes[a][:lvl + 1]
        below = [b for b, c in codes.items() if c.startswith(prefix)]
        assert top == max(counts[b - 1] for b in below)
        assert least == min(below) - 1
    for thr in range(max(counts) + 1):
        want = {a: c for a, c in enumerate(counts, 1) if c > thr}
        assert seq.range_counts(1, data.size, thr) == want, thr
    return seq


def test_rmq_frozen(canon_seq):
    # canon counts 5, 2, 2, 1, 1: level 0's slots are symbol 1's leaf and
    # the node above the other four; level 1's the nodes 10 and 11; level
    # 2's the leaves 100, 110, 101 and 111
    assert [canon_seq.code(a) for a in range(1, 6)] == ["0", "100", "110", "101", "111"]
    assert [step[7].tolist() for step in canon_seq._steps] == [[5, 2], [2, 2], [2, 2, 1, 1]]
    assert [step[6].tolist() for step in canon_seq._steps] == [[0, 1], [1, 2], [1, 2, 3, 4]]
    check_slot_max([5, 2, 2, 1, 1])


def test_rmq_leftmost_ties_random():
    rng = random.Random(5)
    for _ in range(30):
        check_slot_max([rng.randint(1, 6) for _ in range(rng.randint(2, 40))])


@pytest.mark.parametrize("n", [1, 15, 16, 17, 31, 32, 33, 100])
def test_rmq_every_range_with_ties(n):
    """n symbols whose counts come from alphabets of 1, 2 and 4 values, so
    most largest counts are ties."""
    rng = random.Random(n)
    for alphabet in (1, 2, 4):
        check_slot_max([1 + rng.randrange(alphabet) for _ in range(n)])


def test_rmq_space_is_linear():
    """The largest counts take one cell per child slot, 2 (sigma - 1) of
    them, each as narrow as the largest count allows (4 bytes for counts
    below 2**32), and are derived in O(sigma) words of working space."""
    sigma = 1 << 17
    counts = np.random.default_rng(9).integers(1, 1 << 20, size=sigma)
    shape = _Shape(code_lengths(counts))
    tracemalloc.start()
    try:
        tops = _slot_max(shape, counts)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(t) for t in tops) == 2 * (sigma - 1)
    assert {t.itemsize for t in tops} == {4}
    assert held <= 10 * sigma, held / sigma  # 8 bytes of cells a symbol, and array slack
    assert peak <= 64 * sigma, peak / sigma
