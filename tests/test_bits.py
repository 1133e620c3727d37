"""Plain and sparse bitvectors, packed arrays, and the range-min table."""

import random

import numpy as np
import pytest

from rfq.bits import (
    BitVector,
    PackedArray,
    RmqIndex,
    SparseBitVector,
    bitvector_from_bytes,
)
from rfq.errors import DomainError, FormatError, NotFoundError, RangeError
from rfq.serial import FORMAT_VERSION, MAGIC_BITS, ByteWriter


def brute_rank(bits, p):
    return sum(bits[:p])


def brute_select(bits, r):
    seen = 0
    for i, b in enumerate(bits):
        seen += b
        if b and seen == r:
            return i + 1
    return None


# -- PackedArray ------------------------------------------------------------------


@pytest.mark.parametrize("width", [0, 1, 3, 7, 8, 13, 32, 40, 63, 64])
def test_packed_array_round_trip(width):
    rng = random.Random(width)
    vals = [rng.randrange(1 << width) if width else 0 for _ in range(137)]
    if width:
        vals[::5] = [v | 1 << (width - 1) for v in vals[::5]]  # top bit set
    pa = PackedArray.from_values(width, vals)
    assert [pa.get(i) for i in range(len(vals))] == vals
    assert pa.to_numpy().tolist() == vals
    as_u64 = np.array(vals, dtype=np.uint64)
    for arr in (as_u64, as_u64.view(np.int64)):
        assert PackedArray.from_values(width, arr).words == pa.words


def test_packed_array_width_zero_is_free():
    pa = PackedArray.from_values(0, [0] * 1000)
    assert pa.get(999) == 0
    assert not pa.words


# -- BitVector ---------------------------------------------------------------------


def test_bitvector_exhaustive_bytes():
    for pattern in range(256):
        bits = [(pattern >> i) & 1 for i in range(8)]
        bv = BitVector.from_bits(bits)
        for p in range(9):
            assert bv.rank1(p) == brute_rank(bits, p)
            assert bv.rank0(p) == p - brute_rank(bits, p)
        for r in range(1, sum(bits) + 1):
            assert bv.select1(r) == brute_select(bits, r)
        zeros = [1 - b for b in bits]
        for r in range(1, sum(zeros) + 1):
            assert bv.select0(r) == brute_select(zeros, r)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 511, 512, 513, 1500])
def test_bitvector_block_boundaries(n):
    rng = random.Random(n)
    bits = [rng.randint(0, 1) for _ in range(n)]
    bv = BitVector.from_bits(bits)
    assert bv.n_bits == n
    assert bv.ones == sum(bits)
    for p in [0, 1, n // 2, n - 1, n]:
        assert bv.rank1(p) == brute_rank(bits, p)
    for r in [1, max(1, bv.ones // 2), bv.ones]:
        if bv.ones:
            assert bv.select1(r) == brute_select(bits, r)
    for p in range(1, n + 1):
        assert bv.get(p) == bits[p - 1]


@pytest.mark.parametrize("density", [0, 0.01, 0.5, 0.99, 1])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 511, 512, 513, 4095, 4097, 70001])
def test_select_every_rank(n, density):
    # spans several select samples and superblocks, skewed densities and a
    # partial last word; the sparse select0 must agree with the plain one
    arr = np.random.default_rng(n).random(n) < density
    bv = BitVector.from_numpy_bool(arr)
    for bit, select in ((1, bv.select1), (0, bv.select0)):
        want = (np.flatnonzero(arr == bit) + 1).tolist()
        assert [select(r) for r in range(1, len(want) + 1)] == want
        with pytest.raises(RangeError):
            select(0)
        with pytest.raises(NotFoundError):
            select(len(want) + 1)
    sparse = SparseBitVector.from_numpy_bool(arr)
    zeros = bv.n_bits - bv.ones
    assert [sparse.select0(r) for r in range(1, zeros + 1)] == [
        bv.select0(r) for r in range(1, zeros + 1)]
    with pytest.raises(RangeError):
        sparse.select0(0)
    with pytest.raises(NotFoundError):
        sparse.select0(zeros + 1)


def test_bitvector_select_rank_inverse():
    rng = random.Random(7)
    bits = [rng.random() < 0.3 for _ in range(2000)]
    bv = BitVector.from_bits(bits)
    for r in range(1, bv.ones + 1):
        p = bv.select1(r)
        assert bv.rank1(p) == r
        assert bv.get(p) == 1


def test_bitvector_errors():
    bv = BitVector.from_bits([1, 0, 1])
    with pytest.raises(RangeError):
        bv.rank1(4)
    with pytest.raises(RangeError):
        bv.get(0)
    with pytest.raises(RangeError):
        bv.select1(0)
    with pytest.raises(NotFoundError):
        bv.select1(3)
    with pytest.raises(NotFoundError):
        bv.select0(2)


def test_bitvector_from_ones_and_numpy():
    bv = BitVector.from_ones([2, 5, 6], 8)
    assert bv.to_numpy_bool().tolist() == [
        False, True, False, False, True, True, False, False]
    arr = np.zeros(100, dtype=bool)
    arr[[0, 42, 99]] = True
    assert BitVector.from_numpy_bool(arr).select1(2) == 43


# -- SparseBitVector ----------------------------------------------------------------


@pytest.mark.parametrize("n,density", [(50, 0.5), (1000, 0.02), (1000, 0.3),
                                       (4096, 0.001), (64, 1.0)])
def test_sparse_matches_plain(n, density):
    rng = random.Random(int(n * density))
    bits = [rng.random() < density for _ in range(n)]
    plain = BitVector.from_bits(bits)
    sparse = SparseBitVector.from_ones(
        [i + 1 for i, b in enumerate(bits) if b], n)
    assert sparse.ones == plain.ones
    assert sparse.n_bits == n
    for p in range(0, n + 1, max(1, n // 97)):
        assert sparse.rank1(p) == plain.rank1(p)
    for r in range(1, plain.ones + 1):
        assert sparse.select1(r) == plain.select1(r)
    for p in range(1, n + 1, max(1, n // 53)):
        assert sparse.get(p) == plain.get(p)


def test_sparse_empty_and_full():
    empty = SparseBitVector.from_ones([], 1000)
    assert empty.ones == 0
    assert empty.rank1(1000) == 0
    assert empty.ones_in_range(1, 1000) == []
    full = SparseBitVector.from_ones(list(range(1, 9)), 8)
    assert full.rank1(8) == 8
    assert full.select1(8) == 8


def test_sparse_ones_in_range():
    sv = SparseBitVector.from_ones([3, 9, 10, 40, 41, 900], 1000)
    assert sv.ones_in_range(9, 41) == [9, 10, 40, 41]
    assert sv.ones_in_range(1, 1000) == [3, 9, 10, 40, 41, 900]
    assert sv.ones_in_range(42, 899) == []
    assert sv.ones_in_range(900, 900) == [900]


def test_sparse_from_ones_validation():
    with pytest.raises(RangeError):
        SparseBitVector.from_ones([0], 5)
    with pytest.raises(DomainError):
        SparseBitVector.from_ones([2, 2], 5)
    with pytest.raises(RangeError):
        SparseBitVector.from_ones([6], 5)


def test_sparse_from_ones_unsorted_array():
    rng = np.random.default_rng(5)
    ones = rng.choice(np.arange(1, 5001), size=300, replace=False)
    given = ones.copy()
    got = SparseBitVector.from_ones(ones, 5000)
    assert got == SparseBitVector.from_ones(sorted(ones.tolist()), 5000)
    assert (ones == given).all()  # the caller's array is left as it was
    with pytest.raises(DomainError):
        SparseBitVector.from_ones(np.append(ones, ones[7]), 5000)
    with pytest.raises(RangeError):
        SparseBitVector.from_ones(np.append(ones, 0), 5000)
    with pytest.raises(RangeError):
        SparseBitVector.from_ones(np.append(ones, 5001), 5000)


def test_sparse_select0():
    bits = [0, 1, 1, 0, 0, 1, 0]
    sv = SparseBitVector.from_ones([2, 3, 6], 7)
    zeros = [1 - b for b in bits]
    for r in range(1, sum(zeros) + 1):
        assert sv.select0(r) == brute_select(zeros, r)


# -- serialization -------------------------------------------------------------------


@pytest.mark.parametrize("cls", [BitVector, SparseBitVector])
def test_bitvector_bytes_round_trip(cls):
    rng = random.Random(99)
    ones = sorted(rng.sample(range(1, 5001), 180))
    orig = cls.from_ones(ones, 5000)
    back = bitvector_from_bytes(orig.to_bytes())
    assert type(back) is cls
    assert back == orig
    assert back.to_bytes() == orig.to_bytes()


def sparse_blob(n_bits, ones, low_width, lows, upper_bits):
    """A kind-1 bitvector blob written field by field, consistent or not."""
    w = ByteWriter()
    w.raw(MAGIC_BITS)
    w.u16(FORMAT_VERSION)
    w.u8(1)
    w.u64(n_bits)
    w.u64(ones)
    w.u8(low_width)
    w.words(PackedArray.from_values(low_width, lows).words)
    upper = BitVector.from_bits(upper_bits)
    w.u64(upper.n_bits)
    w.words(upper.words)
    return w.getvalue()


def test_sparse_bytes_rejects_inconsistent_fields():
    # 100 ones in 1000 bits and 99 in 1000 both give 4 low bits and 63 buckets
    rng = random.Random(4)
    sv = SparseBitVector.from_ones(sorted(rng.sample(range(1, 1000), 99)) + [1000], 1000)
    n, m, width = sv.n_bits, sv.ones, sv.low_width
    lows = sv.low.to_numpy().tolist()
    upper = sv.upper.to_numpy_bool().tolist()
    assert sparse_blob(n, m, width, lows, upper) == sv.to_bytes()
    with pytest.raises(FormatError, match="ones in"):
        bitvector_from_bytes(sparse_blob(n, n + 1, width, lows, upper))
    with pytest.raises(FormatError, match="low width"):
        bitvector_from_bytes(sparse_blob(n, m, width + 1, lows, upper))
    with pytest.raises(FormatError, match="upper part holds 164 bits"):
        bitvector_from_bytes(sparse_blob(n, m, width, lows, upper + [False]))
    # the header claims one set bit fewer than the upper part holds; the upper
    # part drops its last (terminating) zero so its length fits m - 1 ones
    assert upper[-1] is False
    with pytest.raises(FormatError, match="header says 99"):
        bitvector_from_bytes(sparse_blob(n, m - 1, width, lows[:-1], upper[:-1]))
    # the last set bit (1000 = bucket 62, low 7) decodes to 1008
    with pytest.raises(FormatError, match="beyond 1000 bits"):
        bitvector_from_bytes(sparse_blob(n, m, width, lows[:-1] + [15], upper))
    # positions 3 and 5 share bucket 0 (low width 4); swapping their lows
    # would make select1 return 5 for the 1st one and 3 for the 2nd
    sv = SparseBitVector.from_ones([3, 5, 9, 21, 27, 40, 77], 100)
    lows = sv.low.to_numpy().tolist()
    assert sv.low_width == 4 and lows[:2] == [2, 4]
    swapped = sparse_blob(100, 7, 4, [4, 2] + lows[2:], sv.upper.to_numpy_bool().tolist())
    with pytest.raises(FormatError, match="not strictly increasing"):
        bitvector_from_bytes(swapped)


def test_bitvector_bytes_bad_magic():
    blob = BitVector.from_bits([1, 0]).to_bytes()
    with pytest.raises(FormatError):
        bitvector_from_bytes(b"XXXX" + blob[4:])


# -- RmqIndex ------------------------------------------------------------------------


def test_rmq_frozen():
    idx = RmqIndex([0, 0, 0, 1, 0, 4, 0, 6, 2, 3, 8])
    assert idx.query(4, 8) == 5
    assert idx.query(1, 11) == 1
    assert idx.query(8, 8) == 8
    assert RmqIndex([3, 1, 1, 2]).query(1, 4) == 2
    assert RmqIndex([7]).query(1, 1) == 1


def test_rmq_leftmost_ties_random():
    rng = random.Random(5)
    for _ in range(60):
        vals = [rng.randint(0, 6) for _ in range(rng.randint(1, 80))]
        idx = RmqIndex(vals)
        for _ in range(40):
            l = rng.randint(1, len(vals))
            r = rng.randint(l, len(vals))
            got = idx.query(l, r)
            lowest = min(vals[l - 1:r])
            assert vals[got - 1] == lowest
            assert got == l + vals[l - 1:r].index(lowest)
