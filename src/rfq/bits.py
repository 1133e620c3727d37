"""Plain and compressed bitvectors with rank/select, plus a range-minimum index.

Positions are 1-based throughout the public API.  rank1(p) counts set bits
among the first p positions; select1(r) returns the position of the r-th
set bit.  Every bitvector, built or loaded, holds its 64-bit words in one
typed buffer, array('Q').  Plain bitvectors add one rank count per word,
cum[w] = ones before word w, in array('I') (array('Q') from 2**32 bits on),
and sampled select hints (the words holding every 512th one and zero), so
the directory costs half a bit per bit.  rank1 is one count read plus a
popcount.  Select is directory-guided: the samples around r bound a binary
search over the per-word counts (zeros before word w are 64 w - cum[w]),
and a broadword in-word select (halving the word with popcounts, then one
byte-table read) finds the bit (Vigna, "Broadword implementation of
rank/select queries", WEA 2008; Gog and Petri, "Optimized succinct data
structures for massive data", SPE 2014).  The compressed variant stores
sorted set positions with a low/high split; its rank and select
directories are rebuilt at load time, and sizes are computed from the
persisted payload's shape.

The range-minimum index takes O(n) words: byte-sized in-block offsets for
16-cell blocks plus a sparse table over the blocks' minima (Fischer &
Heun, SICOMP 2011): about 8 bytes a value on top of the values, which it
keeps in the caller's integer dtype, where a sparse table over every cell
takes 8 lg n.  No index part uses it since the listing engine retired.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left

import numpy as np

from .errors import DomainError, FormatError, NotFoundError, RangeError
from .serial import FORMAT_VERSION, MAGIC_BITS, ByteReader, ByteWriter, words_from_bytes

_SAMPLE_SHIFT = 9
_SELECT_SAMPLE = 1 << _SAMPLE_SHIFT  # select samples every 512th one and zero
_M64 = (1 << 64) - 1
_RMQ_BLOCK = 16  # RmqIndex cells per block; query() hard-codes the 4-bit shift

# _SEL8[8 * b + j]: offset of the (j+1)-th set bit of byte b (8 when absent)
_SEL8 = bytes(
    ([i for i in range(8) if b >> i & 1] + [8] * 8)[j] for b in range(256) for j in range(8)
)


def _select_in_word(word: int, k: int) -> int:
    """0-based offset of the k-th (1-based) set bit of a 64-bit word."""
    off = 0
    c = (word & 0xFFFFFFFF).bit_count()
    if c < k:
        k -= c
        word >>= 32
        off = 32
    c = (word & 0xFFFF).bit_count()
    if c < k:
        k -= c
        word >>= 16
        off += 16
    c = (word & 0xFF).bit_count()
    if c < k:
        k -= c
        word >>= 8
        off += 8
    return off + _SEL8[((word & 0xFF) << 3) + k - 1]


class PackedArray:
    """Fixed-width integer array packed into 64-bit words.

    Value i occupies bits [i * width, (i + 1) * width) of the little-endian
    bit stream formed by the words, so a value may straddle two words.
    Both directions are vectorized: `from_values` spreads each value into
    its bits and packs them with numpy, `to_numpy` unpacks them again;
    `get` reads a single value from the words.
    """

    __slots__ = ("width", "count", "words")

    def __init__(self, width: int, count: int, words: array | None = None):
        if not (0 <= width <= 64):
            raise DomainError(f"width {width} out of range")
        self.width = width
        self.count = count
        nwords = (width * count + 63) // 64
        if words is None:
            words = array("Q", bytes(8 * nwords))
        if len(words) != nwords:
            raise FormatError("packed array word count mismatch")
        self.words = _as_words(words)

    @classmethod
    def from_values(cls, width: int, values) -> "PackedArray":
        """Pack the low `width` bits of each value (a sequence or integer array).

        The inverse of `to_numpy`: each value's bits, least significant
        first, are laid end to end and packed little-endian into words.
        """
        vals = np.ascontiguousarray(values, dtype="<u8")
        if width == 0:
            return cls(0, int(vals.size))
        low_bytes = vals.view(np.uint8).reshape(-1, 8)[:, : (width + 7) // 8]
        bits = np.unpackbits(low_bytes, axis=1, count=width, bitorder="little")
        return cls(width, int(vals.size), _pack_bits(bits.reshape(-1)))

    def get(self, idx: int) -> int:
        if self.width == 0:
            return 0
        s = idx * self.width
        wi, off = s >> 6, s & 63
        v = self.words[wi] >> off
        spill = off + self.width - 64
        if spill > 0:
            v |= self.words[wi + 1] << (self.width - spill)
        return v & ((1 << self.width) - 1)

    def to_numpy(self) -> np.ndarray:
        """Vectorized decode of all values, in the smallest unsigned dtype."""
        bits = np.unpackbits(_le_bytes(self.words), count=self.count * self.width, bitorder="little")
        weights = (1 << np.arange(self.width)).astype(np.min_scalar_type((1 << self.width) - 1))
        return bits.reshape(self.count, self.width) @ weights


def _as_words(words) -> array:
    """The words as array('Q'), the one form every bitvector holds."""
    if isinstance(words, array) and words.typecode == "Q":
        return words
    return array("Q", words)


def _pack_bits(bits: np.ndarray) -> array:
    """Words holding a bool (or 0/1) array's bits, the first in bit 0 of word 0."""
    packed = np.packbits(bits, bitorder="little")
    return words_from_bytes(packed.tobytes() + bytes(-packed.size % 8))


def _le_bytes(words: array) -> np.ndarray:
    """The words' little-endian bytes as a uint8 array (no copy on such hosts)."""
    return np.frombuffer(words, dtype=np.uint64).astype("<u8", copy=False).view(np.uint8)


def _typed(values: np.ndarray, code: str) -> array:
    return array(code, values.astype(code).tobytes())  # numpy reads the same type codes


def _directories(words: array, n_bits: int):
    """Rank directory and select samples of a word array, built with numpy.

    cum[w] counts the ones before word w, and cum[len(words)] all of them;
    sel1[j] and sel0[j] are the words holding the (512 j + 1)-th one and
    zero.  All three are array('I'), or array('Q') from 2**32 bits on.
    """
    nw = len(words)
    pc = np.bitwise_count(np.frombuffer(words, dtype=np.uint64))
    ones_by = pc.cumsum(dtype=np.int64)
    ones = int(ones_by[-1]) if nw else 0
    zeros_by = np.minimum(np.arange(64, 64 * nw + 1, 64), n_bits) - ones_by
    sel1 = np.searchsorted(ones_by, np.arange(1, ones + 1, _SELECT_SAMPLE))
    sel0 = np.searchsorted(zeros_by, np.arange(1, n_bits - ones + 1, _SELECT_SAMPLE))
    code = "I" if n_bits < 1 << 32 else "Q"
    cum = np.concatenate(([0], ones_by))
    return _typed(cum, code), ones, _typed(sel1, code), _typed(sel0, code)


class BitVector:
    """Uncompressed bitvector with O(1) rank and sampled select."""

    __slots__ = ("n_bits", "ones", "words", "cum", "_sel1", "_sel0")

    def __init__(self, words: array, n_bits: int):
        words = _as_words(words)
        if n_bits < 0 or len(words) != (n_bits + 63) // 64:
            raise FormatError("word count does not match bit length")
        if n_bits % 64 and words and words[-1] >> (n_bits % 64):
            raise FormatError("stray bits beyond declared length")
        self.n_bits = n_bits
        self.words = words
        self.cum, self.ones, self._sel1, self._sel0 = _directories(words, n_bits)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_bits(cls, bits) -> "BitVector":
        arr = np.asarray(bits, dtype=bool)
        return cls.from_numpy_bool(arr)

    @classmethod
    def from_numpy_bool(cls, arr: np.ndarray) -> "BitVector":
        return cls(_pack_bits(arr), int(arr.shape[0]))

    @classmethod
    def from_ones(cls, positions, n_bits: int) -> "BitVector":
        arr = np.zeros(n_bits, dtype=bool)
        pos = np.asarray(positions, dtype=np.int64)
        if pos.size:
            if pos.min() < 1 or pos.max() > n_bits:
                raise RangeError("set position out of range")
            arr[pos - 1] = True
        return cls.from_numpy_bool(arr)

    # -- queries ---------------------------------------------------------------

    def get(self, p: int) -> int:
        if not (1 <= p <= self.n_bits):
            raise RangeError(f"position {p} out of [1, {self.n_bits}]")
        q = p - 1
        return (self.words[q >> 6] >> (q & 63)) & 1

    def rank1(self, p: int) -> int:
        if p < 0 or p > self.n_bits:
            raise RangeError(f"prefix length {p} out of [0, {self.n_bits}]")
        off = p & 63
        if off:
            wi = p >> 6
            return self.cum[wi] + (self.words[wi] & ((1 << off) - 1)).bit_count()
        return self.cum[p >> 6]

    def rank0(self, p: int) -> int:
        return p - self.rank1(p)

    def rank1_array(self, positions: np.ndarray) -> np.ndarray:
        """rank1 at each prefix length of an int64 array, all within [0, n_bits]."""
        words = np.frombuffer(self.words, dtype=np.uint64)
        wi = positions >> 6
        # a prefix ending on a word boundary takes no bits of the word it names
        mask = (np.uint64(1) << (positions & 63).astype(np.uint64)) - np.uint64(1)
        last = words[np.minimum(wi, words.size - 1)] & mask
        return np.asarray(self.cum)[wi].astype(np.int64) + np.bitwise_count(last)

    def select1(self, r: int) -> int:
        if r < 1:
            raise RangeError(f"occurrence index {r} must be positive")
        if r > self.ones:
            raise NotFoundError(f"only {self.ones} set bits, asked for #{r}")
        cum, sel = self.cum, self._sel1
        i = (r - 1) >> _SAMPLE_SHIFT
        # the last word with fewer than r ones before it lies between the
        # words holding the samples around r
        hi = sel[i + 1] + 1 if i + 1 < len(sel) else len(self.words)
        w = bisect_left(cum, r, sel[i] + 1, hi) - 1
        return (w << 6) + _select_in_word(self.words[w], r - cum[w]) + 1

    def select0(self, r: int) -> int:
        zeros = self.n_bits - self.ones
        if r < 1:
            raise RangeError(f"occurrence index {r} must be positive")
        if r > zeros:
            raise NotFoundError(f"only {zeros} clear bits, asked for #{r}")
        cum, sel = self.cum, self._sel0
        i = (r - 1) >> _SAMPLE_SHIFT
        lo = sel[i]
        hi = sel[i + 1] if i + 1 < len(sel) else len(self.words) - 1
        while lo < hi:  # zeros before word w: 64 w - cum[w]
            w = (lo + hi + 1) >> 1
            if (w << 6) - cum[w] < r:
                lo = w
            else:
                hi = w - 1
        r -= (lo << 6) - cum[lo]
        # padding bits past n_bits read as set here, but follow every real zero
        return (lo << 6) + _select_in_word(self.words[lo] ^ _M64, r) + 1

    def to_numpy_bool(self) -> np.ndarray:
        return np.unpackbits(_le_bytes(self.words), count=self.n_bits, bitorder="little").view(bool)

    # -- serialization -----------------------------------------------------------

    def to_bytes(self) -> bytes:
        w = ByteWriter()
        w.raw(MAGIC_BITS)
        w.u16(FORMAT_VERSION)
        w.u8(0)  # kind: plain
        w.u64(self.n_bits)
        w.words(self.words)
        return w.getvalue()

    def size_bits(self) -> int:
        # magic, version, kind, bit length and word count, then the words
        return 8 * (4 + 2 + 1 + 8 + 8 + 8 * len(self.words))

    def __eq__(self, other):
        return (
            isinstance(other, BitVector)
            and self.n_bits == other.n_bits
            and self.words == other.words
        )

    def __repr__(self):
        return f"BitVector(n_bits={self.n_bits}, ones={self.ones})"


def _sparse_shape(n_bits: int, ones: int) -> tuple[int, int]:
    """Low-part width and upper-bitvector length for `ones` set bits among
    `n_bits`: one unary bucket per 2**low_width positions, plus one bit per
    set bit."""
    if ones == 0:
        return 0, 0
    low_width = ((n_bits + ones - 1) // ones - 1).bit_length()
    return low_width, ones + ((n_bits - 1) >> low_width) + 1


class SparseBitVector:
    """Sorted-positions encoding for bitvectors with few set bits.

    Stores the 1-positions split into fixed low bits and a unary-coded high
    part, costing about 2 + lg(n/m) bits per set bit.  Supports the same
    rank/select interface as BitVector.  rank1 finds its bucket with one
    select0 on the upper part and the bucket's end at the next clear bit
    after it, then binary-searches the bucket's lows; select0
    binary-searches over select1, which is acceptable since this variant
    only backs the sparse levels of compressed sequences.
    """

    __slots__ = ("n_bits", "ones", "low_width", "low", "upper")

    def __init__(self, n_bits: int, ones: int, low_width: int, low: PackedArray, upper: BitVector):
        self.n_bits = n_bits
        self.ones = ones
        self.low_width = low_width
        self.low = low
        self.upper = upper

    @classmethod
    def from_ones(cls, positions, n_bits: int) -> "SparseBitVector":
        pos = np.sort(np.asarray(positions, dtype=np.int64))
        m = int(pos.size)
        if m:
            if pos[0] < 1 or pos[-1] > n_bits:
                raise RangeError("set position out of range")
            if np.any(pos[1:] == pos[:-1]):
                raise DomainError("duplicate set positions")
        low_width, upper_len = _sparse_shape(n_bits, m)
        if m == 0:
            return cls(n_bits, 0, 0, PackedArray(0, 0), BitVector([], 0))
        vals = pos - 1
        lows = vals & ((1 << low_width) - 1)
        highs = (vals >> low_width).astype(np.int64)
        upper_bits = np.zeros(upper_len, dtype=bool)
        upper_bits[highs + np.arange(m)] = True  # i-th one sits at 1-based h_i + i
        return cls(
            n_bits,
            m,
            low_width,
            PackedArray.from_values(low_width, lows),
            BitVector.from_numpy_bool(upper_bits),
        )

    @classmethod
    def from_numpy_bool(cls, arr: np.ndarray) -> "SparseBitVector":
        return cls.from_ones(np.flatnonzero(arr) + 1, int(arr.shape[0]))

    @classmethod
    def from_parts(cls, n_bits: int, ones: int, low_words, upper_words) -> "SparseBitVector":
        """The vector with `ones` set bits among `n_bits` whose low and upper
        parts are these words; FormatError where they do not describe one.
        The parts' shapes follow from n_bits and ones (`word_counts`)."""
        low_width, upper_len = _sparse_shape(n_bits, ones)
        low = PackedArray(low_width, ones, low_words)
        upper = BitVector(upper_words, upper_len)
        if upper.ones != ones:
            raise FormatError(f"sparse upper part holds {upper.ones} ones, header says {ones}")
        # consecutive ones of the upper part share a bucket, whose lows must rise
        same_bucket = np.diff(np.flatnonzero(upper.to_numpy_bool())) == 1
        lows = low.to_numpy()
        if (same_bucket & (lows[1:] <= lows[:-1])).any():
            raise FormatError("sparse set positions are not strictly increasing")
        sbv = cls(n_bits, ones, low_width, low, upper)
        if ones and sbv.select1(ones) > n_bits:
            raise FormatError(f"sparse set position beyond {n_bits} bits")
        return sbv

    @staticmethod
    def word_counts(n_bits: int, ones: int) -> tuple[int, int]:
        """Words of the low part and of the upper part."""
        low_width, upper_len = _sparse_shape(n_bits, ones)
        return (low_width * ones + 63) // 64, (upper_len + 63) // 64

    # -- queries ---------------------------------------------------------------

    def rank1(self, p: int) -> int:
        if p < 0 or p > self.n_bits:
            raise RangeError(f"prefix length {p} out of [0, {self.n_bits}]")
        if p == 0 or self.ones == 0:
            return 0
        v = p - 1
        h = v >> self.low_width
        # bucket h's ones run in the upper part from just past its h-th zero
        # (offset q) up to the next zero, which every bucket ends with
        q = self.upper.select0(h) if h else 0
        words = self.upper.words
        wi = q >> 6
        z = (words[wi] ^ _M64) & (_M64 << (q & 63))
        while not z:
            wi += 1
            z = words[wi] ^ _M64
        lo = q - h  # ones in buckets before h
        hi = lo + (wi << 6) + (z & -z).bit_length() - 1 - q
        target = v & ((1 << self.low_width) - 1)
        # count lows <= target within the bucket
        while lo < hi:
            mid = (lo + hi) // 2
            if self.low.get(mid) <= target:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def rank0(self, p: int) -> int:
        return p - self.rank1(p)

    def rank1_array(self, positions: np.ndarray) -> np.ndarray:
        """rank1 at each prefix length of an int64 array, one call each."""
        return np.fromiter((self.rank1(int(p)) for p in positions), np.int64, len(positions))

    def select1(self, r: int) -> int:
        if r < 1:
            raise RangeError(f"occurrence index {r} must be positive")
        if r > self.ones:
            raise NotFoundError(f"only {self.ones} set bits, asked for #{r}")
        h = self.upper.select1(r) - r
        return ((h << self.low_width) | self.low.get(r - 1)) + 1

    def select0(self, r: int) -> int:
        zeros = self.n_bits - self.ones
        if r < 1:
            raise RangeError(f"occurrence index {r} must be positive")
        if r > zeros:
            raise NotFoundError(f"only {zeros} clear bits, asked for #{r}")
        # j = number of ones before the r-th zero: the largest j with
        # select1(j) - j < r (select1(0) reads as 0)
        lo, hi = 0, self.ones
        while lo < hi:
            j = (lo + hi + 1) >> 1
            if self.select1(j) - j < r:
                lo = j
            else:
                hi = j - 1
        return r + lo

    def get(self, p: int) -> int:
        if not (1 <= p <= self.n_bits):
            raise RangeError(f"position {p} out of [1, {self.n_bits}]")
        return self.rank1(p) - self.rank1(p - 1)

    def ones_in_range(self, lo: int, hi: int) -> list[int]:
        """Positions of set bits within [lo, hi], in one pass.

        One rank and one select of the upper part find the first one at or
        after lo; the walk then reads the upper part's set bits word by
        word, the r-th of them at 0-based offset h_r + r - 1, and pairs
        each with its low bits until a position passes hi.
        """
        out = []
        r = self.rank1(lo - 1) + 1
        if r > self.ones:
            return out
        upper, low, lw = self.upper, self.low, self.low_width
        words = upper.words
        q = upper.select1(r) - 1
        wi = q >> 6
        w = words[wi] >> (q & 63) << (q & 63)
        base = (wi << 6) - r + 1  # h_r = offset - (r - 1)
        while True:
            while w:
                t = w & -w
                p = (((base + t.bit_length() - 1) << lw) | low.get(r - 1)) + 1
                if p > hi:
                    return out
                out.append(p)
                r += 1
                base -= 1
                w ^= t
            wi += 1
            if wi == len(words):
                return out
            w = words[wi]
            base += 64

    def to_numpy_bool(self) -> np.ndarray:
        arr = np.zeros(self.n_bits, dtype=bool)
        if self.ones:
            highs = np.flatnonzero(self.upper.to_numpy_bool()) + 1
            h = highs - np.arange(1, self.ones + 1)
            vals = (h.astype(np.uint64) << np.uint64(self.low_width)) | self.low.to_numpy()
            arr[vals] = True
        return arr

    # -- serialization -----------------------------------------------------------

    def to_bytes(self) -> bytes:
        w = ByteWriter()
        w.raw(MAGIC_BITS)
        w.u16(FORMAT_VERSION)
        w.u8(1)  # kind: sparse
        w.u64(self.n_bits)
        w.u64(self.ones)
        w.u8(self.low_width)
        w.words(self.low.words)
        w.u64(self.upper.n_bits)
        w.words(self.upper.words)
        return w.getvalue()

    def size_bits(self) -> int:
        # magic, version, kind, bit length, ones, low width, two word arrays
        # with their counts and the upper part's bit length
        words = len(self.low.words) + len(self.upper.words)
        return 8 * (4 + 2 + 1 + 8 + 8 + 1 + 8 + 8 + 8 + 8 * words)

    def __eq__(self, other):
        return (
            isinstance(other, SparseBitVector)
            and self.n_bits == other.n_bits
            and self.low_width == other.low_width
            and self.low.words == other.low.words
            and self.upper == other.upper
        )

    def __repr__(self):
        return f"SparseBitVector(n_bits={self.n_bits}, ones={self.ones})"


def bitvector_from_bytes(data: bytes):
    """Decode either bitvector kind; directories are rebuilt here."""
    r = ByteReader(data)
    r.expect_magic(MAGIC_BITS)
    r.expect_version()
    kind = r.u8()
    if kind == 0:
        n_bits = r.u64()
        return BitVector(r.words(), n_bits)
    if kind == 1:
        n_bits = r.u64()
        ones = r.u64()
        if ones > n_bits:
            raise FormatError(f"sparse bitvector holds {ones} ones in {n_bits} bits")
        want_width, want_upper = _sparse_shape(n_bits, ones)
        low_width = r.u8()
        if low_width != want_width:
            raise FormatError(f"sparse low width {low_width}, expected {want_width}")
        low_words = r.words()
        upper_len = r.u64()
        if upper_len != want_upper:
            raise FormatError(f"sparse upper part holds {upper_len} bits, expected {want_upper}")
        return SparseBitVector.from_parts(n_bits, ones, low_words, r.words())
    raise FormatError(f"unknown bitvector kind {kind}")


class RmqIndex:
    """Range minimum over an integer array in O(n) words, leftmost tie-break.

    query(l, r) returns the 1-based position of the smallest value in
    values[l..r]; among equal minima the leftmost position wins.

    Cells are grouped in blocks of 16 (Fischer & Heun, "Space-efficient
    preprocessing schemes for range minimum queries on static arrays",
    SICOMP 2011, without the Cartesian-tree encoding).  Each cell keeps the
    in-block offsets of the leftmost minimum of its block's prefix up to it,
    of its block's suffix from it, and of the spans of 2, 4 and 8 cells
    starting at it, one byte each.  A sparse table over the blocks' minimum
    positions answers runs of whole blocks.  A range inside one block reads
    a prefix, a suffix or two span entries; any other range compares its
    first block's suffix, its last block's prefix and the sparse table's
    answer for the blocks between, so no query scans.
    """

    __slots__ = ("n", "values", "_vals", "_pre", "_suf", "_spans", "_levels")

    def __init__(self, values):
        vals = np.asarray(values)
        if vals.dtype.kind not in "iu":
            vals = np.asarray(values, dtype=np.int64)
        vals = np.ascontiguousarray(vals)  # the caller's integer array, uncopied
        self.n = n = int(vals.shape[0])
        self.values = vals
        nb = -(-n // _RMQ_BLOCK)
        cells = np.full((nb, _RMQ_BLOCK), np.iinfo(vals.dtype).max, dtype=vals.dtype)
        cells.reshape(-1)[:n] = vals  # padding sorts after every real cell
        offs = np.arange(_RMQ_BLOCK, dtype=np.uint8)
        run = np.minimum.accumulate(cells, axis=1)
        drops = np.ones(cells.shape, dtype=bool)
        drops[:, 1:] = run[:, 1:] < run[:, :-1]
        pre = np.maximum.accumulate(np.where(drops, offs, 0), axis=1)
        # the leftmost minimum of a suffix is its first cell equal to the suffix minimum
        at_min = cells == np.minimum.accumulate(cells[:, ::-1], axis=1)[:, ::-1]
        suf = np.minimum.accumulate(np.where(at_min, offs, _RMQ_BLOCK)[:, ::-1], axis=1)[:, ::-1]
        rows = np.arange(nb)[:, None]
        span = np.broadcast_to(offs, cells.shape)
        spans = []
        for h in (1, 2, 4):  # spans 2h from two spans h; entries past the block are unused
            a, b = span[:, : _RMQ_BLOCK - h], span[:, h:]
            span = np.zeros(cells.shape, dtype=np.uint8)
            span[:, : _RMQ_BLOCK - h] = np.where(cells[rows, a] <= cells[rows, b], a, b)
            spans.append(memoryview(span.reshape(-1)))
        del cells, run, drops, at_min
        level = np.arange(0, nb * _RMQ_BLOCK, _RMQ_BLOCK) + pre[:, -1]
        level = level.astype(np.min_scalar_type(max(n - 1, 0)))
        levels = [level]
        h = 1
        while 2 * h <= nb:  # leftmost minimum position over blocks x .. x + 2h - 1
            a, b = level[: nb - 2 * h + 1], level[h : nb - h + 1]
            level = np.where(vals[a] <= vals[b], a, b)
            levels.append(level)
            h *= 2
        self._vals = memoryview(vals)
        self._pre = memoryview(pre.reshape(-1))
        self._suf = memoryview(suf.reshape(-1))
        self._spans = spans
        self._levels = [memoryview(lv) for lv in levels]

    def query(self, l: int, r: int) -> int:
        if not (1 <= l <= r <= self.n):
            raise RangeError(f"bad range [{l}, {r}] for length {self.n}")
        if l == r:
            return l
        i, j = l - 1, r - 1
        val = self._vals
        bi, bj = i >> 4, j >> 4  # blocks of 16 cells
        if bi == bj:
            if not i & 15:
                return i + self._pre[j] + 1
            if j & 15 == 15:
                return i - (i & 15) + self._suf[i] + 1
            k = (j - i + 1).bit_length() - 1  # at most 3: the range misses a block end
            span = self._spans[k - 1]
            base = i - (i & 15)
            a = base + span[i]
            b = base + span[j - (1 << k) + 1]
            return (a if val[a] <= val[b] else b) + 1
        best = i - (i & 15) + self._suf[i]
        low = val[best]
        if bj - bi > 1:
            k = (bj - bi - 1).bit_length() - 1
            level = self._levels[k]
            a = level[bi + 1]
            b = level[bj - (1 << k)]
            va, vb = val[a], val[b]
            if vb < va:
                a, va = b, vb
            if va < low:
                best, low = a, va
        c = j - (j & 15) + self._pre[j]
        if val[c] < low:
            best = c
        return best + 1
