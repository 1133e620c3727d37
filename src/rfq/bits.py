"""Plain and compressed bitvectors with rank/select, plus a range-minimum index.

Positions are 1-based throughout the public API.  rank1(p) counts set bits
among the first p positions; select1(r) returns the position of the r-th
set bit.  Plain bitvectors keep a two-level rank directory (512-bit
superblocks over 64-bit words) and sampled select hints (every 512th one
and zero).  Select is directory-guided: two consecutive samples bound a
binary search over the superblock counts, the in-superblock counts pick
one of at most eight words, and a broadword in-word select (halving the
word with popcounts, then one byte-table read) finds the bit (Vigna,
"Broadword implementation of rank/select queries", WEA 2008).  The
compressed variant stores sorted set positions with a low/high split; its
rank and select directories are rebuilt at load time, so reported sizes
reflect only the persisted payload.

The range-minimum index takes O(n) words: byte-sized in-block offsets for
16-cell blocks plus a sparse table over the blocks' minima (Fischer &
Heun, SICOMP 2011): about 8 bytes a value on top of the values, where a
sparse table over every cell takes 8 lg n.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, FormatError, NotFoundError, RangeError
from .serial import FORMAT_VERSION, MAGIC_BITS, ByteReader, ByteWriter

_SUPER_WORDS = 8
_SUPER_BITS = 64 * _SUPER_WORDS  # 512-bit superblocks
_SELECT_SAMPLE = 512
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

    def __init__(self, width: int, count: int, words: list[int] | None = None):
        if not (0 <= width <= 64):
            raise DomainError(f"width {width} out of range")
        self.width = width
        self.count = count
        nwords = (width * count + 63) // 64
        if words is None:
            words = [0] * nwords
        if len(words) != nwords:
            raise FormatError("packed array word count mismatch")
        self.words = words

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
        packed = np.packbits(bits, bitorder="little").tobytes()
        packed += b"\x00" * (-len(packed) % 8)
        return cls(width, int(vals.size), np.frombuffer(packed, dtype="<u8").tolist())

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
        raw = np.array(self.words, dtype="<u8").view(np.uint8)
        bits = np.unpackbits(raw, count=self.count * self.width, bitorder="little")
        weights = (1 << np.arange(self.width)).astype(np.min_scalar_type((1 << self.width) - 1))
        return bits.reshape(self.count, self.width) @ weights


def _directories(words: list[int], n_bits: int):
    """Rank directory and select samples of a word list, built with numpy.

    sup[s] counts the ones before superblock s (plus a final total), mid[w]
    the ones before word w inside its superblock; sel1[j] and sel0[j] are
    the words holding the (512 j + 1)-th one and zero.
    """
    nw = len(words)
    pc = np.bitwise_count(np.array(words, dtype=np.uint64))
    ones_by = pc.cumsum(dtype=np.int64)
    before = ones_by - pc
    ones = int(ones_by[-1]) if nw else 0
    starts = before[::_SUPER_WORDS]
    mid = before - np.repeat(starts, _SUPER_WORDS)[:nw]
    zeros_by = np.minimum(np.arange(64, 64 * nw + 1, 64), n_bits) - ones_by
    sel1 = np.searchsorted(ones_by, np.arange(1, ones + 1, _SELECT_SAMPLE))
    sel0 = np.searchsorted(zeros_by, np.arange(1, n_bits - ones + 1, _SELECT_SAMPLE))
    return starts.tolist() + [ones], mid.tolist() + [0], ones, sel1.tolist(), sel0.tolist()


class BitVector:
    """Uncompressed bitvector with O(1) rank and sampled select."""

    __slots__ = ("n_bits", "ones", "words", "_sup", "_mid", "_sel1", "_sel0", "_size_cache")

    def __init__(self, words: list[int], n_bits: int):
        if n_bits < 0 or len(words) != (n_bits + 63) // 64:
            raise FormatError("word count does not match bit length")
        if n_bits % 64 and words and words[-1] >> (n_bits % 64):
            raise FormatError("stray bits beyond declared length")
        self.n_bits = n_bits
        self.words = words
        self._sup, self._mid, self.ones, self._sel1, self._sel0 = _directories(words, n_bits)
        self._size_cache = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_bits(cls, bits) -> "BitVector":
        arr = np.asarray(bits, dtype=bool)
        return cls.from_numpy_bool(arr)

    @classmethod
    def from_numpy_bool(cls, arr: np.ndarray) -> "BitVector":
        n = int(arr.shape[0])
        packed = np.packbits(arr, bitorder="little").tobytes()
        pad = (-len(packed)) % 8
        packed += b"\x00" * pad
        words = np.frombuffer(packed, dtype="<u8").tolist()
        return cls(words, n)

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
        wi, off = p >> 6, p & 63
        if wi == len(self.words):
            return self.ones
        r = self._sup[wi // _SUPER_WORDS] + self._mid[wi]
        if off:
            r += (self.words[wi] & ((1 << off) - 1)).bit_count()
        return r

    def rank0(self, p: int) -> int:
        return p - self.rank1(p)

    def select1(self, r: int) -> int:
        if r < 1:
            raise RangeError(f"occurrence index {r} must be positive")
        if r > self.ones:
            raise NotFoundError(f"only {self.ones} set bits, asked for #{r}")
        sup, mid, sel = self._sup, self._mid, self._sel1
        i = (r - 1) // _SELECT_SAMPLE
        lo = sel[i] // _SUPER_WORDS
        hi = sel[i + 1] // _SUPER_WORDS if i + 1 < len(sel) else len(sup) - 2
        while lo < hi:  # last superblock with fewer than r ones before it
            s = (lo + hi + 1) >> 1
            if sup[s] < r:
                lo = s
            else:
                hi = s - 1
        r -= sup[lo]
        wi = lo * _SUPER_WORDS
        last = min(wi + _SUPER_WORDS, len(self.words)) - 1
        while wi < last and mid[wi + 1] < r:
            wi += 1
        return (wi << 6) + _select_in_word(self.words[wi], r - mid[wi]) + 1

    def select0(self, r: int) -> int:
        zeros = self.n_bits - self.ones
        if r < 1:
            raise RangeError(f"occurrence index {r} must be positive")
        if r > zeros:
            raise NotFoundError(f"only {zeros} clear bits, asked for #{r}")
        sup, mid, sel = self._sup, self._mid, self._sel0
        i = (r - 1) // _SELECT_SAMPLE
        lo = sel[i] // _SUPER_WORDS
        hi = sel[i + 1] // _SUPER_WORDS if i + 1 < len(sel) else len(sup) - 2
        while lo < hi:  # last superblock with fewer than r zeros before it
            s = (lo + hi + 1) >> 1
            if s * _SUPER_BITS - sup[s] < r:
                lo = s
            else:
                hi = s - 1
        r -= lo * _SUPER_BITS - sup[lo]
        wi = lo * _SUPER_WORDS
        first = wi
        last = min(wi + _SUPER_WORDS, len(self.words)) - 1
        while wi < last and ((wi + 1 - first) << 6) - mid[wi + 1] < r:
            wi += 1
        r -= ((wi - first) << 6) - mid[wi]
        # padding bits past n_bits read as set here, but follow every real zero
        return (wi << 6) + _select_in_word(self.words[wi] ^ _M64, r) + 1

    def to_numpy_bool(self) -> np.ndarray:
        raw = np.array(self.words, dtype="<u8").view(np.uint8)
        return np.unpackbits(raw, count=self.n_bits, bitorder="little").view(bool)

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
        if self._size_cache is None:
            self._size_cache = 8 * len(self.to_bytes())
        return self._size_cache

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
    rank/select interface as BitVector; select0 binary-searches over
    select1, which is acceptable since this variant only backs compressed
    configurations.
    """

    __slots__ = ("n_bits", "ones", "low_width", "low", "upper", "_size_cache")

    def __init__(self, n_bits: int, ones: int, low_width: int, low: PackedArray, upper: BitVector):
        self.n_bits = n_bits
        self.ones = ones
        self.low_width = low_width
        self.low = low
        self.upper = upper
        self._size_cache = None

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

    # -- queries ---------------------------------------------------------------

    def _bucket_bounds(self, h: int) -> tuple[int, int]:
        """Indices (0-based) of ones in buckets < h and <= h."""
        lo = self.upper.select0(h) - h if h > 0 else 0
        hi = self.upper.select0(h + 1) - (h + 1)
        return lo, hi

    def rank1(self, p: int) -> int:
        if p < 0 or p > self.n_bits:
            raise RangeError(f"prefix length {p} out of [0, {self.n_bits}]")
        if p == 0 or self.ones == 0:
            return 0
        v = p - 1
        h = v >> self.low_width
        lo, hi = self._bucket_bounds(h)
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
        """Positions of set bits within [lo, hi]."""
        out = []
        r = self.rank1(lo - 1) + 1
        while r <= self.ones:
            p = self.select1(r)
            if p > hi:
                break
            out.append(p)
            r += 1
        return out

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
        if self._size_cache is None:
            self._size_cache = 8 * len(self.to_bytes())
        return self._size_cache

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
        low = PackedArray(low_width, ones, r.words())
        upper_len = r.u64()
        if upper_len != want_upper:
            raise FormatError(f"sparse upper part holds {upper_len} bits, expected {want_upper}")
        upper = BitVector(r.words(), upper_len)
        if upper.ones != ones:
            raise FormatError(f"sparse upper part holds {upper.ones} ones, header says {ones}")
        # consecutive ones of the upper part share a bucket, whose lows must rise
        same_bucket = np.diff(np.flatnonzero(upper.to_numpy_bool())) == 1
        lows = low.to_numpy()
        if (same_bucket & (lows[1:] <= lows[:-1])).any():
            raise FormatError("sparse set positions are not strictly increasing")
        sbv = SparseBitVector(n_bits, ones, low_width, low, upper)
        if ones and sbv.select1(ones) > n_bits:
            raise FormatError(f"sparse set position beyond {n_bits} bits")
        return sbv
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
        vals = np.asarray(values, dtype=np.int64)
        self.n = n = int(vals.shape[0])
        self.values = vals
        nb = -(-n // _RMQ_BLOCK)
        cells = np.full((nb, _RMQ_BLOCK), np.iinfo(np.int64).max, dtype=np.int64)
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
