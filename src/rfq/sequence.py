"""Binary wavelet matrix with rank, select, access, and partial rank.

Symbols are 1..sigma, and the alphabet must be dense (every value
occurs).  Inside, symbol a is the code a - 1 in L = ceil(lg sigma) bits,
most significant bit first.  Level l holds one bit per position, bit
L - 1 - l of the code, listed in the order the level above leaves the
positions; the next level's order is the stable partition of this one,
zeros first.  A level is therefore one bitvector plus its zero count, and
a position maps one level down with a single rank (Claude, Navarro and
Ordonez, "The wavelet matrix", Inf. Syst. 2015).

Below the last level each symbol's occurrences form one block, in text
order.  Where each block starts follows from the symbol counts, so rank
costs one rank1 per level, select walks bottom-up with one select per
level, and `locate` returns a position's symbol together with its partial
rank from one downward walk.

Each level is a plain bitvector or, in compressed mode, the sparse
positional encoding when that is smaller.  The file stores n, sigma, the
compressed flag and the levels; the counts are derived on load by the
same top-down split walk that `range_counts(1, n)` makes.
"""

from __future__ import annotations

import numpy as np

from .bits import BitVector, SparseBitVector, bitvector_from_bytes
from .counters import OpTally
from .errors import DomainError, FormatError, LogicError, NotFoundError, RangeError
from .serial import ByteReader, ByteWriter


def _check_dense(counts: np.ndarray) -> None:
    if (counts == 0).any():
        missing = int(np.flatnonzero(counts == 0)[0]) + 1
        raise DomainError(f"alphabet is not dense: symbol {missing} never occurs")


class WaveletSequence:
    def __init__(self):
        self.n = 0
        self.sigma = 0
        self.compressed = False
        self.counts: np.ndarray | None = None  # per-symbol totals
        self.tally = OpTally()
        self._levels: list[tuple] = []  # (BitVector | SparseBitVector, zeros), top first
        self._starts: list[int] = []  # per symbol code: block start below the last level

    # -- construction ------------------------------------------------------------

    @classmethod
    def build(cls, data, sigma: int | None = None, compressed: bool = False) -> "WaveletSequence":
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("sequence must be a non-empty 1-d array")
        if arr.min() < 1:
            raise DomainError("symbols must be positive integers")
        amax = int(arr.max())
        sigma = amax if sigma is None else int(sigma)
        if amax > sigma:
            raise DomainError(f"symbol {amax} exceeds declared alphabet {sigma}")
        counts = np.bincount(arr, minlength=sigma + 1)[1:].astype(np.int64)
        _check_dense(counts)

        seq = cls()
        seq.n = int(arr.size)
        seq.sigma = sigma
        seq.compressed = compressed
        depth = (sigma - 1).bit_length()  # 0 when sigma == 1
        codes = arr - 1
        for lvl in range(depth):
            bits = ((codes >> (depth - 1 - lvl)) & 1).astype(bool)
            seq._add_level(seq._encode_level(bits))
            codes = np.concatenate((codes[~bits], codes[bits]))
        seq._set_counts(counts)
        return seq

    def _encode_level(self, bits: np.ndarray):
        plain = BitVector.from_numpy_bool(bits)
        if not self.compressed:
            return plain
        sparse = SparseBitVector.from_numpy_bool(bits)
        return sparse if sparse.size_bits() < plain.size_bits() else plain

    def _add_level(self, store) -> None:
        self._levels.append((store, store.n_bits - store.ones))

    def _set_counts(self, counts: np.ndarray) -> None:
        """Store the counts and derive each symbol's block start.

        Below the last level the blocks are ordered by the bit-reversed
        code, since the last partition (by the lowest bit) is the outermost.
        """
        depth = len(self._levels)
        codes = np.arange(self.sigma, dtype=np.int64)
        rev = np.zeros(self.sigma, dtype=np.int64)
        for i in range(depth):
            rev |= ((codes >> i) & 1) << (depth - 1 - i)
        order = np.argsort(rev)
        starts = np.empty(self.sigma, dtype=np.int64)
        starts[order] = np.cumsum(counts[order]) - counts[order]
        self.counts = counts
        self._starts = starts.tolist()

    # -- basic properties ----------------------------------------------------------

    def symbol_count(self, a: int) -> int:
        self._check_symbol(a)
        return int(self.counts[a - 1])

    def entropy_h0(self) -> float:
        p = self.counts / self.n
        return float(-(p * np.log2(p)).sum())

    def _check_symbol(self, a: int) -> None:
        if not (1 <= a <= self.sigma):
            raise DomainError(f"symbol {a} outside alphabet [1, {self.sigma}]")

    def _check_pos(self, k: int) -> None:
        if not (1 <= k <= self.n):
            raise RangeError(f"position {k} outside [1, {self.n}]")

    # -- core walks (untallied internals) --------------------------------------------

    def _locate(self, k: int) -> tuple[int, int]:
        """(symbol code, occurrence index of position k among its symbol)."""
        p = k
        code = 0
        for store, zeros in self._levels:
            bit = store.get(p)
            r1 = store.rank1(p)
            p = zeros + r1 if bit else p - r1
            code = (code << 1) | bit
        return code, p - self._starts[code]

    def _rank(self, code: int, k: int) -> int:
        p = k
        shift = len(self._levels)
        for store, zeros in self._levels:
            shift -= 1
            r1 = store.rank1(p)
            p = zeros + r1 if (code >> shift) & 1 else p - r1
        return p - self._starts[code]

    def _select(self, code: int, r: int) -> int | None:
        if r > int(self.counts[code]):
            return None
        p = self._starts[code] + r
        shift = 0
        for store, zeros in reversed(self._levels):
            if (code >> shift) & 1:
                p = store.select1(p - zeros)
            else:
                p = store.select0(p)
            shift += 1
        return p

    def _split_walk(self, cl: int, cr: int) -> tuple[dict[int, int], int]:
        """Counts of the symbols at top-level positions cl+1..cr, and the
        number of rank1 calls made.

        A node stops splitting once its code range holds a single symbol:
        the levels below only reorder its positions.
        """
        depth, sigma = len(self._levels), self.sigma
        out: dict[int, int] = {}
        ranks = 0
        stack = [(0, 0, cl, cr)]
        while stack:
            lvl, node, s, e = stack.pop()
            shift = depth - lvl
            base = node << shift
            if shift == 0 or base + 1 >= sigma:
                out[base + 1] = e - s
                continue
            store, zeros = self._levels[lvl]
            r1s = store.rank1(s)
            r1e = store.rank1(e)
            ranks += 2
            if e - r1e > s - r1s:
                stack.append((lvl + 1, node << 1, s - r1s, e - r1e))
            if r1e > r1s:
                stack.append((lvl + 1, (node << 1) | 1, zeros + r1s, zeros + r1e))
        return out, ranks

    # -- public operations (tallied) --------------------------------------------------

    def access(self, k: int) -> int:
        self._check_pos(k)
        self.tally.accesses += 1
        code, _ = self._locate(k)
        return code + 1

    def rank(self, a: int, k: int) -> int:
        self._check_symbol(a)
        if k < 0 or k > self.n:
            raise RangeError(f"prefix length {k} outside [0, {self.n}]")
        self.tally.ranks += 1
        if k == 0:
            return 0
        return self._rank(a - 1, k)

    def select(self, a: int, r: int) -> int | None:
        self._check_symbol(a)
        if r < 1:
            raise RangeError(f"occurrence index {r} must be positive")
        self.tally.selects += 1
        return self._select(a - 1, r)

    def partial_rank(self, k: int) -> int:
        """rank(S[k], k) without knowing S[k] beforehand."""
        self._check_pos(k)
        self.tally.partial_ranks += 1
        return self._locate(k)[1]

    def locate(self, k: int) -> tuple[int, int]:
        """(S[k], partial rank at k) from a single descent."""
        self._check_pos(k)
        self.tally.accesses += 1
        self.tally.partial_ranks += 1
        code, r = self._locate(k)
        return code + 1, r

    def prev_occurrence(self, k: int) -> int:
        """Position of the previous occurrence of S[k], or 0."""
        self._check_pos(k)
        self.tally.accesses += 1
        self.tally.partial_ranks += 1
        code, r = self._locate(k)
        if r == 1:
            return 0
        self.tally.selects += 1
        p = self._select(code, r - 1)
        if p is None:
            raise LogicError(f"occurrence {r - 1} of symbol {code + 1} is missing")
        return p

    def range_counts(self, lo: int, hi: int) -> dict[int, int]:
        """Histogram of symbols in S[lo..hi] via one top-down split walk."""
        self._check_pos(lo)
        self._check_pos(hi)
        if lo > hi:
            raise RangeError(f"empty range [{lo}, {hi}]")
        out, ranks = self._split_walk(lo - 1, hi)
        self.tally.ranks += ranks
        return out

    def to_array(self) -> np.ndarray:
        """Rebuild the raw sequence (1-based symbols), bottom level first."""
        order = np.argsort(self._starts)  # codes in bottom-level block order
        vals = np.repeat(order + 1, self.counts[order])
        for store, zeros in reversed(self._levels):
            bits = store.to_numpy_bool()
            up = np.empty_like(vals)
            up[~bits] = vals[:zeros]
            up[bits] = vals[zeros:]
            vals = up
        return vals

    # -- serialization ------------------------------------------------------------------

    def write_to(self, w: ByteWriter) -> None:
        w.u64(self.n)
        w.u32(self.sigma)
        w.u8(1 if self.compressed else 0)
        for store, _ in self._levels:
            w.blob(store.to_bytes())

    @classmethod
    def read_from(cls, r: ByteReader) -> "WaveletSequence":
        seq = cls()
        seq.n = r.u64()
        seq.sigma = r.u32()
        seq.compressed = bool(r.u8())
        if not 1 <= seq.sigma <= seq.n:
            raise FormatError(f"alphabet size {seq.sigma} outside [1, n = {seq.n}]")
        for lvl in range((seq.sigma - 1).bit_length()):
            store = bitvector_from_bytes(r.blob())
            if store.n_bits != seq.n:
                raise FormatError(f"level {lvl} holds {store.n_bits} bits, expected {seq.n}")
            seq._add_level(store)
        try:
            found, _ = seq._split_walk(0, seq.n)
        except (RangeError, NotFoundError) as exc:
            raise FormatError(f"inconsistent sequence levels: {exc}") from exc
        # the walk emits only non-empty nodes, so every count is positive
        if len(found) != seq.sigma or max(found) > seq.sigma or sum(found.values()) != seq.n:
            raise FormatError("sequence levels do not describe a dense alphabet of size sigma")
        counts = np.zeros(seq.sigma, dtype=np.int64)
        counts[np.fromiter(found, dtype=np.int64, count=len(found)) - 1] = list(found.values())
        seq._set_counts(counts)
        return seq

    def to_bytes(self) -> bytes:
        w = ByteWriter()
        self.write_to(w)
        return w.getvalue()

    def size_bits(self) -> int:
        # n, sigma and the compressed flag, then each level as a u64-prefixed blob
        return 8 * (8 + 4 + 1) + sum(64 + store.size_bits() for store, _ in self._levels)
