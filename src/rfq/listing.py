"""Range-leftmost listing over the previous-occurrence array.

For a sequence S define C[k] = position of the previous occurrence of
S[k], or 0 if none.  Position k in [lo..hi] is the leftmost occurrence of
its symbol inside the range exactly when C[k] < lo, so enumerating
distinct symbols reduces to finding small C values, driven by a range
minimum structure.

The structure keeps one summary cell per block of `block` positions, the
minimum of C over the block, and a range-minimum table over the
summaries.  A query scans the cells of a boundary block that the range
covers only partly, and recurses over the blocks it covers whole: each
step takes the block run's minimum block and either rules the run out by
its summary or scans that block and recurses on both sides.  Each step
probes the minimum it lands on once, through the summary or through the
block's cells, and every whole block scanned reports at least one
position, which caps value probes at block * (2 * reported + 2).  With block size 1
the summaries are C itself: they are derived from the sequence on first
use and never stored in the file, and the query is the plain range-minimum
recursion over C.  C and the summaries are held as uint32 while positions
fit, as the file stores them; they are read only through `memoryview`, as
Python ints, so no arithmetic on them wraps.

Cell values come either from an explicit array (probes are then plain
array reads) or from the sequence itself, where one probe costs one
partial rank and one select.

The walk is lazy: `iter_leftmost` yields positions as it finds them, so a
caller that stops early (the minority side stops at its first certified
witness) pays only for the positions it took.  `query_leftmost` is the
list of its first `limit` positions.  The probe bound holds at every
position yielded, since a pruned step never outnumbers the reporting
steps by more than one; the walk raises `LogicError` when it is broken.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from .bits import RmqIndex
from .errors import DomainError, FormatError, LogicError, RangeError
from .serial import ByteReader, ByteWriter


def prev_occurrence_array(symbols: np.ndarray) -> np.ndarray:
    """Vectorized C array: 1-based previous-occurrence positions, 0 if none."""
    arr = np.asarray(symbols, dtype=np.int64)
    n = arr.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    # numpy radix-sorts 16-bit keys, several times faster than int64 ones
    small = arr.min() >= 0 and arr.max() <= 0xFFFF
    order = np.argsort(arr.astype(np.uint16) if small else arr, kind="stable")
    sorted_prev = np.zeros(n, dtype=np.int64)
    same = np.zeros(n, dtype=bool)
    same[1:] = arr[order[1:]] == arr[order[:-1]]
    sorted_prev[same] = order[np.flatnonzero(same) - 1] + 1
    out = np.zeros(n, dtype=np.int64)
    out[order] = sorted_prev
    return out


def _as_cells(values) -> np.ndarray:
    """C values (positions, never negative) as uint32 when every one fits,
    else int64; an array already in uint32 is kept as it is."""
    v = np.asarray(values)
    if v.dtype != np.uint32:
        v = np.asarray(values, dtype=np.int64)
        if not v.size or (v.min() >= 0 and v.max() <= 0xFFFFFFFF):
            v = v.astype(np.uint32)
    return np.ascontiguousarray(v)


def block_minima(values: np.ndarray, block: int) -> np.ndarray:
    """Minimum of each run of `block` values, the last run possibly short;
    memory stays O(len(values)) whatever the block size."""
    v = _as_cells(values)
    if block == 1 or not v.size:
        return v  # one cell per block, or none: the minima are the values themselves
    return np.minimum.reduceat(v, np.arange(0, v.size, block))


class ListingIndex:
    def __init__(self, n: int, block: int):
        if block < 1:
            raise DomainError(f"block size must be >= 1, got {block}")
        self.n = n
        self.block = block
        self.cprime: np.ndarray | None = None  # block minima; C itself at block 1
        self._values: np.ndarray | None = None  # full C when probes read an array
        self._seq = None
        self._rmq: RmqIndex | None = None
        self.last_stats: dict[str, int] = {"probes": 0, "reported": 0}

    # -- construction ----------------------------------------------------------

    @classmethod
    def build_from_values(cls, values, block: int) -> "ListingIndex":
        """Engine over an explicit C array; probes are free array reads."""
        v = _as_cells(values)
        li = cls(int(v.size), block)
        li._values = v
        li.cprime = block_minima(v, block)
        return li

    @classmethod
    def for_sequence(cls, seq, block: int, symbols=None) -> "ListingIndex":
        """Engine over seq; `symbols`, the dense array seq was built from,
        spares decoding the sequence back."""
        raw = seq.to_array() if symbols is None else symbols
        li = cls.build_from_values(prev_occurrence_array(raw), block)
        li.attach_sequence(seq)
        return li

    def attach_sequence(self, seq) -> None:
        """Route value probes through the sequence's order statistics."""
        self._seq = seq
        if self.block > 1:
            self._values = None  # only the summaries persist; probes hit seq

    # -- plumbing ---------------------------------------------------------------

    def _ensure_rmq(self) -> RmqIndex:
        if self._rmq is None:
            if self.cprime is None:  # block size 1 keeps C out of the file
                self.cprime = self._values = _as_cells(
                    prev_occurrence_array(self._seq.to_array()))
            self._rmq = RmqIndex(self.cprime)
        return self._rmq

    # -- the query ---------------------------------------------------------------

    def query_leftmost(self, lo: int, hi: int, limit: int | None = None) -> list[int]:
        """Up to limit positions k in [lo..hi] with C[k] < lo.

        Each returned position is the leftmost in-range occurrence of a
        distinct symbol.  With a large enough limit the result is exactly
        the set of distinct symbols' leftmost positions.  The first `limit`
        positions of iter_leftmost, in its order.
        """
        stats = {"probes": 0}
        walk = self.iter_leftmost(lo, hi, stats)
        out = list(islice(walk, self.n if limit is None else max(limit, 0)))
        self.last_stats = {**stats, "reported": len(out)}
        return out

    def iter_leftmost(self, lo: int, hi: int, stats: dict | None = None):
        """Yield the positions k in [lo..hi] with C[k] < lo, one at a time.

        The range is checked now, the work is done as positions are asked
        for.  `stats`, when given, holds under "probes" the cells and
        summaries read up to the last position yielded, or to the end of
        the walk.
        """
        if lo < 1 or hi > self.n:
            raise RangeError(f"range [{lo}, {hi}] outside [1, {self.n}]")
        return self._walk(lo, hi, {} if stats is None else stats)

    def _walk(self, lo: int, hi: int, stats: dict):
        probes = reported = 0
        rmq = self._ensure_rmq()  # first, since at block size 1 it derives C
        values, seq, cprime = self._values, self._seq, memoryview(self.cprime)
        # C[i + 1]: a plain read, or a partial rank and a select on seq
        read = (
            memoryview(values).__getitem__
            if values is not None
            else (lambda i: seq.prev_occurrence(i + 1))
        )
        g, n = self.block, self.n
        # blocks (1-based) first..last lie wholly inside [lo..hi]; the cells
        # before and after them belong to partly covered boundary blocks
        first = (lo - 2) // g + 2
        last = (n + g - 1) // g if hi == n else hi // g
        left_end = min((first - 1) * g, hi)
        right_start = max(last * g + 1, left_end + 1)
        for a, b in ((lo, left_end), (right_start, hi)):
            for k in range(a, b + 1):
                probes += 1
                if read(k - 1) < lo:
                    reported += 1
                    stats["probes"] = probes
                    yield k
        stack = [(first, last)] if first <= last else []
        while stack:
            # pruned steps never outnumber reporting ones by more than one
            if probes > g * (2 * reported + 2):
                raise LogicError(f"listing made {probes} probes for {reported} positions")
            l, r = stack.pop()
            if l > r:
                continue
            b = rmq.query(l, r)
            if cprime[b - 1] >= lo:
                probes += 1  # the summary rules the whole run out
                continue
            for k in range((b - 1) * g + 1, min(b * g, n) + 1):
                probes += 1
                if read(k - 1) < lo:
                    reported += 1
                    stats["probes"] = probes
                    yield k
            stack.append((b + 1, r))
            stack.append((l, b - 1))
        stats["probes"] = probes

    # -- serialization --------------------------------------------------------------

    def write_to(self, w: ByteWriter) -> None:
        w.u64(self.n)
        w.u32(self.block)
        if self.block > 1:
            w.np_u32(self.cprime)

    @classmethod
    def read_from(cls, r: ByteReader, seq) -> "ListingIndex":
        """Load the engine over seq; stored block minima must be seq's."""
        n = r.u64()
        block = r.u32()
        if block == 0:
            raise FormatError("listing block size is 0")
        if n != seq.n:
            raise FormatError(f"listing covers {n} positions, sequence {seq.n}")
        li = cls(n, block)
        if block > 1:
            li.cprime = r.np_u32()
            nb = (n + block - 1) // block
            if li.cprime.size != nb:
                raise FormatError(f"listing holds {li.cprime.size} block minima, expected {nb}")
            # wrong minima would make the recursion skip or misreport blocks
            want = block_minima(prev_occurrence_array(seq.to_array()), block)
            if not np.array_equal(li.cprime, want):
                raise FormatError("listing block minima disagree with the sequence")
        li.attach_sequence(seq)
        return li

    def size_bits(self) -> int:
        w = ByteWriter()
        self.write_to(w)
        return 8 * len(w.getvalue())
