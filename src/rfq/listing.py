"""Range-leftmost listing over the previous-occurrence array.

For a sequence S define C[k] = position of the previous occurrence of
S[k], or 0 if none.  Position k in [lo..hi] is the leftmost occurrence of
its symbol inside the range exactly when C[k] < lo, so enumerating
distinct symbols reduces to finding small C values, driven by a range
minimum structure.

Two shapes of the structure exist.  The full one (block size 1) keeps a
minimum-position table over all of C and reads the value at each reported
argmin back through its value source.  The sparsified one keeps only one
summary cell per block of `block` positions, the minimum of the block;
queries scan the two partial boundary blocks cell by cell and recurse over
whole blocks, skipping any block run whose summary minimum already rules
out a hit.  Every scanned interior block contributes at least one result,
which caps value probes at block * (2 * reported + 2).

The value source is either an explicit array (probes are then plain array
reads) or the sequence itself, where one probe costs one partial rank and
one select.
"""

from __future__ import annotations

import numpy as np

from .bits import RmqIndex
from .errors import DomainError, LogicError, RangeError
from .serial import ByteReader, ByteWriter

_SENTINEL = np.iinfo(np.int64).max


def prev_occurrence_array(symbols: np.ndarray) -> np.ndarray:
    """Vectorized C array: 1-based previous-occurrence positions, 0 if none."""
    arr = np.asarray(symbols, dtype=np.int64)
    n = arr.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(arr, kind="stable")
    sorted_prev = np.zeros(n, dtype=np.int64)
    same = np.zeros(n, dtype=bool)
    same[1:] = arr[order[1:]] == arr[order[:-1]]
    sorted_prev[same] = order[np.flatnonzero(same) - 1] + 1
    out = np.zeros(n, dtype=np.int64)
    out[order] = sorted_prev
    return out


def block_minima(values: np.ndarray, block: int) -> np.ndarray:
    v = np.asarray(values, dtype=np.int64)
    nb = (v.size + block - 1) // block
    padded = np.full(nb * block, _SENTINEL, dtype=np.int64)
    padded[: v.size] = v
    return padded.reshape(nb, block).min(axis=1)


class ListingIndex:
    def __init__(self, n: int, block: int):
        if block < 1:
            raise DomainError(f"block size must be >= 1, got {block}")
        self.n = n
        self.block = block
        self.cprime: np.ndarray | None = None  # block minima, block > 1 only
        self._values: np.ndarray | None = None  # full C, derived data
        self._seq = None
        self._rmq: RmqIndex | None = None
        self.last_stats: dict[str, int] = {"probes": 0, "steps": 0, "reported": 0}

    # -- construction ----------------------------------------------------------

    @classmethod
    def build_from_values(cls, values, block: int) -> "ListingIndex":
        """Engine over an explicit C array; probes are free array reads."""
        v = np.asarray(values, dtype=np.int64)
        li = cls(int(v.size), block)
        li._values = v
        if block > 1:
            li.cprime = block_minima(v, block)
        return li

    @classmethod
    def for_sequence(cls, seq, block: int) -> "ListingIndex":
        li = cls.build_from_values(prev_occurrence_array(seq.to_array()), block)
        li.attach_sequence(seq)
        return li

    def attach_sequence(self, seq) -> None:
        """Route value probes through the sequence's order statistics."""
        self._seq = seq
        if self.block > 1:
            self._values = None  # only the summaries persist; probes hit seq

    # -- plumbing ---------------------------------------------------------------

    def _probe(self, k: int) -> int:
        self.last_stats["probes"] += 1
        if self._values is None:
            return self._seq.prev_occurrence(k)
        return int(self._values[k - 1])

    def _ensure_rmq(self) -> RmqIndex:
        if self._rmq is None:
            if self.block == 1:
                if self._values is None:
                    self._values = prev_occurrence_array(self._seq.to_array())
                self._rmq = RmqIndex(self._values)
            else:
                self._rmq = RmqIndex(self.cprime)
        return self._rmq

    # -- the query ---------------------------------------------------------------

    def query_leftmost(self, lo: int, hi: int, limit: int | None = None) -> list[int]:
        """Up to limit positions k in [lo..hi] with C[k] < lo.

        Each returned position is the leftmost in-range occurrence of a
        distinct symbol.  With a large enough limit the result is exactly
        the set of distinct symbols' leftmost positions.
        """
        if lo < 1 or hi > self.n:
            raise RangeError(f"range [{lo}, {hi}] outside [1, {self.n}]")
        if limit is None:
            limit = self.n
        self.last_stats = {"probes": 0, "steps": 0, "reported": 0}
        out: list[int] = []
        if hi < lo or limit <= 0:
            return out
        seen: set[int] = set()

        def report(k: int) -> None:
            if k not in seen:
                seen.add(k)
                out.append(k)

        def scan(a: int, b: int) -> None:
            for k in range(a, b + 1):
                if len(out) >= limit:
                    return
                if self._probe(k) < lo:
                    report(k)

        g = self.block
        if g == 1:
            rmq = self._ensure_rmq()
            stack = [(lo, hi)]
            while stack and len(out) < limit:
                self.last_stats["steps"] += 1
                l, r = stack.pop()
                if l > r:
                    continue
                m = rmq.query(l, r)
                if self._probe(m) >= lo:
                    continue
                report(m)
                stack.append((m + 1, r))
                stack.append((l, m - 1))
            if self.last_stats["steps"] > 4 * limit + 4:
                raise LogicError(f"listing took {self.last_stats['steps']} steps for limit {limit}")
        else:
            b_lo = (lo - 1) // g
            b_hi = (hi - 1) // g
            if b_lo == b_hi:
                scan(lo, hi)
            else:
                scan(lo, (b_lo + 1) * g)
                scan(b_hi * g + 1, hi)
                if b_lo + 1 <= b_hi - 1 and len(out) < limit:
                    rmq = self._ensure_rmq()
                    stack = [(b_lo + 1, b_hi - 1)]
                    while stack and len(out) < limit:
                        self.last_stats["steps"] += 1
                        l, r = stack.pop()
                        if l > r:
                            continue
                        mb = rmq.query(l + 1, r + 1) - 1
                        if int(self.cprime[mb]) >= lo:
                            continue
                        scan(mb * g + 1, min((mb + 1) * g, self.n))
                        stack.append((mb + 1, r))
                        stack.append((l, mb - 1))
        self.last_stats["reported"] = len(out)
        return out

    # -- serialization --------------------------------------------------------------

    def write_to(self, w: ByteWriter) -> None:
        w.u64(self.n)
        w.u32(self.block)
        if self.block > 1:
            w.np_u32(self.cprime)

    @classmethod
    def read_from(cls, r: ByteReader) -> "ListingIndex":
        n = r.u64()
        block = r.u32()
        li = cls(n, block)
        if block > 1:
            li.cprime = r.np_u32().astype(np.int64)
        return li

    def size_bits(self) -> int:
        w = ByteWriter()
        self.write_to(w)
        return 8 * len(w.getvalue())
