"""Builders for the per-(tier, scale) flag bitvectors.

Three families of sparse bitvectors drive the query algorithms.  All are
indexed by a tier t (coarse threshold class, thresholds behave like
2**-t) and a scale b (range-length class, lengths behave like 2**b), and
all partition positions into aligned blocks of length 2**(b-1):

* candidate flags: position k is set when its symbol occurs at least
  2**(b-t) times in the window of radius 2**(b+1) around k, and k is the
  leftmost or rightmost occurrence of that symbol inside its block.  Any
  element frequent enough in a range of the matching scale has a set
  position inside the range.

* anchor flags: every chunk_len-th occurrence (by global occurrence rank)
  of a symbol is set wherever it falls inside the window of a position
  passing the frequency test above.  These give footholds for jumping to
  a candidate's leftmost in-range occurrence when its flagged position
  sits too far right.

* distinct flags: inside each block, the first occurrences of the first
  2**t distinct symbols and the last occurrences of the last 2**t
  distinct ones.  A range of the matching scale either has all its
  distinct symbols flagged somewhere inside, or gets 2**t flagged
  distinct candidates from a single block; either way an infrequent
  element is among the flagged ones when it exists.

A workspace caches the occurrence ordering so building many families over
the same array sorts only once.  It counts the windows once per scale:
the count depends only on the radius 2**(b+1), the tier only sets the
threshold it is compared against, and the searchsorted probes are made in
(symbol, position) key order, where they ascend.  Block first/last ranks
are likewise computed once per scale and serve both the candidate and the
distinct families.  Builders therefore loop over scales outermost.
Positions are 1-based in the produced bitvectors.  The slow reference
builders recompute the same sets from an occurrence matrix and are used
for build-time self checks on small inputs.
"""

from __future__ import annotations

import numpy as np

from .bits import SparseBitVector
from .listing import prev_occurrence_array

_POS = 1 << 40  # (symbol, position) key packing; positions stay far below this
_NO_RANK = np.iinfo(np.int64).max  # block rank of a position that opens and closes nothing


class FlagWorkspace:
    """Shared sorted-occurrence scaffolding for family construction.

    The per-position window counts depend only on the scale (through the
    radius) and the block ranks only on the scale, while the tier merely
    sets the threshold they are compared against.  Each is kept for the
    last radius or scale asked for, read-only, so a caller looping over
    scales outermost computes each once and holds one n-long array of each.
    """

    def __init__(self, arr: np.ndarray):
        arr = np.asarray(arr, dtype=np.int64)
        self.arr = arr
        self.n = int(arr.size)
        self.order = np.argsort(arr, kind="stable")
        self.a_sorted = arr[self.order]
        self.keys = self.a_sorted * _POS + (self.order + 1)
        newgrp = np.empty(self.n, dtype=bool)
        newgrp[0] = True
        newgrp[1:] = self.a_sorted[1:] != self.a_sorted[:-1]
        grp_start = np.flatnonzero(newgrp)
        grp_id = np.cumsum(newgrp) - 1
        self.rank_in_grp = np.arange(self.n) - grp_start[grp_id] + 1
        # previous / next occurrence of each position's symbol (0 / n + 1 if none)
        self._prev = prev_occurrence_array(arr)
        nxt_rev = prev_occurrence_array(arr[::-1])[::-1]
        self._next = np.where(nxt_rev == 0, self.n + 1, self.n + 1 - nxt_rev)
        self._counts = (None, None)  # (radius, window counts)
        self._ranks = (None, None)  # (scale, block ranks)

    def window_counts(self, radius: int) -> np.ndarray:
        """Per position: occurrences of its symbol within +-radius, itself included.

        Counted in key order, where the probes a_sorted * _POS + lo and
        a_sorted * _POS + hi ascend, so searchsorted sweeps `keys` once
        instead of jumping around it; the counts are scattered back to
        position order.
        """
        if self._counts[0] != radius:
            pos = self.order + 1
            base = self.a_sorted * _POS
            left = np.searchsorted(self.keys, base + np.maximum(pos - radius, 1), side="left")
            right = np.searchsorted(self.keys, base + np.minimum(pos + radius, self.n), side="right")
            counts = np.empty(self.n, dtype=np.int64)
            counts[self.order] = right - left
            counts.flags.writeable = False
            self._counts = (radius, counts)
        return self._counts[1]

    def window_qualifies(self, radius: int, need: int) -> np.ndarray:
        """Per position: does its symbol occur >= need times within +-radius?"""
        return self.window_counts(radius) >= need

    def _block_ranks(self, scale: int) -> np.ndarray:
        """Per position, over aligned blocks of length 2**(scale-1): k when it
        holds the k-th symbol to appear in its block, or the k-th to appear
        last counted back from the block's end (the smaller k if both), and
        _NO_RANK when it is neither a first nor a last occurrence there.
        """
        if self._ranks[0] != scale:
            n = self.n
            blk = np.arange(n, dtype=np.int64) >> (scale - 1)
            opens = self._prev <= blk << (scale - 1)  # previous one before the block
            closes = self._next > np.minimum((blk + 1) << (scale - 1), n)
            first = np.where(opens, _rank_within_blocks(opens, blk), _NO_RANK)
            last = np.where(closes, _rank_within_blocks(closes[::-1], blk[::-1])[::-1], _NO_RANK)
            ranks = np.minimum(first, last)
            ranks.flags.writeable = False
            self._ranks = (scale, ranks)
        return self._ranks[1]

    def candidate_bits(self, tier: int, scale: int, qual: np.ndarray | None = None) -> np.ndarray:
        if qual is None:
            qual = self.window_qualifies(1 << (scale + 1), 1 << (scale - tier))
        return qual & (self._block_ranks(scale) != _NO_RANK)

    def anchor_bits(self, tier: int, scale: int, chunk: int, qual: np.ndarray | None = None) -> np.ndarray:
        radius = 1 << (scale + 1)
        if qual is None:
            qual = self.window_qualifies(radius, 1 << (scale - tier))
        qual_cum = np.concatenate(([0], np.cumsum(qual[self.order])))
        mult = np.flatnonzero(self.rank_in_grp % chunk == 0)
        out = np.zeros(self.n, dtype=bool)
        if mult.size == 0:
            return out
        p = self.order[mult] + 1
        lo = np.maximum(p - radius, 1)
        hi = np.minimum(p + radius, self.n)
        left = np.searchsorted(self.keys, self.a_sorted[mult] * _POS + lo, side="left")
        right = np.searchsorted(self.keys, self.a_sorted[mult] * _POS + hi, side="right")
        marked = (qual_cum[right] - qual_cum[left]) > 0
        out[p[marked] - 1] = True
        return out

    def distinct_bits(self, tier: int, scale: int) -> np.ndarray:
        return self._block_ranks(scale) <= (1 << tier)


def _rank_within_blocks(mask: np.ndarray, blk: np.ndarray) -> np.ndarray:
    """Running count of set mask entries within each block, at each position."""
    cs = np.cumsum(mask)
    starts = np.concatenate(([0], np.flatnonzero(blk[1:] != blk[:-1]) + 1))
    base = np.where(starts > 0, cs[starts - 1], 0)
    return cs - np.repeat(base, np.diff(np.concatenate((starts, [mask.size]))))


def flags_from_bits(bits: np.ndarray) -> SparseBitVector:
    return SparseBitVector.from_numpy_bool(bits)


def expected_ones_cap(n: int, tier: int, scale: int) -> int:
    """Generous provable ceiling on candidate/distinct flag counts."""
    nblocks = (n + (1 << (scale - 1)) - 1) >> (scale - 1)
    return 16 * (1 << tier) * nblocks + 64


# -- slow reference builders (build self-check and tests) -------------------------


def _qualifies_slow(arr: np.ndarray, radius: int, need: int):
    n = arr.size
    eq = arr[None, :] == arr[:, None]
    idx = np.arange(n)
    near = np.abs(idx[None, :] - idx[:, None]) <= radius
    return eq, near, (eq & near).sum(axis=1) >= need


def candidate_flag_bits_slow(arr: np.ndarray, tier: int, scale: int) -> np.ndarray:
    n = arr.size
    eq, _, qual = _qualifies_slow(arr, 1 << (scale + 1), 1 << (scale - tier))
    idx = np.arange(n)
    blen = 1 << (scale - 1)
    same_blk = (idx[None, :] // blen) == (idx[:, None] // blen)
    both = eq & same_blk
    first = both.argmax(axis=1) == idx
    last = (n - 1 - both[:, ::-1].argmax(axis=1)) == idx
    return qual & (first | last)


def anchor_flag_bits_slow(arr: np.ndarray, tier: int, scale: int, chunk: int) -> np.ndarray:
    n = arr.size
    eq, near, qual = _qualifies_slow(arr, 1 << (scale + 1), 1 << (scale - tier))
    out = np.zeros(n, dtype=bool)
    for k in range(n):
        rank = int(eq[k, : k + 1].sum())
        if rank % chunk:
            continue
        out[k] = bool((eq[k] & near[k] & qual).any())
    return out


def distinct_flag_bits_slow(arr: np.ndarray, tier: int, scale: int) -> np.ndarray:
    n = arr.size
    cap = 1 << tier
    blen = 1 << (scale - 1)
    out = np.zeros(n, dtype=bool)
    for bs in range(0, n, blen):
        be = min(bs + blen, n)
        seen: list[int] = []
        for k in range(bs, be):
            if arr[k] not in seen:
                seen.append(int(arr[k]))
                if len(seen) <= cap:
                    out[k] = True
        seen = []
        for k in range(be - 1, bs - 1, -1):
            if arr[k] not in seen:
                seen.append(int(arr[k]))
                if len(seen) <= cap:
                    out[k] = True
    return out
