"""The per-(tier, scale) flag bitvectors and their one builder.

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

`build_families` makes every family of an index in one pass over the
scales.  Per scale it counts the windows, ranks the block runs and finds
the anchors' window maxima once, through a `FlagWorkspace` that sorts the
occurrences once for the whole pass; the tier only sets the threshold
those are compared against, so each tier's families are one compare
each.  The majority side gets candidate and anchor families from tier 1
(tier 0 serves only tau = 1.0, which no range majority meets), the
minority side distinct families from tier 0 and only at trade g > 1 (at
g = 1 its queries all take the listing path), and inputs shorter than
`FAMILY_MIN_N` get none.
Positions are 1-based in the produced bitvectors.  The slow reference
builders recompute the same sets from an occurrence matrix; builds of at
most `SELF_CHECK_MAX_N` positions check every family against them.
"""

from __future__ import annotations

import warnings

import numpy as np

from .bits import SparseBitVector, bitvector_from_bytes
from .errors import FormatError, LogicError
from .listing import prev_occurrence_array

FAMILY_MIN_N = 64  # shorter inputs get no flag families
SELF_CHECK_MAX_N = 512  # builds up to this length check against the slow builders

_POS = 1 << 40  # (symbol, position) key packing; positions stay far below this
_NO_RANK = np.iinfo(np.int64).max  # block rank of a position that opens and closes nothing


class FlagWorkspace:
    """Sorted-occurrence scaffolding for family construction.

    Built once per input.  The window counts depend only on the radius,
    the block ranks only on the scale and the anchors' window maxima only
    on the scale and chunk length; each method computes its array afresh,
    and the builder asks for each once per scale.
    """

    def __init__(self, arr: np.ndarray):
        arr = np.asarray(arr, dtype=np.int64)
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

    def window_counts(self, radius: int) -> np.ndarray:
        """Per position: occurrences of its symbol within +-radius, itself included.

        Counted in key order, where the probes a_sorted * _POS + lo and
        a_sorted * _POS + hi ascend, so searchsorted sweeps `keys` once
        instead of jumping around it; the counts are scattered back to
        position order.
        """
        pos = self.order + 1
        base = self.a_sorted * _POS
        left = np.searchsorted(self.keys, base + np.maximum(pos - radius, 1), side="left")
        right = np.searchsorted(self.keys, base + np.minimum(pos + radius, self.n), side="right")
        counts = np.empty(self.n, dtype=np.int64)
        counts[self.order] = right - left
        return counts

    def block_ranks(self, scale: int) -> np.ndarray:
        """Per position, over aligned blocks of length 2**(scale-1): k when it
        holds the k-th symbol to appear in its block, or the k-th to appear
        last counted back from the block's end (the smaller k if both), and
        _NO_RANK when it is neither a first nor a last occurrence there.
        """
        n = self.n
        blk = np.arange(n, dtype=np.int64) >> (scale - 1)
        opens = self._prev <= blk << (scale - 1)  # previous one before the block
        closes = self._next > np.minimum((blk + 1) << (scale - 1), n)
        first = np.where(opens, _rank_within_blocks(opens, blk), _NO_RANK)
        last = np.where(closes, _rank_within_blocks(closes[::-1], blk[::-1])[::-1], _NO_RANK)
        return np.minimum(first, last)

    def anchor_windows(self, scale: int, chunk: int, counts: np.ndarray):
        """Anchor positions p (every chunk-th occurrence of a symbol, 1-based)
        and, per anchor, the largest of `counts`, the window counts at radius
        2**(scale+1), among its symbol's occurrences inside the window of the
        same radius around p.

        Those occurrences are a key-order run [left, right) of `keys`; the
        runs' maxima come from one doubling pass over the key-order counts,
        each run read at the level of its own length, as a sparse table
        would, without keeping the levels.
        """
        radius = 1 << (scale + 1)
        mult = np.flatnonzero(self.rank_in_grp % chunk == 0)
        p = self.order[mult] + 1
        base = self.a_sorted[mult] * _POS
        left = np.searchsorted(self.keys, base + np.maximum(p - radius, 1), side="left")
        right = np.searchsorted(self.keys, base + np.minimum(p + radius, self.n), side="right")
        span = right - left  # >= 1: the anchor lies in its own window
        k = np.frexp(span)[1] - 1  # floor(lg span)
        best = np.empty(p.size, dtype=np.int64)
        run = counts[self.order]  # at level j: max over keys i .. i + 2**j - 1
        for j in range(int(k.max(initial=-1)) + 1):
            if j:
                h = 1 << (j - 1)
                run = np.maximum(run[:-h], run[h:])
            at = np.flatnonzero(k == j)
            best[at] = np.maximum(run[left[at]], run[right[at] - (1 << j)])
        return p, best


def candidate_bits(counts: np.ndarray, ranks: np.ndarray, need: int) -> np.ndarray:
    """Positions whose window holds need occurrences of their symbol and
    that open or close their symbol's run in their block."""
    return (counts >= need) & (ranks != _NO_RANK)


def anchor_bits(n: int, anchors, need: int) -> np.ndarray:
    """Anchors within the window of a position whose window holds need
    occurrences; `anchors` is `FlagWorkspace.anchor_windows`'s pair."""
    p, best = anchors
    out = np.zeros(n, dtype=bool)
    out[p[best >= need] - 1] = True
    return out


def distinct_bits(ranks: np.ndarray, tier: int) -> np.ndarray:
    """First and last occurrences of the first and last 2**tier symbols of each block."""
    return ranks <= 1 << tier


def build_families(arr: np.ndarray, sigma: int, config):
    """Every flag family of an index over arr, dense symbols 1..sigma.

    Returns the candidate, anchor, anchor-link and distinct dicts, each
    keyed by (tier, scale).  The anchor links of a family are, per anchor
    in position order, the 1-based rank of the previous anchor with the
    same symbol, or 0.
    """
    cand: dict = {}
    anch: dict = {}
    prev: dict = {}
    dist: dict = {}
    n = int(arr.size)
    if n < FAMILY_MIN_N:
        return cand, anch, prev, dist
    ws = FlagWorkspace(arr)
    check = n <= SELF_CHECK_MAX_N
    chunk = config.chunk_len
    t_max = (sigma - 1).bit_length()
    t_min = 0 if config.trade > 1 else 1

    def flags(kind, key, bits, slow):
        """The family as stored, once checked against its slow builder on
        short inputs; candidate and distinct families warn above their cap."""
        if check and not np.array_equal(bits, slow()):
            raise LogicError(f"{kind} flags self-check failed at {key}")
        if kind != "anchor":
            ones = int(bits.sum())
            if ones > expected_ones_cap(n, *key):
                warnings.warn(
                    f"{kind} family {key} denser than expected: {ones} flags",
                    RuntimeWarning,
                    stacklevel=3,
                )
        return flags_from_bits(bits)

    for b in range(config.scale_cutoff(t_min), n.bit_length()):
        ranks = ws.block_ranks(b)
        if config.scale_cutoff(1) <= b:
            counts = ws.window_counts(1 << (b + 1))
            anchors = ws.anchor_windows(b, chunk, counts)
        for t in range(t_min, t_max + 1):
            if config.scale_cutoff(t) > b:
                break
            key = (t, b)
            need = 1 << (b - t)
            if t >= 1:
                gbits = candidate_bits(counts, ranks, need)
                jbits = anchor_bits(n, anchors, need)
                cand[key] = flags("candidate", key, gbits,
                                  lambda: candidate_flag_bits_slow(arr, t, b))
                anch[key] = flags("anchor", key, jbits,
                                  lambda: anchor_flag_bits_slow(arr, t, b, chunk))
                prev[key] = prev_occurrence_array(arr[np.flatnonzero(jbits)]).astype(np.uint32)
            if config.trade > 1:
                dist[key] = flags("distinct", key, distinct_bits(ranks, t),
                                  lambda: distinct_flag_bits_slow(arr, t, b))
    return cand, anch, prev, dist


def _rank_within_blocks(mask: np.ndarray, blk: np.ndarray) -> np.ndarray:
    """Running count of set mask entries within each block, at each position."""
    cs = np.cumsum(mask)
    starts = np.concatenate(([0], np.flatnonzero(blk[1:] != blk[:-1]) + 1))
    base = np.where(starts > 0, cs[starts - 1], 0)
    return cs - np.repeat(base, np.diff(np.concatenate((starts, [mask.size]))))


def flags_from_bits(bits: np.ndarray) -> SparseBitVector:
    return SparseBitVector.from_numpy_bool(bits)


def read_family_keys(r, seq):
    """Yield the (tier, scale) keys of a stored family section in turn.

    Keys must rise strictly, tiers stay within lg sigma and scales within
    lg n, as the builders produce them; the caller reads each key's
    payload before asking for the next key.
    """
    t_max = (seq.sigma - 1).bit_length()
    b_max = seq.n.bit_length() - 1
    last = None
    for _ in range(r.u16()):
        key = (r.u8(), r.u8())
        if last is not None and key <= last:
            raise FormatError(f"family key {key} does not follow {last}")
        if key[0] > t_max or key[1] > b_max:
            raise FormatError(f"family key {key} outside tiers 0..{t_max}, scales 0..{b_max}")
        last = key
        yield key


def read_flags(r, n: int) -> SparseBitVector:
    """One stored family: a sparse bitvector over all n positions."""
    flags = bitvector_from_bytes(r.blob())
    if not isinstance(flags, SparseBitVector):
        raise FormatError("flag family is not a sparse bitvector")
    if flags.n_bits != n:
        raise FormatError(f"flag family covers {flags.n_bits} positions, sequence {n}")
    return flags


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
