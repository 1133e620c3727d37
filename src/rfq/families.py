"""The per-(tier, scale) flag bitvectors and their one builder.

Two families of sparse bitvectors drive the query algorithms.  All are
indexed by a tier t (coarse threshold class, thresholds behave like
2**-t) and a scale b (range-length class: a range of scale b has length
in [2**b, 2**(b+1))), and each partitions positions into aligned blocks:

* candidate flags, on blocks of 2**b: position k is set when its symbol
  occurs at least 2**(b-t) times in the window of radius 2**(b+1) around
  k, and k is the leftmost or rightmost occurrence of that symbol inside
  its block.  A range of scale b either equals one block or crosses a
  block boundary.  When it crosses one, each symbol of the range has its
  last occurrence in the range's first block, or its first occurrence in
  a later block, inside the range; the window around that occurrence
  covers the whole range.  So any element frequent enough in a range of
  the matching scale has a set position inside the range, and a range
  meets at most three blocks, with two flags a symbol in each.  A flag
  only names the symbol: the query finds the symbol's leftmost
  occurrence in the range with one rank on the sequence, so no positions
  beyond the flags are stored.

* distinct flags, on blocks of 2**(b-1): inside each block, the first
  occurrences of the first 2**t distinct symbols and the last
  occurrences of the last 2**t distinct ones.  A range of the matching
  scale holds a whole block, so it either has all its distinct symbols
  flagged somewhere inside, or gets 2**t flagged distinct candidates from
  that block; either way an infrequent element is among the flagged ones
  when it exists.

Every boundary of a 2**b block is also one of a 2**(b-1) block, so each
candidate family is a subset of what the same test flags on blocks of
2**(b-1).  Files whose candidate families were built on the shorter
blocks therefore still answer correctly, and load under the same format.

`build_families` makes every family of an index in one pass over the
scales.  Per scale it counts the windows once, and it ranks the block
runs once per block length, through a `FlagWorkspace` that sorts the
occurrences once for the whole pass: scale b's candidate blocks are
scale b + 1's distinct blocks.  The tier only sets the threshold those
are compared against, so each tier's families are one compare each.  The
majority side gets candidate families from tier 1 (tier 0 serves only
tau = 1.0, which no range majority meets), the minority side distinct
families from tier 0 and only at trade g > 1 (at g = 1 its queries all
take the listing path), and inputs shorter than `FAMILY_MIN_N` get none.
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

_NO_RANK = np.iinfo(np.int64).max  # block rank of a position that opens and closes nothing


class FlagWorkspace:
    """Sorted-occurrence scaffolding for family construction.

    Built once per input.  The window counts depend only on the radius and
    the block ranks only on the block length; each method computes its
    array afresh, and the builder asks for each radius and each block
    length once.

    Occurrences are sorted by (symbol, position) and packed into one int64
    key each: the symbol's rank among the distinct symbols (below n) above
    n.bit_length() position bits.  Keys stay below 2 * n**2 whatever the
    symbol values are.
    """

    def __init__(self, arr: np.ndarray):
        arr = np.asarray(arr, dtype=np.int64)
        self.n = int(arr.size)
        self.order = np.argsort(arr, kind="stable")
        a_sorted = arr[self.order]
        newgrp = np.empty(self.n, dtype=bool)
        newgrp[0] = True
        newgrp[1:] = a_sorted[1:] != a_sorted[:-1]
        # per key: its symbol's rank shifted above the position bits
        self.base = (np.cumsum(newgrp) - 1) << self.n.bit_length()
        self.keys = self.base + (self.order + 1)
        # previous / next occurrence of each position's symbol (0 / n + 1 if none)
        self._prev = prev_occurrence_array(arr)
        nxt_rev = prev_occurrence_array(arr[::-1])[::-1]
        self._next = np.where(nxt_rev == 0, self.n + 1, self.n + 1 - nxt_rev)

    def window_counts(self, radius: int) -> np.ndarray:
        """Per position: occurrences of its symbol within +-radius, itself included.

        Counted in key order, where the probes base + lo and base + hi
        ascend, so searchsorted sweeps `keys` once instead of jumping
        around it; the counts are scattered back to position order.
        """
        pos = self.order + 1
        left = np.searchsorted(self.keys, self.base + np.maximum(pos - radius, 1), side="left")
        right = np.searchsorted(self.keys, self.base + np.minimum(pos + radius, self.n),
                                side="right")
        counts = np.empty(self.n, dtype=np.int64)
        counts[self.order] = right - left
        return counts

    def block_ranks(self, scale: int) -> np.ndarray:
        """Per position, over aligned blocks of length 2**(scale-1): k when it
        holds the k-th symbol to appear in its block, or the k-th to appear
        last counted back from the block's end (the smaller k if both), and
        _NO_RANK when it is neither a first nor a last occurrence there.
        These are the distinct blocks of this scale and the candidate
        blocks of the scale below.
        """
        n = self.n
        blk = np.arange(n, dtype=np.int64) >> (scale - 1)
        opens = self._prev <= blk << (scale - 1)  # previous one before the block
        closes = self._next > np.minimum((blk + 1) << (scale - 1), n)
        first = np.where(opens, _rank_within_blocks(opens, blk), _NO_RANK)
        last = np.where(closes, _rank_within_blocks(closes[::-1], blk[::-1])[::-1], _NO_RANK)
        return np.minimum(first, last)


def candidate_bits(counts: np.ndarray, ranks: np.ndarray, need: int) -> np.ndarray:
    """Positions whose window holds need occurrences of their symbol and
    that open or close their symbol's run in their block."""
    return (counts >= need) & (ranks != _NO_RANK)


def distinct_bits(ranks: np.ndarray, tier: int) -> np.ndarray:
    """First and last occurrences of the first and last 2**tier symbols of each block."""
    return ranks <= 1 << tier


def build_families(arr: np.ndarray, sigma: int, config):
    """Every flag family of an index over arr, dense symbols 1..sigma.

    Returns the candidate and distinct dicts, each keyed by (tier, scale).
    """
    cand: dict = {}
    dist: dict = {}
    n = int(arr.size)
    if n < FAMILY_MIN_N:
        return cand, dist
    ws = FlagWorkspace(arr)
    check = n <= SELF_CHECK_MAX_N
    t_max = (sigma - 1).bit_length()
    t_min = 0 if config.trade > 1 else 1

    def flags(kind, key, bits, slow):
        """The family as stored, once checked against its slow builder on
        short inputs; warns above its cap."""
        if check and not np.array_equal(bits, slow()):
            raise LogicError(f"{kind} flags self-check failed at {key}")
        ones = int(bits.sum())
        if ones > expected_ones_cap(n, *key):
            warnings.warn(
                f"{kind} family {key} denser than expected: {ones} flags",
                RuntimeWarning,
                stacklevel=3,
            )
        return flags_from_bits(bits)

    b0 = config.scale_cutoff(t_min)
    wide = ws.block_ranks(b0) if config.trade > 1 else None
    for b in range(b0, n.bit_length()):
        # ranks on blocks of 2**(b-1) for distinct flags, wide on 2**b for candidates
        ranks, wide = wide, ws.block_ranks(b + 1)
        if config.scale_cutoff(1) <= b:
            counts = ws.window_counts(1 << (b + 1))
        for t in range(t_min, t_max + 1):
            if config.scale_cutoff(t) > b:
                break
            key = (t, b)
            if t >= 1:
                cand[key] = flags("candidate", key, candidate_bits(counts, wide, 1 << (b - t)),
                                  lambda: candidate_flag_bits_slow(arr, t, b))
            if config.trade > 1:
                dist[key] = flags("distinct", key, distinct_bits(ranks, t),
                                  lambda: distinct_flag_bits_slow(arr, t, b))
    return cand, dist


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


def read_flags(r, n: int, key) -> SparseBitVector:
    """One stored family: a sparse bitvector over all n positions, holding
    no more flags than any family built under its (tier, scale) key."""
    flags = bitvector_from_bytes(r.blob())
    if not isinstance(flags, SparseBitVector):
        raise FormatError("flag family is not a sparse bitvector")
    if flags.n_bits != n:
        raise FormatError(f"flag family covers {flags.n_bits} positions, sequence {n}")
    cap = expected_ones_cap(n, *key)
    if flags.ones > cap:
        raise FormatError(f"flag family {key} holds {flags.ones} flags, at most {cap} possible")
    return flags


def expected_ones_cap(n: int, tier: int, scale: int) -> int:
    """Generous provable ceiling on candidate/distinct flag counts.

    Counted over the nblocks aligned blocks of h = 2**(scale-1) positions.
    A distinct family flags at most 2**tier first and 2**tier last
    occurrences in each.  A candidate block of 2h positions flags at most
    two positions of each symbol that occurs 2**(scale-tier) times within
    radius 4h of one of them: a span of 10h positions, so at most
    5 * 2**tier symbols and 10 * 2**tier flags, over at most
    (nblocks + 1) / 2 such blocks.  Both stay within 16 * 2**tier * nblocks,
    and so do candidate families that files hold on blocks of h (span 9h,
    9 * 2**tier flags a block), which therefore still load.  Scale 0
    counts blocks of one position.
    """
    h = max(scale - 1, 0)
    nblocks = (n + (1 << h) - 1) >> h
    return 16 * (1 << tier) * nblocks + 64


# -- slow reference builders (build self-check and tests) -------------------------


def _qualifies_slow(arr: np.ndarray, radius: int, need: int):
    n = arr.size
    eq = arr[None, :] == arr[:, None]
    idx = np.arange(n)
    near = np.abs(idx[None, :] - idx[:, None]) <= radius
    return eq, (eq & near).sum(axis=1) >= need


def candidate_flag_bits_slow(arr: np.ndarray, tier: int, scale: int) -> np.ndarray:
    n = arr.size
    eq, qual = _qualifies_slow(arr, 1 << (scale + 1), 1 << (scale - tier))
    idx = np.arange(n)
    blen = 1 << scale
    same_blk = (idx[None, :] // blen) == (idx[:, None] // blen)
    both = eq & same_blk
    first = both.argmax(axis=1) == idx
    last = (n - 1 - both[:, ::-1].argmax(axis=1)) == idx
    return qual & (first | last)


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
