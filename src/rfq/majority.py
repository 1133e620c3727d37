"""Range majority and mode queries with the fraction chosen per query.

The index answers, for any range [lo..hi] and any fraction tau in (0, 1],
the full set of symbols occurring more than floor(tau * (hi - lo + 1))
times in the range, together with their exact counts.

A query takes one of two paths, which its trace names:

* empty: the threshold already meets or exceeds the range length, so no
  symbol can clear it, and the walk returns before any rank1 call.
* walk: `WaveletSequence._split_walk`, called on the range checked once
  here with thr = floor(tau * length): one top-down split walk over the
  code trie that drops every node holding at most thr of the range's
  positions and every node whose symbols all occur at most thr times in
  the whole sequence.  The nodes of a level are disjoint,
  so fewer than ceil(1/tau) survive per level, at two rank1 calls each,
  and each kept leaf ends in its symbol's exact count.  The walk serves
  every tau, including tau < 1/sigma, where it reaches every present
  symbol.

Mode takes one path, the best-first `WaveletSequence._mode_walk`, over
the same trie (the greedy traversal of
Culpepper, Navarro, Puglisi and Turpin, ESA 2010).  It pops the node with
the highest bound, the smaller of its range size and its largest count,
and prunes by the best count found so far, so ties go to the lowest
symbol.  Every node it expands holds at least the mode's count occ of
positions, so it makes at most 2 * depth * floor(len / occ) rank1 calls
(the split-walk mode bound of Gagie, Navarro and Puglisi, TCS 2012).  It
replaced halving rounds, majority walks at tau = 1/2, 1/4, ... until one
reported, which restarted from the root each round.

The candidate flag families, the listing engine and the chunked range
scan that earlier versions dispatched between are retired: on the
Huffman-shaped wavelet matrix every access and rank walks a whole code,
so they paid the walk's O(lg sigma / tau) level steps with larger
constants.

Each query kind has one helper that checks the range and tau once and
returns the answer with the walk's rank1 calls and the path taken.  The
public methods return the answer alone and build nothing;
`IndexBundle.explain` times the same helper and returns a `QueryTrace`.
`MajorityIndex` holds the sequence and nothing else.
"""

from __future__ import annotations

import math
import numbers

from .errors import DomainError
from .sequence import WaveletSequence, check_range


def threshold_count(tau: float, length: int) -> int:
    """Occurrence threshold for a range of the given length.

    A symbol is a majority when its count strictly exceeds this value.
    The exact floating-point expression matters for boundary cases and is
    shared verbatim with the reference oracle.
    """
    return int(math.floor(tau * length))


def check_tau(tau) -> float:
    """tau as a float; DomainError unless it is a real number in (0, 1]."""
    if type(tau) is float:  # the common case, without the ABC check below
        if 0.0 < tau <= 1.0:
            return tau
    elif isinstance(tau, numbers.Real) and 0.0 < float(tau) <= 1.0:
        return float(tau)
    raise DomainError(f"tau must be in (0, 1], got {tau!r}")


def _majorities(seq: WaveletSequence, lo, hi, tau):
    """(sorted (symbol, count) majorities, rank1 calls, path) of one query."""
    lo, hi = check_range(lo, hi, seq.n)
    length = hi - lo + 1
    thr = threshold_count(check_tau(tau), length)
    heavy, ranks = seq._split_walk(lo - 1, hi, thr)  # no rank1 call if thr >= length
    return sorted(heavy.items()), ranks, "walk" if thr < length else "empty"


def _mode(seq: WaveletSequence, lo, hi):
    """((symbol, count) of the mode, rank1 calls, path) of one query."""
    lo, hi = check_range(lo, hi, seq.n)
    best, ranks = seq._mode_walk(lo - 1, hi)
    return best, ranks, "walk"


class MajorityIndex:
    """Query-time-threshold range majority and mode over a fixed sequence."""

    def __init__(self, seq: WaveletSequence):
        self.seq = seq

    def query_majorities(self, lo: int, hi: int, tau: float):
        """All (symbol, count) with count > floor(tau * range length), sorted."""
        return _majorities(self.seq, lo, hi, tau)[0]

    def query_mode(self, lo: int, hi: int) -> tuple[int, int]:
        """Most frequent symbol in [lo..hi] with its count; ties break low.

        One best-first walk; its cost adapts to the mode's frequency.
        """
        return _mode(self.seq, lo, hi)[0]
