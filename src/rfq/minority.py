"""Range minority queries: find an element that occurs but is not frequent.

Given [lo..hi] and tau, report some symbol present in the range whose count
is at most floor(tau * length), together with its exact count, or None when
every present symbol exceeds the threshold.  Unlike the majority problem the
answer is a single witness.  A query takes one of two paths, which its
trace names:

* empty: the threshold is 0, so every present symbol is frequent, and the
  walk returns None before any rank1 call.
* walk: `WaveletSequence._minority_walk`, called on the range checked
  once here with thr = floor(tau * length).  The walk expands
  the code-trie nodes that the majority walk keeps, those holding more
  than thr of the range's positions over symbols that occur more than thr
  times in the whole sequence.  At the first nonempty child that is not
  such a node it descends along any nonempty child to a leaf, whose size
  is the witness's exact count.  A minority's leaf is nonempty and light,
  and the highest light node on its root path has a heavy parent, which
  the walk expands, so None means no minority exists.
"""

from __future__ import annotations

from .majority import check_tau, threshold_count
from .sequence import WaveletSequence, check_range


def _minority(seq: WaveletSequence, lo, hi, tau):
    """(some (symbol, count) minority or None, rank1 calls, path) of one
    query."""
    lo, hi = check_range(lo, hi, seq.n)
    thr = threshold_count(check_tau(tau), hi - lo + 1)
    found, ranks = seq._minority_walk(lo - 1, hi, thr)  # no rank1 call if thr == 0
    return found, ranks, "walk" if thr else "empty"


class MinorityIndex:
    """Query-time-threshold range minority index over a fixed sequence."""

    def __init__(self, seq: WaveletSequence):
        self.seq = seq

    def query_minority(self, lo: int, hi: int, tau: float):
        """Some (symbol, count) with 1 <= count <= floor(tau * length), or None."""
        return _minority(self.seq, lo, hi, tau)[0]
