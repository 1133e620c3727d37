"""Range minority queries: find an element that occurs but is not frequent.

Given [lo..hi] and tau, report some symbol present in the range whose count
is at most floor(tau * length), together with its exact count, or None when
every present symbol exceeds the threshold.  Unlike the majority problem the
answer is a single witness.  Dispatch has two paths:

* empty: the threshold is 0, so every present symbol is frequent.
* walk: the walk behind `WaveletSequence.range_minority(lo, hi, thr)`,
  called directly on the range checked once here.  The walk expands
  the code-trie nodes that the majority walk keeps, those holding more
  than thr of the range's positions over symbols that occur more than thr
  times in the whole sequence.  At the first nonempty child that is not
  such a node it descends along any nonempty child to a leaf, whose size
  is the witness's exact count.  A minority's leaf is nonempty and light,
  and the highest light node on its root path has a heavy parent, which
  the walk expands, so None means no minority exists.
"""

from __future__ import annotations

import time

from .config import IndexConfig
from .counters import OpTally, QueryDiagnostics
from .majority import check_tau, threshold_count
from .sequence import WaveletSequence, check_range


class MinorityIndex:
    """Query-time-threshold range minority index over a fixed sequence."""

    def __init__(self, seq: WaveletSequence, config: IndexConfig):
        self.seq = seq
        self.config = config
        self.diagnostics: QueryDiagnostics | None = None

    def query_minority(self, lo: int, hi: int, tau: float):
        """Some (symbol, count) with 1 <= count <= floor(tau * length), or None."""
        seq = self.seq
        lo, hi = check_range(lo, hi, seq.n)
        tau = check_tau(tau)
        t0 = time.perf_counter_ns()
        diag = QueryDiagnostics(kind="minority", lo=lo, hi=hi, tau=tau)
        thr = threshold_count(tau, hi - lo + 1)
        found, ranks = None, 0
        if thr == 0:
            diag.path = "empty"  # every present symbol is automatically frequent
        else:
            diag.path = "walk"
            found, ranks = seq._minority_walk(lo - 1, hi, thr)
            seq.tally.ranks += ranks
            diag.candidates = int(found is not None)
        diag.ops = OpTally(ranks=ranks)
        diag.elapsed_ns = time.perf_counter_ns() - t0
        self.diagnostics = diag
        return found
