"""Range majority and mode queries with the fraction chosen per query.

The index answers, for any range [lo..hi] and any fraction tau in (0, 1],
the full set of symbols occurring more than floor(tau * (hi - lo + 1))
times in the range, together with their exact counts.

Dispatch has two paths:

* empty: the threshold already meets or exceeds the range length, so no
  symbol can clear it.
* walk: `WaveletSequence.range_counts(lo, hi, thr)`, one top-down split
  walk over the code trie that drops every node holding at most thr of
  the range's positions and every node whose symbols all occur at most
  thr times in the whole sequence.  The nodes of a level are disjoint,
  so fewer than ceil(1/tau) survive per level, at two rank1 calls each,
  and each kept leaf ends in its symbol's exact count.  The walk serves
  every tau, including tau < 1/sigma, where it reaches every present
  symbol.

Mode runs the walk at tau = 1/2, 1/4, ... over one range until a round
reports, and takes the most frequent reported symbol, the lowest on a
tie.  The round that reports is at most ceil(lg(len / occ)) + 1.

The candidate flag families, the listing engine and the chunked range
scan that earlier versions dispatched between are retired: on the
Huffman-shaped wavelet matrix every access and rank walks a whole code,
so they paid the walk's O(lg sigma / tau) level steps with larger
constants.
"""

from __future__ import annotations

import math
import numbers
import time

from .config import IndexConfig
from .counters import QueryDiagnostics
from .errors import DomainError, LogicError
from .sequence import WaveletSequence, check_range

_MODE_ITER_GUARD = 80


def threshold_count(tau: float, length: int) -> int:
    """Occurrence threshold for a range of the given length.

    A symbol is a majority when its count strictly exceeds this value.
    The exact floating-point expression matters for boundary cases and is
    shared verbatim with the reference oracle.
    """
    return int(math.floor(tau * length))


def check_tau(tau) -> float:
    """tau as a float; DomainError unless it is a real number in (0, 1]."""
    if isinstance(tau, numbers.Real) and 0.0 < float(tau) <= 1.0:
        return float(tau)
    raise DomainError(f"tau must be in (0, 1], got {tau!r}")


class MajorityIndex:
    """Query-time-threshold range majority and mode over a fixed sequence."""

    def __init__(self, seq: WaveletSequence, config: IndexConfig):
        self.seq = seq
        self.config = config
        self.diagnostics: QueryDiagnostics | None = None

    def query_majorities(self, lo: int, hi: int, tau: float):
        """All (symbol, count) with count > floor(tau * range length), sorted."""
        seq = self.seq
        lo, hi = check_range(lo, hi, seq.n)
        tau = check_tau(tau)
        t0 = time.perf_counter_ns()
        snap = seq.tally.snapshot()
        diag = QueryDiagnostics(kind="majority", lo=lo, hi=hi, tau=tau)
        out = self._majorities(lo, hi, tau, diag)
        diag.ops = seq.tally.since(snap)
        diag.elapsed_ns = time.perf_counter_ns() - t0
        self.diagnostics = diag
        return out

    def query_mode(self, lo: int, hi: int) -> tuple[int, int]:
        """Most frequent symbol in [lo..hi] with its count; ties break low.

        Runs majority rounds at tau = 1/2, 1/4, ... until one reports.
        Cost adapts to the mode's actual frequency.
        """
        seq = self.seq
        lo, hi = check_range(lo, hi, seq.n)
        t0 = time.perf_counter_ns()
        snap = seq.tally.snapshot()
        diag = QueryDiagnostics(kind="mode", lo=lo, hi=hi)
        s = 0
        while True:
            s += 1
            if s > _MODE_ITER_GUARD:
                raise LogicError("mode search failed to terminate")
            tau = 2.0 ** -s
            res = self._majorities(lo, hi, tau, diag)
            if res:
                break
        best = max(res, key=lambda sc: (sc[1], -sc[0]))
        diag.tau, diag.path, diag.iterations = tau, "halving", s
        diag.ops = seq.tally.since(snap)
        diag.elapsed_ns = time.perf_counter_ns() - t0
        self.diagnostics = diag
        return best

    def _majorities(self, lo, hi, tau, diag):
        """One majority round; sorted (symbol, count) pairs."""
        length = hi - lo + 1
        thr = threshold_count(tau, length)
        if thr >= length:
            diag.path = "empty"
            return []
        diag.path = "walk"
        heavy = self.seq.range_counts(lo, hi, thr)
        diag.candidates += len(heavy)
        return sorted(heavy.items())
