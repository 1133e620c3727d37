"""Range majority queries with the fraction chosen per query.

The index preprocesses a sequence once and then answers, for any range
[lo..hi] and any fraction tau in (0, 1], the full set of symbols occurring
more than floor(tau * (hi - lo + 1)) times in the range, together with
their exact counts.  Work scales with 1/tau rather than with the range
length or the alphabet size.

Dispatch picks one of four strategies:

* empty: the threshold already meets or exceeds the range length, so no
  symbol can clear it.
* small threshold (tau < 1/sigma): every distinct symbol is a potential
  answer, so list the distinct symbols and certify each.
* flagged: a candidate family matching the query's tier and scale exists;
  enumerate its set positions inside the range and take each new symbol
  a found there as a candidate.  The family flags a frequent symbol at
  its first and last occurrence in every aligned block of 2**scale
  positions, and a range of that scale meets at most three blocks, so
  every range majority has a flagged position inside the range and each
  candidate has at most six, one access each.  Two ranks,
  rank(a, hi) - rank(a, lo - 1), count a candidate in the range.
* sequential: no family covers the scale, which only happens when the
  range is short relative to 1/tau.  At trade 1 one top-down split walk
  over the range counts the symbols, dropping every node that holds at
  most the threshold's number of positions.  Sparsified indexes scan the
  range chunk by chunk with `RangeScan` instead (segmented), certifying
  each symbol at its leftmost occurrence.

The listing and segmented paths meet a candidate at its in-range leftmost
occurrence r, which they learn with its symbol, and certify it with one
rank, rank(a, hi) - r + 1, which is also the exact count; the split walk
ends in each kept symbol's exact count.  No path certifies with select:
on the wavelet matrix a select level is a binary search where a rank
level is one count read.

Mode runs the majority rounds at tau = 1/2, 1/4, ... over one range.  At
a fixed scale the flags of tier t are a subset of those of tier t + 1, so
its flagged rounds share two maps for the whole call, flag position to
symbol and symbol to count: each flag is accessed and each candidate
counted at most once per mode query.

The index is assembled by `IndexBundle` over the shared sequence and
listing engine, with the candidate families that `families.build_families`
makes; this module queries and stores them.
"""

from __future__ import annotations

import math
import time

from .config import IndexConfig
from .counters import QueryDiagnostics
from .errors import DomainError, LogicError, RangeError
from .families import read_family_keys, read_flags
from .listing import ListingIndex
from .sequence import WaveletSequence
from .serial import ByteReader, ByteWriter

_MODE_ITER_GUARD = 80


def threshold_count(tau: float, length: int) -> int:
    """Occurrence threshold for a range of the given length.

    A symbol is a majority when its count strictly exceeds this value.
    The exact floating-point expression matters for boundary cases and is
    shared verbatim with the reference oracle.
    """
    return int(math.floor(tau * length))


def _tier(tau: float) -> int:
    # ceil(lg(1/tau)); frexp is exact, so tau = m * 2**e with m in [0.5, 1)
    # gives lg(1/tau) = -e + lg(1/m) with lg(1/m) in (0, 1]
    return 1 - math.frexp(tau)[1]


class RangeScan:
    """Left-to-right scan of x..y that visits each symbol once.

    `heads` yields each position not yet visited, which is the leftmost
    remaining occurrence of its symbol; `sweep` marks that symbol's later
    occurrences up to y visited, one select each.
    """

    __slots__ = ("seq", "x", "y", "_visited")

    def __init__(self, seq: WaveletSequence, x: int, y: int):
        self.seq = seq
        self.x = x
        self.y = y
        self._visited = bytearray(y - x + 1)

    def heads(self):
        visited = self._visited
        i = visited.find(0)
        while i >= 0:
            visited[i] = 1
            yield self.x + i
            i = visited.find(0, i + 1)

    def sweep(self, a: int, r: int, p: int) -> tuple[int, int]:
        """Visit a's occurrences after occurrence r (at position p) up to y.

        The sweep stops at the first select past y.  Returns the number of
        occurrences visited and the position of the last one (p when none).
        """
        seq, x, y, visited = self.seq, self.x, self.y, self._visited
        count = 0
        while True:
            q = seq.select(a, r + 1)
            if q is None or q > y:
                break
            visited[q - x] = 1
            r += 1
            count += 1
            p = q
        return count, p


class MajorityIndex:
    """Query-time-threshold range majority index over a fixed sequence."""

    def __init__(
        self,
        seq: WaveletSequence,
        config: IndexConfig,
        listing: ListingIndex,
        candidate_flags: dict,
    ):
        self.seq = seq
        self.config = config
        self.listing = listing
        self.candidate_flags = candidate_flags
        self.diagnostics: QueryDiagnostics | None = None

    # -- public queries ---------------------------------------------------

    def query_majorities(self, lo: int, hi: int, tau: float):
        """All (symbol, count) with count > floor(tau * range length), sorted."""
        seq = self.seq
        self._check_range(lo, hi)
        if not (isinstance(tau, (int, float)) and 0.0 < tau <= 1.0):
            raise DomainError(f"tau must be in (0, 1], got {tau!r}")
        t0 = time.perf_counter_ns()
        snap = seq.tally.snapshot()
        diag = QueryDiagnostics(kind="majority", lo=lo, hi=hi, tau=float(tau))
        out = self._majorities(lo, hi, tau, diag, {}, {})
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
        self._check_range(lo, hi)
        t0 = time.perf_counter_ns()
        snap = seq.tally.snapshot()
        diag = QueryDiagnostics(kind="mode", lo=lo, hi=hi)
        symbols: dict[int, int] = {}  # flag position -> symbol, for every round
        counts: dict[int, int] = {}  # symbol -> count in lo..hi, for every round
        s = 0
        while True:
            s += 1
            if s > _MODE_ITER_GUARD:
                raise LogicError("mode search failed to terminate")
            tau = 2.0 ** -s
            res = self._majorities(lo, hi, tau, diag, symbols, counts)
            if res:
                break
        best = max(res, key=lambda sc: (sc[1], -sc[0]))
        diag.tau, diag.path, diag.iterations = tau, "halving", s
        diag.ops = seq.tally.since(snap)
        diag.elapsed_ns = time.perf_counter_ns() - t0
        self.diagnostics = diag
        return best

    def _majorities(self, lo, hi, tau, diag, symbols, counts):
        """One majority round, dispatched; sorted (symbol, count) pairs.

        symbols (flag position -> symbol) and counts (symbol -> count in
        lo..hi) hold what earlier rounds over the same range learned; the
        flagged path reads them before it accesses or ranks.
        """
        length = hi - lo + 1
        thr = threshold_count(tau, length)
        out: list[tuple[int, int]] = []
        if thr >= length:
            diag.path = "empty"
        elif tau < 1.0 / self.seq.sigma:
            self._small_threshold(lo, hi, thr, out, diag)
        else:
            tier = _tier(tau)
            scale = length.bit_length() - 1
            if (tier, scale) in self.candidate_flags:
                self._flagged(lo, hi, thr, tier, scale, out, diag, symbols, counts)
            elif self.config.trade == 1:
                self._sequential(lo, hi, thr, out, diag)
            else:
                self._segmented(lo, hi, tau, thr, out, diag)
        out.sort()
        return out

    # -- dispatch targets ---------------------------------------------------

    def _small_threshold(self, lo, hi, thr, out, diag):
        seq = self.seq
        diag.path = "listing"
        positions = self.listing.query_leftmost(lo, hi, seq.sigma)
        diag.probes += self.listing.last_stats["probes"]
        for k in positions:
            a, r = seq.locate(k)
            diag.candidates += 1
            occ = self._certify(a, r, hi, thr)
            if occ is not None:
                out.append((a, occ))

    def _flagged(self, lo, hi, thr, tier, scale, out, diag, symbols, counts):
        seq = self.seq
        diag.path = "flagged"
        seen: set[int] = set()
        for k in self.candidate_flags[(tier, scale)].ones_in_range(lo, hi):
            a = symbols.get(k)
            if a is None:
                a = symbols[k] = seq.access(k)
            if a in seen:
                continue
            seen.add(a)
            diag.candidates += 1
            occ = counts.get(a)
            if occ is None:
                occ = counts[a] = seq.rank(a, hi) - seq.rank(a, lo - 1)
            if occ > thr:
                out.append((a, occ))

    def _sequential(self, lo, hi, thr, out, diag):
        """Count a short range's symbols in one top-down split walk that
        drops every node holding at most thr positions.  The nodes of a
        level are disjoint and each kept one holds more than thr of the
        range's positions, so fewer than ceil(1/tau) survive per level."""
        diag.path = "sequential"
        heavy = self.seq.range_counts(lo, hi, thr)
        diag.candidates += len(heavy)
        out.extend(heavy.items())

    def _segmented(self, lo, hi, tau, thr, out, diag):
        """Chunked scan for sparsified indexes.

        Processes ceil(1/tau)-element segments left to right.  Known
        majorities get their occurrences inside each segment deleted up
        front, so each contributes O(1) extra work per segment; every
        remaining head is certified against the full range.  A known
        majority is never a head again, so each is reported once, at its
        range-leftmost occurrence.
        """
        seq = self.seq
        diag.path = "segmented"
        m = max(1, math.ceil(1.0 / tau))
        known: dict[int, int] = {}  # reported majority -> last visited occurrence
        x = lo
        while x <= hi:
            y = min(x + m - 1, hi)
            scan = RangeScan(seq, x, y)
            for a, p in known.items():
                known[a] = scan.sweep(a, seq.partial_rank(p), p)[1]
            for k in scan.heads():
                a, r = seq.locate(k)
                diag.candidates += 1
                occ = self._certify(a, r, hi, thr)
                last = scan.sweep(a, r, k)[1]
                if occ is not None:
                    out.append((a, occ))
                    known[a] = last
            x = y + 1

    # -- helpers ------------------------------------------------------------

    def _certify(self, a: int, r: int, hi: int, thr: int) -> int | None:
        """Count of a from its r-th occurrence to hi if above thr, else None.

        One rank gives the count, which settles the verdict; from a's
        in-range leftmost occurrence it is a's exact count in the range.
        """
        occ = self.seq.rank(a, hi) - r + 1
        return occ if occ > thr else None

    def _check_range(self, lo, hi):
        n = self.seq.n
        if not (1 <= lo <= n and 1 <= hi <= n):
            raise RangeError(f"range [{lo}, {hi}] outside 1..{n}")
        if lo > hi:
            raise RangeError(f"empty range [{lo}, {hi}]")

    # -- space and serialization ---------------------------------------------

    def family_keys(self) -> list[tuple[int, int]]:
        return sorted(self.candidate_flags)

    def size_report(self) -> dict:
        return {
            "sequence_bits": self.seq.size_bits(),
            "listing_bits": self.listing.size_bits(),
            "candidate_bits": sum(v.size_bits() for v in self.candidate_flags.values()),
        }

    def write_families(self, w: ByteWriter) -> None:
        keys = self.family_keys()
        w.u16(len(keys))
        for t, b in keys:
            w.u8(t)
            w.u8(b)
            w.blob(self.candidate_flags[(t, b)].to_bytes())

    @staticmethod
    def read_families(r: ByteReader, seq: WaveletSequence) -> dict:
        return {key: read_flags(r, seq.n, key) for key in read_family_keys(r, seq)}
