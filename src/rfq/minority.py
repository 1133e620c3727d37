"""Range minority queries: find an element that occurs but is not frequent.

Given [lo..hi] and tau, report some symbol present in the range whose count
is at most floor(tau * length), together with its exact count, or None when
every present symbol exceeds the threshold.  Unlike the majority problem the
answer is a single witness.  Dispatch mirrors the majority side:

* empty: the threshold is 0, so every present symbol is frequent.
* listing (trade g = 1, or tau < 1/sigma): enumerate distinct symbols of
  the range in leftmost order.  Fewer than 1/tau symbols can exceed the
  threshold, so among the first ceil(1/tau) distinct symbols (or all of
  them, if fewer exist) at least one is a minority whenever any exists.
  At g = 1 the listing engine reads its C array directly, which beats the
  flags, so no distinct families are built there.  The listing is consumed
  lazily and stops at the first candidate that certifies.
* flagged (g > 1): per (tier, scale), a distinct family flags within each
  aligned block the first occurrences of the first 2**tier distinct
  symbols and the last occurrences of the last 2**tier distinct ones.  For
  a range of matching scale, either all its distinct symbols carry a flag
  inside the range or one of its full blocks contributes
  2**tier >= ceil(1/tau) flagged distinct symbols; either way a minority
  is among the flagged candidates when one exists.
* sequential (g > 1, no family covers the scale): walk the short range
  once and stop at the first minority.

Listing and flagged certify a candidate by its count in the range: one
rank from its in-range leftmost occurrence, which the listing learns with
its symbol and the flagged path finds with one more rank.

The index is assembled by `IndexBundle` over the shared sequence and
listing engine, with the distinct families that `families.build_families`
makes; this module queries and stores them.
"""

from __future__ import annotations

import math
import time
from itertools import islice

from .config import IndexConfig
from .counters import QueryDiagnostics
from .errors import DomainError, RangeError
from .families import read_family_keys, read_flags
from .listing import ListingIndex
from .majority import RangeScan, _tier, threshold_count
from .sequence import WaveletSequence
from .serial import ByteReader, ByteWriter


class MinorityIndex:
    """Query-time-threshold range minority index over a fixed sequence."""

    def __init__(
        self,
        seq: WaveletSequence,
        config: IndexConfig,
        listing: ListingIndex,
        distinct_flags: dict,
    ):
        self.seq = seq
        self.config = config
        self.listing = listing
        self.distinct_flags = distinct_flags
        self.diagnostics: QueryDiagnostics | None = None

    def query_minority(self, lo: int, hi: int, tau: float):
        """Some (symbol, count) with 1 <= count <= floor(tau * length), or None."""
        seq = self.seq
        n = seq.n
        if not (1 <= lo <= n and 1 <= hi <= n) or lo > hi:
            raise RangeError(f"range [{lo}, {hi}] outside 1..{n}")
        if not (isinstance(tau, (int, float)) and 0.0 < tau <= 1.0):
            raise DomainError(f"tau must be in (0, 1], got {tau!r}")
        t0 = time.perf_counter_ns()
        snap = seq.tally.snapshot()
        diag = QueryDiagnostics(kind="minority", lo=lo, hi=hi, tau=float(tau))
        length = hi - lo + 1
        thr = threshold_count(tau, length)
        found = None
        if thr == 0:
            diag.path = "empty"  # every present symbol is automatically frequent
        elif self.config.trade == 1 or tau < 1.0 / seq.sigma:
            found = self._via_listing(lo, hi, tau, thr, diag)
        else:
            tier = _tier(tau)
            scale = length.bit_length() - 1
            if (tier, scale) in self.distinct_flags:
                found = self._via_flags(lo, hi, thr, tier, scale, diag)
            else:
                found = self._via_scan(lo, hi, thr, diag)
        diag.ops = seq.tally.since(snap)
        diag.elapsed_ns = time.perf_counter_ns() - t0
        self.diagnostics = diag
        return found

    # -- dispatch targets -------------------------------------------------------

    def _via_listing(self, lo, hi, tau, thr, diag):
        seq = self.seq
        diag.path = "listing"
        limit = min(math.ceil(1.0 / tau), seq.sigma)
        stats = {"probes": 0}
        found = None
        # list lazily: the walk stops at the first certified witness
        for k in islice(self.listing.iter_leftmost(lo, hi, stats), limit):
            a, r = seq.locate(k)
            diag.candidates += 1
            occ = self._certify_minor(a, r, hi, thr)
            if occ is not None:
                found = a, occ
                break
        diag.probes += stats["probes"]
        return found

    def _via_flags(self, lo, hi, thr, tier, scale, diag):
        seq = self.seq
        diag.path = "flagged"
        flags = self.distinct_flags[(tier, scale)]
        seen: set[int] = set()
        for k in flags.ones_in_range(lo, hi):
            a = seq.access(k)
            if a in seen:
                continue
            seen.add(a)
            diag.candidates += 1
            r = seq.rank(a, lo - 1) + 1
            occ = self._certify_minor(a, r, hi, thr)
            if occ is not None:
                return a, occ
        return None

    def _via_scan(self, lo, hi, thr, diag):
        """Short uncovered range: walk it once, stop at the first minority."""
        seq = self.seq
        diag.path = "sequential"
        scan = RangeScan(seq, lo, hi)
        for k in scan.heads():
            a, r = seq.locate(k)
            diag.candidates += 1
            occ = 1 + scan.sweep(a, r, k)[0]
            if occ <= thr:
                return a, occ
        return None

    def _certify_minor(self, a, r, hi, thr):
        """Count of a from its r-th occurrence to hi when within thr, by one rank."""
        occ = self.seq.rank(a, hi) - r + 1
        return occ if occ <= thr else None

    # -- space and serialization ------------------------------------------------

    def family_keys(self) -> list[tuple[int, int]]:
        return sorted(self.distinct_flags)

    def size_report(self) -> dict:
        return {"distinct_bits": sum(v.size_bits() for v in self.distinct_flags.values())}

    def write_families(self, w: ByteWriter) -> None:
        keys = self.family_keys()
        w.u16(len(keys))
        for t, b in keys:
            w.u8(t)
            w.u8(b)
            w.blob(self.distinct_flags[(t, b)].to_bytes())

    @staticmethod
    def read_families(r: ByteReader, seq: WaveletSequence) -> dict:
        return {key: read_flags(r, seq.n, key) for key in read_family_keys(r, seq)}

