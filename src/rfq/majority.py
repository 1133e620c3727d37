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
  enumerate its set positions inside the range, then confirm or reject
  each distinct symbol found.  Symbols whose in-range leftmost occurrence
  cannot be reached from the flagged position through its occurrence
  chunk are settled in a second pass over the anchor family.
* sequential: no family covers the scale, which only happens when the
  range is short relative to 1/tau; scan it once with `RangeScan`, which
  visits each symbol at its leftmost occurrence (plain), or chunk by chunk
  (segmented, used when sparsification makes short uncovered ranges
  longer).

The listing, flagged and segmented paths certify a candidate at its
in-range leftmost occurrence r with a single select probe (is occurrence
r + thr still inside the range?) and pay one more rank for the exact
count of each symbol returned; the plain sequential scan counts each
symbol as it sweeps it.
"""

from __future__ import annotations

import math
import time
import warnings

import numpy as np

from .config import IndexConfig
from .counters import QueryDiagnostics
from .errors import DomainError, LogicError, RangeError
from .families import (
    FlagWorkspace,
    anchor_flag_bits_slow,
    candidate_flag_bits_slow,
    expected_ones_cap,
    flags_from_bits,
)
from .listing import ListingIndex, prev_occurrence_array
from .sequence import WaveletSequence
from .serial import ByteReader, ByteWriter

_SELF_CHECK_MAX_N = 512
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
        anchor_flags: dict,
        anchor_prev: dict,
    ):
        self.seq = seq
        self.config = config
        self.listing = listing
        self.candidate_flags = candidate_flags
        self.anchor_flags = anchor_flags
        self.anchor_prev = anchor_prev
        self._anchor_listing: dict = {}
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
        length = hi - lo + 1
        thr = threshold_count(tau, length)
        out: list[tuple[int, int]] = []
        if thr >= length:
            diag.path = "empty"
        elif tau < 1.0 / seq.sigma:
            self._small_threshold(lo, hi, thr, out, diag)
        else:
            tier = _tier(tau)
            scale = length.bit_length() - 1
            if (tier, scale) in self.candidate_flags:
                self._flagged(lo, hi, thr, tier, scale, out, diag)
            elif self.config.trade == 1:
                self._sequential(lo, hi, thr, out, diag)
            else:
                self._segmented(lo, hi, tau, thr, out, diag)
        out.sort()
        diag.ops = seq.tally.since(snap)
        diag.elapsed_ns = time.perf_counter_ns() - t0
        self.diagnostics = diag
        return out

    def query_mode(self, lo: int, hi: int) -> tuple[int, int]:
        """Most frequent symbol in [lo..hi] with its count; ties break low.

        Runs majority queries at tau = 1/2, 1/4, ... until one reports.
        Cost adapts to the mode's actual frequency.
        """
        seq = self.seq
        self._check_range(lo, hi)
        t0 = time.perf_counter_ns()
        snap = seq.tally.snapshot()
        candidates = 0
        s = 0
        while True:
            s += 1
            if s > _MODE_ITER_GUARD:
                raise LogicError("mode search failed to terminate")
            tau = 2.0 ** -s
            res = self.query_majorities(lo, hi, tau)
            candidates += self.diagnostics.candidates
            if res:
                break
        best = max(res, key=lambda sc: (sc[1], -sc[0]))
        diag = QueryDiagnostics(
            kind="mode", lo=lo, hi=hi, tau=tau, path="halving",
            candidates=candidates, iterations=s,
        )
        diag.ops = seq.tally.since(snap)
        diag.elapsed_ns = time.perf_counter_ns() - t0
        self.diagnostics = diag
        return best

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

    def _flagged(self, lo, hi, thr, tier, scale, out, diag):
        seq = self.seq
        diag.path = "flagged"
        flags = self.candidate_flags[(tier, scale)]
        decided: set[int] = set()
        deferred: set[int] = set()
        for k in flags.ones_in_range(lo, hi):
            a = seq.access(k)
            if a in decided or a in deferred:
                continue
            hit = self._leftmost_via_chunk(a, k, lo)
            if hit is None:
                # leftmost sits in an earlier chunk; settle via anchors
                deferred.add(a)
                continue
            decided.add(a)
            diag.candidates += 1
            occ = self._certify(a, hit[1], hi, thr)
            if occ is not None:
                out.append((a, occ))
        if deferred:
            self._anchored_phase(lo, hi, thr, tier, scale, deferred, decided, out, diag)

    def _anchored_phase(self, lo, hi, thr, tier, scale, deferred, decided, out, diag):
        """Second pass: reach deferred symbols through anchor positions.

        Any range majority has every chunk-multiple of its occurrence rank
        flagged inside the range, so its leftmost flagged anchor lies in the
        same chunk as its leftmost in-range occurrence.  Symbols that still
        fail the chunk walk are therefore not majorities.
        """
        seq = self.seq
        anchors = self.anchor_flags.get((tier, scale))
        if anchors is None or anchors.ones == 0:
            return
        s_lo = anchors.rank1(lo - 1) + 1
        s_hi = anchors.rank1(hi)
        if s_lo > s_hi:
            return
        lister = self._anchor_lister(tier, scale)
        listed = lister.query_leftmost(s_lo, s_hi, s_hi - s_lo + 1)
        diag.probes += lister.last_stats["probes"]
        for kp in listed:
            k = anchors.select1(kp)
            a = seq.access(k)
            if a in decided or a not in deferred:
                continue
            decided.add(a)
            hit = self._leftmost_via_chunk(a, k, lo)
            if hit is None:
                continue
            diag.candidates += 1
            occ = self._certify(a, hit[1], hi, thr)
            if occ is not None:
                out.append((a, occ))

    def _sequential(self, lo, hi, thr, out, diag):
        """Scan a short range once, skipping processed symbols as we go."""
        seq = self.seq
        diag.path = "sequential"
        scan = RangeScan(seq, lo, hi)
        for k in scan.heads():
            diag.candidates += 1
            a, r = seq.locate(k)
            occ = 1 + scan.sweep(a, r, k)[0]
            if occ > thr:
                out.append((a, occ))

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
        """Exact count of a in [select(a, r) .. hi] if above thr, else None.

        One select settles the verdict; the count costs one more rank and
        is only paid for actual majorities.
        """
        seq = self.seq
        p = seq.select(a, r + thr)
        if p is None or p > hi:
            return None
        return seq.rank(a, hi) - r + 1

    def _leftmost_via_chunk(self, a: int, anchor: int, lo: int):
        """(position, rank) of a's first occurrence >= lo, when that sits in
        the anchor's occurrence chunk; None when an earlier chunk holds it."""
        seq = self.seq
        r_k = seq.partial_rank(anchor)
        c = self.config.chunk_len
        q = (r_k + c - 1) // c
        base = (q - 1) * c
        if q >= 2:
            i_l = seq.select(a, base)
            if i_l >= lo:
                return None
        if r_k == base + 1:
            return anchor, r_k
        r_lo = base + 1
        p_lo = seq.select(a, r_lo)
        if p_lo >= lo:
            return p_lo, r_lo
        r_hi, p_hi = r_k, anchor
        while r_hi - r_lo > 1:
            mid = (r_lo + r_hi) // 2
            p = seq.select(a, mid)
            if p >= lo:
                r_hi, p_hi = mid, p
            else:
                r_lo = mid
        return p_hi, r_hi

    def _anchor_lister(self, tier, scale) -> ListingIndex:
        key = (tier, scale)
        li = self._anchor_listing.get(key)
        if li is None:
            li = ListingIndex.build_from_values(self.anchor_prev[key], self.config.trade)
            self._anchor_listing[key] = li
        return li

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
        cand = sum(v.size_bits() for v in self.candidate_flags.values())
        anch = sum(v.size_bits() for v in self.anchor_flags.values())
        prev = sum(32 * int(v.size) + 32 for v in self.anchor_prev.values())
        return {
            "sequence_bits": self.seq.size_bits(),
            "listing_bits": self.listing.size_bits(),
            "candidate_bits": cand,
            "anchor_bits": anch,
            "anchor_prev_bits": prev,
        }

    def write_families(self, w: ByteWriter) -> None:
        keys = self.family_keys()
        w.u16(len(keys))
        for t, b in keys:
            w.u8(t)
            w.u8(b)
            w.blob(self.candidate_flags[(t, b)].to_bytes())
            w.blob(self.anchor_flags[(t, b)].to_bytes())
            w.np_u32(self.anchor_prev[(t, b)].astype(np.uint32))

    @staticmethod
    def read_families(r: ByteReader):
        from .bits import bitvector_from_bytes

        cand: dict = {}
        anch: dict = {}
        prev: dict = {}
        for _ in range(r.u16()):
            t = r.u8()
            b = r.u8()
            cand[(t, b)] = bitvector_from_bytes(r.blob())
            anch[(t, b)] = bitvector_from_bytes(r.blob())
            prev[(t, b)] = r.np_u32().astype(np.int64)
        return cand, anch, prev


def build_majority_index(
    data,
    config: IndexConfig | None = None,
    seq: WaveletSequence | None = None,
    listing: ListingIndex | None = None,
) -> MajorityIndex:
    """Build the majority side of the index: sequence, listing, families."""
    config = config or IndexConfig()
    raw = np.asarray(data, dtype=np.int64)
    if seq is None:
        seq = WaveletSequence.build(raw, compressed=config.compressed)
    if listing is None:
        listing = ListingIndex.for_sequence(seq, config.trade, raw)
    cand: dict = {}
    anch: dict = {}
    prev: dict = {}
    if seq.n >= config.family_min_n:
        ws = FlagWorkspace(raw)
        check = config.build_check == "always" or (
            config.build_check == "auto" and seq.n <= _SELF_CHECK_MAX_N
        )
        t_max = (seq.sigma - 1).bit_length()
        b_max = seq.n.bit_length() - 1
        # tier 0 would serve only tau = 1.0, which the empty path already settles;
        # scales run outermost so the workspace counts each window radius once
        for b in range(config.scale_cutoff(1), b_max + 1):
            for t in range(1, t_max + 1):
                if config.scale_cutoff(t) > b:
                    break
                qual = ws.window_qualifies(1 << (b + 1), 1 << (b - t))
                gbits = ws.candidate_bits(t, b, qual=qual)
                jbits = ws.anchor_bits(t, b, config.chunk_len, qual=qual)
                if check:
                    if not np.array_equal(gbits, candidate_flag_bits_slow(raw, t, b)):
                        raise LogicError(f"candidate flags self-check failed at {(t, b)}")
                    if not np.array_equal(
                        jbits, anchor_flag_bits_slow(raw, t, b, config.chunk_len)
                    ):
                        raise LogicError(f"anchor flags self-check failed at {(t, b)}")
                g_ones = int(gbits.sum())
                if g_ones > expected_ones_cap(seq.n, t, b):
                    warnings.warn(
                        f"candidate family {(t, b)} denser than expected: {g_ones} flags",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                cand[(t, b)] = flags_from_bits(gbits)
                anch[(t, b)] = flags_from_bits(jbits)
                marked = np.flatnonzero(jbits)
                prev[(t, b)] = prev_occurrence_array(raw[marked])
    return MajorityIndex(seq, config, listing, cand, anch, prev)
