"""Range minority queries: find an element that occurs but is not frequent.

Given [lo..hi] and tau, report some symbol present in the range whose count
is at most floor(tau * length), together with its exact count, or None when
every present symbol exceeds the threshold.  Unlike the majority problem the
answer is a single witness, which makes a simpler strategy viable:

* "listing": enumerate distinct symbols of the range in leftmost order.
  Fewer than 1/tau symbols can exceed the threshold, so among the first
  ceil(1/tau) distinct symbols (or all of them, if fewer exist) at least
  one is a minority whenever any minority exists.

* "flags": per (tier, scale), flag within each aligned block the first
  occurrences of the first 2**tier distinct symbols and the last
  occurrences of the last 2**tier distinct ones.  For a range of matching
  scale, either all its distinct symbols carry a flag inside the range or
  one of its full blocks contributes 2**tier >= ceil(1/tau) flagged
  distinct symbols; either way a minority is among the flagged candidates
  when one exists.  Ranges below the covered scales fall back to an
  early-stopping sequential scan.

Both strategies certify candidates with one select probe against the
threshold and pay one extra rank only for the reported witness.
"""

from __future__ import annotations

import math
import time
import warnings

import numpy as np

from .config import IndexConfig
from .counters import QueryDiagnostics
from .errors import ConfigError, DomainError, LogicError, RangeError
from .families import FlagWorkspace, distinct_flag_bits_slow, expected_ones_cap, flags_from_bits
from .listing import ListingIndex
from .majority import _SELF_CHECK_MAX_N, RangeScan, _tier, threshold_count
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

    def query_minority(self, lo: int, hi: int, tau: float, strategy: str = "listing"):
        """Some (symbol, count) with 1 <= count <= floor(tau * length), or None."""
        seq = self.seq
        n = seq.n
        if not (1 <= lo <= n and 1 <= hi <= n) or lo > hi:
            raise RangeError(f"range [{lo}, {hi}] outside 1..{n}")
        if not (isinstance(tau, (int, float)) and 0.0 < tau <= 1.0):
            raise DomainError(f"tau must be in (0, 1], got {tau!r}")
        if strategy not in ("listing", "flags"):
            raise ConfigError(f"unknown minority strategy {strategy!r}")
        t0 = time.perf_counter_ns()
        snap = seq.tally.snapshot()
        diag = QueryDiagnostics(kind="minority", lo=lo, hi=hi, tau=float(tau))
        length = hi - lo + 1
        thr = threshold_count(tau, length)
        found = None
        if thr == 0:
            diag.path = "empty"  # every present symbol is automatically frequent
        elif strategy == "listing" or tau < 1.0 / seq.sigma:
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

    # -- strategies -----------------------------------------------------------

    def _via_listing(self, lo, hi, tau, thr, diag):
        seq = self.seq
        diag.path = "listing"
        limit = min(math.ceil(1.0 / tau), seq.sigma)
        positions = self.listing.query_leftmost(lo, hi, limit)
        diag.probes += self.listing.last_stats["probes"]
        for k in positions:
            a, r = seq.locate(k)
            diag.candidates += 1
            occ = self._certify_minor(a, r, hi, thr)
            if occ is not None:
                return a, occ
        return None

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
        """Count of a in [select(a, r) .. hi] when it stays within thr."""
        seq = self.seq
        p = seq.select(a, r + thr)
        if p is not None and p <= hi:
            return None
        return seq.rank(a, hi) - r + 1

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
    def read_families(r: ByteReader) -> dict:
        from .bits import bitvector_from_bytes

        out: dict = {}
        for _ in range(r.u16()):
            t = r.u8()
            b = r.u8()
            out[(t, b)] = bitvector_from_bytes(r.blob())
        return out


def build_minority_index(
    data,
    config: IndexConfig | None = None,
    seq: WaveletSequence | None = None,
    listing: ListingIndex | None = None,
) -> MinorityIndex:
    config = config or IndexConfig()
    raw = np.asarray(data, dtype=np.int64)
    if seq is None:
        seq = WaveletSequence.build(raw, compressed=config.compressed)
    if listing is None:
        listing = ListingIndex.for_sequence(seq, config.trade, raw)
    flags: dict = {}
    if seq.n >= config.family_min_n:
        ws = FlagWorkspace(raw)
        check = config.build_check == "always" or (
            config.build_check == "auto" and seq.n <= _SELF_CHECK_MAX_N
        )
        t_max = (seq.sigma - 1).bit_length()
        b_max = seq.n.bit_length() - 1
        # scales run outermost so the workspace ranks each block length once
        for b in range(config.scale_cutoff(0), b_max + 1):
            for t in range(t_max + 1):
                if config.scale_cutoff(t) > b:
                    break
                bits = ws.distinct_bits(t, b)
                if check and not np.array_equal(bits, distinct_flag_bits_slow(raw, t, b)):
                    raise LogicError(f"distinct flags self-check failed at {(t, b)}")
                ones = int(bits.sum())
                if ones > expected_ones_cap(seq.n, t, b):
                    warnings.warn(
                        f"distinct family {(t, b)} denser than expected: {ones} flags",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                flags[(t, b)] = flags_from_bits(bits)
    return MinorityIndex(seq, config, listing, flags)
