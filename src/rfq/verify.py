"""Randomized cross-checks of a built index against the brute-force oracle.

The verifier replays random queries (majority, minority, mode) through
the index's own dispatch and compares against recomputation from the raw
sequence.  The tau pool deliberately includes exact fraction boundaries
k/len, where a symbol's count can land exactly on tau times the range
length, and dyadic taus, the thresholds of the benchmark query grids.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .indexfile import IndexBundle
from .oracle import oracle_majorities, oracle_minorities, oracle_mode


@dataclass
class VerifyReport:
    queries: int = 0
    mismatches: list = field(default_factory=list)
    elapsed_s: float = 0.0
    seed: int = 0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        state = "ok" if self.ok else f"{len(self.mismatches)} mismatches"
        return f"{self.queries} queries in {self.elapsed_s:.2f}s: {state}"


def _tau_pool(rng: random.Random, length: int) -> float:
    roll = rng.random()
    if roll < 0.35:
        return 2.0 ** -rng.randint(1, 10)
    if roll < 0.6:
        # exact fraction of the range length: boundary counts land on floor
        return rng.randint(1, length) / length
    if roll < 0.7:
        return 1.0
    return rng.uniform(1e-3, 1.0)


def verify_index(bundle: IndexBundle, queries: int = 1000, seed: int = 0) -> VerifyReport:
    """Replay random queries; collect any disagreements with the oracle."""
    t0 = time.perf_counter()
    data = bundle.seq.to_array().tolist()
    n = len(data)
    rng = random.Random(seed)
    report = VerifyReport(seed=seed)
    for _ in range(queries):
        lo = rng.randint(1, n)
        hi = rng.randint(lo, n)
        tau = _tau_pool(rng, hi - lo + 1)
        kind = rng.randrange(5)  # two majority, two minority, one mode
        report.queries += 1
        if kind < 2:
            got = bundle.majority.query_majorities(lo, hi, tau)
            want = oracle_majorities(data, lo, hi, tau)
            if got != want:
                report.mismatches.append(
                    dict(kind="majority", lo=lo, hi=hi, tau=tau, got=got, want=want)
                )
        elif kind < 4:
            got = bundle.minority.query_minority(lo, hi, tau)
            want = oracle_minorities(data, lo, hi, tau)
            bad = (got is None and want) or (got is not None and tuple(got) not in want)
            if bad:
                report.mismatches.append(
                    dict(kind="minority", lo=lo, hi=hi, tau=tau, got=got, want=want[:5])
                )
        else:
            got = bundle.majority.query_mode(lo, hi)
            want = oracle_mode(data, lo, hi)
            if got != want:
                report.mismatches.append(dict(kind="mode", lo=lo, hi=hi, got=got, want=want))
    report.elapsed_s = time.perf_counter() - t0
    return report
