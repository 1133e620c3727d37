"""Randomized cross-checks of a built index against the brute-force oracle.

The verifier replays random queries (majority, minority, mode) through
the index's own dispatch and compares against recomputation from the raw
sequence.  The tau pool deliberately
includes exact fraction boundaries k/len, where a symbol's count can land
exactly on tau times the range length, and dyadic taus that hit family
tiers dead on.

Fault injection clears one set bit from a candidate family and then hunts
for a query whose answer changes, demonstrating that verification actually
exercises the flagged structures rather than some fallback path.  A
cleared bit can be masked by neighbouring flags of the same symbol, so the
hunt tries several bits before giving up.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .bits import SparseBitVector
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


def _without_bit(flags: SparseBitVector, victim: int) -> SparseBitVector:
    kept = [flags.select1(r) for r in range(1, flags.ones + 1)]
    kept.remove(victim)
    return SparseBitVector.from_ones(kept, flags.n_bits)


def inject_fault(bundle: IndexBundle, seed: int = 0, samples: int = 4000):
    """Clear one candidate-family bit; return a witness query that exposes it.

    A family of scale b flags a symbol at its first and last occurrence in
    each aligned block of 2**b positions, and a range of that scale equals
    one block or crosses a block boundary, so every block where a majority
    occurs in range contributes at least one in-range flag.  A removable
    single point of failure exists only when the majority's flags collapse
    to one position: its in-range occurrences confined to one block whose
    other extreme occurrence sits outside the range.  The hunt samples
    ranges at each family's own tier and scale until it finds such a
    single-flag majority; removing that flag then provably changes the
    answer.  Returns the witness description, or None when the corpus
    offers no such configuration (the fault would be masked everywhere).
    On success the bundle is left with the fault applied.
    """
    rng = random.Random(seed)
    maj = bundle.majority
    data = bundle.seq.to_array().tolist()
    n = len(data)
    populated = [key for key in maj.family_keys() if maj.candidate_flags[key].ones > 0]
    if not populated:
        return None
    for _ in range(samples):
        t, b = populated[rng.randrange(len(populated))]
        tau = 2.0 ** -t
        length = rng.randint(1 << b, min((1 << (b + 1)) - 1, n))
        lo = rng.randint(1, n - length + 1)
        hi = lo + length - 1
        want = oracle_majorities(data, lo, hi, tau)
        if not want:
            continue
        flags = maj.candidate_flags[(t, b)]
        in_range = flags.ones_in_range(lo, hi)
        for a, _occ in want:
            pos_a = [p for p in in_range if data[p - 1] == a]
            if len(pos_a) != 1:
                continue
            victim = pos_a[0]
            maj.candidate_flags[(t, b)] = _without_bit(flags, victim)
            got = maj.query_majorities(lo, hi, tau)
            if got != want:
                return dict(
                    family=(t, b), removed_bit=victim, kind="majority",
                    lo=lo, hi=hi, tau=tau, got=got, want=want,
                )
            maj.candidate_flags[(t, b)] = flags  # somehow masked; restore
    return None
