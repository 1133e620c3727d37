"""Acceptance gate: one test per advertised guarantee.

Run `pytest tests/test_acceptance.py -v` to get a pass/fail line per
guarantee; add -s to see the measured numbers (runtime, slope, space
ratios).  The randomized corpus is frozen by seed, so every run checks the
same cases.
"""

import math
import random
import time
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest

from rfq import IndexConfig, oracle
from rfq.corpus import uniform_string, zipf_string
from rfq.indexfile import IndexBundle

Entry = namedtuple("Entry", "data ref sigma_drawn sigma_eff trade bundle")

# every query run by the oracle-equivalence tests lands here so the work
# bound test can audit the whole population
RECORDS = []


def record(trace, sigma_eff):
    RECORDS.append((trace.tau, sigma_eff, trace.candidates, trace.ranks))


def candidate_cap(tau, sigma_eff):
    cap = 64 * math.ceil(1.0 / tau)
    if tau < 1.0 / sigma_eff:
        cap += sigma_eff
    return cap


def ops_cap(tau):
    # trade is inert, so the g**2 factor the cap once carried is gone
    return 64 * math.ceil(1.0 / tau)


def tau_pool(sigma_drawn):
    return (1.0, 0.9, 0.5, 0.2, 0.05, 1.0 / sigma_drawn, 0.5 / sigma_drawn)


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(20250815)
    entries = []
    for i in range(300):
        n = rng.randint(1, 2048)
        sigma = rng.choice([2, 4, 16, 256, 1024])
        seed = rng.randrange(2**31)
        if i % 2:
            data = zipf_string(n, sigma, skew=1.1, seed=seed)
        else:
            data = uniform_string(n, sigma, seed=seed)
        trade = 1 if i % 3 else 8
        bundle = IndexBundle.from_values(
            data, IndexConfig(trade=trade))
        entries.append(Entry(data, data.tolist(), sigma, int(data.max()),
                             trade, bundle))
    return entries


def ranges_for(rng, n, count):
    for _ in range(count):
        lo = rng.randint(1, n)
        yield lo, rng.randint(lo, n)


def test_majorities_match_oracle_everywhere(corpus):
    """Exact set-and-count agreement with brute force."""
    rng = random.Random(1)
    cases = 0
    t0 = time.perf_counter()
    for ent in corpus:
        n = len(ent.ref)
        for lo, hi in ranges_for(rng, n, 8):
            for tau in tau_pool(ent.sigma_drawn):
                want = oracle.oracle_majorities(ent.ref, lo, hi, tau)
                got, d = ent.bundle.explain("majority", lo, hi, tau)
                assert got == want, (n, lo, hi, tau, got, want)
                assert d.candidates <= candidate_cap(tau, ent.sigma_eff)
                assert d.ranks <= ops_cap(tau)
                record(d, ent.sigma_eff)
                cases += 1
    elapsed = time.perf_counter() - t0
    print(f"\nmajority equivalence: {cases} cases, 0 mismatches, {elapsed:.1f}s")
    assert cases >= 15_000
    assert elapsed < 60.0


def test_minorities_valid_and_presence_agrees(corpus):
    """Returned minorities check out against brute force; None only when none exist."""
    rng = random.Random(2)
    cases = 0
    paths = {}
    for ent in corpus:
        n = len(ent.ref)
        for lo, hi in ranges_for(rng, n, 8):
            for tau in tau_pool(ent.sigma_drawn):
                want = oracle.oracle_minorities(ent.ref, lo, hi, tau)
                got, d = ent.bundle.explain("minority", lo, hi, tau)
                if want:
                    assert got in want, (n, lo, hi, tau, got)
                else:
                    assert got is None, (n, lo, hi, tau, got)
                assert d.ranks <= ops_cap(tau)
                record(d, ent.sigma_eff)
                paths[d.path] = paths.get(d.path, 0) + 1
                cases += 1
    print(f"\nminority agreement: {cases} cases, 0 misses, paths {sorted(paths.items())}")
    assert cases >= 15_000
    assert set(paths) == {"empty", "walk"} and paths["walk"] > cases // 2


def test_work_scales_with_inverse_tau(corpus):
    """Per-query caps over the whole recorded population, plus the scaling law.

    Candidates stay within 64/tau (plus sigma when tau undercuts 1/sigma)
    and sequence operations, the walk's rank1 calls, within 64/tau.  On a
    million-symbol Zipf corpus the mean operation count grows as
    (1/tau)^slope with slope within 0.15 of linear.
    """
    assert RECORDS, "oracle equivalence tests populate the query log"
    for tau, sigma_eff, cands, ops in RECORDS:
        assert cands <= candidate_cap(tau, sigma_eff)
        assert ops <= ops_cap(tau)
    print(f"\nwork bounds: {len(RECORDS)} recorded queries within caps")

    data = zipf_string(10**6, 256, skew=1.1, seed=7)
    bundle = IndexBundle.from_values(data, IndexConfig(trade=8))
    assert bundle.seq.sigma == int(data.max())  # dense symbols are the data's own
    rng = np.random.default_rng(123)
    lens = (2 ** rng.uniform(15.0, 19.0, size=60)).astype(np.int64)
    starts = rng.integers(1, 10**6 - lens + 1)
    xs, ys = [], []
    for s in range(1, 9):
        tau = 2.0 ** -s
        total = 0
        for lo, ln in zip(starts, lens):
            total += bundle.explain("majority", int(lo), int(lo + ln - 1), tau)[1].ranks
        xs.append(math.log(2.0 ** s))
        ys.append(math.log(max(total / len(lens), 1e-9)))
    slope = float(np.polyfit(xs, ys, 1)[0])
    print(f"ops-vs-1/tau slope: {slope:.4f}")
    assert 0.85 <= slope <= 1.15


def test_mode_matches_oracle_within_walk_bound(corpus):
    """Mode equals brute force, and its one best-first walk makes at most
    2 * depth * floor(len / occ) rank1 calls."""
    rng = random.Random(3)
    cases = 0
    for ent in corpus:
        n = len(ent.ref)
        for lo, hi in ranges_for(rng, n, 12):
            got, trace = ent.bundle.explain("mode", lo, hi)
            want = oracle.oracle_mode(ent.ref, lo, hi)
            assert got == want, (n, lo, hi, got, want)
            cap = 2 * ent.bundle.seq.depth * ((hi - lo + 1) // got[1])
            ranks = trace.ranks
            assert ranks <= cap, (n, lo, hi, ranks, cap)
            cases += 1
    print(f"\nmode: {cases} queries exact, walk bound held")


def test_full_and_sparsified_listing_agree():
    """A majority query whose threshold floor(tau * len) is 0 returns the
    whole histogram: exactly the range's distinct symbols with their exact
    counts, in bundles built plain and with the inert compressed option
    (byte-identical files), within two rank1 calls per internal trie
    node."""
    rng = random.Random(5)
    checked = 0
    for _ in range(100):
        n = rng.randint(1, 1500)
        sigma = min(n, rng.choice([2, 5, 16, 64]))
        data = [rng.randint(1, sigma) for _ in range(n)]
        for a, k in zip(range(1, sigma + 1), rng.sample(range(n), sigma)):
            data[k] = a
        bundles = [IndexBundle.from_values(np.asarray(data), IndexConfig(compressed=c))
                   for c in (False, True)]
        assert bundles[0].to_bytes() == bundles[1].to_bytes()
        for lo, hi in ranges_for(rng, n, 12):
            want = oracle.oracle_distinct_with_leftmost(data, lo, hi)
            counts = oracle.oracle_counts(data, lo, hi)
            tau = 1 / (hi - lo + 2)  # floor(tau * len) = 0
            for bundle in bundles:
                got, trace = bundle.explain("majority", lo, hi, tau)
                assert got == bundle.query_majorities(lo, hi, tau)
                assert {a for a, _ in got} == {a for a, _ in want}
                assert dict(got) == counts
                assert trace.ranks <= 2 * (sigma - 1)
            checked += 1
    print(f"\ndistinct listing: {checked} ranges exact, plain and compressed options")


def test_space_stays_within_envelopes():
    """Serialized size within the compressed budget, 3.0 n H0 + 2^20 bits,
    and the plain one, 1.5 n ceil(lg sigma) + 2^20 bits, on a skewed
    million-symbol corpus: every config builds the one index, so one
    index meets both."""
    data = zipf_string(10**6, 256, skew=1.3, seed=42)
    n = 10**6
    rep = IndexBundle.from_values(data).size_report()
    total = rep["total_bits"]
    ratios = {}
    for name, cap in (("compressed", 3.0 * n * rep["entropy_h0"] + 2**20),
                      ("plain", 1.5 * n * math.ceil(math.log2(rep["sigma"])) + 2**20)):
        ratios[name] = total / cap
        assert total <= cap, (name, total, cap)
    print(f"\nspace: plain {ratios['plain']:.3f} of budget, "
          f"compressed {ratios['compressed']:.3f} of budget")


def test_serialization_round_trips_and_answers_stably():
    """50 corpora: byte-exact reload, 100 queries answered identically."""
    rng = random.Random(6)
    for i in range(50):
        n = rng.randint(50, 1200)
        sigma = min(n, rng.choice([2, 8, 64, 500]))
        data = zipf_string(n, sigma, skew=1.15, seed=i) if i % 2 \
            else uniform_string(n, sigma, seed=i)
        cfg = IndexConfig(trade=rng.choice([1, 8]),
                          compressed=bool(i % 4 == 0))
        bundle = IndexBundle.from_values(data, cfg)
        blob = bundle.to_bytes()
        back = IndexBundle.from_bytes(blob)
        assert back.to_bytes() == blob
        for q in range(100):
            lo = rng.randint(1, n)
            hi = rng.randint(lo, n)
            tau = rng.choice([1.0, 0.5, 0.21, 0.06])
            if q % 3 == 0:
                assert back.query_majorities(lo, hi, tau) == \
                    bundle.query_majorities(lo, hi, tau)
            elif q % 3 == 1:
                assert back.query_minority(lo, hi, tau) == \
                    bundle.query_minority(lo, hi, tau)
            else:
                assert back.query_mode(lo, hi) == bundle.query_mode(lo, hi)
    print("\nserialization: 50 round trips byte-exact, 5000 stable answers")


def test_exact_boundary_counts_are_never_majorities():
    """Constructed occ == tau * len boundaries: excluded from majorities,
    always a legitimate minority."""
    rng = random.Random(8)
    for case in range(1000):
        k = rng.randint(2, 10)
        length = 1 << k  # power of two keeps tau * len exact in binary
        occ = rng.randint(1, length - 1)
        tau = occ / length
        assert tau * length == occ  # the boundary is exact, not approximate
        inside = [2] * length
        for p in rng.sample(range(length), occ):
            inside[p] = 1
        pad = rng.randint(0, 64)
        data = [3] * pad + inside + [3] * max(0, 3 - pad)
        lo, hi = pad + 1, pad + length
        bundle = IndexBundle.from_values(
            np.asarray(data),
            IndexConfig(trade=1 if case % 2 else 2))
        got, d = bundle.explain("majority", lo, hi, tau)
        assert all(sym != 1 for sym, _ in got), (case, got)
        assert got == oracle.oracle_majorities(data, lo, hi, tau)
        assert d.candidates <= candidate_cap(tau, int(max(data)))
        assert d.ranks <= ops_cap(tau)
        minors = oracle.oracle_minorities(data, lo, hi, tau)
        assert (1, occ) in minors
        hit = bundle.query_minority(lo, hi, tau)
        assert hit in minors, (case, hit)
    print("\nboundaries: 1000 exact occ == tau*len cases excluded and minoritized")


def test_resident_memory_tracks_serialized_size():
    """A loaded trade-1 bundle, after its first query of each kind, holds at
    most 4 times its serialized size (n = 50k, Zipf over 256 symbols)."""
    data = zipf_string(50_000, 256, skew=1.1, seed=10)
    blob = IndexBundle.from_values(data, IndexConfig(trade=1)).to_bytes()
    n = data.size
    tracemalloc.start()
    try:
        bundle = IndexBundle.from_bytes(blob)
        bundle.query_majorities(1, n, 1 / 64)
        bundle.query_minority(1, n, 1 / 64)
        bundle.query_mode(1, n)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    ratio = held / len(blob)
    assert ratio <= 4, ratio
    print(f"\nresident: {held} bytes held, {len(blob)} serialized, {ratio:.1f}x")
