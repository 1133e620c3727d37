"""Distinct-element listing over the previous-occurrence array."""

import math
import random

import numpy as np
import pytest

from rfq import IndexConfig, oracle, threshold_count
from rfq.corpus import zipf_string
from rfq.errors import RangeError
from rfq.indexfile import IndexBundle
from rfq.listing import ListingIndex, block_minima, prev_occurrence_array
from rfq.sequence import WaveletSequence
from rfq.serial import ByteReader, ByteWriter


def test_prev_occurrence_array_frozen(canon):
    got = prev_occurrence_array(np.asarray(canon))
    assert got.tolist() == [0, 0, 0, 1, 0, 4, 0, 6, 2, 3, 8]


def test_block_minima_frozen():
    c = np.asarray([0, 0, 0, 1, 0, 4, 0, 6, 2, 3, 8])
    assert block_minima(c, 4).tolist() == [0, 0, 2]
    assert block_minima(c, 1).tolist() == c.tolist()
    assert block_minima(c, 3).tolist() == [0, 0, 0, 3]
    assert block_minima(c, 100).tolist() == [0]
    assert block_minima(c, 2**32 - 1).tolist() == [0]  # memory stays O(len(c))
    assert block_minima(c[:0], 4).size == 0


def test_query_frozen(canon, canon_seq):
    lister = ListingIndex.for_sequence(canon_seq, 1)
    got = lister.query_leftmost(4, 8)
    assert sorted(got) == [4, 5, 7]
    # each position is the leftmost occurrence of a distinct symbol
    assert {(canon[k - 1], k) for k in got} == \
        oracle.oracle_distinct_with_leftmost(canon, 4, 8)


def test_limit_stops_early(canon_seq):
    lister = ListingIndex.for_sequence(canon_seq, 1)
    got = lister.query_leftmost(1, 11, limit=2)
    assert len(got) == 2
    assert lister.query_leftmost(1, 11, limit=0) == []


def test_range_validation(canon_seq):
    lister = ListingIndex.for_sequence(canon_seq, 1)
    with pytest.raises(RangeError):
        lister.query_leftmost(0, 5)
    with pytest.raises(RangeError):
        lister.query_leftmost(1, 12)
    assert lister.query_leftmost(5, 4) == []


@pytest.mark.parametrize("block", [1, 2, 8, 64])
def test_sparsified_equivalence(block):
    rng = random.Random(block)
    for _ in range(25):
        n = rng.randint(1, 300)
        sigma = min(n, rng.choice([2, 5, 30]))
        data = [rng.randint(1, sigma) for _ in range(n)]
        for a, k in zip(range(1, sigma + 1), rng.sample(range(n), sigma)):
            data[k] = a
        seq = WaveletSequence.build(np.asarray(data))
        lister = ListingIndex.for_sequence(seq, block)
        for _ in range(20):
            lo = rng.randint(1, n)
            hi = rng.randint(lo, n)
            got = lister.query_leftmost(lo, hi)
            want = oracle.oracle_distinct_with_leftmost(data, lo, hi)
            assert {(data[k - 1], k) for k in got} == want
            reported = lister.last_stats["reported"]
            assert reported == len(want)
            assert lister.last_stats["probes"] <= block * (2 * reported + 2)


def test_probe_accounting_routes_through_sequence(canon_seq):
    sparse = ListingIndex.for_sequence(canon_seq, 4)
    snap = canon_seq.tally.snapshot()
    sparse.query_leftmost(4, 8)
    assert canon_seq.tally.since(snap).sequence_ops > 0

    full = ListingIndex.for_sequence(canon_seq, 1)
    full.query_leftmost(4, 8)
    snap = canon_seq.tally.snapshot()
    full.query_leftmost(4, 8)
    # stored array answers the probes; the sequence is never consulted
    assert canon_seq.tally.since(snap).sequence_ops == 0


def test_build_from_values_matches_for_sequence(canon, canon_seq):
    c = prev_occurrence_array(np.asarray(canon))
    direct = ListingIndex.build_from_values(c, 2)
    attached = ListingIndex.for_sequence(canon_seq, 2)
    for lo in range(1, 12):
        for hi in range(lo, 12):
            assert sorted(direct.query_leftmost(lo, hi)) == \
                sorted(attached.query_leftmost(lo, hi))


@pytest.mark.parametrize("block", [1, 8])
def test_serialization_round_trip(block, canon_seq):
    lister = ListingIndex.for_sequence(canon_seq, block)
    w = ByteWriter()
    lister.write_to(w)
    blob = w.getvalue()
    back = ListingIndex.read_from(ByteReader(blob), canon_seq)
    w2 = ByteWriter()
    back.write_to(w2)
    assert w2.getvalue() == blob
    for lo, hi in [(1, 11), (4, 8), (2, 2)]:
        assert sorted(back.query_leftmost(lo, hi)) == \
            sorted(lister.query_leftmost(lo, hi))
    if block == 1:  # C, derived on first use, is both the summaries and the probed values
        assert back.cprime is back._values
        assert back.cprime.tolist() == lister.cprime.tolist()


@pytest.mark.parametrize("block", [1, 2, 8, 64])
def test_lazy_listing_matches_eager(block):
    """iter_leftmost yields query_leftmost's list in its order, every prefix
    within the probe bound, and a cut of it at any limit."""
    rng = random.Random(100 + block)
    for _ in range(10):
        n = rng.randint(1, 400)
        data = zipf_string(n, rng.choice([3, 20, 100]), seed=rng.randrange(1000))
        lister = ListingIndex.for_sequence(WaveletSequence.build(data), block)
        for _ in range(20):
            lo = rng.randint(1, n)
            hi = rng.randint(lo, n)
            eager = lister.query_leftmost(lo, hi)
            stats = {}
            lazy = []
            for k in lister.iter_leftmost(lo, hi, stats):
                lazy.append(k)
                assert stats["probes"] <= block * (2 * len(lazy) + 2)
            assert lazy == eager
            assert stats["probes"] == lister.last_stats["probes"]
            limit = rng.randint(0, len(eager) + 1)
            assert lister.query_leftmost(lo, hi, limit) == eager[:limit]
            assert lister.last_stats["reported"] == min(limit, len(eager))


def test_range_checked_before_the_walk(canon_seq):
    lister = ListingIndex.for_sequence(canon_seq, 1)
    with pytest.raises(RangeError):
        lister.iter_leftmost(0, 5)


def test_minority_stops_at_first_certified_position():
    """At trade 1 the witness and the candidate count are those of the first
    position of the eager list whose symbol is a minority of the range."""
    data = zipf_string(3000, 40, skew=1.1, seed=4)
    bundle = IndexBundle.from_values(data, IndexConfig(trade=1))
    seq, lister, mino = bundle.seq, bundle.minority.listing, bundle.minority
    rng = random.Random(12)
    listed = 0
    for _ in range(300):
        lo = rng.randint(1, seq.n)
        hi = rng.randint(lo, seq.n)
        tau = rng.choice([1.0, 0.5, 0.2, 0.05, 1 / 64])
        thr = threshold_count(tau, hi - lo + 1)
        got = mino.query_minority(lo, hi, tau)
        diag = mino.diagnostics
        if diag.path != "listing":
            continue
        listed += 1
        eager = lister.query_leftmost(lo, hi, min(math.ceil(1 / tau), seq.sigma))
        want, candidates = None, len(eager)
        for i, k in enumerate(eager):
            a = seq.access(k)
            occ = seq.rank(a, hi) - seq.rank(a, lo - 1)
            if occ <= thr:
                want, candidates = (a, occ), i + 1
                break
        assert got == want
        assert diag.candidates == candidates
        assert diag.probes <= lister.last_stats["probes"]
    assert listed > 200
