"""Distinct-symbol listing, now one whole-histogram walk.

The listing engine (`ListingIndex`, over the previous-occurrence array
and a range-minimum index on its block minima) retired with format
version 7.  A range's distinct symbols are listed by the whole-histogram
split walk (`range_counts(seq, lo, hi, 0)` here), which a majority query
runs when floor(tau * length) is 0, and minority queries stop at
their first witness inside their own walk.  Each test here keeps the
name it had and checks the guarantee it pinned on the structure that
carries it now.
"""

import random

import numpy as np
import pytest

from conftest import codes, range_counts, range_minority
from rfq import IndexConfig, oracle, threshold_count
from rfq.corpus import zipf_string
from rfq.errors import RangeError
from rfq.indexfile import IndexBundle
from rfq.majority import _majorities
from rfq.minority import _minority
from rfq.sequence import WaveletSequence
from rfq.serial import ByteReader


def distinct(seq, lo, hi):
    return set(range_counts(seq, lo, hi, 0))


def listing_ranks(seq, lo, hi):
    """rank1 calls of the whole-histogram walk over [lo, hi]."""
    return seq._split_walk(lo - 1, hi, 0)[1]


def test_query_frozen(canon, canon_seq):
    assert range_counts(canon_seq, 4, 8, 0) == {1: 3, 4: 1, 5: 1}
    assert distinct(canon_seq, 4, 8) == \
        {a for a, _ in oracle.oracle_distinct_with_leftmost(canon, 4, 8)}


def test_limit_stops_early(canon_seq):
    # a caller that needs one light symbol stops at it instead of listing all
    listing = listing_ranks(canon_seq, 1, 11)
    found, ranks = canon_seq._minority_walk(0, 11, 2)
    assert found in {(2, 2), (3, 2), (4, 1), (5, 1)}
    assert found == range_minority(canon_seq, 1, 11, 2)
    assert ranks < listing
    assert range_minority(canon_seq, 1, 11, 0) is None


def test_range_validation(canon_seq):
    # the query helpers check the range once, before their walk
    for query in (_majorities, _minority):
        with pytest.raises(RangeError):
            query(canon_seq, 0, 5, 0.5)
        with pytest.raises(RangeError):
            query(canon_seq, 1, 12, 0.5)
        with pytest.raises(RangeError):
            query(canon_seq, 5, 4, 0.5)


@pytest.mark.parametrize("block", [1, 2, 8, 64])
def test_sparsified_equivalence(block):
    """Indexes built at trade g = block list every range's distinct symbols
    like the oracle, with two rank1 calls per internal trie node at most."""
    rng = random.Random(block)
    for _ in range(25):
        n = rng.randint(1, 300)
        sigma = min(n, rng.choice([2, 5, 30]))
        data = [rng.randint(1, sigma) for _ in range(n)]
        for a, k in zip(range(1, sigma + 1), rng.sample(range(n), sigma)):
            data[k] = a
        seq = IndexBundle.from_values(np.asarray(data), IndexConfig(trade=block)).seq
        for _ in range(20):
            lo = rng.randint(1, n)
            hi = rng.randint(lo, n)
            got = distinct(seq, lo, hi)
            want = oracle.oracle_distinct_with_leftmost(data, lo, hi)
            assert got == {a for a, _ in want}
            assert listing_ranks(seq, lo, hi) <= 2 * (sigma - 1)


def test_probe_accounting_routes_through_sequence(canon_seq):
    # every walk returns the rank1 calls it made on the sequence it walks
    assert listing_ranks(canon_seq, 4, 8) > 0
    assert range_counts(canon_seq, 4, 8, 5) == {}
    assert canon_seq._split_walk(3, 8, 5) == ({}, 0)  # thr >= length: no walk at all


def test_build_from_values_matches_for_sequence(canon, canon_seq):
    # a sequence read back from its bytes lists every range like the built one
    back = WaveletSequence.read_from(ByteReader(canon_seq.to_bytes()))
    for lo in range(1, 12):
        for hi in range(lo, 12):
            assert range_counts(back, lo, hi, 0) == range_counts(canon_seq, lo, hi, 0)
            assert range_counts(back, lo, hi, 0) == oracle.oracle_counts(canon, lo, hi)


@pytest.mark.parametrize("block", [1, 8])
def test_serialization_round_trip(block, canon):
    bundle = IndexBundle.from_values(canon, IndexConfig(trade=block))
    blob = bundle.to_bytes()
    back = IndexBundle.from_bytes(blob)
    assert back.to_bytes() == blob
    for lo, hi in [(1, 11), (4, 8), (2, 2)]:
        assert range_counts(back.seq, lo, hi, 0) == range_counts(bundle.seq, lo, hi, 0)


@pytest.mark.parametrize("block", [1, 2, 8, 64])
def test_lazy_listing_matches_eager(block):
    """At tau = 1/block the minority walk's witness is a symbol the full
    listing reports, with the same count, and the walk costs at most the
    listing's rank1 calls plus a descent of two a level."""
    rng = random.Random(100 + block)
    for _ in range(10):
        n = rng.randint(1, 400)
        seq = WaveletSequence.build(zipf_string(n, rng.choice([3, 20, 100]), seed=rng.randrange(1000)))
        for _ in range(20):
            lo = rng.randint(1, n)
            hi = rng.randint(lo, n)
            thr = threshold_count(1 / block, hi - lo + 1)
            eager, listing = seq._split_walk(lo - 1, hi, 0)
            lazy, ranks = seq._minority_walk(lo - 1, hi, thr)
            assert lazy == range_minority(seq, lo, hi, thr)
            assert ranks <= listing + 2 * seq.depth
            light = {a: c for a, c in eager.items() if c <= thr}
            if lazy is None:
                assert not light
            else:
                assert light[lazy[0]] == lazy[1]


def test_range_checked_before_the_walk(canon_seq, monkeypatch):
    ranks = []
    walk = WaveletSequence._minority_walk

    def counted(seq, cl, cr, thr):
        found, more = walk(seq, cl, cr, thr)
        ranks.append(more)
        return found, more

    monkeypatch.setattr(WaveletSequence, "_minority_walk", counted)
    with pytest.raises(RangeError):
        _minority(canon_seq, 0, 5, 0.5)
    assert sum(ranks) == 0
    assert _minority(canon_seq, 1, 5, 0.5)[0] is not None and sum(ranks) > 0


def test_minority_stops_at_first_certified_position():
    """A minority query expands only heavy trie nodes, those holding more
    than thr of the range's positions over symbols occurring more than thr
    times in all, and then descends to its witness: at most two rank1
    calls per heavy internal node plus two a level."""
    data = zipf_string(3000, 40, skew=1.1, seed=4)
    bundle = IndexBundle.from_values(data, IndexConfig(trade=1))
    seq = bundle.seq
    prefixes = {}
    for a, code in enumerate(codes(seq), 1):
        for d in range(len(code)):
            prefixes.setdefault(code[:d], []).append(a)
    nodes = [(np.asarray(syms), int(seq.counts[np.asarray(syms) - 1].max()))
             for syms in prefixes.values()]
    rng = random.Random(12)
    walked = 0
    for _ in range(300):
        lo = rng.randint(1, seq.n)
        hi = rng.randint(lo, seq.n)
        tau = rng.choice([1.0, 0.5, 0.2, 0.05, 1 / 64])
        thr = threshold_count(tau, hi - lo + 1)
        got, trace = bundle.explain("minority", lo, hi, tau)
        counts = np.bincount(data[lo - 1:hi], minlength=seq.sigma + 1)
        if got is None:
            assert not ((counts >= 1) & (counts <= thr)).any()
        else:
            assert 1 <= counts[got[0]] == got[1] <= thr
        if trace.path != "walk":
            continue
        walked += 1
        heavy = sum(int(counts[syms].sum()) > thr and top > thr for syms, top in nodes)
        assert trace.ranks <= 2 * heavy + 2 * seq.depth
        assert trace.candidates == (got is not None)
    assert walked > 200
