"""Query-time-fraction range majority index against the oracle."""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rfq import IndexConfig, oracle, threshold_count
from rfq.corpus import uniform_string, zipf_string
from rfq.errors import DomainError, RangeError
from rfq.indexfile import IndexBundle

CANON = [1, 2, 3, 1, 4, 1, 5, 1, 2, 3, 1]


def majority_index(data, cfg):
    """The majority side of a bundle over data holding every symbol 1..max,
    where the bundle's dense symbols are the data's own."""
    assert np.array_equal(np.unique(data), np.arange(1, max(data) + 1))
    return IndexBundle.from_values(data, cfg).majority


@pytest.fixture(scope="module")
def canon_idx():
    return majority_index(CANON, IndexConfig(trade=1))


def ops_cap(tau: float, trade: int) -> int:
    return 64 * math.ceil(1.0 / tau) * trade * trade


def walk_cap(tau: float, depth: int) -> int:
    """rank1 calls of one pruned walk: two per kept internal node, fewer
    than ceil(1/tau) kept a level."""
    return 2 * depth * (math.ceil(1 / tau) - 1)


# -- frozen queries --------------------------------------------------------------


def test_frozen_queries(canon_idx):
    assert canon_idx.query_majorities(4, 8, 0.5) == [(1, 3)]
    assert canon_idx.query_majorities(1, 11, 0.5) == []
    assert canon_idx.query_majorities(1, 11, 0.2) == [(1, 5)]
    assert canon_idx.query_majorities(1, 11, 1.0) == []
    assert canon_idx.query_majorities(6, 6, 0.9) == [(1, 1)]
    assert canon_idx.query_majorities(1, 11, 0.05) == [
        (1, 5), (2, 2), (3, 2), (4, 1), (5, 1)]


def test_every_canon_range_matches_oracle(canon_idx):
    for lo in range(1, 12):
        for hi in range(lo, 12):
            for tau in (1.0, 0.6, 0.5, 0.3, 0.09):
                got = canon_idx.query_majorities(lo, hi, tau)
                assert got == oracle.oracle_majorities(CANON, lo, hi, tau)


def test_threshold_matches_oracle_expression():
    for tau, ln in [(0.5, 4), (0.25, 8), (1.0, 7), (1 / 3, 9), (0.05, 11)]:
        assert threshold_count(tau, ln) == oracle.majority_threshold(tau, ln)


@given(st.floats(1e-6, 1.0, allow_nan=False), st.integers(1, 10**6))
def test_threshold_expression_property(tau, ln):
    assert threshold_count(tau, ln) == oracle.majority_threshold(tau, ln)


# -- validation --------------------------------------------------------------------


def test_validation(canon_idx):
    with pytest.raises(RangeError):
        canon_idx.query_majorities(0, 5, 0.5)
    with pytest.raises(RangeError):
        canon_idx.query_majorities(1, 12, 0.5)
    with pytest.raises(RangeError):
        canon_idx.query_majorities(7, 6, 0.5)
    with pytest.raises(DomainError):
        canon_idx.query_majorities(1, 5, 0.0)
    with pytest.raises(DomainError):
        canon_idx.query_majorities(1, 5, 1.001)


def test_one_range_check_for_every_kind():
    """Majority, minority and mode read both ends with operator.index: a
    float end is a RangeError, NumPy integer ends give plain int answers
    that json can write, and tau is read once as a float, so a NumPy
    float tau is accepted."""
    bundle = IndexBundle.from_values(np.asarray(CANON))
    kinds = {
        "majority": lambda lo, hi, tau: bundle.query_majorities(lo, hi, tau),
        "minority": lambda lo, hi, tau: bundle.query_minority(lo, hi, tau),
        "mode": lambda lo, hi, tau: bundle.query_mode(lo, hi),
    }
    for kind, query in kinds.items():
        for lo, hi in ((1.0, 4), (1, 4.0), ("1", 4), (None, 4)):
            with pytest.raises(RangeError):
                query(lo, hi, 0.5)
        got = query(np.int64(1), np.int32(6), np.float32(0.4))
        assert got == query(1, 6, 0.4), kind
        flat = [got] if kind != "majority" else got
        assert flat and all(type(v) is int for pair in flat for v in pair), (kind, got)
        json.dumps(got)
    assert bundle.query_majorities(np.int64(1), np.int64(6), 0.4) == [(1, 3)]
    with pytest.raises(DomainError):
        bundle.query_majorities(1, 4, "0.5")
    with pytest.raises(DomainError):
        bundle.query_minority(1, 4, np.float64("nan"))


# -- dispatch paths ----------------------------------------------------------------


def test_paths_small_index(canon_idx):
    canon_idx.query_majorities(4, 8, 1.0)
    assert canon_idx.diagnostics.path == "empty"
    canon_idx.query_majorities(1, 11, 0.05)
    assert canon_idx.diagnostics.path == "walk"
    canon_idx.query_majorities(1, 11, 0.5)
    assert canon_idx.diagnostics.path == "walk"


def test_flagged_and_segmented_paths():
    """Ranges that took the flagged path (trade 1, covered scale) and the
    segmented scan (trade 4, short input) now take the walk."""
    data = uniform_string(256, 4, seed=3)
    flagged = majority_index(data, IndexConfig(trade=1))
    assert flagged.query_majorities(65, 128, 0.5) == \
        oracle.oracle_majorities(data.tolist(), 65, 128, 0.5)
    assert flagged.diagnostics.path == "walk"

    small = uniform_string(40, 4, seed=3)
    seg = majority_index(small, IndexConfig(trade=4))
    seg.query_majorities(1, 40, 0.5)
    assert seg.diagnostics.path == "walk"
    ref = small.tolist()
    for lo, hi, tau in [(1, 40, 0.5), (3, 30, 0.25), (10, 17, 0.13)]:
        assert seg.query_majorities(lo, hi, tau) == \
            oracle.oracle_majorities(ref, lo, hi, tau)


def test_flagged_path_with_no_set_bits_in_range():
    # all symbols distinct in the probed window: every node is pruned at the top
    data = np.asarray(([1, 2, 3, 4, 5, 6, 7, 8] * 40)[:320])
    idx = majority_index(data, IndexConfig(trade=1))
    got = idx.query_majorities(9, 24, 0.5)
    assert got == oracle.oracle_majorities(data.tolist(), 9, 24, 0.5) == []


# -- randomized equivalence ----------------------------------------------------------


@pytest.mark.parametrize("cfg, seed", [
    (IndexConfig(trade=1), 668981),
    (IndexConfig(trade=8), 233144),
    (IndexConfig(trade=2, compressed=True), 398481),
    (IndexConfig(trade=1), 145889),
], ids=["cfg0", "cfg1", "cfg2", "cfg3"])
def test_random_vs_oracle(cfg, seed):
    rng = random.Random(seed)
    for trial in range(6):
        n = rng.choice([3, 17, 63, 64, 150, 700])
        sigma = min(n, rng.choice([2, 5, 16, 100]))
        if rng.random() < 0.5:
            data = zipf_string(n, sigma, skew=1.1, seed=rng.randrange(10**6))
        else:
            data = uniform_string(n, sigma, seed=rng.randrange(10**6))
        sigma_eff = int(data.max())
        bundle = IndexBundle.from_values(data, cfg)
        ref = data.tolist()
        for _ in range(25):
            lo = rng.randint(1, n)
            hi = rng.randint(lo, n)
            tau = rng.choice([1.0, 0.9, 0.5, 0.2, 0.05,
                              1.0 / sigma_eff, 0.5 / sigma_eff])
            got = bundle.query_majorities(lo, hi, tau)
            assert got == oracle.oracle_majorities(ref, lo, hi, tau)
            d = bundle.majority.diagnostics
            cap = 64 * math.ceil(1.0 / tau)
            if tau < 1.0 / sigma_eff:
                cap += sigma_eff
            assert d.candidates <= cap
            assert d.ops.sequence_ops <= ops_cap(tau, cfg.trade)


def test_exact_boundary_exclusion():
    # count == tau * len exactly: strictly-more-than keeps the element out
    data = np.asarray([1, 2, 1, 3])
    idx = majority_index(data, IndexConfig())
    assert idx.query_majorities(1, 4, 0.5) == []
    # one epsilon below the boundary flips it
    assert idx.query_majorities(1, 4, 0.49) == [(1, 2)]


# -- the walk ------------------------------------------------------------------------


def far_leftmost_ranges(n):
    """Ranges starting two or four places into an aligned block of half
    their scale's length, inside a block of 2**scale that opens with
    symbol 1 before the range does.  These once put a majority's first
    flag far past its leftmost occurrence in the range."""
    for scale in (12, 13):
        blen = 1 << (scale - 1)
        for start in (blen, 2 * blen):
            for off in (2, 4):
                for length in (1 << scale, (1 << scale) + blen + 3):
                    lo = start + off
                    yield scale, lo, min(lo + length - 1, n)


@pytest.mark.parametrize("trade", [1, 4, 16])
def test_leftmost_far_before_first_flag(trade):
    """A majority whose first in-range occurrence lies more than 1,024 of its
    own occurrences before the rest of its run in the range."""
    rng = np.random.default_rng(12)
    n = 3 << 13
    data = np.where(rng.random(n) < 0.7, 1, rng.integers(2, 6, size=n))
    data[::512] = 1  # every block of 512 or more opens with symbol 1
    maj = majority_index(data, IndexConfig(trade=trade))
    ref = data.tolist()
    for scale, lo, hi in far_leftmost_ranges(n):
        for tau in (0.5, 0.3, 0.26):
            got = maj.query_majorities(lo, hi, tau)
            assert maj.diagnostics.path == "walk"
            assert got == oracle.oracle_majorities(ref, lo, hi, tau)
            assert got[0][0] == 1


@pytest.mark.parametrize("trade", [1, 4])
def test_flagged_path_ops_per_candidate(trade):
    """Every majority query that is not empty is one pruned walk: rank1
    calls only, two per kept internal node and fewer than ceil(1/tau) kept
    a level; no access or select, and each kept leaf is an answer."""
    data = zipf_string(200_000, 256, skew=1.1, seed=1)
    maj = IndexBundle.from_values(data, IndexConfig(trade=trade)).majority
    depth = maj.seq.depth
    rng = random.Random(trade)
    walked = 0
    for _ in range(400):
        length = min(data.size, int(2 ** rng.uniform(4, math.log2(data.size))))
        lo = rng.randint(1, data.size - length + 1)
        hi = lo + length - 1
        tau = rng.choice([0.5, 0.3, 0.1, 0.02, 0.005])
        got = maj.query_majorities(lo, hi, tau)
        d = maj.diagnostics
        counts = np.bincount(data[lo - 1:hi])
        want = [(a, int(c)) for a, c in enumerate(counts) if c > threshold_count(tau, length)]
        assert got == want
        assert d.path == "walk"
        walked += 1
        assert d.candidates == len(got)
        assert d.ops.sequence_ops == d.ops.ranks  # rank1 is the only operation
        assert d.ops.ranks <= walk_cap(tau, depth)
    assert walked == 400


def test_sequential_path_is_one_pruned_split_walk():
    """Short trade-1 ranges: two ranks per kept node, fewer than
    ceil(1/tau) kept nodes a level, and no access or select."""
    data = zipf_string(200_000, 256, skew=1.1, seed=1)
    maj = IndexBundle.from_values(data, IndexConfig(trade=1)).majority
    depth = maj.seq.depth
    rng = random.Random(5)
    seen = 0
    for _ in range(600):
        tau = rng.choice([0.5, 0.1, 1 / 64, 0.005])
        length = rng.randint(2, 400)
        lo = rng.randint(1, data.size - length + 1)
        hi = lo + length - 1
        got = maj.query_majorities(lo, hi, tau)
        d = maj.diagnostics
        if d.path != "walk":
            continue
        seen += 1
        counts = np.bincount(data[lo - 1:hi])
        want = [(a, int(c)) for a, c in enumerate(counts) if c > threshold_count(tau, length)]
        assert got == want
        assert d.candidates == len(got)
        assert d.ops.sequence_ops == d.ops.ranks  # rank1 is the only operation
        assert d.ops.ranks <= walk_cap(tau, depth)
    assert seen >= 100


def trie_nodes(seq):
    """The internal code-trie nodes, numbered: per (node, symbol below it)
    pair, the node's number and the symbol, and per node the largest
    whole-sequence count among its symbols."""
    ids, node_of, sym_of = {}, [], []
    for a in range(1, seq.sigma + 1):
        code = seq.code(a)
        for d in range(len(code)):
            node_of.append(ids.setdefault(code[:d], len(ids)))
            sym_of.append(a)
    node_of, sym_of = np.asarray(node_of), np.asarray(sym_of)
    top = np.zeros(len(ids), dtype=np.int64)
    np.maximum.at(top, node_of, seq.counts[sym_of - 1])
    return node_of, sym_of, top


def test_max_count_pruning_cuts_rank_calls():
    """On a near-unique input (sigma 65,536) no symbol clears a majority
    threshold, and the walk skips every node whose symbols all occur at
    most thr times in the whole sequence.  It makes exactly two rank1
    calls per internal node that holds more than thr of the range's
    positions and has a symbol occurring more than thr times in all,
    far fewer than the walk pruned by node size alone."""
    rng = np.random.default_rng(65536)
    sigma = 1 << 16
    data = np.concatenate((np.arange(1, sigma + 1), rng.integers(1, sigma + 1, size=sigma // 2)))
    rng.shuffle(data)
    maj = majority_index(data, IndexConfig())
    node_of, sym_of, top = trie_nodes(maj.seq)
    pruned_total = unpruned_total = 0
    for _ in range(40):
        length = int(2 ** rng.uniform(8, 16))
        lo = int(rng.integers(1, data.size - length + 2))
        hi = lo + length - 1
        tau = float(2.0 ** -rng.integers(1, 9))
        thr = threshold_count(tau, length)
        assert maj.query_majorities(lo, hi, tau) == [
            (a, int(c)) for a, c in enumerate(np.bincount(data[lo - 1:hi])) if c > thr]
        in_range = np.bincount(data[lo - 1:hi], minlength=sigma + 1)
        size = np.bincount(node_of, weights=in_range[sym_of], minlength=top.size)
        unpruned = int((size > thr).sum())
        pruned = int(((size > thr) & (top > thr)).sum())
        assert maj.diagnostics.ops.ranks == 2 * pruned
        pruned_total += 2 * pruned
        unpruned_total += 2 * unpruned
    assert pruned_total * 2 < unpruned_total, (pruned_total, unpruned_total)


# -- mode ---------------------------------------------------------------------------


def iter_bound(length: int, occ: int) -> int:
    k = 0
    while occ << k < length:
        k += 1
    return k + 1


def test_mode_frozen(canon_idx):
    assert canon_idx.query_mode(1, 11) == (1, 5)
    assert canon_idx.diagnostics.iterations == 2
    assert canon_idx.query_mode(2, 3) == (2, 1)
    assert canon_idx.query_mode(5, 5) == (4, 1)


def test_mode_random_vs_oracle():
    rng = random.Random(77)
    for trial in range(10):
        n = rng.choice([5, 64, 300])
        sigma = min(n, rng.choice([2, 6, 30]))
        data = zipf_string(n, sigma, skew=1.2, seed=trial)
        bundle = IndexBundle.from_values(data, IndexConfig())
        ref = data.tolist()
        for _ in range(30):
            lo = rng.randint(1, n)
            hi = rng.randint(lo, n)
            got = bundle.query_mode(lo, hi)
            assert got == oracle.oracle_mode(ref, lo, hi)
            assert bundle.majority.diagnostics.iterations <= iter_bound(hi - lo + 1, got[1])


@pytest.mark.parametrize("trade", [1, 4])
def test_mode_rounds_share_flag_work(trade):
    """Mode's halving rounds are walks: no access or select, and round s
    makes at most walk_cap(2**-s) rank1 calls, so the whole query stays
    within the sum over its rounds."""
    data = zipf_string(200_000, 256, skew=1.1, seed=1)
    maj = IndexBundle.from_values(data, IndexConfig(trade=trade)).majority
    depth = maj.seq.depth
    rng = random.Random(trade)
    for _ in range(200):
        length = min(data.size, int(2 ** rng.uniform(6, math.log2(data.size))))
        lo = rng.randint(1, data.size - length + 1)
        hi = lo + length - 1
        got = maj.query_mode(lo, hi)
        d = maj.diagnostics
        counts = np.bincount(data[lo - 1:hi])
        assert got == (int(counts.argmax()), int(counts.max()))
        assert d.iterations <= iter_bound(length, got[1])
        assert d.ops.sequence_ops == d.ops.ranks  # rank1 is the only operation
        assert d.ops.ranks <= sum(walk_cap(2.0 ** -s, depth) for s in range(1, d.iterations + 1))


# -- diagnostics -----------------------------------------------------------------------


def test_diagnostics_shape(canon_idx):
    out = canon_idx.query_majorities(4, 8, 0.5)
    d = canon_idx.diagnostics
    assert d.kind == "majority"
    assert (d.lo, d.hi, d.tau) == (4, 8, 0.5)
    assert d.candidates >= len(out)
    assert d.elapsed_ns > 0
    flat = d.as_dict()
    assert flat["path"] == d.path
    assert flat["sequence_ops"] == d.ops.sequence_ops

    canon_idx.query_mode(1, 11)
    assert canon_idx.diagnostics.kind == "mode"
    assert canon_idx.diagnostics.path == "halving"
