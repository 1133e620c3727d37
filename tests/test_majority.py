"""Query-time-fraction range majority index against the oracle."""

import json
import math
import numbers
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rfq import IndexConfig, oracle, threshold_count
from rfq.corpus import uniform_string, zipf_string
from rfq.errors import DomainError, RangeError
from rfq.indexfile import IndexBundle
from rfq.majority import check_tau

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


def mode_cap(depth: int, length: int, occ: int) -> int:
    """rank1 calls of one best-first mode walk: two per expanded node, and
    each expanded node holds at least occ of the range's positions."""
    return 2 * depth * (length // occ)


def test_mode_frozen(canon_idx):
    # canon codes 0, 100, 110, 101, 111: symbol 1's leaf hangs off the
    # root, whose other child's largest count 2 is below 5
    assert canon_idx.query_mode(1, 11) == (1, 5)
    assert canon_idx.diagnostics.ops.ranks == 2
    assert canon_idx.query_mode(2, 3) == (2, 1)
    assert canon_idx.query_mode(5, 5) == (4, 1)


def test_mode_random_vs_oracle():
    rng = random.Random(77)
    for trial in range(10):
        n = rng.choice([5, 64, 300])
        sigma = min(n, rng.choice([2, 6, 30]))
        data = zipf_string(n, sigma, skew=1.2, seed=trial)
        bundle = IndexBundle.from_values(data, IndexConfig())
        depth = bundle.seq.depth
        ref = data.tolist()
        for _ in range(30):
            lo = rng.randint(1, n)
            hi = rng.randint(lo, n)
            got = bundle.query_mode(lo, hi)
            assert got == oracle.oracle_mode(ref, lo, hi)
            d = bundle.majority.diagnostics
            assert d.ops.ranks <= mode_cap(depth, hi - lo + 1, got[1])


@pytest.mark.parametrize("trade", [1, 4])
def test_mode_walk_rank_bound(trade):
    """Mode is one walk making only rank1 calls, at most
    2 * depth * floor(len / occ) of them."""
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
        assert d.ops.sequence_ops == d.ops.ranks  # rank1 is the only operation
        assert d.ops.ranks <= mode_cap(depth, length, got[1])


def mode_by_counting(labels, lo, hi):
    """(label, count) of the most frequent label in labels[lo-1:hi], the
    smallest label on a tie."""
    counts = {}
    for a in labels[lo - 1:hi]:
        counts[a] = counts.get(a, 0) + 1
    top = max(counts.values())
    return min(a for a, c in counts.items() if c == top), top


@pytest.mark.parametrize("remap", ["identity", "ints", "tokens"])
def test_mode_ties_go_to_the_lowest_symbol(remap):
    """Forty labels, each once in a shuffled prefix, then label j of the
    draw order repeated j + 1 times, so the whole-sequence counts (and the
    code lengths) disagree with the label order.  Within the prefix every
    range is all ties, and its mode is its lowest label, in the bundle's
    label order: numeric for integers, lexicographic for tokens."""
    rng = np.random.default_rng(40)
    if remap == "identity":
        labels = [int(a) for a in rng.permutation(np.arange(1, 41))]
    elif remap == "ints":
        labels = [int(a) for a in rng.choice(10**12, size=40, replace=False) - 10**11]
    else:
        labels = ["".join(rng.choice(list("abcxyz"), size=4)) + str(j) for j in range(40)]
    seq = [labels[j] for j in rng.permutation(40)]
    seq += [a for j, a in enumerate(labels) for _ in range(j + 1)]
    if remap == "tokens":
        bundle = IndexBundle.from_tokens(seq)
    else:
        bundle = IndexBundle.from_values(np.asarray(seq))
        assert (bundle.originals is None) == (remap == "identity")
    for lo in range(1, 41):
        for hi in range(lo, 41):
            assert bundle.query_mode(lo, hi) == (min(seq[lo - 1:hi]), 1)
    for lo, hi in [(1, len(seq)), (30, 200), (41, 90), (1, 120)]:
        assert bundle.query_mode(lo, hi) == mode_by_counting(seq, lo, hi)


def test_mode_tie_prune_cuts_rank_calls():
    """Every symbol twice (sigma 4096): over the whole range every leaf
    ties at 2, and once the lowest symbol's leaf is reached every other
    node's bound equals the best count with only higher symbols below it.
    So the walk makes under a quarter of the rank1 calls of the histogram
    walk, which splits every internal node."""
    sigma = 1 << 12
    data = np.repeat(np.arange(1, sigma + 1), 2)
    np.random.default_rng(2).shuffle(data)
    maj = majority_index(data, IndexConfig())
    seq = maj.seq
    r0 = seq.tally.ranks
    assert len(seq.range_counts(1, data.size, 1)) == sigma
    histogram = seq.tally.ranks - r0
    assert maj.query_mode(1, data.size) == (1, 2)
    assert maj.diagnostics.ops.ranks * 4 < histogram, (maj.diagnostics.ops.ranks, histogram)


# An index over PARENT_DATA written by the format-8 code that answered mode
# with halving rounds of split walks; each of its answers equalled the oracle.
PARENT_DATA = [1 + (i * 37 % 101) % 9 for i in range(160)]
PARENT_FILE = bytes.fromhex(
    "524651490800060000000000000001000000000006729e7a8100000000000000"
    "a0000000000000000900000003dcb66d04a000000000000000a0000000000000"
    "00a0000000000000002000000000000000555555bdaaaaaafa555555d5abaaaa"
    "aa57555555000000003c1e1e0e8787c7c3c3e3e10f877f78fce3e10f87000000"
    "001c1e1e0e8f8787e3e1e1e1787878f8e31ffee18f00000000162b178b000000"
    "0063f1fce1"
)


def test_parent_written_index_answers_mode_alike():
    """The file loads, writes back byte for byte, and answers mode on every
    range as the oracle (and the code that wrote it) does."""
    bundle = IndexBundle.from_bytes(PARENT_FILE)
    assert bundle.to_bytes() == PARENT_FILE
    assert bundle.seq.to_array().tolist() == PARENT_DATA
    n = len(PARENT_DATA)
    for lo in range(1, n + 1):
        counts, best = [0] * 10, (0, 0)
        for hi in range(lo, n + 1):
            a = PARENT_DATA[hi - 1]
            counts[a] += 1
            if counts[a] > best[1] or (counts[a] == best[1] and a < best[0]):
                best = (a, counts[a])
            assert bundle.query_mode(lo, hi) == best, (lo, hi)


def test_check_tau_fast_path_matches_the_general_rule():
    """A float tau skips the numbers.Real check; every value is accepted or
    refused exactly as that check alone would."""
    class Sub(float):
        pass

    values = [0.5, 1.0, 0.0, -0.0, -0.5, 1.0000000000000002, 5e-324, float("nan"),
              float("inf"), -float("inf"), Sub(0.25), Sub(2.0), 1, 0, 2, True, False,
              np.float32(0.4), np.float64(1.5), np.int64(1), "0.5", None, 1j]
    for v in values:
        general = isinstance(v, numbers.Real) and 0.0 < float(v) <= 1.0
        if general:
            got = check_tau(v)
            assert type(got) is float and got == float(v), v
        else:
            with pytest.raises(DomainError):
                check_tau(v)


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
    assert canon_idx.diagnostics.path == "walk"
