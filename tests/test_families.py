"""What the flag families guaranteed, checked on the walk that replaced them.

The candidate and distinct flag families retired with format version 7:
every majority, minority and mode query is one pruned split walk over
the wavelet matrix.  Each test here keeps the name it had and checks the
guarantee it pinned (that every answer is found, on every range of a
scale, on wide and narrow alphabets, within a work cap) against the
oracle on the walk.
"""

import random
import zlib

import numpy as np
import pytest

from rfq import BitVector, IndexConfig, oracle, threshold_count
from rfq.corpus import uniform_string, zipf_string
from rfq.indexfile import IndexBundle
from rfq.serial import ByteReader
from rfq.sequence import WaveletSequence


def seq_of(values):
    return WaveletSequence.build(np.asarray(values, dtype=np.int64))


def heavy(arr, lo, hi, thr):
    counts = np.bincount(np.asarray(arr)[lo - 1:hi])
    return {a: int(c) for a, c in enumerate(counts) if c > thr}


def test_distinct_bits_frozen():
    s = seq_of([1, 2, 3, 1])
    assert s.range_minority(1, 4, 1) in ((2, 1), (3, 1))
    assert s.range_minority(1, 4, 2) in ((1, 2), (2, 1), (3, 1))
    assert s.range_minority(1, 1, 1) == (1, 1)
    assert s.range_minority(1, 4, 0) is None


def test_candidate_bits_frozen():
    s = seq_of([1, 2, 1, 2, 3, 3, 3, 3])
    assert s.range_counts(1, 8, 3) == {3: 4}
    assert s.range_counts(1, 8, 1) == {1: 2, 2: 2, 3: 4}
    assert s.range_counts(1, 4, 1) == {1: 2, 2: 2}
    assert s.range_counts(5, 8, 4) == {}


def test_window_counts_with_wide_symbols():
    # symbols of 2**23 and above are remapped, never packed into keys that wrap
    wide = IndexBundle.from_values([1, 2**23 + 1, 2**23 + 1, 1, 2**23 + 1])
    narrow = IndexBundle.from_values([1, 2**22 + 1, 2**22 + 1, 1, 2**22 + 1])
    assert wide.query_majorities(1, 5, 0.5) == [(2**23 + 1, 3)]
    assert narrow.query_majorities(1, 5, 0.5) == [(2**22 + 1, 3)]
    assert wide.query_majorities(1, 5, 0.2) == [(1, 2), (2**23 + 1, 3)]
    assert wide.query_mode(2, 4) == (2**23 + 1, 2)


def test_candidate_bits_with_symbols_above_key_range():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(1, 48)
        symbols = [3, 2**40 // n + 1, 2**47 + 5, 2**62]
        arr = [rng.choice(symbols) for _ in range(n)]
        bundle = IndexBundle.from_values(np.asarray(arr, dtype=np.int64))
        for _ in range(10):
            lo = rng.randint(1, n)
            hi = rng.randint(lo, n)
            tau = 2.0 ** -rng.randint(1, 3)
            assert bundle.query_majorities(lo, hi, tau) == oracle.oracle_majorities(arr, lo, hi, tau)


def test_window_qualifies_matches_slow():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 50)
        arr = [rng.randint(1, 5) for _ in range(n)] + [1, 2, 3, 4, 5]
        s = seq_of(arr)
        for _ in range(10):
            lo = rng.randint(1, len(arr))
            hi = rng.randint(lo, len(arr))
            thr = rng.choice([0, 1, 2, 3, 8])
            assert s.range_counts(lo, hi, thr) == heavy(arr, lo, hi, thr)


@pytest.mark.parametrize("sigma", [2, 17, 300])
def test_window_counts_at_real_size(sigma):
    # ranges of every scale up to lg n, counted exactly
    rng = np.random.default_rng(sigma)
    n = 3000
    arr = np.concatenate((np.arange(1, sigma + 1), rng.integers(1, sigma + 1, size=n - sigma)))
    rng.shuffle(arr)
    s = seq_of(arr)
    for scale in range(n.bit_length() - 1):
        for _ in range(5):
            length = int(rng.integers(1 << scale, min(2 << scale, n + 1)))
            lo = int(rng.integers(1, n - length + 2))
            hi = lo + length - 1
            assert s.range_counts(lo, hi, 0) == heavy(arr, lo, hi, 0), scale


@pytest.mark.parametrize("kind", ["candidate", "distinct"])
def test_fast_matches_slow(kind):
    """candidate: majorities at tau = 2**-tier on ranges of every scale;
    distinct: a valid minority there, or None when none exists."""
    rng = random.Random(zlib.crc32(kind.encode()) % 1000)
    for _ in range(60):
        n = rng.randint(1, 48)
        sigma = min(n, rng.choice([1, 2, 4, 6]))
        arr = [rng.randint(1, sigma) for _ in range(n)]
        arr[:sigma] = range(1, sigma + 1)
        bundle = IndexBundle.from_values(np.asarray(arr))
        tier = rng.randint(0, 3)
        scale = rng.randint(0, n.bit_length() - 1)
        length = rng.randint(1 << scale, min(2 << scale, n + 1) - 1)
        lo = rng.randint(1, n - length + 1)
        hi = lo + length - 1
        tau = 2.0 ** -tier
        if kind == "candidate":
            assert bundle.query_majorities(lo, hi, tau) == oracle.oracle_majorities(arr, lo, hi, tau)
        else:
            want = oracle.oracle_minorities(arr, lo, hi, tau)
            got = bundle.query_minority(lo, hi, tau)
            assert got in want if want else got is None


@pytest.mark.parametrize("seed", [2, 5])
@pytest.mark.parametrize("trade", [1, 2, 8])
@pytest.mark.parametrize("n", [600, 700])
def test_build_families_matches_slow(n, trade, seed):
    """Every (tier, scale) class a build once made families for: ranges of
    each scale at tau = 2**-tier answer like the oracle, at every trade."""
    if n == 600:
        arr = uniform_string(n, 6, seed=trade * 10 + seed)
    else:
        arr = zipf_string(n, 40, skew=1.1, seed=trade * 10 + seed)
    ref = arr.tolist()
    sigma = int(arr.max())
    bundle = IndexBundle.from_values(arr, IndexConfig(trade=trade))
    rng = random.Random(n * seed + trade)
    for t in range((sigma - 1).bit_length() + 1):
        for b in range(n.bit_length()):
            length = rng.randint(1 << b, min(2 << b, n + 1) - 1)
            lo = rng.randint(1, n - length + 1)
            hi = lo + length - 1
            tau = 2.0 ** -t
            assert bundle.query_majorities(lo, hi, tau) == oracle.oracle_majorities(ref, lo, hi, tau)
            want = oracle.oracle_minorities(ref, lo, hi, tau)
            got = bundle.query_minority(lo, hi, tau)
            assert got in want if want else got is None, (t, b)


@pytest.mark.parametrize("trade", [1, 4])
def test_candidate_families_nest_by_tier(trade):
    """The answers of tier t lie inside those of tier t + 1, with the same
    counts: halving tau reports a superset of the answers before."""
    arr = zipf_string(3000, 40, skew=1.1, seed=trade)
    maj = IndexBundle.from_values(arr, IndexConfig(trade=trade)).majority
    rng = random.Random(trade)
    nested = 0
    for _ in range(200):
        lo = rng.randint(1, 3000)
        hi = rng.randint(lo, 3000)
        answers = [dict(maj.query_majorities(lo, hi, 2.0 ** -t)) for t in range(1, 7)]
        for inner, outer in zip(answers, answers[1:]):
            assert inner.items() <= outer.items()
            nested += bool(inner)
    assert nested > 300


def small_corpus(kind, n):
    rng = np.random.default_rng(n)
    if kind == "uniform":
        arr = rng.integers(1, 4, size=n)
    elif kind == "zipf":
        arr = np.minimum(rng.zipf(1.5, size=n), 8)
    else:  # runs of random lengths
        arr = np.repeat(rng.integers(1, 5, size=n), rng.integers(1, 9, size=n))[:n]
    return np.unique(arr, return_inverse=True)[1].astype(np.int64) + 1


@pytest.mark.parametrize("kind", ["uniform", "zipf", "runs"])
@pytest.mark.parametrize("trade", [1, 4])
@pytest.mark.parametrize("n", [100, 131])
def test_every_majority_has_a_flag_in_range(kind, trade, n):
    """Every range of every length, at tau = 2**-t for each tier t up to
    lg sigma: the walk reports exactly the symbols above the threshold,
    with their counts.  Neither n is a power of two."""
    arr = small_corpus(kind, n)
    sigma = int(arr.max())
    seq = IndexBundle.from_values(arr, IndexConfig(trade=trade)).seq
    onehot = np.arange(sigma + 1)[None, :] == arr[:, None]
    prefix = np.vstack([np.zeros(sigma + 1, dtype=np.int64), np.cumsum(onehot, axis=0)])
    found = 0
    for t in range(1, max(sigma - 1, 1).bit_length() + 1):
        for lo in range(1, n + 1):
            counts = prefix[lo:] - prefix[lo - 1]  # row j: the range lo..lo + j
            for hi in range(lo, n + 1):
                row = counts[hi - lo]
                thr = threshold_count(2.0 ** -t, hi - lo + 1)
                want = {a: int(c) for a, c in enumerate(row) if c > thr}
                assert seq.range_counts(lo, hi, thr) == want, (t, lo, hi)
                found += len(want)
    assert found


@pytest.mark.parametrize("trade", [1, 4])
def test_candidate_families_lie_inside_half_block_ones(trade):
    """The nodes the pruned walk ranks lie inside those a walk pruned by
    node size alone would rank: largest-count pruning never adds a rank1
    call, and on this corpus it saves some."""
    arr = zipf_string(3000, 40, skew=1.1, seed=trade)
    seq = IndexBundle.from_values(arr, IndexConfig(trade=trade)).seq
    prefixes = {}
    for a in range(1, seq.sigma + 1):
        code = seq.code(a)
        for d in range(len(code)):
            prefixes.setdefault(code[:d], []).append(a)
    nodes = [(np.asarray(s), int(seq.counts[np.asarray(s) - 1].max())) for s in prefixes.values()]
    rng = random.Random(trade)
    pruned_total = sized_total = 0
    for _ in range(200):
        lo = rng.randint(1, 3000)
        hi = rng.randint(lo, 3000)
        thr = threshold_count(2.0 ** -rng.randint(1, 6), hi - lo + 1)
        counts = np.bincount(arr[lo - 1:hi], minlength=seq.sigma + 1)
        sized = sum(int(counts[s].sum()) > thr for s, _ in nodes)
        snap = seq.tally.snapshot()
        seq.range_counts(lo, hi, thr)
        ranks = seq.tally.since(snap).ranks
        assert ranks <= 2 * sized
        pruned_total += ranks
        sized_total += 2 * sized
    assert pruned_total < sized_total


def test_short_inputs_get_no_families():
    # a file holds the header section and the sequence section, nothing else
    arr = np.resize(np.arange(1, 5, dtype=np.int64), 63)
    bundle = IndexBundle.from_values(arr, IndexConfig(trade=2))
    r = ByteReader(bundle.to_bytes())
    r.raw(6)  # magic and version
    r.checked()
    assert r.checked() == bundle.seq.to_bytes()
    assert r.done()


def test_ones_stay_under_cap():
    # two rank1 calls per kept internal node, fewer than ceil(1/tau) kept a level
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 400)
        arr = [rng.randint(1, 8) for _ in range(n)] + list(range(1, 9))
        maj = IndexBundle.from_values(np.asarray(arr)).majority
        for _ in range(10):
            lo = rng.randint(1, len(arr))
            hi = rng.randint(lo, len(arr))
            tier = rng.randint(0, 3)
            maj.query_majorities(lo, hi, 2.0 ** -tier)
            assert maj.diagnostics.ops.ranks <= 2 * maj.seq.depth * max(2**tier - 1, 0)


def test_flags_from_bits():
    # flags were read back from a sparse bitvector; the plain bitvector,
    # the one level kind left, gives the same positions and their ranks
    bits = np.zeros(100, dtype=bool)
    bits[[0, 17, 99]] = True
    bv = BitVector.from_numpy_bool(bits)
    assert bv.n_bits == 100
    ones = (np.flatnonzero(bv.to_numpy_bool()) + 1).tolist()
    assert ones == [1, 18, 100]
    assert [bv.rank1(p) for p in ones] == [1, 2, 3]
