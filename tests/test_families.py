"""Flag-family builders: vectorized construction vs the quadratic references."""

import random
import zlib

import numpy as np
import pytest

from rfq import IndexConfig, threshold_count
from rfq.errors import LogicError
from rfq.families import (
    FlagWorkspace,
    build_families,
    candidate_bits,
    candidate_flag_bits_slow,
    distinct_bits,
    distinct_flag_bits_slow,
    expected_ones_cap,
    flags_from_bits,
    _qualifies_slow,
)
from rfq.corpus import uniform_string, zipf_string


def ws(values):
    return FlagWorkspace(np.asarray(values, dtype=np.int64))


def fast_bits(kind, arr, tier, scale):
    """One (tier, scale) family from the per-scale arrays, as the builder
    derives it."""
    w = ws(arr)
    if kind == "distinct":
        return distinct_bits(w.block_ranks(scale), tier)  # blocks of 2**(scale-1)
    # blocks of 2**scale
    return candidate_bits(w.window_counts(1 << (scale + 1)), w.block_ranks(scale + 1),
                          1 << (scale - tier))


def test_distinct_bits_frozen():
    ranks = ws([1, 2, 3, 1]).block_ranks(3)
    # one block of four; every position opens or closes a distinct run
    assert np.flatnonzero(distinct_bits(ranks, 1)).tolist() == [0, 1, 2, 3]
    # cap 1: only the first new symbol and the last surviving one
    assert np.flatnonzero(distinct_bits(ranks, 0)).tolist() == [0, 3]


def test_candidate_bits_frozen():
    w = ws([1, 2, 1, 2, 3, 3, 3, 3])
    # scale 2: blocks of four, windows of radius 8
    counts, ranks = w.window_counts(8), w.block_ranks(3)
    # need 4 nearby occurrences: only the run of 3s qualifies, at its block's ends
    assert np.flatnonzero(candidate_bits(counts, ranks, 4)).tolist() == [4, 7]
    # halving the requirement admits every symbol
    assert np.flatnonzero(candidate_bits(counts, ranks, 2)).tolist() == [0, 1, 2, 3, 4, 7]


def test_window_counts_with_wide_symbols():
    # keys once packed the symbol above 40 position bits in int64, which
    # wrapped from symbol 2**23 on and merged 2**23 + 1 with symbol 1
    got = ws([1, 2**23 + 1, 2**23 + 1, 1, 2**23 + 1]).window_counts(4)
    assert got.tolist() == [2, 3, 3, 2, 3]
    assert ws([1, 2**22 + 1, 2**22 + 1, 1, 2**22 + 1]).window_counts(4).tolist() == got.tolist()


def test_candidate_bits_with_symbols_above_key_range():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(1, 48)
        symbols = [3, 2**40 // n + 1, 2**47 + 5, 2**62]
        arr = np.asarray([rng.choice(symbols) for _ in range(n)], dtype=np.int64)
        tier = rng.randint(1, 2)
        scale = rng.randint(tier, 6)
        want = candidate_flag_bits_slow(arr, tier, scale)
        assert (fast_bits("candidate", arr, tier, scale) == want).all(), (arr.tolist(), tier, scale)


def test_window_qualifies_matches_slow():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 50)
        arr = np.asarray([rng.randint(1, 5) for _ in range(n)])
        radius = rng.choice([1, 2, 4, 16, 64])
        need = rng.choice([1, 2, 3, 8])
        _, want = _qualifies_slow(arr, radius, need)
        got = ws(arr).window_counts(radius) >= need
        assert (got == want).all()


@pytest.mark.parametrize("sigma", [2, 17, 300])
def test_window_counts_at_real_size(sigma):
    rng = np.random.default_rng(sigma)
    n = 3000
    arr = rng.integers(1, sigma + 1, size=n)
    w = ws(arr)
    occurrences = [np.flatnonzero(arr == a) + 1 for a in np.unique(arr)]
    for scale in range(n.bit_length()):  # every scale up to lg n
        radius = 1 << (scale + 1)
        want = np.empty(n, dtype=np.int64)
        for occ in occurrences:
            near = np.abs(occ[:, None] - occ[None, :]) <= radius
            want[occ - 1] = near.sum(axis=1)
        assert (w.window_counts(radius) == want).all(), scale


@pytest.mark.parametrize("kind", ["candidate", "distinct"])
def test_fast_matches_slow(kind):
    rng = random.Random(zlib.crc32(kind.encode()) % 1000)
    for _ in range(60):
        n = rng.randint(1, 48)
        sigma = rng.choice([1, 2, 4, 6])
        arr = np.asarray([rng.randint(1, sigma) for _ in range(n)])
        tier = rng.randint(0, 3)
        scale = rng.randint(max(tier, 1), 6)
        got = fast_bits(kind, arr, tier, scale)
        if kind == "candidate":
            want = candidate_flag_bits_slow(arr, tier, scale)
        else:
            want = distinct_flag_bits_slow(arr, tier, scale)
        assert (got == want).all(), (kind, arr.tolist(), tier, scale)


@pytest.mark.parametrize("seed", [2, 5])
@pytest.mark.parametrize("trade", [1, 2, 8])
@pytest.mark.parametrize("n", [600, 700])
def test_build_families_matches_slow(n, trade, seed):
    """Every family the builder emits, above the self-check length."""
    if n == 600:
        arr = uniform_string(n, 6, seed=trade * 10 + seed)
    else:
        arr = zipf_string(n, 40, skew=1.1, seed=trade * 10 + seed)
    arr = np.unique(arr, return_inverse=True)[1].astype(np.int64) + 1  # dense, as built
    sigma = int(arr.max())
    cfg = IndexConfig(trade=trade)
    cand, dist = build_families(arr, sigma, cfg)
    cutoff = cfg.scale_cutoff
    keys = [(t, b) for t in range((sigma - 1).bit_length() + 1) for b in range(n.bit_length())
            if cutoff(t) <= b]
    assert sorted(cand) == [k for k in keys if k[0] >= 1]
    assert sorted(dist) == (keys if trade > 1 else [])
    for (t, b), flags in cand.items():
        want = np.flatnonzero(candidate_flag_bits_slow(arr, t, b)) + 1
        assert flags.ones_in_range(1, n) == want.tolist(), ("candidate", t, b)
    for (t, b), flags in dist.items():
        want = np.flatnonzero(distinct_flag_bits_slow(arr, t, b)) + 1
        assert flags.ones_in_range(1, n) == want.tolist(), ("distinct", t, b)


@pytest.mark.parametrize("trade", [1, 4])
def test_candidate_families_nest_by_tier(trade):
    """Family (t, b) lies inside (t + 1, b) on every scale: the window test
    needs 2**(b - t) occurrences, which halves as the tier rises.  Mode's
    rounds share their flag symbols because of this."""
    arr = zipf_string(3000, 40, skew=1.1, seed=trade)
    arr = np.unique(arr, return_inverse=True)[1].astype(np.int64) + 1
    cand, _ = build_families(arr, int(arr.max()), IndexConfig(trade=trade))
    pairs = [(t, b) for t, b in cand if (t + 1, b) in cand]
    assert len(pairs) >= 20
    for t, b in pairs:
        inner, outer = cand[(t, b)].to_numpy_bool(), cand[(t + 1, b)].to_numpy_bool()
        assert not (inner & ~outer).any(), (t, b)
    assert sum(cand[key].ones for key in pairs) > 1000


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
    """Every range of every built (t, b) family's scale: each symbol above
    the threshold of tau = 2**-t, the lowest of the tier, holds a flag of
    the family inside the range.  Neither n is a multiple of the largest
    block, so the last block is clipped."""
    arr = small_corpus(kind, n)
    sigma = int(arr.max())
    cand, _ = build_families(arr, sigma, IndexConfig(trade=trade))
    assert cand
    onehot = np.arange(sigma + 1)[None, :] == arr[:, None]
    prefix = np.vstack([np.zeros(sigma + 1, dtype=np.int64), np.cumsum(onehot, axis=0)])
    one_block = clipped = 0
    for (t, b), flags in cand.items():
        flagged = onehot & flags.to_numpy_bool()[:, None]
        fprefix = np.vstack([np.zeros(sigma + 1, dtype=np.int64), np.cumsum(flagged, axis=0)])
        blen = 1 << b
        for length in range(blen, min(2 * blen, n + 1)):
            lo = np.arange(1, n - length + 2)
            hi = lo + length - 1
            major = prefix[hi] - prefix[lo - 1] > threshold_count(2.0 ** -t, length)
            held = fprefix[hi] - fprefix[lo - 1] > 0
            assert not (major & ~held).any(), ((t, b), length)
            has = major.any(axis=1)
            one_block += int((has & ((lo - 1) % blen == 0) & (length == blen)).sum())
            clipped += int((has & (hi > n - n % blen)).sum())
    assert one_block and clipped


@pytest.mark.parametrize("trade", [1, 4])
def test_candidate_families_lie_inside_half_block_ones(trade):
    """Every boundary of a 2**b block is one of a 2**(b-1) block, so the
    families flag a subset of what the same test flags on the shorter
    blocks, and fewer flags in all."""
    arr = zipf_string(3000, 40, skew=1.1, seed=trade)
    arr = np.unique(arr, return_inverse=True)[1].astype(np.int64) + 1
    cand, _ = build_families(arr, int(arr.max()), IndexConfig(trade=trade))
    w = ws(arr)
    new_ones = old_ones = 0
    for (t, b), flags in cand.items():
        old = candidate_bits(w.window_counts(1 << (b + 1)), w.block_ranks(b), 1 << (b - t))
        new = flags.to_numpy_bool()
        assert not (new & ~old).any(), (t, b)
        new_ones += int(new.sum())
        old_ones += int(old.sum())
    assert new_ones < old_ones


@pytest.mark.parametrize("n, checked", [(64, True), (512, True), (513, False)])
def test_self_check_runs_up_to_512(monkeypatch, n, checked):
    arr = np.resize(np.arange(1, 5, dtype=np.int64), n)
    monkeypatch.setattr("rfq.families.distinct_flag_bits_slow",
                        lambda a, t, b: np.zeros(a.size, dtype=bool))
    if checked:
        with pytest.raises(LogicError, match="distinct flags self-check failed"):
            build_families(arr, 4, IndexConfig(trade=2))
    else:
        assert build_families(arr, 4, IndexConfig(trade=2))[1]


def test_short_inputs_get_no_families():
    arr = np.resize(np.arange(1, 5, dtype=np.int64), 63)
    assert build_families(arr, 4, IndexConfig(trade=2)) == ({}, {})


def test_ones_stay_under_cap():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 400)
        arr = np.asarray([rng.randint(1, 8) for _ in range(n)])
        tier = rng.randint(0, 3)
        scale = rng.randint(max(tier, 1), 8)
        cap = expected_ones_cap(n, tier, scale)
        assert int(fast_bits("candidate", arr, tier, scale).sum()) <= cap
        assert int(fast_bits("distinct", arr, tier, scale).sum()) <= cap


def test_flags_from_bits():
    bits = np.zeros(100, dtype=bool)
    bits[[0, 17, 99]] = True
    sv = flags_from_bits(bits)
    assert sv.n_bits == 100
    assert sv.ones_in_range(1, 100) == [1, 18, 100]
