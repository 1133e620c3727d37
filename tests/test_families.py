"""Flag-family builders: vectorized construction vs the quadratic references."""

import random
import zlib

import numpy as np
import pytest

from rfq.families import (
    FlagWorkspace,
    anchor_flag_bits_slow,
    candidate_flag_bits_slow,
    distinct_flag_bits_slow,
    expected_ones_cap,
    flags_from_bits,
    _qualifies_slow,
)


def ws(values):
    return FlagWorkspace(np.asarray(values, dtype=np.int64))


def test_distinct_bits_frozen():
    w = ws([1, 2, 3, 1])
    # one block of four; every position opens or closes a distinct run
    assert np.flatnonzero(w.distinct_bits(1, 3)).tolist() == [0, 1, 2, 3]
    # cap 1: only the first new symbol and the last surviving one
    assert np.flatnonzero(w.distinct_bits(0, 3)).tolist() == [0, 3]


def test_candidate_bits_frozen():
    w = ws([1, 2, 1, 2, 3, 3, 3, 3])
    # need 4 nearby occurrences: only the run of 3s qualifies
    assert np.flatnonzero(w.candidate_bits(0, 2)).tolist() == [4, 5, 6, 7]
    # halving the requirement admits every symbol
    assert np.flatnonzero(w.candidate_bits(1, 2)).tolist() == list(range(8))


def test_anchor_bits_frozen():
    w = ws([1] * 6)
    got = np.flatnonzero(w.anchor_bits(0, 2, chunk=2)).tolist()
    assert got == [1, 3, 5]  # every second occurrence
    assert np.flatnonzero(w.anchor_bits(0, 2, chunk=1)).tolist() == list(range(6))


def test_window_qualifies_matches_slow():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 50)
        arr = np.asarray([rng.randint(1, 5) for _ in range(n)])
        radius = rng.choice([1, 2, 4, 16, 64])
        need = rng.choice([1, 2, 3, 8])
        _, _, want = _qualifies_slow(arr, radius, need)
        got = ws(arr).window_qualifies(radius, need)
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
        need = 1 << max(scale - 2, 0)
        assert (w.window_qualifies(radius, need) == (want >= need)).all(), scale


@pytest.mark.parametrize("kind", ["candidate", "anchor", "distinct"])
def test_fast_matches_slow(kind):
    rng = random.Random(zlib.crc32(kind.encode()) % 1000)
    for _ in range(60):
        n = rng.randint(1, 48)
        sigma = rng.choice([1, 2, 4, 6])
        arr = np.asarray([rng.randint(1, sigma) for _ in range(n)])
        tier = rng.randint(0, 3)
        scale = rng.randint(max(tier, 1), 6)
        w = ws(arr)
        if kind == "candidate":
            got = w.candidate_bits(tier, scale)
            want = candidate_flag_bits_slow(arr, tier, scale)
        elif kind == "anchor":
            chunk = rng.choice([1, 2, 3, 8])
            got = w.anchor_bits(tier, scale, chunk)
            want = anchor_flag_bits_slow(arr, tier, scale, chunk)
        else:
            got = w.distinct_bits(tier, scale)
            want = distinct_flag_bits_slow(arr, tier, scale)
        assert (got == want).all(), (kind, arr.tolist(), tier, scale)


def test_shared_qualifier_is_equivalent():
    arr = np.asarray([1, 1, 2, 2, 2, 1, 3, 2, 1, 1, 2, 3])
    w = ws(arr)
    tier, scale = 1, 3
    qual = w.window_qualifies(1 << (scale + 1), 1 << (scale - tier))
    assert (w.candidate_bits(tier, scale, qual=qual)
            == w.candidate_bits(tier, scale)).all()
    assert (w.anchor_bits(tier, scale, 2, qual=qual)
            == w.anchor_bits(tier, scale, 2)).all()


def test_ones_stay_under_cap():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 400)
        arr = np.asarray([rng.randint(1, 8) for _ in range(n)])
        tier = rng.randint(0, 3)
        scale = rng.randint(max(tier, 1), 8)
        w = ws(arr)
        cap = expected_ones_cap(n, tier, scale)
        assert int(w.candidate_bits(tier, scale).sum()) <= cap
        assert int(w.distinct_bits(tier, scale).sum()) <= cap


def test_flags_from_bits():
    bits = np.zeros(100, dtype=bool)
    bits[[0, 17, 99]] = True
    sv = flags_from_bits(bits)
    assert sv.n_bits == 100
    assert sv.ones_in_range(1, 100) == [1, 18, 100]
