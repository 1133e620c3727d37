"""Huffman-shaped wavelet matrix: its codes, its levels and its walks.

The matrix answers range queries only, through its three walks
(`_split_walk`, `_minority_walk` and `_mode_walk`, read here over 1-based
ranges by the `conftest` helpers of the same names as the retired
`range_counts`, `range_minority` and `range_mode`), and `to_array`
decodes it.  The sequence operations access, rank, select, partial
rank, locate and previous occurrence were retired with format version 8,
since no query read them; the tests that checked them keep their names
and check the same facts (a position's symbol, a prefix's count, an
occurrence's position) through the walks against brute force.
"""

import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import codes, range_counts, range_minority, range_mode
from rfq import IndexBundle, IndexConfig
from rfq.corpus import zipf_string
from rfq.errors import DomainError, RangeError
from rfq.majority import _majorities, _mode
from rfq.minority import _minority
from rfq.sequence import WaveletSequence, _typecode, code_lengths, length_cap
from rfq.serial import ByteReader


def build(values):
    return WaveletSequence.build(np.asarray(values, dtype=np.int64))


def bundle_seq(values, compressed):
    """The sequence an IndexBundle builds over dense values, plain or with
    the inert compressed option."""
    return IndexBundle.from_values(np.asarray(values), IndexConfig(compressed=compressed)).seq


def prefix_count(seq, a: int, k: int) -> int:
    """Occurrences of a among the first k positions, from one walk."""
    return range_counts(seq, 1, k).get(a, 0) if k else 0


# -- frozen behavior on the canonical string -------------------------------------


def test_frozen_ops(canon_seq):
    s = canon_seq
    assert s.n == 11 and s.sigma == 5
    assert range_counts(s, 5, 5) == {4: 1}  # the symbol at position 5
    assert prefix_count(s, 1, 5) == 2
    assert prefix_count(s, 3, 11) == 2
    # the third 1 is at position 6, and 5 has no second occurrence
    assert (prefix_count(s, 1, 5), prefix_count(s, 1, 6)) == (2, 3)
    assert s.counts[4] == 1  # symbol 5 occurs once
    assert range_counts(s, 4, 8) == {1: 3, 4: 1, 5: 1}
    assert range_counts(s, 1, 11) == {1: 5, 2: 2, 3: 2, 4: 1, 5: 1}
    assert range_counts(s, 1, 11, 2) == {1: 5}
    assert range_minority(s, 4, 8, 1) in ((4, 1), (5, 1))
    assert range_minority(s, 1, 11, 2) in ((2, 2), (3, 2), (4, 1), (5, 1))
    assert range_minority(s, 1, 4, 1) in ((2, 1), (3, 1))
    assert range_minority(s, 1, 1, 1) == (1, 1)
    assert range_minority(s, 6, 6, 0) is None
    assert range_mode(s, 1, 11) == (1, 5)
    assert range_mode(s, 2, 3) == (2, 1)  # a tie goes to the lower symbol
    assert range_mode(s, 9, 10) == (2, 1)
    assert s.to_array().tolist() == [1, 2, 3, 1, 4, 1, 5, 1, 2, 3, 1]


def test_symbol_counts_and_entropy(canon_seq):
    assert canon_seq.counts.tolist() == [5, 2, 2, 1, 1]
    want = sum((c / 11) * math.log2(11 / c) for c in (5, 2, 2, 1, 1))
    assert canon_seq.entropy_h0() == pytest.approx(want)


def test_validation(canon_seq):
    # every walk's range is checked once, by the query helper that calls it
    for lo, hi in ((0, 5), (1, 12), (5, 4), (1.0, 4), (1, "4")):
        for query, args in ((_majorities, (0.5,)), (_minority, (0.5,)), (_mode, ())):
            with pytest.raises(RangeError):
                query(canon_seq, lo, hi, *args)


def test_rejects_sparse_alphabet():
    with pytest.raises(DomainError):
        build([1, 3, 1])  # symbol 2 never occurs


# -- randomized equivalence against direct counting -------------------------------


@pytest.mark.parametrize("pow2", [2, 4, 16])
@pytest.mark.parametrize("compressed", [False, True])
def test_random_vs_brute(pow2, compressed):
    # pow2 - 1, pow2 and pow2 + 1 straddle a change in the number of levels
    rng = random.Random(pow2 * 2 + compressed)
    for trial in range(8):
        n = rng.randint(1, 500)
        sigma = rng.choice([1, 2, 3, 7, 40, 257, pow2 - 1, pow2, pow2 + 1])
        if sigma > n:
            sigma = n
        data = [rng.randint(1, sigma) for _ in range(n)]
        for a, k in zip(range(1, sigma + 1), rng.sample(range(n), sigma)):
            data[k] = a  # keep the alphabet dense
        seq = bundle_seq(data, compressed)
        assert seq.to_array().tolist() == data
        for _ in range(60):
            k = rng.randint(1, n)
            a = rng.randint(1, sigma)
            assert range_counts(seq, k, k) == {data[k - 1]: 1}
            assert prefix_count(seq, a, k) == data[:k].count(a)
            lo = rng.randint(1, n)
            hi = rng.randint(lo, n)
            want = Counter(data[lo - 1:hi])
            thr = rng.randint(0, hi - lo + 1)
            assert range_counts(seq, lo, hi, thr) == {b: c for b, c in want.items() if c > thr}
            got = range_minority(seq, lo, hi, thr)
            light = {(b, c) for b, c in want.items() if c <= thr}
            assert got in light if light else got is None
            top = max(want.values())
            assert range_mode(seq, lo, hi) == (min(b for b, c in want.items() if c == top), top)
        lo = rng.randint(1, n)
        hi = rng.randint(lo, n)
        assert range_counts(seq, lo, hi) == dict(Counter(data[lo - 1:hi]))


def test_single_symbol_alphabet():
    seq = build([1] * 9)
    assert seq.sigma == 1 and seq.depth == 0
    assert seq.to_array().tolist() == [1] * 9
    assert prefix_count(seq, 1, 9) == 9
    assert range_counts(seq, 7, 7) == {1: 1}
    assert range_counts(seq, 2, 5) == {1: 4}
    assert range_counts(seq, 2, 5, 4) == {}
    assert range_minority(seq, 2, 5, 4) == (1, 4)
    assert range_minority(seq, 2, 5, 3) is None
    assert range_mode(seq, 2, 5) == (1, 4)
    assert len(seq.to_bytes()) == 8 + 4 + 1  # n, sigma and a zero width byte


# -- code shape ----------------------------------------------------------------------


def code_bits(seq) -> int:
    """Bits the levels hold: each occurrence walks its symbol's code."""
    return sum(int(c) * len(code) for c, code in zip(seq.counts, codes(seq)))


@pytest.mark.parametrize("sigma", [3, 8, 12])
def test_geometric_counts_stay_within_cap(sigma):
    # counts 1, 2, 4, ...: plain Huffman gives the rarest symbols sigma - 1 bits
    data = np.repeat(np.arange(1, sigma + 1), 1 << np.arange(sigma))
    np.random.default_rng(sigma).shuffle(data)
    seq = build(data)
    cap = math.ceil(math.log2(sigma)) + 1
    assert length_cap(sigma) == cap
    longest = max(len(code) for code in codes(seq))
    assert longest <= cap and seq.depth == longest
    if sigma - 1 > cap:
        assert longest == cap  # the cap binds
    assert seq.to_array().tolist() == data.tolist()
    for k in range(1, data.size + 1, 7):
        a = int(data[k - 1])
        assert range_counts(seq, k, k) == {a: 1}
        assert prefix_count(seq, a, k) == int((data[:k] == a).sum())


def test_code_lengths_are_optimal_within_cap():
    # against every complete prefix code of at most `cap` bits over 2..5 symbols
    rng = random.Random(11)
    for _ in range(60):
        sigma = rng.randint(2, 5)
        counts = np.asarray([rng.randint(1, 40) for _ in range(sigma)])
        cap = length_cap(sigma)
        best = min(
            sum(c * l for c, l in zip(counts, lens))
            for lens in itertools.product(range(1, cap + 1), repeat=sigma)
            if sum(2 ** (cap - l) for l in lens) == 2**cap
        )
        assert int((counts * code_lengths(counts)).sum()) == best


@pytest.mark.parametrize("sigma, skew", [(2, 1.1), (5, 0.0), (40, 1.1), (257, 1.3), (1000, 1.1)])
def test_codes_are_complete_and_end_in_blocks(sigma, skew):
    data = zipf_string(3000, sigma, skew=skew, seed=sigma).tolist()
    seq = build(data)
    sigma = seq.sigma
    by_symbol = codes(seq)
    cap = length_cap(sigma)
    assert all(1 <= len(c) <= cap for c in by_symbol)
    assert sum(2 ** (cap - len(c)) for c in by_symbol) == 2**cap  # Kraft equality
    # replay the matrix order: at every level the positions whose code ends
    # there lead the stable partition by the level's bit
    order = [by_symbol[v - 1] for v in data]
    for lvl in range(seq.depth):
        part = [c for c in order if c[lvl] == "0"] + [c for c in order if c[lvl] == "1"]
        ended = [len(c) == lvl + 1 for c in part]
        assert ended == sorted(ended, reverse=True), lvl
        order = [c for c in part if len(c) > lvl + 1]
    assert order == []
    # ending codes take the zero children first
    top = int(np.argmax(seq.counts)) + 1
    if len(by_symbol[top - 1]) == 1:
        assert by_symbol[top - 1] == "0"


@pytest.mark.parametrize("n, sigma, skew", [(5000, 40, 1.1), (20000, 256, 1.1),
                                            (3000, 1024, 1.3), (2000, 16, 2.0)])
def test_zipf_sequence_within_fixed_width_and_entropy(n, sigma, skew):
    seq = build(zipf_string(n, sigma, skew=skew, seed=1))
    bits = code_bits(seq)
    assert bits <= n * math.ceil(math.log2(seq.sigma))  # never above the fixed-width matrix
    assert bits <= n * (seq.entropy_h0() + 1)
    # headers: n, sigma, a width byte and at most a byte per code length;
    # per level its u64 bit length and at most one partly filled word
    assert 8 * len(seq.to_bytes()) <= bits + 8 * (13 + seq.sigma) + seq.depth * (64 + 64)


# -- operation accounting ----------------------------------------------------------


def test_tally_policy(canon_seq):
    # each walk returns its rank1 calls, two per trie node it splits; rank1
    # is the only sequence operation
    s = canon_seq
    assert s._split_walk(0, 11, 0)[1] == 2 * (s.sigma - 1)  # every internal node
    assert s._split_walk(0, 11, 11) == ({}, 0)  # no node can hold a symbol above 11
    assert s._minority_walk(0, 11, 0) == (None, 0)  # threshold 0: no symbol qualifies
    found, ranks = s._minority_walk(0, 11, 2)
    assert found == range_minority(s, 1, 11, 2)
    assert 2 <= ranks <= 2 * s.depth * 2
    # symbol 1's leaf hangs off the root
    assert s._mode_walk(0, 11) == (range_mode(s, 1, 11), 2)


@pytest.mark.parametrize("sigma", [5, 300, 70_000])
def test_tables_are_narrow(sigma):
    """The per-slot tables take the narrowest array type that holds every
    value they may hold, built and loaded: 'H' below 2**16, 'I' below
    2**32."""
    data = np.concatenate((np.arange(1, sigma + 1), np.ones(50, dtype=np.int64)))
    built = build(data)
    for seq in (built, WaveletSequence.read_from(ByteReader(built.to_bytes()))):
        for *_, least, top in seq._steps:
            assert least.typecode == ("H" if sigma <= 1 << 16 else "I")
            assert top.typecode == "H"
        assert np.array_equal(seq.to_array(), data)
        assert range_mode(seq, 1, data.size) == (1, 51)
    assert [_typecode(v) for v in (0, 2**16 - 1, 2**16, 2**32 - 1, 2**32)] == ["H", "H", "I", "I", "Q"]


# -- serialization and size ---------------------------------------------------------


@pytest.mark.parametrize("sigma", [1, 2, 3, 4, 16, 257])
@pytest.mark.parametrize("compressed", [False, True])
def test_bytes_round_trip(sigma, compressed):
    rng = random.Random(10 * sigma + compressed)
    n = 800
    # mostly symbol 1, where compressed mode once picked the sparse encoding
    data = [1 if rng.random() < 0.9 else rng.randint(1, sigma) for _ in range(n)]
    for a, k in zip(range(1, sigma + 1), rng.sample(range(n), sigma)):
        data[k] = a
    seq = bundle_seq(data, compressed)
    assert seq.to_bytes() == build(data).to_bytes()  # compressed is inert
    # a built matrix decodes its levels into a fresh array each time, so a
    # caller that changes one cannot change the next
    decoded = seq.to_array()
    assert decoded.tolist() == data
    decoded[:] = 0
    assert seq.to_array().tolist() == data
    blob = seq.to_bytes()
    back = WaveletSequence.read_from(ByteReader(blob))
    assert back.to_bytes() == blob
    assert back.n == seq.n and back.sigma == seq.sigma
    assert back.counts.tolist() == seq.counts.tolist()
    assert back.to_array().tolist() == seq.to_array().tolist() == data
    for k in range(1, n + 1, 17):
        lo = rng.randint(1, k)
        thr = rng.randint(0, k - lo + 1)
        assert range_counts(back, lo, k) == range_counts(seq, lo, k)
        assert range_counts(back, lo, k, thr) == range_counts(seq, lo, k, thr)
        assert range_minority(back, lo, k, thr) == range_minority(seq, lo, k, thr)


@pytest.mark.parametrize("n,sigma", [(5000, 657), (20000, 953)])
def test_plain_size_envelope(n, sigma):
    rng = random.Random(n)
    data = [rng.randint(1, sigma) for _ in range(n)]
    for a, k in zip(range(1, sigma + 1), rng.sample(range(n), sigma)):
        data[k] = a
    seq = build(data)
    cap = 1.25 * n * math.ceil(math.log2(sigma)) + 8192
    assert 8 * len(seq.to_bytes()) <= cap


def test_compressed_no_larger_on_skewed_data():
    """The compressed option is inert: on input where it once stored sparse
    levels (3,000 of 3,200 symbols equal; format 7 held 2,952 sequence
    bits compressed against 4,816 plain), it builds a sequence
    byte-identical to the plain one, 4,696 bits in formats 8 and 9 and
    4,376 since format 10 dropped its five levels' u64 bit lengths."""
    rng = random.Random(3)
    data = [1] * 3000 + [rng.randint(2, 16) for _ in range(200)]
    rng.shuffle(data)
    for a, k in zip(range(2, 17), rng.sample(range(len(data)), 15)):
        data[k] = a
    plain = bundle_seq(data, False)
    comp = bundle_seq(data, True)
    assert comp.to_bytes() == plain.to_bytes()
    assert comp.depth == 5
    assert 8 * len(comp.to_bytes()) == 8 * len(plain.to_bytes()) == 4376
    assert comp.to_array().tolist() == data


# -- properties ---------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=120), st.data())
def test_rank_select_inverse(values, data):
    # the r-th occurrence of a is where a's prefix count steps from r - 1 to r
    sigma = max(values)
    values = values + list(range(1, sigma + 1))  # densify
    seq = build(values)
    a = data.draw(st.integers(1, sigma))
    where = [i + 1 for i, v in enumerate(values) if v == a]
    r = data.draw(st.integers(1, len(where)))
    p = where[r - 1]
    assert prefix_count(seq, a, p) == r
    assert prefix_count(seq, a, p - 1) == r - 1
    assert range_counts(seq, p, p) == {a: 1}


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=80))
def test_partial_rank_matches_rank(values):
    # a position's symbol and its count in the prefix up to it, from walks
    values = values + [1, 2, 3, 4]
    seq = build(values)
    for k in range(1, len(values) + 1):
        a = values[k - 1]
        assert range_counts(seq, k, k) == {a: 1}
        assert prefix_count(seq, a, k) == values[:k].count(a)
