"""The brute-force reference itself, pinned by hand-checked values."""

import pytest
from hypothesis import given, strategies as st

from rfq import oracle


def test_counts_frozen(canon):
    assert oracle.oracle_counts(canon, 4, 8) == {1: 3, 4: 1, 5: 1}
    assert oracle.oracle_counts(canon, 6, 6) == {1: 1}


def test_majorities_frozen(canon):
    assert oracle.oracle_majorities(canon, 4, 8, 0.5) == [(1, 3)]
    # 1 occurs 5 times in 11; 5 > floor(0.5 * 11) = 5 is false
    assert oracle.oracle_majorities(canon, 1, 11, 0.5) == []
    assert oracle.oracle_majorities(canon, 1, 11, 0.2) == [(1, 5)]
    assert oracle.oracle_majorities(canon, 1, 11, 1.0) == []
    # tiny tau returns every element
    assert oracle.oracle_majorities(canon, 1, 11, 0.05) == [
        (1, 5), (2, 2), (3, 2), (4, 1), (5, 1)]


def test_minorities_frozen(canon):
    assert oracle.oracle_minorities(canon, 4, 8, 0.5) == [(4, 1), (5, 1)]
    # everything is a minority at tau = 1.0
    assert oracle.oracle_minorities(canon, 1, 11, 1.0) == [
        (1, 5), (2, 2), (3, 2), (4, 1), (5, 1)]
    # threshold 0 leaves no valid minority
    assert oracle.oracle_minorities(canon, 1, 11, 0.05) == []


def test_mode_frozen(canon):
    assert oracle.oracle_mode(canon, 1, 11) == (1, 5)
    assert oracle.oracle_mode(canon, 2, 3) == (2, 1)
    # ties break toward the smaller element
    assert oracle.oracle_mode([2, 1, 1, 2], 1, 4) == (1, 2)
    assert oracle.oracle_mode([9, 9, 3, 3], 1, 4) == (3, 2)


def test_threshold_frozen():
    assert oracle.majority_threshold(0.5, 4) == 2
    assert oracle.majority_threshold(1.0, 7) == 7
    assert oracle.majority_threshold(0.05, 11) == 0
    # exact boundary: tau * len integral
    assert oracle.majority_threshold(3 / 8, 8) == 3
    assert oracle.majority_threshold(1 / 2048, 2048) == 1


def test_distinct_with_leftmost_frozen(canon):
    assert oracle.oracle_distinct_with_leftmost(canon, 4, 8) == {
        (1, 4), (4, 5), (5, 7)}
    assert oracle.oracle_distinct_with_leftmost(canon, 1, 1) == {(1, 1)}


def test_validation(canon):
    with pytest.raises(IndexError):
        oracle.oracle_counts(canon, 0, 5)
    with pytest.raises(IndexError):
        oracle.oracle_counts(canon, 3, 12)
    with pytest.raises(IndexError):
        oracle.oracle_counts(canon, 6, 5)
    with pytest.raises(ValueError):
        oracle.oracle_majorities(canon, 1, 5, 0.0)
    with pytest.raises(ValueError):
        oracle.oracle_minorities(canon, 1, 5, 1.5)


@given(
    st.lists(st.integers(1, 9), min_size=1, max_size=60),
    st.data(),
)
def test_majority_minority_partition(seq, data):
    """Majorities and minorities split the distinct elements exactly."""
    lo = data.draw(st.integers(1, len(seq)))
    hi = data.draw(st.integers(lo, len(seq)))
    tau = data.draw(st.floats(0.001, 1.0, allow_nan=False))
    thr = oracle.majority_threshold(tau, hi - lo + 1)
    majors = oracle.oracle_majorities(seq, lo, hi, tau)
    minors = oracle.oracle_minorities(seq, lo, hi, tau)
    counts = oracle.oracle_counts(seq, lo, hi)
    assert all(c > thr for _, c in majors)
    assert all(1 <= c <= thr for _, c in minors)
    assert {a for a, _ in majors} | {a for a, _ in minors} == set(counts)
    assert not ({a for a, _ in majors} & {a for a, _ in minors})
    mode_sym, mode_occ = oracle.oracle_mode(seq, lo, hi)
    assert mode_occ == max(counts.values())
    assert counts[mode_sym] == mode_occ
