"""Brute-force reference answers for range frequency queries.

Everything here works directly on the raw integer sequence with plain
counting.  This module must stay independent of the index implementation;
the test suite uses it as the ground truth the index is checked against.

Positions are 1-based and ranges are inclusive on both ends, matching the
public query API.
"""

from __future__ import annotations

import math
from collections import Counter


def _check_range(seq, lo: int, hi: int) -> None:
    if not (1 <= lo <= hi <= len(seq)):
        raise IndexError(f"bad range [{lo}, {hi}] for length {len(seq)}")


def oracle_counts(seq, lo: int, hi: int) -> dict[int, int]:
    """Occurrence count of every element present in seq[lo..hi]."""
    _check_range(seq, lo, hi)
    counts = Counter()
    for k in range(lo - 1, hi):
        counts[int(seq[k])] += 1
    return dict(counts)


def majority_threshold(tau: float, length: int) -> int:
    """Occurrences must strictly exceed this to make an element a majority.

    Uses the same floating-point expression as the index so the two sides
    can never disagree on boundary cases.
    """
    return math.floor(tau * length)


def oracle_majorities(seq, lo: int, hi: int, tau: float) -> list[tuple[int, int]]:
    """All (element, count) pairs with relative frequency > tau, sorted."""
    if not (0.0 < tau <= 1.0):
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    thr = majority_threshold(tau, hi - lo + 1)
    counts = oracle_counts(seq, lo, hi)
    return sorted((a, c) for a, c in counts.items() if c > thr)


def oracle_minorities(seq, lo: int, hi: int, tau: float) -> list[tuple[int, int]]:
    """All (element, count) pairs that occur but are not tau-majorities."""
    if not (0.0 < tau <= 1.0):
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    thr = majority_threshold(tau, hi - lo + 1)
    counts = oracle_counts(seq, lo, hi)
    return sorted((a, c) for a, c in counts.items() if 1 <= c <= thr)


def oracle_mode(seq, lo: int, hi: int) -> tuple[int, int]:
    """Most frequent element, smallest element winning ties."""
    counts = oracle_counts(seq, lo, hi)
    best = max(counts.items(), key=lambda ac: (ac[1], -ac[0]))
    return best


def oracle_distinct_with_leftmost(seq, lo: int, hi: int) -> set[tuple[int, int]]:
    """(element, leftmost position) for every distinct element in range."""
    _check_range(seq, lo, hi)
    seen: dict[int, int] = {}
    for k in range(lo, hi + 1):
        a = int(seq[k - 1])
        if a not in seen:
            seen[a] = k
    return {(a, p) for a, p in seen.items()}
