"""Seeded inputs and independent expected answers for the rfq benchmark.

Every corpus and query list is drawn here from a numpy ``Generator``; the
program under test only ever receives the generated values or tokens.
Expected answers come from a ``numpy.bincount`` of the raw slice, never
from the index, so a wrong answer cannot hide behind a shared code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

KINDS = ("majority", "minority", "mode")
TAUS = tuple(2.0 ** -s for s in range(1, 7))
MIN_RANGE = 64


@dataclass(frozen=True)
class Query:
    kind: str
    lo: int  # 1-based, inclusive
    hi: int
    tau: float | None  # None for mode


@dataclass
class Corpus:
    """Input handed to the program plus the ids the checker counts with.

    ``ids`` holds one small non-negative integer per position; ``decode``
    maps an id back to the symbol the program reports (the value itself,
    or the token string).
    """

    payload: object  # np.ndarray of values, or list[str] of tokens
    ids: np.ndarray
    vocab: list[str] | None = None

    @property
    def n(self) -> int:
        return int(self.ids.size)

    def decode(self, i: int):
        return int(i) if self.vocab is None else self.vocab[int(i)]

    def encode(self, symbol) -> int:
        if self.vocab is None:
            return int(symbol)
        return self._index[symbol]

    def __post_init__(self):
        self._index = None if self.vocab is None else {t: i for i, t in enumerate(self.vocab)}


# -- corpora -------------------------------------------------------------------


def zipf_weights(sigma: int, skew: float) -> np.ndarray:
    w = 1.0 / np.arange(1, sigma + 1, dtype=np.float64) ** skew
    return w / w.sum()


def zipf_values(rng: np.random.Generator, n: int, sigma: int, skew: float = 1.1) -> Corpus:
    vals = rng.choice(np.arange(1, sigma + 1, dtype=np.int64), size=n, p=zipf_weights(sigma, skew))
    return Corpus(vals, vals)


def uniform_values(rng: np.random.Generator, n: int, sigma: int) -> Corpus:
    vals = rng.integers(1, sigma + 1, size=n, dtype=np.int64)
    return Corpus(vals, vals)


def geometric_runs(rng: np.random.Generator, n: int, sigma: int, mean_run: int) -> Corpus:
    """Runs of one symbol each, run lengths 1 + Geometric(1 / mean_run)."""
    pieces, total = [], 0
    while total < n:
        runs = 1 + rng.geometric(1.0 / mean_run, size=n // mean_run + 16)
        syms = rng.integers(1, sigma + 1, size=runs.size, dtype=np.int64)
        pieces.append(np.repeat(syms, runs))
        total += int(runs.sum())
    vals = np.concatenate(pieces)[:n]
    return Corpus(vals, vals)


def token_stream(rng: np.random.Generator, n: int, vocab_size: int, skew: float = 1.1) -> Corpus:
    """Zipf-distributed words over a random vocabulary of lowercase words.

    Word frequency rank is independent of spelling, so lexicographic order
    (the order the program breaks ties in) is not frequency order.
    """
    words: set[str] = set()
    while len(words) < vocab_size:
        length = int(rng.integers(3, 10))
        words.add("".join(chr(97 + c) for c in rng.integers(0, 26, size=length)))
    vocab = sorted(words)
    rank_to_id = rng.permutation(vocab_size)
    ids = rank_to_id[rng.choice(vocab_size, size=n, p=zipf_weights(vocab_size, skew))]
    return Corpus([vocab[i] for i in ids], ids.astype(np.int64), vocab)


# -- queries -------------------------------------------------------------------


def stratum_lengths(n: int, strata: int) -> list[int]:
    """Midpoints of equal strata of the log-uniform law on [MIN_RANGE, n].

    Fixed midpoints instead of random draws give every seed the same mix of
    range classes, so quantiles move with the program, not with the draw.
    """
    lo, hi = math.log2(MIN_RANGE), math.log2(n)
    return [int(round(2 ** (lo + (hi - lo) * (j + 0.5) / strata))) for j in range(strata)]


def query_grid(rng: np.random.Generator, n: int, strata: int, positions=None) -> list[Query]:
    """Queries at random positions for every (kind, tau, length stratum), shuffled.

    positions maps a kind to the number of ranges per cell (default 1).
    Mode takes no tau; it gets as many cells as the other kinds so the
    three kinds are sampled alike.
    """
    positions = positions or {}
    out = []
    for kind in KINDS:
        for length in stratum_lengths(n, strata):
            for tau in TAUS:
                for _ in range(positions.get(kind, 1)):
                    lo = int(rng.integers(1, n - length + 2))
                    out.append(Query(kind, lo, lo + length - 1, None if kind == "mode" else tau))
    return [out[i] for i in rng.permutation(len(out))]


def ready_probes(n: int) -> list[Query]:
    """The first query of each kind after a cold load: whole range, smallest tau."""
    return [
        Query("majority", 1, n, TAUS[-1]),
        Query("minority", 1, n, TAUS[-1]),
        Query("mode", 1, n, None),
    ]


def run_query(bundle, q: Query):
    if q.kind == "majority":
        return bundle.query_majorities(q.lo, q.hi, q.tau)
    if q.kind == "minority":
        return bundle.query_minority(q.lo, q.hi, q.tau)
    return bundle.query_mode(q.lo, q.hi)


# -- expected answers ------------------------------------------------------------


def expected_answer(corpus: Corpus, q: Query):
    """What a correct index must answer, from a histogram of the raw slice.

    Majority: the exact sorted (symbol, count) list.  Minority: the slice
    histogram and threshold, because any valid witness is accepted.  Mode:
    the exact (symbol, count), ties to the lowest symbol.
    """
    counts = np.bincount(corpus.ids[q.lo - 1 : q.hi])
    if q.kind == "mode":
        best = int(np.argmax(counts))
        return corpus.decode(best), int(counts[best])
    thr = int(math.floor(q.tau * (q.hi - q.lo + 1)))
    if q.kind == "majority":
        return [(corpus.decode(s), int(counts[s])) for s in np.flatnonzero(counts > thr)]
    return counts, thr


def is_correct(corpus: Corpus, q: Query, expected, got) -> bool:
    if q.kind == "majority":
        return [(s, int(c)) for s, c in got] == expected
    if q.kind == "mode":
        return (got[0], int(got[1])) == expected
    counts, thr = expected
    if got is None:
        return not bool(np.any((counts >= 1) & (counts <= thr)))
    symbol, occ = got
    try:
        i = corpus.encode(symbol)
    except KeyError:
        return False
    have = int(counts[i]) if 0 <= i < counts.size else 0
    return int(occ) == have and 1 <= have <= thr
