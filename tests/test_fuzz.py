"""Seeded mutations of whole index files: refused, or answered right.

Each mutated file must either raise `FormatError` on load or answer
rounds of majority, minority and mode queries exactly as `bincount`
over the original input does.  A raw exception or a wrong answer fails
the test.  Run with -s to see how the mutations split.
"""

import random

import numpy as np
import pytest

from rfq import IndexConfig, threshold_count
from rfq.corpus import zipf_string
from rfq.errors import FormatError
from rfq.indexfile import IndexBundle

MUTATIONS = 400
ROUNDS = 8


def mutate(blob: bytes, rng: random.Random, i: int) -> bytes:
    """The i-th mutation: a bit flip, a truncation or an 8-byte overwrite."""
    kind = i % 3
    if kind == 0:
        bit = rng.randrange(8 * len(blob))
        out = bytearray(blob)
        out[bit // 8] ^= 1 << bit % 8
        return bytes(out)
    if kind == 1:
        return blob[:rng.randrange(len(blob))]
    at = rng.randrange(len(blob) - 7)
    return blob[:at] + rng.randbytes(8) + blob[at + 8:]


def answers_right(bundle, data, rng) -> bool:
    n = data.size
    for _ in range(ROUNDS):
        lo = rng.randint(1, n)
        hi = rng.randint(lo, n)
        tau = rng.choice([1.0, 0.5, 0.25, 0.1, 0.03, 0.01])
        counts = np.bincount(data[lo - 1:hi])
        thr = threshold_count(tau, hi - lo + 1)
        if bundle.query_majorities(lo, hi, tau) != \
                [(a, int(c)) for a, c in enumerate(counts) if c > thr]:
            return False
        got = bundle.query_minority(lo, hi, tau)
        light = (counts >= 1) & (counts <= thr)
        if got is None:
            if light.any():
                return False
        elif not (got[0] < counts.size and light[got[0]] and counts[got[0]] == got[1]):
            return False
        if bundle.query_mode(lo, hi) != (int(counts.argmax()), int(counts.max())):
            return False
    return True


@pytest.mark.parametrize("compressed", [False, True], ids=["plain", "compressed"])
def test_mutated_files_are_refused_or_answer_right(compressed):
    data = zipf_string(3000, 40, skew=1.1, seed=22)
    blob = IndexBundle.from_values(data, IndexConfig(compressed=compressed)).to_bytes()
    rng = random.Random(400 + compressed)
    refused = right = wrong = 0
    for i in range(MUTATIONS):
        bad = mutate(blob, rng, i)
        try:
            bundle = IndexBundle.from_bytes(bad)
        except FormatError:
            refused += 1
            continue
        if answers_right(bundle, data, rng):
            right += 1
        else:
            wrong += 1
    print(f"\n{'compressed' if compressed else 'plain'}: {refused} FormatError, "
          f"{right} right, {wrong} wrong of {MUTATIONS}")
    assert refused + right == MUTATIONS
    assert wrong == 0
