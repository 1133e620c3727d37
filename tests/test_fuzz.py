"""Seeded mutations of whole index files: refused, or answered right.

Each mutated file must either raise `FormatError` on load or answer
rounds of majority, minority and mode queries exactly as `bincount`
over the original input does.  A raw exception or a wrong answer fails
the test.  Run with -s to see how the mutations split.

The payload's CRC32 refuses nearly every such mutation, so the resealed
mutations recompute it after changing the payload and reach the
structural checks behind it.  A file that passes them must
be a valid index of some sequence: it answers exactly as `bincount`
over its own decoded sequence (`to_array`) does, and its load allocates
at most a fixed multiple of the file's size.
"""

import random
import tracemalloc

import numpy as np
import pytest

from rfq import IndexConfig, threshold_count
from rfq.corpus import zipf_string
from rfq.errors import FormatError
from rfq.indexfile import IndexBundle
from rfq.serial import seal, unseal

MUTATIONS = 400
ROUNDS = 8
RESEALED = 500  # resealed mutations per file kind
LOAD_PEAK = 16  # a load's allocation peak, in file sizes


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
    """Whether random queries answer as `bincount` over data, the dense
    sequence, does, each symbol in the bundle's own labels."""
    n = data.size
    label = bundle.to_original
    for _ in range(ROUNDS):
        lo = rng.randint(1, n)
        hi = rng.randint(lo, n)
        tau = rng.choice([1.0, 0.5, 0.25, 0.1, 0.03, 0.01])
        counts = np.bincount(data[lo - 1:hi])
        thr = threshold_count(tau, hi - lo + 1)
        if bundle.query_majorities(lo, hi, tau) != \
                [(label(a), int(c)) for a, c in enumerate(counts) if c > thr]:
            return False
        got = bundle.query_minority(lo, hi, tau)
        light = np.flatnonzero((counts >= 1) & (counts <= thr))
        if got is None:
            if light.size:
                return False
        elif got not in {(label(int(a)), int(counts[a])) for a in light}:
            return False
        if bundle.query_mode(lo, hi) != (label(int(counts.argmax())), int(counts.max())):
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


def resealed(blob: bytes, rng: random.Random, i: int) -> bytes:
    """The i-th resealed mutation: in the file's payload, a bit flip, a
    byte written among its first 64 bytes or an 8-byte overwrite, with
    the payload's CRC32 recomputed."""
    out = bytearray(unseal(blob))
    kind = i % 3
    if kind == 0:
        bit = rng.randrange(8 * len(out))
        out[bit // 8] ^= 1 << bit % 8
    elif kind == 1:
        out[rng.randrange(min(64, len(out)))] = rng.randrange(256)
    else:
        at = rng.randrange(max(len(out) - 7, 1))
        width = min(8, len(out) - at)
        out[at:at + width] = rng.randbytes(width)
    return seal(bytes(out))


def fuzz_input(kind: str) -> IndexBundle:
    data = zipf_string(3000, 40, skew=1.1, seed=22)
    if kind == "dense":
        return IndexBundle.from_values(data)
    if kind == "ints":  # gaps: the remap table holds each value
        return IndexBundle.from_values(data * 1000 - 7)
    if kind == "tokens":
        return IndexBundle.from_tokens([f"w{a}" for a in data])
    # geometric counts: codes as long as the length cap allows
    deep = np.repeat(np.arange(1, 13), 2 ** np.arange(11, -1, -1))
    np.random.default_rng(12).shuffle(deep)
    return IndexBundle.from_values(deep)


@pytest.mark.parametrize("kind", ["dense", "ints", "tokens", "deep"])
def test_resealed_files_are_refused_or_valid(kind):
    original = fuzz_input(kind)
    blob = original.to_bytes()
    labels = [original.to_original(a) for a in original.seq.to_array().tolist()]
    rng = random.Random(f"resealed-{kind}")
    refused = same = other = 0
    worst = 0.0
    for i in range(RESEALED):
        bad = resealed(blob, rng, i)
        tracemalloc.start()
        try:
            bundle = IndexBundle.from_bytes(bad)
            peak = tracemalloc.get_traced_memory()[1]
        except FormatError:
            refused += 1
            continue
        finally:
            tracemalloc.stop()
        worst = max(worst, peak / len(bad))
        assert peak <= LOAD_PEAK * len(bad), (i, peak, len(bad))
        decoded = bundle.seq.to_array()
        assert answers_right(bundle, decoded, rng), i
        if [bundle.to_original(a) for a in decoded.tolist()] == labels:
            same += 1
        else:
            other += 1
    print(f"\n{kind} ({len(blob)} bytes): {refused} FormatError, {same} decoded to the "
          f"original sequence, {other} to another, of {RESEALED}; load peak at most "
          f"{worst:.1f} times the file")
    assert refused and other  # both outcomes are reached
