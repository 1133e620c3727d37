"""Randomized verification and targeted fault injection."""

import random

import numpy as np

from rfq import IndexConfig, inject_fault, oracle, verify_index
from rfq.corpus import zipf_string
from rfq.indexfile import IndexBundle
from rfq.verify import _tau_pool


def test_clean_bundle_verifies():
    data = zipf_string(600, 12, skew=1.2, seed=9)
    bundle = IndexBundle.from_values(data, IndexConfig(trade=2))
    rep = verify_index(bundle, queries=800, seed=3)
    assert rep.ok
    assert rep.queries == 800
    assert rep.mismatches == []
    assert rep.elapsed_s > 0
    assert rep.summary().endswith("ok")
    assert "800 queries" in rep.summary()


def test_tau_pool_domain():
    rng = random.Random(1)
    for _ in range(3000):
        tau = _tau_pool(rng, rng.randint(1, 500))
        assert 0.0 < tau <= 1.0


def test_fault_injection_produces_witness():
    # runs of eight never cross a candidate block boundary: a majority whose
    # only run in the range's blocks straddles a range edge leaves exactly
    # one flag inside the range
    data = np.asarray([(i // 8) % 8 + 1 for i in range(512)])
    bundle = IndexBundle.from_values(data, IndexConfig(trade=1))
    witness = inject_fault(bundle, seed=0)
    assert witness is not None
    for key in ("family", "removed_bit", "lo", "hi", "tau", "got", "want"):
        assert key in witness
    lo, hi, tau = witness["lo"], witness["hi"], witness["tau"]
    # the bundle keeps the fault: replaying the witness query reproduces it
    got = bundle.majority.query_majorities(lo, hi, tau)
    want = oracle.oracle_majorities(data.tolist(), lo, hi, tau)
    assert got == witness["got"]
    assert want == witness["want"]
    assert got != want
    removed_sym = int(data[witness["removed_bit"] - 1])
    assert removed_sym in {a for a, _ in want}
    assert removed_sym not in {a for a, _ in got}


def test_fault_injection_honest_none():
    # 1, 2, 1, 2, ...: each symbol's flags in a block sit within its first
    # two and last two positions, so a range of a covered scale (at least
    # eight long) holds two flags of each symbol, both ends of the block it
    # equals or both sides of a boundary it crosses; no single bit removal
    # can change an answer
    data = np.arange(300) % 2 + 1
    bundle = IndexBundle.from_values(data, IndexConfig(trade=1))
    blob = bundle.to_bytes()
    assert inject_fault(bundle, seed=0, samples=800) is None
    assert bundle.to_bytes() == blob  # untouched when no witness exists


def test_verify_reports_seeded_and_reproducible():
    data = zipf_string(200, 6, seed=2)
    bundle = IndexBundle.from_values(data, IndexConfig())
    a = verify_index(bundle, queries=150, seed=42)
    b = verify_index(bundle, queries=150, seed=42)
    assert a.seed == b.seed == 42
    assert a.ok and b.ok
