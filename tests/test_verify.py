"""Randomized verification against the oracle."""

import random

import numpy as np
import pytest

from rfq import DomainError, IndexConfig, oracle, verify_index
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


def test_verify_needs_a_query():
    # zero or fewer queries check nothing, so there is no "ok" to report
    bundle = IndexBundle.from_values([1, 2, 1])
    for count in (0, -5):
        with pytest.raises(DomainError, match="at least 1"):
            verify_index(bundle, queries=count)


def test_tau_pool_domain():
    rng = random.Random(1)
    for _ in range(3000):
        tau = _tau_pool(rng, rng.randint(1, 500))
        assert 0.0 < tau <= 1.0


def test_fault_injection_produces_witness(monkeypatch):
    # walks that miscount symbol 1 by one: verification reports witness
    # queries, each with the index's answer and the oracle's
    data = np.asarray([(i // 8) % 8 + 1 for i in range(512)])
    bundle = IndexBundle.from_values(data, IndexConfig(trade=1))
    seq_type = type(bundle.seq)
    walk, mode_walk = seq_type._split_walk, seq_type._mode_walk

    def faulty(seq, cl, cr, thr):
        out, ranks = walk(seq, cl, cr, thr)
        if 1 in out:
            out[1] += 1
        return out, ranks

    def faulty_mode(seq, cl, cr):
        (a, occ), ranks = mode_walk(seq, cl, cr)
        return (a, occ + (a == 1)), ranks

    monkeypatch.setattr(seq_type, "_split_walk", faulty)
    monkeypatch.setattr(seq_type, "_mode_walk", faulty_mode)
    rep = verify_index(bundle, queries=300, seed=0)
    assert not rep.ok
    kinds = {mm["kind"] for mm in rep.mismatches}
    assert kinds == {"majority", "mode"}  # minority walks go through neither
    for mm in rep.mismatches:
        if mm["kind"] == "majority":
            lo, hi, tau = mm["lo"], mm["hi"], mm["tau"]
            assert mm["want"] == oracle.oracle_majorities(data.tolist(), lo, hi, tau)
        else:
            assert mm["want"] == oracle.oracle_mode(data.tolist(), mm["lo"], mm["hi"])
        assert mm["got"] != mm["want"]


def test_fault_injection_honest_none():
    # verification only reads: a clean bundle reports no mismatch and its
    # bytes do not change
    data = np.arange(300) % 2 + 1
    bundle = IndexBundle.from_values(data, IndexConfig(trade=1))
    blob = bundle.to_bytes()
    rep = verify_index(bundle, queries=800, seed=0)
    assert rep.ok and rep.mismatches == []
    assert bundle.to_bytes() == blob


def test_verify_reports_seeded_and_reproducible():
    data = zipf_string(200, 6, seed=2)
    bundle = IndexBundle.from_values(data)
    a = verify_index(bundle, queries=150, seed=42)
    b = verify_index(bundle, queries=150, seed=42)
    assert a.seed == b.seed == 42
    assert a.ok and b.ok
