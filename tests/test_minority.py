"""Range minority queries: some element present but below the threshold."""

import math
import random

import numpy as np
import pytest

from rfq import IndexConfig, oracle, threshold_count
from rfq.corpus import uniform_string, zipf_string
from rfq.errors import DomainError, RangeError
from rfq.indexfile import IndexBundle

CANON = [1, 2, 3, 1, 4, 1, 5, 1, 2, 3, 1]


def dense_bundle(data, cfg):
    """A bundle over data holding every symbol 1..max, whose dense symbols
    are the data's own."""
    assert np.array_equal(np.unique(data), np.arange(1, max(data) + 1))
    return IndexBundle.from_values(data, cfg)


def minority_index(data, cfg):
    """The minority side of dense_bundle(data, cfg)."""
    return dense_bundle(data, cfg).minority


@pytest.fixture(scope="module")
def canon_bundle():
    return dense_bundle(CANON, IndexConfig(trade=1))


@pytest.fixture(scope="module")
def canon_min(canon_bundle):
    return canon_bundle.minority


@pytest.fixture(scope="module")
def canon_g2():
    # trade is inert: this index answers like canon_min
    return minority_index(CANON, IndexConfig(trade=2))


def walk_cap(tau: float, depth: int) -> int:
    """rank1 calls of one minority walk: two per expanded heavy node, fewer
    than ceil(1/tau) a level, plus two a level on the way down to the
    witness."""
    return 2 * depth * math.ceil(1 / tau)


def test_frozen(canon_min, canon_bundle):
    assert canon_min.query_minority(4, 8, 0.5) in ((4, 1), (5, 1))
    # threshold 0 admits nothing
    assert canon_min.query_minority(1, 11, 0.05) is None
    got, trace = canon_bundle.explain("minority", 1, 11, 0.05)
    assert got is None and trace.path == "empty"
    # at tau = 1 every element is a minority; some element comes back
    got = canon_min.query_minority(1, 11, 1.0)
    assert got in oracle.oracle_minorities(CANON, 1, 11, 1.0)
    # single-position range
    assert canon_min.query_minority(5, 5, 1.0) == (4, 1)


def test_canon_agrees_with_oracle(canon_min, canon_g2):
    for lo in range(1, 12):
        for hi in range(lo, 12):
            for tau in (1.0, 0.51, 0.4, 0.2, 0.08):
                want = oracle.oracle_minorities(CANON, lo, hi, tau)
                for idx in (canon_min, canon_g2):
                    got = idx.query_minority(lo, hi, tau)
                    if want:
                        assert got in want, (lo, hi, tau, got)
                    else:
                        assert got is None, (lo, hi, tau, got)


def test_validation(canon_min):
    with pytest.raises(RangeError):
        canon_min.query_minority(0, 4, 0.5)
    with pytest.raises(RangeError):
        canon_min.query_minority(2, 12, 0.5)
    with pytest.raises(DomainError):
        canon_min.query_minority(1, 4, 0.0)
    with pytest.raises(DomainError):
        canon_min.query_minority(1, 4, 2.0)


def test_small_index_has_no_families():
    # the index is the sequence alone at every trade, however short the input
    bundle = dense_bundle(CANON, IndexConfig(trade=2))
    assert bundle.explain("minority", 4, 8, 0.5)[1].path == "walk"
    assert not hasattr(bundle.minority, "distinct_flags")


def test_flagged_path_serves_tier_zero():
    # tau = 1.0 makes every present symbol a minority: the walk goes
    # straight down from the root, two rank1 calls a level
    data = uniform_string(256, 4, seed=3)
    bundle = dense_bundle(data, IndexConfig(trade=2))
    got, trace = bundle.explain("minority", 65, 128, 1.0)
    assert trace.path == "walk"
    assert got in oracle.oracle_minorities(data.tolist(), 65, 128, 1.0)
    assert trace.ranks <= 2 * bundle.seq.depth


@pytest.mark.parametrize("trade, lo, hi, tau, old_path", [
    (1, 65, 128, 0.5, "listing"),  # g = 1 always listed
    (2, 65, 128, 0.5, "flagged"),  # family (1, 6) covered the range
    (2, 10, 17, 0.5, "sequential"),  # scale 3 was below the tier-1 cutoff
    (2, 65, 128, 0.2, "listing"),  # tau < 1/sigma
])
def test_dispatch_path_per_config(trade, lo, hi, tau, old_path):
    """Every config and range that took old_path now takes the walk."""
    data = uniform_string(256, 4, seed=3)
    bundle = IndexBundle.from_values(data, IndexConfig(trade=trade))
    got, trace = bundle.explain("minority", lo, hi, tau)
    assert trace.path == "walk"
    want = oracle.oracle_minorities(data.tolist(), lo, hi, tau)
    assert got in want if want else got is None


def test_distinct_families_only_above_trade_one():
    # no trade builds families, and none is stored: the files are the same
    data = uniform_string(256, 4, seed=3)
    one = IndexBundle.from_values(data, IndexConfig(trade=1))
    two = IndexBundle.from_values(data, IndexConfig(trade=2))
    assert one.size_report() == two.size_report()
    assert one.to_bytes() == two.to_bytes()


@pytest.mark.parametrize("cfg, seed", [
    (IndexConfig(trade=1), 164),
    (IndexConfig(trade=4, compressed=True), 464),
    (IndexConfig(trade=1), 104),
    (IndexConfig(trade=2), 204),
], ids=["cfg0", "cfg1", "cfg2", "cfg3"])
def test_random_vs_oracle(cfg, seed):
    rng = random.Random(seed)
    for trial in range(8):
        n = rng.choice([2, 29, 64, 200, 600])
        sigma = min(n, rng.choice([2, 6, 40]))
        data = zipf_string(n, sigma, skew=1.1, seed=trial) \
            if trial % 2 else uniform_string(n, sigma, seed=trial)
        sigma_eff = int(data.max())
        bundle = IndexBundle.from_values(data, cfg)
        ref = data.tolist()
        for _ in range(30):
            lo = rng.randint(1, n)
            hi = rng.randint(lo, n)
            tau = rng.choice([1.0, 0.9, 0.5, 0.2,
                              1.0 / sigma_eff, 0.5 / sigma_eff,
                              rng.randint(1, hi - lo + 1) / (hi - lo + 1)])
            want = oracle.oracle_minorities(ref, lo, hi, tau)
            got, d = bundle.explain("minority", lo, hi, tau)
            if want:
                assert got in want, (n, lo, hi, tau)
            else:
                assert got is None, (n, lo, hi, tau)
            cap = 64 * math.ceil(1.0 / tau) * cfg.trade * cfg.trade
            assert d.ranks <= cap
            # returned-or-verified candidates stay near the majority count
            assert d.candidates <= 64 * math.ceil(1.0 / tau) + sigma_eff


def test_listing_path_ops_per_candidate():
    """A minority query is one walk: rank1 calls only, within walk_cap,
    and the witness's count is exact."""
    data = zipf_string(200_000, 256, skew=1.1, seed=1)
    bundle = IndexBundle.from_values(data, IndexConfig(trade=1))
    depth = bundle.seq.depth
    rng = random.Random(1)
    walked = 0
    for _ in range(400):
        length = min(data.size, int(2 ** rng.uniform(4, math.log2(data.size))))
        lo = rng.randint(1, data.size - length + 1)
        hi = lo + length - 1
        tau = rng.choice([0.5, 0.3, 0.1, 0.02, 0.005])
        got, d = bundle.explain("minority", lo, hi, tau)
        counts = np.bincount(data[lo - 1:hi])
        thr = threshold_count(tau, length)
        if got is None:
            assert not ((counts >= 1) & (counts <= thr)).any()
        else:
            assert 1 <= counts[got[0]] == got[1] <= thr
        if d.path != "walk":
            continue
        walked += 1
        assert d.ranks <= walk_cap(tau, depth)
    assert walked >= 300


def test_boundary_exact_count_is_minority():
    # count == tau * len exactly makes the element a minority, not a majority
    data = np.asarray([1, 2, 1, 3])
    bundle = IndexBundle.from_values(data)
    got = bundle.query_minority(1, 4, 0.5)
    assert got in [(1, 2), (2, 1), (3, 1)]
    assert bundle.query_majorities(1, 4, 0.5) == []


def test_diagnostics_kind(canon_bundle):
    got, d = canon_bundle.explain("minority", 1, 11, 0.5)
    assert got == canon_bundle.query_minority(1, 11, 0.5)
    assert d.kind == "minority"
    assert (d.lo, d.hi, d.tau) == (1, 11, 0.5)
    assert d.as_dict()["kind"] == "minority"
