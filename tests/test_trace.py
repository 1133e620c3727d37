"""Queries are stateless: a trace is made only on request, and nothing a
query does is stored on the bundle, its index objects or its sequence."""

import pickle
import sys
import threading

import pytest

from rfq import DomainError, IndexBundle
from rfq.corpus import zipf_string

QUERIES = [
    ("majority", 1, 3000, 0.1),
    ("minority", 200, 2900, 0.05),
    ("mode", 17, 2500, None),
    ("majority", 5, 900, 0.02),
    ("minority", 1, 3000, 0.5),
    ("mode", 1000, 1400, None),
]


def bundle_of():
    return IndexBundle.from_values(zipf_string(3000, 40, skew=1.1, seed=27))


def snapshot(bundle):
    """Per object a query could touch: its attributes' identities, and
    their pickled values, which change if one is mutated in place."""
    objs = (bundle, bundle.majority, bundle.minority, bundle.seq)
    return [({k: id(v) for k, v in vars(o).items()}, pickle.dumps(vars(o))) for o in objs]


def run_plain(bundle, kind, lo, hi, tau):
    if kind == "majority":
        return bundle.query_majorities(lo, hi, tau)
    if kind == "minority":
        return bundle.query_minority(lo, hi, tau)
    return bundle.query_mode(lo, hi)


def test_interleaved_queries_write_no_attribute():
    bundle = bundle_of()
    before = snapshot(bundle)
    for _ in range(3):
        for kind, lo, hi, tau in QUERIES:
            run_plain(bundle, kind, lo, hi, tau)
            bundle.explain(kind, lo, hi, tau)
    assert snapshot(bundle) == before


def test_interleaved_explains_report_their_own_ranks():
    """Each query's trace reads the rank1 calls it reports when run alone,
    also while another thread runs other kinds on the same bundle with the
    interpreter switching threads as often as it can."""
    bundle = bundle_of()
    alone = [bundle.explain(*q)[1].ranks for q in QUERIES]
    first, second = bundle.explain(*QUERIES[0]), bundle.explain(*QUERIES[1])
    assert [first[1].ranks, second[1].ranks] == alone[:2]

    seen = [[] for _ in range(2)]

    def worker(k):
        for _ in range(40):
            for j in range(k, len(QUERIES), 2):
                seen[k].append((j, bundle.explain(*QUERIES[j])[1].ranks))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert all(len(s) == 40 * len(QUERIES) // 2 for s in seen)
    assert all(ranks == alone[j] for s in seen for j, ranks in s)


def test_explain_refuses_an_unknown_kind():
    with pytest.raises(DomainError, match="unknown query kind 'median'"):
        bundle_of().explain("median", 1, 10, 0.5)


@pytest.mark.parametrize("kind", ["majority", "minority"])
def test_explain_needs_tau_for_thresholded_kinds(kind):
    with pytest.raises(DomainError, match="tau must be in"):
        bundle_of().explain(kind, 1, 10)


def test_explain_mode_ignores_tau():
    bundle = bundle_of()
    for tau in (None, 0.5, 7.0):  # even a tau no threshold query takes
        answer, trace = bundle.explain("mode", 17, 2500, tau)
        assert answer == bundle.query_mode(17, 2500)
        assert trace.tau is None and trace.kind == "mode"
