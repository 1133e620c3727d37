"""Span tracing of rfq's layers, patched in from outside the package.

``SpanTracer`` replaces the listed public functions of each layer with
wrappers that record one span per call: name, parent span, depth, start
and end.  Spans stay in compact in-memory arrays while tracing runs and
are written out once at the end.  Per-layer call counts, self times and
ratios are derived from the spans afterwards, so the wrappers do no more
than append four numbers.

A listed function the package no longer has is reported as absent rather
than failing, so the benchmark keeps working while layers are reshaped.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, class or None for a module-level function, functions)
TRACED = (
    ("bits", "BitVector", ("select0", "select1", "rank1", "get", "from_numpy_bool")),
    ("bits", "SparseBitVector", ("select0", "rank1", "select1", "ones_in_range", "from_ones")),
    ("bits", "RmqIndex", ("__init__", "query")),
    ("bits", "PackedArray", ("from_values",)),
    ("sequence", "WaveletSequence", (
        "build", "to_array", "select", "rank", "access", "locate",
        "partial_rank", "prev_occurrence", "range_counts",
    )),
    ("listing", "ListingIndex", ("query_leftmost", "build_from_values", "for_sequence")),
    ("families", "FlagWorkspace", (
        "__init__", "window_qualifies", "candidate_bits", "anchor_bits", "distinct_bits",
    )),
    ("families", None, ("flags_from_bits",)),
    ("majority", "MajorityIndex", ("query_majorities", "query_mode")),
    ("majority", None, ("build_majority_index",)),
    ("minority", "MinorityIndex", ("query_minority",)),
    ("minority", None, ("build_minority_index",)),
    ("indexfile", "IndexBundle", ("from_values", "from_tokens", "to_bytes", "from_bytes")),
    ("serial", "ByteReader", ("words", "np_u32")),
)

# Constructors read better under the name of what they make.
RENAMED = {"bits.RmqIndex.__init__": "bits.RmqIndex.build"}

LEFTMOST = "listing.ListingIndex.query_leftmost"
PREV_OCC = "sequence.WaveletSequence.prev_occurrence"
MAJ_QUERY = "majority.MajorityIndex.query_majorities"
MODE_QUERY = "majority.MajorityIndex.query_mode"
MIN_QUERY = "minority.MinorityIndex.query_minority"
SEQ_PREFIX = "sequence."

RATIOS = (
    "listing.probes_per_reported",
    "majority.mode_rounds_per_query",
    "majority.sequence_calls_per_query",
    "minority.sequence_calls_per_query",
)


def span_names() -> list[str]:
    names = []
    for mod, cls, funcs in TRACED:
        for fn in funcs:
            full = f"{mod}.{cls}.{fn}" if cls else f"{mod}.{fn}"
            names.append(RENAMED.get(full, full))
    return names


def layer_metric_specs() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    specs = []
    for name in span_names():
        specs += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    specs += [(r, "ratio") for r in RATIOS]
    specs.append(("tracing_overhead_ratio", "ratio"))
    return specs


class SpanTracer:
    """Patches the TRACED functions of one package; use as a context manager."""

    def __init__(self, package: str):
        self.package = package
        self.names = span_names()
        self.absent: list[str] = []
        self.name_id = array("H")
        self.parent = array("q")
        self.depth = array("B")
        self.start = array("d")
        self.end = array("d")
        self.reported = 0  # positions returned by query_leftmost
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------------

    def __enter__(self) -> "SpanTracer":
        nid = 0
        for mod, cls, funcs in TRACED:
            module = importlib.import_module(f"{self.package}.{mod}")
            owner = getattr(module, cls, None) if cls else module
            for fn in funcs:
                if not self._patch(owner, cls, fn, nid):
                    self.absent.append(self.names[nid])
                nid += 1
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, cls, attr: str, nid: int) -> bool:
        if owner is None:
            return False
        if cls is None:
            original = getattr(owner, attr, None)
            if not callable(original):
                return False
            traced = self._wrap(original, nid)
            # `from .x import f` copies the name; rebind every copy in the package.
            for name, module in list(sys.modules.items()):
                if name == self.package or name.startswith(self.package + "."):
                    if getattr(module, attr, None) is original:
                        self._undo.append((module, attr, original))
                        setattr(module, attr, traced)
            return True
        raw = owner.__dict__.get(attr)
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self._wrap(raw.__func__, nid))
        elif callable(raw):
            replacement = self._wrap(raw, nid)
        else:
            return False
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, replacement)
        return True

    def _wrap(self, fn, nid: int):
        name_id, parent, depth, start, end = (
            self.name_id, self.parent, self.depth, self.start, self.end,
        )
        stack = self._stack
        clock = time.perf_counter
        counts_result = self.names[nid] == LEFTMOST

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            depth.append(min(len(stack) - 1, 255))
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if counts_result:
                self.reported += len(out)
            return out

        return traced

    # -- derived metrics ------------------------------------------------------

    def _arrays(self):
        return (
            np.frombuffer(self.name_id, dtype=np.uint16).astype(np.int64),
            np.frombuffer(self.parent, dtype=np.int64),
            np.frombuffer(self.depth, dtype=np.uint8),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def _outermost(self, nid, parent, depth, ids) -> np.ndarray:
        """Per span: index of its outermost enclosing span named in ids, or -1."""
        top = np.where(np.isin(nid, ids), np.arange(nid.size), -1)
        for d in range(1, int(depth.max(initial=0)) + 1):
            sel = np.flatnonzero(depth == d)
            up = top[parent[sel]]
            top[sel] = np.where(up >= 0, up, top[sel])
        return top

    def metrics(self) -> dict[str, float]:
        """Calls and self time per traced function, plus the layer ratios.

        A span's self time is its duration minus the durations of its
        direct children; children never overlap on one thread.
        """
        nid, parent, depth, start, end = self._arrays()
        k = len(self.names)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=nid.size)
        calls = np.bincount(nid, minlength=k)
        self_s = np.bincount(nid, weights=dur - child, minlength=k)
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = float(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])

        ids = {name: i for i, name in enumerate(self.names)}
        is_seq = np.isin(nid, [i for n, i in ids.items() if n.startswith(SEQ_PREFIX)])
        # an entry into the sequence layer is a sequence span not called by another one
        seq_entry = is_seq & ~(has_parent & is_seq[np.maximum(parent, 0)])

        def ratio(num, den):
            return float(num) / den if den else 0.0

        under_leftmost = self._outermost(nid, parent, depth, [ids[LEFTMOST]]) >= 0
        out["listing.probes_per_reported"] = ratio(
            np.count_nonzero(under_leftmost & (nid == ids[PREV_OCC])), self.reported
        )
        mode_parent = has_parent & (nid[np.maximum(parent, 0)] == ids[MODE_QUERY])
        out["majority.mode_rounds_per_query"] = ratio(
            np.count_nonzero(mode_parent & (nid == ids[MAJ_QUERY])), calls[ids[MODE_QUERY]]
        )
        for layer, queries in (
            ("majority", [ids[MAJ_QUERY], ids[MODE_QUERY]]),
            ("minority", [ids[MIN_QUERY]]),
        ):
            top = self._outermost(nid, parent, depth, queries)
            roots = np.count_nonzero(top == np.arange(nid.size))
            out[f"{layer}.sequence_calls_per_query"] = ratio(
                np.count_nonzero(seq_entry & (top >= 0)), roots
            )
        return out

    def save(self, path: Path) -> None:
        nid, parent, depth, start, end = self._arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez(
                fh, names=np.array(self.names), absent=np.array(self.absent, dtype=str),
                name_id=nid.astype(np.uint16), parent=parent, depth=depth,
                start=start, end=end,
            )
