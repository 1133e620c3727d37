"""Smoke runs of the benchmark harness against this checkout.

`perfbench/run.py` builds its indexes through `IndexConfig(trade=...,
compressed=...)`, both inert options it still passes, and prints one JSON
line last.  A short run of each gated workload must exit 0, check every
answer right, and report every end-to-end metric `BENCHMARK.json` gates,
each finite and positive.  A short traced run must find the query
classes the tracer wraps by name.  Nothing under `perfbench/` is changed
here.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


@pytest.mark.parametrize("workload", ["query-plain", "build-mix"])
def test_benchmark_workload_runs_clean(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.5"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] > 0
    gated = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for spec in gated:
        value = last["metrics"][spec["name"]]["value"]
        assert math.isfinite(value) and value > 0, (spec["name"], value)


def test_tracer_sees_the_query_classes():
    """A traced query-plain run finds the classes the tracer wraps by name:
    the query methods of `majority.MajorityIndex` and
    `minority.MinorityIndex` each record calls."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query-plain",
         "--seed", "1", "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
    for name in ("majority.MajorityIndex.query_majorities",
                 "majority.MajorityIndex.query_mode",
                 "minority.MinorityIndex.query_minority"):
        assert last["metrics"][f"{name}.calls"]["value"] > 0, name
