"""The rfq benchmark: seeded workloads against the public IndexBundle API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload query-plain --seed 1 --seconds 45 --trace 0

Workloads (see README.md for why each was chosen; BENCHMARK.json lists the
two that fit its time budget steadily, query-plain and build-mix):

* query-plain    Zipf(1.1), n = 200,000, sigma = 256, IndexConfig(trade=1);
                 interleaved majority, minority and mode queries.
* query-compact  the same corpus and query stream, IndexConfig(trade=16,
                 compressed=True).
* build-mix      build, to_bytes, from_bytes and checked queries over
                 four inputs: uniform sigma 4; Zipf sigma 4096; geometric runs
                 sigma 16 (trade 4, compressed); tokens (trade 2).

The load is one process, one thread and one closed-loop client: a query is
sent only after the previous one returns.  Every answer is checked
against a histogram of the raw slice (see inputs.py).

With --trace 0 the run prints the end-to-end metrics.  With --trace 1 it
first runs untraced for half the time, then wraps each layer's public
functions (tracer.py) for the other half and prints per-layer call counts,
self times and ratios; the spans are written to perfbench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when
every answer was correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import numpy as np

from inputs import (
    KINDS,
    geometric_runs,
    is_correct,
    expected_answer,
    query_grid,
    ready_probes,
    run_query,
    token_stream,
    uniform_values,
    zipf_values,
)
from tracer import SpanTracer, layer_metric_specs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

QUERY_N, QUERY_SIGMA = 200_000, 256
QUERY_STRATA = 5  # range-length strata per (kind, tau) in one query grid
# Minority is the cheap kind on every input; three ranges per grid cell pin
# its quantiles down at little cost.
GRID_POSITIONS = {"minority": 3}
QUERY_CONFIGS = {
    "query-plain": {"trade": 1},
    "query-compact": {"trade": 16, "compressed": True},
}

# (name, corpus maker, IndexConfig keywords); each round builds all four
MIX = (
    ("uniform-s4", lambda rng: uniform_values(rng, 200_000, 4), {"trade": 1}),
    ("zipf-s4096", lambda rng: zipf_values(rng, 50_000, 4096), {"trade": 1}),
    ("runs-s16", lambda rng: geometric_runs(rng, 100_000, 16, 8), {"trade": 4, "compressed": True}),
    ("tokens-v2000", lambda rng: token_stream(rng, 50_000, 2000), {"trade": 2}),
)
MIX_STRATA = 6
MIX_CHECK_GRIDS = 5  # fresh query grids checked per input and round

COLD_LOADS = 21  # cold loads per query run; load_s is their median
MIX_COLD_LOADS = 8  # cold loads per input and round; load_s sums per-input medians
MIX_SETUPS = 9  # build-mix set-ups per run; setup_s is their median

END_TO_END = (
    ("setup_s", "s"),
    ("build_s", "s"),
    ("load_s", "s"),
    ("queries_per_s", "1/s"),
    ("majority_p50_ms", "ms"),
    ("majority_p90_ms", "ms"),
    ("minority_p50_ms", "ms"),
    ("minority_p90_ms", "ms"),
    ("mode_p50_ms", "ms"),
    ("mode_p90_ms", "ms"),
    ("index_bits_per_symbol", "bit/symbol"),
    ("resident_mb", "MB"),
)

clock = time.perf_counter


def load_rfq():
    """Import rfq from this checkout's src/, and from nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import rfq
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import rfq from {src}: {exc}")
    if src not in Path(rfq.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported rfq from {rfq.__file__}, not from {src}")
    return rfq


class Checks:
    """Answers checked and answers wrong, over every client of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0


class Client:
    """One closed-loop client over a fixed query list, with answer checking."""

    def __init__(self, corpus, queries, checks: Checks):
        self.corpus = corpus
        self.queries = queries
        self.expected = [expected_answer(corpus, q) for q in queries]
        self.checks = checks

    def run(self, bundle) -> list[float]:
        """Send every query once; returns the latencies, checks afterwards."""
        latencies, answers = [], []
        for q in self.queries:
            t = clock()
            try:
                got = run_query(bundle, q)
            except Exception as exc:  # a raised query is a failed query
                got = exc
            latencies.append(clock() - t)
            answers.append(got)
        for q, exp, got in zip(self.queries, self.expected, answers):
            self._check(q, exp, got)
        return latencies

    def _check(self, q, exp, got) -> None:
        self.checks.attempted += 1
        if isinstance(got, Exception):
            ok = False
            detail = "".join(traceback.format_exception(got))
        else:
            try:
                ok = is_correct(self.corpus, q, exp, got)
            except (TypeError, ValueError, IndexError):
                ok = False
            detail = f"got {got!r}"
        if not ok:
            self.checks.failed += 1
            if self.checks.failed <= 3:
                print(f"perfbench: wrong answer for {q}: {detail}", file=sys.stderr)


def hd_quantile(values: np.ndarray, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, with Beta(p(n+1), (1-p)(n+1))
    weights (here taken at each rank's midpoint).  Latencies cluster by how
    many rounds or levels a query needs, and a plain sample quantile that
    falls between two clusters jumps from one to the other as the share of
    each moves by a few queries; this estimate moves smoothly.
    """
    x = np.sort(values)
    n = x.size
    a, b = p * (n + 1), (1 - p) * (n + 1)
    u = (np.arange(n) + 0.5) / n
    log_w = (a - 1) * np.log(u) + (b - 1) * np.log1p(-u)
    w = np.exp(log_w - log_w.max())
    return float(w @ x / w.sum())


class Latencies:
    """Per-kind latencies pooled over whole passes."""

    def __init__(self):
        self.by_kind = {k: [] for k in KINDS}

    def add(self, queries, latencies) -> None:
        for q, t in zip(queries, latencies):
            self.by_kind[q.kind].append(t)

    @property
    def total(self) -> float:
        return sum(sum(v) for v in self.by_kind.values())

    @property
    def count(self) -> int:
        return sum(len(v) for v in self.by_kind.values())

    def metrics(self, out: dict) -> None:
        out["queries_per_s"] = self.count / self.total
        for kind, values in self.by_kind.items():
            ms = np.asarray(values) * 1e3
            out[f"{kind}_p50_ms"] = hd_quantile(ms, 0.5)
            out[f"{kind}_p90_ms"] = hd_quantile(ms, 0.9)

    @staticmethod
    def mean_over(parts: list["Latencies"], out: dict) -> None:
        """Quantiles averaged over inputs whose latencies differ in scale.

        A pooled quantile of several inputs lands between their modes and
        jumps between them from run to run; the mean of per-input
        quantiles does not.  Throughput stays pooled.
        """
        each = []
        for lat in parts:
            each.append({})
            lat.metrics(each[-1])
        for key in each[0]:
            out[key] = statistics.fmean(e[key] for e in each)
        out["queries_per_s"] = sum(p.count for p in parts) / sum(p.total for p in parts)

    def describe(self, passes: int, unit: str) -> str:
        per = {k: len(v) for k, v in self.by_kind.items()}
        return f"{passes} {unit}; samples per kind {per}"


def repeat_for(seconds: float, step) -> tuple[int, float]:
    """Call step() whole times, as many as come nearest to `seconds`, at least once."""
    t0 = clock()
    done = 0
    while True:
        step()
        done += 1
        elapsed = clock() - t0
        if elapsed + 0.5 * elapsed / done >= seconds:
            return done, elapsed


def resident_bytes(rfq, data: bytes, ready: Client) -> int:
    """Bytes a freshly loaded bundle holds after its first queries.

    Runs in its own untimed pass: tracemalloc slows loading many times over.
    """
    tracemalloc.start()
    try:
        bundle = rfq.IndexBundle.from_bytes(data)
        ready.run(bundle)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del bundle
    return held


def cold_load(rfq, data: bytes, ready: Client):
    """Load and send the first query of each kind; returns (seconds, bundle)."""
    t = clock()
    bundle = rfq.IndexBundle.from_bytes(data)
    for q in ready.queries:
        run_query(bundle, q)
    elapsed = clock() - t
    ready.run(bundle)  # checks the same answers, untimed
    return elapsed, bundle


class LoadSampler:
    """Cold loads spread evenly over the timed phase.

    Load time rides on the machine's momentary speed like every other
    timing; sampling it throughout the phase, not in one burst, lets its
    median see the same machine the query latencies saw.
    """

    def __init__(self, rfq, data: bytes, ready: Client, seconds: float):
        self.rfq, self.data, self.ready = rfq, data, ready
        self.interval = seconds / COLD_LOADS
        self.next = clock()
        self.times: list[float] = []

    def due(self) -> None:
        if clock() >= self.next and len(self.times) < COLD_LOADS:
            self.times.append(cold_load(self.rfq, self.data, self.ready)[0])
            self.next += self.interval

    def median(self) -> float:
        while len(self.times) < COLD_LOADS:
            self.times.append(cold_load(self.rfq, self.data, self.ready)[0])
        return statistics.median(self.times)


def build(rfq, corpus, config: dict):
    cfg = rfq.IndexConfig(**config)
    if corpus.vocab is not None:
        return rfq.IndexBundle.from_tokens(corpus.payload, cfg)
    return rfq.IndexBundle.from_values(corpus.payload, cfg)


# -- workloads ---------------------------------------------------------------------


def query_workload(rfq, name: str, seed: int, seconds: float, trace: bool, checks: Checks):
    t_setup = clock()
    rng = np.random.default_rng(seed)
    corpus = zipf_values(rng, QUERY_N, QUERY_SIGMA)
    t = clock()
    bundle = build(rfq, corpus, QUERY_CONFIGS[name])
    build_s = clock() - t
    data = bundle.to_bytes()
    bundle = rfq.IndexBundle.from_bytes(data)
    ready = Client(corpus, ready_probes(corpus.n), checks)
    ready.run(bundle)
    setup_s = clock() - t_setup

    # Every pass draws a fresh stratified grid from the seeded stream, so a
    # run measures many distinct ranges: quantiles over a few ranges sent
    # again and again move with the draw, not with the program.
    def one_pass(target: Latencies, b, between=lambda: None) -> None:
        client = Client(corpus, query_grid(rng, corpus.n, QUERY_STRATA, GRID_POSITIONS), checks)
        target.add(client.queries, client.run(b))
        between()

    lat = Latencies()
    if trace:
        passes, _ = repeat_for(seconds / 2, lambda: one_pass(lat, bundle))
        traced = Latencies()
        with SpanTracer("rfq") as tracer:
            _, cold = cold_load(rfq, data, ready)
            repeat_for(seconds / 2, lambda: one_pass(traced, cold))
        metrics = tracer.metrics()
        metrics["tracing_overhead_ratio"] = (traced.total / traced.count) / (lat.total / lat.count)
        return metrics, tracer, lat.describe(passes, "untraced passes")

    loads = LoadSampler(rfq, data, ready, seconds)
    passes, _ = repeat_for(seconds, lambda: one_pass(lat, bundle, loads.due))
    metrics = {
        "setup_s": setup_s,
        "build_s": build_s,
        "load_s": loads.median(),
        "index_bits_per_symbol": 8 * len(data) / corpus.n,
        "resident_mb": resident_bytes(rfq, data, ready) / 1e6,
    }
    lat.metrics(metrics)
    return metrics, None, lat.describe(passes, "passes")


def mix_inputs(seed: int, checks: Checks):
    """Corpora and ready probes of build-mix, and the stream check grids come from."""
    rng = np.random.default_rng(seed)
    corpora = [make(rng) for _, make, _ in MIX]
    readies = [Client(c, ready_probes(c.n), checks) for c in corpora]
    return corpora, readies, rng


def build_mix(rfq, seed: int, seconds: float, trace: bool, checks: Checks):
    setups = []
    for _ in range(MIX_SETUPS):
        t = clock()
        corpora, readies, rng = mix_inputs(seed, checks)
        setups.append(clock() - t)
    builds = [[] for _ in MIX]
    loads = [[] for _ in MIX]
    sizes = [0] * len(MIX)
    blobs = [b""] * len(MIX)

    def one_round(lats: list[Latencies]) -> None:
        for i, (_, _, config) in enumerate(MIX):
            t = clock()
            bundle = build(rfq, corpora[i], config)
            builds[i].append(clock() - t)
            blobs[i] = bundle.to_bytes()
            sizes[i] = len(blobs[i])
            for _ in range(MIX_COLD_LOADS):
                load_s, bundle = cold_load(rfq, blobs[i], readies[i])
                loads[i].append(load_s)
            # fresh grids every round, as on the query workloads
            for _ in range(MIX_CHECK_GRIDS):
                grid = query_grid(rng, corpora[i].n, MIX_STRATA, GRID_POSITIONS)
                client = Client(corpora[i], grid, checks)
                lats[i].add(client.queries, client.run(bundle))

    lats = [Latencies() for _ in MIX]
    if trace:
        rounds, elapsed = repeat_for(seconds / 2, lambda: one_round(lats))
        with SpanTracer("rfq") as tracer:
            spare = [Latencies() for _ in MIX]
            t_rounds, t_elapsed = repeat_for(seconds / 2, lambda: one_round(spare))
        metrics = tracer.metrics()
        metrics["tracing_overhead_ratio"] = (t_elapsed / t_rounds) / (elapsed / rounds)
        return metrics, tracer, f"{rounds} untraced rounds"

    rounds, _ = repeat_for(seconds, lambda: one_round(lats))
    n_total = sum(c.n for c in corpora)
    metrics = {
        "setup_s": statistics.median(setups),
        "build_s": sum(statistics.median(b) for b in builds),
        "load_s": sum(statistics.median(ld) for ld in loads),
        "index_bits_per_symbol": 8 * sum(sizes) / n_total,
        "resident_mb": sum(resident_bytes(rfq, d, r) for d, r in zip(blobs, readies)) / 1e6,
    }
    Latencies.mean_over(lats, metrics)
    per = sum(len(lat.by_kind["mode"]) for lat in lats)
    return metrics, None, f"{rounds} rounds; {per} samples per kind over {len(MIX)} inputs"


WORKLOADS = ("query-plain", "query-compact", "build-mix")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rfq benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    rfq = load_rfq()

    trace = bool(args.trace)
    checks = Checks()
    if args.workload == "build-mix":
        values, tracer, samples = build_mix(rfq, args.seed, args.seconds, trace, checks)
    else:
        values, tracer, samples = query_workload(
            rfq, args.workload, args.seed, args.seconds, trace, checks
        )
    attempted, failed = checks.attempted, checks.failed

    specs = layer_metric_specs() if trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in specs}
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"  query latencies from {samples}")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_ratio':<48} {failed / max(attempted, 1):>14.6g} ({failed} of {attempted})")
    if tracer is not None:
        for name in tracer.absent:
            print(f"  absent: {name} (reported as 0)")
        tracer.save(OUT / f"spans-{args.workload}.npz")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
