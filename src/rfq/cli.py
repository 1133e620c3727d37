"""Command-line front end: build, query, verify, info.

Exit codes: 0 success, 1 verification failure, 2 usage or domain errors,
3 malformed or incompatible index files.  The seed for randomized verbs
comes from --seed, then the RFQ_SEED environment variable, then 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .errors import DomainError, FormatError, RangeError, RfqError
from .indexfile import IndexBundle
from .verify import verify_index


def _read_input(path: str, fmt: str):
    """Returns (values list | None, tokens list | None)."""
    if fmt == "tokens":
        with open(path, "r", encoding="utf-8") as fh:
            toks = fh.read().split()
        return None, toks
    with open(path, "rb") as fh:
        data = fh.read()
    if fmt == "bytes":
        return list(data), None
    if fmt == "u32le":
        if len(data) % 4:
            raise DomainError(f"u32le input length {len(data)} not a multiple of 4")
        return np.frombuffer(data, dtype="<u4").astype(np.int64).tolist(), None
    raise DomainError(f"unknown input format {fmt!r}")


def _seed_of(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("RFQ_SEED")
    return int(env) if env else 0


def _space_lines(rep: dict) -> list[str]:
    n = rep["n"]
    lines = [
        f"n {n}",
        f"sigma {rep['sigma']}",
        f"entropy_h0 {rep['entropy_h0']:.4f} bits/symbol",
    ]
    lines.append(f"sequence_bits {rep['sequence_bits']}")
    lines.append(f"total_bits {rep['total_bits']}")
    lines.append(f"bits_per_symbol {rep['total_bits'] / n:.3f}")
    return lines


def _cmd_build(args) -> int:
    values, tokens = _read_input(args.input, args.format)
    t0 = time.perf_counter()
    if tokens is not None:
        bundle = IndexBundle.from_tokens(tokens)
    else:
        bundle = IndexBundle.from_values(values)
    build_s = time.perf_counter() - t0
    out = args.output or args.input + ".rfq"
    bundle.save(out)
    rep = bundle.size_report()
    rep["build_seconds"] = round(build_s, 3)
    rep["output"] = out
    if args.json:
        print(json.dumps(rep))
    else:
        for line in _space_lines(rep):
            print(line)
        print(f"build_seconds {rep['build_seconds']}")
        print(f"wrote {out}")
    return 0


def _cmd_query(args) -> int:
    bundle = IndexBundle.load(args.index)
    if args.kind != "mode" and args.tau is None:
        raise DomainError(f"{args.kind} queries need --tau")
    answer, trace = bundle.explain(args.kind, args.lo, args.hi, args.tau)
    pairs = answer if args.kind == "majority" else [] if answer is None else [answer]
    if args.json:
        print(json.dumps({
            "result": [[sym, occ] for sym, occ in pairs],
            "diagnostics": trace.as_dict(),
        }))
    else:
        for sym, occ in pairs:
            print(f"{sym} {occ}")
    return 0


def _cmd_verify(args) -> int:
    bundle = IndexBundle.load(args.index)
    seed = _seed_of(args)
    report = verify_index(bundle, queries=args.queries, seed=seed)
    if args.json:
        print(json.dumps({
            "queries": report.queries,
            "mismatches": report.mismatches[:10],
            "elapsed_s": report.elapsed_s,
            "seed": report.seed,
            "ok": report.ok,
        }, default=str))
    else:
        print(report.summary())
        for mm in report.mismatches[:5]:
            print(f"  {mm}")
    return 0 if report.ok else 1


def _cmd_info(args) -> int:
    bundle = IndexBundle.load(args.index)
    rep = bundle.size_report()
    labels = bundle.labels
    rep["symbol_domain"] = (
        "dense" if labels is None else "tokens" if isinstance(labels, list) else "ints")
    if args.json:
        print(json.dumps(rep))
    else:
        for line in _space_lines(rep):
            print(line)
        print(f"symbol_domain {rep['symbol_domain']}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rfq",
        description="Compressed index for range majority/minority/mode queries "
                    "with the frequency threshold chosen at query time.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="index a sequence file")
    b.add_argument("input")
    b.add_argument("-o", "--output", default=None)
    b.add_argument("--format", choices=("bytes", "u32le", "tokens"), default="bytes")
    b.add_argument("--json", action="store_true")
    b.set_defaults(func=_cmd_build)

    q = sub.add_parser("query", help="run one query against a built index")
    q.add_argument("index")
    q.add_argument("kind", choices=("majority", "minority", "mode"))
    q.add_argument("lo", type=int)
    q.add_argument("hi", type=int)
    q.add_argument("--tau", type=float, default=None)
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_query)

    v = sub.add_parser("verify", help="cross-check the index against brute force")
    v.add_argument("index")
    v.add_argument("--queries", type=int, default=1000)
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=_cmd_verify)

    i = sub.add_parser("info", help="describe a built index")
    i.add_argument("index")
    i.add_argument("--json", action="store_true")
    i.set_defaults(func=_cmd_info)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RangeError, DomainError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RfqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
