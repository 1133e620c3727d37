"""The trace of one query, made only when a caller asks for it.

The range walks return their rank1 calls, two per trie node they split.
`IndexBundle.explain` runs a query through the same helper as the plain
query, times it and returns its answer with a `QueryTrace`.  Nothing is
stored on the index, so interleaved callers cannot clobber each other's
numbers, and the test suite asserts the advertised work bounds on the
traces instead of trusting asymptotic hand-waving.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class QueryTrace:
    """What one query did: the path it took ("empty" or "walk"), the
    symbols it reported, its rank1 calls and its time.  tau is None for
    mode."""

    kind: str
    lo: int
    hi: int
    tau: float | None
    path: str
    candidates: int
    ranks: int
    elapsed_ns: int

    def as_dict(self) -> dict:
        return asdict(self)
