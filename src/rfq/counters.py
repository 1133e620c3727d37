"""Operation tallies and per-query diagnostics.

The range walks count their rank1 calls on the sequence they run
against, two per node they split.  Query code publishes each query's
calls in its diagnostics, so the test suite can assert the advertised
work bounds instead of trusting asymptotic hand-waving.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass
class OpTally:
    ranks: int = 0

    def snapshot(self) -> "OpTally":
        return replace(self)

    def since(self, snap: "OpTally") -> "OpTally":
        return OpTally(ranks=self.ranks - snap.ranks)

    @property
    def sequence_ops(self) -> int:
        """The rank1 calls: the unit the documented work bounds count."""
        return self.ranks


@dataclass
class QueryDiagnostics:
    """What a single query cost.  Stored on the index after each query."""

    kind: str = ""
    lo: int = 0
    hi: int = 0
    tau: float = 0.0
    path: str = ""
    candidates: int = 0
    elapsed_ns: int = 0
    ops: OpTally = field(default_factory=OpTally)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "lo": self.lo,
            "hi": self.hi,
            "tau": self.tau,
            "path": self.path,
            "candidates": self.candidates,
            "elapsed_ns": self.elapsed_ns,
            "ranks": self.ops.ranks,
            "sequence_ops": self.ops.sequence_ops,
        }
