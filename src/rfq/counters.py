"""Operation tallies and per-query diagnostics.

Every sequence-level primitive (access, rank, select, partial rank) bumps a
counter on the sequence it runs against; the range walks count their
rank1 calls as ranks.  Query code snapshots the tally
before working and publishes the difference, so the test suite can assert
the advertised work bounds instead of trusting asymptotic hand-waving.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass
class OpTally:
    accesses: int = 0
    ranks: int = 0
    selects: int = 0
    partial_ranks: int = 0

    def snapshot(self) -> "OpTally":
        return replace(self)

    def since(self, snap: "OpTally") -> "OpTally":
        return OpTally(
            accesses=self.accesses - snap.accesses,
            ranks=self.ranks - snap.ranks,
            selects=self.selects - snap.selects,
            partial_ranks=self.partial_ranks - snap.partial_ranks,
        )

    @property
    def sequence_ops(self) -> int:
        """Rank + select + partial-rank calls.

        Plain accesses are excluded; the documented work bounds count only
        the order-statistic operations.
        """
        return self.ranks + self.selects + self.partial_ranks

    def add(self, other: "OpTally") -> None:
        self.accesses += other.accesses
        self.ranks += other.ranks
        self.selects += other.selects
        self.partial_ranks += other.partial_ranks


@dataclass
class QueryDiagnostics:
    """What a single query cost.  Stored on the index after each query."""

    kind: str = ""
    lo: int = 0
    hi: int = 0
    tau: float = 0.0
    path: str = ""
    candidates: int = 0
    iterations: int = 0
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
            "iterations": self.iterations,
            "elapsed_ns": self.elapsed_ns,
            "accesses": self.ops.accesses,
            "ranks": self.ops.ranks,
            "selects": self.ops.selects,
            "partial_ranks": self.ops.partial_ranks,
            "sequence_ops": self.ops.sequence_ops,
        }
