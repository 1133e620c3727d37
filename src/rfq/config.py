"""Build-time configuration for the query indexes."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ConfigError


@dataclass
class IndexConfig:
    """Knobs deciding the space/time trade of a built index.

    trade is the sparsification factor g: the position directory keeps one
    summary cell per g entries, and the documented per-query work bound
    scales with g**2.  chunk_len is the anchor spacing c inside each
    symbol's occurrence list.  compressed stores each level of the
    binary wavelet matrix in the sparse encoding when that is smaller.
    family_min_n is the shortest input that gets flag families (the
    minority side's distinct families also need trade > 1), and
    build_check decides when the fast flag builders are checked against
    the slow reference ones.
    """

    trade: int = 1
    chunk_len: int = 1024
    compressed: bool = False
    family_min_n: int = 64  # skip the flag families for shorter inputs
    build_check: str = "auto"  # "auto" | "always" | "never"

    def __post_init__(self):
        if self.trade < 1:
            raise ConfigError(f"trade must be >= 1, got {self.trade}")
        if self.chunk_len < 1:
            raise ConfigError(f"chunk_len must be >= 1, got {self.chunk_len}")
        if self.build_check not in ("auto", "always", "never"):
            raise ConfigError(f"unknown build_check {self.build_check!r}")

    @property
    def blowup(self) -> int:
        """Factor f = g**2 appearing in the work bound."""
        return self.trade * self.trade

    def scale_cutoff(self, tier: int) -> int:
        """Smallest range scale served by flag families at this tier.

        Shorter ranges fall through to the sequential scan, whose cost is
        within the same bound because the range itself is short: below the
        cutoff a range has length under 16 * trade / tau.
        """
        return tier + max(self.trade - 1, 0).bit_length() + 2

    def with_(self, **kw) -> "IndexConfig":
        return replace(self, **kw)


def space_preset() -> IndexConfig:
    """Configuration tuned for small index footprint over query speed."""
    return IndexConfig(trade=256, chunk_len=4096)
