"""Build-time configuration for the query indexes."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ConfigError


_U32_MAX = 2**32 - 1  # trade is a u32 field of the file header


@dataclass
class IndexConfig:
    """Knobs deciding the space/time trade of a built index.

    trade is the sparsification factor g, an int in [1, 2**32 - 1]: the
    position directory keeps one summary cell per g entries, and the
    documented per-query work bound scales with g**2.  compressed stores
    each level of the Huffman-shaped wavelet matrix in the sparse encoding
    when that is smaller, which pays off where one symbol fills most of a
    level, and packs the code-length table at the longest length's bit
    width instead of a byte a symbol.  Inputs shorter than
    `families.FAMILY_MIN_N` get no flag families, and builds of at most
    `families.SELF_CHECK_MAX_N` positions check their families against the
    slow reference builders; neither is configurable.
    """

    trade: int = 1
    compressed: bool = False

    def __post_init__(self):
        v = self.trade
        if isinstance(v, bool) or not isinstance(v, int) or not 1 <= v <= _U32_MAX:
            raise ConfigError(f"trade must be an int in [1, 2**32 - 1], got {v!r}")

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
    return IndexConfig(trade=256)
