"""Build-time configuration for the query indexes."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ConfigError


_U32_MAX = 2**32 - 1  # trade is a u32 field of the file header


@dataclass
class IndexConfig:
    """Build options of an index, both accepted, validated and echoed in
    the file header, and both inert: every index is the same
    Huffman-shaped wavelet matrix of plain levels.

    trade, an int in [1, 2**32 - 1], was the sparsification factor g of
    the listing engine and the flag families, which retired with format
    version 7, and the sequence has nothing else to sparsify.

    compressed, a bool, stored a wavelet-matrix level in the sparse
    positional encoding where that was smaller, which retired with format
    version 8: no benchmarked input picked such a level.
    """

    trade: int = 1
    compressed: bool = False

    def __post_init__(self):
        v = self.trade
        if isinstance(v, bool) or not isinstance(v, int) or not 1 <= v <= _U32_MAX:
            raise ConfigError(f"trade must be an int in [1, 2**32 - 1], got {v!r}")
        if not isinstance(self.compressed, bool):
            raise ConfigError(f"compressed must be a bool, got {self.compressed!r}")

    def with_(self, **kw) -> "IndexConfig":
        return replace(self, **kw)


def space_preset() -> IndexConfig:
    """The configuration once tuned for a small footprint (trade 256).

    trade is inert now, so this builds the same index as IndexConfig().
    """
    return IndexConfig(trade=256)
