"""Build-time configuration for the query indexes."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ConfigError


_U32_MAX = 2**32 - 1  # trade is a u32 field of the file header


@dataclass
class IndexConfig:
    """Build options of an index.

    compressed stores each level of the Huffman-shaped wavelet matrix in
    the sparse encoding when that is smaller, which pays off where one
    symbol fills most of a level, and packs the code-length table at the
    longest length's bit width instead of a byte a symbol.

    trade, an int in [1, 2**32 - 1], is accepted, validated and echoed in
    the file header, but inert: it was the sparsification factor g of the
    listing engine and the flag families, which retired with format
    version 7, and the sequence has nothing else to sparsify.
    """

    trade: int = 1
    compressed: bool = False

    def __post_init__(self):
        v = self.trade
        if isinstance(v, bool) or not isinstance(v, int) or not 1 <= v <= _U32_MAX:
            raise ConfigError(f"trade must be an int in [1, 2**32 - 1], got {v!r}")

    def with_(self, **kw) -> "IndexConfig":
        return replace(self, **kw)


def space_preset() -> IndexConfig:
    """The configuration once tuned for a small footprint (trade 256).

    trade is inert now, so this builds the same index as IndexConfig().
    """
    return IndexConfig(trade=256)
