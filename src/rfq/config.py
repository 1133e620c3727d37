"""The build option a caller may still pass: accepted, validated, unused."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError


_U32_MAX = 2**32 - 1  # the range trade had as a u32 field of the format-8 header


@dataclass
class IndexConfig:
    """Build options that `IndexBundle.from_values` and `from_tokens`
    accept and ignore: every index is the same Huffman-shaped wavelet
    matrix of plain levels, so nothing is stored, written or echoed.
    Each field is still checked when the config is made.

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
