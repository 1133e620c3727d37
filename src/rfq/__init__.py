"""Compressed sequence index answering range majority, minority, and mode
queries whose frequency threshold is chosen per query, each by one pruned
split walk over a Huffman-shaped wavelet matrix."""

from .bits import BitVector
from .config import IndexConfig
from .counters import QueryTrace
from .errors import ConfigError, DomainError, FormatError, RangeError, RfqError
from .indexfile import IndexBundle
from .majority import MajorityIndex, threshold_count
from .minority import MinorityIndex
from .sequence import WaveletSequence
from .verify import VerifyReport, verify_index

__version__ = "0.1.0"

__all__ = [
    "BitVector",
    "ConfigError",
    "DomainError",
    "FormatError",
    "IndexBundle",
    "IndexConfig",
    "MajorityIndex",
    "MinorityIndex",
    "QueryTrace",
    "RangeError",
    "RfqError",
    "VerifyReport",
    "WaveletSequence",
    "threshold_count",
    "verify_index",
    "__version__",
]
