"""Compressed sequence index answering range majority, minority, and mode
queries whose frequency threshold is chosen per query, with work
proportional to 1/threshold."""

from .bits import BitVector, RmqIndex, SparseBitVector
from .config import IndexConfig, space_preset
from .counters import OpTally, QueryDiagnostics
from .errors import (
    ConfigError,
    DomainError,
    FormatError,
    LogicError,
    NotFoundError,
    RangeError,
    RfqError,
)
from .indexfile import IndexBundle
from .listing import ListingIndex
from .majority import MajorityIndex, threshold_count
from .minority import MinorityIndex
from .sequence import WaveletSequence
from .verify import VerifyReport, inject_fault, verify_index

__version__ = "0.1.0"

__all__ = [
    "BitVector",
    "ConfigError",
    "DomainError",
    "FormatError",
    "IndexBundle",
    "IndexConfig",
    "ListingIndex",
    "LogicError",
    "MajorityIndex",
    "MinorityIndex",
    "NotFoundError",
    "OpTally",
    "QueryDiagnostics",
    "RangeError",
    "RfqError",
    "RmqIndex",
    "SparseBitVector",
    "VerifyReport",
    "WaveletSequence",
    "inject_fault",
    "space_preset",
    "threshold_count",
    "verify_index",
    "__version__",
]
