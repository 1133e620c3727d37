"""Exception types shared across the package.

The split matters for the CLI: usage problems map to exit code 2,
broken or mismatched files to exit code 3.
"""


class RfqError(Exception):
    """Base class for all package errors."""


class RangeError(RfqError, IndexError):
    """A position or range endpoint is outside the valid domain."""


class DomainError(RfqError, ValueError):
    """A value argument (symbol, threshold, fraction) is invalid."""


class ConfigError(RfqError, ValueError):
    """A layout or configuration constraint is violated at construction."""


class FormatError(RfqError, IOError):
    """A serialized payload is malformed or has an unsupported version."""
