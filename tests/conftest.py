import struct

import numpy as np
import pytest

from rfq.sequence import WaveletSequence

# Small sequence with one heavy element; most frozen expectations use it.
CANON = [1, 2, 3, 1, 4, 1, 5, 1, 2, 3, 1]


@pytest.fixture
def canon():
    return list(CANON)


@pytest.fixture(scope="session")
def canon_seq():
    return WaveletSequence.build(np.asarray(CANON, dtype=np.int64))


def split_sequence(payload: bytes, depth: int) -> tuple[bytes, list[int], bytes]:
    """A format-8 sequence payload split into its prefix (n as u64, sigma
    as u32, then the code lengths: a width byte and sigma lengths of that
    many bits), its level header (each level's bit length, a u64) and its
    word stream."""
    sigma, width = struct.unpack_from("<IB", payload, 8)
    at = 13 + (sigma * width + 7) // 8
    sizes = list(struct.unpack_from(f"<{depth}Q", payload, at))
    return payload[:at], sizes, payload[at + 8 * depth:]


def joined_sequence(prefix: bytes, sizes, stream: bytes) -> bytes:
    """The inverse of split_sequence, for sizes and streams edited or not."""
    return prefix + struct.pack(f"<{len(sizes)}Q", *sizes) + stream
