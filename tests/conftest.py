import struct

import numpy as np
import pytest

from rfq.bits import BitVector
from rfq.sequence import WaveletSequence, _rank_pair, _read_lengths, _Shape
from rfq.serial import ByteReader

# Small sequence with one heavy element; most frozen expectations use it.
CANON = [1, 2, 3, 1, 4, 1, 5, 1, 2, 3, 1]


@pytest.fixture
def canon():
    return list(CANON)


@pytest.fixture(scope="session")
def canon_seq():
    return WaveletSequence.build(np.asarray(CANON, dtype=np.int64))


# The walks take a range as top-level positions cl+1..cr, unchecked; these
# read them over the 1-based inclusive range [lo, hi] the queries take.


def range_counts(seq, lo: int, hi: int, thr: int = 0) -> dict[int, int]:
    """Symbols occurring more than thr times in S[lo..hi], with their counts."""
    return seq._split_walk(lo - 1, hi, thr)[0]


def range_minority(seq, lo: int, hi: int, thr: int):
    """Some (symbol, count) with 1 <= count <= thr in S[lo..hi], or None."""
    return seq._minority_walk(lo - 1, hi, thr)[0]


def range_mode(seq, lo: int, hi: int) -> tuple[int, int]:
    """The most frequent symbol in S[lo..hi], the lowest on a tie, with its count."""
    return seq._mode_walk(lo - 1, hi)[0]


def codes(seq) -> list[str]:
    """Each symbol's code as a string of bits, the top level's first, from
    the code lengths the sequence keeps."""
    lens = np.frombuffer(seq._len, dtype=np.uint8)
    bits = _Shape(lens).codes(lens).tolist()
    return [format(c, f"0{n}b") if n else "" for c, n in zip(bits, lens.tolist())]


def rank1(bv: BitVector, p: int) -> int:
    """Set bits among the first p positions, read as the walks read them."""
    return _rank_pair(bv.words, bv.cum, p, p)[0]


def from_bits(bits) -> BitVector:
    """The vector holding these bits (any 0/1 or bool sequence)."""
    return BitVector.from_numpy_bool(np.asarray(bits, dtype=bool))


def from_ones(positions, n_bits: int) -> BitVector:
    """The n_bits-bit vector whose set bits are at these 1-based positions."""
    arr = np.zeros(n_bits, dtype=bool)
    arr[np.asarray(positions, dtype=np.int64) - 1] = True
    return BitVector.from_numpy_bool(arr)


def split_sequence(payload: bytes) -> tuple[bytes, bytes]:
    """A format-10 sequence, or a payload that starts with one, split into
    its prefix (n as u64, sigma as u32, then the code lengths: a width
    byte and sigma lengths of that many bits) and the rest, which starts
    with the level words."""
    sigma, width = struct.unpack_from("<IB", payload, 8)
    at = 13 + (sigma * width + 7) // 8
    return payload[:at], payload[at:]


def legacy_sections(blob: bytes) -> tuple[bytes, bytes]:
    """The two checked sections of a format-8 or format-9 file, the header
    and the sequence: after the magic and the version, each is a u64
    length, that many payload bytes and their CRC32."""
    out, at = [], 6
    for _ in range(2):
        (length,) = struct.unpack_from("<Q", blob, at)
        out.append(blob[at + 8:at + 8 + length])
        at += 8 + length + 4
    return out[0], out[1]


def without_level_header(body: bytes) -> bytes:
    """A format-8 or format-9 sequence section less its level header, one
    u64 bit length a level after the code lengths: format 10's sequence."""
    prefix, rest = split_sequence(body)
    lens = _read_lengths(ByteReader(prefix[12:]), struct.unpack_from("<I", body, 8)[0])
    return prefix + rest[8 * int(lens.max()):]
