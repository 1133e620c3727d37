"""Plain bitvectors with constant-time rank, the one level kind of the sequence.

rank1(p) counts the set bits among the first p positions.  Every
bitvector, built or loaded, holds its 64-bit words in one typed buffer,
array('Q'), plus one rank count per word, cum[w] = ones before word w, in
array('I') (array('Q') from 2**32 bits on), so the directory costs half a
bit per bit and rank1 is one count read plus a popcount.  The wavelet
matrix's walks read the words and the counts directly, one rank1 at a
time; `rank1_array` ranks a whole array of prefixes at once for the
loader's level-by-level split walk, and `to_numpy_bool` unpacks the bits
for `WaveletSequence.to_array`.
"""

from __future__ import annotations

from array import array

import numpy as np

from .errors import FormatError
from .serial import words_from_bytes


def _as_words(words) -> array:
    """The words as array('Q'), the one form every bitvector holds."""
    if isinstance(words, array) and words.typecode == "Q":
        return words
    return array("Q", words)


def _pack_bits(bits: np.ndarray) -> array:
    """Words holding a bool (or 0/1) array's bits, the first in bit 0 of word 0."""
    packed = np.packbits(bits, bitorder="little")
    return words_from_bytes(packed.tobytes() + bytes(-packed.size % 8))


def _typed(values: np.ndarray, code: str) -> array:
    return array(code, values.astype(code).tobytes())  # numpy reads the same type codes


def _rank_directory(words: array, n_bits: int) -> tuple[array, int]:
    """cum[w], the ones before word w (cum[len(words)] all of them), as
    array('I') or, from 2**32 bits on, array('Q'); and the ones."""
    ones_by = np.bitwise_count(np.frombuffer(words, dtype=np.uint64)).cumsum(dtype=np.int64)
    cum = np.concatenate(([0], ones_by))
    return _typed(cum, "I" if n_bits < 1 << 32 else "Q"), int(cum[-1])


class BitVector:
    """Uncompressed bitvector with O(1) rank."""

    __slots__ = ("n_bits", "ones", "words", "cum")

    def __init__(self, words: array, n_bits: int):
        words = _as_words(words)
        if n_bits < 0 or len(words) != (n_bits + 63) // 64:
            raise FormatError("word count does not match bit length")
        if n_bits % 64 and words and words[-1] >> (n_bits % 64):
            raise FormatError("stray bits beyond declared length")
        self.n_bits = n_bits
        self.words = words
        self.cum, self.ones = _rank_directory(words, n_bits)

    @classmethod
    def from_numpy_bool(cls, arr: np.ndarray) -> "BitVector":
        return cls(_pack_bits(arr), int(arr.shape[0]))

    def rank1_array(self, positions: np.ndarray) -> np.ndarray:
        """rank1 at each prefix length of an int64 array, all within [0, n_bits]."""
        words = np.frombuffer(self.words, dtype=np.uint64)
        wi = positions >> 6
        # a prefix ending on a word boundary takes no bits of the word it names
        mask = (np.uint64(1) << (positions & 63).astype(np.uint64)) - np.uint64(1)
        last = words[np.minimum(wi, words.size - 1)] & mask
        return np.asarray(self.cum)[wi].astype(np.int64) + np.bitwise_count(last)

    def to_numpy_bool(self) -> np.ndarray:
        le = np.frombuffer(self.words, dtype=np.uint64).astype("<u8", copy=False).view(np.uint8)
        return np.unpackbits(le, count=self.n_bits, bitorder="little").view(bool)

    def __repr__(self):
        return f"BitVector(n_bits={self.n_bits}, ones={self.ones})"
