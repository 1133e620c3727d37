"""Little-endian section framing used by every serializable structure.

Layout conventions: fixed-width integers are little-endian; variable
payloads are length-prefixed with a u64.  A checked section is such a
payload followed by its CRC32 (`zlib.crc32`, u32), which the reader
compares before it hands the payload on to be decoded.  An index file
starts with the magic ``RFQI`` and the format version.  Derived
directories (the per-word rank counts, the code trie's per-node largest
counts) are never written; they are rebuilt when a payload is loaded.

Word arrays are held in memory as one typed buffer, ``array('Q')`` in the
host's byte order: they are written with a single buffer copy and read
straight from the payload, byte-swapped only on a big-endian host.  Their
declared length is checked against the bytes left before anything is
allocated.
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array

from .errors import FormatError

MAGIC_INDEX = b"RFQI"
FORMAT_VERSION = 9

_SWAP = sys.byteorder == "big"  # the file is little-endian, array('Q') native


def words_from_bytes(data) -> array:
    """64-bit words from a little-endian buffer of whole words."""
    words = array("Q")
    words.frombytes(data)
    if _SWAP:
        words.byteswap()
    return words


class ByteWriter:
    def __init__(self):
        self.buf = bytearray()

    def raw(self, data: bytes) -> None:
        self.buf += data

    def u8(self, v: int) -> None:
        self.buf += struct.pack("<B", v)

    def u16(self, v: int) -> None:
        self.buf += struct.pack("<H", v)

    def u32(self, v: int) -> None:
        self.buf += struct.pack("<I", v)

    def u64(self, v: int) -> None:
        self.buf += struct.pack("<Q", v)

    def blob(self, data: bytes) -> None:
        self.u64(len(data))
        self.buf += data

    def checked(self, data: bytes) -> None:
        """A length-prefixed payload and its CRC32."""
        self.blob(data)
        self.u32(zlib.crc32(data))

    def words(self, words, counted: bool = True) -> None:
        """Array of 64-bit words (an array('Q') or any ints), behind a u64
        count unless the reader knows it from elsewhere."""
        if not isinstance(words, array) or words.typecode != "Q" or _SWAP:
            words = array("Q", words)
            if _SWAP:
                words.byteswap()
        if counted:
            self.u64(len(words))
        self.buf += words

    def getvalue(self) -> bytes:
        return bytes(self.buf)


class ByteReader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError("truncated payload")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def raw(self, n: int) -> bytes:
        return self._take(n)

    def u8(self) -> int:
        return struct.unpack("<B", self._take(1))[0]

    def u16(self) -> int:
        return struct.unpack("<H", self._take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def blob(self) -> bytes:
        n = self.u64()
        return self._take(n)

    def checked(self) -> bytes:
        """A checked section's payload; FormatError unless its CRC32 matches."""
        data = self.blob()
        if zlib.crc32(data) != self.u32():
            raise FormatError("section checksum mismatch")
        return data

    def words(self, count: int | None = None) -> array:
        """64-bit words, as one array('Q'): `count` of them, or as many as
        the u64 count in front of them says."""
        n = self.u64() if count is None else count
        if 8 * n > len(self.data) - self.pos:
            raise FormatError(f"truncated payload: {n} words declared")
        start = self.pos
        self.pos += 8 * n
        return words_from_bytes(memoryview(self.data)[start : self.pos])

    def expect_magic(self, magic: bytes) -> None:
        got = self._take(len(magic))
        if got != magic:
            raise FormatError(f"bad magic {got!r}, expected {magic!r}")

    def expect_version(self) -> int:
        ver = self.u16()
        if ver != FORMAT_VERSION:
            raise FormatError(f"unsupported format version {ver}")
        return ver

    def done(self) -> bool:
        return self.pos == len(self.data)
