"""Little-endian framing of the index file and of the payload inside it.

An index file is the magic ``RFQI``, the format version (u16), one
payload and the payload's CRC32 (`zlib.crc32`, u32); the payload's
length is what the file's size leaves for it.  `seal` frames a payload
and `unseal` checks the frame and the CRC32 before the payload is
decoded.  Inside the payload fixed-width integers are little-endian and
nothing carries a length the reader can derive.  Derived directories
(the per-word rank counts, the code trie's per-node largest counts) are
never written; they are rebuilt when a payload is loaded.

Word arrays are held in memory as one typed buffer, ``array('Q')`` in the
host's byte order: they are written with a single buffer copy and read
straight from the payload, byte-swapped only on a big-endian host.  The
length the reader asks for is checked against the bytes left before
anything is allocated.
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array

from .errors import FormatError

MAGIC_INDEX = b"RFQI"
FORMAT_VERSION = 10

_SWAP = sys.byteorder == "big"  # the file is little-endian, array('Q') native


def words_from_bytes(data) -> array:
    """64-bit words from a little-endian buffer of whole words."""
    words = array("Q")
    words.frombytes(data)
    if _SWAP:
        words.byteswap()
    return words


def seal(payload: bytes) -> bytes:
    """The index file holding this payload."""
    head = MAGIC_INDEX + struct.pack("<H", FORMAT_VERSION)
    return head + payload + struct.pack("<I", zlib.crc32(payload))


def unseal(data) -> memoryview:
    """The payload of an index file; FormatError unless the magic, the
    version and the CRC32 check out."""
    if data[:4] != MAGIC_INDEX:
        raise FormatError(f"bad magic {bytes(data[:4])!r}, expected {MAGIC_INDEX!r}")
    if len(data) < 10:
        raise FormatError(f"truncated file: {len(data)} bytes")
    (ver,) = struct.unpack_from("<H", data, 4)
    if ver != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {ver}")
    payload = memoryview(data)[6:-4]
    if zlib.crc32(payload) != struct.unpack_from("<I", data, len(data) - 4)[0]:
        raise FormatError("payload checksum mismatch")
    return payload


class ByteWriter:
    def __init__(self):
        self.buf = bytearray()

    def raw(self, data: bytes) -> None:
        self.buf += data

    def u8(self, v: int) -> None:
        self.buf += struct.pack("<B", v)

    def u32(self, v: int) -> None:
        self.buf += struct.pack("<I", v)

    def u64(self, v: int) -> None:
        self.buf += struct.pack("<Q", v)

    def words(self, words) -> None:
        """Array of 64-bit words (an array('Q') or any ints); the reader
        knows their count from elsewhere."""
        if not isinstance(words, array) or words.typecode != "Q" or _SWAP:
            words = array("Q", words)
            if _SWAP:
                words.byteswap()
        self.buf += words

    def getvalue(self) -> bytes:
        return bytes(self.buf)


class ByteReader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def raw(self, n: int):
        if self.pos + n > len(self.data):
            raise FormatError("truncated payload")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def rest(self):
        """The bytes left."""
        return self.raw(len(self.data) - self.pos)

    def u8(self) -> int:
        return struct.unpack("<B", self.raw(1))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.raw(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.raw(8))[0]

    def words(self, count: int) -> array:
        """`count` 64-bit words, as one array('Q')."""
        if 8 * count > len(self.data) - self.pos:
            raise FormatError(f"truncated payload: {count} words expected")
        start = self.pos
        self.pos += 8 * count
        return words_from_bytes(memoryview(self.data)[start : self.pos])

    def done(self) -> bool:
        return self.pos == len(self.data)
