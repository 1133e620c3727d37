"""Little-endian section framing used by every serializable structure.

Layout conventions: fixed-width integers are little-endian; variable
payloads are length-prefixed with a u64.  Bit structures start with the
magic ``RFQB``, whole index bundles with ``RFQI``.  Derived directories
(rank/select samples, range-minimum tables) are never written; they are
rebuilt when a payload is loaded.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import FormatError

MAGIC_BITS = b"RFQB"
MAGIC_INDEX = b"RFQI"
FORMAT_VERSION = 3


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

    def words(self, words: list[int]) -> None:
        """Length-prefixed array of 64-bit words."""
        self.u64(len(words))
        self.buf += struct.pack("<%dQ" % len(words), *words)

    def np_u32(self, arr) -> None:
        a = np.ascontiguousarray(arr, dtype="<u4")
        self.blob(a.tobytes())

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

    def words(self) -> list[int]:
        n = self.u64()
        return list(struct.unpack("<%dQ" % n, self._take(8 * n)))

    def np_u32(self):
        data = self.blob()
        if len(data) % 4:
            raise FormatError(f"u32 array of {len(data)} bytes")
        return np.frombuffer(data, dtype="<u4").copy()

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
