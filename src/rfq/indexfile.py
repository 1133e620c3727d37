"""A whole index in one file: the symbol remapping and the sequence.

A bundle is the sequence and one label table.  Builders accept arbitrary
integers (or token strings) and translate them onto the dense 1..sigma
domain the sequence requires, keeping the sorted distinct originals as
the labels; query results are translated back, so callers only ever see
their own symbols.  Ties and orderings follow the sorted order of the
original symbols (lexicographic for tokens).

A build makes the Huffman-shaped wavelet matrix and nothing else: every
query is a split walk over it (see `majority` and `minority`).

File layout (magic ``RFQI``, format version 9), after the magic and the
version, two checked sections, each a u64 length, its payload and the
payload's CRC32:

1. header: the remap kind (a u8) and its table: nothing for the identity,
   a counted word array of the original ints, or the tokens as one
   counted UTF-8 blob, one token per line;
2. sequence: n, sigma, the packed code-length table, the level header
   (each level's bit length) and the level word stream (see `sequence`).

Each section's CRC32 is compared before the section is decoded, so a
damaged file fails with `FormatError` instead of decoding to a different
sequence.  A CRC catches damage, not a crafted consistent file, so the
structural checks stay: the code lengths must form a complete prefix
code within the length cap before any level is read, each level's size
must fit the code trie before its words are read, the levels must split
into the leaves the code lengths promise, and the remap table must hold
exactly sigma entries in strictly increasing order.  Rank directories
and the per-node largest counts are rebuilt at load, so the file stores
only what the space accounting counts.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from .config import IndexConfig
from .counters import QueryTrace
from .errors import DomainError, FormatError
from .majority import MajorityIndex, _majorities, _mode
from .minority import MinorityIndex, _minority
from .sequence import WaveletSequence
from .serial import FORMAT_VERSION, MAGIC_INDEX, ByteReader, ByteWriter

_REMAP_IDENTITY, _REMAP_INTS, _REMAP_TOKENS = 0, 1, 2


class IndexBundle:
    """The sequence over dense symbols 1..sigma and its label table: None
    (the symbols are their own labels), an array('q') of the sorted
    original ints, or a list of the sorted tokens; dense symbol a answers
    as labels[a - 1]."""

    def __init__(self, seq: WaveletSequence, labels: array | list[str] | None = None):
        self.seq = seq
        self.labels = labels
        # the query classes perfbench's tracer times queries through
        self.majority = MajorityIndex(seq)
        self.minority = MinorityIndex(seq)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_values(cls, values, config: IndexConfig | None = None) -> "IndexBundle":
        """The index of a 1-d integer sequence; config is accepted and
        ignored (see `IndexConfig`)."""
        arr = np.asarray(values)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("input must be a non-empty 1-d integer sequence")
        # a float would be truncated and a value past int64 wrap, so both
        # are refused (Python ints beyond int64 arrive as an object array)
        if arr.dtype.kind not in "iu" or (arr.dtype.kind == "u" and arr.max() >= 2**63):
            raise DomainError(f"input must hold integers within int64, got {arr.dtype} values")
        originals, dense0 = np.unique(arr.astype(np.int64, copy=False), return_inverse=True)
        sigma = int(originals.size)
        identity = bool(originals[0] == 1 and originals[-1] == sigma)
        labels = None if identity else array("q", originals.tobytes())
        return cls(WaveletSequence.build(dense0.astype(np.int64) + 1), labels)

    @classmethod
    def from_tokens(cls, tokens, config: IndexConfig | None = None) -> "IndexBundle":
        """The index of a sequence of strings; config is accepted and
        ignored (see `IndexConfig`)."""
        toks = list(tokens)
        if not toks:
            raise DomainError("token sequence is empty")
        vocab, dense0 = np.unique(np.asarray(toks, dtype=object), return_inverse=True)
        labels = [str(t) for t in vocab]
        if any("\n" in t for t in labels):
            # the file stores the token table one token per line
            raise DomainError("tokens must not contain a newline")
        return cls(WaveletSequence.build(dense0.astype(np.int64) + 1), labels)

    # -- symbol translation ---------------------------------------------------

    def to_original(self, dense_symbol: int):
        return dense_symbol if self.labels is None else self.labels[dense_symbol - 1]

    def _map_pairs(self, pairs):
        return [(self.to_original(a), occ) for a, occ in pairs]

    def _map_hit(self, hit):
        return None if hit is None else (self.to_original(hit[0]), hit[1])

    # -- queries ---------------------------------------------------------------

    def query_majorities(self, lo: int, hi: int, tau: float):
        return self._map_pairs(self.majority.query_majorities(lo, hi, tau))

    def query_minority(self, lo: int, hi: int, tau: float):
        return self._map_hit(self.minority.query_minority(lo, hi, tau))

    def query_mode(self, lo: int, hi: int):
        return self._map_hit(self.majority.query_mode(lo, hi))

    def explain(self, kind: str, lo: int, hi: int, tau: float | None = None):
        """(answer, QueryTrace) of one "majority", "minority" or "mode"
        query, answered as query_majorities, query_minority or query_mode
        answers it, by the same helper; mode ignores tau."""
        if kind == "majority":
            run, args = _majorities, (lo, hi, tau)
        elif kind == "minority":
            run, args = _minority, (lo, hi, tau)
        elif kind == "mode":
            run, args, tau = _mode, (lo, hi), None
        else:
            raise DomainError(f"unknown query kind {kind!r}")
        t0 = time.perf_counter_ns()
        dense, ranks, path = run(self.seq, *args)
        elapsed_ns = time.perf_counter_ns() - t0
        if kind == "majority":
            answer, candidates = self._map_pairs(dense), len(dense)
        else:
            answer, candidates = self._map_hit(dense), int(dense is not None)
        tau = None if tau is None else float(tau)
        return answer, QueryTrace(kind, int(lo), int(hi), tau, path, candidates, ranks, elapsed_ns)

    # -- space ------------------------------------------------------------------

    def size_report(self) -> dict:
        return {
            "sequence_bits": 8 * len(self.seq.to_bytes()),
            "total_bits": 8 * len(self.to_bytes()),
            "n": self.seq.n,
            "sigma": self.seq.sigma,
            "entropy_h0": self.seq.entropy_h0(),
        }

    # -- serialization ------------------------------------------------------------

    def to_bytes(self) -> bytes:
        head = ByteWriter()
        if isinstance(self.labels, list):
            head.u8(_REMAP_TOKENS)
            head.blob("\n".join(self.labels).encode("utf-8"))
        elif self.labels is not None:
            head.u8(_REMAP_INTS)
            head.words(array("Q", self.labels.tobytes()))  # two's complement
        else:
            head.u8(_REMAP_IDENTITY)
        w = ByteWriter()
        w.raw(MAGIC_INDEX)
        w.u16(FORMAT_VERSION)
        w.checked(head.getvalue())
        w.checked(self.seq.to_bytes())
        return w.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "IndexBundle":
        r = ByteReader(data)
        r.expect_magic(MAGIC_INDEX)
        r.expect_version()
        head = ByteReader(r.checked())
        kind = head.u8()
        labels = None
        if kind == _REMAP_TOKENS:
            try:
                labels = head.blob().decode("utf-8").split("\n")
            except UnicodeDecodeError as exc:
                raise FormatError(f"token table is not UTF-8: {exc}") from exc
        elif kind == _REMAP_INTS:
            labels = array("q", head.words().tobytes())  # two's complement
        elif kind != _REMAP_IDENTITY:
            raise FormatError(f"unknown remap kind {kind}")
        if not head.done():
            raise FormatError("trailing bytes after the remap table")
        body = ByteReader(r.checked())
        if not r.done():
            raise FormatError("trailing bytes after index payload")
        seq = WaveletSequence.read_from(body)
        if not body.done():
            raise FormatError("trailing bytes after the sequence")
        if labels is not None:
            # answers index the table by dense symbol, and ties follow its order
            if len(labels) != seq.sigma:
                raise FormatError(f"remap table has {len(labels)} entries, sigma is {seq.sigma}")
            if any(a >= b for a, b in zip(labels, labels[1:])):
                raise FormatError("remap table is not strictly increasing")
        return cls(seq, labels)

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path) -> "IndexBundle":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())
