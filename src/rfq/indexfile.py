"""A whole index in one file: the symbol remapping and the sequence.

A bundle is the sequence and one label table.  Builders accept arbitrary
int64 integers (or strings) and translate them onto the dense 1..sigma
domain the sequence requires, keeping the sorted distinct originals as
the labels; query results are translated back, so callers only ever see
their own symbols.  Ties and orderings follow the sorted order of the
original symbols (lexicographic for tokens).

A build makes the Huffman-shaped wavelet matrix and nothing else: every
query is a split walk over it (see `majority` and `minority`).

File layout (magic ``RFQI``, format version 10): after the magic and the
version, one payload and its CRC32; the payload's length is what the
file's size leaves for it.  The payload is the sequence (n, sigma, the
packed code-length table and every level's words, see `sequence`), then
the remap kind (a u8) and its table, which runs to the end of the
payload: nothing for the identity, sigma int64 words for ints, or the
UTF-8 tokens joined by newlines.  No table stores its count.

The CRC32 is compared before the payload is decoded, so a damaged file
fails with `FormatError` instead of decoding to a different sequence.  A
CRC catches damage, not a crafted consistent file, so the structural
checks stay: the code lengths must form a complete prefix code within
the length cap before any level is read, the words must last for each
level at the size the level above leaves it, every child slot of the
code trie must hold a position, and the remap table must hold exactly
sigma entries in strictly increasing order, with no byte after it.
Rank directories and the per-node largest counts are rebuilt at load,
so the file stores only what the space accounting counts.
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
from .serial import ByteReader, ByteWriter, seal, unseal

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
        """The index of a sequence of strings (numpy's included), each one
        UTF-8 without a newline; config is accepted and ignored (see
        `IndexConfig`)."""
        toks = list(tokens)
        if not toks:
            raise DomainError("token sequence is empty")
        # other objects would sort here otherwise than in the file's table
        if not all(issubclass(t, str) for t in set(map(type, toks))):
            raise DomainError("tokens must be strings")
        vocab, dense0 = np.unique(np.asarray(toks, dtype=object), return_inverse=True)
        labels = [str(t) for t in vocab]
        # the file stores the token table as UTF-8, one token per line
        if any("\n" in t for t in labels):
            raise DomainError("tokens must not contain a newline")
        try:
            "".join(labels).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise DomainError(f"tokens must encode as UTF-8: {exc}") from None
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
        w = ByteWriter()
        self.seq.write_to(w)
        if isinstance(self.labels, list):
            w.u8(_REMAP_TOKENS)
            w.raw("\n".join(self.labels).encode("utf-8"))
        elif self.labels is not None:
            w.u8(_REMAP_INTS)
            w.words(array("Q", self.labels.tobytes()))  # two's complement
        else:
            w.u8(_REMAP_IDENTITY)
        return seal(w.getvalue())

    @classmethod
    def from_bytes(cls, data: bytes) -> "IndexBundle":
        r = ByteReader(unseal(data))
        seq = WaveletSequence.read_from(r)
        kind = r.u8()
        labels = None
        if kind == _REMAP_TOKENS:
            try:
                labels = str(r.rest(), "utf-8").split("\n")
            except UnicodeDecodeError as exc:
                raise FormatError(f"token table is not UTF-8: {exc}") from exc
        elif kind == _REMAP_INTS:
            labels = array("q", r.words(seq.sigma).tobytes())  # two's complement
        elif kind != _REMAP_IDENTITY:
            raise FormatError(f"unknown remap kind {kind}")
        if not r.done():
            raise FormatError("trailing bytes after the remap table")
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
