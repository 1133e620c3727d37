"""A whole index in one file: sequence, listing engine, flag families.

The bundle owns the symbol remapping.  Builders accept arbitrary integers
(or token strings) and translate them onto the dense 1..sigma domain the
core structures require; query results are translated back, so callers
only ever see their own symbols.  Ties and orderings follow the sorted
order of the original symbols (lexicographic for tokens).

File layout (magic ``RFQI``, version-checked on load): a config echo, the
raw domain description, the remap table, then the four structural
sections.  On load the remap table must hold exactly sigma entries in
strictly increasing order.  Everything derived (rank directories,
range-minimum tables, per-family listing engines) is rebuilt lazily after
load, so the file stores only what the space accounting counts.
"""

from __future__ import annotations

import numpy as np

from .config import IndexConfig
from .errors import ConfigError, DomainError, FormatError
from .listing import ListingIndex
from .majority import MajorityIndex, build_majority_index
from .minority import MinorityIndex, build_minority_index
from .sequence import WaveletSequence
from .serial import FORMAT_VERSION, MAGIC_INDEX, ByteReader, ByteWriter

_CHECK_CODES = {"auto": 0, "always": 1, "never": 2}
_REMAP_IDENTITY, _REMAP_INTS, _REMAP_TOKENS = 0, 1, 2


class IndexBundle:
    def __init__(
        self,
        majority: MajorityIndex,
        minority: MinorityIndex,
        originals: np.ndarray | None = None,
        tokens: list[str] | None = None,
    ):
        if majority.seq is not minority.seq:
            raise DomainError("majority and minority sides must share one sequence")
        self.majority = majority
        self.minority = minority
        self.originals = originals  # sorted original ints; None means identity
        self.tokens = tokens  # sorted token strings, exclusive with originals

    # -- construction -------------------------------------------------------

    @classmethod
    def from_values(cls, values, config: IndexConfig | None = None) -> "IndexBundle":
        arr = np.asarray(values, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("input must be a non-empty 1-d integer sequence")
        originals, dense0 = np.unique(arr, return_inverse=True)
        dense = dense0.astype(np.int64) + 1
        sigma = int(originals.size)
        identity = bool(originals[0] == 1 and originals[-1] == sigma)
        return cls._build(dense, config, None if identity else originals, None)

    @classmethod
    def from_tokens(cls, tokens, config: IndexConfig | None = None) -> "IndexBundle":
        toks = list(tokens)
        if not toks:
            raise DomainError("token sequence is empty")
        vocab, dense0 = np.unique(np.asarray(toks, dtype=object), return_inverse=True)
        table = [str(t) for t in vocab]
        if any("\n" in t for t in table):
            # the file stores the token table one token per line
            raise DomainError("tokens must not contain a newline")
        dense = dense0.astype(np.int64) + 1
        return cls._build(dense, config, None, table)

    @classmethod
    def _build(cls, dense, config, originals, tokens) -> "IndexBundle":
        config = config or IndexConfig()
        seq = WaveletSequence.build(dense, compressed=config.compressed)
        listing = ListingIndex.for_sequence(seq, config.trade, dense)
        maj = build_majority_index(dense, config, seq=seq, listing=listing)
        mino = build_minority_index(dense, config, seq=seq, listing=listing)
        return cls(maj, mino, originals, tokens)

    # -- symbol translation ---------------------------------------------------

    def to_original(self, dense_symbol: int):
        if self.tokens is not None:
            return self.tokens[dense_symbol - 1]
        if self.originals is not None:
            return int(self.originals[dense_symbol - 1])
        return dense_symbol

    def _map_pairs(self, pairs):
        return [(self.to_original(a), occ) for a, occ in pairs]

    # -- queries ---------------------------------------------------------------

    @property
    def seq(self) -> WaveletSequence:
        return self.majority.seq

    @property
    def config(self) -> IndexConfig:
        return self.majority.config

    def query_majorities(self, lo: int, hi: int, tau: float):
        return self._map_pairs(self.majority.query_majorities(lo, hi, tau))

    def query_minority(self, lo: int, hi: int, tau: float, strategy: str = "listing"):
        hit = self.minority.query_minority(lo, hi, tau, strategy=strategy)
        return None if hit is None else (self.to_original(hit[0]), hit[1])

    def query_mode(self, lo: int, hi: int):
        a, occ = self.majority.query_mode(lo, hi)
        return self.to_original(a), occ

    # -- space ------------------------------------------------------------------

    def size_report(self) -> dict:
        rep = self.majority.size_report()
        rep.update(self.minority.size_report())
        rep["total_bits"] = 8 * len(self.to_bytes())
        rep["n"] = self.seq.n
        rep["sigma"] = self.seq.sigma
        rep["entropy_h0"] = self.seq.entropy_h0()
        return rep

    # -- serialization ------------------------------------------------------------

    def to_bytes(self) -> bytes:
        w = ByteWriter()
        w.raw(MAGIC_INDEX)
        w.u16(FORMAT_VERSION)
        cfg = self.config
        w.u32(cfg.trade)
        w.u32(cfg.chunk_len)
        w.u8(int(cfg.compressed))
        w.u32(cfg.family_min_n)
        w.u8(_CHECK_CODES[cfg.build_check])
        if self.tokens is not None:
            w.u8(_REMAP_TOKENS)
            w.blob("\n".join(self.tokens).encode("utf-8"))
        elif self.originals is not None:
            w.u8(_REMAP_INTS)
            w.words([int(v) & 0xFFFFFFFFFFFFFFFF for v in self.originals])
        else:
            w.u8(_REMAP_IDENTITY)
        self.seq.write_to(w)
        self.majority.listing.write_to(w)
        self.majority.write_families(w)
        self.minority.write_families(w)
        return w.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "IndexBundle":
        r = ByteReader(data)
        r.expect_magic(MAGIC_INDEX)
        r.expect_version()
        check_by_code = {v: k for k, v in _CHECK_CODES.items()}
        trade, chunk_len = r.u32(), r.u32()
        compressed, family_min_n, check = bool(r.u8()), r.u32(), r.u8()
        try:
            # an unknown code passes through as itself, which the config rejects
            cfg = IndexConfig(
                trade=trade,
                chunk_len=chunk_len,
                compressed=compressed,
                family_min_n=family_min_n,
                build_check=check_by_code.get(check, check),
            )
        except ConfigError as exc:
            raise FormatError(f"corrupt index header: {exc}") from exc
        kind = r.u8()
        table = None
        if kind == _REMAP_TOKENS:
            try:
                table = r.blob().decode("utf-8").split("\n")
            except UnicodeDecodeError as exc:
                raise FormatError(f"token table is not UTF-8: {exc}") from exc
        elif kind == _REMAP_INTS:
            table = [v - (1 << 64) if v >= 1 << 63 else v for v in r.words()]
        elif kind != _REMAP_IDENTITY:
            raise FormatError(f"unknown remap kind {kind}")
        seq = WaveletSequence.read_from(r)
        if table is not None:
            # answers index the table by dense symbol, and ties follow its order
            if len(table) != seq.sigma:
                raise FormatError(f"remap table has {len(table)} entries, sigma is {seq.sigma}")
            if any(a >= b for a, b in zip(table, table[1:])):
                raise FormatError("remap table is not strictly increasing")
        listing = ListingIndex.read_from(r, seq)
        cand, anch, prev = MajorityIndex.read_families(r)
        dist = MinorityIndex.read_families(r)
        if not r.done():
            raise FormatError("trailing bytes after index payload")
        maj = MajorityIndex(seq, cfg, listing, cand, anch, prev)
        mino = MinorityIndex(seq, cfg, listing, dist)
        originals = np.array(table, dtype=np.int64) if kind == _REMAP_INTS else None
        return cls(maj, mino, originals, table if kind == _REMAP_TOKENS else None)

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path) -> "IndexBundle":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())
