"""Byte-level primitives and full index round trips."""

import random
import struct

import numpy as np
import pytest

from rfq import BitVector, IndexConfig, oracle
from rfq.corpus import zipf_string
from rfq.errors import DomainError, FormatError
from rfq.indexfile import IndexBundle
from rfq.serial import ByteReader, ByteWriter


# -- writer/reader primitives -------------------------------------------------------


def test_primitive_round_trip():
    w = ByteWriter()
    w.u8(200)
    w.u16(40_000)
    w.u32(3_000_000_000)
    w.u64(2**63 + 5)
    w.blob(b"payload")
    w.words([0, 1, 2**64 - 1])
    w.np_u32(np.asarray([7, 0, 4_000_000_000], dtype=np.uint32))
    r = ByteReader(w.getvalue())
    assert r.u8() == 200
    assert r.u16() == 40_000
    assert r.u32() == 3_000_000_000
    assert r.u64() == 2**63 + 5
    assert r.blob() == b"payload"
    assert r.words() == [0, 1, 2**64 - 1]
    assert r.np_u32().tolist() == [7, 0, 4_000_000_000]
    assert r.done()


def test_reader_truncation_and_magic():
    w = ByteWriter()
    w.raw(b"RFQI")
    w.u32(99)
    data = w.getvalue()
    r = ByteReader(data)
    r.expect_magic(b"RFQI")
    with pytest.raises(FormatError):
        r.u64()  # only 4 bytes remain
    with pytest.raises(FormatError):
        ByteReader(data).expect_magic(b"NOPE")
    w = ByteWriter()
    w.blob(b"abc")  # not a whole number of u32 values
    with pytest.raises(FormatError):
        ByteReader(w.getvalue()).np_u32()


# -- bundle round trips ---------------------------------------------------------------


def queries_for(n, rng, count=25):
    out = []
    for _ in range(count):
        lo = rng.randint(1, n)
        hi = rng.randint(lo, n)
        out.append((lo, hi, rng.choice([1.0, 0.5, 0.2, 0.07])))
    return out


def assert_same_answers(a: IndexBundle, b: IndexBundle, queries):
    for lo, hi, tau in queries:
        assert a.query_majorities(lo, hi, tau) == b.query_majorities(lo, hi, tau)
        assert a.query_minority(lo, hi, tau) == b.query_minority(lo, hi, tau)
        assert a.query_mode(lo, hi) == b.query_mode(lo, hi)


@pytest.mark.parametrize("cfg", [
    IndexConfig(trade=1, build_check="never"),
    IndexConfig(trade=8, chunk_len=64, compressed=True, family_min_n=32,
                build_check="never"),
])
def test_bundle_bit_exact_round_trip(cfg):
    rng = random.Random(cfg.trade)
    data = zipf_string(500, 20, skew=1.2, seed=5)
    bundle = IndexBundle.from_values(data, cfg)
    blob = bundle.to_bytes()
    back = IndexBundle.from_bytes(blob)
    assert back.to_bytes() == blob
    assert back.config == cfg
    assert_same_answers(bundle, back, queries_for(500, rng))


def test_remap_identity():
    data = np.asarray([1, 2, 3, 2, 1, 3, 3])
    bundle = IndexBundle.from_values(data, IndexConfig(build_check="never"))
    assert bundle.to_original(2) == 2
    back = IndexBundle.from_bytes(bundle.to_bytes())
    assert back.query_mode(1, 7) == (3, 3)


def test_remap_arbitrary_ints():
    data = [1000, -5, 1000, 7, -5, 1000, 7, -5, 1000]
    bundle = IndexBundle.from_values(np.asarray(data), IndexConfig(build_check="never"))
    assert bundle.query_mode(1, 9) == (1000, 4)
    assert bundle.query_majorities(1, 9, 0.4) == [(1000, 4)]
    want = oracle.oracle_minorities(data, 1, 9, 0.4)
    assert bundle.query_minority(1, 9, 0.4) in want
    back = IndexBundle.from_bytes(bundle.to_bytes())
    assert back.to_bytes() == bundle.to_bytes()
    assert back.query_mode(1, 9) == (1000, 4)
    assert back.query_majorities(2, 8, 0.3) == bundle.query_majorities(2, 8, 0.3)


def test_remap_tokens():
    tokens = "the cat sat on the mat the end".split()
    bundle = IndexBundle.from_tokens(tokens, IndexConfig(build_check="never"))
    assert bundle.query_mode(1, 8) == ("the", 3)
    assert bundle.query_majorities(1, 8, 0.3) == [("the", 3)]
    back = IndexBundle.from_bytes(bundle.to_bytes())
    assert back.to_bytes() == bundle.to_bytes()
    assert back.query_mode(1, 8) == ("the", 3)
    assert back.query_minority(1, 8, 0.5) == bundle.query_minority(1, 8, 0.5)


def test_tokens_with_newline_are_rejected():
    with pytest.raises(DomainError):
        IndexBundle.from_tokens(["a\nb", "c", "c"], IndexConfig(build_check="never"))


def test_mode_tie_breaks_to_lexicographic_smallest_token():
    bundle = IndexBundle.from_tokens(["b", "a", "b", "a"],
                                     IndexConfig(build_check="never"))
    assert bundle.query_mode(1, 4) == ("a", 2)


def test_format_errors():
    data = zipf_string(100, 5, seed=1)
    bundle = IndexBundle.from_values(data, IndexConfig(build_check="never"))
    blob = bundle.to_bytes()
    with pytest.raises(FormatError):
        IndexBundle.from_bytes(b"WRNG" + blob[4:])
    with pytest.raises(FormatError):
        IndexBundle.from_bytes(blob[:4] + b"\xff\xff" + blob[6:])  # bad version
    with pytest.raises(FormatError):
        IndexBundle.from_bytes(blob[:4] + struct.pack("<H", 1) + blob[6:])  # version 1
    with pytest.raises(FormatError):
        IndexBundle.from_bytes(blob + b"\x00")  # trailing junk
    with pytest.raises(FormatError):
        IndexBundle.from_bytes(blob[:-3])  # truncated

    # the sequence section is n (u64), sigma (u32), compressed (u8), then
    # one bitvector blob per level
    seq_bytes = bundle.seq.to_bytes()
    at = blob.index(seq_bytes)
    rest = blob[at + len(seq_bytes):]
    n, sigma = bundle.seq.n, bundle.seq.sigma
    with pytest.raises(FormatError):  # sigma = n + 1
        IndexBundle.from_bytes(blob[:at + 8] + struct.pack("<I", n + 1) + blob[at + 12:])
    # all-zero levels: one level short of n, then full length, where the
    # derived counts hold only symbol 1
    for first_len in (n - 1, n):
        w = ByteWriter()
        w.u64(n)
        w.u32(sigma)
        w.u8(0)
        w.blob(BitVector.from_bits([0] * first_len).to_bytes())
        for _ in range(1, (sigma - 1).bit_length()):
            w.blob(BitVector.from_bits([0] * n).to_bytes())
        with pytest.raises(FormatError):
            IndexBundle.from_bytes(blob[:at] + w.getvalue() + rest)


# the header after magic and version: trade (u32), chunk_len (u32),
# compressed (u8), family_min_n (u32), build-check code (u8), then the
# remap kind (u8) and its table
_TRADE_AT, _CHUNK_AT, _CHECK_AT, _REMAP_AT = 6, 10, 19, 20


@pytest.mark.parametrize("at,value", [
    (_CHECK_AT, b"\x07"),  # unknown build-check code
    (_TRADE_AT, struct.pack("<I", 0)),  # trade 0
    (_CHUNK_AT, struct.pack("<I", 0)),  # chunk_len 0
], ids=["check-code", "trade-0", "chunk-len-0"])
def test_corrupt_header_fields(at, value):
    blob = IndexBundle.from_values(zipf_string(100, 5, seed=1),
                                   IndexConfig(build_check="never")).to_bytes()
    with pytest.raises(FormatError, match="corrupt index header"):
        IndexBundle.from_bytes(blob[:at] + value + blob[at + len(value):])


def test_version_2_file_rejected():
    # version 2 had one more header byte, a verifier code, after chunk_len
    blob = IndexBundle.from_values(zipf_string(100, 5, seed=1),
                                   IndexConfig(build_check="never")).to_bytes()
    at = _CHUNK_AT + 4
    v2 = blob[:4] + struct.pack("<H", 2) + blob[6:at] + b"\x00" + blob[at:]
    with pytest.raises(FormatError, match="unsupported format version 2"):
        IndexBundle.from_bytes(v2)


def remap_split(bundle):
    """A bundle's bytes before and after its remap table, which runs from
    just past the remap kind up to the sequence section."""
    blob = bundle.to_bytes()
    return blob[:_REMAP_AT + 1], blob[blob.index(bundle.seq.to_bytes()):]


def token_table(raw: bytes) -> bytes:
    bundle = IndexBundle.from_tokens("the cat sat on the mat the end".split(),
                                     IndexConfig(build_check="never"))
    head, tail = remap_split(bundle)
    w = ByteWriter()
    w.blob(raw)
    return head + w.getvalue() + tail


def int_table(values) -> bytes:
    bundle = IndexBundle.from_values(np.asarray([1000, -5, 1000, 7, -5, 1000, 7]),
                                     IndexConfig(build_check="never"))
    head, tail = remap_split(bundle)
    w = ByteWriter()
    w.words([v & 0xFFFFFFFFFFFFFFFF for v in values])
    return head + w.getvalue() + tail


@pytest.mark.parametrize("blob,message", [
    (lambda: token_table(b"\xffat\nend\nmat\non\nsat\nthe"), "not UTF-8"),
    (lambda: token_table(b"cat\nend_mat\non\nsat\nthe"), "5 entries, sigma is 6"),
    (lambda: token_table(b"cat\nend\nmat\non\nsat\nthe\nzoo"), "7 entries, sigma is 6"),
    (lambda: token_table(b"cat\nend\nzat\non\nsat\nthe"), "not strictly increasing"),
    (lambda: int_table([-5, 7]), "2 entries, sigma is 3"),
    (lambda: int_table([-5, 7, 7]), "not strictly increasing"),
], ids=["tokens-not-utf8", "tokens-short", "tokens-long", "tokens-unsorted",
        "ints-short", "ints-unsorted"])
def test_corrupt_remap_table(blob, message):
    with pytest.raises(FormatError, match=message):
        IndexBundle.from_bytes(blob())


def listing_section(trade, data=None):
    """A bundle's bytes, split around its listing section: n (u64), block
    (u32), then for block > 1 the block minima as a u32 array."""
    if data is None:
        data = zipf_string(100, 5, seed=1)
    bundle = IndexBundle.from_values(data, IndexConfig(trade=trade, build_check="never"))
    blob = bundle.to_bytes()
    at = blob.index(bundle.seq.to_bytes()) + len(bundle.seq.to_bytes())
    w = ByteWriter()
    bundle.majority.listing.write_to(w)
    end = at + len(w.getvalue())
    return blob[:at], blob[at:end], blob[end:], bundle


def test_listing_block_zero_rejected():
    head, listing, tail, _ = listing_section(1)
    bad = listing[:8] + struct.pack("<I", 0) + listing[12:]
    with pytest.raises(FormatError, match="block size is 0"):
        IndexBundle.from_bytes(head + bad + tail)


def test_listing_length_must_match_sequence():
    head, listing, tail, bundle = listing_section(1)
    bad = struct.pack("<Q", bundle.seq.n - 1) + listing[8:]
    with pytest.raises(FormatError, match="listing covers 99 positions"):
        IndexBundle.from_bytes(head + bad + tail)


def test_listing_block_minima_count_checked():
    head, listing, tail, bundle = listing_section(4)
    minima = bundle.majority.listing.cprime
    assert minima.size == 25
    w = ByteWriter()
    w.u64(bundle.seq.n)
    w.u32(4)
    w.np_u32(minima[:-1])  # one block minimum short
    with pytest.raises(FormatError, match="24 block minima, expected 25"):
        IndexBundle.from_bytes(head + w.getvalue() + tail)


def test_listing_block_minima_values_checked():
    # minima too large let the recursion skip blocks that hold answers
    data = zipf_string(2000, 50, seed=3)
    head, _, tail, bundle = listing_section(4, data)
    w = ByteWriter()
    w.u64(bundle.seq.n)
    w.u32(4)
    w.np_u32(np.full(500, 2000))
    with pytest.raises(FormatError, match="block minima disagree"):
        IndexBundle.from_bytes(head + w.getvalue() + tail)


def test_save_load(tmp_path):
    data = zipf_string(300, 9, seed=8)
    bundle = IndexBundle.from_values(data, IndexConfig(build_check="never"))
    path = tmp_path / "seq.rfq"
    bundle.save(path)
    back = IndexBundle.load(path)
    assert back.to_bytes() == bundle.to_bytes()
    rng = random.Random(0)
    assert_same_answers(bundle, back, queries_for(300, rng, count=15))


def test_counts_rebuilt_not_stored():
    # symbol counts are derivable, so the payload should not shrink when the
    # alphabet collapses to one heavy symbol plus noise
    data = zipf_string(400, 12, skew=2.0, seed=3)
    bundle = IndexBundle.from_values(data, IndexConfig(build_check="never"))
    back = IndexBundle.from_bytes(bundle.to_bytes())
    for a in range(1, back.seq.sigma + 1):
        assert back.seq.symbol_count(a) == bundle.seq.symbol_count(a)
