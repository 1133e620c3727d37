"""Byte-level primitives and full index round trips."""

import math
import random
import struct
import tracemalloc

import numpy as np
import pytest

from rfq import BitVector, IndexConfig, SparseBitVector, oracle
from rfq.corpus import zipf_string
from rfq.errors import ConfigError, DomainError, FormatError
from rfq.families import FlagWorkspace, candidate_bits
from rfq.indexfile import IndexBundle
from rfq.sequence import WaveletSequence
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
    assert list(r.words()) == [0, 1, 2**64 - 1]
    assert r.np_u32().tolist() == [7, 0, 4_000_000_000]
    assert r.done()


def test_reader_words_checks_count_before_allocating():
    w = ByteWriter()
    w.words([1, 2, 3])
    blob = w.getvalue()
    tracemalloc.start()
    try:
        for count in (2**61, 4):  # 2**61 words are 2**64 bytes; 4 is one too many
            with pytest.raises(FormatError, match="truncated"):
                ByteReader(struct.pack("<Q", count) + blob[8:]).words()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16, peak


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
    IndexConfig(trade=1),
    IndexConfig(trade=8, compressed=True),
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
    bundle = IndexBundle.from_values(data, IndexConfig())
    assert bundle.to_original(2) == 2
    back = IndexBundle.from_bytes(bundle.to_bytes())
    assert back.query_mode(1, 7) == (3, 3)


def test_remap_arbitrary_ints():
    data = [1000, -5, 1000, 7, -5, 1000, 7, -5, 1000]
    bundle = IndexBundle.from_values(np.asarray(data), IndexConfig())
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
    bundle = IndexBundle.from_tokens(tokens, IndexConfig())
    assert bundle.query_mode(1, 8) == ("the", 3)
    assert bundle.query_majorities(1, 8, 0.3) == [("the", 3)]
    back = IndexBundle.from_bytes(bundle.to_bytes())
    assert back.to_bytes() == bundle.to_bytes()
    assert back.query_mode(1, 8) == ("the", 3)
    assert back.query_minority(1, 8, 0.5) == bundle.query_minority(1, 8, 0.5)


def test_tokens_with_newline_are_rejected():
    with pytest.raises(DomainError):
        IndexBundle.from_tokens(["a\nb", "c", "c"], IndexConfig())


def test_mode_tie_breaks_to_lexicographic_smallest_token():
    bundle = IndexBundle.from_tokens(["b", "a", "b", "a"],
                                     IndexConfig())
    assert bundle.query_mode(1, 4) == ("a", 2)


def test_format_errors():
    data = zipf_string(100, 5, seed=1)
    bundle = IndexBundle.from_values(data, IndexConfig())
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

    # the sequence section is n (u64), sigma (u32), compressed (u8), one
    # code-length byte per symbol, then one bitvector blob per level
    seq = bundle.seq
    seq_bytes = seq.to_bytes()
    at = blob.index(seq_bytes)
    rest = blob[at + len(seq_bytes):]
    n, sigma = seq.n, seq.sigma
    with pytest.raises(FormatError):  # sigma = n + 1
        IndexBundle.from_bytes(blob[:at + 8] + struct.pack("<I", n + 1) + blob[at + 12:])
    # all-zero levels of the right sizes (the first one bit short, then
    # whole), which send every position to the first leaf
    lens = [len(seq.code(a)) for a in range(1, sigma + 1)]
    held = [sum(int(c) for c, ln in zip(seq.counts, lens) if ln > lvl) for lvl in range(seq.depth)]
    for first_len in (n - 1, n):
        w = ByteWriter()
        w.u64(n)
        w.u32(sigma)
        w.u8(0)
        w.raw(bytes(lens))
        w.blob(BitVector.from_bits([0] * first_len).to_bytes())
        for size in held[1:]:
            w.blob(BitVector.from_bits([0] * size).to_bytes())
        with pytest.raises(FormatError):
            IndexBundle.from_bytes(blob[:at] + w.getvalue() + rest)


def sequence_parts(compressed=False):
    """A sequence's bytes split into its fixed header (n, sigma, compressed),
    its code-length table and its levels."""
    seq = WaveletSequence.build(zipf_string(400, 12, skew=1.2, seed=4), compressed=compressed)
    blob = seq.to_bytes()
    end = 13 + (1 + (seq.sigma * seq.depth.bit_length() + 7) // 8 if compressed else seq.sigma)
    return blob[:13], blob[13:end], blob[end:], seq


def with_lengths(lens) -> bytes:
    """The test sequence's header and this code-length table, and no level."""
    head, _, _, _ = sequence_parts()
    return head + bytes(lens)


def hostile_lengths(case: str) -> list[int]:
    _, table, _, seq = sequence_parts()
    lens = list(table)
    cap = math.ceil(math.log2(seq.sigma)) + 1
    longest = lens.index(max(lens))
    if case == "zero":
        lens[longest] = 0
    elif case == "above-cap":
        lens[longest] = cap + 1
    elif case == "255-bits":
        lens = [255] * len(lens)
    elif case == "kraft-under":  # one code a bit longer leaves a gap
        lens[lens.index(min(lens))] += 1
    elif case == "kraft-over":  # one code a bit shorter overlaps another
        lens[longest] -= 1
    return lens


@pytest.mark.parametrize("case, message", [
    ("zero", "code length 0"),
    ("above-cap", "above the cap"),
    ("255-bits", "above the cap"),
    ("kraft-under", "Kraft"),
    ("kraft-over", "Kraft"),
])
def test_hostile_code_lengths_rejected_before_levels(case, message):
    # the table is followed by no level at all: a check that read levels
    # first would fail with "truncated" instead
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=message):
            WaveletSequence.read_from(ByteReader(with_lengths(hostile_lengths(case))))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_truncated_code_lengths_rejected():
    head, table, _, _ = sequence_parts()
    with pytest.raises(FormatError, match="truncated"):
        WaveletSequence.read_from(ByteReader(head + table[:-1]))


def test_hostile_code_lengths_in_a_bundle():
    bundle = IndexBundle.from_values(zipf_string(400, 12, skew=1.2, seed=4), IndexConfig())
    blob = bundle.to_bytes()
    at = blob.index(bundle.seq.to_bytes()) + 13
    lens = bytearray(blob[at:at + bundle.seq.sigma])
    lens[0] = 0
    with pytest.raises(FormatError, match="code length 0"):
        IndexBundle.from_bytes(blob[:at] + bytes(lens) + blob[at + len(lens):])


def test_packed_code_lengths_checked():
    # compressed sequences pack the table: a width byte, then the lengths
    head, table, levels, seq = sequence_parts(compressed=True)
    back = WaveletSequence.read_from(ByteReader(head + table + levels))
    assert [back.code(a) for a in range(1, seq.sigma + 1)] == \
        [seq.code(a) for a in range(1, seq.sigma + 1)]
    with pytest.raises(FormatError, match="wide"):
        WaveletSequence.read_from(ByteReader(head + b"\x09" + table[1:]))
    packed = bytearray(table)
    packed[1] ^= 0x01  # the first symbol's length, off by one in its low bit
    with pytest.raises(FormatError, match="Kraft|code length 0"):
        WaveletSequence.read_from(ByteReader(head + bytes(packed)))


# the header after magic and version: trade (u32), compressed code (u8),
# then the remap kind (u8) and its table
_TRADE_AT, _COMPRESSED_AT, _REMAP_AT = 6, 10, 11


@pytest.mark.parametrize("at,value", [
    (_COMPRESSED_AT, b"\x07"),  # compressed code other than 0 or 1
    (_TRADE_AT, struct.pack("<I", 0)),  # trade 0
], ids=["compressed-code", "trade-0"])
def test_corrupt_header_fields(at, value):
    blob = IndexBundle.from_values(zipf_string(100, 5, seed=1),
                                   IndexConfig()).to_bytes()
    with pytest.raises(FormatError, match="corrupt index header"):
        IndexBundle.from_bytes(blob[:at] + value + blob[at + len(value):])


def test_version_2_file_rejected():
    blob = IndexBundle.from_values(zipf_string(100, 5, seed=1),
                                   IndexConfig()).to_bytes()
    v2 = blob[:4] + struct.pack("<H", 2) + blob[6:]
    with pytest.raises(FormatError, match="unsupported format version 2"):
        IndexBundle.from_bytes(v2)


def as_version_5(bundle: IndexBundle) -> bytes:
    """A bundle's file under the layout version 5 wrote: every version
    field 5, and no code-length table in the sequence section."""
    blob = bundle.to_bytes()
    at = blob.index(bundle.seq.to_bytes()) + 13  # past n, sigma and compressed
    v5 = (blob[:at] + blob[at + bundle.seq.sigma:]).replace(b"RFQB\x06\x00", b"RFQB\x05\x00")
    return b"RFQI\x05\x00" + v5[6:]


def as_version_4(blob: bytes) -> bytes:
    """A version-5 file under the header version 4 wrote: every version
    field 4, and chunk_len (u32) after trade."""
    v4 = blob.replace(b"RFQB\x05\x00", b"RFQB\x04\x00")
    return b"RFQI\x04\x00" + v4[6:_COMPRESSED_AT] + struct.pack("<I", 1024) + v4[_COMPRESSED_AT:]


def as_version_3(blob: bytes) -> bytes:
    """A version-5 file under the header version 3 wrote: the version-4
    header with every version field 3, and family_min_n (u32) and a
    build-check code (u8) after compressed."""
    v3 = as_version_4(blob).replace(b"RFQB\x04\x00", b"RFQB\x03\x00")
    at = _COMPRESSED_AT + 4 + 1  # past chunk_len and compressed
    return b"RFQI\x03\x00" + v3[6:at] + struct.pack("<IB", 64, 0) + v3[at:]


def test_version_3_file_rejected():
    bundle = IndexBundle.from_values(zipf_string(100, 5, seed=1), IndexConfig())
    with pytest.raises(FormatError, match="unsupported format version 3"):
        IndexBundle.from_bytes(as_version_3(as_version_5(bundle)))


def test_version_4_file_rejected():
    bundle = IndexBundle.from_values(zipf_string(100, 5, seed=1), IndexConfig())
    with pytest.raises(FormatError, match="unsupported format version 4"):
        IndexBundle.from_bytes(as_version_4(as_version_5(bundle)))


def test_version_5_file_rejected():
    bundle = IndexBundle.from_values(zipf_string(100, 5, seed=1), IndexConfig())
    with pytest.raises(FormatError, match="unsupported format version 5"):
        IndexBundle.from_bytes(as_version_5(bundle))


@pytest.mark.parametrize("field, value", [
    ("trade", 2**32),  # past the u32 header field
    ("trade", 2.5),
    ("trade", 0),
])
def test_config_fields_are_u32_ints(field, value):
    with pytest.raises(ConfigError, match=field):
        IndexConfig(**{field: value})


def test_largest_u32_config_round_trips():
    cfg = IndexConfig(trade=2**32 - 1)
    bundle = IndexBundle.from_values(zipf_string(300, 9, seed=2), cfg)
    back = IndexBundle.from_bytes(bundle.to_bytes())
    assert back.config == cfg
    assert_same_answers(bundle, back, queries_for(300, random.Random(4), count=10))


def remap_split(bundle):
    """A bundle's bytes before and after its remap table, which runs from
    just past the remap kind up to the sequence section."""
    blob = bundle.to_bytes()
    return blob[:_REMAP_AT + 1], blob[blob.index(bundle.seq.to_bytes()):]


def token_table(raw: bytes) -> bytes:
    bundle = IndexBundle.from_tokens("the cat sat on the mat the end".split(),
                                     IndexConfig())
    head, tail = remap_split(bundle)
    w = ByteWriter()
    w.blob(raw)
    return head + w.getvalue() + tail


def int_table(values) -> bytes:
    bundle = IndexBundle.from_values(np.asarray([1000, -5, 1000, 7, -5, 1000, 7]),
                                     IndexConfig())
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
    bundle = IndexBundle.from_values(data, IndexConfig(trade=trade))
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


def test_listing_block_must_match_trade():
    # a block far past n declares one block; its minima used to be taken
    # over a padded copy of 2**32 - 1 cells (16 GiB)
    head, _, tail, bundle = listing_section(2, zipf_string(2999, 40, seed=3))
    w = ByteWriter()
    w.u64(bundle.seq.n)
    w.u32(2**32 - 1)
    w.np_u32(np.zeros(1, dtype=np.uint32))  # the true minimum of its one block
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="block size 4294967295 differs from trade 2"):
            IndexBundle.from_bytes(head + w.getvalue() + tail)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20, peak


def family_bundle():
    """A trade-2 bundle with candidate and distinct families."""
    return IndexBundle.from_values(zipf_string(3000, 40, skew=1.1, seed=3), IndexConfig(trade=2))


def truncated(flags, n_bits):
    return SparseBitVector.from_ones(flags.ones_in_range(1, n_bits), n_bits)


@pytest.mark.parametrize("side", ["candidate", "distinct"])
def test_family_length_must_match_sequence(side):
    # families cut to n/2 bits used to load, then answer wrongly or raise
    # a raw RangeError from rank past their end
    bundle = family_bundle()
    families = {"candidate": bundle.majority.candidate_flags,
                "distinct": bundle.minority.distinct_flags}[side]
    for key, flags in families.items():
        families[key] = truncated(flags, 1500)
    with pytest.raises(FormatError, match="covers 1500 positions, sequence 3000"):
        IndexBundle.from_bytes(bundle.to_bytes())


@pytest.mark.parametrize("side", ["majority", "minority"])
def test_family_keys_must_rise(side):
    bundle = family_bundle()
    index = getattr(bundle, side)
    keys = index.family_keys()
    index.family_keys = lambda: keys[1:] + keys[:1]  # write one key out of order
    with pytest.raises(FormatError, match="does not follow"):
        IndexBundle.from_bytes(bundle.to_bytes())


@pytest.mark.parametrize("side", ["majority", "minority"])
@pytest.mark.parametrize("grow", [(1, 0), (0, 1)], ids=["tier", "scale"])
def test_family_key_within_bounds(side, grow):
    bundle = family_bundle()
    # sigma 40 gives tiers up to 6, n = 3000 scales up to 11
    key = (6 + grow[0], 11 + grow[1])
    if side == "majority":
        bundle.majority.candidate_flags[key] = bundle.majority.candidate_flags[(1, 11)]
    else:
        bundle.minority.distinct_flags[key] = bundle.minority.distinct_flags[(0, 11)]
    with pytest.raises(FormatError, match=rf"family key \({key[0]}, {key[1]}\) outside"):
        IndexBundle.from_bytes(bundle.to_bytes())


def all_ones(n):
    return SparseBitVector.from_ones(range(1, n + 1), n)


@pytest.mark.parametrize("side", ["candidate", "distinct"])
def test_family_denser_than_possible_rejected(side):
    # an all-ones family used to load and make every query of its key walk
    # all n flags; at scale 11 over 3000 positions at most 160 can be set
    bundle = family_bundle()
    families = {"candidate": bundle.majority.candidate_flags,
                "distinct": bundle.minority.distinct_flags}[side]
    families[(1, 11)] = all_ones(3000)
    with pytest.raises(FormatError, match=r"family \(1, 11\) holds 3000 flags, at most 160"):
        IndexBundle.from_bytes(bundle.to_bytes())


@pytest.mark.parametrize("trade", [1, 4])
def test_half_block_candidate_families_still_answer(trade):
    """Candidate families flagged on blocks of 2**(b-1), as the format's
    files once held them, are supersets of the families built now: such a
    file loads under the same format version and answers like the oracle."""
    data = zipf_string(3000, 40, skew=1.1, seed=7)
    bundle = IndexBundle.from_values(data, IndexConfig(trade=trade))
    ws = FlagWorkspace(bundle.seq.to_array())
    cand = bundle.majority.candidate_flags
    old = {}
    for t, b in cand:
        bits = candidate_bits(ws.window_counts(1 << (b + 1)), ws.block_ranks(b), 1 << (b - t))
        old[(t, b)] = SparseBitVector.from_numpy_bool(bits)
    assert sum(f.ones for f in old.values()) > sum(f.ones for f in cand.values())
    bundle.majority.candidate_flags = old
    back = IndexBundle.from_bytes(bundle.to_bytes())
    assert {k: f.ones for k, f in back.majority.candidate_flags.items()} == \
        {k: f.ones for k, f in old.items()}
    ref = data.tolist()
    rng = random.Random(trade)
    served = [(t, b) for t, b in old if 2.0 ** -t >= 1 / back.seq.sigma]  # not listing
    flagged = 0
    for t, b in served:
        for _ in range(20):
            length = rng.randint(1 << b, min((1 << (b + 1)) - 1, 3000))
            lo = rng.randint(1, 3000 - length + 1)
            hi = lo + length - 1
            tau = 2.0 ** -t
            assert back.query_majorities(lo, hi, tau) == oracle.oracle_majorities(ref, lo, hi, tau)
            flagged += back.majority.diagnostics.path == "flagged"
            assert back.query_mode(lo, hi) == oracle.oracle_mode(ref, lo, hi)
    assert flagged == 20 * len(served)


def test_save_load(tmp_path):
    data = zipf_string(300, 9, seed=8)
    bundle = IndexBundle.from_values(data, IndexConfig())
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
    bundle = IndexBundle.from_values(data, IndexConfig())
    back = IndexBundle.from_bytes(bundle.to_bytes())
    for a in range(1, back.seq.sigma + 1):
        assert back.seq.symbol_count(a) == bundle.seq.symbol_count(a)
