"""Byte-level primitives and full index round trips."""

import math
import random
import struct
import tracemalloc
from array import array

import numpy as np
import pytest

from conftest import codes, from_bits, legacy_sections, split_sequence, without_level_header
from rfq import IndexConfig, oracle
from rfq.cli import main as cli_main
from rfq.corpus import zipf_string
from rfq.errors import ConfigError, DomainError, FormatError
from rfq.indexfile import IndexBundle
from rfq.sequence import WaveletSequence
from rfq.serial import ByteReader, ByteWriter, seal, unseal
from test_fuzz import fuzz_input


# -- writer/reader primitives -------------------------------------------------------


def test_primitive_round_trip():
    w = ByteWriter()
    w.u8(200)
    w.u32(3_000_000_000)
    w.u64(2**63 + 5)
    w.raw(b"payload")
    w.words([0, 1, 2**64 - 1])
    w.words([7, 2**63])
    w.raw(b"rest")
    r = ByteReader(w.getvalue())
    assert r.u8() == 200
    assert r.u32() == 3_000_000_000
    assert r.u64() == 2**63 + 5
    assert r.raw(7) == b"payload"
    assert list(r.words(3)) == [0, 1, 2**64 - 1]
    assert list(r.words(2)) == [7, 2**63]
    assert r.rest() == b"rest"
    assert r.done()


def test_reader_words_checks_count_before_allocating():
    w = ByteWriter()
    w.words([1, 2, 3])
    blob = w.getvalue()
    tracemalloc.start()
    try:
        for count in (2**61, 4):  # 2**61 words are 2**64 bytes; 4 is one too many
            with pytest.raises(FormatError, match="truncated"):
                ByteReader(blob).words(count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16, peak


def test_reader_truncation_and_magic():
    w = ByteWriter()
    w.raw(b"RFQI")
    w.u32(99)
    r = ByteReader(w.getvalue())
    assert r.raw(4) == b"RFQI"
    with pytest.raises(FormatError, match="truncated"):
        r.u64()  # only 4 bytes remain
    data = seal(b"abc")
    assert unseal(data) == b"abc" and len(data) == 4 + 2 + 3 + 4
    with pytest.raises(FormatError, match="bad magic"):
        unseal(b"NOPE" + data[4:])
    for cut in (1, 3, 4):  # into the CRC32, the payload gone, the frame short
        with pytest.raises(FormatError, match="checksum|truncated"):
            unseal(data[:-cut])


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
    assert blob == IndexBundle.from_values(data).to_bytes()  # the config is not stored
    back = IndexBundle.from_bytes(blob)
    assert back.to_bytes() == blob
    assert_same_answers(bundle, back, queries_for(500, rng))


def test_remap_identity():
    data = np.asarray([1, 2, 3, 2, 1, 3, 3])
    bundle = IndexBundle.from_values(data)
    assert bundle.to_original(2) == 2
    back = IndexBundle.from_bytes(bundle.to_bytes())
    assert back.query_mode(1, 7) == (3, 3)


def test_remap_arbitrary_ints():
    data = [1000, -5, 1000, 7, -5, 1000, 7, -5, 1000]
    bundle = IndexBundle.from_values(np.asarray(data))
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
    bundle = IndexBundle.from_tokens(tokens)
    assert bundle.query_mode(1, 8) == ("the", 3)
    assert bundle.query_majorities(1, 8, 0.3) == [("the", 3)]
    back = IndexBundle.from_bytes(bundle.to_bytes())
    assert back.to_bytes() == bundle.to_bytes()
    assert back.query_mode(1, 8) == ("the", 3)
    assert back.query_minority(1, 8, 0.5) == bundle.query_minority(1, 8, 0.5)


@pytest.mark.parametrize("values", [
    [1.5, 2.5, 1.5],  # truncated to 1, 2, 1, the mode (1, 2) was not in the input
    np.asarray([1.0, 2.0]),
    [2**63],  # raised a raw OverflowError
    [-2**63 - 1, 1],
    [True, False],
    ["1", "2"],
], ids=["floats", "float-array", "past-int64", "below-int64", "bools", "strings"])
def test_from_values_refuses_non_integers(values):
    with pytest.raises(DomainError, match="integers within int64"):
        IndexBundle.from_values(values)


def test_from_values_takes_every_integer_dtype():
    for dtype in (np.uint8, np.int16, np.uint32, np.int64, np.uint64):
        bundle = IndexBundle.from_values(np.asarray([7, 3, 7], dtype=dtype))
        assert bundle.query_mode(1, 3) == (7, 2)
    big = IndexBundle.from_values([2**63 - 1, -2**63, 2**63 - 1])
    assert big.query_mode(1, 3) == (2**63 - 1, 2)


def test_tokens_with_newline_are_rejected():
    with pytest.raises(DomainError):
        IndexBundle.from_tokens(["a\nb", "c", "c"])


@pytest.mark.parametrize("tokens, message", [
    # ints sorted as numbers in the build but as text in the file's table,
    # so the saved file failed to load as "not strictly increasing"
    ([1, 2, 10, 10], "must be strings"),
    (["a", 1], "must be strings"),  # a raw TypeError from the sort
    (["\ud800", "a"], "UTF-8"),  # built, then a raw UnicodeEncodeError in to_bytes
], ids=["ints", "mixed", "surrogate"])
def test_tokens_the_file_cannot_hold_are_rejected(tokens, message):
    with pytest.raises(DomainError, match=message):
        IndexBundle.from_tokens(tokens)


def test_numpy_string_tokens_are_strings():
    bundle = IndexBundle.from_tokens(np.asarray(["b", "a", "b"]))
    assert IndexBundle.from_bytes(bundle.to_bytes()).query_mode(1, 3) == ("b", 2)


def test_mode_tie_breaks_to_lexicographic_smallest_token():
    bundle = IndexBundle.from_tokens(["b", "a", "b", "a"])
    assert bundle.query_mode(1, 4) == ("a", 2)


# -- the v10 file: one checked payload ----------------------------------------------


def payload(blob: bytes) -> bytes:
    """A bundle file's payload: the sequence, then the remap kind and its
    table."""
    return bytes(unseal(blob))


def remap_at(bundle) -> int:
    """Where the remap kind sits in the bundle's payload: right after the
    sequence."""
    return len(bundle.seq.to_bytes())


def edited_levels(bundle, edit) -> bytes:
    """The bundle's file with edit(stream) -> stream applied to its level
    words, resealed."""
    body = payload(bundle.to_bytes())
    at = remap_at(bundle)
    prefix, stream = split_sequence(body[:at])
    return seal(prefix + edit(stream) + body[at:])


def test_format_errors():
    data = zipf_string(100, 5, seed=1)
    bundle = IndexBundle.from_values(data)
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

    # the payload is n (u64), sigma (u32), the packed code lengths, the
    # level words, then the remap kind and its table
    body = payload(blob)
    n = bundle.seq.n
    with pytest.raises(FormatError, match="alphabet size"):  # sigma = n + 1
        IndexBundle.from_bytes(seal(body[:8] + struct.pack("<I", n + 1) + body[12:]))
    # all-zero levels of the right sizes, which send every position to
    # the first leaf
    with pytest.raises(FormatError):
        IndexBundle.from_bytes(edited_levels(bundle, lambda stream: bytes(len(stream))))


def sequence_parts():
    """A sequence's bytes split into its fixed header (n, sigma), its
    packed code-length table and its level words."""
    seq = WaveletSequence.build(zipf_string(400, 12, skew=1.2, seed=4))
    prefix, stream = split_sequence(seq.to_bytes())
    return prefix[:12], prefix[12:], stream, seq


def packed_lengths(lens) -> bytes:
    """A code-length table as the file packs it: a width byte, then each
    length in that many bits, the first in the low bits of the first byte."""
    lens = np.asarray(lens, dtype=np.uint8)
    width = int(lens.max()).bit_length()
    bits = np.unpackbits(lens[:, None], axis=1, count=width, bitorder="little")
    return bytes([width]) + np.packbits(bits.reshape(-1), bitorder="little").tobytes()


def with_lengths(lens) -> bytes:
    """The test sequence's header and this code-length table, and no level."""
    head, _, _, _ = sequence_parts()
    return head + packed_lengths(lens)


def hostile_lengths(case: str) -> list[int]:
    _, _, _, seq = sequence_parts()
    lens = [len(code) for code in codes(seq)]
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
    bundle = IndexBundle.from_values(zipf_string(400, 12, skew=1.2, seed=4))
    blob = bundle.to_bytes()
    at = 6 + 13  # the first symbols' code lengths, past the width byte
    with pytest.raises(FormatError, match="checksum"):  # damaged in place
        IndexBundle.from_bytes(blob[:at] + b"\x00" + blob[at + 1:])
    body = payload(blob)
    with pytest.raises(FormatError, match="code length 0"):  # crafted, with a fresh CRC
        IndexBundle.from_bytes(seal(body[:13] + b"\x00" + body[14:]))


def test_packed_code_lengths_checked():
    # the table is packed: a width byte, then the lengths
    head, table, levels, seq = sequence_parts()
    assert table == packed_lengths([len(code) for code in codes(seq)])
    back = WaveletSequence.read_from(ByteReader(head + table + levels))
    assert codes(back) == codes(seq)
    with pytest.raises(FormatError, match="wide"):
        WaveletSequence.read_from(ByteReader(head + b"\x09" + table[1:]))
    packed = bytearray(table)
    packed[1] ^= 0x01  # the first symbol's length, off by one in its low bit
    with pytest.raises(FormatError, match="Kraft|code length 0"):
        WaveletSequence.read_from(ByteReader(head + bytes(packed)))


def test_unknown_remap_kind_rejected():
    bundle = IndexBundle.from_values(zipf_string(100, 5, seed=1))
    blob = bundle.to_bytes()
    at = remap_at(bundle)
    with pytest.raises(FormatError, match="checksum"):  # damaged in place
        IndexBundle.from_bytes(blob[:6 + at] + b"\x07" + blob[6 + at + 1:])
    body = payload(blob)
    with pytest.raises(FormatError, match="unknown remap kind 7"):  # crafted
        IndexBundle.from_bytes(seal(body[:at] + b"\x07" + body[at + 1:]))


# A version-6 file, as the version-6 writer left it for
# IndexBundle.from_values([1, 2, 3, 1, 4, 1, 5, 1, 2, 3, 1]): the header
# fields unchecked, then the sequence section, whose levels are
# self-describing bitvector blobs, and empty listing and family sections.
V6_CANON = bytes.fromhex(
    "5246514906000100000000000b00000000000000050000000001030303031f00"
    "000000000000524651420600000b000000000000000100000000000000560300"
    "00000000001f0000000000000052465142060000060000000000000001000000"
    "000000002a000000000000001f00000000000000524651420600000600000000"
    "000000010000000000000012000000000000000b000000000000000100000000"
    "000000"
)
_V6_SEQ_AT, _V6_SIGMA = 12, 5  # after magic, version, trade, compressed, remap kind


def test_version_6_file_rejected(tmp_path, capsys):
    with pytest.raises(FormatError, match="unsupported format version 6"):
        IndexBundle.from_bytes(V6_CANON)
    path = tmp_path / "v6.rfq"
    path.write_bytes(V6_CANON)
    assert cli_main(["query", str(path), "mode", "1", "11"]) == 3
    assert "unsupported format version 6" in capsys.readouterr().err


# A version-7 file, as the version-7 writer left it for the same input: the
# checked header section, then the checked sequence section with its
# compressed flag, a code-length byte per symbol and a kind byte per level.
V7_CANON = bytes.fromhex(
    "524651490700060000000000000001000000000006729e7a4500000000000000"
    "0b0000000000000005000000000103030303000b000000000000000006000000"
    "0000000000060000000000000056030000000000002a00000000000000120000"
    "0000000000399f036a"
)


def test_version_7_file_rejected(tmp_path, capsys):
    with pytest.raises(FormatError, match="unsupported format version 7"):
        IndexBundle.from_bytes(V7_CANON)
    path = tmp_path / "v7.rfq"
    path.write_bytes(V7_CANON)
    assert cli_main(["info", str(path)]) == 3
    assert "unsupported format version 7" in capsys.readouterr().err


# A version-9 file, as the version-9 writer left it for the same input: two
# checked sections, the header (the remap kind) and the sequence, whose
# level header stores each level's bit length in front of the words.
V9_CANON = bytes.fromhex(
    "5246514909000100000000000000008def02d23f000000000000000b00000000"
    "0000000500000002fd030b000000000000000600000000000000060000000000"
    "000056030000000000002a0000000000000012000000000000002acf9313"
)


def test_version_9_file_rejected(tmp_path, capsys):
    with pytest.raises(FormatError, match="unsupported format version 9"):
        IndexBundle.from_bytes(V9_CANON)
    # format 10's payload is the sequence section less its level header,
    # then the header section, under one CRC32
    head, body = legacy_sections(V9_CANON)
    assert head == b"\x00"
    current = IndexBundle.from_values([1, 2, 3, 1, 4, 1, 5, 1, 2, 3, 1]).to_bytes()
    assert payload(current) == without_level_header(body) + head
    assert len(V9_CANON) - len(current) == 20 + 8 * 3  # depth 3
    path = tmp_path / "v9.rfq"
    path.write_bytes(V9_CANON)
    assert cli_main(["info", str(path)]) == 3
    assert "unsupported format version 9" in capsys.readouterr().err


def test_version_2_file_rejected():
    v2 = V6_CANON[:4] + struct.pack("<H", 2) + V6_CANON[6:]
    with pytest.raises(FormatError, match="unsupported format version 2"):
        IndexBundle.from_bytes(v2)


def as_version_5(blob: bytes) -> bytes:
    """A version-6 file under the layout version 5 wrote: every version
    field 5, and no code-length table in the sequence section."""
    at = _V6_SEQ_AT + 13  # past n, sigma and compressed
    v5 = (blob[:at] + blob[at + _V6_SIGMA:]).replace(b"RFQB\x06\x00", b"RFQB\x05\x00")
    return b"RFQI\x05\x00" + v5[6:]


_V6_COMPRESSED_AT = 10


def as_version_4(blob: bytes) -> bytes:
    """A version-5 file under the header version 4 wrote: every version
    field 4, and chunk_len (u32) after trade."""
    v4 = blob.replace(b"RFQB\x05\x00", b"RFQB\x04\x00")
    return b"RFQI\x04\x00" + v4[6:_V6_COMPRESSED_AT] + struct.pack("<I", 1024) + v4[_V6_COMPRESSED_AT:]


def as_version_3(blob: bytes) -> bytes:
    """A version-5 file under the header version 3 wrote: the version-4
    header with every version field 3, and family_min_n (u32) and a
    build-check code (u8) after compressed."""
    v3 = as_version_4(blob).replace(b"RFQB\x04\x00", b"RFQB\x03\x00")
    at = _V6_COMPRESSED_AT + 4 + 1  # past chunk_len and compressed
    return b"RFQI\x03\x00" + v3[6:at] + struct.pack("<IB", 64, 0) + v3[at:]


def test_version_3_file_rejected():
    with pytest.raises(FormatError, match="unsupported format version 3"):
        IndexBundle.from_bytes(as_version_3(as_version_5(V6_CANON)))


def test_version_4_file_rejected():
    with pytest.raises(FormatError, match="unsupported format version 4"):
        IndexBundle.from_bytes(as_version_4(as_version_5(V6_CANON)))


def test_version_5_file_rejected():
    with pytest.raises(FormatError, match="unsupported format version 5"):
        IndexBundle.from_bytes(as_version_5(V6_CANON))


@pytest.mark.parametrize("field, value", [
    ("trade", 2**32),  # past the u32 header field
    ("trade", 2.5),
    ("trade", 0),
])
def test_config_fields_are_u32_ints(field, value):
    with pytest.raises(ConfigError, match=field):
        IndexConfig(**{field: value})


@pytest.mark.parametrize("value", [2, "no", None])
def test_compressed_must_be_a_bool(value):
    # 2 once built a file its own loader refused ("compressed code 2");
    # "no" and None failed in to_bytes with a raw ValueError or TypeError
    with pytest.raises(ConfigError, match="compressed must be a bool"):
        IndexConfig(compressed=value)


def test_largest_u32_config_round_trips():
    # the largest trade is accepted and, like every config, builds the
    # file the default builds
    cfg = IndexConfig(trade=2**32 - 1)
    data = zipf_string(300, 9, seed=2)
    bundle = IndexBundle.from_values(data, cfg)
    assert bundle.to_bytes() == IndexBundle.from_values(data).to_bytes()
    back = IndexBundle.from_bytes(bundle.to_bytes())
    assert_same_answers(bundle, back, queries_for(300, random.Random(4), count=10))


def token_table(raw: bytes) -> bytes:
    """The token bundle's file with this token table, which runs to the
    end of the payload."""
    bundle = IndexBundle.from_tokens("the cat sat on the mat the end".split())
    at = remap_at(bundle) + 1  # past the remap kind
    return seal(payload(bundle.to_bytes())[:at] + raw)


def int_table(values) -> bytes:
    """The int bundle's file with this table of int64 words."""
    bundle = IndexBundle.from_values(np.asarray([1000, -5, 1000, 7, -5, 1000, 7]))
    at = remap_at(bundle) + 1
    w = ByteWriter()
    w.words([v & 0xFFFFFFFFFFFFFFFF for v in values])
    return seal(payload(bundle.to_bytes())[:at] + w.getvalue())


@pytest.mark.parametrize("blob,message", [
    (lambda: token_table(b"\xffat\nend\nmat\non\nsat\nthe"), "not UTF-8"),
    (lambda: token_table(b"cat\nend_mat\non\nsat\nthe"), "5 entries, sigma is 6"),
    (lambda: token_table(b"cat\nend\nmat\non\nsat\nthe\nzoo"), "7 entries, sigma is 6"),
    (lambda: token_table(b"cat\nend\nzat\non\nsat\nthe"), "not strictly increasing"),
    (lambda: int_table([-5, 7]), "truncated payload: 3 words expected"),
    (lambda: int_table([-5, 7, 1000, 1001]), "trailing bytes after the remap table"),
    (lambda: int_table([-5, 7, 7]), "not strictly increasing"),
], ids=["tokens-not-utf8", "tokens-short", "tokens-long", "tokens-unsorted",
        "ints-short", "ints-long", "ints-unsorted"])
def test_corrupt_remap_table(blob, message):
    with pytest.raises(FormatError, match=message):
        IndexBundle.from_bytes(blob())


# -- the level words ------------------------------------------------------------------
#
# Version 7 dropped the listing and flag-family sections, whose load checks
# the tests below were first written for, version 8 the sparse level kind
# and version 10 the level header.  Each keeps its name and checks the
# check that now guards the same kind of damage: a missing or extra word, a
# hostile length, an out-of-range field or a changed payload.  Each level's
# size is what the level above leaves it, so none is stored to be wrong.


def level_bundle(compressed=False):
    return IndexBundle.from_values(zipf_string(3000, 40, skew=1.1, seed=3),
                                   IndexConfig(compressed=compressed))


def level_words(bundle) -> list[int]:
    """Each level's word count."""
    return [len(level.words) for level in bundle.seq._levels]


def test_listing_block_zero_rejected():
    # the stream holds level 0 and nothing below it, though internal
    # nodes sit there
    bundle = level_bundle()
    top = 8 * level_words(bundle)[0]
    with pytest.raises(FormatError, match="truncated"):
        IndexBundle.from_bytes(edited_levels(bundle, lambda stream: stream[:top]))


def test_listing_length_must_match_sequence():
    # level 0 is read as n bits: a file claiming ten symbols fewer leaves
    # set bits past n in level 0's last word
    bundle = level_bundle()
    body = payload(bundle.to_bytes())
    top = bundle.seq._levels[0]
    assert top.words[-1] >> (2990 % 64)  # a set bit among positions 2991..3000
    with pytest.raises(FormatError, match="stray bits"):
        IndexBundle.from_bytes(seal(struct.pack("<Q", 2990) + body[8:]))


def test_listing_block_minima_count_checked():
    # the stream must hold exactly the words the level sizes imply
    for cut in (lambda s: s[:-8], lambda s: s + bytes(8)):
        blob = edited_levels(level_bundle(), cut)
        with pytest.raises(FormatError, match="truncated|trailing bytes after the remap table"):
            IndexBundle.from_bytes(blob)


def test_listing_block_minima_values_checked():
    """The stored block minima were what caught a damaged sequence at
    trade > 1; the payload's CRC32 catches it now, at any trade."""
    data = zipf_string(2000, 50, seed=3)
    for trade in (1, 4):
        bundle = IndexBundle.from_values(data, IndexConfig(trade=trade))
        blob = bundle.to_bytes()
        at = 6 + remap_at(bundle) // 2  # a word in the middle of the stream
        bad = blob[:at] + bytes(8) + blob[at + 8:]
        with pytest.raises(FormatError, match="payload checksum mismatch"):
            IndexBundle.from_bytes(bad)


def test_listing_block_must_match_trade():
    # a file claiming a huge n is refused before a word is allocated:
    # 2**64 - 1 by the bound on n, and 2**63 - 1, within it, by the words
    # the stream lacks for level 0
    body = payload(level_bundle().to_bytes())
    for n, message in ((2**64 - 1, "at or above 2\\*\\*63"), (2**63 - 1, "truncated")):
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=message):
                IndexBundle.from_bytes(seal(struct.pack("<Q", n) + body[8:]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20, peak


@pytest.mark.parametrize("n", [2**63, 2**64 - 1])
def test_single_symbol_length_past_int64_rejected(n, tmp_path, capsys):
    """A one-symbol sequence has no level to bound n by, so a resealed
    file claiming n >= 2**63 reached the int64 counts and raised a raw
    OverflowError; the loader refuses it instead."""
    blob = IndexBundle.from_values([1, 1, 1]).to_bytes()
    body = payload(blob)
    assert len(blob) == 6 + len(body) + 4 and len(body) == 13 + 1  # the sequence, the remap kind
    bad = seal(struct.pack("<Q", n) + body[8:])
    with pytest.raises(FormatError, match=r"sequence length \d+ at or above 2\*\*63"):
        IndexBundle.from_bytes(bad)
    path = tmp_path / "huge.rfq"
    path.write_bytes(bad)
    assert cli_main(["info", str(path)]) == 3
    assert "at or above 2**63" in capsys.readouterr().err


def test_single_symbol_length_numpy_refuses(tmp_path, capsys):
    """A one-symbol file claiming n = 2**60 cannot be told from an index of
    2**60 ones, so it loads; decoding it asks numpy for an array it
    refuses without allocating, and that is a FormatError naming n, since
    no input that long could have been built."""
    body = payload(IndexBundle.from_values([1, 1, 1]).to_bytes())
    bad = seal(struct.pack("<Q", 2**60) + body[8:])
    bundle = IndexBundle.from_bytes(bad)
    assert bundle.query_mode(1, 2**60) == (1, 2**60)
    with pytest.raises(FormatError, match=f"n = {2**60}"):
        bundle.seq.to_array()
    path = tmp_path / "huge.rfq"
    path.write_bytes(bad)
    assert cli_main(["verify", str(path)]) == 3
    out, err = capsys.readouterr()
    assert err.count("\n") == 1 and err.startswith("error: ") and str(2**60) in err


@pytest.mark.parametrize("side", ["candidate", "distinct"])
def test_family_length_must_match_sequence(side):
    """candidate: a level written one word longer than the level above
    leaves it, which shifts every level below; distinct: levels of the
    sizes the code lengths promise whose bits do not split into those
    leaves."""
    bundle = level_bundle()
    if side == "candidate":
        cut = 8 * sum(level_words(bundle)[:2])  # the end of level 1

        def edit(stream):
            return stream[:cut] + bytes(8) + stream[cut:]
        with pytest.raises(FormatError):
            IndexBundle.from_bytes(edited_levels(bundle, edit))
    else:
        with pytest.raises(FormatError, match="does not fit its code lengths"):
            IndexBundle.from_bytes(edited_levels(bundle, lambda stream: bytes(len(stream))))


@pytest.mark.parametrize("side", ["majority", "minority"])
def test_family_keys_must_rise(side):
    """The payload must end where the remap table ends: majority, a byte
    after the remap table; minority, a byte after the level words, which
    is read as the remap kind and leaves the real one over."""
    bundle = level_bundle()
    body, at = payload(bundle.to_bytes()), remap_at(bundle)
    blob = seal(body + b"\x00") if side == "majority" else seal(body[:at] + b"\x00" + body[at:])
    with pytest.raises(FormatError, match="after the remap table"):
        IndexBundle.from_bytes(blob)


@pytest.mark.parametrize("side", ["majority", "minority"])
@pytest.mark.parametrize("grow", [(1, 0), (0, 1)], ids=["tier", "scale"])
def test_family_key_within_bounds(side, grow):
    """Files built plain (majority) and with the inert compressed option
    (minority).  tier: a set bit past level 0's n bits, in its last word,
    is refused.  scale: the file is the one the other option builds, byte
    for byte, and reloads to the same answers, since the option selects
    nothing (format 7 refused a flag that the sequence section did not
    repeat; format 8 echoed the option in its header, and format 9 stored
    no config at all, nor does format 10)."""
    compressed = side == "minority"
    bundle = level_bundle(compressed)
    if grow == (1, 0):
        n = bundle.seq.n
        assert n % 64

        def edit(stream):
            last = (n + 63) // 64 - 1
            word = array("Q", stream[8 * last:8 * last + 8])
            word[0] |= 1 << 63  # past bit n
            return stream[:8 * last] + word.tobytes() + stream[8 * last + 8:]
        with pytest.raises(FormatError, match="stray bits"):
            IndexBundle.from_bytes(edited_levels(bundle, edit))
    else:
        blob = bundle.to_bytes()
        assert blob == level_bundle(not compressed).to_bytes()
        back = IndexBundle.from_bytes(blob)
        assert_same_answers(bundle, back, queries_for(bundle.seq.n, random.Random(9), count=10))


@pytest.mark.parametrize("side", ["candidate", "distinct"])
def test_family_denser_than_possible_rejected(side):
    """candidate: every bit of every level set (within each level's size),
    more ones than the code trie's one-children can hold; distinct: the
    stream one level short, so the remap kind and its table are read as
    the last level's words."""
    bundle = level_bundle()
    sizes = [level.n_bits for level in bundle.seq._levels]

    def edit(stream):
        if side == "distinct":
            return stream[:-8 * level_words(bundle)[-1]]
        return b"".join(from_bits([1] * size).words.tobytes() for size in sizes)
    message = "does not fit its code lengths" if side == "candidate" else "truncated"
    with pytest.raises(FormatError, match=message):
        IndexBundle.from_bytes(edited_levels(bundle, edit))


def file_bytes(bundle) -> int:
    """A bundle file's size from its layout: the magic and the version, n
    and sigma, the code lengths (a width byte, then each length at the
    longest one's bit width), each level's words, the remap kind and its
    table (nothing, sigma int64 words, or the tokens joined by newlines)
    and the CRC32."""
    seq, labels = bundle.seq, bundle.labels
    table = 1 + (seq.sigma * seq.depth.bit_length() + 7) // 8
    words = sum(len(level.words) for level in seq._levels)
    remap = (0 if labels is None else len("\n".join(labels).encode()) if isinstance(labels, list)
             else 8 * seq.sigma)
    return 6 + 12 + table + 8 * words + 1 + remap + 4


def test_level_stream_framing():
    """One word stream and no level header: a level costs its words alone,
    where a standalone bitvector blob cost about 280 bits of framing and a
    level header 64 bits, and the code lengths are packed at the longest
    length's bit width.  So a file is its layout, on a sigma-257 input and
    on each resealed-fuzz input."""
    rng = random.Random(257)
    n, sigma = 800, 257
    data = [1 if rng.random() < 0.9 else rng.randint(1, sigma) for _ in range(n)]
    for a, k in zip(range(1, sigma + 1), rng.sample(range(n), sigma)):
        data[k] = a
    seq = WaveletSequence.build(np.asarray(data))
    words = sum(len(s.words) for s in seq._levels)
    table = 8 + 8 * ((sigma * seq.depth.bit_length() + 7) // 8)
    assert 8 * len(seq.to_bytes()) == 8 * 12 + table + 64 * words
    for kind in ("dense", "ints", "tokens", "deep"):
        bundle = fuzz_input(kind)
        assert len(bundle.to_bytes()) == file_bytes(bundle), kind


def test_save_load(tmp_path):
    data = zipf_string(300, 9, seed=8)
    bundle = IndexBundle.from_values(data)
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
    bundle = IndexBundle.from_values(data)
    back = IndexBundle.from_bytes(bundle.to_bytes())
    assert back.seq.counts.tolist() == bundle.seq.counts.tolist()
