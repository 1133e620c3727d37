"""End-to-end command-line runs through main(argv)."""

import json
import os
import re
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import rfq
from conftest import joined_sequence, split_sequence
from rfq.cli import main
from rfq.serial import FORMAT_VERSION, ByteReader, ByteWriter


@pytest.fixture
def abra_index(tmp_path):
    src = tmp_path / "abra.bin"
    src.write_bytes(b"abracadabra")
    assert main(["build", str(src)]) == 0
    return str(src) + ".rfq"


def test_build_prints_report(tmp_path, capsys):
    src = tmp_path / "abra.bin"
    src.write_bytes(b"abracadabra")
    assert main(["build", str(src), "-o", str(tmp_path / "x.rfq")]) == 0
    out = capsys.readouterr().out
    assert "n 11" in out
    assert "sigma 5" in out
    assert "total_bits" in out
    assert f"wrote {tmp_path / 'x.rfq'}" in out


def test_query_majority(abra_index, capsys):
    assert main(["query", abra_index, "majority", "1", "11", "--tau", "0.2"]) == 0
    assert capsys.readouterr().out == "97 5\n"
    # 'acada': three a's out of five
    assert main(["query", abra_index, "majority", "4", "8", "--tau", "0.5"]) == 0
    assert capsys.readouterr().out == "97 3\n"
    assert main(["query", abra_index, "majority", "1", "11", "--tau", "0.5"]) == 0
    assert capsys.readouterr().out == ""


def test_query_minority(abra_index, capsys):
    assert main(["query", abra_index, "minority", "1", "11", "--tau", "0.2"]) == 0
    sym, occ = capsys.readouterr().out.split()
    assert (int(sym), int(occ)) in [(98, 2), (99, 1), (100, 1), (114, 2)]


def test_query_mode(abra_index, capsys):
    assert main(["query", abra_index, "mode", "1", "11"]) == 0
    assert capsys.readouterr().out == "97 5\n"


def test_query_json_diagnostics(abra_index, capsys):
    assert main(["query", abra_index, "majority", "1", "11", "--tau", "0.2",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] == [[97, 5]]
    diag = payload["diagnostics"]
    assert diag["kind"] == "majority"
    assert diag["sequence_ops"] >= 1
    assert diag["path"]


def test_tokens_round_trip(tmp_path, capsys):
    src = tmp_path / "words.txt"
    src.write_text("the cat sat on the mat the end\n")
    assert main(["build", str(src), "--format", "tokens"]) == 0
    capsys.readouterr()
    idx = str(src) + ".rfq"
    assert main(["query", idx, "mode", "1", "8"]) == 0
    assert capsys.readouterr().out == "the 3\n"
    assert main(["query", idx, "majority", "1", "8", "--tau", "0.3"]) == 0
    assert capsys.readouterr().out == "the 3\n"
    assert main(["info", idx]) == 0
    assert "symbol_domain tokens" in capsys.readouterr().out


def test_u32le_format(tmp_path, capsys):
    src = tmp_path / "vals.u32"
    src.write_bytes(np.asarray([70000, 3, 70000, 70000], dtype="<u4").tobytes())
    assert main(["build", str(src), "--format", "u32le"]) == 0
    capsys.readouterr()
    assert main(["query", str(src) + ".rfq", "mode", "1", "4"]) == 0
    assert capsys.readouterr().out == "70000 3\n"
    bad = tmp_path / "bad.u32"
    bad.write_bytes(b"\x01\x02\x03")  # not a multiple of four
    assert main(["build", str(bad), "--format", "u32le"]) == 2


def test_verify_clean(abra_index, capsys):
    assert main(["verify", abra_index, "--queries", "300", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    assert "300 queries" in out
    assert out.strip().endswith("ok")


def test_verify_seed_from_environment(abra_index, capsys, monkeypatch):
    monkeypatch.setenv("RFQ_SEED", "17")
    assert main(["verify", abra_index, "--queries", "50", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 17
    assert payload["ok"] is True


def test_inject_fault_witness(tmp_path, capsys):
    # a fault in a file, one flipped bit of the sequence section, is
    # noticed by its checksum before any query runs
    src = tmp_path / "runs.bin"
    src.write_bytes(bytes((i // 8) % 8 + 1 for i in range(512)))
    assert main(["build", str(src)]) == 0
    capsys.readouterr()
    idx = tmp_path / "runs.bin.rfq"
    blob = bytearray(idx.read_bytes())
    blob[-40] ^= 0x10
    idx.write_bytes(bytes(blob))
    assert main(["verify", str(idx), "--seed", "0"]) == 3
    assert "checksum" in capsys.readouterr().err


def test_inject_fault_masked_exits_nonzero(tmp_path):
    # --inject-fault removed a candidate flag; with the families gone it is
    # retired, and the option is an unknown argument
    src = tmp_path / "alternating.bin"
    src.write_bytes(bytes(i % 2 + 1 for i in range(512)))
    assert main(["build", str(src)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(src) + ".rfq", "--inject-fault"])
    assert exc.value.code == 2


def test_info(abra_index, capsys):
    assert main(["info", abra_index, "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["n"] == 11
    assert rep["sigma"] == 5
    assert rep["symbol_domain"] == "ints"
    assert rep["config"] == {"trade": 1, "compressed": False}


def test_usage_errors(abra_index, tmp_path):
    assert main(["query", abra_index, "majority", "1", "11"]) == 2  # no tau
    assert main(["query", abra_index, "majority", "1", "11", "--tau", "0"]) == 2
    assert main(["query", abra_index, "majority", "0", "11", "--tau", ".5"]) == 2
    assert main(["build", str(tmp_path / "missing.bin")]) == 2
    for removed in (["--arity", "4"], ["--full-family-range"], ["--verify-mode", "rank"],
                    ["--family-min-n", "4"], ["--build-check", "always"], ["--chunk-len", "16"]):
        with pytest.raises(SystemExit) as exc:
            main(["build", str(tmp_path / "missing.bin"), *removed])
        assert exc.value.code == 2  # unknown argument
    for removed in (["majority", "1", "11", "--tau", ".5", "--verify-mode", "rank"],
                    ["minority", "1", "11", "--tau", ".5", "--strategy", "flags"]):
        with pytest.raises(SystemExit) as exc:
            main(["query", abra_index, *removed])
        assert exc.value.code == 2  # unknown argument
    with pytest.raises(SystemExit) as exc:
        main(["bench", abra_index])
    assert exc.value.code == 2  # unknown verb


def test_config_out_of_range_exits_two(tmp_path, capsys):
    src = tmp_path / "abra.bin"
    src.write_bytes(b"abracadabra")
    for value in ("0", str(2**32)):
        assert main(["build", str(src), "--trade", value]) == 2
        assert "must be an int in [1, 2**32 - 1]" in capsys.readouterr().err


def test_corrupt_index_exits_three(tmp_path):
    bad = tmp_path / "junk.rfq"
    bad.write_bytes(b"JUNKJUNKJUNK")
    assert main(["query", str(bad), "mode", "1", "2"]) == 3


def test_corrupt_header_field_exits_three(abra_index, capsys):
    # the header section's payload starts at offset 14, after the magic,
    # the version and its u64 length; its byte 4, the compressed code,
    # becomes 7 and the section's CRC32 is recomputed, so the load gets
    # past the checksum to the field check
    with open(abra_index, "rb") as fh:
        blob = bytearray(fh.read())
    (length,) = struct.unpack_from("<Q", blob, 6)
    blob[18] = 7
    struct.pack_into("<I", blob, 14 + length, zlib.crc32(blob[14:14 + length]))
    with open(abra_index, "wb") as fh:
        fh.write(blob)
    assert main(["info", abra_index]) == 3
    assert "compressed code 7" in capsys.readouterr().err


def test_impossibly_dense_family_exits_three(tmp_path, capsys):
    # a crafted file, checksums intact, whose top level is one bit short
    bundle = rfq.IndexBundle.from_values(np.resize(np.arange(1, 9), 3000))
    prefix, sizes, stream = split_sequence(bundle.seq.to_bytes(), bundle.seq.depth)
    bad = joined_sequence(prefix, [2999] + sizes[1:], stream)
    head = ByteWriter()
    head.u32(1)
    head.u8(0)
    head.u8(0)  # identity remap
    w = ByteWriter()
    w.raw(b"RFQI")
    w.u16(FORMAT_VERSION)
    w.checked(head.getvalue())
    w.checked(bad)
    idx = tmp_path / "short.rfq"
    idx.write_bytes(w.getvalue())
    assert main(["info", str(idx)]) == 3
    assert "level 0 holds 2999 bits" in capsys.readouterr().err


def test_corrupt_token_table_exits_three(tmp_path, capsys):
    src = tmp_path / "words.txt"
    src.write_text("the cat sat on the mat the end\n")
    assert main(["build", str(src), "--format", "tokens"]) == 0
    idx = tmp_path / "words.txt.rfq"
    blob = idx.read_bytes()
    at = blob.index(b"cat")
    idx.write_bytes(blob[:at] + b"\xff" + blob[at + 1:])  # not UTF-8
    capsys.readouterr()
    assert main(["info", str(idx)]) == 3
    assert "checksum" in capsys.readouterr().err  # damaged in place
    r = ByteReader(blob)
    r.raw(6)  # magic and version
    head, seq = r.checked(), r.checked()
    w = ByteWriter()
    w.raw(blob[:6])
    at = head.index(b"cat")
    w.checked(head[:at] + b"\xff" + head[at + 1:])
    w.checked(seq)
    idx.write_bytes(w.getvalue())  # crafted, with fresh checksums
    assert main(["info", str(idx)]) == 3
    assert "not UTF-8" in capsys.readouterr().err


def run_session(tmp_path, optimize: bool) -> tuple[str, bytes]:
    """build -> info -> query -> verify through `python [-O] -m rfq.cli`;
    returns the output (wall times dropped) and the index file."""
    src = tmp_path / "zipf.bin"
    rng = np.random.default_rng(21)
    src.write_bytes(bytes((rng.zipf(1.3, 3000) % 40 + 1).tolist()))
    index = tmp_path / ("opt.rfq" if optimize else "plain.rfq")
    env = {**os.environ, "PYTHONPATH": str(Path(rfq.__file__).parents[1]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    out = []
    for args in (
        ["build", str(src), "-o", str(index), "--trade", "2"],
        ["info", str(index)],
        ["query", str(index), "majority", "1", "3000", "--tau", "0.1"],
        ["query", str(index), "minority", "100", "2500", "--tau", "0.05"],
        ["query", str(index), "mode", "17", "1999"],
        ["verify", str(index), "--queries", "150", "--seed", "5"],
    ):
        cmd = [sys.executable, *(["-O"] if optimize else []), "-m", "rfq.cli", *args]
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        out += [re.sub(r" in [0-9.]+s", "", line) for line in done.stdout.splitlines()
                if not line.startswith(("build_seconds", "wrote"))]
    return "\n".join(out), index.read_bytes()


def test_optimized_interpreter_gives_same_output(tmp_path):
    # `python -O` strips assert statements; invariants must not depend on them
    plain = run_session(tmp_path, optimize=False)
    assert plain[0].endswith("150 queries: ok")
    assert run_session(tmp_path, optimize=True) == plain
