"""End-to-end command-line runs through main(argv)."""

import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rfq
from conftest import split_sequence
from rfq.cli import main
from rfq.serial import seal, unseal


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
    assert diag["ranks"] >= 1
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


def test_verify_checks_at_least_one_query(abra_index, capsys):
    # a run that checks nothing must not report ok
    for count in ("0", "-5"):
        assert main(["verify", abra_index, "--queries", count]) == 2
        assert "queries must be at least 1" in capsys.readouterr().err


def test_verify_seed_from_environment(abra_index, capsys, monkeypatch):
    monkeypatch.setenv("RFQ_SEED", "17")
    assert main(["verify", abra_index, "--queries", "50", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 17
    assert payload["ok"] is True


def test_inject_fault_witness(tmp_path, capsys):
    # a fault in a file, one flipped bit of the level words, is
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
    assert "config" not in rep  # format 9 stores no config to echo
    assert rep["sequence_bits"] < rep["total_bits"] == 8 * os.path.getsize(abra_index)


def test_usage_errors(abra_index, tmp_path):
    assert main(["query", abra_index, "majority", "1", "11"]) == 2  # no tau
    assert main(["query", abra_index, "majority", "1", "11", "--tau", "0"]) == 2
    assert main(["query", abra_index, "majority", "0", "11", "--tau", ".5"]) == 2
    assert main(["build", str(tmp_path / "missing.bin")]) == 2
    for removed in (["--arity", "4"], ["--full-family-range"], ["--verify-mode", "rank"],
                    ["--family-min-n", "4"], ["--build-check", "always"], ["--chunk-len", "16"],
                    ["--trade", "2"], ["--compressed"], ["--space-preset"]):
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


def test_corrupt_index_exits_three(tmp_path):
    bad = tmp_path / "junk.rfq"
    bad.write_bytes(b"JUNKJUNKJUNK")
    assert main(["query", str(bad), "mode", "1", "2"]) == 3


def test_corrupt_header_field_exits_three(abra_index, capsys):
    # the remap kind follows the sequence in the payload, which starts at
    # offset 6, after the magic and the version; it becomes 7 and the
    # payload's CRC32 is recomputed, so the load gets past the checksum
    # to the field check
    at = len(rfq.IndexBundle.load(abra_index).seq.to_bytes())
    with open(abra_index, "rb") as fh:
        body = bytearray(unseal(fh.read()))
    body[at] = 7
    with open(abra_index, "wb") as fh:
        fh.write(seal(bytes(body)))
    assert main(["info", abra_index]) == 3
    assert "unknown remap kind 7" in capsys.readouterr().err


def test_impossibly_dense_family_exits_three(tmp_path, capsys):
    # a crafted file, checksum intact, that claims one symbol fewer than
    # its top level holds: level 0 is read as n bits, and the bit left
    # over is set
    bundle = rfq.IndexBundle.from_values(np.resize(np.arange(1, 9), 3000))
    prefix, rest = split_sequence(bytes(unseal(bundle.to_bytes())))
    assert bundle.seq.to_array()[-1] == 8  # a code starting 1
    idx = tmp_path / "short.rfq"
    idx.write_bytes(seal(struct.pack("<Q", 2999) + prefix[8:] + rest))
    assert main(["info", str(idx)]) == 3
    assert "stray bits beyond declared length" in capsys.readouterr().err


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
    body = bytes(unseal(blob))
    at = body.index(b"cat")
    idx.write_bytes(seal(body[:at] + b"\xff" + body[at + 1:]))  # crafted, with a fresh checksum
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
        ["build", str(src), "-o", str(index)],
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
