import json
import subprocess
import sys

import numpy as np
import pytest

from jiffy.cli import main
from jiffy.codec import EncodedScan
from jiffy.container import HEADER_SIZE, StreamReader, StreamWriter
from jiffy.rawio import RawSequenceSpec, read_all
from jiffy.synthetic import generate


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def corpus(tmp_path, capsys):
    raw = tmp_path / "seq.f32"
    assert run("gen", "--kind", "static_scene", "--frames", 4,
               "--shape", "16x64", "--seed", 3, "--output", raw) == 0
    capsys.readouterr()
    return raw


def test_gen_writes_expected_raw(corpus):
    spec = RawSequenceSpec(corpus, "float32", 16, 64)
    frames = read_all(spec)
    assert frames.shape == (4, 16, 64)
    assert np.array_equal(frames, generate("static_scene", 4, 16, 64, seed=3))


def test_compress_verify_decompress_workflow(tmp_path, corpus, capsys):
    jfy = tmp_path / "seq.jfy"
    assert run("compress", "--input", corpus, "--shape", "16x64",
               "--output", jfy) == 0
    out = capsys.readouterr().out
    assert "ratio" in out and "I-scans" in out

    assert run("verify", "--input", corpus, "--shape", "16x64",
               "--container", jfy) == 0
    assert "verify OK: 4 frames sample-exact" in capsys.readouterr().out

    back = tmp_path / "back.f32"
    assert run("decompress", "--input", jfy, "--output", back) == 0
    spec = RawSequenceSpec(back, "float32", 16, 64)
    got = read_all(spec)
    raw = read_all(RawSequenceSpec(corpus, "float32", 16, 64))
    # lossless modulo quantization: within half of the 1mm step, plus one
    # float32 ulp of the output value (ties land exactly on the bound and
    # the file cast can push them a quarter micrometer past it)
    live = raw > 0
    tol = 0.0005 + np.spacing(np.float32(64.0))
    assert np.all(np.abs(got[live] - raw[live]) <= tol)
    assert np.all(got[~live] == 0.0)


def test_decompress_to_quantized_integers(tmp_path, corpus):
    jfy = tmp_path / "seq.jfy"
    run("compress", "--input", corpus, "--shape", "16x64", "--output", jfy)
    out = tmp_path / "q.u16"
    assert run("decompress", "--input", jfy, "--etype", "uint16",
               "--output", out) == 0
    q = read_all(RawSequenceSpec(out, "uint16", 16, 64))
    raw = read_all(RawSequenceSpec(corpus, "float32", 16, 64))
    assert q.shape == (4, 16, 64)
    live = raw > 0
    assert np.all(np.abs(q[live] - raw[live] * 1000) <= 0.5 + 1e-3)


def test_verify_detects_mismatched_input(tmp_path, corpus, capsys):
    jfy = tmp_path / "seq.jfy"
    run("compress", "--input", corpus, "--shape", "16x64", "--output", jfy)
    other = tmp_path / "other.f32"
    run("gen", "--kind", "static_scene", "--frames", 4, "--shape", "16x64",
        "--seed", 99, "--output", other)
    capsys.readouterr()
    assert run("verify", "--input", other, "--shape", "16x64",
               "--container", jfy) == 2
    assert "FAILED" in capsys.readouterr().out


def test_corrupt_container_reports_frame_and_exits_2(tmp_path, corpus, capsys):
    jfy = tmp_path / "seq.jfy"
    run("compress", "--input", corpus, "--shape", "16x64", "--output", jfy)
    blob = bytearray(jfy.read_bytes())
    blob[-2] ^= 0x80
    jfy.write_bytes(bytes(blob))
    back = tmp_path / "back.f32"
    assert run("decompress", "--input", jfy, "--output", back) == 2
    err = capsys.readouterr().err
    assert "frame 3" in err

    blob[HEADER_SIZE + 1] ^= 0x01        # frame 0 length field
    jfy.write_bytes(bytes(blob))
    assert run("decompress", "--input", jfy, "--output", back) == 2


def test_codec_error_names_frame_and_exits_2(tmp_path, corpus, capsys):
    # frame 2's value count no longer matches its mask; the CRC still holds
    jfy = tmp_path / "seq.jfy"
    run("compress", "--input", corpus, "--shape", "16x64", "--output", jfy)
    with open(jfy, "rb") as src:
        reader = StreamReader(src)
        header, encs = reader.header, list(reader)
    e = encs[2]
    encs[2] = EncodedScan(e.mode, e.value_count + 1, e.mask_block,
                          e.value_block)
    with open(jfy, "wb") as sink, StreamWriter(sink, header) as w:
        for enc in encs:
            w.write_frame(enc)
    capsys.readouterr()
    assert run("decompress", "--input", jfy,
               "--output", tmp_path / "back.f32") == 2
    assert "frame 2: value count" in capsys.readouterr().err
    assert run("verify", "--input", corpus, "--shape", "16x64",
               "--container", jfy) == 2
    assert "frame 2: value count" in capsys.readouterr().err


def test_compress_reports_container_size(tmp_path, corpus, capsys):
    jfy = tmp_path / "seq.jfy"
    assert run("compress", "--input", corpus, "--shape", "16x64",
               "--output", jfy) == 0
    size = jfy.stat().st_size
    assert f"{4 * 16 * 64 * 4} -> {size} bytes" in capsys.readouterr().out


def test_usage_errors_exit_1(tmp_path, capsys):
    with pytest.raises(SystemExit) as ei:
        run("compress", "--input", "x", "--output", "y")   # missing --shape
    assert ei.value.code == 1
    with pytest.raises(SystemExit) as ei:
        run("compress", "--input", "x", "--shape", "16a64", "--output", "y")
    assert ei.value.code == 1
    with pytest.raises(SystemExit) as ei:
        run("no-such-command")
    assert ei.value.code == 1
    capsys.readouterr()
    # runtime usage problems return 1 without raising
    assert run("compress", "--input", tmp_path / "absent.f32",
               "--shape", "4x4", "--output", tmp_path / "o.jfy") == 1
    ragged = tmp_path / "ragged.f32"
    ragged.write_bytes(b"\x00" * 13)
    assert run("compress", "--input", ragged, "--shape", "4x4",
               "--output", tmp_path / "o.jfy") == 1


def test_bench_reports_and_csv_json(tmp_path, corpus, capsys):
    csv_path, json_path = tmp_path / "b.csv", tmp_path / "b.json"
    assert run("bench", "--input", corpus, "--shape", "16x64", "--reps", 2,
               "--csv", csv_path, "--json", json_path) == 0
    out = capsys.readouterr().out
    assert "Mpts/s" in out and "ratio" in out
    report = json.loads(json_path.read_text())
    assert report["frame_count"] == 4 and report["reps"] == 2
    assert report["ratio"] > 1.0
    assert csv_path.read_text().count("\n") == 6   # header + 4 frames + agg


def test_sweep_and_ablate_and_heuristic(tmp_path, capsys):
    raw = tmp_path / "seq.f32"
    run("gen", "--kind", "static_scene", "--frames", 4, "--shape", "32x256",
        "--sparsity", "0.1", "--output", raw)
    capsys.readouterr()

    assert run("sweep", "--input", raw, "--shape", "32x256",
               "--precisions", "1000,2000") == 0
    out = capsys.readouterr().out
    assert "1000" in out and "2000" in out and "bits/sample" in out

    csv_path = tmp_path / "ab.csv"
    assert run("ablate", "--input", raw, "--shape", "32x256",
               "--csv", csv_path) == 0
    out = capsys.readouterr().out
    for name in ("pfor", "delta+pfor", "full"):
        assert name in out
    assert csv_path.read_text().count("\n") == 6   # header + 5 variants

    assert run("heuristic-eval", "--input", raw, "--shape", "32x256") == 0
    out = capsys.readouterr().out
    assert "accuracy" in out


def test_compress_forced_modes_roundtrip(tmp_path, corpus):
    for mode in ("i", "p"):
        jfy = tmp_path / f"m_{mode}.jfy"
        assert run("compress", "--input", corpus, "--shape", "16x64",
                   "--mode", mode, "--output", jfy) == 0
        assert run("verify", "--input", corpus, "--shape", "16x64",
                   "--container", jfy) == 0


def test_compress_integer_input_keeps_width(tmp_path, capsys):
    raw = tmp_path / "seq.u16"
    frames = np.arange(2 * 4 * 8, dtype=np.uint16).reshape(2, 4, 8)
    from jiffy.rawio import write_frames
    write_frames(raw, frames, "uint16")
    jfy = tmp_path / "seq.jfy"
    assert run("compress", "--input", raw, "--shape", "4x8",
               "--etype", "uint16", "--scan-type", "signal",
               "--output", jfy) == 0
    assert run("verify", "--input", raw, "--shape", "4x8",
               "--etype", "uint16", "--scan-type", "signal",
               "--container", jfy) == 0
    out = tmp_path / "back.u16"
    assert run("decompress", "--input", jfy, "--etype", "uint16",
               "--output", out) == 0
    assert np.array_equal(read_all(RawSequenceSpec(out, "uint16", 4, 8)),
                          frames)


def test_console_script_entry_point(tmp_path):
    raw = tmp_path / "seq.f32"
    proc = subprocess.run(
        [sys.executable, "-m", "jiffy.cli", "gen", "--kind", "random",
         "--frames", "1", "--shape", "4x8", "--output", str(raw)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert raw.stat().st_size == 4 * 8 * 4
