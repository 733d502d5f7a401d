import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from jiffy import bench
from jiffy.cli import main
from jiffy.codec import EncodedScan, encode
from jiffy.container import HEADER_SIZE, StreamReader, StreamWriter
from jiffy.rawio import RawSequenceSpec, read_all
from jiffy.scan import Scan
from jiffy.synthetic import generate

from .refimpl import ref_dequantize, ref_quantize
from .test_container import with_mask_codec


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

    assert run("verify", "--input", corpus, "--container", jfy) == 0
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


@pytest.mark.parametrize("scan_type", ["range", "signal"])
def test_decompress_output_bytes(tmp_path, corpus, scan_type):
    # float32 output is the dequantized frame with NaN written as 0; integer
    # output is the samples, widened exactly to a wider element type
    raw = read_all(RawSequenceSpec(corpus, "float32", 16, 64))
    is_range = scan_type == "range"
    samples = ref_quantize(raw, 1000, 2, is_range)
    assert (samples == 0).any()
    jfy = tmp_path / "seq.jfy"
    assert run("compress", "--input", corpus, "--shape", "16x64",
               "--scan-type", scan_type, "--output", jfy) == 0
    floats = np.nan_to_num(ref_dequantize(samples, 1000, is_range), nan=0.0)
    expect = {"float32": floats.astype("<f4"), "uint16": samples,
              "uint32": samples.astype("<u4")}
    for etype, want in expect.items():
        out = tmp_path / f"back.{etype}"
        assert run("decompress", "--input", jfy, "--etype", etype,
                   "--output", out) == 0
        assert out.read_bytes() == want.tobytes()


def test_failed_decompress_keeps_existing_output(tmp_path, corpus, capsys):
    jfy, bad = tmp_path / "seq.jfy", tmp_path / "bad.jfy"
    run("compress", "--input", corpus, "--shape", "16x64", "--output", jfy)
    bad.write_bytes(jfy.read_bytes() + b"\0")     # corrupt after frame 3
    out = tmp_path / "out.f32"
    out.write_bytes(b"old contents")
    before = sorted(os.listdir(tmp_path))
    assert run("decompress", "--input", bad, "--output", out) == 2
    assert out.read_bytes() == b"old contents"
    assert sorted(os.listdir(tmp_path)) == before    # no temporary left

    link = tmp_path / "link.f32"                     # replaced through a link
    link.symlink_to(out)
    assert run("decompress", "--input", jfy, "--output", link) == 0
    assert link.is_symlink() and out.stat().st_size == 4 * 16 * 64 * 4
    assert sorted(os.listdir(tmp_path)) == sorted(before + ["link.f32"])
    # a path that is not a regular file is written directly
    assert run("decompress", "--input", jfy, "--output", os.devnull) == 0
    assert os.path.exists(os.devnull)
    capsys.readouterr()


def test_failed_compress_keeps_existing_output(tmp_path, corpus, capsys,
                                              monkeypatch):
    calls = []

    def failing_encode(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise OSError("disk gone")
        return encode(*args, **kwargs)

    monkeypatch.setattr("jiffy.cli.encode", failing_encode)
    out = tmp_path / "seq.jfy"
    out.write_bytes(b"old contents")
    before = sorted(os.listdir(tmp_path))
    assert run("compress", "--input", corpus, "--shape", "16x64",
               "--output", out) == 1
    assert len(calls) == 3
    assert out.read_bytes() == b"old contents"
    assert sorted(os.listdir(tmp_path)) == before    # no temporary left
    assert "disk gone" in capsys.readouterr().err


def test_output_file_modes(tmp_path, corpus, capsys):
    """A new output gets the mode a plain open() gives under the umask; an
    output written over keeps its own mode."""
    jfy, back = tmp_path / "seq.jfy", tmp_path / "back.f32"
    compress = ("compress", "--input", corpus, "--shape", "16x64",
                "--output", jfy)
    decompress = ("decompress", "--input", jfy, "--output", back)
    old_umask = os.umask(0o022)
    try:
        assert run(*compress) == 0
        assert run(*decompress) == 0
        assert jfy.stat().st_mode & 0o777 == 0o644
        assert back.stat().st_mode & 0o777 == 0o644
        for path, argv in ((jfy, compress), (back, decompress)):
            path.chmod(0o600)
            assert run(*argv) == 0
            assert path.stat().st_mode & 0o777 == 0o600
    finally:
        os.umask(old_umask)
    capsys.readouterr()


def test_verify_detects_mismatched_input(tmp_path, corpus, capsys):
    jfy = tmp_path / "seq.jfy"
    run("compress", "--input", corpus, "--shape", "16x64", "--output", jfy)
    other = tmp_path / "other.f32"
    run("gen", "--kind", "static_scene", "--frames", 4, "--shape", "16x64",
        "--seed", 99, "--output", other)
    capsys.readouterr()
    assert run("verify", "--input", other, "--container", jfy) == 2
    assert "FAILED" in capsys.readouterr().out


@pytest.mark.parametrize("raw_frames,message", [
    (3, "container has more frames than raw input (3 raw frames)"),
    (5, "raw input has more frames than container (4)"),
])
def test_verify_detects_frame_count_mismatch(tmp_path, corpus, capsys,
                                             raw_frames, message):
    jfy = tmp_path / "seq.jfy"
    run("compress", "--input", corpus, "--shape", "16x64", "--output", jfy)
    frame_bytes = 16 * 64 * 4
    data = corpus.read_bytes()
    other = tmp_path / "other.f32"
    other.write_bytes((data + data)[:raw_frames * frame_bytes])
    capsys.readouterr()
    assert run("verify", "--input", other, "--container", jfy) == 2
    assert f"verify FAILED: {message}" in capsys.readouterr().out


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
    assert run("verify", "--input", corpus, "--container", jfy) == 2
    assert "frame 2: value count" in capsys.readouterr().err


def test_unknown_mask_codec_names_frame_and_exits_2(tmp_path, corpus, capsys):
    # frame 2's mask block names codec 7; the CRC still holds
    jfy = tmp_path / "seq.jfy"
    run("compress", "--input", corpus, "--shape", "16x64", "--output", jfy)
    with open(jfy, "rb") as src:
        reader = StreamReader(src)
        header, encs = reader.header, list(reader)
    encs[2] = with_mask_codec(encs[2], 7)
    with open(jfy, "wb") as sink, StreamWriter(sink, header) as w:
        for enc in encs:
            w.write_frame(enc)
    capsys.readouterr()
    assert run("decompress", "--input", jfy,
               "--output", tmp_path / "back.f32") == 2
    assert "error: frame 2: unknown byte codec id 7" in capsys.readouterr().err
    assert run("verify", "--input", corpus, "--container", jfy) == 2
    assert "error: frame 2: unknown byte codec id 7" in capsys.readouterr().err


def test_bytes_after_declared_frames_exit_2(tmp_path, corpus, capsys):
    jfy = tmp_path / "seq.jfy"
    run("compress", "--input", corpus, "--shape", "16x64", "--output", jfy)
    blob = jfy.read_bytes()
    junk, twice = tmp_path / "junk.jfy", tmp_path / "twice.jfy"
    junk.write_bytes(blob + b"garbage")
    twice.write_bytes(blob + blob[HEADER_SIZE:])      # every record again
    capsys.readouterr()
    back = tmp_path / "back.f32"
    for bad in (junk, twice):
        assert run("decompress", "--input", bad, "--output", back) == 2
        assert "after the last of 4 declared frames" in capsys.readouterr().err
        assert not back.exists()            # no complete-looking output left
        assert run("verify", "--input", corpus, "--container", bad) == 2
        assert "after the last of 4 declared frames" in capsys.readouterr().err
    back.write_bytes(b"kept")               # a path that was there stays
    assert run("decompress", "--input", junk, "--output", back) == 2
    assert back.read_bytes() == b"kept"


def test_verify_reads_raw_at_container_geometry(tmp_path, capsys):
    # the container header gives the raw frames' rows and cols
    raw, jfy = tmp_path / "small.f32", tmp_path / "small.jfy"
    run("gen", "--kind", "random", "--frames", 2, "--shape", "4x8",
        "--output", raw)
    run("compress", "--input", raw, "--shape", "4x8", "--output", jfy)
    capsys.readouterr()
    assert run("verify", "--input", raw, "--container", jfy) == 0
    assert "verify OK: 2 frames sample-exact" in capsys.readouterr().out
    ragged = tmp_path / "ragged.f32"          # one and a half 4x8 frames
    ragged.write_bytes(raw.read_bytes()[:192])
    assert run("verify", "--input", ragged, "--container", jfy) == 1
    assert ("size 192 is not a whole number of 128-byte frames"
            in capsys.readouterr().err)


def test_decompress_to_narrower_integers_exits_1(tmp_path, corpus, capsys):
    jfy, out = tmp_path / "seq.jfy", tmp_path / "q.u8"
    run("compress", "--input", corpus, "--shape", "16x64", "--output", jfy)
    capsys.readouterr()
    assert run("decompress", "--input", jfy, "--etype", "uint8",
               "--output", out) == 1
    assert "narrower than the stream's 2-byte samples" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_empty_raw_input_round_trips(tmp_path, capsys):
    empty, jfy = tmp_path / "empty.f32", tmp_path / "empty.jfy"
    empty.write_bytes(b"")
    back = tmp_path / "back.f32"
    assert run("compress", "--input", empty, "--shape", "4x8",
               "--output", jfy) == 0
    assert capsys.readouterr().out == f"wrote {jfy}: 0 frames, ratio n/a\n"
    assert run("decompress", "--input", jfy, "--output", back) == 0
    assert capsys.readouterr().out == f"wrote {back}: 0 frames\n"
    assert back.read_bytes() == b""
    assert run("verify", "--input", empty, "--container", jfy) == 0
    assert "verify OK: 0 frames" in capsys.readouterr().out


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
    for argv, message in (
            (("compress", "--shape", "0x64"), "shape must be positive"),
            (("sweep", "--precisions", "1000,1mm"),
             "precisions must be comma-separated integers"),
            (("sweep", "--precisions", "1000,0"),
             "precisions must be positive"),
            (("sweep", "--precisions", ","), "precisions must be positive")):
        with pytest.raises(SystemExit) as ei:
            run(*argv)
        assert ei.value.code == 1
        assert message in capsys.readouterr().err
    # runtime usage problems return 1 without raising
    assert run("compress", "--input", tmp_path / "absent.f32",
               "--shape", "4x4", "--output", tmp_path / "o.jfy") == 1
    ragged = tmp_path / "ragged.f32"
    ragged.write_bytes(b"\x00" * 13)
    assert run("compress", "--input", ragged, "--shape", "4x4",
               "--output", tmp_path / "o.jfy") == 1
    empty = tmp_path / "empty.f32"
    empty.write_bytes(b"")
    assert run("sweep", "--input", empty, "--shape", "4x8",
               "--precisions", "1000") == 1
    assert "non-empty" in capsys.readouterr().err
    for command in ("bench", "ablate", "heuristic-eval"):
        assert run(command, "--input", empty, "--shape", "4x8") == 1
        assert f"{empty}: no frames" in capsys.readouterr().err
    for noise in ("nan", "-5"):
        assert run("gen", "--kind", "static_scene", "--frames", "1",
                   "--shape", "4x8", "--noise-mm", noise,
                   "--output", tmp_path / "g.f32") == 1
        assert "noise_mm" in capsys.readouterr().err
    assert not (tmp_path / "g.f32").exists()


def test_flags_without_effect_are_not_accepted(tmp_path, corpus, capsys):
    # verify takes geometry, scan type, width and precision from the
    # container header; sweep takes its precisions from --precisions;
    # heuristic-eval measures the shipping trial size
    jfy = tmp_path / "seq.jfy"
    run("compress", "--input", corpus, "--shape", "16x64", "--output", jfy)
    for argv in (("verify", "--input", corpus, "--shape", "16x64",
                  "--container", jfy),
                 ("verify", "--input", corpus,
                  "--scan-type", "signal", "--container", jfy),
                 ("sweep", "--input", corpus, "--shape", "16x64",
                  "--precision-um", 7, "--precisions", "1000"),
                 ("heuristic-eval", "--input", corpus, "--shape", "16x64",
                  "--test-lines", "4")):
        with pytest.raises(SystemExit) as ei:
            run(*argv)
        assert ei.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["auto", "i", "p"])
def test_bench_reports_and_csv_json(tmp_path, corpus, capsys, mode):
    csv_path, json_path = tmp_path / "b.csv", tmp_path / "b.json"
    assert run("bench", "--input", corpus, "--shape", "16x64", "--reps", 2,
               "--mode", mode, "--csv", csv_path, "--json", json_path) == 0
    out = capsys.readouterr().out
    assert "Mpts/s" in out and "ratio" in out
    report = json.loads(json_path.read_text())
    assert report["frame_count"] == 4 and report["reps"] == 2
    assert report["ratio"] > 1.0
    forced_p = {"i": 0, "p": report["frame_count"] - 1}
    if mode in forced_p:
        assert report["p_scans"] == forced_p[mode]
    assert csv_path.read_text().count("\n") == 6   # header + 4 frames + agg


def test_sweep_and_ablate_and_heuristic(tmp_path, capsys):
    raw = tmp_path / "seq.f32"
    run("gen", "--kind", "static_scene", "--frames", 4, "--shape", "32x256",
        "--sparsity", "0.1", "--output", raw)
    capsys.readouterr()

    sweep_csv = tmp_path / "sweep.csv"
    assert run("sweep", "--input", raw, "--shape", "32x256",
               "--precisions", "1000,2000", "--csv", sweep_csv) == 0
    out = capsys.readouterr().out
    assert "1000" in out and "2000" in out and "bits/sample" in out
    with open(sweep_csv) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["precision_um", "bits_per_sample", "output_bytes",
                       "ratio"]
    assert [r[0] for r in rows[1:]] == ["1000", "2000"]

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


@pytest.mark.parametrize("argv", [
    ["bench", "--reps", 1], ["sweep", "--precisions", 1000], ["ablate"],
    ["heuristic-eval"]], ids=["bench", "sweep", "ablate", "heuristic-eval"])
def test_harness_decode_mismatch_exits_2(tmp_path, corpus, capsys,
                                         monkeypatch, argv):
    real_decode, calls = bench.decode, []

    def flipping_decode(*args):
        scan = real_decode(*args)
        calls.append(1)
        if len(calls) != 2:             # only frame 1 of the first pass
            return scan
        samples = scan.samples.copy()
        samples[0, 0] ^= 1
        return Scan(scan.scan_type, scan.sample_width, samples)

    monkeypatch.setattr(bench, "decode", flipping_decode)
    assert run(argv[0], "--input", corpus, "--shape", "16x64",
               *argv[1:]) == 2
    assert capsys.readouterr().err == "error: decode mismatch at frame 1\n"


def test_compress_forced_modes_roundtrip(tmp_path, corpus):
    for mode in ("i", "p"):
        jfy = tmp_path / f"m_{mode}.jfy"
        assert run("compress", "--input", corpus, "--shape", "16x64",
                   "--mode", mode, "--output", jfy) == 0
        assert run("verify", "--input", corpus, "--container", jfy) == 0


@pytest.mark.parametrize("flags,byte,value", [
    (("--mask-codec", "stored"), 15, 0),
    (("--sample-width", 1), 10, 1),
    (("--sample-width", 4), 10, 4),
])
def test_compress_header_flags_roundtrip(tmp_path, corpus, capsys, flags,
                                         byte, value):
    # header byte 10 is the sample width, byte 15 the mask codec id
    jfy = tmp_path / "seq.jfy"
    assert run("compress", "--input", corpus, "--shape", "16x64", *flags,
               "--output", jfy) == 0
    assert jfy.read_bytes()[byte] == value
    assert run("verify", "--input", corpus, "--container", jfy) == 0
    back = tmp_path / "back.f32"
    assert run("decompress", "--input", jfy, "--output", back) == 0
    assert back.stat().st_size == 4 * 16 * 64 * 4
    capsys.readouterr()


def test_compress_integer_input_keeps_width(tmp_path, capsys):
    raw = tmp_path / "seq.u16"
    frames = np.arange(2 * 4 * 8, dtype=np.uint16).reshape(2, 4, 8)
    from jiffy.rawio import write_frames
    write_frames(raw, frames, "uint16")
    jfy = tmp_path / "seq.jfy"
    assert run("compress", "--input", raw, "--shape", "4x8",
               "--etype", "uint16", "--scan-type", "signal",
               "--output", jfy) == 0
    assert run("verify", "--input", raw,
               "--etype", "uint16", "--container", jfy) == 0
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


def test_ablate_and_heuristic_on_integer_input(tmp_path, corpus, capsys):
    # integer frames are the quantized samples at their own width: the same
    # scans as the float corpus quantized at the default 1 mm step
    jfy, q = tmp_path / "seq.jfy", tmp_path / "q.u16"
    run("compress", "--input", corpus, "--shape", "16x64", "--output", jfy)
    run("decompress", "--input", jfy, "--etype", "uint16", "--output", q)
    ablation, heuristic = {}, {}
    for raw, etype in ((corpus, "float32"), (q, "uint16")):
        csv_path = tmp_path / f"{etype}.csv"
        assert run("ablate", "--input", raw, "--shape", "16x64",
                   "--etype", etype, "--csv", csv_path) == 0
        with open(csv_path) as f:
            ablation[etype] = list(csv.DictReader(f))
        capsys.readouterr()
        assert run("heuristic-eval", "--input", raw, "--shape", "16x64",
                   "--etype", etype) == 0
        heuristic[etype] = capsys.readouterr().out
    assert heuristic["float32"] == heuristic["uint16"]
    for f, u in zip(ablation["float32"], ablation["uint16"], strict=True):
        assert f["output_bytes"] == u["output_bytes"]
        # ratios count the ingested element size: 4 float bytes, 2 integer
        assert float(f["ratio"]) == pytest.approx(2 * float(u["ratio"]))
