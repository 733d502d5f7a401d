import csv
import json

import numpy as np
import pytest

from jiffy import bench
from jiffy.bench import (ABLATION_LADDER, run_ablation, run_bench,
                         run_heuristic_eval, run_sweep)
from jiffy.scan import QuantizationSpec, Scan, ScanType, quantize
from jiffy.synthetic import generate

SPEC_1MM = QuantizationSpec(precision_um=1000, sample_width=2)


def scans_of(kind, frames=6, rows=32, cols=64, seed=0, **kw):
    seq = generate(kind, frames, rows, cols, seed=seed, **kw)
    return [quantize(f, SPEC_1MM) for f in seq]


def test_run_bench_report_sanity(tmp_path):
    scans = scans_of("static_scene")
    rep = run_bench(scans, reps=2)
    assert rep.frame_count == 6 and rep.reps == 2
    assert rep.rows == 32 and rep.cols == 64 and rep.sample_width == 2
    assert rep.input_bytes == 6 * 32 * 64 * 2
    assert rep.output_bytes == sum(f.output_bytes for f in rep.frames)
    assert rep.ratio == pytest.approx(rep.input_bytes / rep.output_bytes)
    assert rep.ratio > 1.5
    assert rep.encode_points_per_s > 0 and rep.decode_points_per_s > 0
    assert rep.encode_s_mean > 0 and rep.encode_s_std >= 0
    assert rep.i_scans + rep.p_scans == 6 and rep.i_scans >= 1
    assert len(rep.frames) == 6
    assert rep.frames[0].mode == "I"

    parsed = json.loads(rep.to_json())
    assert parsed["ratio"] == pytest.approx(rep.ratio)
    assert len(parsed["frames"]) == 6

    out = tmp_path / "bench.csv"
    rep.write_csv(out)
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 7 and rows[-1]["index"] == "aggregate"


def test_run_bench_rejects_bad_args():
    with pytest.raises(ValueError):
        run_bench([])
    with pytest.raises(ValueError):
        run_bench(scans_of("random", frames=2), reps=0)


def test_every_timed_pass_is_verified(monkeypatch):
    scans = scans_of("static_scene", frames=3)
    real_decode, calls = bench.decode, []

    def flipping_decode(*args):
        scan = real_decode(*args)
        calls.append(1)
        if len(calls) <= len(scans):    # the warm-up pass decodes cleanly
            return scan
        samples = scan.samples.copy()
        samples[0, 0] ^= 1
        return Scan(scan.scan_type, scan.sample_width, samples)

    monkeypatch.setattr(bench, "decode", flipping_decode)
    with pytest.raises(AssertionError, match="frame 0"):
        run_bench(scans, reps=1)
    assert len(calls) == 2 * len(scans)


def test_empty_inputs_rejected(tmp_path):
    with pytest.raises(ValueError, match="no rows"):
        bench.write_csv(tmp_path / "empty.csv", [])
    with pytest.raises(ValueError, match="no scans"):
        run_ablation([])


def test_static_beats_random():
    static = run_bench(scans_of("static_scene"), reps=1)
    rand = run_bench(scans_of("random"), reps=1)
    assert static.ratio > rand.ratio
    assert static.p_scans > 0 and rand.p_scans == 0


def test_ablation_ladder_names_and_order():
    assert [name for name, _, _ in ABLATION_LADDER] == [
        "pfor", "delta+pfor", "delta+zigzag+pfor",
        "mask+delta+zigzag+pfor", "full"]


def test_ablation_required_ordering():
    # ratios must order delta < pfor < delta+zigzag < +mask < full: raw
    # delta coding loses to plain PFOR (negative deltas wrap huge), each
    # later stage wins it back and more
    scans = scans_of("static_scene", frames=6, rows=64, cols=1024, seed=1)
    rows = {r["variant"]: r for r in run_ablation(scans)}
    ratios = [rows[v]["ratio"] for v in (
        "delta+pfor", "pfor", "delta+zigzag+pfor",
        "mask+delta+zigzag+pfor", "full")]
    assert all(b > a for a, b in zip(ratios, ratios[1:])), ratios
    # only the full variant may pick P-scans
    assert all(r["p_scans"] == 0 for name, r in rows.items() if name != "full")
    assert rows["full"]["p_scans"] > 0
    for r in rows.values():
        assert r["bits_per_sample"] == pytest.approx(
            8 * r["output_bytes"] / (6 * 64 * 1024))
    # exact sizes pin every rung's bytes, not just their order
    assert {name: (r["output_bytes"], r["p_scans"])
            for name, r in rows.items()} == {
        "pfor": (703641, 0),
        "delta+pfor": (1068165, 0),
        "delta+zigzag+pfor": (536879, 0),
        "mask+delta+zigzag+pfor": (416263, 0),
        "full": (315394, 5),
    }


def test_ablation_ratio_uses_ingested_width():
    scans = scans_of("static_scene", frames=2)
    narrow = run_ablation(scans)
    wide = run_ablation(scans, input_bytes_per_sample=4)
    for a, b in zip(narrow, wide):
        assert b["ratio"] == pytest.approx(2 * a["ratio"])
        assert b["output_bytes"] == a["output_bytes"]


def test_mask_variant_dominates_when_zeros_abound():
    scans = scans_of("sparse_vertical", frames=4)
    rows = {r["variant"]: r["ratio"] for r in run_ablation(scans)}
    assert rows["mask+delta+zigzag+pfor"] > 1.3 * rows["delta+zigzag+pfor"]


def test_full_no_worse_than_forced_i_on_constant_sequence():
    frame = np.full((16, 32), 4321, dtype=np.uint16)
    scans = [Scan(ScanType.RANGE, 2, frame.copy()) for _ in range(5)]
    rows = {r["variant"]: r for r in run_ablation(scans)}
    assert rows["full"]["output_bytes"] <= \
        rows["mask+delta+zigzag+pfor"]["output_bytes"]
    assert rows["full"]["p_scans"] == 4


def test_sweep_precision_halves_bits(tmp_path):
    seq = generate("static_scene", 4, 64, 128, sparsity=0.03, seed=2)
    rows = run_sweep(seq, [1000, 2000, 4000])
    assert [r["precision_um"] for r in rows] == [1000, 2000, 4000]
    bits = [r["bits_per_sample"] for r in rows]
    assert bits[0] > bits[1] > bits[2]
    for a, b in zip(bits, bits[1:]):
        assert 0.6 < a - b < 1.4
    for r in rows:
        assert r["ratio"] > 1.0


def test_sweep_requires_float_frames():
    for seq in (np.zeros((2, 4, 8), dtype=np.uint16),
                np.ones((4, 8), dtype=np.float32),          # one frame, 2-D
                np.empty((0, 4, 8), dtype=np.float32)):     # no frames
        with pytest.raises(ValueError):
            run_sweep(seq, [1000])


def test_heuristic_perfect_on_easy_splits():
    static = run_heuristic_eval(scans_of("static_scene", frames=6))
    assert static["frames_evaluated"] == 5
    assert static["accuracy"] == pytest.approx(1.0)
    rand = run_heuristic_eval(scans_of("random", frames=6))
    assert rand["accuracy"] == pytest.approx(1.0)
    assert rand["suboptimal_p_rate"] == 0.0


# two 16x256 frames, each row a ramp or nonzero noise; select_mode tries
# rows 0, 4, 8 and 12, and the other rows decide the full sizes
RAMP = np.broadcast_to(1000 + np.arange(256, dtype=np.uint16), (16, 256))
NOISE = np.random.default_rng(5).integers(1, 1 << 16, size=(16, 256),
                                          dtype=np.uint16)
TRIAL_ROWS = np.isin(np.arange(16), [0, 4, 8, 12])[:, None]


@pytest.mark.parametrize("frames,picked", [
    # the trial rows stay put, so P is picked; the other rows turn from
    # noise into the ramp, so I is smaller
    ([(RAMP, NOISE), (RAMP, RAMP)], "p"),
    # the trial rows turn into the ramp, so I is picked; the other rows
    # repeat their noise, so P is smaller
    ([(NOISE, NOISE), (RAMP, NOISE)], "i"),
])
def test_heuristic_counts_misleading_trials(frames, picked):
    scans = [Scan(ScanType.RANGE, 2, np.where(TRIAL_ROWS, trial, other))
             for trial, other in frames]
    assert run_heuristic_eval(scans) == {
        "frames_evaluated": 1,
        "accuracy": 0.0,
        "suboptimal_i_rate": float(picked == "i"),
        "suboptimal_p_rate": float(picked == "p"),
    }


def test_heuristic_eval_is_verified(monkeypatch):
    scans = scans_of("static_scene", frames=3)
    real_decode, calls = bench.decode, []

    def flipping_decode(*args):
        scan = real_decode(*args)
        calls.append(1)
        if len(calls) != 2:             # only frame 1 of the first run
            return scan
        samples = scan.samples.copy()
        samples[0, 0] ^= 1
        return Scan(scan.scan_type, scan.sample_width, samples)

    monkeypatch.setattr(bench, "decode", flipping_decode)
    with pytest.raises(AssertionError, match="frame 1"):
        run_heuristic_eval(scans)


def test_heuristic_eval_needs_two_scans():
    with pytest.raises(ValueError):
        run_heuristic_eval(scans_of("random", frames=2)[:1])
