"""Acceptance gate: one test per release criterion, tolerances inline.

Each test prints a single `criterion N PASS` line with the measured numbers
(visible with pytest -s / -rA); the pytest verdict line is the gate.
"""

import io
import time

import numpy as np
import pytest

from jiffy.bench import run_ablation, run_bench, run_heuristic_eval, run_sweep
from jiffy.codec import CodecState, Mode, decode, encode
from jiffy.container import (HEADER_SIZE, StreamHeader, StreamReader,
                             StreamWriter)
from jiffy.errors import JiffyError
from jiffy.intcodec import pfor_decode, pfor_encode, zigzag_unwrap, zigzag_wrap
from jiffy.scan import (QuantizationSpec, Scan, ScanType, dequantize,
                        quantize, sample_dtype)
from jiffy.synthetic import generate

from .refimpl import ref_pfor_encode

POLICIES = (None, Mode.I, Mode.P)


def _random_samples(rng, rows, cols, width, flavor):
    hi = int(np.iinfo(sample_dtype(width)).max)
    dt = sample_dtype(width)
    if flavor == 0:                      # full-range uniform
        s = rng.integers(0, hi + 1, size=(rows, cols), dtype=np.uint64)
    elif flavor == 1:                    # smooth scanlines
        steps = rng.integers(-3, 4, size=(rows, cols))
        s = (int(rng.integers(0, hi + 1)) + np.cumsum(steps, axis=1)) % (hi + 1)
    elif flavor == 2:                    # constant
        s = np.full((rows, cols), rng.integers(0, hi + 1), dtype=np.uint64)
    elif flavor == 3:                    # small values with rare huge spikes
        s = rng.integers(0, 16, size=(rows, cols), dtype=np.uint64)
        spikes = rng.random((rows, cols)) < 0.02
        s[spikes] = rng.integers(0, hi + 1, size=int(spikes.sum()))
    else:                                # clustered at both ends of the range
        s = rng.choice(np.array([0, 1, hi - 1, hi], dtype=np.uint64),
                       size=(rows, cols))
    return s.astype(dt)


def test_criterion_1_losslessness():
    t0 = time.time()
    corners = [(1, 1), (1, 1024), (128, 1), (128, 1024), (127, 1023),
               (2, 513), (128, 1024)]
    sequences = 0
    for i in range(1000):
        rng = np.random.default_rng(1_000_000 + i)
        if i < len(corners):
            rows, cols = corners[i]
        else:
            rows = int(np.exp(rng.uniform(0, np.log(128))))
            cols = int(np.exp(rng.uniform(0, np.log(1024))))
        width = (1, 2, 4)[i % 3]
        policy = POLICIES[i % len(POLICIES)]
        sparsity = (0.0, 1.0, float(rng.random()))[i % 3 if i > 8 else 2]

        scans = []
        for k in range(1 + i % 3):
            s = _random_samples(rng, rows, cols, width, (i + k) % 5)
            if sparsity > 0:
                s[rng.random(s.shape) < sparsity] = 0
            scans.append(Scan(ScanType.RANGE, width, s))

        est = CodecState()
        encs = [encode(sc, est, policy) for sc in scans]
        dst = CodecState()
        for enc, sc in zip(encs, scans):
            out = decode(enc, dst, sc.scan_type, width, rows, cols)
            assert np.array_equal(out.samples, sc.samples), \
                f"seq {i} ({rows}x{cols} w{width} {policy})"
        sequences += 1

    # wrap boundaries: deltas of +/-2^31 and full-range swings, all policies
    hot = np.array([[0x80000000, 0, 0xFFFFFFFF, 1, 0x7FFFFFFF, 0x80000001]],
                   dtype=np.uint32)
    for policy in POLICIES:
        est, dst = CodecState(), CodecState()
        for sc in (Scan(ScanType.RANGE, 4, hot), Scan(ScanType.RANGE, 4, hot[:, ::-1].copy())):
            enc = encode(sc, est, policy)
            assert np.array_equal(
                decode(enc, dst, sc.scan_type, 4, 1, 6).samples, sc.samples)

    elapsed = time.time() - t0
    assert elapsed < 120, f"criterion 1 budget exceeded: {elapsed:.0f}s"
    print(f"criterion 1 PASS: {sequences} randomized sequences lossless "
          f"in {elapsed:.1f}s")


def test_criterion_2_quantization_bound():
    rng = np.random.default_rng(2)
    worst = 0.0
    checked = 0
    for precision_um in (500, 1000, 2000, 4000, 8000):
        for width in (1, 2, 4):
            spec = QuantizationSpec(precision_um=precision_um,
                                    sample_width=width)
            max_m = spec.max_sample * spec.precision_m
            raw = rng.uniform(0.0, min(max_m, 1e5), size=(64, 512)).astype(
                np.float32)
            scan = quantize(raw, spec, ScanType.RANGE)
            deq = dequantize(scan, spec)
            live = scan.samples > 0
            err = np.abs(deq[live].astype(np.float64) - raw[live])
            bound = spec.precision_m / 2
            assert err.size and float(err.max()) <= bound * (1 + 1e-6), \
                f"P_q={precision_um}um width={width}: max err {err.max()}"
            # dropped samples must be genuinely below the first step
            assert np.all(raw[~live] < spec.precision_m / 2 + 1e-9)
            worst = max(worst, float(err.max()) / bound)
            checked += err.size
    print(f"criterion 2 PASS: {checked} samples, worst error "
          f"{worst:.4f} of the P_q/2 bound")


def test_criterion_3_zigzag_conformance():
    # the shipping pair works on uint32 words holding two's-complement values
    xs = np.arange(-(1 << 16), (1 << 16) + 1, dtype=np.int64)
    want = 2 * np.abs(xs) + (xs < 0)
    got = zigzag_wrap(xs.astype(np.uint32))
    assert got.dtype == np.uint32
    assert np.array_equal(got, want)
    back = zigzag_unwrap(got)
    assert np.array_equal(back.view(np.int32), xs)
    edges = np.array([0, -1, 1, 1 << 30, -(1 << 30), (1 << 31) - 1,
                      -(1 << 31) + 1], dtype=np.int64)
    codes = zigzag_wrap(edges.astype(np.uint32))
    assert np.array_equal(codes, 2 * np.abs(edges) + (edges < 0))
    assert np.array_equal(zigzag_unwrap(codes).view(np.int32), edges)
    # -2^31 has no code in 2|x| + [x < 0]; the uint32 pair wraps it to 1
    min_int = np.array([0x80000000], dtype=np.uint32)
    assert zigzag_wrap(min_int).tolist() == [1]
    assert zigzag_unwrap(np.array([1], dtype=np.uint32)).tolist() == [0x80000000]
    print(f"criterion 3 PASS: exhaustive |x| <= 2^16 ({xs.size} values) "
          f"plus boundaries and the -2^31 wrap")


def test_criterion_4_pfor_oracle_equivalence():
    rng = np.random.default_rng(4)
    sizes = [0, 1, 2, 127, 128, 129, 1000, 4095, 4096]
    cases = 0
    for n in sizes:
        for flavor in range(5):
            if flavor == 0:
                v = rng.integers(0, 1 << 32, size=n, dtype=np.uint64)
            elif flavor == 1:
                w = int(rng.integers(0, 33))
                v = rng.integers(0, 1 << w if w else 1, size=n,
                                 dtype=np.uint64)
            elif flavor == 2:
                v = np.full(n, rng.integers(0, 1 << 32), dtype=np.uint64)
            elif flavor == 3:
                v = rng.integers(0, 64, size=n, dtype=np.uint64)
                out = rng.random(n) < 0.03
                v[out] = rng.integers(0, 1 << 32, size=int(out.sum()))
            else:
                base = int(rng.integers(0, 1 << 31))
                v = base + np.cumsum(rng.integers(0, 7, size=n))
                v %= 1 << 32
            v = v.astype(np.uint32)
            enc = pfor_encode(v)
            assert np.array_equal(pfor_decode(enc), v)
            ref = ref_pfor_encode(v.tolist())
            assert len(enc) <= len(ref)
            assert enc == ref          # same per-block optimum, byte-exact
            cases += 1
    print(f"criterion 4 PASS: {cases} vectors match the exhaustive "
          f"per-block optimizer byte-exactly")


def test_criterion_5_ablation_ordering():
    t0 = time.time()
    seq = generate("static_scene", 200, 128, 1024, sparsity=0.3, seed=5)
    spec = QuantizationSpec(1000, 2)
    scans = [quantize(f, spec) for f in seq]
    del seq
    rows = {r["variant"]: r["ratio"] for r in run_ablation(scans)}
    order = ["delta+pfor", "pfor", "delta+zigzag+pfor",
             "mask+delta+zigzag+pfor", "full"]
    ratios = [rows[v] for v in order]
    assert all(b > a for a, b in zip(ratios, ratios[1:])), rows
    elapsed = time.time() - t0
    assert elapsed < 300, f"criterion 5 budget exceeded: {elapsed:.0f}s"
    print("criterion 5 PASS: " +
          " < ".join(f"{v}={rows[v]:.2f}" for v in order) +
          f" ({elapsed:.0f}s, 200 frames 128x1024)")


def test_criterion_6_heuristic_accuracy():
    qspec = QuantizationSpec(1000, 2)
    seq = np.concatenate([
        generate("static_scene", 200, 64, 256, seed=60),
        generate("driving_like", 200, 64, 256, seed=61),
        generate("random", 100, 64, 256, seed=62),
    ])
    scans = [quantize(f, qspec) for f in seq]
    report = run_heuristic_eval(scans)
    assert report["frames_evaluated"] == 499
    assert report["accuracy"] >= 0.90, report
    print(f"criterion 6 PASS: accuracy {report['accuracy']:.3f} over "
          f"{report['frames_evaluated']} mixed frames "
          f"(suboptimal I {report['suboptimal_i_rate']:.3f}, "
          f"suboptimal P {report['suboptimal_p_rate']:.3f})")


def test_criterion_7_precision_sweep():
    seq = generate("static_scene", 12, 128, 512, sparsity=0.03, seed=7)
    table = run_sweep(seq, [1000, 2000, 4000, 8000])
    bits = [r["bits_per_sample"] for r in table]
    drops = [a - b for a, b in zip(bits, bits[1:])]
    for d in drops:
        assert 0.7 <= d <= 1.3, (bits, drops)
    print("criterion 7 PASS: bits/sample " +
          " -> ".join(f"{b:.2f}" for b in bits) +
          " (drops " + ", ".join(f"{d:.2f}" for d in drops) + ")")


def test_criterion_8_throughput():
    seq = generate("static_scene", 16, 128, 1024, seed=8)
    spec = QuantizationSpec(1000, 2)
    scans = [quantize(f, spec) for f in seq]
    rep = run_bench(scans, reps=2)
    # Table-IV-shaped report: scans/s and points/s, both directions
    assert rep.encode_scans_per_s > 0 and rep.decode_scans_per_s > 0
    assert rep.encode_points_per_s >= 10e6, \
        f"encode {rep.encode_points_per_s / 1e6:.1f} Mpts/s < 10 Mpts/s"
    assert rep.decode_points_per_s >= 10e6, \
        f"decode {rep.decode_points_per_s / 1e6:.1f} Mpts/s < 10 Mpts/s"
    print(f"criterion 8 PASS: encode {rep.encode_scans_per_s:.0f} scans/s "
          f"({rep.encode_points_per_s / 1e6:.1f} Mpts/s), decode "
          f"{rep.decode_scans_per_s:.0f} scans/s "
          f"({rep.decode_points_per_s / 1e6:.1f} Mpts/s), "
          f"ratio {rep.ratio:.2f}")


def _acceptance_stream():
    rng = np.random.default_rng(9)
    scans = []
    for _ in range(3):
        s = rng.integers(0, 3000, size=(8, 16), dtype=np.uint16)
        s[rng.random(s.shape) < 0.2] = 0
        scans.append(Scan(ScanType.RANGE, 2, s))
    buf = io.BytesIO()
    state = CodecState()
    with StreamWriter(buf, StreamHeader(ScanType.RANGE, 8, 16,
                                        frame_count=3)) as w:
        for sc in scans:
            w.write_frame(encode(sc, state))
    return buf.getvalue()


def _frame_spans(blob):
    spans, pos = [], HEADER_SIZE
    for _ in range(3):
        length = int.from_bytes(blob[pos:pos + 4], "little")
        spans.append((pos, pos + 8 + length))
        pos += 8 + length
    assert pos == len(blob)
    return spans


def _consume(blob):
    reader = StreamReader(io.BytesIO(blob))
    head = reader.header
    state = CodecState()
    for enc in reader:
        decode(enc, state, head.scan_type, head.sample_width,
               head.rows, head.cols)


def test_criterion_9_container_robustness():
    good = _acceptance_stream()
    spans = _frame_spans(good)
    flips = 0
    for pos in range(len(good)):
        for mask in (0x01, 0x80, 0xFF):
            bad = bytearray(good)
            bad[pos] ^= mask
            with pytest.raises(JiffyError) as ei:
                _consume(bytes(bad))
            if pos >= HEADER_SIZE:
                want = next(i for i, (a, b) in enumerate(spans)
                            if a <= pos < b)
                assert ei.value.frame_index == want, \
                    f"byte {pos} mask {mask:#x}: frame " \
                    f"{ei.value.frame_index} != {want}"
            else:
                assert ei.value.frame_index is None
            flips += 1

    cuts = 0
    for cut in range(len(good)):
        try:
            _consume(good[:cut])
        except JiffyError:
            cuts += 1
        else:
            pytest.fail(f"truncation at byte {cut} went undetected")
    print(f"criterion 9 PASS: {flips} single-byte corruptions and "
          f"{cuts} truncations all detected with correct frame index "
          f"({len(good)}-byte stream)")
