"""Benchmark, ablation, precision-sweep, and heuristic-evaluation harness.

Everything here works on in-memory frames so the reported rates are codec
rates, not disk rates. Encode and decode are timed separately with a warm-up
pass excluded; repetitions give a timing spread. Every runner decodes what it
encoded and compares sample-exact, so a reported number from a broken build
is impossible.

The ablation's partial pipelines live here, not in the codec: the unmasked
rungs run their value stages straight into PFOR and check their own round
trip, while the masked rungs are the shipping codec with its mode forced
or selected.
"""

import csv
import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import bytecomp
from .codec import (TEST_LINES, CodecState, EncodedScan, Mode, decode, encode,
                    select_mode)
from .intcodec import (delta_unwrap, delta_wrap, pfor_decode, pfor_encode,
                       zigzag_unwrap, zigzag_wrap)
from .scan import QuantizationSpec, Scan, ScanType, quantize

_DELTA = (delta_wrap, delta_unwrap)
_ZIGZAG = (zigzag_wrap, zigzag_unwrap)

# (variant, value stages as (forward, inverse) pairs, forced mode). A rung
# with stages keeps every sample (no zero mask) and codes I-scans only; a
# rung without is the shipping codec, its mode forced or (None) automatic.
ABLATION_LADDER = (
    ("pfor", (), None),
    ("delta+pfor", (_DELTA,), None),
    ("delta+zigzag+pfor", (_DELTA, _ZIGZAG), None),
    ("mask+delta+zigzag+pfor", None, Mode.I),
    ("full", None, None),
)


def as_scans(frames: np.ndarray, spec: QuantizationSpec,
             scan_type: ScanType) -> list[Scan]:
    """Turn raw frames into quantized Scans.

    Float frames go through quantize(); integer frames are taken as already
    quantized samples at their own width.
    """
    frames = np.asarray(frames)
    if frames.ndim != 3:
        raise ValueError("frames must be (n, rows, cols)")
    if frames.dtype.kind == "f":
        return [quantize(f, spec, scan_type) for f in frames]
    width = frames.dtype.itemsize
    return [Scan(scan_type, width, f) for f in frames]


@dataclass
class FrameStat:
    index: int
    mode: str
    input_bytes: int
    output_bytes: int
    ratio: float
    encode_s: float
    decode_s: float


@dataclass
class BenchReport:
    scan_type: str
    rows: int
    cols: int
    sample_width: int
    frame_count: int
    reps: int
    input_bytes: int
    output_bytes: int
    ratio: float
    encode_s_mean: float
    encode_s_std: float
    decode_s_mean: float
    decode_s_std: float
    encode_scans_per_s: float
    encode_points_per_s: float
    decode_scans_per_s: float
    decode_points_per_s: float
    i_scans: int
    p_scans: int
    frames: list[FrameStat] = field(default_factory=list, repr=False)

    def aggregate_row(self) -> dict:
        d = asdict(self)
        d.pop("frames")
        return d

    def to_json(self) -> str:
        d = self.aggregate_row()
        d["frames"] = [asdict(f) for f in self.frames]
        return json.dumps(d, indent=2)

    def write_csv(self, path: str):
        rows = [asdict(f) for f in self.frames]
        agg = {"index": "aggregate", "mode": f"I:{self.i_scans} P:{self.p_scans}",
               "input_bytes": self.input_bytes, "output_bytes": self.output_bytes,
               "ratio": self.ratio, "encode_s": self.encode_s_mean,
               "decode_s": self.decode_s_mean}
        write_csv(path, rows + [agg])


def write_csv(path: str, rows: list[dict]):
    if not rows:
        raise ValueError("no rows to write")
    keys = list(rows[0])
    for r in rows[1:]:
        keys.extend(k for k in r if k not in keys)
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=keys)
        w.writeheader()
        w.writerows(rows)


def _encode_all(scans, mode=None, times=None):
    state = CodecState()
    out = []
    for scan in scans:
        t0 = time.perf_counter()
        enc = encode(scan, state, mode)
        t1 = time.perf_counter()
        out.append(enc)
        if times is not None:
            times.append(t1 - t0)
    return out


def _decode_all(encs, proto: Scan, times=None):
    state = CodecState()
    out = []
    for enc in encs:
        t0 = time.perf_counter()
        scan = decode(enc, state, proto.scan_type, proto.sample_width,
                      proto.rows, proto.cols)
        t1 = time.perf_counter()
        out.append(scan)
        if times is not None:
            times.append(t1 - t0)
    return out


def _verify_same(scans, decoded):
    for i, (a, b) in enumerate(zip(scans, decoded)):
        if not np.array_equal(a.samples, b.samples):
            raise AssertionError(f"decode mismatch at frame {i}")


def _encode_unmasked(scans, stages):
    """I-scan records of every sample run through ``stages`` into PFOR.

    The mask block is the empty one the shipping layout needs anyway, so the
    byte counts compare with the masked rungs. Each record is decoded with
    ``pfor_decode`` and the inverse stages and checked sample-exact.
    """
    out = []
    for i, scan in enumerate(scans):
        values = scan.samples.astype(np.uint32).ravel()
        codes = values
        for forward, _ in stages:
            codes = forward(codes)
        value_block = pfor_encode(codes)
        back = pfor_decode(value_block)
        for _, inverse in reversed(stages):
            back = inverse(back)
        if not np.array_equal(back, values):
            raise AssertionError(f"decode mismatch at frame {i}")
        out.append(EncodedScan(Mode.I, values.size,
                               bytecomp.compress_block(b""),
                               value_block))
    return out


def run_bench(scans: list[Scan], reps: int = 3,
              mode: Mode | None = None) -> BenchReport:
    """Time encode and decode over ``reps`` passes and verify losslessness.

    ``mode`` forces every scan after the first to I or P; None selects it.
    """
    if not scans:
        raise ValueError("no scans to bench")
    if reps < 1:
        raise ValueError("reps must be positive")
    proto = scans[0]

    # warm-up, also produces the verified reference encoding
    encs = _encode_all(scans, mode)
    decoded = _decode_all(encs, proto)
    _verify_same(scans, decoded)

    enc_totals, dec_totals = [], []
    frame_enc, frame_dec = [], []
    for _ in range(reps):
        frame_enc = []
        t0 = time.perf_counter()
        encs = _encode_all(scans, mode, frame_enc)
        enc_totals.append(time.perf_counter() - t0)
        frame_dec = []
        t0 = time.perf_counter()
        _decode_all(encs, proto, frame_dec)
        dec_totals.append(time.perf_counter() - t0)

    points = proto.rows * proto.cols
    in_bytes = points * proto.sample_width
    sizes = [enc.total_bytes for enc in encs]
    stats = [FrameStat(i, enc.mode.name, in_bytes, size, in_bytes / size,
                       frame_enc[i], frame_dec[i])
             for i, (enc, size) in enumerate(zip(encs, sizes))]
    total_in = in_bytes * len(scans)
    total_out = sum(sizes)
    enc_mean = float(np.mean(enc_totals))
    dec_mean = float(np.mean(dec_totals))
    n = len(scans)
    return BenchReport(
        scan_type=proto.scan_type.name,
        rows=proto.rows, cols=proto.cols, sample_width=proto.sample_width,
        frame_count=n, reps=reps,
        input_bytes=total_in, output_bytes=total_out,
        ratio=total_in / total_out,
        encode_s_mean=enc_mean, encode_s_std=float(np.std(enc_totals)),
        decode_s_mean=dec_mean, decode_s_std=float(np.std(dec_totals)),
        encode_scans_per_s=n / enc_mean,
        encode_points_per_s=n * points / enc_mean,
        decode_scans_per_s=n / dec_mean,
        decode_points_per_s=n * points / dec_mean,
        i_scans=sum(1 for e in encs if e.mode == Mode.I),
        p_scans=sum(1 for e in encs if e.mode == Mode.P),
        frames=stats)


def run_ablation(scans: list[Scan],
                 input_bytes_per_sample: int | None = None) -> list[dict]:
    """Measure the pipeline ladder on one sequence.

    Each variant encodes the whole sequence, decodes it back and checks
    equality, then reports its ratio. Ratios use the ingested representation
    size (element bytes per sample), defaulting to the quantized width.
    """
    if not scans:
        raise ValueError("no scans to ablate")
    proto = scans[0]
    bps = input_bytes_per_sample or proto.sample_width
    total_in = len(scans) * proto.rows * proto.cols * bps
    out = []
    for name, stages, mode in ABLATION_LADDER:
        if stages is not None:
            encs = _encode_unmasked(scans, stages)
        else:
            encs = _encode_all(scans, mode)
            _verify_same(scans, _decode_all(encs, proto))
        total_out = sum(e.total_bytes for e in encs)
        out.append({
            "variant": name,
            "output_bytes": total_out,
            "ratio": total_in / total_out,
            "bits_per_sample": 8.0 * total_out / (len(scans) * proto.rows * proto.cols),
            "p_scans": sum(1 for e in encs if e.mode == Mode.P),
        })
    return out


def run_sweep(frames: np.ndarray, precisions_um: list[int],
              sample_width: int = 2,
              scan_type: ScanType = ScanType.RANGE) -> list[dict]:
    """Compress the same float sequence at several precisions.

    bits/sample counts every sample, masked or not: 8 * output_bytes /
    (frames * rows * cols).
    """
    frames = np.asarray(frames)
    if frames.dtype.kind != "f":
        raise ValueError("precision sweep needs float input frames")
    rows = []
    samples = frames.shape[0] * frames.shape[1] * frames.shape[2]
    in_bytes = frames.nbytes
    for p in precisions_um:
        spec = QuantizationSpec(precision_um=int(p), sample_width=sample_width)
        scans = as_scans(frames, spec, scan_type)
        encs = _encode_all(scans)
        decoded = _decode_all(encs, scans[0])
        _verify_same(scans, decoded)
        total_out = sum(e.total_bytes for e in encs)
        rows.append({
            "precision_um": int(p),
            "bits_per_sample": 8.0 * total_out / samples,
            "output_bytes": total_out,
            "ratio": in_bytes / total_out,
        })
    return rows


def run_heuristic_eval(scans: list[Scan],
                       test_lines: int = TEST_LINES) -> dict:
    """Compare the trial-compression choice against brute force.

    For every frame after the first, fully encode both ways and call the
    smaller one optimal (tie: either counts as correct). Reports overall
    accuracy plus how often each mode was picked when the other was strictly
    smaller.
    """
    if len(scans) < 2:
        raise ValueError("heuristic evaluation needs at least 2 scans")
    state = CodecState()
    encode(scans[0], state)       # frame 0 has no reference: not evaluated

    evaluated = sub_i = sub_p = 0
    for scan in scans[1:]:
        choice = select_mode(scan, state, test_lines)
        size_i = encode(scan, CodecState(), Mode.I).total_bytes
        size_p = encode(scan, state, Mode.P).total_bytes    # moves state on
        if choice == Mode.I and size_p < size_i:
            sub_i += 1
        elif choice == Mode.P and size_i < size_p:
            sub_p += 1
        evaluated += 1
    return {
        "frames_evaluated": evaluated,
        "accuracy": 1.0 - (sub_i + sub_p) / evaluated,
        "suboptimal_i_rate": sub_i / evaluated,
        "suboptimal_p_rate": sub_p / evaluated,
    }
