"""Benchmark, ablation, precision-sweep, and heuristic-evaluation harness.

Everything here works on in-memory frames so the reported rates are codec
rates, not disk rates. Encode and decode are timed separately with a warm-up
pass excluded; repetitions give a timing spread. ``run_bench``,
``run_ablation``, ``run_sweep`` and ``run_heuristic_eval`` decode every pass
they encode and compare it sample-exact, so a reported number from a broken
build is impossible.

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
from .codec import CodecState, EncodedScan, Mode, decode, encode
from .intcodec import (delta_unwrap, delta_wrap, pfor_decode, pfor_encode,
                       zigzag_unwrap, zigzag_wrap)
from .scan import QuantizationSpec, Scan, quantize

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

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

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
    with open(path, "w", newline="") as f:     # all rows share these keys
        w = csv.DictWriter(f, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)


def _roundtrip(scans, mode=None):
    """Encode ``scans`` in one pass and decode the records in a second.

    Each frame's encode and decode is timed on its own. Each decoded frame
    is compared sample-exact after its timed decode and then dropped; the
    first mismatch is raised once the pass is done. Returns the records
    and the per-frame encode and decode seconds.
    """
    enc_state, dec_state = CodecState(), CodecState()
    encs, enc_frames = [], []
    for scan in scans:
        t0 = time.perf_counter()
        encs.append(encode(scan, enc_state, mode))
        enc_frames.append(time.perf_counter() - t0)
    dec_frames, bad = [], None
    for i, (scan, enc) in enumerate(zip(scans, encs)):
        t0 = time.perf_counter()
        back = decode(enc, dec_state, scan.scan_type, scan.sample_width,
                      scan.rows, scan.cols)
        dec_frames.append(time.perf_counter() - t0)
        if bad is None and not np.array_equal(scan.samples, back.samples):
            bad = i
    if bad is not None:
        raise AssertionError(f"decode mismatch at frame {bad}")
    return encs, enc_frames, dec_frames


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
        back = pfor_decode(value_block, values.size)
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

    _roundtrip(scans, mode)                     # warm-up, not timed
    enc_totals, dec_totals = [], []
    for _ in range(reps):
        encs, frame_enc, frame_dec = _roundtrip(scans, mode)
        enc_totals.append(sum(frame_enc))       # a pass is its frames' sum
        dec_totals.append(sum(frame_dec))

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
            encs = _roundtrip(scans, mode)[0]
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
              sample_width: int = 2) -> list[dict]:
    """Compress the same float range sequence at several precisions.

    Each precision's scans and records are freed before the next is
    quantized. bits/sample counts every sample, masked or not:
    8 * output_bytes / (frames * rows * cols). clamped_samples counts the
    finite ranges past the width ceiling, which quantize to its maximum,
    so a ratio over clamped data shows as such.
    """
    frames = np.asarray(frames)
    if frames.dtype.kind != "f" or frames.ndim != 3 or not frames.size:
        raise ValueError("precision sweep needs a non-empty "
                         "(frames, rows, cols) float array")
    rows = []
    for p in precisions_um:
        spec = QuantizationSpec(precision_um=int(p), sample_width=sample_width)
        total_out = sum(e.total_bytes for e in
                        _roundtrip([quantize(f, spec) for f in frames])[0])
        rows.append({
            "precision_um": int(p),
            "bits_per_sample": 8.0 * total_out / frames.size,
            "output_bytes": total_out,
            "ratio": frames.nbytes / total_out,
            "clamped_samples": sum(_clamped(f, spec) for f in frames),
        })
    return rows


def _clamped(frame: np.ndarray, spec: QuantizationSpec) -> int:
    """Finite ranges of ``frame`` that ``quantize`` clamps to the width
    ceiling: scaled and rounded as it does, above the maximum, not +inf."""
    with np.errstate(over="ignore"):
        q = np.multiply(frame, 1e6 / spec.precision_um, dtype=np.float64)
    np.rint(q, out=q)
    return int(np.count_nonzero((q > spec.max_sample) & (q < np.inf)))


def run_heuristic_eval(scans: list[Scan]) -> dict:
    """Compare the shipping trial compression of ``TEST_LINES`` scanlines
    against brute force.

    Three verified round trips give the facts: the mode-selected run's
    records carry the trial's choice, and the runs forced to I and to P
    carry the two full sizes it chose between (an I encode ignores the
    reference; the P run chains the same scans). For every frame after the
    first, the smaller size is optimal (tie: either counts as correct).
    Reports overall accuracy plus how often each mode was picked when the
    other was strictly smaller.
    """
    if len(scans) < 2:
        raise ValueError("heuristic evaluation needs at least 2 scans")
    # frame 0 has no reference: not evaluated
    runs = [_roundtrip(scans, mode)[0][1:] for mode in (None, Mode.I, Mode.P)]
    evaluated = len(scans) - 1
    sub_i = sub_p = 0
    for picked, forced_i, forced_p in zip(*runs):
        size_i, size_p = forced_i.total_bytes, forced_p.total_bytes
        if picked.mode == Mode.I and size_p < size_i:
            sub_i += 1
        elif picked.mode == Mode.P and size_i < size_p:
            sub_p += 1
    return {
        "frames_evaluated": evaluated,
        "accuracy": 1.0 - (sub_i + sub_p) / evaluated,
        "suboptimal_i_rate": sub_i / evaluated,
        "suboptimal_p_rate": sub_p / evaluated,
    }
