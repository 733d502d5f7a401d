"""Workload set-up, timed passes and correctness checks.

A workload is one ``jiffy.synthetic`` sequence of FRAMES scans at ROWS x COLS,
made from the seed. It is coded as a single closed-loop stream in one
process: frame t+1 is coded only after frame t, because P-coding keeps state
between frames. One pass codes the stream four ways, in this order:

    lib.encode      codec.encode + EncodedScan.to_bytes, per frame
    lib.decode      EncodedScan.from_bytes + codec.decode, per frame
    cli.compress    ``jiffy compress`` on the float32 raw file
    cli.decompress  ``jiffy decompress`` of that container

Every pass is checked: library decode must give back the quantized input
sample-exactly, library wire bytes and the CLI container must equal the ones
the first pass produced, and the decompressed file must equal
dequantize(quantize(input)) as float32 with NaN written as 0.
"""

import contextlib
import hashlib
import io
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from jiffy import bytecomp, cli, codec, intcodec, synthetic
from jiffy.codec import CodecState, EncodedScan, Mode
from jiffy.container import HEADER_SIZE, StreamHeader, StreamWriter
from jiffy.scan import QuantizationSpec, ScanType, dequantize, quantize

import stats
import tracing

ROWS, COLS = 128, 1024
FRAMES = 16
PRECISION_UM = 1000
SAMPLE_WIDTH = 2
POINTS = FRAMES * ROWS * COLS

# A frame's latency sample is its median over LATENCY_WINDOW consecutive
# passes; passes repeat until ten such samples lie beyond the 95th percentile.
LATENCY_PCT = 95.0
LATENCY_WINDOW = 5
MIN_LATENCY_SAMPLES = 200
SETUP_REPS = 3

LIB_ROOTS = ("lib.encode", "lib.decode")
_MAX_ERRORS_KEPT = 5


@dataclass
class Tally:
    """Frame operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    problems: list = field(default_factory=list)   # not tied to a frame

    def record(self, op: str, attempted: int, failed: int, why: str = ""):
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.errors) < _MAX_ERRORS_KEPT:
            self.errors.append(f"{op}: {failed}/{attempted} frames: {why}")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def ok(self) -> bool:
        return self.attempted > 0 and not self.failed and not self.problems


@dataclass
class Stream:
    scans: list                 # quantized input, one Scan per frame
    raw_path: str               # float32 input for `jiffy compress`
    jfy_path: str
    out_path: str
    expected_raw: bytes         # what `jiffy decompress` must write
    wires: list = None          # library wire bytes of the first pass
    encoded: list = None        # the EncodedScans behind them
    container: bytes = None     # the container `jiffy compress` must write

    @property
    def record_ends(self) -> list[int]:
        ends, pos = [], HEADER_SIZE
        for w in self.wires:
            pos += 8 + len(w)
            ends.append(pos)
        return ends


@dataclass
class Pass:
    encode_s: list              # per frame
    decode_s: list
    compress_s: float = 0.0
    decompress_s: float = 0.0


def make_stream(kind: str, seed: int, workdir: str) -> tuple[Stream, float]:
    """Generate the sequence and write its raw file. Returns the stream and
    the seconds spent in ``synthetic.generate``."""
    t0 = time.perf_counter()
    frames = synthetic.generate(kind, FRAMES, ROWS, COLS, seed=seed)
    gen_s = time.perf_counter() - t0
    spec = QuantizationSpec(PRECISION_UM, SAMPLE_WIDTH)
    scans = [quantize(f, spec, ScanType.RANGE) for f in frames]
    expected = b"".join(
        np.nan_to_num(dequantize(s, spec), nan=0.0).astype("<f4").tobytes()
        for s in scans)
    raw_path = f"{workdir}/input.f32"
    frames.astype("<f4").tofile(raw_path)
    return Stream(scans, raw_path, f"{workdir}/stream.jfy",
                  f"{workdir}/output.f32", expected), gen_s


def _reference_container(encoded) -> bytes:
    header = StreamHeader(ScanType.RANGE, ROWS, COLS, SAMPLE_WIDTH,
                          PRECISION_UM, bytecomp.DEFLATE, frame_count=FRAMES)
    sink = io.BytesIO()
    with StreamWriter(sink, header) as writer:
        for enc in encoded:
            writer.write_frame(enc)
    return sink.getvalue()


# ---------------------------------------------------------------------------
# one pass


def _lib_encode(stream: Stream, tally: Tally, tracer) -> tuple[list, list, list]:
    state = CodecState()
    times, wires, encoded = [], [], []
    failed, why = 0, ""
    for scan in stream.scans:
        t0 = time.perf_counter()
        root = tracer.open("lib.encode") if tracer else None
        try:
            enc = codec.encode(scan, state)
            wire = enc.to_bytes()
        except Exception as e:          # counted, reported, run fails
            enc, wire = None, None
            failed, why = failed + 1, repr(e)
        finally:
            if tracer:
                tracer.close(root)
        times.append(time.perf_counter() - t0)
        wires.append(wire)
        encoded.append(enc)
    if stream.wires is not None:
        bad = sum(w != ref for w, ref in zip(wires, stream.wires) if w is not None)
        if bad:
            failed, why = failed + bad, "wire bytes differ from the first pass"
    tally.record("lib.encode", FRAMES, failed, why)
    return times, wires, encoded


def _lib_decode(stream: Stream, wires, tally: Tally, tracer) -> list:
    state = CodecState()
    times = []
    failed, why = 0, ""
    for wire, want in zip(wires, stream.scans):
        t0 = time.perf_counter()
        root = tracer.open("lib.decode") if tracer else None
        try:
            enc = EncodedScan.from_bytes(wire)
            got = codec.decode(enc, state, ScanType.RANGE, SAMPLE_WIDTH,
                               ROWS, COLS)
        except Exception as e:
            got = None
            why = repr(e)
        finally:
            if tracer:
                tracer.close(root)
        times.append(time.perf_counter() - t0)
        if got is None or got != want:
            failed += 1
            why = why or "decoded scan differs from the input"
    tally.record("lib.decode", FRAMES, failed, why)
    return times


def _cli(argv, tracer, root: str) -> tuple[float, int, str]:
    """Run ``jiffy <argv>`` as a user would; returns (seconds, exit code,
    error text). Its stdout summary line is discarded."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    idx = tracer.open(root) if tracer else None
    try:
        with contextlib.redirect_stdout(sink):
            rc, why = cli.main(argv), ""
    except Exception as e:
        rc, why = -1, repr(e)
    finally:
        if tracer:
            tracer.close(idx)
    return time.perf_counter() - t0, rc, why


def _diff_chunks(got: bytes, want: bytes, ends: list[int]) -> int:
    """Frames whose byte range differs, at least one if the bytes differ."""
    if got == want:
        return 0
    bad, start = 0, 0
    for end in ends:
        if got[start:end] != want[start:end]:
            bad += 1
        start = end
    return max(bad, 1)


def _cli_compress(stream: Stream, tally: Tally, tracer) -> float:
    argv = ["compress", "--input", stream.raw_path,
            "--shape", f"{ROWS}x{COLS}", "--precision-um", str(PRECISION_UM),
            "--output", stream.jfy_path]
    secs, rc, why = _cli(argv, tracer, "cli.compress")
    if rc != 0:
        tally.record("cli.compress", FRAMES, FRAMES, why or f"exit {rc}")
        return secs
    with open(stream.jfy_path, "rb") as f:
        got = f.read()
    bad = _diff_chunks(got, stream.container, stream.record_ends)
    tally.record("cli.compress", FRAMES, bad,
                 "container differs from the library's stream")
    return secs


def _cli_decompress(stream: Stream, tally: Tally, tracer) -> float:
    argv = ["decompress", "--input", stream.jfy_path,
            "--output", stream.out_path]
    secs, rc, why = _cli(argv, tracer, "cli.decompress")
    if rc != 0:
        tally.record("cli.decompress", FRAMES, FRAMES, why or f"exit {rc}")
        return secs
    with open(stream.out_path, "rb") as f:
        got = f.read()
    frame_bytes = ROWS * COLS * 4
    ends = [frame_bytes * (i + 1) for i in range(FRAMES)]
    bad = _diff_chunks(got, stream.expected_raw, ends)
    tally.record("cli.decompress", FRAMES, bad,
                 "output differs from dequantize(quantize(input))")
    return secs


def run_pass(stream: Stream, tally: Tally, tracer=None,
             with_cli: bool = True) -> Pass:
    enc_s, wires, encoded = _lib_encode(stream, tally, tracer)
    if any(w is None for w in wires):
        tally.problems.append("library encode raised; pass abandoned")
        return Pass(enc_s, [])
    if stream.wires is None:
        stream.wires, stream.encoded = wires, encoded
        stream.container = _reference_container(encoded)
    p = Pass(enc_s, _lib_decode(stream, wires, tally, tracer))
    if with_cli:
        p.compress_s = _cli_compress(stream, tally, tracer)
        p.decompress_s = _cli_decompress(stream, tally, tracer)
    return p


# ---------------------------------------------------------------------------
# set-up, timed phase, memory pass


def setup(kind: str, seed: int, workdir: str, tally: Tally):
    """Generate, write and warm up SETUP_REPS times. Returns the last stream,
    the median set-up seconds and the median generation seconds."""
    secs, gens, digests = [], [], set()
    stream = None
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        stream, gen_s = make_stream(kind, seed, workdir)
        run_pass(stream, tally)             # warm-up; fixes reference bytes
        secs.append(time.perf_counter() - t0)
        gens.append(gen_s)
        digests.add(hashlib.sha256(stream.container or b"").hexdigest())
    if len(digests) != 1:
        tally.problems.append("container differs between set-ups of one seed")
    return stream, stats.median(secs), stats.median(gens)


def timed_passes(stream: Stream, seconds: float, tally: Tally) -> list[Pass]:
    """Full passes until ``seconds`` have passed and the latency samples
    suffice."""
    passes = []
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline
           or latency_samples(len(passes)) < MIN_LATENCY_SAMPLES):
        passes.append(run_pass(stream, tally))
        if tally.problems:
            break
    return passes


def latency_samples(passes: int) -> int:
    """Per-frame latency samples per direction that ``passes`` give."""
    return max(0, passes - LATENCY_WINDOW + 1) * FRAMES


def peak_memory_mib(stream: Stream, tally: Tally) -> float:
    """tracemalloc peak over encode+decode of one frame, maximum over the
    stream, in its own untimed pass."""
    enc_state, dec_state = CodecState(), CodecState()
    peak, failed = 0, 0
    tracemalloc.start()
    try:
        for scan in stream.scans:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            wire = codec.encode(scan, enc_state).to_bytes()
            got = codec.decode(EncodedScan.from_bytes(wire), dec_state,
                               ScanType.RANGE, SAMPLE_WIDTH, ROWS, COLS)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
            failed += got != scan
    finally:
        tracemalloc.stop()
    tally.record("memory pass", FRAMES, failed,
                 "decoded scan differs from the input")
    return peak / 2**20


def end_to_end(passes: list[Pass], stream: Stream) -> tuple[dict, dict]:
    """End-to-end metric values and the samples behind them.

    The latency tail is taken over per-frame running medians (see
    ``stats.slot_medians``). A shared host slows for tens to hundreds of
    milliseconds at random, and a p95 over raw timings measures how often
    it did so during the run rather than how long the codec takes per
    frame.
    """
    enc = stats.slot_medians([p.encode_s for p in passes], LATENCY_WINDOW)
    dec = stats.slot_medians([p.decode_s for p in passes], LATENCY_WINDOW)
    rates = {
        "encode_mpts_s": [POINTS / sum(p.encode_s) / 1e6 for p in passes],
        "decode_mpts_s": [POINTS / sum(p.decode_s) / 1e6 for p in passes],
        "compress_mpts_s": [POINTS / p.compress_s / 1e6 for p in passes],
        "decompress_mpts_s": [POINTS / p.decompress_s / 1e6 for p in passes],
    }
    values = {name: stats.median(r) for name, r in rates.items()}
    values.update({
        "encode_frame_ms_p95": stats.percentile(enc, LATENCY_PCT) * 1e3,
        "decode_frame_ms_p95": stats.percentile(dec, LATENCY_PCT) * 1e3,
        "ratio": FRAMES * ROWS * COLS * SAMPLE_WIDTH / len(stream.container),
    })
    samples = {
        "passes": len(passes),
        "frame_timings_per_direction": len(passes) * FRAMES,
        "latency_window_passes": LATENCY_WINDOW,
        "frame_samples_per_direction": len(enc),
        "samples_beyond_p95": stats.samples_beyond(len(enc), LATENCY_PCT),
        "per_pass_mpts_s": rates,
    }
    return values, samples


# ---------------------------------------------------------------------------
# traced run


def stream_facts(stream: Stream) -> dict:
    """Exact counts from the produced wire bytes (no tracing involved)."""
    blocks = exceptions = width_sum = mask_bytes = total = p_frames = 0
    for enc in stream.encoded:
        for block in intcodec.iter_blocks(enc.value_block):
            blocks += 1
            exceptions += len(block.exceptions)
            width_sum += block.bit_width
        mask_bytes += len(enc.mask_block)
        total += enc.total_bytes
        p_frames += enc.mode == Mode.P
    return {
        "intcodec.blocks_per_frame": blocks / FRAMES,
        "intcodec.exceptions_per_frame": exceptions / FRAMES,
        "intcodec.mean_bit_width": width_sum / blocks,
        "codec.p_frac": p_frames / FRAMES,
        "bytecomp.mask_bytes_frac": mask_bytes / total,
    }


# Self time per frame of each layer. Codec-internal layers are read from the
# library operations, the layers only the CLI uses from the CLI operations.
_LIB_LAYERS = {
    "bitmask.ms": "bitmask",
    "intcodec.pfor_encode.ms": "intcodec.pfor_encode",
    "intcodec.pfor_decode.ms": "intcodec.pfor_decode",
    "intcodec.delta_zigzag.ms": "intcodec.delta_zigzag",
    "bytecomp.deflate.ms": "bytecomp.deflate",
    "bytecomp.inflate.ms": "bytecomp.inflate",
    "codec.encode.self_ms": "codec.encode",
    "codec.decode.self_ms": "codec.decode",
}
_CLI_LAYERS = {
    "scan.quantize.ms": ("scan.quantize", "cli.compress"),
    "scan.dequantize.ms": ("scan.dequantize", "cli.decompress"),
    "container.write.ms": ("container.write", "cli.compress"),
    "container.read.ms": ("container.read", "cli.decompress"),
    "rawio.read.ms": ("rawio.read", "cli.compress"),
    "cli.compress.self_ms": ("cli.compress", "cli.compress"),
    "cli.decompress.self_ms": ("cli.decompress", "cli.decompress"),
}
COUNT_METRICS = ("varint.decode_calls_per_frame",
                 "bytecomp.inflate_calls_per_frame",
                 "codec.trial_encodes_per_frame")


def layer_metrics(timed: tracing.Tracer, counted: tracing.Tracer) -> dict:
    """Per-layer times and call counts of one traced pass, per frame.

    Work inside the I/P trial (pfor_encode, mask and delta/ZigZag calls under
    select_mode) is counted only in codec.select_mode.ms, which is that
    span's whole duration.
    """
    spans = timed.spans
    own = tracing.self_times(spans)
    trial = tracing.in_trial(spans)
    self_ns, calls = {}, {}
    select_ns = trial_encodes = 0
    for i, (name, start, end, _, root) in enumerate(spans):
        if trial[i]:
            if name == "intcodec.pfor_encode" and root == "lib.encode":
                trial_encodes += 1
            continue
        key = (name, root)
        self_ns[key] = self_ns.get(key, 0) + own[i]
        calls[key] = calls.get(key, 0) + 1
        if name == tracing.TRIAL_PARENT and root == "lib.encode":
            select_ns += end - start

    def per_frame_ms(ns):
        return ns / FRAMES / 1e6

    out = {metric: per_frame_ms(sum(self_ns.get((layer, r), 0)
                                    for r in LIB_ROOTS))
           for metric, layer in _LIB_LAYERS.items()}
    out.update({metric: per_frame_ms(self_ns.get((layer, root), 0))
                for metric, (layer, root) in _CLI_LAYERS.items()})
    out["codec.select_mode.ms"] = per_frame_ms(select_ns)
    out["varint.decode_calls_per_frame"] = (
        counted.counts["varint.decode_uvarint", "lib.decode"] / FRAMES)
    out["bytecomp.inflate_calls_per_frame"] = (
        calls.get(("bytecomp.inflate", "lib.decode"), 0) / FRAMES)
    out["codec.trial_encodes_per_frame"] = trial_encodes / FRAMES
    return out


def traced_passes(stream: Stream, seconds: float, tally: Tally):
    """Repeat an untraced library pass, a timed traced pass and a counting
    library pass until ``seconds`` have passed.

    Returns the median of each per-layer metric over the traced passes and
    the tracing overhead on library encode+decode time.
    """
    per_pass, plain_s, traced_s = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(per_pass) < 3:
        p = run_pass(stream, tally, with_cli=False)
        plain_s.append(sum(p.encode_s) + sum(p.decode_s))
        timed = tracing.Tracer()
        with tracing.installed(timed, timed=True):
            p = run_pass(stream, tally, timed)
        traced_s.append(sum(p.encode_s) + sum(p.decode_s))
        counted = tracing.Tracer()
        with tracing.installed(counted, timed=False):
            run_pass(stream, tally, counted, with_cli=False)
        per_pass.append(layer_metrics(timed, counted))
        if tally.problems:
            break
    for name in COUNT_METRICS:
        if len({m[name] for m in per_pass}) != 1:
            tally.problems.append(f"{name} differs between traced passes")
    metrics = {name: stats.median(m[name] for m in per_pass)
               for name in per_pass[0]}
    plain = stats.median(plain_s)
    metrics["trace.overhead_frac"] = (stats.median(traced_s) - plain) / plain
    return metrics, len(per_pass)
