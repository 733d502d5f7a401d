"""Command-line interface.

Subcommands: compress, decompress, verify, bench, sweep, ablate,
heuristic-eval, gen. Exit codes: 0 success, 1 usage/IO error, 2 data
verification or corruption failure.
"""

import argparse
import contextlib
import itertools
import os
import secrets
import shutil
import sys
import time

import numpy as np

from . import bench as benchmod
from . import bytecomp, rawio, synthetic
from .codec import CodecState, Mode, decode, encode
from .container import StreamHeader, StreamReader, StreamWriter
from .errors import JiffyError
from .rawio import ELEMENT_TYPES, RawSequenceSpec
from .scan import QuantizationSpec, Scan, ScanType, dequantize, quantize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CORRUPT = 2

_MODES = {"auto": None, "i": Mode.I, "p": Mode.P}
_MASK_CODECS = {"stored": bytecomp.STORED, "deflate": bytecomp.DEFLATE}
_SCAN_TYPES = {t.name.lower(): t for t in ScanType}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this tool reserves 2 for corruption."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _shape(text: str) -> tuple[int, int]:
    try:
        r, c = text.lower().split("x")
        rows, cols = int(r), int(c)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"shape must look like 128x1024, got {text!r}")
    if rows < 1 or cols < 1:
        raise argparse.ArgumentTypeError("shape must be positive")
    return rows, cols


def _precisions(text: str) -> list[int]:
    try:
        out = [int(p) for p in text.split(",") if p]
    except ValueError:
        raise argparse.ArgumentTypeError("precisions must be comma-separated "
                                         "integers (micrometers)")
    if not out or any(p < 1 for p in out):
        raise argparse.ArgumentTypeError("precisions must be positive")
    return out


def _add_raw_input(p: _Parser):
    p.add_argument("--input", required=True, help="raw frame dump to read")
    p.add_argument("--etype", default="float32", choices=sorted(ELEMENT_TYPES),
                   help="raw element type (default float32)")


def _add_frame_format(p: _Parser):
    """What a raw dump cannot tell; verify reads it from the container."""
    p.add_argument("--shape", required=True, type=_shape,
                   help="frame shape as ROWSxCOLS, e.g. 128x1024")
    p.add_argument("--sample-width", type=int, default=2, choices=(1, 2, 4),
                   help="quantized sample bytes for float input "
                        "(integer input keeps its own width)")


def _add_scan_input(p: _Parser):
    """Raw frames turned into scans: float frames are quantized."""
    _add_raw_input(p)
    _add_frame_format(p)
    p.add_argument("--scan-type", default="range", choices=sorted(_SCAN_TYPES),
                   help="scan payload kind (default range)")
    p.add_argument("--precision-um", type=int, default=1000,
                   help="quantization step in micrometers (default 1000)")


def build_parser() -> _Parser:
    p = _Parser(prog="jiffy",
                description="Lossless LiDAR scan-sequence compression")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    c = sub.add_parser("compress", help="raw frames -> container")
    _add_scan_input(c)
    c.add_argument("--mode", default="auto", choices=sorted(_MODES),
                   help="scan mode: auto selects per scan, i or p forces it "
                        "(default auto)")
    c.add_argument("--mask-codec", default="deflate",
                   choices=sorted(_MASK_CODECS))
    c.add_argument("--output", required=True)
    c.set_defaults(func=cmd_compress)

    d = sub.add_parser("decompress", help="container -> raw frames")
    d.add_argument("--input", required=True, help="container file")
    d.add_argument("--output", required=True)
    d.add_argument("--etype", default="float32", choices=sorted(ELEMENT_TYPES),
                   help="output element type (float32 dequantizes; "
                        "integer types emit the quantized samples)")
    d.set_defaults(func=cmd_decompress)

    v = sub.add_parser("verify", help="compare a container against raw input")
    _add_raw_input(v)
    v.add_argument("--container", required=True)
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bench", help="codec throughput and ratio")
    _add_scan_input(b)
    b.add_argument("--mode", default="auto", choices=sorted(_MODES))
    b.add_argument("--reps", type=int, default=3)
    b.add_argument("--csv", help="write per-frame stats to this CSV file")
    b.add_argument("--json", dest="json_path", help="write the report as JSON")
    b.set_defaults(func=cmd_bench)

    s = sub.add_parser("sweep", help="ratio vs quantization precision")
    s.add_argument("--input", required=True,
                   help="float32 range frame dump to read")
    _add_frame_format(s)
    s.add_argument("--precisions", required=True, type=_precisions,
                   help="comma-separated precisions in micrometers")
    s.add_argument("--csv", help="write the table to this CSV file")
    s.set_defaults(func=cmd_sweep)

    a = sub.add_parser("ablate", help="pipeline-stage ablation ladder")
    _add_scan_input(a)
    a.add_argument("--csv", help="write the table to this CSV file")
    a.set_defaults(func=cmd_ablate)

    h = sub.add_parser("heuristic-eval",
                       help="mode heuristic vs brute-force optimum")
    _add_scan_input(h)
    h.set_defaults(func=cmd_heuristic_eval)

    g = sub.add_parser("gen", help="write a synthetic raw sequence")
    g.add_argument("--kind", required=True, choices=synthetic.KINDS)
    g.add_argument("--frames", type=int, required=True)
    g.add_argument("--shape", type=_shape, default=(128, 1024))
    g.add_argument("--sparsity", type=float, default=None,
                   help="target zero-sample fraction (kind-specific default)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--noise-mm", type=float, default=10.0)
    g.add_argument("--output", required=True)
    g.set_defaults(func=cmd_gen)
    return p


def _qspec_from_args(args, spec: RawSequenceSpec) -> QuantizationSpec:
    width = (args.sample_width if spec.dtype.kind == "f"
             else spec.dtype.itemsize)
    return QuantizationSpec(precision_um=args.precision_um, sample_width=width)


def _scan_from_raw(frame: np.ndarray, qspec: QuantizationSpec,
                   scan_type: ScanType) -> Scan:
    if frame.dtype.kind == "f":
        return quantize(frame, qspec, scan_type)
    return Scan(scan_type, frame.dtype.itemsize, frame)


def _load_scans(args):
    spec = RawSequenceSpec(args.input, args.etype, *args.shape)
    qspec = _qspec_from_args(args, spec)
    scans = [_scan_from_raw(frame, qspec, _SCAN_TYPES[args.scan_type])
             for frame in rawio.read_frames(spec)]
    if not scans:
        raise ValueError(f"{spec.path}: no frames")
    return spec, scans


def _decoded_scans(reader: StreamReader):
    """Yield the scan of each record ``reader`` produces, in stream order.

    A record the codec rejects raises its error naming the frame.
    """
    h = reader.header
    state = CodecState()
    for i, enc in enumerate(reader):
        try:
            scan = decode(enc, state, h.scan_type, h.sample_width, h.rows,
                          h.cols)
        except JiffyError as e:
            raise type(e)(str(e), frame_index=i) from None
        yield scan


@contextlib.contextmanager
def _replacing(path: str):
    """Open ``path`` for binary writing so that a failure leaves it as it was.

    The bytes go to a new file beside ``path`` (beside a symlink's target),
    renamed over it only when the block completes. A path that exists and is
    not a regular file, such as /dev/null or a pipe, is written directly.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as f:
            yield f
        return
    path = os.path.realpath(path)
    head, tail = os.path.split(path)
    while True:
        tmp = os.path.join(head, f".{tail}.{secrets.token_hex(4)}.tmp")
        try:
            # 0o666 under the umask: the mode a plain open() would give
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "wb") as f:
            yield f
        if os.path.exists(path):
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# commands


def cmd_compress(args) -> int:
    spec = RawSequenceSpec(args.input, args.etype, *args.shape)
    qspec = _qspec_from_args(args, spec)
    mode = _MODES[args.mode]
    mask_codec = _MASK_CODECS[args.mask_codec]
    n = spec.count_frames()
    rows, cols = args.shape
    header = StreamHeader(_SCAN_TYPES[args.scan_type], rows, cols,
                          qspec.sample_width, qspec.precision_um, mask_codec,
                          frame_count=n)

    state = CodecState()
    p_scans = 0
    t_encode = 0.0
    with _replacing(args.output) as sink:
        writer = StreamWriter(sink, header)
        for frame in rawio.read_frames(spec):
            t0 = time.perf_counter()
            scan = _scan_from_raw(frame, qspec, header.scan_type)
            enc = encode(scan, state, mode, mask_codec=mask_codec)
            t_encode += time.perf_counter() - t0
            writer.write_frame(enc)
            p_scans += enc.mode == Mode.P
        writer.close()
    # counted, not told: a pipe cannot tell, and /dev/null tells 0
    total_out = writer.bytes_written

    if n == 0:
        print(f"wrote {args.output}: 0 frames, ratio n/a")
        return EXIT_OK
    in_bytes = n * spec.frame_bytes
    pts = n * rows * cols
    print(f"wrote {args.output}: {n} frames {rows}x{cols} "
          f"{spec.element_type}, {in_bytes} -> {total_out} bytes "
          f"(ratio {in_bytes / total_out:.2f}), "
          f"{n - p_scans} I-scans / {p_scans} P-scans, "
          f"{n / t_encode:.0f} scans/s, {pts / t_encode / 1e6:.1f} Mpts/s")
    return EXIT_OK


def cmd_decompress(args) -> int:
    dtype = ELEMENT_TYPES[args.etype]
    with open(args.input, "rb") as src:
        reader = StreamReader(src)
        h = reader.header
        if dtype.kind != "f" and dtype.itemsize < h.sample_width:
            raise ValueError(f"--etype {args.etype} narrower than the "
                             f"stream's {h.sample_width}-byte samples")
        qspec = QuantizationSpec(h.precision_um, h.sample_width)
        n = 0
        with _replacing(args.output) as dst:
            for scan in _decoded_scans(reader):
                if dtype.kind == "f":
                    # raw dumps mark invalid samples as 0
                    out = dequantize(scan, qspec, invalid=0.0).astype(
                        dtype, copy=False)
                else:
                    out = np.ascontiguousarray(scan.samples, dtype=dtype)
                dst.write(out)
                n += 1
    print(f"wrote {args.output}: {n} frames")
    return EXIT_OK


def cmd_verify(args) -> int:
    with open(args.container, "rb") as src:
        reader = StreamReader(src)
        h = reader.header
        spec = RawSequenceSpec(args.input, args.etype, h.rows, h.cols)
        qspec = QuantizationSpec(h.precision_um, h.sample_width)
        n = 0
        for scan, frame in itertools.zip_longest(_decoded_scans(reader),
                                                 rawio.read_frames(spec)):
            if frame is None:
                print(f"verify FAILED: container has more frames than "
                      f"raw input ({n} raw frames)")
                return EXIT_CORRUPT
            if scan is None:
                print(f"verify FAILED: raw input has more frames than "
                      f"container ({n})")
                return EXIT_CORRUPT
            expect = _scan_from_raw(frame, qspec, h.scan_type)
            if not np.array_equal(scan.samples, expect.samples):
                bad = int(np.argwhere(scan.samples != expect.samples)[0][0])
                print(f"verify FAILED: frame {n} differs (first bad row {bad})")
                return EXIT_CORRUPT
            n += 1
    print(f"verify OK: {n} frames sample-exact")
    return EXIT_OK


def cmd_bench(args) -> int:
    _, scans = _load_scans(args)
    report = benchmod.run_bench(scans, reps=args.reps, mode=_MODES[args.mode])
    hdr = (f"{'type':14s} {'shape':>10s} {'frames':>6s} {'ratio':>6s} "
           f"{'enc scans/s':>11s} {'enc Mpts/s':>10s} "
           f"{'dec scans/s':>11s} {'dec Mpts/s':>10s}")
    print(hdr)
    shape = f"{report.rows}x{report.cols}"
    print(f"{report.scan_type:14s} {shape:>10s} "
          f"{report.frame_count:6d} {report.ratio:6.2f} "
          f"{report.encode_scans_per_s:11.0f} "
          f"{report.encode_points_per_s / 1e6:10.1f} "
          f"{report.decode_scans_per_s:11.0f} "
          f"{report.decode_points_per_s / 1e6:10.1f}")
    print(f"modes: {report.i_scans} I / {report.p_scans} P; encode "
          f"{report.encode_s_mean:.3f}s ± {report.encode_s_std:.3f}s, decode "
          f"{report.decode_s_mean:.3f}s ± {report.decode_s_std:.3f}s "
          f"over {report.reps} reps")
    if args.csv:
        report.write_csv(args.csv)
        print(f"per-frame stats -> {args.csv}")
    if args.json_path:
        with open(args.json_path, "w") as f:
            f.write(report.to_json())
        print(f"report -> {args.json_path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    spec = RawSequenceSpec(args.input, "float32", *args.shape)
    rows = benchmod.run_sweep(rawio.read_all(spec), args.precisions,
                              sample_width=args.sample_width)
    print(f"{'precision_um':>12s} {'bits/sample':>11s} {'ratio':>7s} "
          f"{'clamped':>9s}")
    for r in rows:
        print(f"{r['precision_um']:12d} {r['bits_per_sample']:11.3f} "
              f"{r['ratio']:7.2f} {r['clamped_samples']:9d}")
    if args.csv:
        benchmod.write_csv(args.csv, rows)
    return EXIT_OK


def cmd_ablate(args) -> int:
    spec, scans = _load_scans(args)
    rows = benchmod.run_ablation(scans,
                                 input_bytes_per_sample=spec.dtype.itemsize)
    print(f"{'variant':24s} {'ratio':>7s} {'bits/sample':>11s} {'P-scans':>7s}")
    for r in rows:
        print(f"{r['variant']:24s} {r['ratio']:7.2f} "
              f"{r['bits_per_sample']:11.3f} {r['p_scans']:7d}")
    if args.csv:
        benchmod.write_csv(args.csv, rows)
    return EXIT_OK


def cmd_heuristic_eval(args) -> int:
    _, scans = _load_scans(args)
    r = benchmod.run_heuristic_eval(scans)
    print(f"frames evaluated:  {r['frames_evaluated']}")
    print(f"accuracy:          {r['accuracy'] * 100:.1f}%")
    print(f"suboptimal I rate: {r['suboptimal_i_rate'] * 100:.2f}%")
    print(f"suboptimal P rate: {r['suboptimal_p_rate'] * 100:.2f}%")
    return EXIT_OK


def cmd_gen(args) -> int:
    rows, cols = args.shape
    frames = synthetic.generate(args.kind, args.frames, rows, cols,
                                sparsity=args.sparsity, seed=args.seed,
                                noise_mm=args.noise_mm)
    rawio.write_frames(args.output, frames, "float32")
    zeros = float((frames == 0).mean())
    print(f"wrote {args.output}: {args.frames} frames {rows}x{cols} float32, "
          f"{frames.nbytes} bytes, zero fraction {zeros:.3f}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (JiffyError, AssertionError) as e:
        # the harness commands raise AssertionError on a decode mismatch
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CORRUPT
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
