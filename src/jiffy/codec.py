"""Per-scan I/P encoding, decoding, and trial-compression mode selection.

An I-scan stands alone: mask out zeros, compact survivors row-major, delta,
ZigZag, PFOR. A P-scan codes against the previous scan: the mask ships as an
XOR against the previous mask, and the values are temporal residuals under
the current mask, pushed through the same value pipeline.

EncodedScan wire layout (frozen):

    [mode: 1 byte]            bit0 = P-scan, bit1 = residuals coded without
                              the spatial delta (ablation variant, default 0)
    [value_count: varint]     samples surviving the current mask
    [mask_block]              see bytecomp
    [value_block_len: varint]
    [value_block]             PFOR stream
"""

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from . import bytecomp
from .bitmask import (compact, expand, extract_mask, pack_mask, unpack_mask,
                      xor_mask)
from .errors import CorruptStreamError, JiffyError
from .intcodec import (delta_unwrap, delta_wrap, pfor_decode, pfor_encode,
                       zigzag_unwrap, zigzag_wrap)
from .scan import Scan, ScanType, sample_dtype
from .varint import decode_uvarint, encode_uvarint


class Mode(IntEnum):
    I = 0
    P = 1


class Policy(IntEnum):
    AUTO = 0
    FORCE_I = 1
    FORCE_P = 2


@dataclass(frozen=True)
class ModeConfig:
    policy: Policy = Policy.AUTO
    test_lines: int = 4         # trial scanlines for auto selection

    def __post_init__(self):
        if self.test_lines < 1:
            raise ValueError("test_lines must be positive")


@dataclass(frozen=True)
class PipelineConfig:
    """Which stages of the value pipeline run.

    The shipping configuration is all-on; the partial variants exist for the
    ablation harness, which measures the same code paths with stages removed
    rather than maintaining parallel implementations. ``residual_delta``
    controls whether P-scan residuals get the spatial delta before ZigZag;
    it is the one variant with a wire bit (mode bit1).
    """

    mask: bool = True
    delta: bool = True
    zigzag: bool = True
    residual_delta: bool = True


DEFAULT_PIPELINE = PipelineConfig()


@dataclass
class CodecState:
    """Reference scan for P-coding; one per stream direction.

    Holds the last scan in the quantized domain and the mask the pipeline
    used for it. Encoder and decoder sides stay in lockstep because decoding
    is exact.
    """

    samples: np.ndarray | None = None
    mask: np.ndarray | None = None

    def update(self, samples: np.ndarray, mask: np.ndarray):
        self.samples = samples
        self.mask = mask


EncoderState = CodecState
DecoderState = CodecState


@dataclass
class EncodedScan:
    mode: Mode
    value_count: int
    mask_block: bytes
    value_block: bytes
    residual_plain: bool = False    # mode bit1
    # (mask_block, its plaintext): the block is inflated at most once
    _mask_cache: tuple[bytes, bytes] | None = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def mask_plaintext(self) -> bytes:
        """The inflated mask block, computed on first use and kept."""
        cache = self._mask_cache
        if cache is None or cache[0] is not self.mask_block:
            cache = (self.mask_block,
                     bytecomp.decompress_block(self.mask_block))
            self._mask_cache = cache
        return cache[1]

    def to_bytes(self) -> bytes:
        flags = int(self.mode) | (2 if self.residual_plain else 0)
        return b"".join((bytes([flags]),
                         encode_uvarint(self.value_count),
                         self.mask_block,
                         encode_uvarint(len(self.value_block)),
                         self.value_block))

    @property
    def total_bytes(self) -> int:
        return (1 + len(encode_uvarint(self.value_count)) + len(self.mask_block)
                + len(encode_uvarint(len(self.value_block)))
                + len(self.value_block))

    @classmethod
    def from_bytes(cls, buf: bytes) -> "EncodedScan":
        if len(buf) < 1:
            raise CorruptStreamError("empty scan record")
        flags = buf[0]
        if flags & ~0x03:
            raise CorruptStreamError(f"reserved mode bits set: {flags:#x}")
        value_count, pos = decode_uvarint(buf, 1)
        mask_start = pos
        mask_plain, pos = bytecomp.parse_block(buf, pos)
        mask_block = bytes(buf[mask_start:pos])
        vlen, pos = decode_uvarint(buf, pos)
        if pos + vlen != len(buf):
            raise CorruptStreamError("scan record length mismatch")
        enc = cls(mode=Mode(flags & 1), value_count=value_count,
                  mask_block=mask_block, value_block=bytes(buf[pos:pos + vlen]),
                  residual_plain=bool(flags & 2))
        enc._mask_cache = (mask_block, mask_plain)
        return enc


# ---------------------------------------------------------------------------
# value pipeline


def _forward_i(values: np.ndarray, cfg: PipelineConfig) -> np.ndarray:
    codes = values
    if cfg.delta:
        codes = delta_wrap(codes)
    if cfg.zigzag:
        codes = zigzag_wrap(codes)
    return codes


def _inverse_i(codes: np.ndarray, cfg: PipelineConfig) -> np.ndarray:
    if cfg.zigzag:
        codes = zigzag_unwrap(codes)
    if cfg.delta:
        codes = delta_unwrap(codes)
    return codes


def _forward_p(residuals: np.ndarray, cfg: PipelineConfig) -> np.ndarray:
    if cfg.residual_delta:
        residuals = delta_wrap(residuals)
    return zigzag_wrap(residuals)


def _inverse_p(codes: np.ndarray, residual_plain: bool) -> np.ndarray:
    residuals = zigzag_unwrap(codes)
    if not residual_plain:
        residuals = delta_unwrap(residuals)
    return residuals


def _pipeline_mask(samples: np.ndarray, cfg: PipelineConfig) -> np.ndarray:
    if cfg.mask:
        return extract_mask(samples)
    return np.zeros(samples.shape, dtype=bool)


# ---------------------------------------------------------------------------
# encode


def encode_i(scan: Scan, cfg: PipelineConfig = DEFAULT_PIPELINE,
             mask_codec: int = bytecomp.DEFAULT_CODEC) -> EncodedScan:
    mask = _pipeline_mask(scan.samples, cfg)
    values = compact(scan.samples, mask)
    mask_block = bytecomp.compress_block(pack_mask(mask) if cfg.mask else b"",
                                         mask_codec)
    value_block = pfor_encode(_forward_i(values, cfg))
    return EncodedScan(Mode.I, values.size, mask_block, value_block)


def encode_p(scan: Scan, state: CodecState,
             cfg: PipelineConfig = DEFAULT_PIPELINE,
             mask_codec: int = bytecomp.DEFAULT_CODEC) -> EncodedScan:
    if state.samples is None:
        raise JiffyError("P-scan requested with no previous scan")
    if state.samples.shape != scan.samples.shape:
        raise ValueError("scan shape differs from reference")
    cur_mask = _pipeline_mask(scan.samples, cfg)
    mask_bytes = (pack_mask(xor_mask(cur_mask, state.mask)) if cfg.mask
                  else b"")
    cur = compact(scan.samples, cur_mask)
    prev = compact(state.samples, cur_mask)     # previous scan, current mask
    residuals = cur - prev                      # uint32, wraps
    value_block = pfor_encode(_forward_p(residuals, cfg))
    return EncodedScan(Mode.P, cur.size,
                       bytecomp.compress_block(mask_bytes, mask_codec),
                       value_block,
                       residual_plain=not cfg.residual_delta)


def select_mode(scan: Scan, state: CodecState, mode_cfg: ModeConfig,
                cfg: PipelineConfig = DEFAULT_PIPELINE) -> Mode:
    """Pick I or P by trial-compressing a few scanlines.

    Runs only the value pipeline (mask compression excluded) over
    ``test_lines`` evenly spaced rows and keeps the cheaper mode, preferring
    I on a tie. The first scan of a stream is always I.
    """
    if state.samples is None:
        return Mode.I
    if mode_cfg.policy == Policy.FORCE_I:
        return Mode.I
    if mode_cfg.policy == Policy.FORCE_P:
        return Mode.P

    rows = scan.rows
    nlines = min(mode_cfg.test_lines, rows)
    idx = (np.arange(nlines, dtype=np.int64) * rows) // nlines
    cur_rows = scan.samples[idx]
    prev_rows = state.samples[idx]

    mask = extract_mask(cur_rows) if cfg.mask else np.zeros(cur_rows.shape, bool)
    cur = compact(cur_rows, mask)
    i_bytes = len(pfor_encode(_forward_i(cur, cfg)))
    residuals = cur - compact(prev_rows, mask)
    p_bytes = len(pfor_encode(_forward_p(residuals, cfg)))
    return Mode.P if p_bytes < i_bytes else Mode.I


def encode(scan: Scan, state: CodecState,
           mode_cfg: ModeConfig = ModeConfig(),
           cfg: PipelineConfig = DEFAULT_PIPELINE,
           mask_codec: int = bytecomp.DEFAULT_CODEC) -> EncodedScan:
    """Encode one scan, updating ``state`` with it for the next P decision."""
    mode = select_mode(scan, state, mode_cfg, cfg)
    if mode == Mode.P:
        enc = encode_p(scan, state, cfg, mask_codec)
    else:
        enc = encode_i(scan, cfg, mask_codec)
    state.update(scan.samples, _pipeline_mask(scan.samples, cfg))
    return enc


# ---------------------------------------------------------------------------
# decode


def decode(enc: EncodedScan, state: CodecState, scan_type: ScanType,
           sample_width: int, rows: int, cols: int,
           cfg: PipelineConfig = DEFAULT_PIPELINE) -> Scan:
    """Reconstruct a scan bit-exactly, updating ``state``.

    Raises CorruptStreamError whenever the record is internally inconsistent
    (counts, ranges, masked zeros), rather than returning a plausible scan.
    """
    dtype = sample_dtype(sample_width)
    shape = (rows, cols)
    mask_bytes = enc.mask_plaintext

    if enc.mode == Mode.P:
        if state.samples is None:
            raise CorruptStreamError("P-scan with no reference scan")
        if cfg.mask:
            xorm = unpack_mask(mask_bytes, shape)
            cur_mask = xor_mask(xorm, state.mask)
        else:
            cur_mask = np.zeros(shape, dtype=bool)
        _check_count(enc, cur_mask)
        prev = compact(state.samples, cur_mask)
        residuals = _inverse_p(pfor_decode(enc.value_block), enc.residual_plain)
        if residuals.size != prev.size:
            raise CorruptStreamError("value block count mismatch")
        values = prev + residuals               # uint32, wraps back
    else:
        if cfg.mask:
            cur_mask = unpack_mask(mask_bytes, shape)
        else:
            cur_mask = np.zeros(shape, dtype=bool)
        _check_count(enc, cur_mask)
        values = _inverse_i(pfor_decode(enc.value_block), cfg)
        if values.size != enc.value_count:
            raise CorruptStreamError("value block count mismatch")

    limit = int(np.iinfo(dtype).max)
    if values.size and int(values.max()) > limit:
        raise CorruptStreamError("decoded sample exceeds sample width")
    if cfg.mask and values.size and not values.all():
        raise CorruptStreamError("zero sample outside the mask")
    samples = expand(values, cur_mask, dtype)
    state.update(samples, cur_mask)
    return Scan(scan_type, sample_width, samples)


def _check_count(enc: EncodedScan, cur_mask: np.ndarray):
    clear = int(cur_mask.size - np.count_nonzero(cur_mask))
    if enc.value_count != clear:
        raise CorruptStreamError(
            f"value count {enc.value_count} does not match mask ({clear})")


__all__ = [
    "Mode", "Policy", "ModeConfig", "PipelineConfig", "DEFAULT_PIPELINE",
    "CodecState", "EncoderState", "DecoderState", "EncodedScan",
    "encode_i", "encode_p", "select_mode", "encode", "decode",
]
