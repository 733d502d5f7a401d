"""Per-scan I/P encoding, decoding, and trial-compression mode selection.

An I-scan stands alone: mask out zeros, compact survivors row-major, delta,
ZigZag, PFOR. A P-scan codes against the previous scan: the mask ships as an
XOR against the previous mask, and the values are temporal residuals under
the current mask, pushed through the same value pipeline.

EncodedScan wire layout (frozen):

    [mode: 1 byte]            bit0 = P-scan; bit1 = P residuals coded
                              without the spatial delta (read on P-scans,
                              ignored on I-scans, never set by this encoder)
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
from .errors import CorruptStreamError
from .intcodec import (delta_unwrap, delta_wrap, pfor_decode, pfor_encode,
                       zigzag_unwrap, zigzag_wrap)
from .scan import Scan, ScanType, sample_dtype
from .varint import decode_uvarint, encode_uvarint


class Mode(IntEnum):
    I = 0
    P = 1


TEST_LINES = 4      # trial scanlines for automatic mode selection


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
        return len(self.to_bytes())

    @classmethod
    def from_bytes(cls, buf: bytes, *,
                   mask_len: int | None = None) -> "EncodedScan":
        """Parse a record; ``mask_len``, when given, is the only mask
        plaintext length accepted (``ceil(rows*cols/8)`` for the stream)."""
        if len(buf) < 1:
            raise CorruptStreamError("empty scan record")
        flags = buf[0]
        if flags & ~0x03:
            raise CorruptStreamError(f"reserved mode bits set: {flags:#x}")
        value_count, pos = decode_uvarint(buf, 1)
        mask_start = pos
        mask_plain, pos = bytecomp.parse_block(buf, pos, mask_len)
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


def _forward(values: np.ndarray) -> np.ndarray:
    return zigzag_wrap(delta_wrap(values))


# ---------------------------------------------------------------------------
# encode


def select_mode(scan: Scan, state: CodecState,
                test_lines: int = TEST_LINES) -> Mode:
    """Pick I or P by trial-compressing a few scanlines.

    Runs only the value pipeline (mask compression excluded) over
    ``test_lines`` evenly spaced rows and keeps the cheaper mode, preferring
    I on a tie. The first scan of a stream is always I.
    """
    if test_lines < 1:
        raise ValueError("test_lines must be positive")
    if state.samples is None:
        return Mode.I

    rows = scan.rows
    nlines = min(test_lines, rows)
    idx = (np.arange(nlines, dtype=np.int64) * rows) // nlines
    cur_rows = scan.samples[idx]
    prev_rows = state.samples[idx]

    mask = extract_mask(cur_rows)
    cur = compact(cur_rows, mask)
    i_bytes = len(pfor_encode(_forward(cur)))
    residuals = cur - compact(prev_rows, mask)
    p_bytes = len(pfor_encode(_forward(residuals)))
    return Mode.P if p_bytes < i_bytes else Mode.I


def encode(scan: Scan, state: CodecState, mode: Mode | None = None,
           mask_codec: int = bytecomp.DEFAULT_CODEC) -> EncodedScan:
    """Encode one scan, updating ``state`` with it for the next scan; the
    mirror of :func:`decode`.

    ``mode`` None picks I or P with :func:`select_mode`; ``Mode.I`` or
    ``Mode.P`` forces it. The first scan of a stream is always I.
    """
    mask = extract_mask(scan.samples)
    if mode is None:
        mode = select_mode(scan, state)
    is_p = mode == Mode.P and state.samples is not None
    mask_bits = mask
    if is_p:
        if state.samples.shape != scan.samples.shape:
            raise ValueError("scan shape differs from reference")
        mask_bits = xor_mask(mask, state.mask)
    mask_block = bytecomp.compress_block(pack_mask(mask_bits), mask_codec)
    values = compact(scan.samples, mask)
    if is_p:
        # previous scan under the current mask; uint32 residuals wrap
        values = values - compact(state.samples, mask)
    enc = EncodedScan(Mode.P if is_p else Mode.I, values.size, mask_block,
                      pfor_encode(_forward(values)))
    state.update(scan.samples, mask)
    return enc


# ---------------------------------------------------------------------------
# decode


def decode(enc: EncodedScan, state: CodecState, scan_type: ScanType,
           sample_width: int, rows: int, cols: int) -> Scan:
    """Reconstruct a scan bit-exactly, updating ``state``.

    Everything but the output geometry comes from the record itself. Raises
    CorruptStreamError whenever the record is internally inconsistent
    (counts, ranges, masked zeros), rather than returning a plausible scan.
    """
    dtype = sample_dtype(sample_width)
    is_p = enc.mode == Mode.P
    if is_p and state.samples is None:
        raise CorruptStreamError("P-scan with no reference scan")
    cur_mask = unpack_mask(enc.mask_plaintext, (rows, cols))
    if is_p:
        cur_mask = xor_mask(cur_mask, state.mask)
    clear = int(cur_mask.size - np.count_nonzero(cur_mask))
    if enc.value_count != clear:
        raise CorruptStreamError(
            f"value count {enc.value_count} does not match mask ({clear})")
    codes = pfor_decode(enc.value_block)
    if codes.size != clear:
        raise CorruptStreamError("value block count mismatch")
    values = zigzag_unwrap(codes)
    if not (is_p and enc.residual_plain):   # mode bit1 counts on P-scans only
        values = delta_unwrap(values)
    if is_p:
        values = compact(state.samples, cur_mask) + values  # uint32, wraps back

    if values.size and int(values.max()) > int(np.iinfo(dtype).max):
        raise CorruptStreamError("decoded sample exceeds sample width")
    if values.size and not values.all():
        raise CorruptStreamError("zero sample outside the mask")
    samples = expand(values, cur_mask, dtype)
    state.update(samples, cur_mask)
    return Scan(scan_type, sample_width, samples)


__all__ = [
    "Mode", "CodecState", "EncodedScan", "select_mode", "encode", "decode",
]
