"""Worst-case decode cost for one geometry: time and memory.

Decode time and memory must stay bounded by the header geometry (rows x
cols x sample_width), whatever the length fields and PFOR headers say. The
costliest records a geometry admits are decoded through the codec and
through the container, and each must stay within a generous factor of a
real frame's decode time, measured in the same process, and within a
constant times the geometry in traced memory.
"""

import io
import time
import tracemalloc

import numpy as np
import pytest

from jiffy import bytecomp
from jiffy.bitmask import pack_mask
from jiffy.codec import CodecState, EncodedScan, Mode, decode, encode
from jiffy.container import StreamHeader, StreamReader, StreamWriter
from jiffy.errors import CorruptStreamError
from jiffy.intcodec import BLOCK_SIZE, pfor_encode
from jiffy.scan import QuantizationSpec, ScanType, quantize
from jiffy.synthetic import generate
from jiffy.varint import encode_uvarint

from .test_codec import forged_count_record

ROWS, COLS, WIDTH = 32, 1024, 4
N = ROWS * COLS
TIME_FACTOR = 30
PEAK_FACTOR = 64


def _i_record(value_block):
    """An I-record over a mask with no zero sample, so every one of the
    rows x cols samples is a PFOR value."""
    mask_block = bytecomp.compress_block(
        pack_mask(np.zeros((ROWS, COLS), dtype=bool)))
    return EncodedScan(Mode.I, N, mask_block, value_block)


def _width0_full_exceptions():
    # reference 2^31 (5 varint bytes), width 0, count 128 (80 01), and 128
    # remainders of 5 bytes each
    rng = np.random.default_rng(12)
    head = encode_uvarint(1 << 31) + bytes([0, 0x80, 0x01]) \
        + bytes(range(BLOCK_SIZE))
    blocks = [head + b"".join(encode_uvarint(int(r)) for r in
                              rng.integers(1 << 28, 1 << 31, BLOCK_SIZE))
              for _ in range(N // BLOCK_SIZE)]
    return encode_uvarint(N) + b"".join(blocks)


def _width32_blocks():
    # reference 0, width 32, no exception: 512 packed bytes per block
    rng = np.random.default_rng(32)
    head = bytes([0, 32, 0])
    return encode_uvarint(N) + b"".join(
        head + rng.integers(0, 256, 512, dtype=np.uint8).tobytes()
        for _ in range(N // BLOCK_SIZE))


def _all_widths():
    # blocks at widths 0-32 in turn, each value of its block's full width
    lane = np.arange(BLOCK_SIZE, dtype=np.uint64)
    v = np.concatenate([
        (lane * 2654435761 % (1 << 32)) >> np.uint64(32 - k % 33)
        if k % 33 else np.zeros(BLOCK_SIZE, dtype=np.uint64)
        for k in range(N // BLOCK_SIZE)])
    return pfor_encode(v.astype(np.uint32))


WORST_CASES = {
    "width0_128_exceptions_5_byte": lambda: _i_record(_width0_full_exceptions()),
    "width32": lambda: _i_record(_width32_blocks()),
    "all_33_widths": lambda: _i_record(_all_widths()),
    "forged_count": lambda: forged_count_record(ROWS, COLS, 100),
}


def _in_container(enc):
    buf = io.BytesIO()
    with StreamWriter(buf, StreamHeader(ScanType.RANGE, ROWS, COLS, WIDTH,
                                        frame_count=1)) as w:
        w.write_frame(enc)
    return buf.getvalue()


def _via_codec(enc):
    def run():
        try:
            decode(enc, CodecState(), ScanType.RANGE, WIDTH, ROWS, COLS)
        except CorruptStreamError:
            pass
    return run


def _via_container(raw):
    def run():
        try:
            decode(next(StreamReader(io.BytesIO(raw))), CodecState(),
                   ScanType.RANGE, WIDTH, ROWS, COLS)
        except CorruptStreamError:
            pass
    return run


def _min_time(run, reps):
    best = float("inf")
    for _ in range(reps):
        t = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t)
    return best


@pytest.fixture(scope="module")
def real_frame_seconds():
    """Minimum decode time of a real P-frame of this geometry: frame 2 of a
    driving_like sequence, whose blocks all carry exceptions."""
    spec = QuantizationSpec(1000, WIDTH)
    scans = [quantize(f, spec) for f in
             generate("driving_like", 3, rows=ROWS, cols=COLS, seed=1)]
    enc_state, dec_state = CodecState(), CodecState()
    for scan in scans[:2]:
        decode(encode(scan, enc_state), dec_state, ScanType.RANGE, WIDTH,
               ROWS, COLS)
    enc = encode(scans[2], enc_state, Mode.P)

    def run():
        ref = CodecState(dec_state.samples, dec_state.mask)
        assert decode(enc, ref, ScanType.RANGE, WIDTH, ROWS,
                      COLS) == scans[2]
    run()
    return _min_time(run, 15)


@pytest.mark.parametrize("path", ["codec", "container"])
@pytest.mark.parametrize("case", sorted(WORST_CASES))
def test_worst_case_decode_bounded_by_geometry(case, path,
                                               real_frame_seconds):
    enc = WORST_CASES[case]()
    run = _via_codec(enc) if path == "codec" else \
        _via_container(_in_container(enc))
    run()               # warm-up: numpy's and zlib's one-time set-up
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_FACTOR * ROWS * COLS * WIDTH
    seconds = _min_time(run, 5)
    assert seconds < TIME_FACTOR * real_frame_seconds, (
        f"{seconds * 1e3:.2f} ms against a real frame's "
        f"{real_frame_seconds * 1e3:.2f} ms")
