"""Peak traced memory of one full-size frame's encode and decode.

The codec's temporaries are sized by the frame: rows x cols samples. Each
case codes a short sequence once to warm up (numpy's and zlib's one-time
set-up, the cached pack and unpack layouts), then again with fresh states,
and the largest ``tracemalloc`` peak of any one frame's ``encode`` and of
any one frame's ``decode`` must stay under a constant number of bytes per
sample. The constants sit about 15% above the peaks measured with numpy
2.4 on Python 3.11, so a change that brings back a frame-sized temporary
(a uint64 copy of the offsets is 8 bytes per sample, an int64 index 8 and
a uint32 word 4) fails here.
"""

import tracemalloc

import numpy as np
import pytest

from jiffy.codec import CodecState, Mode, decode, encode
from jiffy.scan import QuantizationSpec, ScanType, quantize
from jiffy.synthetic import generate

ROWS, COLS = 128, 1024
FRAMES = 4

# kind, sample width, precision (um), forced mode, and the bound in bytes
# per sample on encode and on decode; measured peaks in the comments
CASES = {
    # 14.1 / 10.2: P-frames with ~14k exceptions each
    "driving_like": ("driving_like", 2, 1000, None, 16.2, 11.8),
    # 12.8 / 11.7: I-frames of 17-bit blocks, one packing width
    "random": ("random", 2, 1000, None, 14.8, 13.5),
    # 15.7 / 15.3: P-frames of 26-28 bit blocks, read in 8-byte words
    "random_p_4byte_1um": ("random", 4, 1, Mode.P, 18.0, 17.6),
}


def _peak(run):
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    out = run()
    return out, tracemalloc.get_traced_memory()[1] - base


def _peaks(scans, width, mode):
    """The largest encode and decode peak over the sequence, in bytes."""
    enc_state, dec_state = CodecState(), CodecState()
    enc_peak = dec_peak = 0
    for scan in scans:
        enc, p = _peak(lambda: encode(scan, enc_state, mode))
        enc_peak = max(enc_peak, p)
        out, p = _peak(lambda: decode(enc, dec_state, ScanType.RANGE, width,
                                      ROWS, COLS))
        dec_peak = max(dec_peak, p)
        assert np.array_equal(out.samples, scan.samples)
    return enc_peak, dec_peak


@pytest.mark.parametrize("case", sorted(CASES))
def test_frame_working_set_bounded(case):
    kind, width, precision_um, mode, enc_bound, dec_bound = CASES[case]
    spec = QuantizationSpec(precision_um, width)
    scans = [quantize(f, spec) for f in
             generate(kind, FRAMES, ROWS, COLS, seed=1)]
    _peaks(scans, width, mode)                      # warm-up
    tracemalloc.start()
    try:
        enc_peak, dec_peak = _peaks(scans, width, mode)
    finally:
        tracemalloc.stop()
    samples = ROWS * COLS
    assert enc_peak < enc_bound * samples, (
        f"encode peak {enc_peak / samples:.2f} bytes per sample")
    assert dec_peak < dec_bound * samples, (
        f"decode peak {dec_peak / samples:.2f} bytes per sample")
