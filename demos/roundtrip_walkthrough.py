"""
Walk one scan through the whole pipeline, stage by stage
========================================================

Generates a small synthetic range image, quantizes it, then shows what
each coding stage does to the data before the codec glues them together.
"""

import numpy as np

from jiffy import (QuantizationSpec, ScanType, bitmask, bytecomp,
                   dequantize, intcodec, quantize)
from jiffy.codec import CodecState, Mode, decode, encode
from jiffy.synthetic import generate

rows, cols = 32, 128
raw = generate("static_scene", 1, rows, cols, seed=11)[0]
print(f"raw frame: {rows}x{cols} float32 meters, "
      f"{np.isnan(raw).sum() + (raw == 0).sum()} invalid samples")

# 1. quantize to millimeters: float meters -> uint16 counts, 0 = no return
spec = QuantizationSpec(precision_um=1000, sample_width=2)
scan = quantize(raw, spec, ScanType.RANGE)
print(f"quantized: uint16, min {scan.samples[scan.samples > 0].min()}, "
      f"max {scan.samples.max()}")

# 2. the zero mask marks dropouts so the value stream holds only returns
mask = bitmask.extract_mask(scan.samples)
values = bitmask.compact(scan.samples, mask)
packed = bitmask.pack_mask(mask)
mask_block = bytecomp.compress_block(packed)
print(f"mask: {mask.sum()} zeros of {mask.size} -> "
      f"{len(packed)} packed bytes -> {len(mask_block)} after deflate")

# 3. delta + zigzag: neighboring returns are close, so deltas are small
#    signed numbers; zigzag folds them into small unsigned ones
deltas = intcodec.delta_wrap(values)
codes = intcodec.zigzag_wrap(deltas)
print(f"values:  mean magnitude {values.mean():8.1f}")
print(f"deltas:  mean zigzag    {codes.mean():8.1f}")

# 4. PFOR packs each 128-value block at its own bit width
block = intcodec.pfor_encode(codes)
print(f"pfor: {values.size} values x 2 bytes -> {len(block)} bytes")
widths = [b.bit_width for b in intcodec.iter_blocks(block)]
print(f"      block bit widths: min {min(widths)}, max {max(widths)}, "
      f"mean {sum(widths) / len(widths):.1f}")

# 5. the codec does all of the above in one call (forced I: a lone scan
#    has no previous scan to predict from anyway)
enc = encode(scan, CodecState(), Mode.I)
total_raw = scan.samples.nbytes
print(f"encoded scan: {total_raw} -> {enc.total_bytes} bytes "
      f"(ratio {total_raw / enc.total_bytes:.2f})")

# 6. decode and compare: sample-exact or bust
out = decode(enc, CodecState(), scan.scan_type, scan.sample_width,
             rows, cols)
assert np.array_equal(out.samples, scan.samples)
print("decode: sample-exact")

# 7. back to meters; the only loss is the quantization step itself
restored = dequantize(out, spec)
live = scan.samples > 0
err = np.abs(restored[live] - raw[live])
print(f"dequantized: max error {err.max() * 1000:.3f} mm "
      f"(bound {spec.precision_m * 500:.1f} mm)")
