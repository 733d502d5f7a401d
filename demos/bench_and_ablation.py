"""
Measure the codec: throughput, ablation, precision sweep, mode heuristic
========================================================================

Runs the benchmark harness on a synthetic driving-style sequence and
prints the four reports the harness knows how to produce. Each one
decodes what it encodes and checks it sample-exact before reporting.
"""

from jiffy import QuantizationSpec, quantize
from jiffy.bench import (run_ablation, run_bench, run_heuristic_eval,
                         run_sweep)
from jiffy.synthetic import generate

frames, rows, cols = 30, 64, 512
seq = generate("driving_like", frames, rows, cols, seed=21)
spec = QuantizationSpec(precision_um=1000, sample_width=2)
scans = [quantize(frame, spec) for frame in seq]      # float meters -> Scans

# throughput and ratio, averaged over repetitions
rep = run_bench(scans, reps=3)
print(f"bench: {frames} frames {rows}x{cols}, "
      f"ratio {rep.ratio:.2f}, {rep.i_scans} I / {rep.p_scans} P")
print(f"  encode {rep.encode_scans_per_s:8.0f} scans/s  "
      f"{rep.encode_points_per_s / 1e6:6.1f} Mpts/s")
print(f"  decode {rep.decode_scans_per_s:8.0f} scans/s  "
      f"{rep.decode_points_per_s / 1e6:6.1f} Mpts/s")

# the ablation ladder: switch stages on one by one. Delta without zigzag
# is the classic trap: negative deltas wrap to huge unsigned values and
# compression gets worse than no delta at all.
print("\nablation:")
for row in run_ablation(scans):
    print(f"  {row['variant']:<24} ratio {row['ratio']:5.2f}  "
          f"{row['bits_per_sample']:5.2f} bits/sample")

# ratio vs quantization step: every doubling of the step should save
# about one bit per stored sample
print("\nprecision sweep:")
for row in run_sweep(seq, [1000, 2000, 4000, 8000]):
    print(f"  {row['precision_um']:>5} um  ratio {row['ratio']:5.2f}  "
          f"{row['bits_per_sample']:5.2f} bits/sample")

# the per-scan I/P choice: trial-compressing a few scanlines against fully
# encoding every frame both ways
h = run_heuristic_eval(scans)
print(f"\nmode heuristic over {h['frames_evaluated']} frames: "
      f"accuracy {h['accuracy']:.1%}, "
      f"picked I when P was smaller {h['suboptimal_i_rate']:.1%}, "
      f"picked P when I was smaller {h['suboptimal_p_rate']:.1%}")
