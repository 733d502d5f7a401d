"""Scan representation and quantization between float meters and unsigned
integer samples.

A scan is one 2D frame: rows indexed by beam (altitude), columns by azimuth.
Range scans use sample value 0 as the out-of-range/invalid sentinel; attribute
scans (signal, reflectivity, near-IR) carry plain unsigned readings.
"""

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

_DTYPES = {1: np.dtype("<u1"), 2: np.dtype("<u2"), 4: np.dtype("<u4")}


class ScanType(IntEnum):
    """Scan payload kind. Values are frozen: they appear in stream headers."""

    RANGE = 0
    RANGE2 = 1
    SIGNAL = 2
    SIGNAL2 = 3
    REFLECTIVITY = 4
    REFLECTIVITY2 = 5
    NEAR_IR = 6
    GENERIC = 7

    @property
    def is_range(self) -> bool:
        return self in (ScanType.RANGE, ScanType.RANGE2)


def sample_dtype(sample_width: int) -> np.dtype:
    try:
        return _DTYPES[sample_width]
    except KeyError:
        raise ValueError(f"sample_width must be 1, 2 or 4, got {sample_width}")


@dataclass(frozen=True)
class QuantizationSpec:
    """Meters-per-step precision and the integer width samples are stored at.

    The default 1000 um (1 mm) matches typical sensor resolution. Attribute
    scan types ignore the precision and only enforce the width.
    """

    precision_um: int = 1000
    sample_width: int = 2

    def __post_init__(self):
        if not isinstance(self.precision_um, int) or self.precision_um < 1:
            raise ValueError("precision_um must be a positive integer")
        sample_dtype(self.sample_width)

    @property
    def max_sample(self) -> int:
        return (1 << (8 * self.sample_width)) - 1

    @property
    def precision_m(self) -> float:
        return self.precision_um * 1e-6


@dataclass
class Scan:
    """One 2D frame of unsigned integer samples.

    samples is row-major with dtype matching sample_width; every value fits
    the width by construction. For range types, 0 means invalid.
    """

    scan_type: ScanType
    sample_width: int
    samples: np.ndarray

    def __post_init__(self):
        dt = sample_dtype(self.sample_width)
        a = np.asarray(self.samples)
        if a.ndim != 2 or a.size == 0:
            raise ValueError("samples must be a nonempty 2D array")
        if a.dtype != dt:
            if a.dtype.kind not in "ui":
                raise ValueError(f"samples must be unsigned integers, got {a.dtype}")
            if a.size and (int(a.min()) < 0 or int(a.max()) > int(np.iinfo(dt).max)):
                raise ValueError("sample values exceed sample_width range")
            a = a.astype(dt)
        self.samples = np.ascontiguousarray(a)
        self.scan_type = ScanType(self.scan_type)

    @property
    def rows(self) -> int:
        return self.samples.shape[0]

    @property
    def cols(self) -> int:
        return self.samples.shape[1]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Scan)
                and self.scan_type == other.scan_type
                and self.sample_width == other.sample_width
                and self.samples.shape == other.samples.shape
                and bool(np.array_equal(self.samples, other.samples)))


def quantize(raw: np.ndarray, spec: QuantizationSpec,
             scan_type: ScanType = ScanType.RANGE) -> Scan:
    """Convert float measurements to an integer Scan.

    Range types scale meters by 1e6/precision_um and round ties-to-even, so
    the roundtrip error stays within half a step either way. NaN, infinities
    and negatives collapse to the 0 sentinel; values past the width ceiling
    clamp to the maximum instead of wrapping. A finite value too large to
    scale in float64 (say 1e308 m at 1 mm) becomes +inf and so the 0
    sentinel, without a warning. Attribute types skip the precision scaling
    (readings are already integers) but get the same rounding, clamping and
    nonfinite handling.
    """
    scan_type = ScanType(scan_type)
    a = np.asarray(raw)
    if a.dtype.kind not in "biuf":     # objects, strings: convert as floats
        a = np.asarray(raw, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("raw must be a nonempty 2D array")
    scale = 1e6 / spec.precision_um if scan_type.is_range else 1.0
    # one float64 pass, then in place: round, send NaN and -inf/negatives to
    # 0, send +inf to 0 as well, clamp the rest to the width
    with np.errstate(over="ignore"):
        q = np.multiply(a, scale, dtype=np.float64)
    np.rint(q, out=q)
    np.fmax(q, 0.0, out=q)
    inf = q == np.inf
    if inf.any():
        np.putmask(q, inf, 0.0)
    np.minimum(q, float(spec.max_sample), out=q)
    return Scan(scan_type, spec.sample_width,
                q.astype(sample_dtype(spec.sample_width)))


def dequantize(scan: Scan, spec: QuantizationSpec,
               invalid: float = np.nan) -> np.ndarray:
    """Restore float measurements from a quantized Scan.

    Range samples scale back to meters, with the 0 sentinel becoming
    ``invalid`` (NaN by default). Attribute samples return as floats
    unchanged (0 is a legitimate reading).
    """
    if scan.sample_width != spec.sample_width:
        raise ValueError("scan and spec sample widths differ")
    if not scan.scan_type.is_range:
        return scan.samples.astype(np.float64)
    out = np.multiply(scan.samples, spec.precision_m, dtype=np.float64)
    # a zero sample gives +0.0 here
    if np.isnan(invalid):
        # 0.0 / False is NaN: this places the sentinel without indexing the
        # scattered zeros
        with np.errstate(invalid="ignore"):
            np.divide(out, scan.samples != 0, out=out)
    elif invalid != 0.0 or np.signbit(invalid):
        np.putmask(out, scan.samples == 0, invalid)
    return out
