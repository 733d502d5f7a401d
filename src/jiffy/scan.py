"""Canonical scan representation, Cartesian-to-range-image projection, and
quantization between float meters and unsigned integer samples.

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


@dataclass(frozen=True)
class BeamLayout:
    """Per-beam angles mapping spherical directions onto image bins.

    altitude_angles: one per row, radians, strictly monotone.
    azimuth_offsets: per-row azimuth of column 0, radians.
    """

    altitude_angles: np.ndarray
    azimuth_offsets: np.ndarray
    cols: int

    def __post_init__(self):
        alt = np.asarray(self.altitude_angles, dtype=np.float64)
        azo = np.asarray(self.azimuth_offsets, dtype=np.float64)
        if alt.ndim != 1 or alt.shape != azo.shape:
            raise ValueError("altitude_angles and azimuth_offsets must be "
                             "1D and equal length")
        d = np.diff(alt)
        if alt.size > 1 and not (np.all(d > 0) or np.all(d < 0)):
            raise ValueError("altitude_angles must be strictly monotone")
        if self.cols < 1:
            raise ValueError("cols must be positive")
        object.__setattr__(self, "altitude_angles", alt)
        object.__setattr__(self, "azimuth_offsets", azo)

    @property
    def rows(self) -> int:
        return self.altitude_angles.size


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
    np.putmask(q, q == np.inf, 0.0)
    np.minimum(q, float(spec.max_sample), out=q)
    return Scan(scan_type, spec.sample_width,
                q.astype(sample_dtype(spec.sample_width)))


def dequantize(scan: Scan, spec: QuantizationSpec) -> np.ndarray:
    """Restore float measurements from a quantized Scan.

    Range samples scale back to meters, with the 0 sentinel becoming NaN.
    Attribute samples return as floats unchanged (0 is a legitimate reading).
    """
    if scan.sample_width != spec.sample_width:
        raise ValueError("scan and spec sample widths differ")
    if not scan.scan_type.is_range:
        return scan.samples.astype(np.float64)
    out = np.multiply(scan.samples, spec.precision_m, dtype=np.float64)
    # a zero sample gives 0.0 here, and 0.0 / False is NaN: this places the
    # sentinel without indexing the scattered zeros
    with np.errstate(invalid="ignore"):
        np.divide(out, scan.samples != 0, out=out)
    return out


def canonicalize(points: np.ndarray, layout: BeamLayout) -> np.ndarray:
    """Project Cartesian points onto a range image.

    points: (n, 3) array of x, y, z in meters. Each point becomes range
    sqrt(x^2+y^2+z^2) at the nearest (row, col) bin by altitude and azimuth;
    bin collisions keep the nearer return and zero-length points are skipped.
    Returns a (rows, cols) float array with NaN at unfilled bins.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        return np.full((layout.rows, layout.cols), np.nan)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must have shape (n, 3)")

    rng = np.sqrt((pts * pts).sum(axis=1))
    keep = rng > 0.0
    pts, rng = pts[keep], rng[keep]
    if rng.size == 0:
        return np.full((layout.rows, layout.cols), np.nan)
    altitude = np.arcsin(np.clip(pts[:, 2] / rng, -1.0, 1.0))
    azimuth = np.arctan2(pts[:, 1], pts[:, 0])

    rows = _nearest_row(altitude, layout.altitude_angles)

    # column bins are uniform in azimuth, offset per row; ties take the
    # lower index, and indexing wraps
    step = 2.0 * np.pi / layout.cols
    frac = (azimuth - layout.azimuth_offsets[rows]) / step
    lo = np.floor(frac)
    cols = np.where(frac - lo <= 0.5, lo, lo + 1.0).astype(np.int64)
    cols %= layout.cols

    image = np.full((layout.rows, layout.cols), np.inf)
    np.minimum.at(image, (rows, cols), rng)
    image[np.isinf(image)] = np.nan
    return image


def _nearest_row(altitude: np.ndarray, angles: np.ndarray) -> np.ndarray:
    if angles.size == 1:
        return np.zeros(altitude.shape, dtype=np.int64)
    ascending = angles[1] > angles[0]
    table = angles if ascending else angles[::-1]
    i = np.clip(np.searchsorted(table, altitude), 1, table.size - 1)
    lower, upper = table[i - 1], table[i]
    # ties take the lower index of the original (possibly descending) layout
    if ascending:
        pick_low = (altitude - lower) <= (upper - altitude)
    else:
        pick_low = (altitude - lower) < (upper - altitude)
    rows = np.where(pick_low, i - 1, i)
    return rows if ascending else angles.size - 1 - rows
