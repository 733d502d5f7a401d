import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jiffy.scan import (QuantizationSpec, Scan, ScanType, dequantize, quantize,
                        sample_dtype)

from .refimpl import ref_dequantize, ref_quantize

MM = QuantizationSpec(precision_um=1000, sample_width=2)


# ---------------------------------------------------------------------------
# quantize / dequantize


def test_quantize_known_values():
    raw = np.array([[1.2344, np.nan, 3.0005, np.inf, -0.5, 70.0]])
    scan = quantize(raw, MM)
    # 3.0005 m at 1 mm sits exactly on a tie; ties go to even (3000)
    assert scan.samples.tolist() == [[1234, 0, 3000, 0, 0, 65535]]
    # an object array converts as floats
    assert quantize(raw.astype(object), MM) == scan


def test_dequantize_known_values():
    scan = Scan(ScanType.RANGE, 2, np.array([[1234, 0]], dtype=np.uint16))
    out = dequantize(scan, MM)
    assert out[0, 0] == pytest.approx(1.234)
    assert np.isnan(out[0, 1])


@given(st.lists(st.floats(min_value=0.002, max_value=60.0), min_size=1,
                max_size=64),
       st.sampled_from([500, 1000, 2000, 5000]))
def test_roundtrip_error_bounded(values, precision_um):
    spec = QuantizationSpec(precision_um=precision_um, sample_width=4)
    raw = np.array([values])
    out = dequantize(quantize(raw, spec), spec)
    half_step = precision_um * 1e-6 / 2
    # inputs below half a step collapse into the sentinel; everything else
    # must come back within half a quantization step
    live = raw >= half_step
    assert np.all(np.abs(out[live] - raw[live]) <= half_step * (1 + 1e-12))


def test_quantize_monotone():
    rng = np.random.default_rng(5)
    r = np.sort(rng.uniform(0, 65.0, size=500))
    q = quantize(r[None, :], MM).samples[0]
    assert np.all(np.diff(q.astype(np.int64)) >= 0)


def test_requantization_idempotent():
    rng = np.random.default_rng(6)
    q = rng.integers(0, 65536, size=(4, 16), dtype=np.uint16)
    scan = Scan(ScanType.RANGE, 2, q)
    first = dequantize(scan, MM)
    again = dequantize(quantize(np.nan_to_num(first, nan=0.0), MM), MM)
    assert np.array_equal(np.isnan(first), np.isnan(again))
    assert np.allclose(first[~np.isnan(first)], again[~np.isnan(again)])


def test_sentinel_preserved_both_ways():
    raw = np.array([[np.nan, -1.0, 0.0, 0.0002]])
    scan = quantize(raw, MM)
    assert not scan.samples.any()
    assert np.isnan(dequantize(scan, MM)).all()


@pytest.mark.parametrize("scan_type", [ScanType.RANGE, ScanType.SIGNAL])
@pytest.mark.parametrize("width", [1, 2, 4])
@pytest.mark.parametrize("precision_um", [1, 1000, 123457])
def test_invalid_zero_output_matches_fmax_of_nan_sentinels(scan_type, width,
                                                           precision_um):
    # `jiffy decompress` writes float32 with the invalid value 0; 0 times the
    # precision is +0.0, which is also what fmax made of each NaN sentinel
    spec = QuantizationSpec(precision_um, width)
    samples = np.array([[0, 1, spec.max_sample], [spec.max_sample, 0, 1]],
                       dtype=sample_dtype(width))
    scan = Scan(scan_type, width, samples)
    old = np.fmax(dequantize(scan, spec), 0.0, dtype=np.float32)
    new = dequantize(scan, spec, invalid=0.0).astype(np.float32)
    assert new.tobytes() == old.tobytes()
    assert not np.signbit(new).any()


def test_dequantize_invalid_value():
    scan = Scan(ScanType.RANGE, 2, np.array([[1234, 0]], dtype=np.uint16))
    for invalid in (0.0, -0.0, -1.0, np.inf):
        out = dequantize(scan, MM, invalid=invalid)
        assert out[0, 0] == pytest.approx(1.234)
        assert out[0, 1] == invalid
        assert np.signbit(out[0, 1]) == np.signbit(invalid)
    assert np.isnan(dequantize(scan, MM, invalid=np.nan)[0, 1])
    # attribute samples keep their 0 readings whatever the invalid value
    attr = Scan(ScanType.SIGNAL, 2, np.array([[0, 7]], dtype=np.uint16))
    assert dequantize(attr, MM, invalid=-1.0).tolist() == [[0.0, 7.0]]


def test_attribute_passthrough():
    # attribute scans skip precision scaling; integers survive as-is
    raw = np.array([[0.0, 17.0, 255.0]])
    spec = QuantizationSpec(precision_um=123456, sample_width=2)
    scan = quantize(raw, spec, ScanType.SIGNAL)
    assert scan.samples.tolist() == [[0, 17, 255]]
    out = dequantize(scan, spec)
    assert out.tolist() == [[0.0, 17.0, 255.0]]    # 0 is a real reading here


def test_attribute_clamps_to_width():
    raw = np.array([[300.0, -3.0, np.nan]])
    spec = QuantizationSpec(sample_width=1)
    scan = quantize(raw, spec, ScanType.REFLECTIVITY)
    assert scan.samples.tolist() == [[255, 0, 0]]


_FLOAT_DTYPES = ("<f2", "<f4", "<f8")
_INT_DTYPES = ("<i1", "<i2", "<i4", "<i8", "<u1", "<u2", "<u4", "<u8")
_SPECIALS = (np.nan, np.inf, -np.inf, -0.0, 0.0, -1.0, -1e308, 1e308,
             5e-324, 0.5, 1.5, 2.5)


@st.composite
def _quantize_cases(draw):
    """A raw frame, its spec and scan type, with the values that matter:
    nonfinite, negative, -0.0, half-step ties, values past the width and
    finite values that overflow float64 once scaled."""
    is_range = draw(st.booleans())
    scan_type = draw(st.sampled_from([t for t in ScanType
                                      if t.is_range == is_range]))
    spec = QuantizationSpec(draw(st.sampled_from([1, 7, 500, 1000, 123457])),
                            draw(st.sampled_from([1, 2, 4])))
    step = spec.precision_um * 1e-6 if scan_type.is_range else 1.0
    dtypes = _FLOAT_DTYPES if draw(st.booleans()) else _INT_DTYPES
    dtype = np.dtype(draw(st.sampled_from(dtypes)))
    n = draw(st.integers(1, 24))
    if dtype.kind == "f":
        k = st.integers(-2, spec.max_sample + 2)
        huge = st.floats(1e303, np.finfo(np.float64).max)
        value = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                          st.sampled_from(_SPECIALS),
                          huge, huge.map(lambda v: -v),
                          k.map(lambda k: (k + 0.5) * step),
                          k.map(lambda k: k * step))
        values = draw(st.lists(value, min_size=n, max_size=n))
        with np.errstate(over="ignore"):
            flat = np.array(values, dtype=np.float64).astype(dtype)
    else:
        info = np.iinfo(dtype)
        value = st.one_of(st.integers(int(info.min), int(info.max)),
                          st.integers(0, spec.max_sample + 2),
                          st.integers(-2, 2))
        values = draw(st.lists(value, min_size=n, max_size=n))
        flat = np.array([min(max(v, int(info.min)), int(info.max))
                         for v in values], dtype=dtype)
    rows = draw(st.sampled_from([d for d in (1, 2, 3, 4) if n % d == 0]))
    return flat.reshape(rows, n // rows), spec, scan_type


@settings(max_examples=300, deadline=None)
@given(_quantize_cases())
def test_quantize_matches_oracle(case):
    raw, spec, scan_type = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = quantize(raw, spec, scan_type)
    with np.errstate(over="ignore"):
        want = ref_quantize(raw, spec.precision_um, spec.sample_width,
                            scan_type.is_range)
    assert got.samples.dtype == want.dtype
    assert np.array_equal(got.samples, want)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(ScanType)), st.sampled_from([1, 2, 4]),
       st.sampled_from([1, 7, 500, 1000, 123457]),
       st.lists(st.one_of(st.just(0), st.integers(0, 1 << 32)), min_size=1,
                max_size=24),
       st.sampled_from([1, 2, 3, 4]))
def test_dequantize_matches_oracle(scan_type, width, precision_um, values,
                                   rows):
    spec = QuantizationSpec(precision_um, width)
    top = spec.max_sample
    flat = np.array([min(v, top) for v in values], dtype=sample_dtype(width))
    rows = rows if flat.size % rows == 0 else 1
    samples = flat.reshape(rows, -1)
    got = dequantize(Scan(scan_type, width, samples), spec)
    want = ref_dequantize(samples, precision_um, scan_type.is_range)
    assert got.dtype == np.float64
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(got, want, equal_nan=True)


def test_quantize_overflowing_scale_is_silent_sentinel():
    raw = np.array([[1e308, -1e308, np.finfo(np.float64).max, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scan = quantize(raw, MM)
    assert scan.samples.tolist() == [[0, 0, 0, 2000]]


def test_quantize_rejects_bad_input():
    with pytest.raises(ValueError):
        quantize(np.zeros(4), MM)                   # 1D
    with pytest.raises(ValueError):
        QuantizationSpec(precision_um=0)
    with pytest.raises(ValueError):
        QuantizationSpec(sample_width=3)
    scan = quantize(np.ones((1, 2)), MM)
    with pytest.raises(ValueError, match="widths differ"):
        dequantize(scan, QuantizationSpec(precision_um=1000, sample_width=4))


# ---------------------------------------------------------------------------
# Scan


def test_scan_validation():
    with pytest.raises(ValueError):
        Scan(ScanType.RANGE, 2, np.zeros((0, 4), dtype=np.uint16))
    with pytest.raises(ValueError):
        Scan(ScanType.RANGE, 2, np.array([[1.5]]))
    with pytest.raises(ValueError):
        Scan(ScanType.RANGE, 1, np.array([[300]], dtype=np.int64))
    s = Scan(ScanType.RANGE, 1, np.array([[3, 250]], dtype=np.int64))
    assert s.samples.dtype == np.uint8
    assert (s.rows, s.cols) == (1, 2)


def test_scan_type_properties():
    assert ScanType.RANGE.is_range and ScanType.RANGE2.is_range
    assert not ScanType.SIGNAL.is_range
    assert sample_dtype(4) == np.dtype("<u4")
