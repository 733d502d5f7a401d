import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jiffy import bitmask
from jiffy.bitmask import (compact, expand, extract_mask, pack_mask,
                           unpack_mask, xor_mask)
from jiffy.codec import CodecState, Mode, encode
from jiffy.errors import CorruptStreamError
from jiffy.scan import QuantizationSpec, quantize
from jiffy.synthetic import KINDS, generate

shapes = st.tuples(st.integers(1, 20), st.integers(1, 40))
frame_shapes = st.tuples(st.integers(1, 128), st.integers(1, 1024))


def rand_mask(shape, seed=0):
    return np.random.default_rng(seed).random(shape) < 0.4


def run_mask(shape, mean_run, seed=0):
    """Row-major runs that flip with probability 1/mean_run per sample, so
    about 1/mean_run transitions per sample."""
    rng = np.random.default_rng(seed)
    flips = rng.random(shape[0] * shape[1]) < 1 / mean_run
    return (np.cumsum(flips) % 2 == 1).reshape(shape)


@st.composite
def masks(draw):
    """Scattered (i.i.d.) or clustered (run-length) masks, small or up to a
    full 128x1024 frame."""
    shape = draw(st.one_of(shapes, frame_shapes))
    seed = draw(st.integers(0, 10_000))
    if draw(st.booleans()):
        p = draw(st.sampled_from([0.0, 0.05, 0.3, 0.75, 1.0]))
        return np.random.default_rng(seed).random(shape) < p
    return run_mask(shape, draw(st.integers(1, 400)), seed)


def boolean_expand(values, mask, dtype):
    out = np.zeros(mask.shape, dtype=dtype)
    out[~mask] = values
    return out


def check_compact_expand(mask, seed=0):
    rng = np.random.default_rng(seed)
    s = rng.integers(1, 1 << 16, size=mask.shape, dtype=np.uint16)
    values = compact(s, mask)
    assert values.dtype == np.uint32
    assert np.array_equal(values, s[~mask])
    out = expand(values, mask, np.uint16)
    assert out.dtype == np.uint16
    assert np.array_equal(out, boolean_expand(values, mask, np.uint16))
    assert np.array_equal(out, np.where(mask, 0, s))


def test_extract_mask_counts():
    rng = np.random.default_rng(1)
    s = rng.integers(0, 3, size=(13, 17), dtype=np.uint16)
    m = extract_mask(s)
    assert int(m.sum()) == int((s == 0).sum())
    assert extract_mask(np.zeros((2, 2), np.uint8)).all()
    assert not extract_mask(np.ones((2, 2), np.uint8)).any()


def test_compact_known():
    s = np.array([[0, 5, 0, 7]], dtype=np.uint16)
    assert compact(s, extract_mask(s)).tolist() == [5, 7]
    z = np.zeros((3, 3), dtype=np.uint16)
    assert compact(z, extract_mask(z)).size == 0


def test_compact_shape_mismatch():
    with pytest.raises(ValueError):
        compact(np.zeros((2, 2), np.uint8), np.zeros((2, 3), bool))


@given(masks(), st.integers(0, 1000))
@settings(deadline=None)
def test_compact_expand_roundtrip(mask, seed):
    check_compact_expand(mask, seed)


EDGE_MASKS = {
    "one row": rand_mask((1, 1024)),
    "one column": rand_mask((128, 1)),
    "one sample clear": np.ones((1, 1), bool),
    "one sample masked": np.zeros((1, 1), bool),
    "all masked": np.ones((128, 1024), bool),
    "none masked": np.zeros((128, 1024), bool),
    "scattered": rand_mask((128, 1024)),
    "clustered": run_mask((128, 1024), 100),
}


@pytest.mark.parametrize("threshold", [-1.0, np.inf], ids=["flat", "boolean"])
@pytest.mark.parametrize("name", sorted(EDGE_MASKS))
def test_both_gathers_agree_with_boolean_indexing(monkeypatch, name,
                                                  threshold):
    # -1 sends every mask to flat indices, inf every mask to boolean indexing
    monkeypatch.setattr(bitmask, "_FRAGMENTED", threshold)
    assert bitmask._fragmented(EDGE_MASKS[name]) == (threshold < 0)
    check_compact_expand(EDGE_MASKS[name])


def _gapped_mask():
    """Four slices: scattered, fully masked, fully clear, scattered."""
    mask = rand_mask((1, 4 * bitmask._SLICE))
    mask[0, bitmask._SLICE:2 * bitmask._SLICE] = True
    mask[0, 2 * bitmask._SLICE:3 * bitmask._SLICE] = False
    return mask


SLICED_MASKS = {
    "one row, short last slice": rand_mask((1, 3 * bitmask._SLICE + 5)),
    "130 rows": rand_mask((130, 1024)),
    "masked and clear slices": _gapped_mask(),
}


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
@pytest.mark.parametrize("name", sorted(SLICED_MASKS))
def test_expand_across_sample_slices(monkeypatch, name, dtype):
    # every mask spans several of expand's slices, values reach the maximum
    monkeypatch.setattr(bitmask, "_FRAGMENTED", -1.0)   # flat indices
    mask = SLICED_MASKS[name]
    assert bitmask._fragmented(mask) and mask.size > 3 * bitmask._SLICE
    top = np.iinfo(dtype).max
    n = int(np.count_nonzero(~mask))
    values = np.random.default_rng(3).integers(1, top, n, dtype=np.uint32,
                                               endpoint=True)
    values[::5] = top
    out = expand(values, mask, dtype)
    assert out.dtype == dtype
    assert np.array_equal(out, boolean_expand(values, mask, dtype))
    assert np.array_equal(out[~mask], values)


@pytest.mark.parametrize("mean_run, fragmented",
                         [(1, True), (4, True), (8, True), (32, False),
                          (64, False), (400, False)])
def test_fragmented_splits_at_one_transition_per_16_samples(mean_run,
                                                            fragmented):
    for seed in range(4):
        mask = run_mask((128, 1024), mean_run, seed)
        assert bitmask._fragmented(mask) == fragmented


@pytest.mark.parametrize("seed", [1, 7])
def test_synthetic_kinds_fall_on_both_sides_of_the_choice(seed):
    # the benchmark's random masks take flat indices, the clustered kinds
    # keep boolean indexing, so each side has a workload that shows it.
    # No P-scan the mode trial picks lands on a fragmented mask, so a
    # P-scan decode gains nothing from selecting its clear samples once
    # for both compact and expand; a kind that breaks this reopens that.
    spec = QuantizationSpec(1000, 2)
    sides = {kind: set() for kind in KINDS}
    p_sides = {kind: [] for kind in KINDS}
    for kind in KINDS:
        state = CodecState()
        for f in generate(kind, 16, 128, 1024, seed=seed):
            scan = quantize(f, spec)
            fragmented = bitmask._fragmented(extract_mask(scan.samples))
            sides[kind].add(fragmented)
            if encode(scan, state).mode == Mode.P:
                p_sides[kind].append(fragmented)
    assert sides == {"random": {True}, "static_scene": {False},
                     "driving_like": {False}, "sparse_vertical": {False}}
    assert not any(any(p) for p in p_sides.values())
    assert all(p_sides[kind] for kind in KINDS if kind != "random")


def test_expand_length_mismatch():
    m = np.array([[True, False, False]])
    with pytest.raises(CorruptStreamError):
        expand(np.array([1], dtype=np.uint32), m, np.uint16)


def test_xor_known():
    m = rand_mask((5, 9))
    assert not xor_mask(m, m).any()
    z = np.zeros_like(m)
    assert np.array_equal(xor_mask(m, z), m)
    with pytest.raises(ValueError):
        xor_mask(m, rand_mask((5, 8)))


@given(shapes, st.integers(0, 1000))
def test_xor_involution(shape, seed):
    a = rand_mask(shape, seed)
    b = rand_mask(shape, seed + 1)
    assert np.array_equal(xor_mask(xor_mask(a, b), b), a)


def test_pack_known():
    m = np.array([[1, 0, 0, 0, 0, 0, 0, 0]], dtype=bool)
    assert pack_mask(m) == b"\x01"                  # LSB-first
    m9 = np.ones((1, 9), dtype=bool)
    assert pack_mask(m9) == b"\xff\x01"             # padding stays zero


@given(shapes, st.integers(0, 1000))
def test_pack_unpack_roundtrip(shape, seed):
    m = rand_mask(shape, seed)
    data = pack_mask(m)
    assert len(data) == (m.size + 7) // 8
    assert np.array_equal(unpack_mask(data, shape), m)


def test_unpack_rejects_bad_input():
    with pytest.raises(CorruptStreamError):
        unpack_mask(b"\x00\x00", (1, 8))            # wrong length
    with pytest.raises(CorruptStreamError):
        unpack_mask(b"\xff\x02", (1, 9))            # nonzero padding bit
