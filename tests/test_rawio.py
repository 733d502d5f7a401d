import numpy as np
import pytest

from jiffy.rawio import (ELEMENT_TYPES, RawSequenceSpec, read_all,
                         read_frames, write_frames)


def spec_for(tmp_path, name, etype, rows=4, cols=8):
    return RawSequenceSpec(tmp_path / name, etype, rows, cols)


@pytest.mark.parametrize("etype", sorted(ELEMENT_TYPES))
def test_roundtrip_all_element_types(tmp_path, etype):
    spec = spec_for(tmp_path, f"seq.{etype}.bin", etype)
    rng = np.random.default_rng(1)
    if etype == "float32":
        frames = rng.uniform(0, 50, size=(3, 4, 8)).astype(np.float32)
    else:
        info = np.iinfo(spec.dtype)
        frames = rng.integers(0, int(info.max) + 1, size=(3, 4, 8),
                              endpoint=False).astype(spec.dtype)
    write_frames(spec.path, frames, etype)
    assert spec.count_frames() == 3
    back = read_all(spec)
    assert back.dtype == spec.dtype
    assert np.array_equal(back, frames)


def test_read_frames_is_lazy_and_ordered(tmp_path):
    spec = spec_for(tmp_path, "seq.bin", "uint16")
    frames = np.arange(5 * 4 * 8, dtype=np.uint16).reshape(5, 4, 8)
    write_frames(spec.path, frames, "uint16")
    for i, frame in enumerate(read_frames(spec)):
        assert frame.shape == (4, 8)
        assert np.array_equal(frame, frames[i])
    assert i == 4


def test_size_not_divisible_rejected(tmp_path):
    spec = spec_for(tmp_path, "ragged.bin", "uint16")
    (tmp_path / "ragged.bin").write_bytes(b"\x00" * (spec.frame_bytes + 3))
    with pytest.raises(ValueError, match="whole number"):
        spec.count_frames()


def test_empty_file(tmp_path):
    spec = spec_for(tmp_path, "empty.bin", "float32")
    (tmp_path / "empty.bin").write_bytes(b"")
    assert spec.count_frames() == 0
    out = read_all(spec)
    assert out.shape == (0, 4, 8) and out.dtype == np.float32


def test_unknown_element_type(tmp_path):
    with pytest.raises(ValueError):
        spec_for(tmp_path, "x.bin", "float64")


@pytest.mark.parametrize("rows,cols", [(0, 8), (4, 0)])
def test_nonpositive_geometry_rejected(tmp_path, rows, cols):
    with pytest.raises(ValueError, match="positive"):
        spec_for(tmp_path, "x.bin", "uint16", rows=rows, cols=cols)


def test_little_endian_on_disk(tmp_path):
    spec = spec_for(tmp_path, "le.bin", "uint16", rows=1, cols=2)
    write_frames(spec.path, np.array([[[0x0102, 0x0304]]], dtype=np.uint16),
                 "uint16")
    assert (tmp_path / "le.bin").read_bytes() == b"\x02\x01\x04\x03"
