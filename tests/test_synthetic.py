import numpy as np
import pytest

from jiffy.synthetic import KINDS, RANGE_HI, RANGE_LO, generate


def test_shape_dtype_and_units():
    seq = generate("static_scene", 3, rows=32, cols=64, seed=1)
    assert seq.shape == (3, 32, 64) and seq.dtype == np.float32
    live = seq[seq > 0]
    assert live.size > 0
    # noise can nudge returns slightly past the nominal span, never wildly
    assert live.min() > RANGE_LO - 1.0 and live.max() < RANGE_HI + 1.0


def test_deterministic_per_seed():
    a = generate("driving_like", 2, 16, 32, seed=7)
    b = generate("driving_like", 2, 16, 32, seed=7)
    c = generate("driving_like", 2, 16, 32, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("kind", KINDS)
def test_sparsity_matches_request(kind):
    seq = generate(kind, 4, 64, 128, sparsity=0.4, seed=3)
    got = float(np.mean(seq == 0.0))
    assert abs(got - 0.4) < 0.08


def test_default_sparsity_sane():
    for kind in KINDS:
        seq = generate(kind, 2, 32, 64, seed=5)
        frac = float(np.mean(seq == 0.0))
        assert 0.05 < frac < 0.95


def test_zero_sparsity_has_no_dropout():
    seq = generate("static_scene", 2, 16, 32, sparsity=0.0, seed=2)
    assert (seq > 0).all()


@pytest.mark.parametrize("kind", KINDS)
def test_full_sparsity_is_all_dropout(kind):
    seq = generate(kind, 2, 16, 32, sparsity=1.0, seed=2)
    assert (seq == 0).all()


def test_static_frames_change_little():
    seq = generate("static_scene", 4, 32, 64, sparsity=0.1, seed=4)
    both = (seq[0] > 0) & (seq[1] > 0)
    diff = np.abs(seq[1][both] - seq[0][both])
    # static scene: only sensor noise between frames, a few cm at most
    assert np.median(diff) < 0.05
    # and the dropout pattern is mostly stable too
    assert np.mean((seq[0] == 0) != (seq[1] == 0)) < 0.15


def test_driving_scene_evolves_but_correlates():
    seq = generate("driving_like", 6, 32, 64, sparsity=0.1, seed=6)
    a, b = seq[0], seq[5]
    changed = np.mean(np.abs(b - a) > 0.05)
    assert 0.05 < changed < 0.98


def test_random_frames_decorrelated():
    seq = generate("random", 2, 32, 64, sparsity=0.1, seed=9)
    both = (seq[0] > 0) & (seq[1] > 0)
    diff = np.abs(seq[1][both] - seq[0][both])
    assert np.median(diff) > 1.0


def test_sparse_vertical_has_row_structure():
    seq = generate("sparse_vertical", 1, 64, 64, sparsity=0.75, seed=10)
    row_live = (seq[0] > 0).mean(axis=1)
    # whole beams drop out: many rows nearly empty, strong row contrast
    assert (row_live < 0.1).sum() > 10
    assert row_live.max() > 0.4
    assert row_live.std() > 0.15


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        generate("nope", 1)
    with pytest.raises(ValueError):
        generate("random", 0)
    with pytest.raises(ValueError):
        generate("random", 1, sparsity=1.5)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("noise_mm", [float("nan"), float("inf"), -5.0])
def test_rejects_bad_noise(kind, noise_mm):
    with pytest.raises(ValueError, match="noise_mm"):
        generate(kind, 1, 4, 8, noise_mm=noise_mm)
