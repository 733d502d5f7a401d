"""Synthetic LiDAR-like sequences for benchmarks and tests.

Four kinds, all deterministic under a seed:

    static_scene    fixed smooth range field, fresh per-frame sensor noise,
                    coherent dropout regions plus a little speckle
    driving_like    static_scene geometry drifting sideways a few columns
                    per frame, with moving near-field occluders
    random          decorrelated frames of uniform ranges (worst case)
    sparse_vertical heavy, row-banded sparsity like a vertically mounted
                    sensor seeing sky in most beams

Frames are float32 range images in meters with 0.0 marking invalid samples,
the same convention raw dataset dumps use. Generated ranges stay well above
the quantization step so a genuine measurement never collides with the
zero sentinel.
"""

import numpy as np

KINDS = ("static_scene", "driving_like", "random", "sparse_vertical")

_DEFAULT_SPARSITY = {
    "static_scene": 0.3,
    "driving_like": 0.3,
    "random": 0.3,
    "sparse_vertical": 0.75,
}

_SPECKLE = 0.02     # per-frame flickering dropout within the live region
_DRIFT = 2.5        # driving_like: columns the scene drifts per frame
_OCCLUDERS = 6      # driving_like: moving near-field blobs

RANGE_LO = 2.0      # m
RANGE_HI = 60.0


def generate(kind: str, frames: int, rows: int = 128, cols: int = 1024,
             sparsity: float | None = None, seed: int = 0,
             noise_mm: float = 10.0) -> np.ndarray:
    """Generate a (frames, rows, cols) float32 range sequence in meters."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}, expected one of {KINDS}")
    if frames < 1 or rows < 1 or cols < 1:
        raise ValueError("frames, rows and cols must be positive")
    if sparsity is None:
        sparsity = _DEFAULT_SPARSITY[kind]
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError("sparsity must be in [0, 1]")
    if not 0.0 <= noise_mm < np.inf:
        raise ValueError(f"noise_mm must be finite and nonnegative, "
                         f"got {noise_mm}")
    rng = np.random.default_rng(seed)
    noise_m = noise_mm * 1e-3
    if kind == "random":
        return _random(rng, frames, rows, cols, sparsity)
    if kind == "driving_like":
        return _driving(rng, frames, rows, cols, sparsity, noise_m)
    vertical = kind == "sparse_vertical"
    return _static(rng, frames, rows, cols, sparsity, noise_m, vertical)


def _bilerp(ctrl: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Bilinear upsample of a coarse control grid to rows x cols."""
    cr, cc = ctrl.shape
    x = np.linspace(0.0, cc - 1.0, cols)
    x0 = np.floor(x).astype(np.int64)
    x1 = np.minimum(x0 + 1, cc - 1)
    fx = x - x0
    tmp = ctrl[:, x0] * (1.0 - fx) + ctrl[:, x1] * fx
    y = np.linspace(0.0, cr - 1.0, rows)
    y0 = np.floor(y).astype(np.int64)
    y1 = np.minimum(y0 + 1, cr - 1)
    fy = (y - y0)[:, None]
    return tmp[y0] * (1.0 - fy) + tmp[y1] * fy


def _smooth_base(rng, rows, cols) -> np.ndarray:
    ctrl = rng.random((9, 33))
    field = _bilerp(ctrl, rows, cols)
    # gentle elevation trend: upper beams tend to see farther
    trend = np.linspace(0.15, -0.15, rows)[:, None]
    field = np.clip(field + trend, 0.0, 1.0)
    return RANGE_LO + (RANGE_HI - RANGE_LO) * field


def _dropout_masks(rng, rows, cols, sparsity, vertical, frames):
    """A fixed coherent dropout mask plus per-frame speckle masks."""
    if sparsity == 0.0:
        static = np.zeros((rows, cols), dtype=bool)
        return static, np.zeros((frames, rows, cols), dtype=bool)
    if sparsity == 1.0:
        static = np.ones((rows, cols), dtype=bool)
        return static, np.zeros((frames, rows, cols), dtype=bool)
    speckle_p = _SPECKLE if sparsity >= _SPECKLE else sparsity / 2
    # choose the coherent share so that combined zeros land near `sparsity`:
    # total = smooth + (1 - smooth) * speckle
    smooth_share = (sparsity - speckle_p) / (1.0 - speckle_p)
    field = _bilerp(rng.random((7, 25)), rows, cols)
    if vertical:
        # drone-style mount: whole elevation bands go dark
        band = _bilerp(rng.random((13, 2)), rows, cols)
        field = 0.35 * field + 0.65 * band
    threshold = np.quantile(field, smooth_share) if smooth_share > 0 else -1.0
    static = field < threshold
    speckle = rng.random((frames, rows, cols)) < speckle_p
    return static, speckle


def _static(rng, frames, rows, cols, sparsity, noise_m, vertical):
    base = _smooth_base(rng, rows, cols)
    static_drop, speckle = _dropout_masks(rng, rows, cols, sparsity,
                                          vertical, frames)
    out = np.empty((frames, rows, cols), dtype=np.float32)
    for t in range(frames):
        img = base + rng.normal(0.0, noise_m, (rows, cols))
        img[static_drop | speckle[t]] = 0.0
        out[t] = img
    return out


def _random(rng, frames, rows, cols, sparsity):
    out = rng.uniform(RANGE_LO, RANGE_HI,
                      (frames, rows, cols)).astype(np.float32)
    if sparsity > 0.0:
        out[rng.random((frames, rows, cols)) < sparsity] = 0.0
    return out


def _driving(rng, frames, rows, cols, sparsity, noise_m):
    """Sideways-drifting scene with moving near-range blobs."""
    span = cols + int(np.ceil(_DRIFT * frames)) + 2
    wide_base = _smooth_base(rng, rows, span)
    wide_drop, speckle = _dropout_masks(rng, rows, span, sparsity, False, 1)
    del speckle     # regenerated per frame below at output width
    speckle_p = _SPECKLE if sparsity >= _SPECKLE else sparsity / 2

    blobs = [(int(rng.integers(0, max(1, rows - 12))),
              int(rng.integers(6, 14)),
              float(rng.uniform(0, cols)),
              int(rng.integers(20, 70)),
              float(rng.uniform(1.0, 6.0)),
              float(rng.uniform(-4.0, 4.0)))
             for _ in range(_OCCLUDERS)]

    out = np.empty((frames, rows, cols), dtype=np.float32)
    col_idx = np.arange(cols)
    for t in range(frames):
        shift = t * _DRIFT
        x = (col_idx + shift) % span
        x0 = np.floor(x).astype(np.int64)
        x1 = (x0 + 1) % span
        fx = x - x0
        img = wide_base[:, x0] * (1.0 - fx) + wide_base[:, x1] * fx
        img += rng.normal(0.0, noise_m, (rows, cols))
        for r0, h, c0, w, rng_m, vel in blobs:
            cpos = (np.arange(w) + int(c0 + vel * t)) % cols
            img[r0:r0 + h, cpos] = rng_m + rng.normal(0.0, noise_m, (min(h, rows - r0), w))
        drop = wide_drop[:, np.minimum(x0, span - 1)]
        drop = drop | (rng.random((rows, cols)) < speckle_p)
        img[drop] = 0.0
        out[t] = img
    return out
