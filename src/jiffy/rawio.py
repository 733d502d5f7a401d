"""Raw frame-dump ingestion: headerless little-endian arrays on disk.

Datasets arrive as flat files of back-to-back frames (float32 meters or
already-quantized unsigned integers). A RawSequenceSpec pins down the
geometry; reading streams one frame at a time so sequence length never
matters for memory.
"""

import os
from dataclasses import dataclass

import numpy as np

ELEMENT_TYPES = {
    "float32": np.dtype("<f4"),
    "uint32": np.dtype("<u4"),
    "uint16": np.dtype("<u2"),
    "uint8": np.dtype("<u1"),
}


@dataclass(frozen=True)
class RawSequenceSpec:
    path: str
    element_type: str
    rows: int
    cols: int

    def __post_init__(self):
        if self.element_type not in ELEMENT_TYPES:
            raise ValueError(f"element_type must be one of "
                             f"{sorted(ELEMENT_TYPES)}, got {self.element_type!r}")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be positive")

    @property
    def dtype(self) -> np.dtype:
        return ELEMENT_TYPES[self.element_type]

    @property
    def frame_bytes(self) -> int:
        return self.rows * self.cols * self.dtype.itemsize

    def count_frames(self) -> int:
        size = os.path.getsize(self.path)
        if size % self.frame_bytes:
            raise ValueError(
                f"{self.path}: size {size} is not a whole number of "
                f"{self.frame_bytes}-byte frames")
        return size // self.frame_bytes


def read_frames(spec: RawSequenceSpec):
    """Yield one (rows, cols) array per frame, in file order."""
    n = spec.count_frames()
    with open(spec.path, "rb") as f:
        for _ in range(n):
            buf = f.read(spec.frame_bytes)
            if len(buf) != spec.frame_bytes:
                raise ValueError(f"{spec.path}: short read")
            yield np.frombuffer(buf, dtype=spec.dtype).reshape(
                spec.rows, spec.cols)


def read_all(spec: RawSequenceSpec) -> np.ndarray:
    """Whole file as a (frames, rows, cols) array."""
    n = spec.count_frames()
    return np.fromfile(spec.path, dtype=spec.dtype).reshape(
        n, spec.rows, spec.cols)


def write_frames(path: str, frames, element_type: str):
    """Write frames back-to-back as little-endian raw data."""
    dtype = ELEMENT_TYPES[element_type]
    with open(path, "wb") as f:
        for frame in frames:
            f.write(np.ascontiguousarray(frame, dtype=dtype).tobytes())
