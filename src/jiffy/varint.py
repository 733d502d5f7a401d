"""LEB128 variable-length integers (7 bits per byte, continuation bit 0x80).

Scalar helpers for header/stream parsing plus a vectorized writer used by the
block encoder and a vectorized reader used by the block decoder, where
thousands of varints per scan make per-value Python calls too slow. Both
readers reject overlong encodings: a multi-byte varint whose last byte is
0x00 has a shorter form, and FORMAT.md requires the shortest.
"""

import numpy as np

from .errors import CorruptStreamError, TruncatedStreamError


def encode_uvarint(value: int) -> bytes:
    if value < 0:
        raise ValueError("varint value must be nonnegative")
    out = bytearray()
    while True:
        b = value & 0x7F
        value >>= 7
        if value:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def decode_uvarint(buf, offset: int = 0) -> tuple[int, int]:
    """Decode one varint from ``buf`` at ``offset``.

    Returns (value, next_offset). Raises TruncatedStreamError when the buffer
    ends mid-varint and CorruptStreamError for a multi-byte varint ending in
    0x00 (overlong) and for a 10th byte other than 0x00 or 0x01. That rule
    is also the length cap: it bounds the value by 2^64 - 1, and a 10th byte
    with its continuation bit set is above 0x01, so no varint runs past 10
    bytes.
    """
    result = 0
    shift = 0
    pos = offset
    n = len(buf)
    while True:
        if pos >= n:
            raise TruncatedStreamError("truncated varint")
        b = buf[pos]
        pos += 1
        if shift == 63 and b > 0x01:
            raise CorruptStreamError("varint exceeds 2^64 - 1")
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            if b == 0 and pos - offset > 1:
                raise CorruptStreamError("overlong varint")
            return result, pos
        shift += 7


def decode_uvarints(data: np.ndarray, max_len: int) -> np.ndarray:
    """Decode a run of back-to-back varints held in the uint8 array ``data``.

    The run must end on a terminator byte (< 0x80), so every byte belongs to
    a complete varint. Raises CorruptStreamError for a varint longer than
    ``max_len`` bytes or one in overlong form. Returns the values as uint64,
    exact for varints of up to 9 bytes.
    """
    ends = np.flatnonzero(data < 0x80)
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1
    lens = ends - starts + 1
    longest = int(lens.max(initial=0))
    if longest > max_len:
        raise CorruptStreamError(f"varint exceeds {max_len} bytes")
    if np.any((data[ends] == 0) & (lens > 1)):
        raise CorruptStreamError("overlong varint")
    groups = (data & 0x7F).astype(np.uint64)
    values = groups[starts]
    for k in range(1, longest):
        more = np.flatnonzero(lens > k)
        values[more] |= groups[starts[more] + k] << np.uint64(7 * k)
    return values


def write_uvarints(out: np.ndarray, positions: np.ndarray, values: np.ndarray,
                   lengths: np.ndarray) -> np.ndarray:
    """Write one varint per element of ``values`` into the uint8 array ``out``.

    ``positions`` gives each varint's starting byte offset and ``lengths``
    its byte length, ``max(ceil(bit_length / 7), 1)``, which the caller
    works out. Returns the array of offsets one past each written varint.
    Offsets may not overlap.

    Every varint's first byte is written in one scatter, its continuation
    bit set where the length exceeds 1. The arrays then narrow to the
    varints that have bytes left, their values shifted down by 7, and the
    next byte of each is written the same way; after the first byte no
    pass touches a varint that is already complete.
    """
    v = np.asarray(values, dtype=np.uint64)
    pos = np.asarray(positions)
    left = np.asarray(lengths)
    ends = pos + left
    while v.size:
        more = left > 1
        out[pos] = (v & np.uint64(0x7F)).astype(np.uint8) | (
            more.view(np.uint8) << np.uint8(7))
        keep = np.flatnonzero(more)
        v = v[keep] >> np.uint64(7)
        pos = pos[keep] + 1
        left = left[keep] - 1
    return ends
