"""Independent scalar reference implementations used as test oracles.

The codec oracles are written directly from the wire format description in
FORMAT.md, pure Python, no numpy, no sharing of code with the library.
Deliberately slow and obvious. The two scan oracles at the end keep the
library's earlier numpy formulas for ``quantize`` and ``dequantize``, one
whole-array step at a time, as the definition the fused versions must match.
"""

import numpy as np

BLOCK = 128
U32 = 0xFFFFFFFF


def ref_varint(value: int) -> bytes:
    out = bytearray()
    while True:
        b = value & 0x7F
        value >>= 7
        if value:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def ref_read_varint(buf: bytes, pos: int):
    shift = 0
    result = 0
    while True:
        b = buf[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result, pos
        shift += 7


def ref_block_cost(block, width: int) -> int:
    """Exact serialized size of one block at a given bit width."""
    ref = min(block)
    offsets = [v - ref for v in block]
    cost = len(ref_varint(ref)) + 1                 # reference + width byte
    exceptions = [o for o in offsets if o.bit_length() > width]
    cost += len(ref_varint(len(exceptions)))
    cost += (len(block) * width + 7) // 8           # packed area
    cost += len(exceptions)                         # position bytes
    for o in exceptions:
        cost += len(ref_varint(o >> width))
    return cost


def ref_optimal_width(block) -> int:
    """Brute-force best width, ties toward the smaller width."""
    best_w, best_c = 0, ref_block_cost(block, 0)
    for w in range(1, 33):
        c = ref_block_cost(block, w)
        if c < best_c:
            best_w, best_c = w, c
    return best_w


def ref_pfor_encode(values) -> bytes:
    """Scalar PFOR encoder: per-block exhaustive width search."""
    values = [int(v) for v in values]
    out = bytearray(ref_varint(len(values)))
    for i in range(0, len(values), BLOCK):
        block = values[i:i + BLOCK]
        ref = min(block)
        offsets = [v - ref for v in block]
        w = ref_optimal_width(block)
        out += ref_varint(ref)
        out.append(w)
        exc = [(p, o >> w) for p, o in enumerate(offsets) if o.bit_length() > w]
        out += ref_varint(len(exc))
        # pack low w bits, value i at bit positions [i*w, (i+1)*w), LSB first
        acc = 0
        for p, o in enumerate(offsets):
            acc |= (o & ((1 << w) - 1)) << (p * w)
        out += acc.to_bytes((len(block) * w + 7) // 8, "little")
        for p, _ in exc:
            out.append(p)
        for _, rem in exc:
            out += ref_varint(rem)
    return bytes(out)


def ref_pfor_decode(buf: bytes):
    n, pos = ref_read_varint(buf, 0)
    values = []
    while len(values) < n:
        blen = min(BLOCK, n - len(values))
        ref, pos = ref_read_varint(buf, pos)
        w = buf[pos]
        pos += 1
        nexc, pos = ref_read_varint(buf, pos)
        nbytes = (blen * w + 7) // 8
        acc = int.from_bytes(buf[pos:pos + nbytes], "little")
        pos += nbytes
        block = [ref + ((acc >> (i * w)) & ((1 << w) - 1)) for i in range(blen)]
        positions = list(buf[pos:pos + nexc])
        pos += nexc
        for p in positions:
            rem, pos = ref_read_varint(buf, pos)
            block[p] += rem << w
        values.extend(block)
    assert pos == len(buf), "trailing bytes"
    return values


def ref_iter_blocks(buf: bytes):
    """Scalar walk of a well-formed PFOR stream: per block, (reference,
    width, length, [(position, remainder), ...])."""
    n, pos = ref_read_varint(buf, 0)
    blocks = []
    for base in range(0, n, BLOCK):
        blen = min(BLOCK, n - base)
        ref, pos = ref_read_varint(buf, pos)
        w = buf[pos]
        nexc, pos = ref_read_varint(buf, pos + 1)
        pos += (blen * w + 7) // 8
        positions = list(buf[pos:pos + nexc])
        pos += nexc
        exc = []
        for p in positions:
            rem, pos = ref_read_varint(buf, pos)
            exc.append((p, rem))
        blocks.append((ref, w, blen, exc))
    return blocks


class RefReject(Exception):
    """The strict reference decoder found its input invalid."""


def ref_read_varint_strict(buf: bytes, pos: int):
    """Read one varint, enforcing FORMAT.md: complete, at most 10 bytes,
    shortest form (a multi-byte varint may not end in a 0x00 byte)."""
    start = pos
    shift = 0
    result = 0
    while True:
        if pos >= len(buf):
            raise RefReject("truncated varint")
        if pos - start == 10:
            raise RefReject("varint longer than 10 bytes")
        b = buf[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            if b == 0 and pos - start > 1:
                raise RefReject("overlong varint")
            return result, pos
        shift += 7


def ref_pfor_decode_strict(buf: bytes):
    """PFOR decoder that checks every decoder rule FORMAT.md states.

    Returns the values, or raises RefReject at the first rule broken. Two
    canonical-layout properties (reference is the block minimum, the width
    is the optimum) are encoder duties, not decoder checks, so they are not
    tested here; unused packed bits must be zero.
    """
    n, pos = ref_read_varint_strict(buf, 0)
    values = []
    while len(values) < n:
        blen = min(BLOCK, n - len(values))
        ref, pos = ref_read_varint_strict(buf, pos)
        if pos >= len(buf):
            raise RefReject("truncated block header")
        w = buf[pos]
        pos += 1
        if w > 32:
            raise RefReject("bit width above 32")
        nexc, pos = ref_read_varint_strict(buf, pos)
        if nexc > blen:
            raise RefReject("more exceptions than values")
        nbytes = (blen * w + 7) // 8
        if pos + nbytes > len(buf):
            raise RefReject("truncated packed area")
        acc = int.from_bytes(buf[pos:pos + nbytes], "little")
        pos += nbytes
        if acc >> (blen * w):
            raise RefReject("nonzero padding bits")
        block = [ref + ((acc >> (i * w)) & ((1 << w) - 1)) for i in range(blen)]
        if pos + nexc > len(buf):
            raise RefReject("truncated exception positions")
        positions = list(buf[pos:pos + nexc])
        pos += nexc
        for i, p in enumerate(positions):
            if p >= blen:
                raise RefReject("exception position outside block")
            if i and p <= positions[i - 1]:
                raise RefReject("exception positions not increasing")
        for p in positions:
            rem, pos = ref_read_varint_strict(buf, pos)
            if rem == 0:
                raise RefReject("zero exception remainder")
            block[p] += rem << w
        if max(block) > U32:
            raise RefReject("value above 2^32 - 1")
        values.extend(block)
    if pos != len(buf):
        raise RefReject("trailing bytes")
    return values


def ref_zigzag(x: int) -> int:
    """2|x| + [x < 0] for |x| < 2^31. Code 1 is never produced ("-0")."""
    return 2 * abs(x) + (1 if x < 0 else 0)


def ref_unzigzag(u: int) -> int:
    """Inverse of :func:`ref_zigzag`; the unreachable code 1 gives 0."""
    half = u >> 1
    return -half if u & 1 else half


def ref_wrapped_pipeline_encode(values):
    """delta -> zigzag evaluated in uint32 modular arithmetic, scalar."""
    out = []
    prev = 0
    for v in values:
        d = (int(v) - prev) & U32
        prev = int(v)
        signed = d - (1 << 32) if d >= 1 << 31 else d
        out.append((2 * abs(signed) + (1 if signed < 0 else 0)) & U32)
    return out


def ref_wrapped_pipeline_decode(codes):
    out = []
    prev = 0
    for c in codes:
        c = int(c)
        if c == 1:
            d = 1 << 31                              # wrapped -2^31
        elif c & 1:
            d = (-(c >> 1)) & U32
        else:
            d = c >> 1
        prev = (prev + d) & U32
        out.append(prev)
    return out


def ref_select_mode(cur, prev, test_lines: int = 4) -> int:
    """The I/P mode trial, sized by packing: 1 (P) or 0 (I).

    ``cur`` and ``prev`` are row lists of samples (``prev`` None for the
    first scan). Over ``test_lines`` evenly spaced rows, the nonzero
    samples of ``cur`` (row-major) and their uint32 residuals against
    ``prev`` go through delta, ZigZag and PFOR; P wins only when its packed
    stream is strictly shorter.
    """
    if prev is None:
        return 0
    rows = len(cur)
    nlines = min(test_lines, rows)
    i_vals, p_vals = [], []
    for k in range(nlines):
        r = k * rows // nlines
        for c, p in zip(cur[r], prev[r]):
            if c:
                i_vals.append(int(c))
                p_vals.append((int(c) - int(p)) & U32)
    i_bytes = len(ref_pfor_encode(ref_wrapped_pipeline_encode(i_vals)))
    p_bytes = len(ref_pfor_encode(ref_wrapped_pipeline_encode(p_vals)))
    return 1 if p_bytes < i_bytes else 0


def ref_quantize(raw, precision_um: int, sample_width: int,
                 is_range: bool = True) -> np.ndarray:
    """Float measurements to samples: scale (range types only), round
    ties-to-even, nonfinite to 0, clip to [0, max sample], cast."""
    a = np.asarray(raw, dtype=np.float64)
    scaled = a * (1e6 / precision_um) if is_range else a
    q = np.round(scaled)
    q = np.where(np.isfinite(q), q, 0.0)
    q = np.clip(q, 0.0, float((1 << (8 * sample_width)) - 1))
    return q.astype(f"<u{sample_width}")


def ref_dequantize(samples, precision_um: int, is_range: bool = True):
    """Samples to float64: range samples times the step in meters with NaN
    at the 0 sentinel; attribute samples cast unchanged."""
    samples = np.asarray(samples)
    if not is_range:
        return samples.astype(np.float64)
    out = samples.astype(np.float64) * (precision_um * 1e-6)
    out[samples == 0] = np.nan
    return out
