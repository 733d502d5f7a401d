import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from jiffy import intcodec
from jiffy.errors import CorruptStreamError, JiffyError, TruncatedStreamError
from jiffy.intcodec import (_SLICE, BLOCK_SIZE, _bit_lengths, _pack_bits,
                            delta_unwrap, delta_wrap,
                            iter_blocks, pfor_decode, pfor_encode, pfor_size,
                            zigzag_unwrap, zigzag_wrap)
from jiffy.varint import encode_uvarint

from .refimpl import (RefReject, ref_iter_blocks, ref_optimal_width,
                      ref_pfor_decode, ref_pfor_decode_strict, ref_pfor_encode,
                      ref_unzigzag, ref_wrapped_pipeline_decode,
                      ref_wrapped_pipeline_encode, ref_zigzag)

u32_arrays = st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF),
                      min_size=0, max_size=400).map(
                          lambda v: np.array(v, dtype=np.uint32))

# mixtures that exercise exceptions: mostly small offsets, rare spikes
spiky_arrays = st.lists(
    st.one_of(st.integers(min_value=0, max_value=200),
              st.integers(min_value=0, max_value=0xFFFFFFFF)),
    min_size=1, max_size=400).map(lambda v: np.array(v, dtype=np.uint32))


@st.composite
def dense_exception_arrays(draw):
    """129-1,000 values in blocks of 128 (any tail of 1-127 included).

    A dense block has offsets of a 3-10 bit base width, and about 20% of
    them spike above it by 1-5 remainder bytes (as many as fit in 32 bits).
    A flat block is constant but for 0-3 spikes, so it codes at width 0.
    The first block is dense; references span 1-5 varint bytes.
    """
    n = draw(st.integers(min_value=129, max_value=1000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for i in range(0, n, BLOCK_SIZE):
        blen = min(BLOCK_SIZE, n - i)
        dense = i == 0 or draw(st.booleans())
        base = draw(st.integers(min_value=3, max_value=10)) if dense else 0
        nspike = (int(rng.binomial(blen, 0.2)) if dense
                  else draw(st.integers(min_value=0, max_value=min(3, blen))))
        off = _spiky_offsets(blen, base,
                             rng.choice(blen, size=nspike, replace=False), rng)
        top = (1 << 32) - 1 - int(off.max())
        ref = int(rng.integers(0, top + 1)) >> draw(st.integers(0, 32))
        blocks.append(off + ref)
    return np.concatenate(blocks).astype(np.uint32)


def _spiky_offsets(blen, base, at, rng):
    """blen random offsets of ``base`` bits; those at positions ``at``
    spike above it by a remainder of 1-5 varint bytes (as many bits as fit
    in 32)."""
    off = rng.integers(0, 1 << base, size=blen, dtype=np.uint64)
    for p in at.tolist():
        rbits = min(7 * int(rng.integers(1, 6)), 32 - base)
        rem = int(rng.integers(1 << max(rbits - 7, 0), 1 << rbits))
        off[p] += rem << base
    return off


# ---------------------------------------------------------------------------
# delta


@given(u32_arrays)
def test_delta_wrap_roundtrip(v):
    assert np.array_equal(delta_unwrap(delta_wrap(v)), v)


@given(st.lists(st.integers(min_value=0, max_value=(1 << 31) - 1),
                min_size=1, max_size=100))
def test_wrap_agrees_with_exact_when_in_range(values):
    v = np.array(values, dtype=np.uint32)
    exact = np.diff(v.astype(np.int64), prepend=0)
    wrapped = delta_wrap(v).astype(np.int64)
    wrapped[wrapped >= 1 << 31] -= 1 << 32
    assert np.array_equal(exact, wrapped)


# ---------------------------------------------------------------------------
# zigzag


@pytest.mark.parametrize("x,u", [(0, 0), (1, 2), (-1, 3), (3, 6), (-3, 7),
                                 (2, 4), (-2, 5), ((1 << 31) - 1, (1 << 32) - 2),
                                 (-(1 << 31) + 1, (1 << 32) - 1)])
def test_zigzag_known(x, u):
    word = np.array([x], dtype=np.int64).astype(np.uint32)
    assert zigzag_wrap(word).tolist() == [u]
    assert zigzag_unwrap(np.array([u], dtype=np.uint32)).tolist() == word.tolist()


def test_zigzag_code_one_unreachable():
    # 2|x| + [x<0] == 1 has no solution for |x| < 2^31; only the wrapped
    # -2^31 word lands there (test_zigzag_wrap_min_int_lands_on_code_one)
    xs = np.r_[-300:301, -(1 << 31) + 1, (1 << 31) - 1].astype(np.int64)
    assert 1 not in zigzag_wrap(xs.astype(np.uint32))


@given(u32_arrays)
def test_zigzag_wrap_roundtrip(v):
    assert np.array_equal(zigzag_unwrap(zigzag_wrap(v)), v)


def test_zigzag_wrap_min_int_lands_on_code_one():
    c = zigzag_wrap(np.array([0x80000000], dtype=np.uint32))
    assert c.tolist() == [1]
    assert zigzag_unwrap(c).tolist() == [0x80000000]
    edges = [0, 2, 3, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFE, 0xFFFFFFFF]
    back = zigzag_unwrap(np.array(edges, dtype=np.uint32))
    assert back.tolist() == [ref_wrapped_pipeline_decode([e])[0]
                             for e in edges]
    assert zigzag_wrap(back).tolist() == edges


@pytest.mark.parametrize("shape", [
    (_SLICE * BLOCK_SIZE - 1,), (_SLICE * BLOCK_SIZE,),
    (_SLICE * BLOCK_SIZE + 1,), (2 * _SLICE * BLOCK_SIZE + 1,),
    (3, _SLICE * BLOCK_SIZE // 2 + 1)])
def test_zigzag_unwrap_large_arrays(shape):
    # one pass over arrays of up to two PFOR slices' values, 1-D and 2-D
    codes = np.random.default_rng(sum(shape)).integers(
        0, 1 << 32, size=shape, dtype=np.uint64).astype(np.uint32)
    codes[codes == 1] = 3           # the scalar inverse maps code 1 to 0
    back = zigzag_unwrap(codes)
    assert back.shape == codes.shape
    assert back.view(np.int32).reshape(-1).tolist() == [
        ref_unzigzag(c) for c in codes.reshape(-1).tolist()]


@pytest.mark.parametrize("shape", [(300,), (_SLICE * BLOCK_SIZE + 7,),
                                   (3, 200), (2, _SLICE * BLOCK_SIZE // 2 + 3)])
def test_unwraps_in_place_match_out_of_place(shape):
    rng = np.random.default_rng(sum(shape))
    v = rng.integers(0, 1 << 32, size=shape, dtype=np.uint64).astype(np.uint32)
    v[..., 0] = 1                   # code 1, the wrapped -2^31 word
    v[..., 1] = 0xFFFFFFFF          # so each row's prefix sum wraps to 0
    assert not delta_unwrap(v)[..., 1].any()
    for unwrap in (zigzag_unwrap, delta_unwrap):
        want = unwrap(v)
        got = v.copy()
        assert unwrap(got, out=got) is got
        assert np.array_equal(got, want)
        into = np.empty_like(v)
        assert unwrap(v, out=into) is into
        assert np.array_equal(into, want)
    assert np.all(zigzag_unwrap(v, out=v)[..., 0] == 0x80000000)


@pytest.mark.parametrize("out", [np.empty(4, np.int64), np.empty(5, np.uint32),
                                 np.empty((2, 4), np.uint32)[:, ::2],
                                 [0, 0, 0, 0]])
def test_unwraps_reject_an_unfit_out(out):
    v = np.ones((2, 2) if np.ndim(out) == 2 else 4, dtype=np.uint32)
    for unwrap in (zigzag_unwrap, delta_unwrap):
        with pytest.raises(ValueError, match="out must be"):
            unwrap(v, out=out)


@given(st.lists(st.integers(min_value=-(1 << 30), max_value=(1 << 30)),
                min_size=1, max_size=100))
def test_zigzag_wrap_agrees_with_scalar(values):
    v = np.array(values, dtype=np.int64).astype(np.uint32)  # two's complement
    codes = zigzag_wrap(v)
    assert codes.tolist() == [ref_zigzag(x) for x in values]
    back = zigzag_unwrap(codes).view(np.int32).tolist()
    assert back == [ref_unzigzag(c) for c in codes.tolist()]


@given(u32_arrays)
def test_wrapped_pipeline_matches_reference(v):
    codes = zigzag_wrap(delta_wrap(v))
    assert codes.tolist() == ref_wrapped_pipeline_encode(v)
    back = delta_unwrap(zigzag_unwrap(codes))
    assert np.array_equal(back, v)
    assert ref_wrapped_pipeline_decode(codes) == v.tolist()


@given(hnp.arrays(np.uint32, hnp.array_shapes(min_dims=1, max_dims=2,
                                               min_side=0, max_side=40)))
def test_wraps_act_per_row_and_leave_their_input(v):
    before = v.copy()
    for wrap in (delta_wrap, delta_unwrap, zigzag_wrap, zigzag_unwrap):
        out = wrap(v)
        assert np.array_equal(v, before)
        assert not np.shares_memory(out, v)
        assert out.dtype == np.uint32 and out.shape == v.shape
        for got, row in zip(np.atleast_2d(out), np.atleast_2d(v)):
            assert np.array_equal(got, wrap(row.copy()))
    assert np.array_equal(delta_unwrap(delta_wrap(v)), v)
    assert [zigzag_wrap(delta_wrap(row)).tolist()
            for row in np.atleast_2d(v)] \
        == [ref_wrapped_pipeline_encode(row) for row in np.atleast_2d(v)]


# ---------------------------------------------------------------------------
# PFOR


def test_pfor_empty():
    enc = pfor_encode(np.array([], dtype=np.uint32))
    assert enc == b"\x00"
    assert pfor_decode(enc).size == 0


def test_pfor_constant_block():
    v = np.full(128, 7, dtype=np.uint32)
    enc = pfor_encode(v)
    # count=128 (2 bytes), ref=7, width=0, exceptions=0
    assert enc == b"\x80\x01" + b"\x07\x00\x00"
    assert np.array_equal(pfor_decode(enc), v)


def test_pfor_single_outlier_gets_exception():
    v = np.tile(np.arange(16, dtype=np.uint32), 8)
    v[40] = 1_000_000
    enc = pfor_encode(v)
    blocks = list(iter_blocks(enc))
    assert len(blocks) == 1
    b = blocks[0]
    assert b.bit_width == 4 == ref_optimal_width(v.tolist())
    assert b.exceptions == [(40, 1_000_000 >> 4)]
    assert np.array_equal(pfor_decode(enc), v)


def test_pfor_width_zero_with_exceptions():
    # 127 equal values and one outlier: cheapest is width 0 + one exception
    v = np.full(128, 3, dtype=np.uint32)
    v[9] = 100
    enc = pfor_encode(v)
    b = next(iter_blocks(enc))
    assert b.bit_width == 0
    assert b.exceptions == [(9, 97)]
    assert np.array_equal(pfor_decode(enc), v)


def test_pfor_tail_block():
    v = np.arange(300, dtype=np.uint32)
    enc = pfor_encode(v)
    lens = [b.length for b in iter_blocks(enc)]
    assert lens == [128, 128, 44]
    assert np.array_equal(pfor_decode(enc), v)


@pytest.mark.parametrize("n", [256, 300])
def test_pfor_exceptions_only_in_last_block(n):
    # the header walk meets its first exception area at the final block
    v = np.arange(n, dtype=np.uint32) % 16
    v[-3] = 1_000_000
    v[-1] = 70_000
    enc = pfor_encode(v)
    assert enc == ref_pfor_encode(v.tolist())
    excs = [b.exceptions for b in iter_blocks(enc)]
    assert not any(excs[:-1]) and len(excs[-1]) == 2
    assert np.array_equal(pfor_decode(enc), v)


@given(u32_arrays)
@settings(max_examples=150)
def test_pfor_matches_scalar_reference(v):
    enc = pfor_encode(v)
    assert enc == ref_pfor_encode(v.tolist())
    assert np.array_equal(pfor_decode(enc), v)
    assert ref_pfor_decode(enc) == v.tolist()


@given(spiky_arrays)
@settings(max_examples=150)
def test_pfor_matches_scalar_reference_spiky(v):
    enc = pfor_encode(v)
    assert enc == ref_pfor_encode(v.tolist())
    assert np.array_equal(pfor_decode(enc), v)


@given(dense_exception_arrays())
@settings(max_examples=60, deadline=None)
def test_pfor_dense_exceptions_match_scalar_reference(v):
    enc = pfor_encode(v)
    assert enc == ref_pfor_encode(v.tolist())
    assert pfor_size(v) == len(enc)
    assert np.array_equal(pfor_decode(enc), v)
    assert len(next(iter_blocks(enc)).exceptions) > 0


@given(spiky_arrays)
def test_pfor_blocks_are_optimal(v):
    """Every emitted block is at the exhaustive-search optimum width."""
    enc = pfor_encode(v)
    start = 0
    for b in iter_blocks(enc):
        chunk = v[start:start + b.length].tolist()
        assert b.bit_width == ref_optimal_width(chunk)
        start += b.length


@given(st.one_of(u32_arrays, spiky_arrays))
@settings(max_examples=200)
def test_pfor_size_is_encoded_length(v):
    assert pfor_size(v) == len(pfor_encode(v))


@st.composite
def u32_rows(draw):
    """(m, n) uint32, 1-4 rows of 0-300 values (a tail block only, below
    128); each row random, spiky, all-equal or just below 0xFFFFFFFF."""
    m = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.one_of(st.sampled_from([0, 1, 127, 128, 129, 256]),
                       st.integers(min_value=0, max_value=300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = np.empty((m, n), dtype=np.uint64)
    for row in rows:
        kind = draw(st.sampled_from(["random", "spiky", "equal", "near_top"]))
        if kind == "random":
            row[:] = rng.integers(0, 1 << 32, size=n, dtype=np.uint64)
        elif kind == "spiky":
            row[:] = rng.integers(0, 200, size=n)
            spikes = rng.random(n) < 0.1
            row[spikes] = rng.integers(0, 1 << 32, size=int(spikes.sum()),
                                       dtype=np.uint64)
        elif kind == "equal":
            row[:] = rng.integers(0, 1 << 32, dtype=np.uint64)
        else:
            row[:] = 0xFFFFFFFF - rng.integers(0, 300, size=n)
    return rows.astype(np.uint32)


@given(u32_rows())
@settings(max_examples=150, deadline=None)
def test_pfor_size_of_rows_is_each_rows_encoded_length(rows):
    sizes = pfor_size(rows)
    assert sizes.shape == (len(rows),)
    assert sizes.tolist() == [len(pfor_encode(row)) for row in rows]


@given(st.one_of(u32_arrays, spiky_arrays, dense_exception_arrays()))
@settings(max_examples=100, deadline=None)
def test_pfor_blocks_have_fewer_exceptions_than_values(v):
    # a block minimum is offset 0 and never an exception, so every count
    # the encoder writes is one varint byte
    for b in iter_blocks(pfor_encode(v)):
        assert len(b.exceptions) < b.length


def _one_block(values, width=None, ref_bytes=None):
    """values as uint32, checked to form one block of the stated kind."""
    v = np.array(values, dtype=np.uint32)
    b = next(iter_blocks(pfor_encode(v)))
    if width is not None:
        assert b.bit_width == width
    if ref_bytes is not None:
        assert len(encode_uvarint(b.reference)) == ref_bytes
    return v


@pytest.mark.parametrize("make", [
    lambda: np.array([], dtype=np.uint32),
    *[(lambda n=n: (np.arange(n, dtype=np.uint32) * 2654435761) % 997)
      for n in (127, 128, 129, 256, 300)],
    lambda: _one_block([7] * 128, width=0),
    lambda: _one_block(np.random.default_rng(1).integers(0, 1 << 32, 128),
                       width=32),
    lambda: _one_block(np.arange(128) + (1 << 31), ref_bytes=5),
], ids=["empty", "n127", "n128", "n129", "n256", "n300", "width0", "width32",
        "ref5"])
def test_pfor_size_fixed_cases(make):
    v = make()
    size = pfor_size(v)
    assert size == len(pfor_encode(v)) == len(ref_pfor_encode(v.tolist()))


def test_pfor_rejects_wrong_dtype():
    with pytest.raises(ValueError):
        pfor_encode(np.array([1.5, 2.5]))
    with pytest.raises(ValueError):
        pfor_encode(np.array([-1], dtype=np.int64))
    with pytest.raises(ValueError):
        pfor_encode(np.array([1 << 32], dtype=np.int64))


def test_pfor_accepts_other_int_dtypes():
    v = np.array([1, 2, 3], dtype=np.int16)
    assert pfor_decode(pfor_encode(v)).tolist() == [1, 2, 3]


# 2^k - 1, 2^k and 2^k + 1 for every k up to 32 that fit in uint32: float32
# rounds 2^k - 1 up to 2^k from k = 25 on
POWER_EDGES = sorted({v for k in range(33) for v in (2**k - 1, 2**k, 2**k + 1)
                      if v <= 0xFFFFFFFF})


def _check_bit_lengths(v):
    got = _bit_lengths(v)
    assert got.dtype == np.uint8 and got.shape == v.shape
    assert got.ravel().tolist() == [x.bit_length() for x in v.ravel().tolist()]


@pytest.mark.parametrize("shape", [(-1,), (1, -1), (-1, 1)])
def test_bit_lengths_at_powers_of_two(shape):
    _check_bit_lengths(np.array(POWER_EDGES, dtype=np.uint32).reshape(shape))


@pytest.mark.parametrize("shape", [(4096,), (32, 128)])
@pytest.mark.parametrize("top", [1 << 24, 1 << 32])
def test_bit_lengths_of_random_values(shape, top):
    # below 2^24 only the float32 read runs; up to 2^32 the float64 one too
    rng = np.random.default_rng(top.bit_length() + len(shape))
    v = rng.integers(0, top, size=shape, dtype=np.uint64).astype(np.uint32)
    v.flat[:3] = [0, 1, top - 1]
    _check_bit_lengths(v)


def test_bit_lengths_of_empty_array():
    assert _bit_lengths(np.empty((0, 128), dtype=np.uint32)).shape == (0, 128)


def _scalar_pack(row, width):
    acc = 0
    for i, v in enumerate(row):
        acc |= (int(v) & ((1 << width) - 1)) << (i * width)
    return acc.to_bytes((len(row) * width + 7) // 8, "little")


@pytest.mark.parametrize("width", range(1, 33))
def test_pack_bits_matches_scalar(width):
    # the encoder packs only full 128-value rows; a short last block is
    # padded to one (test_pfor_short_last_block_at_every_width)
    rng = np.random.default_rng(width)
    rows = np.stack([
        # full 32-bit words: bits above the width must be dropped
        rng.integers(0, 1 << 32, size=BLOCK_SIZE, dtype=np.uint64),
        # all ones: every field that crosses a 64-bit word spills
        np.full(BLOCK_SIZE, 0xFFFFFFFF, dtype=np.uint64),
        # in range, with the top bit of each field set
        rng.integers(1 << (width - 1), 1 << width, size=BLOCK_SIZE,
                     dtype=np.uint64),
        np.zeros(BLOCK_SIZE, dtype=np.uint64),
    ]).astype(np.uint32)
    packed = _pack_bits(rows, width)
    assert packed.dtype == np.uint8
    assert packed.shape == (len(rows), BLOCK_SIZE * width // 8)
    for row, got in zip(rows, packed):
        assert got.tobytes() == _scalar_pack(row, width)


@pytest.mark.parametrize("blen,width", [(1, 0)] + [
    (blen, width) for blen in (7, 63, 64, 65, 127) for width in range(1, 33)])
def test_pfor_short_last_block_at_every_width(blen, width):
    # a full block, then a last block of blen values: a 0 and values of bit
    # length ``width``, so it packs at that width with no exception
    rng = np.random.default_rng(blen * 33 + width)
    last = rng.integers(1 << width >> 1, 1 << width, size=blen,
                        dtype=np.uint64)
    last[rng.integers(blen)] = 0
    v = np.concatenate([rng.integers(0, 1 << 32, size=BLOCK_SIZE,
                                     dtype=np.uint64), last]).astype(np.uint32)
    enc = pfor_encode(v)
    assert enc == ref_pfor_encode(v.tolist())
    assert pfor_size(v) == len(enc)
    assert np.array_equal(pfor_decode(enc), v)
    blocks = list(iter_blocks(enc))
    assert [b.length for b in blocks] == [BLOCK_SIZE, blen]
    assert blocks[-1].bit_width == width and not blocks[-1].exceptions


@pytest.mark.parametrize("nblocks", [_SLICE - 1, _SLICE, _SLICE + 1,
                                     2 * _SLICE + 1])
def test_pfor_one_width_group_across_slices(nblocks):
    # The cost step's histogram and the write step's packing work in slices
    # of _SLICE blocks. A constant block (width 0) leads, then nblocks blocks
    # of 9-bit offsets with one 10-20 bit spike each (width 9, one
    # exception), then a short tail.
    rng = np.random.default_rng(nblocks)
    body = rng.integers(0, 1 << 9, size=(nblocks, BLOCK_SIZE), dtype=np.uint64)
    body[:, 0] = 0
    spike = rng.integers(1, BLOCK_SIZE, size=nblocks)
    body[np.arange(nblocks), spike] = rng.integers(1 << 9, 1 << 20,
                                                   size=nblocks) << 9
    body += rng.integers(0, 1 << 11, size=(nblocks, 1), dtype=np.uint64)
    v = np.concatenate([np.full(BLOCK_SIZE, 7, dtype=np.uint64),
                        body.reshape(-1), [5, 1, 9]]).astype(np.uint32)
    enc = pfor_encode(v)
    assert enc == ref_pfor_encode(v.tolist())
    assert pfor_size(v) == len(enc)
    assert pfor_size(np.stack([v, v[::-1]])).tolist() == [
        len(enc), len(pfor_encode(v[::-1]))]
    assert np.array_equal(pfor_decode(enc), v)
    blocks = list(iter_blocks(enc))[1:-1]
    assert len(blocks) == nblocks
    assert {b.bit_width for b in blocks} == {9}
    assert [len(b.exceptions) for b in blocks] == [1] * nblocks


def test_each_pfor_call_costs_its_blocks_once(monkeypatch):
    calls = []
    cost = intcodec._block_costs
    monkeypatch.setattr(intcodec, "_block_costs",
                        lambda v: calls.append(v.shape) or cost(v))
    v = np.arange(300, dtype=np.uint32)     # two full blocks and a tail
    pfor_encode(v)
    pfor_size(v)
    pfor_size(np.stack([v, v[::-1]]))
    assert calls == [(1, 300), (1, 300), (2, 300)]


def test_pfor_size_of_rows_with_different_tail_minima():
    # each row's short last block is padded with its own minimum
    rows = np.arange(2 * 200, dtype=np.uint32).reshape(2, 200) % 37
    rows[0, BLOCK_SIZE:] += 1 << 30
    rows[1, BLOCK_SIZE:] += 5
    assert pfor_size(rows).tolist() == [len(pfor_encode(r)) for r in rows]


def _width_case(width, n, remainder_bytes, rng):
    """n values whose blocks pack at ``width``: offsets of bit length
    ``width`` around one zero offset, plus exceptions at each block's first
    and last position whose remainders take ``remainder_bytes`` bytes."""
    v = np.empty(n, dtype=np.uint64)
    for start in range(0, n, BLOCK_SIZE):
        blen = min(BLOCK_SIZE, n - start)
        ref = 0 if width == 32 else int(rng.integers(0, 1000))
        off = np.zeros(blen, dtype=np.uint64)
        if width:
            off[:] = rng.integers(1 << (width - 1), 1 << width, size=blen)
        if blen > 2:
            off[1] = 0
            if width < 32:
                # r remainder bytes: offset bit length in width + 7r - 6 .. 7r
                low_bits = width + 7 * remainder_bytes - 6
                hi = min(1 << min(32, width + 7 * remainder_bytes),
                         (1 << 32) - ref)
                off[[0, blen - 1]] = rng.integers(1 << (low_bits - 1), hi,
                                                  size=2)
            else:
                off[blen - 1] = 0xFFFFFFFF
        v[start:start + blen] = ref + off
    return v.astype(np.uint32)


@pytest.mark.parametrize("width", range(33))
@pytest.mark.parametrize("n", [1, 127, 128, 129, 300])
def test_pfor_every_width_roundtrips(width, n):
    rng = np.random.default_rng(width * 1000 + n)
    for r in range(1, max(1, (32 - width + 6) // 7) + 1):
        v = _width_case(width, n, r, rng)
        enc = pfor_encode(v)
        assert enc == ref_pfor_encode(v.tolist())
        assert np.array_equal(pfor_decode(enc), v)
        for b in iter_blocks(enc):
            if b.length > 2:
                assert b.bit_width == width
                if width < 32:
                    assert [p for p, _ in b.exceptions] == [0, b.length - 1]
                    assert all(len(encode_uvarint(rem)) == r
                               for _, rem in b.exceptions)


def _mixed_width_stream(tail):
    """Full blocks at widths 0, 7, 25, 26 and 32 (the first four with
    exceptions), a block of 0xFFFFFFFF at width 0, then a 77-value tail."""
    rng = np.random.default_rng(1577)
    blocks = [_width_case(w, BLOCK_SIZE, 1, rng) for w in (0, 7, 25, 26, 32)]
    blocks.append(np.full(BLOCK_SIZE, 0xFFFFFFFF, dtype=np.uint32))
    if tail == "exceptions":
        blocks.append(_width_case(7, 77, 1, rng))
    else:
        # 7-bit offsets under a reference 100 below the top of uint32: the
        # reference leaves no room for every 7-bit offset, so the decoder's
        # overflow check reads this last row
        off = rng.integers(64, 101, size=77, dtype=np.uint32)
        off[1] = 0
        blocks.append(off + np.uint32(0xFFFFFFFF - 100))
    return np.concatenate(blocks)


@pytest.mark.parametrize("tail", ["exceptions", "near_top"])
def test_pfor_mixed_widths_and_tail_roundtrip(tail):
    v = _mixed_width_stream(tail)
    enc = pfor_encode(v)
    assert enc == ref_pfor_encode(v.tolist())
    blocks = _block_tuples(enc)
    assert blocks == ref_iter_blocks(enc)
    assert [b[1] for b in blocks] == [0, 7, 25, 26, 32, 0, 7]
    assert [b[0] for b in blocks][-2:] == [0xFFFFFFFF, int(v[-77:].min())]
    assert len(blocks[-1][3]) == (2 if tail == "exceptions" else 0)
    got = pfor_decode(enc)
    assert got.dtype == np.uint32 and np.array_equal(got, v)


# --- per-width decode: blocks grouped by width -----------------------------


def _block_bytes(values):
    """One block's bytes as the scalar encoder writes them: the stream of
    ``values`` less its value count."""
    v = [int(x) for x in values]
    return ref_pfor_encode(v)[len(encode_uvarint(len(v))):]


def _assert_decodes_like_oracles(enc, v):
    assert _block_tuples(enc) == ref_iter_blocks(enc)
    got = pfor_decode(enc)
    assert got.dtype == np.uint32
    assert got.tolist() == ref_pfor_decode_strict(enc) == v.tolist()


def test_pfor_all_33_widths_in_one_stream():
    # every width twice, in an order that splits each width's blocks apart,
    # exceptions in each block below width 32, then a short tail at width 9
    order = [(7 * k) % 33 for k in range(66)]
    rng = np.random.default_rng(3301)
    v = np.concatenate([_width_case(w, BLOCK_SIZE, 1, rng) for w in order]
                       + [_width_case(9, 100, 2, rng)])
    enc = pfor_encode(v)
    assert [b.bit_width for b in iter_blocks(enc)] == order + [9]
    _assert_decodes_like_oracles(enc, v)


@pytest.mark.parametrize("width", range(26, 33))
@pytest.mark.parametrize("blen", [1, 77, 127])
def test_pfor_short_wide_last_block_after_narrow_blocks(width, blen):
    # narrow blocks read with 4-byte words, then a short last block read
    # with 8-byte words whose row runs into the zero padding
    rng = np.random.default_rng(width * 128 + blen)
    v = np.concatenate([_width_case(w, BLOCK_SIZE, 1, rng) for w in (1, 0, 3)]
                       + [_width_case(width, blen, 1, rng)])
    enc = pfor_encode(v)
    blocks = list(iter_blocks(enc))
    assert [b.bit_width for b in blocks[:3]] == [1, 0, 3]
    assert blocks[-1].length == blen
    if blen > 2:
        assert blocks[-1].bit_width == width
    _assert_decodes_like_oracles(enc, v)


@pytest.mark.parametrize("tail", [1, 32])
def test_pfor_width_32_blocks_next_to_width_1_blocks(tail):
    rng = np.random.default_rng(3201 + tail)
    widths = [32, 1, 1, 32, 1, 32, 32, 1]
    v = np.concatenate([_width_case(w, BLOCK_SIZE, 1, rng) for w in widths]
                       + [_width_case(tail, 50, 1, rng)])
    enc = pfor_encode(v)
    assert [b.bit_width for b in iter_blocks(enc)] == widths + [tail]
    _assert_decodes_like_oracles(enc, v)


def test_pfor_overflow_inside_one_width_group_rejected():
    # a width-7 block whose reference 0xFFFFFFFF leaves no room for a
    # nonzero offset, between other width-7 blocks and blocks of widths 0,
    # 3 and 30
    rng = np.random.default_rng(701)
    cases = [_width_case(w, BLOCK_SIZE, 1, rng) for w in (7, 3, 0, 30, 7)]
    top = encode_uvarint(0xFFFFFFFF) + bytes([7, 0])
    for lane_byte, ok in ((0, True), (1, False), (111, False)):
        packed = bytearray(16 * 7)
        packed[lane_byte] = 0 if ok else 0x40
        forged = top + bytes(packed)
        blocks = [_block_bytes(c) for c in cases]
        enc = (encode_uvarint(6 * BLOCK_SIZE) + b"".join(blocks[:2]) + forged
               + b"".join(blocks[2:]))
        if ok:
            want = np.concatenate(cases[:2] + [np.full(BLOCK_SIZE, 0xFFFFFFFF,
                                                       dtype=np.uint32)]
                                  + cases[2:])
            _assert_decodes_like_oracles(enc, want)
            continue
        with pytest.raises(CorruptStreamError, match="overflows uint32"):
            pfor_decode(enc)
        with pytest.raises(RefReject, match="above 2\\^32"):
            ref_pfor_decode_strict(enc)


def multi_width_corpus():
    """A multi-width stream (widths 0 with exceptions, 1, 26, 32, 5 and a
    27-bit tail), made without a random generator, and the inputs made from
    it: every truncation, then each byte set in turn to 0x00, 0x80 and
    0xFF."""
    lane = np.arange(BLOCK_SIZE, dtype=np.uint64)
    blocks = []
    for width, n in ((0, 128), (1, 128), (26, 128), (32, 128), (5, 128),
                     (27, 40)):
        off = lane[:n] * 2654435761 % (1 << 32) >> np.uint64(32 - width) \
            if width else np.zeros(n, dtype=np.uint64)
        off[0] = 0
        if width < 32:                      # two exceptions in the block
            off[[3, n - 1]] += np.uint64(300 << width) & np.uint64(0x7FFFFFFF)
        blocks.append(off + np.uint64(40 + 9000 * width))
    v = np.concatenate(blocks).astype(np.uint32)
    enc = pfor_encode(v)
    cases = [enc[:cut] for cut in range(len(enc))]
    for p in range(len(enc)):
        for byte in (0x00, 0x80, 0xFF):
            if enc[p] != byte:
                cases.append(enc[:p] + bytes([byte]) + enc[p + 1:])
    return v, enc, cases


# what each error class counted over multi_width_corpus() when blocks were
# unpacked all at once; the per-width decode gives every input the same
# class and message
MULTI_WIDTH_CORPUS_CLASSES = {"accepted": 3491, "TruncatedStreamError": 1208,
                              "CorruptStreamError": 135}


def test_pfor_multi_width_corpus_classes_and_oracle():
    v, enc, cases = multi_width_corpus()
    assert [b.bit_width for b in iter_blocks(enc)] == [0, 1, 26, 32, 5, 27]
    _assert_decodes_like_oracles(enc, v)
    classes = {"accepted": 0, "TruncatedStreamError": 0,
               "CorruptStreamError": 0}
    for bad in cases:
        try:
            got = pfor_decode(bad).tolist()
        except JiffyError as e:
            classes[type(e).__name__] += 1
            assert _strict_or_none(bad) is None, bad.hex()
        else:
            classes["accepted"] += 1
            assert got == _strict_or_none(bad), bad.hex()
    # the per-input classes the block-at-a-time decoder gave this corpus
    assert classes == MULTI_WIDTH_CORPUS_CLASSES


# --- malformed streams -----------------------------------------------------


def _valid_stream():
    rng = np.random.default_rng(7)
    v = rng.integers(0, 5000, size=300, dtype=np.uint32)
    v[::50] = rng.integers(0, 1 << 31, size=6)
    return pfor_encode(v), v


def test_pfor_truncation_always_detected():
    enc, _ = _valid_stream()
    for cut in range(len(enc)):
        with pytest.raises((TruncatedStreamError, CorruptStreamError)):
            pfor_decode(enc[:cut])


@pytest.mark.parametrize("n", [200, 256])
def test_pfor_cut_in_final_packed_area_is_truncation(n):
    # the final block has no exception area, so only the payload check sees
    # the cut; past it, the walk would end beyond the stream
    v = np.arange(n, dtype=np.uint32) % 7
    enc = pfor_encode(v)
    last = list(iter_blocks(enc))[-1]
    assert last.bit_width == 3 and not last.exceptions
    packed = (last.length * 3 + 7) // 8
    for cut in range(len(enc) - packed, len(enc)):
        with pytest.raises(TruncatedStreamError,
                           match="truncated block payload"):
            pfor_decode(enc[:cut])


def test_pfor_trailing_garbage_detected():
    enc, _ = _valid_stream()
    with pytest.raises(CorruptStreamError):
        pfor_decode(enc + b"\x00")


@pytest.mark.parametrize("ref", [128, 16383, 16384])
def test_pfor_multibyte_references_roundtrip(ref):
    v = _one_block(np.arange(128) % 5 + ref, ref_bytes=len(encode_uvarint(ref)))
    enc = pfor_encode(v)
    assert next(iter_blocks(enc)).reference == ref
    assert np.array_equal(pfor_decode(enc), v)


def test_pfor_overlong_two_byte_reference_rejected():
    # n=1, reference 0 written as the two bytes 80 00, width 0, no exceptions
    with pytest.raises(CorruptStreamError, match="overlong varint"):
        pfor_decode(bytes([1, 0x80, 0x00, 0, 0]))


def test_pfor_cut_after_two_byte_reference():
    # n=1, reference 128 (80 01), width 0, no exceptions
    enc = bytes([1, 0x80, 0x01, 0, 0])
    assert pfor_decode(enc).tolist() == [128]
    for cut in (3, 4):
        with pytest.raises(TruncatedStreamError):
            pfor_decode(enc[:cut])


def test_pfor_bad_width_detected():
    enc, _ = _valid_stream()
    # width byte of the first block sits right after the count and reference
    from jiffy.varint import decode_uvarint
    _, p = decode_uvarint(enc, 0)
    _, p = decode_uvarint(enc, p)
    bad = bytearray(enc)
    bad[p] = 40
    with pytest.raises(CorruptStreamError):
        pfor_decode(bytes(bad))
    # width 33 with a packed area of the matching 5 bytes
    with pytest.raises(CorruptStreamError):
        pfor_decode(bytes([1, 0, 33, 0, 1, 0, 0, 0, 0]))


def test_pfor_absurd_count_rejected_quickly():
    with pytest.raises((CorruptStreamError, TruncatedStreamError)):
        pfor_decode(b"\xff\xff\xff\xff\xff\xff\xff\xff\x7f" + b"\x00\x00\x00")


def test_pfor_byte_flip_fuzz_never_crashes():
    enc, v = _valid_stream()
    rng = np.random.default_rng(123)
    for _ in range(400):
        bad = bytearray(enc)
        for _ in range(int(rng.integers(1, 4))):
            bad[int(rng.integers(0, len(bad)))] ^= int(rng.integers(1, 256))
        try:
            out = pfor_decode(bytes(bad))
        except JiffyError:
            continue
        except MemoryError:
            pytest.fail("unbounded allocation on corrupt input")
        assert isinstance(out, np.ndarray)


def test_pfor_truncation_fuzz_never_crashes():
    enc, _ = _valid_stream()
    rng = np.random.default_rng(99)
    for _ in range(200):
        cut = int(rng.integers(0, len(enc)))
        bad = bytes(enc[:cut]) + bytes(rng.integers(0, 256, size=3, dtype=np.uint8).tobytes())
        try:
            pfor_decode(bad)
        except JiffyError:
            pass


def test_pfor_zero_remainder_rejected():
    # n=2, ref 0, width 1, one exception at position 0 with remainder 0
    with pytest.raises(CorruptStreamError):
        pfor_decode(bytes([2, 0, 1, 1, 1, 0, 0]))
    assert pfor_decode(bytes([2, 0, 1, 1, 1, 0, 1])).tolist() == [3, 0]


def test_pfor_overlong_remainder_rejected():
    # remainder 1 written as the two bytes 81 00
    with pytest.raises(CorruptStreamError):
        pfor_decode(bytes([2, 0, 1, 1, 1, 0, 0x81, 0x00]))


def test_pfor_remainder_limits():
    # width 4: remainders must fit in 28 bits, and the patched value in 32
    head = bytes([1, 0, 4, 1, 0, 0])                # n=1, ref 0, w 4, 1 exc
    top = (1 << 28) - 1
    assert pfor_decode(head + encode_uvarint(top)).tolist() == [top << 4]
    with pytest.raises(CorruptStreamError):
        pfor_decode(head + encode_uvarint(top + 1))
    with pytest.raises(CorruptStreamError):         # 6-byte remainder
        pfor_decode(head + encode_uvarint(1 << 35))
    low = bytes([1, 0, 4, 1, 0x0F, 0])             # packed low bits 15
    assert pfor_decode(low + encode_uvarint(top)).tolist() == [0xFFFFFFFF]
    with pytest.raises(CorruptStreamError):         # ref 1 + 0xFFFFFFFF
        pfor_decode(bytes([1, 1, 4, 1, 0x0F, 0]) + encode_uvarint(top))
    # width 32 leaves no room: 2^32 << 32 would wrap to 0 in 64 bits
    with pytest.raises(CorruptStreamError):
        pfor_decode(bytes([1, 0, 32, 1, 0, 0, 0, 0, 0]) + encode_uvarint(1 << 32))
    # no exception: reference 0xFFFFFFFF plus a packed offset of 1
    ref = encode_uvarint(0xFFFFFFFF)
    assert pfor_decode(bytes([1]) + ref + bytes([1, 0, 0])).tolist() == [0xFFFFFFFF]
    with pytest.raises(CorruptStreamError):
        pfor_decode(bytes([1]) + ref + bytes([1, 0, 1]))


def test_pfor_positions_checked():
    # n=3, ref 0, width 0, two exceptions
    ok = bytes([3, 0, 0, 2, 0, 2, 5, 6])
    assert pfor_decode(ok).tolist() == [5, 0, 6]
    for positions in ([2, 0], [1, 1], [0, 3]):
        with pytest.raises(CorruptStreamError):
            pfor_decode(bytes([3, 0, 0, 2, *positions, 5, 6]))


def test_pfor_nonzero_padding_rejected():
    # [1, 2, 3] at width 2 fills 6 bits of its one packed byte (0x24)
    assert pfor_decode(bytes.fromhex("0301020024")).tolist() == [1, 2, 3]
    for bad in ("03010200a4", "0301020064", "03010200e4"):
        with pytest.raises(CorruptStreamError):
            pfor_decode(bytes.fromhex(bad))
        with pytest.raises(RefReject):
            ref_pfor_decode_strict(bytes.fromhex(bad))
    # two full width-3 blocks have no padding; the [0, 1] tail at width 1
    # leaves 6 bits of its one packed byte unused
    v = np.arange(258, dtype=np.uint32) % 8
    enc = pfor_encode(v)
    assert [b.bit_width for b in iter_blocks(enc)] == [3, 3, 1]
    assert enc[-1] == 0b10
    with pytest.raises(CorruptStreamError):
        pfor_decode(enc[:-1] + bytes([0b110]))


def _block_tuples(enc):
    return [(b.reference, b.bit_width, b.length, b.exceptions)
            for b in iter_blocks(enc)]


@given(spiky_arrays)
def test_iter_blocks_matches_scalar_walk(v):
    enc = pfor_encode(v)
    assert _block_tuples(enc) == ref_iter_blocks(enc)


def test_iter_blocks_raises_only_jiffy_error():
    enc, v = _valid_stream()
    assert sum(b.length for b in iter_blocks(enc)) == v.size
    with pytest.raises(TruncatedStreamError):
        list(iter_blocks(b"\x05\x00"))
    rng = np.random.default_rng(5)
    cases = [enc[:cut] for cut in range(len(enc))]
    cases += [_mutate(enc, rng) for _ in range(300)]
    accepted = 0
    for bad in cases:
        decodes = _lib_or_none(bad) is not None
        try:
            blocks = _block_tuples(bad)
        except JiffyError:
            assert not decodes, bad.hex()
            continue
        # accepted exactly when pfor_decode accepts, and read like the
        # scalar walk reads it
        assert decodes, bad.hex()
        assert blocks == ref_iter_blocks(bad), bad.hex()
        accepted += 1
    assert accepted > 30


def _strict_or_none(buf):
    try:
        return ref_pfor_decode_strict(buf)
    except RefReject:
        return None


def _lib_or_none(buf):
    try:
        return pfor_decode(buf).tolist()
    except JiffyError:
        return None


def _mutate(enc: bytes, rng) -> bytes:
    kind = int(rng.integers(0, 4))
    if kind == 0:                                   # xor 1-3 bytes
        bad = bytearray(enc)
        for _ in range(int(rng.integers(1, 4))):
            bad[int(rng.integers(0, len(bad)))] ^= int(rng.integers(1, 256))
        return bytes(bad)
    if kind == 1:                                   # set a byte to an edge value
        bad = bytearray(enc)
        bad[int(rng.integers(0, len(bad)))] = int(
            rng.choice([0x00, 0x01, 0x7F, 0x80, 0x81, 0xFF]))
        return bytes(bad)
    if kind == 2:                                   # truncate
        return enc[:int(rng.integers(0, len(enc)))]
    return enc + rng.integers(0, 256, size=int(rng.integers(1, 4)),
                              dtype=np.uint8).tobytes()


def test_pfor_decode_matches_strict_oracle_under_mutation():
    rng = np.random.default_rng(2209)
    streams = []
    for n in (1, 3, 40, 128, 129, 300):
        v = rng.integers(0, 300, size=n, dtype=np.uint32)
        spikes = rng.random(n) < 0.1
        v[spikes] = rng.integers(0, 1 << 32, size=int(spikes.sum()),
                                 dtype=np.uint64)
        streams.append(pfor_encode(v))
    accepted = 0
    for i in range(3000):
        bad = _mutate(streams[i % len(streams)], rng)
        want = _strict_or_none(bad)
        got = _lib_or_none(bad)
        assert got == want, bad.hex()
        accepted += want is not None
    # flips inside packed areas keep a stream valid: both sides get exercised
    assert 300 < accepted < 2700


def _dense_exception_case(n, rng):
    """The fixed-seed counterpart of ``dense_exception_arrays``: every block
    dense (3-10 bit offsets, 3 in the first block; about 20% of them spike
    by 1-5 remainder bytes, at least one per block, the short last one
    included) under references of exactly 1-5 varint bytes in turn."""
    blocks = []
    for i in range(0, n, BLOCK_SIZE):
        blen = min(BLOCK_SIZE, n - i)
        base = 3 if i == 0 else int(rng.integers(3, 11))
        at = rng.choice(np.arange(1, blen), replace=False,
                        size=max(1, int(rng.binomial(blen - 1, 0.2))))
        off = _spiky_offsets(blen, base, at, rng)
        off[0] = 0
        # the reference is drawn from the values of ref_bytes varint bytes,
        # cycling through 1-5 from block to block (5-byte ones below 2^31),
        # and the block's spikes are capped so no value passes 2^32 - 1
        ref_bytes = 1 + (i // BLOCK_SIZE + n) % 5
        lo = 1 << 7 * (ref_bytes - 1) if ref_bytes > 1 else 0
        hi = min(1 << 7 * ref_bytes, 1 << 31)
        off = np.minimum(off, (1 << 32) - hi)
        blocks.append(off + int(rng.integers(lo, hi)))
    return np.concatenate(blocks).astype(np.uint32)


def test_pfor_decode_matches_strict_oracle_on_dense_exceptions():
    rng = np.random.default_rng(1577)
    streams = [pfor_encode(_dense_exception_case(n, rng))
               for n in (140, 333, 517)]
    ref_sizes, rem_sizes = set(), set()
    for enc in streams:
        for b in iter_blocks(enc):
            ref_sizes.add(len(encode_uvarint(b.reference)))
            rem_sizes.update(len(encode_uvarint(r)) for _, r in b.exceptions)
    assert ref_sizes == rem_sizes == {1, 2, 3, 4, 5}
    # 128 exceptions in one block, a count written as the 2-byte varint
    # 80 01; the encoder never writes it, since a block minimum is no
    # exception
    full = bytes([0x80, 0x01, 0, 0, 0x80, 0x01]) + bytes(range(128)) \
        + b"\x01" * 128
    assert pfor_decode(full).tolist() == ref_pfor_decode_strict(full) \
        == [1] * 128
    streams.append(full)
    for enc in streams:
        assert _lib_or_none(enc) == _strict_or_none(enc) is not None
        for cut in range(len(enc)):
            assert _lib_or_none(enc[:cut]) is None
            assert _strict_or_none(enc[:cut]) is None
    accepted = 0
    for i in range(4000):
        bad = _mutate(streams[i % len(streams)], rng)
        want = _strict_or_none(bad)
        assert _lib_or_none(bad) == want, bad.hex()
        accepted += want is not None
    assert 400 < accepted < 3600


# ---------------------------------------------------------------------------
# full value pipeline


@given(u32_arrays)
def test_full_pipeline_bijective_on_uint32(v):
    enc = pfor_encode(zigzag_wrap(delta_wrap(v)))
    back = delta_unwrap(zigzag_unwrap(pfor_decode(enc)))
    assert np.array_equal(back, v)
