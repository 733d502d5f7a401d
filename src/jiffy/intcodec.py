"""Value-stream integer transforms: delta coding, ZigZag, and patched
frame-of-reference (PFOR) bitpacking of unsigned 32-bit integers.

PFOR stream layout (frozen wire format, see FORMAT.md):

    [value_count: varint]
    per block of up to 128 values:
        [reference: varint]        minimum of the block
        [bit_width: 1 byte]        0..32
        [exception_count: varint]
        [packed offsets]           ceil(block_len * bit_width / 8) bytes,
                                   value i at bit positions [i*b, (i+1)*b),
                                   LSB-first within the byte stream
        [exception positions]      1 byte each, strictly increasing
        [exception remainders]     varint each, storing offset >> bit_width

Every value is stored as an offset from the block minimum. The packed area
holds the low ``bit_width`` bits of every offset; offsets that do not fit
contribute an exception carrying the remaining high bits. Per block the
encoder evaluates all 33 candidate widths and keeps the cheapest total,
breaking ties toward the smaller width, so the emitted size is the format's
per-block optimum by construction.

Encoding is two steps over full rows of 128 values, as the decoder reads
them, a short last block padded with its own minimum (offset 0: never an
exception, zero packed bits): a cost step finds each block's reference,
offsets and cheapest width, and a write step lays the bytes out. Every size
comes from the uint8 bit lengths of the block minima and offsets, taken once
in the cost step as the exponents of a float32 ``frexp`` (exact below 2^24;
an array holding a longer value is read again from float64). A reference of
bit length l takes ``max(ceil(l/7), 1)`` varint bytes. At width w < l an
offset costs a position byte and ``ceil((l - w)/7)`` remainder bytes, so one
float64 matmul of the per-block bit-length histogram against that 33x33
table, plus the packed-area bytes, costs all 33 widths, and ``argmin`` keeps
the cheapest. The cost step keeps each block's exception count, read at its
width off one forward cumsum of the histogram, and drops the histogram. The
exception count is one byte: a block minimum is offset 0, so a block has at
most 127 exceptions. :func:`pfor_size` runs the cost step alone, so it
equals ``len(pfor_encode(row))`` for each row of its input without packing
anything; the I/P mode trial sizes its two test streams, two rows of one
array, with it.

Beside the caller's values, the encoder's frame-sized arrays are the uint32
offsets and their uint8 bit lengths, and for a while the float32 copy the
bit lengths are read from. Its larger scratch arrays are built one slice of
``_SLICE`` (256) blocks at a time, so they stay that size however large the
frame: the int64 histogram index, and each width's offsets widened to
uint64 for packing (a slice's uint32 gather is freed before it is packed).
The exception write holds a few arrays per exception, frees each once it
is read, and keeps the remainders uint32.

The write step packs whole blocks per width with 64-bit words, the mirror
of the decoder's word reads below: offset i, masked to its low w bits, is
shifted left by ``i*w & 63`` and summed into word ``i*w >> 6`` (fields in a
word are disjoint, so the sum is an OR); an offset crossing a word boundary
adds its high bits to the next word. The little-endian words, viewed as
bytes, are copied into the output as one row per block; a short block's
row ends in zero bytes past its packed area, overwritten or cut off later.

The exceptions of all blocks are then written in one flat pass. A single
``np.flatnonzero`` over the offsets wider than their block's width gives
flat indices, whose low 7 bits are the positions; they run block-major, so
each block's exceptions form one run in stream order, as long as its count,
and per-block values reach them by ``np.repeat``. The width bytes and the
exception counts go out in two scatters, every position byte in one more,
and every remainder in one :func:`~jiffy.varint.write_uvarints` call.

Decoding is one parse, which :func:`pfor_decode` and :func:`iter_blocks`
both read (the exceptions it patches in are also the ones
:func:`iter_blocks` reports). It walks the block headers in Python once per
block and keeps only each block's start offset. The header fields are
range-checked as they are read, in stream order, so each malformed input
meets the same check first; a full block advances by ``16*w`` packed bytes,
and its one-byte exception count needs no range check (127 < 128). Each
exception area is skipped, not decoded: one numpy ``>= 0x80`` comparison
flags the stream's varint continuation bytes, and ``bytes.count`` counts
those flags (a few C-level counts per block, whatever the number of
exceptions). Everything else is whole-array numpy work over the stream:

* the references, widths, exception counts and packed-area offsets are read
  again from the start offsets with a few vector ops over the blocks (one
  more gather per reference byte beyond the first); block k's exception
  area ends where block k + 1 starts;
* every packed area is read as a full row of 128 offsets, one width at a
  time. The blocks are sorted by width once; each width's packed areas are
  copied out as rows of ``16*w`` bytes plus one word, and offset i of every
  row is the little-endian word at byte ``i*w >> 3``, shifted right by
  ``i*w & 7`` and masked to w bits: one fixed 128-entry column index per
  width (:func:`_unpack_layout`). The words are 4 bytes (7 shift bits plus
  up to 25 value bits) for widths up to 25 and 8 bytes for 26-32, so only
  the wide blocks pay for 8-byte words. The stream is padded with zero
  bytes, so the short last block is read as a full row too, and its lanes
  past the end are cut off. Each block's reference is then added, rejecting
  a sum that overflows uint32;
* the blocks with exceptions are picked from the counts; all their
  positions are gathered at once and checked (below the block length,
  strictly increasing within the block);
* all remainder varints are decoded together and checked (at most 5 bytes,
  minimal form, nonzero, fitting in the bits above the width);
* exceptions are patched in with one fancy-index add that rejects any value
  overflowing uint32.
"""

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CorruptStreamError, TruncatedStreamError
from .varint import (decode_uvarint, decode_uvarints, encode_uvarint,
                     write_uvarints)

BLOCK_SIZE = 128

# Blocks per slice of the large scratch arrays: the encoder's histogram
# index and packing words, and ZigZag decoding's odd word, are built one
# slice at a time, so they stay this size however large the frame.
_SLICE = 256

_U32_MAX = 0xFFFFFFFF

# Zero bytes after the stream: a full row of 128 offsets at width 32 from
# the last packed area, and one 8-byte word past it.
_ROW_PAD = BLOCK_SIZE * 32 // 8 + 8

# Exception bytes by (offset bit length l, candidate width w): a position
# byte and ceil((l - w)/7) remainder bytes where l > w, else none.
_L = np.arange(33)
_EXC_BYTES = np.where(_L[:, None] > _L, 1 + (_L[:, None] - _L + 6) // 7,
                      0).astype(np.float64)
# Packed-area bytes by (block length 0-128, width w): ceil(length * w / 8).
_PACKED_BYTES = np.ceil(np.arange(BLOCK_SIZE + 1)[:, None] * _L / 8)


# ---------------------------------------------------------------------------
# delta


def delta_wrap(values: np.ndarray) -> np.ndarray:
    """Modular uint32 delta along the last axis: out[i] = (v[i] - v[i-1])
    mod 2^32, v[-1] = 0."""
    v = _as_u32(values)
    out = np.empty_like(v)
    out[..., :1] = v[..., :1]
    np.subtract(v[..., 1:], v[..., :-1], out=out[..., 1:])
    return out


def delta_unwrap(deltas: np.ndarray) -> np.ndarray:
    """Inverse of :func:`delta_wrap` (modular prefix sum per row)."""
    d = _as_u32(deltas)
    return np.cumsum(d, axis=-1, dtype=np.uint32)


# ---------------------------------------------------------------------------
# zigzag


def zigzag_wrap(deltas: np.ndarray) -> np.ndarray:
    """ZigZag over uint32 words holding two's-complement signed values.

    Evaluates 2|x| + [x < 0] in modular uint32 arithmetic, in place in one
    output array. Total on uint32: the word 0x80000000 (signed -2^31) wraps
    onto code 1.
    """
    u = _as_u32(deltas)
    sign = (u.view(np.int32) >> 31).view(np.uint32)  # 0 or 0xFFFFFFFF
    out = u ^ sign
    out -= sign                                  # two's-complement |x|
    out <<= 1
    out -= sign                                  # + [x < 0]
    return out


def zigzag_unwrap(codes: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag_wrap`: an even code c is ``c >> 1``, an odd
    one ``~((c - 2) >> 1)``, so code 1 wraps onto 0x80000000 (-2^31).

    Works one slice of values at a time, so beside the codes and the output
    only one slice's odd word is held.
    """
    c = _as_u32(codes)
    out = np.empty_like(c)
    flat_c, flat_out = c.reshape(-1), out.reshape(-1)
    step = _SLICE * BLOCK_SIZE
    for s in range(0, c.size, step):
        part, o = flat_c[s:s + step], flat_out[s:s + step]
        odd = part & 1
        np.subtract(part, odd, out=o)
        o -= odd                                 # c - 2 on odd codes
        o >>= 1
        o ^= np.negative(odd, out=odd)           # ~ on odd codes
    return out


# ---------------------------------------------------------------------------
# PFOR


@dataclass
class PackedBlock:
    """Parsed view of one block, for inspection and tests."""

    reference: int
    bit_width: int
    length: int
    exceptions: list[tuple[int, int]]


def pfor_encode(values) -> bytes:
    """Pack unsigned 32-bit integers into the PFOR block format."""
    v = _as_u32(values).reshape(1, -1)
    return encode_uvarint(v.size) + _write_blocks(_block_costs(v))


def pfor_size(values):
    """``len(pfor_encode(row))`` for each row of 2-D ``values`` as an array,
    or the int for 1-D ``values``, from the encoder's cost step alone:
    nothing is packed and no varint is written."""
    v = _as_u32(values)
    rows = np.atleast_2d(v)
    m, n = rows.shape
    blocks = _block_costs(rows).sizes.reshape(m, -(-n // BLOCK_SIZE))
    sizes = blocks.sum(axis=1) + len(encode_uvarint(n))
    return sizes if v.ndim > 1 else int(sizes[0])


def pfor_decode(data, count: int | None = None) -> np.ndarray:
    """Exact inverse of :func:`pfor_encode`.

    ``count``, when given, is the only value count accepted: a stream
    declaring another is rejected before anything else is read. Raises
    TruncatedStreamError / CorruptStreamError on malformed input; never
    returns partial output.
    """
    return _pfor_parse(data, count)[0]


def iter_blocks(data):
    """Yield a :class:`PackedBlock` per block, read off the decoder's parse.

    The whole stream is decoded first, so malformed input raises its
    JiffyError before anything is yielded. The exceptions are the ones the
    parse patched in: their value indices and remainders.
    """
    values, refs, widths, at, rems = _pfor_parse(data)
    n = values.size
    exc = list(zip((at % BLOCK_SIZE).tolist(), rems.tolist()))
    # indices rise through the stream, so each block's exceptions are a run
    first = np.searchsorted(at, np.arange(refs.size + 1) * BLOCK_SIZE).tolist()
    for k, (ref, width) in enumerate(zip(refs.tolist(), widths.tolist())):
        yield PackedBlock(ref, width, min(BLOCK_SIZE, n - k * BLOCK_SIZE),
                          exc[first[k]:first[k + 1]])


# ---------------------------------------------------------------------------
# internals


def _pfor_parse(data, count=None):
    """Decode a PFOR stream of ``count`` values (any, when None): (values,
    block references, block widths, exception value indices, remainders)."""
    buf = bytes(data)
    total = len(buf)
    n, pos = decode_uvarint(buf, 0)
    if count is not None and n != count:
        raise CorruptStreamError("value block count mismatch")
    # Cheapest legal block is ~3 bytes per 128 values; larger counts cannot
    # be backed by this buffer, so reject before allocating.
    if n > (total // 3 + 1) * BLOCK_SIZE:
        raise CorruptStreamError("value count larger than stream could hold")

    # Header walk: each block's start offset only, O(1) per block; the
    # header fields are read again from those offsets below. Exception areas
    # are only located here; their contents are checked and applied in bulk.
    starts = []
    add_start = starts.append
    count_cont = None       # counts continuation flags; built on first use
    nfull, tail = divmod(n, BLOCK_SIZE)
    for blen, nblocks in ((BLOCK_SIZE, nfull), (tail, tail > 0)):
        # bytes from the width byte to the end of the packed area, by width;
        # a one-byte count up to `small` is in range (every one-byte count
        # is, on a full block)
        head_packed = [2 + (blen * w + 7 >> 3) for w in range(33)]
        small = min(blen, 0x7F)
        for _ in range(nblocks):
            add_start(pos)
            # The reference is usually one or two bytes and the exception
            # count one: read those inline and leave other varints (an
            # overlong second byte 0x00 among them) to decode_uvarint.
            if pos + 3 > total:
                raise TruncatedStreamError("truncated block header")
            if buf[pos] < 0x80:
                pos += 1
            else:
                b1 = buf[pos + 1]
                if 0 < b1 < 0x80:
                    pos += 2
                else:
                    ref, pos = decode_uvarint(buf, pos)
                    if ref > _U32_MAX:
                        raise CorruptStreamError(
                            "block reference exceeds uint32")
                if pos + 2 > total:
                    raise TruncatedStreamError("truncated block header")
            width = buf[pos]
            if width > 32:
                raise CorruptStreamError(f"bit width {width} exceeds 32")
            exc_count = buf[pos + 1]
            if exc_count > small:
                if exc_count >= 0x80:
                    exc_count = decode_uvarint(buf, pos + 1)[0]
                if exc_count > blen:        # every one-byte count here
                    raise CorruptStreamError(
                        "exception count exceeds block length")
                pos += 1                    # a count of 128 is 80 01
            # one position byte per exception
            pos += head_packed[width] + exc_count
            if pos > total:
                raise TruncatedStreamError("truncated block payload")
            # Skip the remainder varints: a range of `need` bytes with c
            # continuation bytes ends need - c varints, so c more are due.
            need = exc_count
            while need:
                stop = pos + need
                if stop > total:
                    raise TruncatedStreamError("truncated exception area")
                if count_cont is None:
                    count_cont = (np.frombuffer(buf, np.uint8)
                                  >= 0x80).tobytes().count
                need = count_cont(1, pos, stop)
                pos = stop
    del count_cont                  # frees the flag copy of the stream
    if pos != total:
        raise CorruptStreamError("trailing bytes after final block")
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return (np.empty(0, dtype=np.uint32), empty.astype(np.uint32), empty,
                empty, empty.astype(np.uint64))

    # Zero padding lets every block, the short last one too, be read as a
    # full row of 128 offsets.
    arr = np.frombuffer(buf + bytes(_ROW_PAD), dtype=np.uint8)
    starts = np.asarray(starts, dtype=np.int64)
    refs, widths, counts, offs = _read_headers(arr, starts)
    # Only the final block (the walk's last blen, width) can end mid-byte:
    # 128 * width bits is always whole bytes.
    bits = blen * width
    if bits & 7 and arr[offs[-1] + (bits >> 3)] >> (bits & 7):
        raise CorruptStreamError("nonzero padding bits in packed area")

    out = _unpack_blocks(arr, refs, widths, offs, n)
    exc_idx = np.empty(0, dtype=np.int64)
    exc_rems = np.empty(0, dtype=np.uint64)
    blocks = np.flatnonzero(counts)
    if blocks.size:
        # block k's exception area ends where block k + 1 starts
        ends = np.append(starts[1:], total)
        exc_idx, exc_rems = _patch_exceptions(
            arr, out, n, blocks, widths[blocks], offs[blocks], counts[blocks],
            ends[blocks])
    return out, refs, widths, exc_idx, exc_rems


def _read_headers(arr: np.ndarray, starts: np.ndarray):
    """Each block's reference (uint32), width, exception count and
    packed-area offset (int64), read from the block start offsets of a
    stream the header walk accepted.

    A reference takes 1-5 bytes, the last one below 0x80; each pass reads
    one more byte of the references still open. An accepted count of two
    bytes is 80 01, 128; every other count is one byte.
    """
    b = arr[starts]
    refs = (b & 0x7F).astype(np.uint32)
    at = starts + 1                 # one past each reference byte read
    more = np.flatnonzero(b >= 0x80)
    shift = 7
    while more.size:
        b = arr[at[more]]
        refs[more] |= (b & 0x7F).astype(np.uint32) << shift
        at[more] += 1
        more = more[b >= 0x80]
        shift += 7
    widths = arr[at].astype(np.int64)
    counts = arr[at + 1].astype(np.int64)
    two = counts >= 0x80
    counts[two] = BLOCK_SIZE
    return refs, widths, counts, at + 2 + two


def _as_u32(values) -> np.ndarray:
    a = np.asarray(values)
    if a.dtype == np.uint32:
        return np.ascontiguousarray(a)
    if a.dtype.kind not in "ui":
        raise ValueError(f"expected integer values, got dtype {a.dtype}")
    if a.size:
        lo = int(a.min())
        hi = int(a.max())
        if lo < 0 or hi > _U32_MAX:
            raise ValueError("values outside uint32 range")
    return np.ascontiguousarray(a.astype(np.uint32))


def _bit_lengths(a: np.ndarray) -> np.ndarray:
    """Bit length of each uint32 of ``a``, as uint8 of ``a``'s shape.

    frexp's exponent of a float32 copy is the bit length below 2^24. A
    longer value can round up to the next power of two and read one bit
    long, so an array holding one is read again from an exact float64 copy.
    """
    f = a.astype(np.float32)
    out = np.frexp(f, out=(f, np.empty(a.shape, dtype=np.uint8)),
                   casting="unsafe")[1]
    if out.size and out.max() > 24:
        del f
        f = a.astype(np.float64)
        np.frexp(f, out=(f, out), casting="unsafe")
    return out


@functools.lru_cache(maxsize=None)     # at most 32 widths
def _pack_layout(width: int) -> tuple:
    """Where a block's 128 offsets go among its 2*width 64-bit words, as
    read-only arrays: each offset's left shift; the first offset of each
    word's run (every word starts one, as width <= 32); the offsets crossing
    into the next word, their right shift and the word they spill into."""
    bit = np.arange(BLOCK_SIZE, dtype=np.int64) * width
    word = bit >> 6
    shift = (bit & 63).astype(np.uint64)
    first = np.flatnonzero(np.diff(word, prepend=-1))
    cross = np.flatnonzero(shift > np.uint64(64 - width))
    layout = (shift, first, cross, np.uint64(64) - shift[cross],
              word[cross] + 1)
    for a in layout:
        a.flags.writeable = False
    return layout


def _pack_bits(offsets: np.ndarray, width: int) -> np.ndarray:
    """Pack the low ``width`` bits of each offset, LSB-first, in 64-bit
    words (see the module docstring).

    offsets: (m, 128) uint32, or uint64, which is packed in place and
    overwritten -> (m, 16*width) uint8. The write step passes at most
    ``_SLICE`` blocks, widened to uint64, so the words stay slice-sized.
    """
    shift, first, cross, spill_shift, spill_word = _pack_layout(width)
    v = offsets.astype(np.uint64, copy=False)
    if width < 32:
        v &= np.uint64((1 << width) - 1)    # exceptions carry higher bits
    spill = v[:, cross] >> spill_shift
    v <<= shift
    words = np.add.reduceat(v, first, axis=1).astype("<u8", copy=False)
    words[:, spill_word] += spill
    return words.view(np.uint8)


class _BlockCosts(NamedTuple):
    """The cost step's view of (nblk, 128) blocks."""

    refs: np.ndarray        # (nblk,) block minima
    blens: np.ndarray       # (nblk,) values in the block; the rest pad
    off: np.ndarray         # (nblk, 128) offsets from the minimum
    bitlen: np.ndarray      # (nblk, 128) uint8 offset bit lengths
    ref_vlen: np.ndarray    # (nblk,) reference varint bytes
    exc_counts: np.ndarray  # (nblk,) offsets longer than the width
    widths: np.ndarray      # (nblk,) cheapest width, ties to the smaller
    sizes: np.ndarray       # (nblk,) encoded block bytes at that width


def _block_costs(v: np.ndarray) -> _BlockCosts:
    """Cost every block at all 33 widths and keep the cheapest.

    v: (m, n) uint32 rows, as (m * ceil(n/128), 128) blocks, row by row.
    """
    m, n = v.shape
    nb = -(-n // BLOCK_SIZE)
    off = np.empty((m, nb * BLOCK_SIZE), dtype=np.uint32)
    off[:, :n] = v
    if n % BLOCK_SIZE:                  # pad the short last block: offset 0
        off[:, n:] = v[:, -(n % BLOCK_SIZE):].min(axis=1, keepdims=True)
    nblk = m * nb
    off = off.reshape(nblk, BLOCK_SIZE)
    refs = off.min(axis=1)
    off -= refs[:, None]
    blens = np.tile(np.minimum(BLOCK_SIZE, n - BLOCK_SIZE * np.arange(nb)), m)
    bitlen = _bit_lengths(off)
    # Per-block histogram over offset bit lengths, 33 bins, from an int64
    # bin index built one slice of blocks at a time.
    hist = np.empty((nblk, 33), dtype=np.int64)
    base = np.arange(0, min(nblk, _SLICE) * 33, 33)[:, None]
    for s in range(0, nblk, _SLICE):
        part = bitlen[s:s + _SLICE]
        k = part.shape[0]
        idx = np.add(part, base[:k], dtype=np.int64).reshape(-1)
        hist[s:s + k] = np.bincount(idx, minlength=k * 33).reshape(k, 33)
        del idx
    # exception and packed-area bytes at each width; exact in float64
    cost = hist @ _EXC_BYTES
    cost += _PACKED_BYTES.take(blens, axis=0)
    bw = cost.argmin(axis=1)                        # ties -> smaller width
    blocks = np.arange(nblk)
    # the offsets longer than the width: 128 less the rest, padding included
    exc_counts = BLOCK_SIZE - hist.cumsum(axis=1)[blocks, bw]
    ref_vlen = (np.maximum(_bit_lengths(refs), 1) + 6) // 7
    # plus the reference, the width byte and the one-byte exception count
    sizes = cost[blocks, bw].astype(np.int64) + ref_vlen + 2
    return _BlockCosts(refs, blens, off, bitlen, ref_vlen, exc_counts, bw,
                       sizes)


def _write_blocks(c: _BlockCosts) -> bytes:
    """Write one row's blocks :func:`_block_costs` sized, each at its width."""
    bw = c.widths
    exc_counts = c.exc_counts
    size = int(c.sizes.sum())
    buf = np.zeros(size + _ROW_PAD, dtype=np.uint8)  # room for a full last row

    pos = write_uvarints(buf, np.cumsum(c.sizes) - c.sizes, c.refs, c.ref_vlen)
    buf[pos] = bw
    buf[pos + 1] = exc_counts
    pos += 2

    # width 0 packs nothing
    for width in np.flatnonzero(np.bincount(bw, minlength=33)[1:]) + 1:
        sel = np.flatnonzero(bw == width)
        # rows_at[p] is the row of bytes at p: one contiguous copy per block.
        # The packed areas are disjoint, so no byte is written twice.
        nb = 16 * int(width)
        rows_at = np.ndarray((buf.size - nb + 1, nb), np.uint8, buf, 0, (1, 1))
        for s in range(0, sel.size, _SLICE):
            part = sel[s:s + _SLICE]
            # the uint32 gather is freed as soon as it is widened
            rows_at[pos[part]] = _pack_bits(c.off[part].astype(np.uint64),
                                            int(width))
    exc_start = pos + (c.blens * bw + 7) // 8

    total_exc = int(exc_counts.sum())
    if total_exc:
        # flat indices run block-major: each block's exceptions are one run
        w8 = bw.astype(np.uint8)
        flat = np.flatnonzero(c.bitlen > w8[:, None])
        ewidth = np.repeat(w8, exc_counts)
        evals = c.off.reshape(-1)[flat] >> ewidth
        # a remainder has the offset's bit length less the width
        evlen = c.bitlen.reshape(-1)[flat]
        evlen -= ewidth
        del ewidth
        evlen += 6
        evlen //= 7
        first = np.cumsum(exc_counts) - exc_counts
        # exception k of block b has rank k - first[b] among its positions
        at = np.repeat(exc_start - first, exc_counts)
        at += np.arange(total_exc)
        flat &= 127
        buf[at] = flat
        del flat, at
        g = np.zeros(total_exc + 1, dtype=np.int64)
        np.cumsum(evlen, out=g[1:], dtype=np.int64)
        # and its remainder starts g[k] - g[first[b]] bytes past them
        at = np.repeat(exc_start + exc_counts - g[first], exc_counts)
        at += g[:-1]
        write_uvarints(buf, at, evals, evlen)
    return buf[:size].tobytes()


@functools.lru_cache(maxsize=None)     # at most 33 widths
def _unpack_layout(width: int) -> tuple:
    """How a row of 128 offsets at ``width`` is read: the word type (4 bytes
    hold 7 shift bits and up to 25 value bits; wider rows take 8), the row
    length (the packed area and one word past it), each offset's byte in
    the row and right shift, and the mask."""
    word = np.dtype("<u4" if width <= 25 else "<u8")
    bit = np.arange(BLOCK_SIZE, dtype=np.int64) * width
    at = bit >> 3
    shift = (bit & 7).astype(word)
    for a in (at, shift):
        a.flags.writeable = False
    return word, 16 * width + word.itemsize, at, shift, word.type(
        (1 << width) - 1)


def _unpack_blocks(arr: np.ndarray, refs, widths, offs, n: int) -> np.ndarray:
    """Unpack every block's packed area as a row of 128 offsets, one width
    at a time, and add its reference (see the module docstring); returns
    the first n values.

    ``arr`` is the stream with ``_ROW_PAD`` zero bytes of padding.
    """
    out = np.empty((refs.size, BLOCK_SIZE), dtype=np.uint32)
    order = np.argsort(widths, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(widths[order])) + 1).tolist(),
            refs.size]
    for a, b in zip(cuts, cuts[1:]):
        sel = order[a:b]
        word, row, at, shift, mask = _unpack_layout(int(widths[sel[0]]))
        # rows_at[p] is the row of bytes at p: one contiguous copy per block
        rows_at = np.ndarray((arr.size - row + 1, row), np.uint8, arr, 0,
                             (1, 1))
        rows = rows_at[offs[sel]]
        # words[k, i] is the (unaligned) word at byte i of row k
        words = np.ndarray((b - a, row - word.itemsize + 1), word, rows, 0,
                           (row, 1))
        vals = words[:, at]
        vals >>= shift
        vals &= mask
        out[sel] = vals
    # Detect uint32 overflow (only corrupt streams produce it); a reference
    # leaving room for every width-bit offset needs no per-value look.
    risky = np.flatnonzero(refs.astype(np.int64) + (1 << widths) - 1
                           > _U32_MAX)
    if risky.size and np.any(refs[risky].astype(np.int64)
                             + out[risky].max(axis=1) > _U32_MAX):
        raise CorruptStreamError("block value overflows uint32")
    out += refs[:, None]
    return out.reshape(-1)[:n]


def _patch_exceptions(arr: np.ndarray, out: np.ndarray, n: int, blocks,
                      widths, offs, counts, ends):
    """Check and apply every exception of the stream in one pass; returns
    their value indices (increasing) and remainders.

    One entry per block with exceptions: its index, width, packed-area
    offset, exception count and where its remainder varints end.
    """
    blens = np.minimum(BLOCK_SIZE, n - blocks * BLOCK_SIZE)
    starts = offs + (blens * widths + 7) // 8       # position bytes
    nexc = int(counts.sum())
    first = np.cumsum(counts) - counts              # block's first exception
    at = np.repeat(starts - first, counts)
    at += np.arange(nexc)
    positions = arr[at]
    del at
    # Each position must exceed its predecessor, but a block's first may
    # restart; a rising block is in range when its last position is.
    rising = positions[1:] > positions[:-1]
    rising[first[1:] - 1] = True
    if not rising.all() or np.any(positions[first + counts - 1] >= blens):
        raise CorruptStreamError("exception positions not strictly "
                                 "increasing within block")

    rem_starts = starts + counts
    rem_lens = ends - rem_starts
    rem_first = np.cumsum(rem_lens) - rem_lens
    at = np.repeat(rem_starts - rem_first, rem_lens)
    at += np.arange(at.size)
    rem_bytes = arr[at]
    del at
    # Each run holds exactly its block's count of varints (the header walk
    # counted them), so remainders line up with positions.
    rems = decode_uvarints(rem_bytes, 5)
    del rem_bytes
    if not rems.all():
        raise CorruptStreamError("zero exception remainder")
    shift = np.repeat(widths.astype(np.uint8), counts)
    # a remainder must fit in the 32 - width bits above the width
    if np.any(rems >> (32 - shift)):
        raise CorruptStreamError("exception remainder overflows uint32")

    idx = np.repeat(blocks * BLOCK_SIZE, counts)
    idx += positions
    del positions
    patched = rems << shift                         # uint64: no wrap
    del shift
    patched += out[idx]
    if patched.max() > _U32_MAX:
        raise CorruptStreamError("patched value overflows uint32")
    out[idx] = patched
    return idx, rems
