"""General-purpose byte compressors for mask blocks, chosen by a codec id byte.

Mask block wire layout (frozen):

    [uncompressed_len: varint] [codec_id: 1 byte] [compressed bytes]

The compressed area is self-delimiting per codec: stored data spans exactly
uncompressed_len bytes, and a deflate stream knows its own end. Masks are
tiny next to value payloads, so the default codec leans toward speed.

``parse_block`` is the one reader. It returns the offset past the block, so
its caller decides what may follow: further record fields, or, for a block
held on its own, nothing.

Codec ids:
    0  stored (no compression)
    1  deflate, raw stream, fast level  (default)
    2  reserved for zstd; not available here, decoding reports it distinctly
"""

import zlib

from .errors import CorruptStreamError, TruncatedStreamError, UnknownCodecError
from .varint import decode_uvarint, encode_uvarint

STORED = 0
DEFLATE = 1
ZSTD_RESERVED = 2

DEFAULT_CODEC = DEFLATE

def compress_block(data: bytes, codec_id: int = DEFAULT_CODEC) -> bytes:
    """Wrap ``data`` in a mask block under the given codec."""
    head = encode_uvarint(len(data)) + bytes([codec_id])
    if codec_id == STORED:
        return head + data
    if codec_id == DEFLATE:
        # raw stream (no zlib header/trailer), level 1: masks are small and
        # highly structured, speed matters more than the last few bytes
        co = zlib.compressobj(level=1, wbits=-15)
        return head + co.compress(data) + co.flush()
    if codec_id == ZSTD_RESERVED:
        raise UnknownCodecError("zstd codec is reserved but not available "
                                "in this build")
    raise UnknownCodecError(f"unknown byte codec id {codec_id}")


def parse_block(buf: bytes, offset: int,
                expected_len: int | None = None) -> tuple[bytes, int]:
    """Decode the mask block starting at ``offset``.

    Returns (uncompressed bytes, offset past the block); a caller holding
    a standalone block checks that offset against the block's length. With
    ``expected_len``, a block declaring any other length is rejected before
    anything is inflated, so a hostile length cannot size the output.
    """
    ulen, pos = decode_uvarint(buf, offset)
    if expected_len is not None and ulen != expected_len:
        raise CorruptStreamError(
            f"mask block declares {ulen} bytes, expected {expected_len}")
    if pos >= len(buf):
        raise TruncatedStreamError("truncated mask block header")
    codec_id = buf[pos]
    pos += 1
    if codec_id == STORED:
        end = pos + ulen
        if end > len(buf):
            raise TruncatedStreamError("truncated stored mask block")
        return bytes(buf[pos:end]), end
    if codec_id == DEFLATE:
        do = zlib.decompressobj(wbits=-15)
        try:
            # ulen + 1 so an over-long stream is caught by the length check;
            # a view, as the rest of the record follows the block
            data = do.decompress(memoryview(buf)[pos:], ulen + 1)
        except zlib.error as e:
            raise CorruptStreamError(f"bad deflate mask block: {e}") from None
        if len(data) != ulen:
            raise CorruptStreamError("deflate mask block length mismatch")
        if not do.eof:
            raise TruncatedStreamError("truncated deflate mask block")
        consumed = len(buf) - pos - len(do.unused_data)
        return data, pos + consumed
    if codec_id == ZSTD_RESERVED:
        raise UnknownCodecError("stream uses the reserved zstd codec, which "
                                "this build cannot decode")
    raise UnknownCodecError(f"unknown byte codec id {codec_id}")
