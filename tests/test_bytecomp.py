import zlib

import pytest
from hypothesis import given, strategies as st

from jiffy import bytecomp
from jiffy.errors import (CorruptStreamError, TruncatedStreamError,
                          UnknownCodecError)
from jiffy.varint import encode_uvarint


def test_stored_block_is_identity_plus_header():
    block = bytecomp.compress_block(b"abc", bytecomp.STORED)
    assert block == b"\x03\x00abc"
    assert bytecomp.parse_block(block, 0) == (b"abc", len(block))


def test_default_is_deflate():
    assert bytecomp.DEFAULT_CODEC == bytecomp.DEFLATE
    block = bytecomp.compress_block(b"x" * 100)
    assert block[1] == bytecomp.DEFLATE
    assert bytecomp.parse_block(block, 0, 100) == (b"x" * 100, len(block))


def test_redundant_mask_compresses_hard():
    # an all-zero 16 KiB mask plane must collapse to well under 256 bytes
    block = bytecomp.compress_block(bytes(16 * 1024))
    assert len(block) < 256
    assert bytecomp.parse_block(block, 0) == (bytes(16 * 1024), len(block))


@given(st.binary(min_size=0, max_size=2000),
       st.sampled_from([bytecomp.STORED, bytecomp.DEFLATE]))
def test_roundtrip(data, codec):
    block = bytecomp.compress_block(data, codec)
    assert bytecomp.parse_block(block, 0, len(data)) == (data, len(block))


def test_parse_block_reports_consumed_offset():
    for codec in (bytecomp.STORED, bytecomp.DEFLATE):
        block = bytecomp.compress_block(b"hello world", codec)
        buf = b"\xaa" + block + b"trailing"
        data, end = bytecomp.parse_block(buf, 1)
        assert data == b"hello world"
        assert buf[end:] == b"trailing"


def test_unknown_codec():
    with pytest.raises(UnknownCodecError):
        bytecomp.compress_block(b"x", 99)
    with pytest.raises(UnknownCodecError):
        bytecomp.parse_block(b"\x01\x63x", 0)


def test_reserved_zstd_is_distinct():
    with pytest.raises(UnknownCodecError, match="zstd"):
        bytecomp.compress_block(b"x", bytecomp.ZSTD_RESERVED)
    with pytest.raises(UnknownCodecError, match="zstd"):
        bytecomp.parse_block(b"\x01\x02x", 0)


def test_expected_len_mismatch():
    block = bytecomp.compress_block(b"abcd")
    with pytest.raises(CorruptStreamError):
        bytecomp.parse_block(block, 0, 5)


def test_expected_len_checked_before_inflating():
    block = bytecomp.compress_block(b"abcd")
    assert bytecomp.parse_block(block, 0, 4) == (b"abcd", len(block))
    for lie in (0, 3, 5, 1 << 40):
        forged = encode_uvarint(lie) + block[1:]
        with pytest.raises(CorruptStreamError, match="declares"):
            bytecomp.parse_block(forged, 0, 4)
    # the length is refused even when the body would not parse at all
    with pytest.raises(CorruptStreamError, match="declares"):
        bytecomp.parse_block(encode_uvarint(200_000_000) + b"\x01", 0, 16)


def test_truncated_blocks():
    with pytest.raises(TruncatedStreamError):
        bytecomp.parse_block(b"\x05", 0)                    # no codec byte
    with pytest.raises(TruncatedStreamError):
        bytecomp.parse_block(b"\x05\x00ab", 0)              # stored, short
    full = bytecomp.compress_block(b"some mask bytes here")
    with pytest.raises((TruncatedStreamError, CorruptStreamError)):
        bytecomp.parse_block(full[:-1], 0)                  # deflate, short


def test_deflate_length_lies_are_caught():
    co = zlib.compressobj(level=1, wbits=-15)
    payload = co.compress(b"0123456789") + co.flush()
    good = b"\x0a\x01" + payload
    assert bytecomp.parse_block(good, 0) == (b"0123456789", len(good))
    with pytest.raises(CorruptStreamError):
        bytecomp.parse_block(b"\x09\x01" + payload, 0)      # declares 9, is 10
    with pytest.raises((CorruptStreamError, TruncatedStreamError)):
        bytecomp.parse_block(b"\x0b\x01" + payload, 0)      # declares 11


def test_deflate_garbage_body():
    with pytest.raises(CorruptStreamError):
        bytecomp.parse_block(b"\x08\x01\xff\xff\xff\xff\xff\xff", 0)

