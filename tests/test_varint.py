import numpy as np
import pytest
from hypothesis import given, strategies as st

from jiffy.errors import CorruptStreamError, TruncatedStreamError
from jiffy.varint import (decode_uvarint, decode_uvarints, encode_uvarint,
                          write_uvarints)

from .refimpl import ref_varint

KNOWN = [
    (0, b"\x00"),
    (1, b"\x01"),
    (127, b"\x7f"),
    (128, b"\x80\x01"),
    (300, b"\xac\x02"),
    (16383, b"\xff\x7f"),
    (16384, b"\x80\x80\x01"),
    (0xFFFFFFFF, b"\xff\xff\xff\xff\x0f"),
    ((1 << 64) - 1, b"\xff" * 9 + b"\x01"),
]


@pytest.mark.parametrize("value,encoded", KNOWN)
def test_known_encodings(value, encoded):
    assert encode_uvarint(value) == encoded
    assert decode_uvarint(encoded) == (value, len(encoded))


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_roundtrip_matches_reference(value):
    enc = encode_uvarint(value)
    assert enc == ref_varint(value)
    got, pos = decode_uvarint(enc)
    assert got == value and pos == len(enc)


def test_negative_rejected():
    with pytest.raises(ValueError):
        encode_uvarint(-1)


def test_truncated_raises():
    with pytest.raises(TruncatedStreamError):
        decode_uvarint(b"\x80")
    with pytest.raises(TruncatedStreamError):
        decode_uvarint(b"", 0)


def test_overlong_raises():
    with pytest.raises(CorruptStreamError):
        decode_uvarint(b"\x80" * 10 + b"\x01")
    # a 10th byte with its continuation bit set is above 0x01, so the value
    # bound rejects every varint longer than 10 bytes at its 10th byte
    assert decode_uvarint(b"\x80" * 9 + b"\x01") == (1 << 63, 10)
    for extra in (1, 2, 10):
        with pytest.raises(CorruptStreamError, match="2\\^64"):
            decode_uvarint(b"\x80" * (9 + extra) + b"\x01")
        with pytest.raises(CorruptStreamError, match="2\\^64"):
            decode_uvarint(b"\x80" * (9 + extra))   # ends past byte 10


@pytest.mark.parametrize("last", [0x02, 0x7F, 0x81])
def test_above_uint64_raises(last):
    with pytest.raises(CorruptStreamError, match="2\\^64"):
        decode_uvarint(b"\xff" * 9 + bytes([last]))


@pytest.mark.parametrize("encoded", [b"\x80\x00", b"\xff\x00",
                                     b"\x81\x80\x00", b"\x80" * 9 + b"\x00"])
def test_non_minimal_raises(encoded):
    with pytest.raises(CorruptStreamError):
        decode_uvarint(encoded)
    with pytest.raises(CorruptStreamError):
        decode_uvarints(np.frombuffer(encoded, dtype=np.uint8), 10)


def test_decode_mid_buffer():
    buf = b"\xff" + encode_uvarint(300) + b"\x07"
    assert decode_uvarint(buf, 1) == (300, 3)


@given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1),
                min_size=1, max_size=40))
def test_write_uvarints_matches_scalar(values):
    arr = np.array(values, dtype=np.uint64)
    lens = np.array([len(encode_uvarint(v)) for v in values], dtype=np.int64)
    starts = np.zeros(len(values), dtype=np.int64)
    np.cumsum(lens[:-1], out=starts[1:])
    buf = np.zeros(int(lens.sum()), dtype=np.uint8)
    ends = write_uvarints(buf, starts, arr, lens)
    assert buf.tobytes() == b"".join(encode_uvarint(v) for v in values)
    assert ends.tolist() == (starts + lens).tolist()


def test_write_uvarints_empty():
    buf = np.full(4, 0xAB, dtype=np.uint8)
    empty = np.empty(0, dtype=np.int64)
    ends = write_uvarints(buf, empty, np.empty(0, dtype=np.uint64), empty)
    assert ends.size == 0
    assert buf.tolist() == [0xAB] * 4


@given(st.lists(st.integers(min_value=0, max_value=(1 << 63) - 1),
                min_size=1, max_size=40))
def test_decode_uvarints_matches_scalar(values):
    data = b"".join(encode_uvarint(v) for v in values)
    got = decode_uvarints(np.frombuffer(data, dtype=np.uint8), 9)
    assert got.dtype == np.uint64
    assert got.tolist() == values


def test_decode_uvarints_length_cap():
    data = np.frombuffer(encode_uvarint(1) + encode_uvarint(1 << 35),
                         dtype=np.uint8)
    assert decode_uvarints(data, 6).tolist() == [1, 1 << 35]
    with pytest.raises(CorruptStreamError):
        decode_uvarints(data, 5)
