import io
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from jiffy import bytecomp
from jiffy.codec import CodecState, EncodedScan, Mode, encode
from jiffy.container import (HEADER_SIZE, MAGIC, StreamHeader, StreamReader,
                             StreamWriter, read_stream, write_stream)
from jiffy.errors import (BadMagicError, ChecksumMismatchError,
                          CorruptStreamError, JiffyError,
                          TruncatedStreamError, UnknownCodecError,
                          UnsupportedVersionError)
from jiffy.scan import Scan, ScanType
from jiffy.varint import encode_uvarint

# StreamHeader(RANGE, rows=2, cols=4, width=2, precision 1000um, deflate, 3)
GOLDEN_HEADER = bytes.fromhex(
    "4a46593101000200040002e80300000103000000ff34d407")


def small_scans(n=3, rows=2, cols=4, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        s = rng.integers(0, 1000, size=(rows, cols), dtype=np.uint16)
        s[rng.random((rows, cols)) < 0.25] = 0
        out.append(Scan(ScanType.RANGE, 2, s))
    return out


def build_stream(scans, frame_count=None):
    head = StreamHeader(ScanType.RANGE, scans[0].rows, scans[0].cols,
                        frame_count=frame_count)
    buf = io.BytesIO()
    state = CodecState()
    write_stream(buf, head, (encode(s, state) for s in scans))
    return buf.getvalue()


# ---------------------------------------------------------------------------
# header


def test_header_golden_bytes():
    head = StreamHeader(ScanType.RANGE, 2, 4, 2, 1000, 1, 3)
    raw = head.to_bytes()
    assert raw == GOLDEN_HEADER
    assert len(raw) == HEADER_SIZE == 24
    assert raw[:4] == MAGIC == b"JFY1"
    assert raw[4] == 1                                   # version
    assert raw[6:8] == b"\x02\x00" and raw[8:10] == b"\x04\x00"
    assert struct.unpack_from("<I", raw, 20)[0] == zlib.crc32(raw[:20])
    assert StreamHeader.from_bytes(raw) == head


def test_header_streaming_sentinel():
    raw = StreamHeader(ScanType.SIGNAL, 64, 1024).to_bytes()
    assert raw[16:20] == b"\xff\xff\xff\xff"
    assert StreamHeader.from_bytes(raw).frame_count is None


def _with_fixed_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def test_header_rejections():
    with pytest.raises(TruncatedStreamError):
        StreamHeader.from_bytes(GOLDEN_HEADER[:23])
    with pytest.raises(BadMagicError):
        StreamHeader.from_bytes(b"JFX1" + GOLDEN_HEADER[4:])
    flipped = bytearray(GOLDEN_HEADER)
    flipped[20] ^= 0xFF
    with pytest.raises(ChecksumMismatchError):
        StreamHeader.from_bytes(bytes(flipped))
    # version bump with a recomputed (valid) checksum
    body = bytearray(GOLDEN_HEADER[:20])
    body[4] = 9
    with pytest.raises(UnsupportedVersionError):
        StreamHeader.from_bytes(_with_fixed_crc(bytes(body)))
    # structurally valid, semantically bad field
    body = bytearray(GOLDEN_HEADER[:20])
    body[5] = 99                                         # scan_type
    with pytest.raises(CorruptStreamError):
        StreamHeader.from_bytes(_with_fixed_crc(bytes(body)))
    body = bytearray(GOLDEN_HEADER[:20])
    body[15] = 200                                       # mask_codec
    with pytest.raises(UnknownCodecError):
        StreamHeader.from_bytes(_with_fixed_crc(bytes(body)))


def test_header_field_validation():
    with pytest.raises(ValueError):
        StreamHeader(ScanType.RANGE, 0, 4)
    with pytest.raises(ValueError):
        StreamHeader(ScanType.RANGE, 2, 4, sample_width=3)
    with pytest.raises(ValueError):
        StreamHeader(ScanType.RANGE, 2, 4, precision_um=0)
    with pytest.raises(ValueError):
        StreamHeader(ScanType.RANGE, 2, 4, frame_count=0xFFFFFFFF)
    with pytest.raises(ValueError, match="mask codec"):
        StreamHeader(ScanType.RANGE, 2, 4, mask_codec=200)
    # the reserved zstd id is known, so a header may carry it
    StreamHeader(ScanType.RANGE, 2, 4, mask_codec=bytecomp.ZSTD_RESERVED)


# ---------------------------------------------------------------------------
# writer / reader


def test_write_read_identity():
    scans = small_scans(5)
    raw = build_stream(scans, frame_count=5)
    head, reader = read_stream(io.BytesIO(raw))
    assert head.frame_count == 5 and head.rows == 2 and head.cols == 4
    encs = list(reader)
    assert len(encs) == 5
    assert encs[0].mode == Mode.I
    state = CodecState()
    from jiffy.codec import decode
    for enc, scan in zip(encs, scans):
        assert decode(enc, state, head.scan_type, head.sample_width,
                      head.rows, head.cols) == scan


def test_streaming_mode_reads_to_eof():
    scans = small_scans(4)
    raw = build_stream(scans, frame_count=None)
    _, reader = read_stream(io.BytesIO(raw))
    assert len(list(reader)) == 4


def test_declared_count_enforced_on_close():
    head = StreamHeader(ScanType.RANGE, 2, 4, frame_count=2)
    buf = io.BytesIO()
    w = StreamWriter(buf, head)
    w.write_frame(encode(small_scans(1)[0], CodecState(), Mode.I))
    with pytest.raises(ValueError, match="declares 2"):
        w.close()
    # the context manager skips the check when the body already raised
    with pytest.raises(RuntimeError):
        with StreamWriter(io.BytesIO(), head):
            raise RuntimeError("boom")


def test_reader_stops_at_declared_count():
    scans = small_scans(3)
    raw = build_stream(scans, frame_count=3) + b"trailing junk ignored"
    _, reader = read_stream(io.BytesIO(raw))
    assert len(list(reader)) == 3


def test_truncations_carry_frame_index():
    raw = build_stream(small_scans(3), frame_count=3)
    # inside frame 0's payload
    _, reader = read_stream(io.BytesIO(raw[:HEADER_SIZE + 10]))
    with pytest.raises(TruncatedStreamError) as ei:
        next(reader)
    assert ei.value.frame_index == 0 and "frame 0" in str(ei.value)
    # a declared-count stream missing its last frame entirely
    _, reader = read_stream(io.BytesIO(raw[:-4]))
    with pytest.raises(TruncatedStreamError) as ei:
        list(reader)
    assert ei.value.frame_index == 2


def test_payload_corruption_detected_with_frame_index():
    raw = bytearray(build_stream(small_scans(3), frame_count=3))
    raw[-1] ^= 0x40                      # inside the last frame's payload
    _, reader = read_stream(io.BytesIO(bytes(raw)))
    with pytest.raises(ChecksumMismatchError) as ei:
        list(reader)
    assert ei.value.frame_index == 2


def test_codec_error_wrapped_with_frame_index():
    # valid CRC over a payload the codec rejects
    head = StreamHeader(ScanType.RANGE, 2, 4, frame_count=1)
    buf = io.BytesIO()
    buf.write(head.to_bytes())
    record = encode(small_scans(1)[0], CodecState(), Mode.I).to_bytes()
    payload = b"\xff" + record[1:]
    buf.write(struct.pack("<II", len(payload), zlib.crc32(payload)))
    buf.write(payload)
    _, reader = read_stream(io.BytesIO(buf.getvalue()))
    with pytest.raises(CorruptStreamError) as ei:
        next(reader)
    assert ei.value.frame_index == 0


def test_oversized_mask_rejected_before_inflating():
    # An 8x16 stream's masks are 16 bytes; this ~200 KB I-frame's mask block
    # declares, and really inflates to, 200 MiB.
    co = zlib.compressobj(level=9, wbits=-15)
    one_mib = co.compress(bytes(1 << 20)) + co.flush(zlib.Z_FULL_FLUSH)
    mask_block = (encode_uvarint(200 << 20) + bytes([bytecomp.DEFLATE])
                  + one_mib * 200 + co.flush())
    buf = io.BytesIO()
    write_stream(buf, StreamHeader(ScanType.RANGE, 8, 16, frame_count=1),
                 [EncodedScan(Mode.I, 0, mask_block, b"\x00")])  # no values
    raw = buf.getvalue()
    tracemalloc.start()
    try:
        _, reader = read_stream(io.BytesIO(raw))
        with pytest.raises(CorruptStreamError) as ei:
            next(reader)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ei.value.frame_index == 0
    assert peak < 4 * len(raw)


def test_forged_frame_length_read_in_bounded_chunks(tmp_path):
    # A real (buffered) file whose only frame declares 1 GiB but holds 26
    # bytes: the short read must end it, not a 1 GiB allocation.
    path = tmp_path / "forged.jfy"
    path.write_bytes(StreamHeader(ScanType.RANGE, 8, 16).to_bytes()
                     + struct.pack("<II", 1 << 30, 0) + bytes(26))
    tracemalloc.start()
    try:
        with open(path, "rb") as f:
            _, reader = read_stream(f)
            with pytest.raises(TruncatedStreamError) as ei:
                next(reader)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ei.value.frame_index == 0
    assert peak < 4 << 20


def test_sampled_byte_flips_always_detected():
    scans = small_scans(3)
    good = build_stream(scans, frame_count=3)
    for pos in range(0, len(good), 7):
        bad = bytearray(good)
        bad[pos] ^= 0x10
        try:
            head, reader = read_stream(io.BytesIO(bytes(bad)))
            encs = list(reader)
        except JiffyError:
            continue
        # a flip may survive parsing only if decode still catches it
        state = CodecState()
        from jiffy.codec import decode
        with pytest.raises(JiffyError):
            for enc in encs:
                decode(enc, state, head.scan_type, head.sample_width,
                       head.rows, head.cols)


def test_truncation_at_every_sampled_boundary():
    good = build_stream(small_scans(2), frame_count=2)
    for cut in range(0, len(good) - 1, 3):
        with pytest.raises(JiffyError):
            _, reader = read_stream(io.BytesIO(good[:cut]))
            list(reader)


def test_empty_stream_roundtrip():
    head = StreamHeader(ScanType.RANGE, 2, 4, frame_count=0)
    buf = io.BytesIO()
    assert write_stream(buf, head, []) == 0
    got, reader = read_stream(io.BytesIO(buf.getvalue()))
    assert got.frame_count == 0 and list(reader) == []
