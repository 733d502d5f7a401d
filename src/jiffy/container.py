"""Stream container: header, length-prefixed CRC-checked frames, and
sequential reader/writer.

Layout (all integers little-endian, documented byte-exact in FORMAT.md):

    header (24 bytes):
        magic "JFY1" | version u8 | scan_type u8 | rows u16 | cols u16 |
        sample_width u8 | precision_um u32 | mask_codec u8 |
        frame_count u32 (0xFFFFFFFF = streaming/unknown) | header_crc32 u32

    frame record, repeated:
        frame_len u32 | payload_crc32 u32 | payload (EncodedScan bytes)

The CRC32 (IEEE) per frame is the integrity layer; the codec never is. A
reader needs one frame plus one reference scan in memory, nothing more.
"""

import struct
import zlib
from dataclasses import dataclass

from . import bytecomp
from .codec import EncodedScan
from .errors import (BadMagicError, ChecksumMismatchError, CorruptStreamError,
                     JiffyError, TruncatedStreamError, UnknownCodecError,
                     UnsupportedVersionError)
from .scan import ScanType, sample_dtype

MAGIC = b"JFY1"
VERSION = 1
STREAMING = 0xFFFFFFFF

_HEAD = struct.Struct("<4sBBHHBIBI")
HEADER_SIZE = _HEAD.size + 4
_FRAME = struct.Struct("<II")
_READ_CHUNK = 1 << 20
# mask_codec ids a header may carry; zstd is reserved but still a known id
_MASK_CODECS = (bytecomp.STORED, bytecomp.DEFLATE, bytecomp.ZSTD_RESERVED)


@dataclass(frozen=True)
class StreamHeader:
    scan_type: ScanType
    rows: int
    cols: int
    sample_width: int = 2
    precision_um: int = 1000
    mask_codec: int = bytecomp.DEFAULT_CODEC
    frame_count: int | None = None      # None while streaming/unknown

    def __post_init__(self):
        if not (0 < self.rows <= 0xFFFF and 0 < self.cols <= 0xFFFF):
            raise ValueError("rows and cols must be in 1..65535")
        sample_dtype(self.sample_width)
        if not 1 <= self.precision_um <= 0xFFFFFFFF:
            raise ValueError("precision_um out of range")
        if self.frame_count is not None and not 0 <= self.frame_count < STREAMING:
            raise ValueError("frame_count out of range")
        if self.mask_codec not in _MASK_CODECS:
            raise ValueError(f"unknown mask codec id {self.mask_codec}")
        object.__setattr__(self, "scan_type", ScanType(self.scan_type))

    def to_bytes(self) -> bytes:
        count = STREAMING if self.frame_count is None else self.frame_count
        body = _HEAD.pack(MAGIC, VERSION, int(self.scan_type), self.rows,
                          self.cols, self.sample_width, self.precision_um,
                          self.mask_codec, count)
        return body + struct.pack("<I", zlib.crc32(body))

    @classmethod
    def from_bytes(cls, data: bytes) -> "StreamHeader":
        if len(data) < HEADER_SIZE:
            raise TruncatedStreamError("stream shorter than header")
        if data[:4] != MAGIC:
            raise BadMagicError(f"bad magic {data[:4]!r}, expected {MAGIC!r}")
        body, (crc,) = data[:_HEAD.size], struct.unpack_from("<I", data, _HEAD.size)
        if zlib.crc32(body) != crc:
            raise ChecksumMismatchError("header checksum mismatch")
        _, version, stype, rows, cols, width, precision, codec, count = \
            _HEAD.unpack(body)
        if version != VERSION:
            raise UnsupportedVersionError(f"unsupported version {version}")
        if codec not in _MASK_CODECS:
            raise UnknownCodecError(f"unknown mask codec id {codec}")
        try:
            return cls(ScanType(stype), rows, cols, width, precision, codec,
                       None if count == STREAMING else count)
        except ValueError as e:
            raise CorruptStreamError(f"invalid header field: {e}") from None


class StreamWriter:
    """Appends checksummed frames to a binary sink.

    When the header declares a frame count, close() verifies it; a streaming
    header (frame_count=None) accepts any number of frames. ``bytes_written``
    counts the bytes given to the sink, which need not be seekable.
    """

    def __init__(self, sink, header: StreamHeader):
        self._sink = sink
        self.header = header
        self.frames_written = 0
        self.bytes_written = HEADER_SIZE
        sink.write(header.to_bytes())

    def write_frame(self, enc: EncodedScan):
        payload = enc.to_bytes()
        self._sink.write(_FRAME.pack(len(payload), zlib.crc32(payload)))
        self._sink.write(payload)
        self.frames_written += 1
        self.bytes_written += _FRAME.size + len(payload)

    def close(self):
        declared = self.header.frame_count
        if declared is not None and declared != self.frames_written:
            raise ValueError(f"header declares {declared} frames, "
                             f"{self.frames_written} written")

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.close()


class StreamReader:
    """Sequential frame reader; iterate to get EncodedScan records.

    With a declared frame count, any byte after the last record is an error.
    """

    def __init__(self, source):
        self._source = source
        self.header = StreamHeader.from_bytes(self._read_exact(
            HEADER_SIZE, "header"))
        self._mask_len = (self.header.rows * self.header.cols + 7) // 8
        self._index = 0

    def _read_exact(self, n: int, what: str) -> bytes:
        # A buffered read(n) allocates n bytes up front, so a forged length
        # is read in bounded chunks and fails at the first short one.
        chunks = []
        while n:
            want = min(n, _READ_CHUNK)
            chunk = self._source.read(want)
            if len(chunk) != want:
                raise TruncatedStreamError(f"truncated {what}")
            chunks.append(chunk)
            n -= want
        return b"".join(chunks)

    def __iter__(self):
        return self

    def __next__(self) -> EncodedScan:
        i = self._index
        declared = self.header.frame_count
        if declared is not None and i >= declared:
            if self._source.read(1):
                raise CorruptStreamError(
                    f"data after the last of {declared} declared frames")
            raise StopIteration
        head = self._source.read(_FRAME.size)
        if not head and declared is None:
            raise StopIteration            # clean end of a streaming file
        try:
            if len(head) != _FRAME.size:
                raise TruncatedStreamError("truncated frame header")
            length, crc = _FRAME.unpack(head)
            payload = self._read_exact(length, "frame payload")
            if zlib.crc32(payload) != crc:
                raise ChecksumMismatchError("frame checksum mismatch")
            enc = EncodedScan.from_bytes(payload, mask_len=self._mask_len)
        except JiffyError as e:
            raise type(e)(str(e), frame_index=i) from None
        self._index += 1
        return enc
