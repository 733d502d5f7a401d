"""
A tour of the .jfy stream file
==============================

Writes a short stream to disk, reads the header bytes back by hand,
then corrupts a byte to show that the reader pins the damage to a frame.
"""

import struct
import tempfile
from pathlib import Path

import numpy as np

from jiffy import ScanType
from jiffy.codec import CodecState, decode, encode
from jiffy.container import (HEADER_SIZE, StreamHeader, StreamReader,
                             StreamWriter)
from jiffy.errors import JiffyError
from jiffy.scan import Scan
from jiffy.synthetic import generate

with tempfile.TemporaryDirectory() as tmp:
    workdir = Path(tmp)
    path = workdir / "tour.jfy"

    # 1. write three frames
    seq = generate("static_scene", 3, 16, 64, seed=31)
    state = CodecState()
    header = StreamHeader(ScanType.RANGE, 16, 64, sample_width=2,
                          precision_um=1000, frame_count=3)
    with open(path, "wb") as sink, StreamWriter(sink, header) as writer:
        for frame in seq:
            q = np.round(frame * 1000).astype(np.uint16)
            writer.write_frame(encode(Scan(ScanType.RANGE, 2, q), state))
    print(f"wrote {path.stat().st_size} bytes")

    # 2. the first 24 bytes are the header; pick it apart manually
    blob = path.read_bytes()
    magic, version, stype, rows, cols, width, precision, codec, count = \
        struct.unpack_from("<4sBBHHBIBI", blob)
    print(f"header: magic={magic} v{version} scan_type={stype} "
          f"{rows}x{cols} width={width} precision={precision}um "
          f"mask_codec={codec} frames={count}")
    print(f"        crc32=0x{struct.unpack_from('<I', blob, 20)[0]:08x}")

    # 3. each frame record is [length u32][crc32 u32][payload]
    pos = HEADER_SIZE
    payload_at = []
    for i in range(3):
        length, crc = struct.unpack_from("<II", blob, pos)
        print(f"frame {i}: {length} payload bytes at offset {pos + 8}, "
              f"crc 0x{crc:08x}")
        payload_at.append(pos + 8)
        pos += 8 + length

    # 4. normal read: header first, then one encoded scan per iteration
    with open(path, "rb") as f:
        reader = StreamReader(f)
        head = reader.header
        dec = CodecState()
        for i, enc in enumerate(reader):
            scan = decode(enc, dec, head.scan_type, head.sample_width,
                          head.rows, head.cols)
            print(f"frame {i}: mode {enc.mode.name}, "
                  f"{(scan.samples > 0).sum()} returns")

    # 5. flip one byte inside the middle frame; the reader names the culprit
    damaged = bytearray(blob)
    damaged[payload_at[1] + 5] ^= 0x20
    bad = workdir / "damaged.jfy"
    bad.write_bytes(bytes(damaged))
    try:
        with open(bad, "rb") as f:
            list(StreamReader(f))
    except JiffyError as e:
        print(f"corruption detected: {e} (frame_index={e.frame_index})")
