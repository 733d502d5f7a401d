"""Jiffy: lossless compression for LiDAR range and attribute scan sequences.

Pipeline: quantize -> zero-mask -> flatten -> delta -> ZigZag -> patched
frame-of-reference bitpacking, with automatic intra/predicted scan coding
and a checksummed stream container.

Quick use::

    from jiffy import (Scan, ScanType, QuantizationSpec, quantize,
                       CodecState, encode, decode)

    spec = QuantizationSpec(precision_um=1000, sample_width=2)
    scan = quantize(range_image_m, spec)            # float meters -> Scan
    state = CodecState()
    enc = encode(scan, state)                       # EncodedScan
    ...

Streams on disk go through StreamWriter / StreamReader; the `jiffy`
console script wraps the whole thing. ``encode(scan, state, Mode.I)`` or
``Mode.P`` forces the scan mode instead of trial-compressing. The single
stages (jiffy.bitmask, jiffy.intcodec, jiffy.bytecomp), jiffy.codec's
select_mode and the jiffy.bench harness are imported from their modules.
"""

from .codec import CodecState, EncodedScan, Mode, decode, encode
from .container import (StreamHeader, StreamReader, StreamWriter, read_stream,
                        write_stream)
from .errors import (BadMagicError, ChecksumMismatchError, CorruptStreamError,
                     JiffyError, TruncatedStreamError, UnknownCodecError,
                     UnsupportedVersionError)
from .rawio import RawSequenceSpec
from .scan import (BeamLayout, QuantizationSpec, Scan, ScanType, canonicalize,
                   dequantize, quantize)
from .synthetic import generate

__version__ = "0.1.0"

__all__ = [
    "Scan", "ScanType", "QuantizationSpec", "BeamLayout",
    "quantize", "dequantize", "canonicalize",
    "Mode", "CodecState", "EncodedScan",
    "encode", "decode",
    "StreamHeader", "StreamWriter", "StreamReader", "read_stream",
    "write_stream", "RawSequenceSpec", "generate",
    "JiffyError", "CorruptStreamError", "TruncatedStreamError",
    "ChecksumMismatchError", "BadMagicError", "UnsupportedVersionError",
    "UnknownCodecError",
    "__version__",
]
