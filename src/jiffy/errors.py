"""Exception hierarchy for codec and container failures.

API misuse (wrong shapes, invalid parameters) raises plain ValueError/TypeError.
Errors below are reserved for data that arrived malformed: anything a decoder
can hit while consuming bytes it did not produce itself. Every one carries
``frame_index``: the container frame it arose in, or None.
"""


class JiffyError(Exception):
    """Base class for all library-specific errors.

    ``frame_index`` is set when the error can be attributed to a specific
    frame of a container stream (None otherwise); the message then starts
    with ``frame N: ``.
    """

    def __init__(self, message: str, frame_index: int | None = None):
        if frame_index is not None:
            message = f"frame {frame_index}: {message}"
        super().__init__(message)
        self.frame_index = frame_index


class CorruptStreamError(JiffyError):
    """Encoded data is malformed, inconsistent, or fails validation."""


class TruncatedStreamError(CorruptStreamError):
    """Input ended before a complete record could be read."""


class ChecksumMismatchError(CorruptStreamError):
    """Stored CRC32 does not match the received payload."""


class BadMagicError(CorruptStreamError):
    """Stream does not start with the container magic bytes."""


class UnsupportedVersionError(CorruptStreamError):
    """Container format version is not supported by this build."""


class UnknownCodecError(JiffyError):
    """Byte-compressor id is not one this build can encode or decode."""
