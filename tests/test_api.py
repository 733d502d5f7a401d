import jiffy

PUBLIC = [
    "BadMagicError", "ChecksumMismatchError", "CodecState",
    "CorruptStreamError", "EncodedScan", "JiffyError", "Mode",
    "QuantizationSpec", "RawSequenceSpec", "Scan", "ScanType",
    "StreamHeader", "StreamReader", "StreamWriter", "TruncatedStreamError",
    "UnknownCodecError", "UnsupportedVersionError", "__version__", "decode",
    "dequantize", "encode", "generate", "quantize",
]


def test_public_names_are_exactly_the_listed_ones():
    # adding or removing a public name means editing this list on purpose
    assert sorted(jiffy.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in jiffy.__all__:
        getattr(jiffy, name)
