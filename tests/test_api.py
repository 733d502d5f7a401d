import jiffy
from jiffy import errors

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


def test_every_error_class_carries_frame_index():
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, jiffy.JiffyError)]
    assert len(classes) == 7
    for cls in classes:
        e = cls("bad")
        assert e.frame_index is None and str(e) == "bad"
        e = cls("bad", frame_index=3)
        assert e.frame_index == 3 and str(e) == "frame 3: bad"
