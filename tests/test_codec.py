import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jiffy import bytecomp, codec
from jiffy.bitmask import (compact, extract_mask, pack_mask, unpack_mask,
                           xor_mask)
from jiffy.codec import (CodecState, EncodedScan, Mode, decode, encode,
                         select_mode)
from jiffy.errors import CorruptStreamError
from jiffy.intcodec import delta_wrap, pfor_decode, pfor_encode, zigzag_wrap
from jiffy.scan import QuantizationSpec, Scan, ScanType, quantize
from jiffy.synthetic import generate


def mkscan(samples, width=2, stype=ScanType.RANGE):
    return Scan(stype, width, np.asarray(samples))


def rand_scan(rng, rows, cols, width=2, sparsity=0.3, stype=ScanType.RANGE):
    hi = (1 << (8 * width)) - 1
    s = rng.integers(0, hi + 1, size=(rows, cols), dtype=np.uint32)
    if sparsity > 0:
        s[rng.random((rows, cols)) < sparsity] = 0
    return Scan(stype, width, s)


def roundtrip(enc, state, proto):
    return decode(enc, state, proto.scan_type, proto.sample_width,
                  proto.rows, proto.cols)


# ---------------------------------------------------------------------------
# wire format


GOLDEN_SCAN = [[0, 5, 0, 7], [7, 7, 0, 9]]
# mode I | count 5 | stored mask block 0x45 | value block: PFOR of
# zigzag(delta([5,7,7,7,9])) = [10,4,0,0,4] -> ref 0, width 4, no exceptions
GOLDEN_BYTES = bytes.fromhex("000501004507050004004a0004")


def test_encoded_scan_golden_bytes():
    enc = encode(mkscan(GOLDEN_SCAN), CodecState(), Mode.I,
                 mask_codec=bytecomp.STORED)
    assert enc.to_bytes() == GOLDEN_BYTES
    assert enc.total_bytes == len(GOLDEN_BYTES)


def test_encoded_scan_from_golden_bytes():
    enc = EncodedScan.from_bytes(GOLDEN_BYTES)
    assert enc.mode == Mode.I and enc.value_count == 5
    state = CodecState()
    scan = roundtrip(enc, state, mkscan(GOLDEN_SCAN))
    assert scan.samples.tolist() == GOLDEN_SCAN


def test_from_bytes_rejects_garbage():
    with pytest.raises(CorruptStreamError):
        EncodedScan.from_bytes(b"")
    with pytest.raises(CorruptStreamError):
        EncodedScan.from_bytes(b"\x04" + GOLDEN_BYTES[1:])     # reserved bits
    with pytest.raises(CorruptStreamError):
        EncodedScan.from_bytes(GOLDEN_BYTES + b"\x00")         # trailing
    with pytest.raises(CorruptStreamError):
        EncodedScan.from_bytes(GOLDEN_BYTES[:-1])              # short


# sha256 over the wire bytes of 4 frames, 128x1024, seed 7, 1000 um, 2 bytes
GOLDEN_STREAM_SHA256 = {
    "random":
        "4912ffe7423099e69320371f6326c6003877ca6f781d56bea9b91c92ec58719d",
    "driving_like":
        "2a641bd23e94b6e73b147a708b64861dc28e1308441ed193a7f47684a650459c",
    "sparse_vertical":
        "7ffe281aec016badd25efca2b69956d22f8dcd01d5959d5f0d65037ffc18c4fb",
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_STREAM_SHA256))
def test_encoder_golden_stream_bytes(kind):
    spec = QuantizationSpec(1000, 2)
    state = CodecState()
    digest = hashlib.sha256()
    for frame in generate(kind, 4, 128, 1024, seed=7):
        digest.update(encode(quantize(frame, spec), state).to_bytes())
    assert digest.hexdigest() == GOLDEN_STREAM_SHA256[kind]


def test_encode_extracts_full_mask_once(monkeypatch):
    shapes = []
    extract = codec.extract_mask
    monkeypatch.setattr(codec, "extract_mask",
                        lambda a: shapes.append(a.shape) or extract(a))
    rng = np.random.default_rng(3)
    state = CodecState()
    for mode in (None, Mode.I, Mode.P):
        shapes.clear()
        scan = rand_scan(rng, 8, 16)
        encode(scan, state, mode)
        assert shapes.count((8, 16)) == 1
        assert np.array_equal(state.mask, extract(scan.samples))


@given(st.integers(0, 10_000))
def test_wire_roundtrip(seed):
    rng = np.random.default_rng(seed)
    enc = encode(rand_scan(rng, 3, 17), CodecState(), Mode.I)
    back = EncodedScan.from_bytes(enc.to_bytes())
    assert back == enc


def test_mask_block_inflated_once(monkeypatch):
    calls = []
    parse = bytecomp.parse_block
    monkeypatch.setattr(bytecomp, "parse_block",
                        lambda *a: calls.append(1) or parse(*a))
    proto = mkscan(GOLDEN_SCAN)
    enc = EncodedScan.from_bytes(GOLDEN_BYTES)
    roundtrip(enc, CodecState(), proto)
    assert len(calls) == 1                  # from_bytes; decode reuses it
    built = encode(proto, CodecState(), Mode.I)
    roundtrip(built, CodecState(), proto)
    roundtrip(built, CodecState(), proto)
    assert len(calls) == 2                  # first decode of a built scan


def test_mask_plaintext_follows_mask_block():
    enc = EncodedScan.from_bytes(GOLDEN_BYTES)
    assert enc.mask_plaintext == b"\x45"
    enc.mask_block = bytecomp.compress_block(b"\x44", bytecomp.STORED)
    assert enc.mask_plaintext == b"\x44"


# ---------------------------------------------------------------------------
# I-scans


def test_encode_i_all_zero():
    enc = encode(mkscan(np.zeros((4, 8), dtype=np.uint16)), CodecState(),
                 Mode.I)
    assert enc.value_count == 0
    assert pfor_decode(enc.value_block).size == 0
    mask = unpack_mask(bytecomp.decompress_block(enc.mask_block), (4, 8))
    assert mask.all()


def test_encode_i_constant_scan_pipeline_trace():
    # constant 1000: deltas [1000, 0 x31], zigzag [2000, 0 x31]
    enc = encode(mkscan(np.full((4, 8), 1000, dtype=np.uint16)), CodecState(),
                 Mode.I)
    codes = pfor_decode(enc.value_block)
    assert codes.tolist() == [2000] + [0] * 31


@given(st.integers(0, 10_000))
@settings(max_examples=60)
def test_encode_i_roundtrip(seed):
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(1, 20)), int(rng.integers(1, 40))
    width = int(rng.choice([1, 2, 4]))
    scan = rand_scan(rng, rows, cols, width, float(rng.random()))
    state = CodecState()
    out = roundtrip(encode(scan, CodecState(), Mode.I), state, scan)
    assert out == scan
    assert np.array_equal(state.samples, scan.samples)


# ---------------------------------------------------------------------------
# P-scans


def test_encode_p_requires_reference():
    # with no previous scan, a forced P codes the scan as a plain I-scan
    scan = mkscan(GOLDEN_SCAN)
    enc = encode(scan, CodecState(), Mode.P)
    assert enc == encode(scan, CodecState(), Mode.I)


def test_encode_p_shape_mismatch():
    state = CodecState()
    encode(mkscan(GOLDEN_SCAN), state)
    with pytest.raises(ValueError):
        encode(mkscan([[1, 2], [3, 4]]), state, Mode.P)


def test_identical_scan_codes_smaller_as_p():
    rng = np.random.default_rng(3)
    scan = rand_scan(rng, 16, 64, sparsity=0.2)
    state = CodecState()
    encode(scan, state)
    p = encode(scan, state, Mode.P)
    i = encode(scan, CodecState(), Mode.I)
    assert p.total_bytes < i.total_bytes
    # residuals are all zero -> value block is the minimal constant block
    dec_state = CodecState()
    dec_state.update(scan.samples, extract_mask(scan.samples))
    assert roundtrip(p, dec_state, scan) == scan


def test_p_after_all_zero_previous():
    prev = mkscan(np.zeros((4, 8), dtype=np.uint16))
    cur = mkscan(np.arange(32, dtype=np.uint16).reshape(4, 8))
    state = CodecState()
    encode(prev, state)
    enc = encode(cur, state, Mode.P)
    # prev contributes nothing: residuals equal the current values
    codes = pfor_decode(enc.value_block)
    vals = cur.samples[cur.samples != 0].astype(np.uint32)
    assert np.array_equal(codes, zigzag_wrap(delta_wrap(vals)))
    dec = CodecState()
    dec.update(prev.samples, extract_mask(prev.samples))
    assert roundtrip(enc, dec, cur) == cur


@given(st.integers(0, 10_000))
@settings(max_examples=60)
def test_encode_p_roundtrip(seed):
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(1, 16)), int(rng.integers(1, 40))
    width = int(rng.choice([1, 2, 4]))
    prev = rand_scan(rng, rows, cols, width, 0.3)
    # current = previous plus small jitter, plus some fresh dropout
    cur = prev.samples.astype(np.int64) + rng.integers(-3, 4, prev.samples.shape)
    hi = (1 << (8 * width)) - 1
    cur = np.clip(cur, 0, hi).astype(prev.samples.dtype)
    cur_scan = Scan(prev.scan_type, width, cur)

    est = CodecState()
    encode(prev, est)
    enc = encode(cur_scan, est, Mode.P)
    dst = CodecState()
    encode(prev, dst)       # decoder reached the same reference via frame 1
    dst2 = CodecState()
    roundtrip(encode(prev, CodecState(), Mode.I), dst2, prev)
    out = roundtrip(enc, dst2, cur_scan)
    assert out == cur_scan


def test_residual_plain_variant_roundtrips():
    # mode bit1 on a P-scan: residuals skip the spatial delta. The encoder
    # never emits it, so the record is built by hand.
    rng = np.random.default_rng(9)
    prev, cur = rand_scan(rng, 8, 16), rand_scan(rng, 8, 16)
    cur_mask = extract_mask(cur.samples)
    residuals = (compact(cur.samples, cur_mask)
                 - compact(prev.samples, cur_mask))
    mask_block = bytecomp.compress_block(
        pack_mask(xor_mask(cur_mask, extract_mask(prev.samples))))
    built = EncodedScan(Mode.P, residuals.size, mask_block,
                        pfor_encode(zigzag_wrap(residuals)),
                        residual_plain=True)
    wire = built.to_bytes()
    assert wire[0] == 0x03
    enc = EncodedScan.from_bytes(wire)
    assert enc.residual_plain
    dec = CodecState()
    roundtrip(encode(prev, CodecState(), Mode.I), dec, prev)
    assert roundtrip(enc, dec, cur) == cur


def test_residual_plain_bit_ignored_on_i_scan():
    rng = np.random.default_rng(10)
    scan = rand_scan(rng, 8, 16)
    plain = encode(scan, CodecState(), Mode.I)
    flagged = EncodedScan.from_bytes(bytes([0x02]) + plain.to_bytes()[1:])
    assert flagged.mode == Mode.I and flagged.residual_plain
    assert roundtrip(flagged, CodecState(), scan) == \
        roundtrip(plain, CodecState(), scan) == scan


def test_encoder_never_sets_residual_plain():
    rng = np.random.default_rng(11)
    base = rng.integers(500, 600, size=(8, 16), dtype=np.uint16)
    state = CodecState()
    encs = [encode(Scan(ScanType.RANGE, 2, base + k), state)
            for k in range(4)]
    assert Mode.P in [e.mode for e in encs]
    assert all(e.to_bytes()[0] & 0x02 == 0 for e in encs)


# ---------------------------------------------------------------------------
# mode selection


def test_first_scan_is_always_i():
    assert select_mode(mkscan(GOLDEN_SCAN), CodecState()) == Mode.I
    state = CodecState()
    enc = encode(mkscan(GOLDEN_SCAN), state, Mode.P)
    assert enc.mode == Mode.I


def test_static_sequence_selects_p():
    rng = np.random.default_rng(4)
    base = rng.integers(500, 600, size=(16, 64), dtype=np.uint16)
    state = CodecState()
    encode(Scan(ScanType.RANGE, 2, base), state)
    jitter = base + rng.integers(0, 2, base.shape).astype(np.uint16)
    assert select_mode(Scan(ScanType.RANGE, 2, jitter), state) == Mode.P


def test_decorrelated_sequence_selects_i():
    rng = np.random.default_rng(5)
    state = CodecState()
    encode(rand_scan(rng, 16, 64, sparsity=0), state)
    assert select_mode(rand_scan(rng, 16, 64, sparsity=0), state) == Mode.I


def test_forced_policies():
    rng = np.random.default_rng(6)
    a, b = rand_scan(rng, 8, 16), rand_scan(rng, 8, 16)
    state = CodecState()
    encode(a, state)
    assert encode(b, state, Mode.I).mode == Mode.I
    assert encode(b, state, Mode.P).mode == Mode.P


def test_forced_i_holds_where_auto_picks_p():
    # Mode.I == 0 is falsy: forcing it must not fall back to the trial
    rng = np.random.default_rng(12)
    base = rng.integers(500, 600, size=(16, 64), dtype=np.uint16)
    scans = [Scan(ScanType.RANGE, 2, base + k) for k in range(4)]
    auto, forced = CodecState(), CodecState()
    assert [encode(s, auto).mode for s in scans] == [Mode.I] + [Mode.P] * 3
    assert [encode(s, forced, Mode.I).mode for s in scans] == [Mode.I] * 4


def test_test_lines_clamped_to_rows():
    rng = np.random.default_rng(7)
    state = CodecState()
    encode(rand_scan(rng, 2, 30), state)
    # more test lines than rows must not crash or duplicate rows
    assert select_mode(rand_scan(rng, 2, 30), state, 16) in (Mode.I, Mode.P)


def test_test_lines_must_be_positive():
    state = CodecState()
    encode(mkscan(GOLDEN_SCAN), state)
    with pytest.raises(ValueError, match="test_lines"):
        select_mode(mkscan(GOLDEN_SCAN), state, 0)


@given(st.integers(0, 2_000))
@settings(max_examples=30, deadline=None)
def test_mode_policies_decode_identically(seed):
    rng = np.random.default_rng(seed)
    scans = [rand_scan(rng, 6, 24, sparsity=0.3) for _ in range(4)]
    results = []
    for mode in (None, Mode.I, Mode.P):
        est = CodecState()
        encs = [encode(s, est, mode) for s in scans]
        dst = CodecState()
        results.append([roundtrip(e, dst, scans[0]) for e in encs])
    for decoded in results:
        assert all(a == b for a, b in zip(decoded, scans))


# ---------------------------------------------------------------------------
# decode error paths


def test_decode_p_without_reference():
    rng = np.random.default_rng(8)
    scan = rand_scan(rng, 4, 8)
    state = CodecState()
    encode(scan, state)
    enc = encode(scan, state, Mode.P)
    with pytest.raises(CorruptStreamError):
        roundtrip(enc, CodecState(), scan)


def test_decode_count_mismatch():
    enc = encode(mkscan(GOLDEN_SCAN), CodecState(), Mode.I)
    bad = EncodedScan(enc.mode, enc.value_count + 1, enc.mask_block,
                      enc.value_block)
    with pytest.raises(CorruptStreamError):
        roundtrip(bad, CodecState(), mkscan(GOLDEN_SCAN))


def test_decode_zero_outside_mask():
    scan = mkscan([[5, 7]])
    enc = encode(scan, CodecState(), Mode.I)
    forged = pfor_encode(zigzag_wrap(delta_wrap(
        np.array([0, 7], dtype=np.uint32))))
    bad = EncodedScan(Mode.I, 2, enc.mask_block, forged)
    with pytest.raises(CorruptStreamError, match="zero sample"):
        roundtrip(bad, CodecState(), scan)


def test_decode_sample_too_wide():
    scan = mkscan([[5, 7]], width=1)
    enc = encode(scan, CodecState(), Mode.I)
    forged = pfor_encode(zigzag_wrap(delta_wrap(
        np.array([300, 7], dtype=np.uint32))))
    bad = EncodedScan(Mode.I, 2, enc.mask_block, forged)
    with pytest.raises(CorruptStreamError, match="sample width"):
        roundtrip(bad, CodecState(), scan)


def test_decode_value_block_count_mismatch():
    scan = mkscan([[5, 7]])
    enc = encode(scan, CodecState(), Mode.I)
    forged = pfor_encode(np.array([10], dtype=np.uint32))
    bad = EncodedScan(Mode.I, 2, enc.mask_block, forged)
    with pytest.raises(CorruptStreamError):
        roundtrip(bad, CodecState(), scan)
