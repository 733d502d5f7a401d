"""Self-test of the benchmark: it must fail a wrong decoder, and its
percentile and self-time helpers must give known answers.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from jiffy import codec  # noqa: E402


def test_flipped_sample_fails_the_run(monkeypatch, capsys):
    real_decode = codec.decode

    def flipping_decode(*args, **kwargs):
        scan = real_decode(*args, **kwargs)
        scan.samples[0, 0] ^= 1
        return scan

    monkeypatch.setattr(codec, "decode", flipping_decode)
    rc = run.main(["--workload", "sparse_vertical", "--seed", "1",
                   "--seconds", "0", "--trace", "0"])
    lines = capsys.readouterr().out.splitlines()
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    assert rc != 0
    assert report["error_rate"] > 0
    assert result["correct"] is False and result["failed"] > 0
    assert result["metrics"] == {}


def test_percentile_on_fixed_inputs():
    samples = list(range(400, 0, -1))          # 1..400, unsorted
    assert stats.percentile(samples, 95) == 380
    assert stats.samples_beyond(400, 95) == 20
    assert stats.percentile([7.0], 95) == 7.0
    assert stats.samples_beyond(200, 95) == 10
    assert stats.samples_beyond(199, 95) == 9


def test_slot_medians_on_fixed_inputs():
    # three passes of two frames; a stall slows frame 0 of the middle pass
    rows = [[1.0, 5.0], [9.0, 6.0], [2.0, 4.0]]
    assert stats.slot_medians(rows, 3) == [2.0, 5.0]
    assert stats.slot_medians(rows, 1) == [1.0, 5.0, 9.0, 6.0, 2.0, 4.0]
    assert stats.slot_medians(rows, 2) == [5.0, 5.5, 5.5, 5.0]
    assert stats.slot_medians(rows, 4) == []


def test_self_time_on_fixed_inputs():
    # root [0, 100] with children a [10, 30] and b [20, 50] overlapping
    # (together they cover 40), a with grandchild [15, 25], and c [90, 120]
    # running past the root's end (counts only up to 100).
    spans = [["root", 0, 100, -1, "root"],
             ["a", 10, 30, 0, "root"],
             ["b", 20, 50, 0, "root"],
             ["g", 15, 25, 1, "root"],
             ["c", 90, 120, 0, "root"]]
    assert tracing.self_times(spans) == [50, 10, 30, 10, 30]


def test_trial_spans_are_kept_apart():
    spans = [["lib.encode", 0, 10, -1, "lib.encode"],
             ["codec.select_mode", 1, 4, 0, "lib.encode"],
             ["intcodec.pfor_encode", 2, 3, 1, "lib.encode"],
             ["intcodec.pfor_encode", 5, 9, 0, "lib.encode"]]
    assert tracing.in_trial(spans) == [False, False, True, False]


def test_wrappers_are_removed_after_a_traced_pass():
    before = [owner.__dict__[attr] for owner, attr, _ in tracing.SPANS]
    original = codec.pfor_encode
    with tracing.installed(tracing.Tracer(), timed=True):
        assert codec.pfor_encode is not original
    assert [owner.__dict__[attr]
            for owner, attr, _ in tracing.SPANS] == before
