"""In-memory span recorder and the wrappers that feed it.

A traced pass replaces public jiffy functions with wrappers at the module
attributes their callers resolve (``jiffy.codec.pfor_encode`` is the name
``codec.encode_i`` looks up, ``jiffy.cli.quantize`` the one ``jiffy compress``
looks up). Each wrapper records a span (name, start, end, parent) or bumps a
call count. Nothing is written until the run ends, and untraced passes run
with the original functions in place.
"""

import functools
import time
from collections import Counter

from jiffy import bytecomp, cli, codec, container, intcodec, rawio

# (owner, attribute, span name). A layer is wrapped wherever a caller binds it.
SPANS = [
    (codec, "encode", "codec.encode"),
    (cli, "encode", "codec.encode"),
    (codec, "decode", "codec.decode"),
    (cli, "decode", "codec.decode"),
    (codec, "select_mode", "codec.select_mode"),
    (codec, "pfor_encode", "intcodec.pfor_encode"),
    (codec, "pfor_decode", "intcodec.pfor_decode"),
    *[(codec, fn, "intcodec.delta_zigzag")
      for fn in ("delta_wrap", "delta_unwrap", "zigzag_wrap", "zigzag_unwrap")],
    *[(codec, fn, "bitmask")
      for fn in ("extract_mask", "compact", "expand", "xor_mask", "pack_mask",
                 "unpack_mask")],
    (bytecomp, "compress_block", "bytecomp.deflate"),
    (bytecomp, "parse_block", "bytecomp.inflate"),
    (cli, "quantize", "scan.quantize"),
    (cli, "dequantize", "scan.dequantize"),
    (container.StreamWriter, "write_frame", "container.write"),
    (container.StreamReader, "__next__", "container.read"),
]
# Generator functions: one span per item produced.
GENERATORS = [(rawio, "read_frames", "rawio.read")]
# Hot scalar helpers: counted, not timed, to keep the tracing cost down.
COUNTED = [(mod, "decode_uvarint", "varint.decode_uvarint")
           for mod in (codec, intcodec, bytecomp)]

TRIAL_PARENT = "codec.select_mode"


class Tracer:
    """Spans as ``[name, start_ns, end_ns, parent_index, root_name]``.

    The benchmark opens a root span around each frame operation or CLI call;
    counts are keyed by (name, root name).
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        stack = self._stack
        if stack:
            parent = stack[-1]
            root = self.spans[stack[0]][0]
        else:
            parent, root = -1, name
        self.spans.append([name, time.perf_counter_ns(), 0, parent, root])
        stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, name: str):
        root = self.spans[self._stack[0]][0] if self._stack else None
        self.counts[name, root] += 1


def _span_wrapper(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)
    return wrapper


def _generator_wrapper(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        items = fn(*args, **kwargs)
        while True:
            idx = tracer.open(name)
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                tracer.close(idx)
            yield item
    return wrapper


def _count_wrapper(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)
    return wrapper


class installed:
    """Context manager: wrappers in place on entry, originals back on exit.

    ``timed`` installs the span wrappers; otherwise only the call counters,
    whose cost would swamp the spans of the layers that call them.
    """

    def __init__(self, tracer: Tracer, timed: bool):
        if timed:
            self._plan = ([(o, a, n, _span_wrapper) for o, a, n in SPANS]
                          + [(o, a, n, _generator_wrapper)
                             for o, a, n in GENERATORS])
        else:
            self._plan = [(o, a, n, _count_wrapper) for o, a, n in COUNTED]
        self._tracer = tracer
        self._saved = []

    def __enter__(self):
        for owner, attr, name, make in self._plan:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(self._tracer, original, name))
        return self._tracer

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def self_times(spans) -> list[int]:
    """Per span: its duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        cur_start = cur_end = None
        for s, e in sorted((max(spans[c][1], start), min(spans[c][2], end))
                           for c in children[i]):
            if e <= s:
                continue
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(end - start - covered)
    return out


def in_trial(spans) -> list[bool]:
    """True for spans opened (directly or not) inside the I/P mode trial."""
    flags = []
    for name, _, _, parent, _ in spans:
        flags.append(parent >= 0 and (flags[parent]
                                      or spans[parent][0] == TRIAL_PARENT))
    return flags
