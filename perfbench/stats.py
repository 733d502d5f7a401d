"""Order statistics used by the benchmark's metrics."""

import math
import statistics


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``pct``
    percent of all samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank percentile."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def quantiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as
    ``statistics.quantiles(values, n=4)`` cuts them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, median(values), q3


def slot_medians(rows, window: int) -> list[float]:
    """Running medians down each column of ``rows``.

    ``rows`` holds one list of per-frame latencies per pass, frames in
    stream order. For every frame slot and every ``window`` consecutive
    passes, the median of that slot's latencies is one sample. A host stall
    shorter than a pass slows one pass of a slot and is dropped; a frame
    whose coding is slow in every pass stays slow.
    """
    out = []
    for start in range(len(rows) - window + 1):
        group = rows[start:start + window]
        out.extend(median(col) for col in zip(*group))
    return out
