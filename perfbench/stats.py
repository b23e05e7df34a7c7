"""Order statistics shared by every workload.

A timing is reported as its median and its tail.  The tail is the p99
when the sample leaves at least ten samples beyond it; otherwise it is the
highest of :data:`TAIL_PERCENTILES` that does, so a short run never
reports a "p99" that rests on one or two samples.
"""

from __future__ import annotations

import math
import statistics

#: Tail percentiles tried from the highest down.
TAIL_PERCENTILES = (99.0, 98.0, 97.0, 96.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def nearest_rank(sorted_values, percent: float) -> float:
    """The *percent*-th percentile of ascending *sorted_values* by nearest rank."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(percent / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def beyond(n: int, percent: float) -> int:
    """How many of *n* samples lie above the nearest-rank *percent*-th one."""
    return n - max(1, math.ceil(percent / 100.0 * n))


def tail(values) -> tuple[float, float, int]:
    """Return ``(percent, value, n)`` for the reportable tail of *values*.

    *percent* is the highest of :data:`TAIL_PERCENTILES` with at least
    :data:`MIN_BEYOND` samples beyond it; with fewer than that many samples
    in total the maximum is reported as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    for percent in TAIL_PERCENTILES:
        if beyond(n, percent) >= MIN_BEYOND:
            return percent, nearest_rank(ordered, percent), n
    if not ordered:
        raise ValueError("no samples")
    return 100.0, ordered[-1], n


def median(values) -> float:
    """The median of *values* (which must be non-empty)."""
    return float(statistics.median(values))
