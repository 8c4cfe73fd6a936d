"""Order statistics and ratios the benchmark reports."""

from __future__ import annotations

import math

TAIL_PERCENTILES = (99, 95, 90, 75)
MIN_BEYOND = 10


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of samples at or below it."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, p: float) -> int:
    """Samples strictly above the nearest-rank p-th percentile of ``count`` samples."""
    return count - max(1, math.ceil(p / 100 * count))


def tail_percentile(count: int) -> int:
    """Highest of TAIL_PERCENTILES with at least MIN_BEYOND samples beyond it.

    Falls back to the median when there are too few samples for any.
    """
    for p in TAIL_PERCENTILES:
        if beyond(count, p) >= MIN_BEYOND:
            return p
    return 50


def failed_ratio(failed: int, attempted: int) -> float:
    """Failed operations over operations attempted; nothing attempted is all failed."""
    return failed / attempted if attempted else 1.0
