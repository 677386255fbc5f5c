"""Order statistics shared by the benchmark runner, tracer and comparer."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

__all__ = ["median", "percentile", "tail_percentile", "quartiles", "iqr"]


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample (NaN when empty)."""
    return statistics.median(values) if values else math.nan


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation.

    Matches ``numpy.percentile``'s default method; NaN for an empty
    sample.
    """
    if not values:
        return math.nan
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(count: int, candidates=(99.0, 95.0, 90.0)) -> Optional[float]:
    """The highest candidate percentile with at least ten samples beyond it."""
    for q in candidates:
        if count * (1.0 - q / 100.0) >= 10.0:
            return q
    return None


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile of a non-empty sample.

    Uses ``statistics.quantiles(values, n=4)`` (the exclusive method),
    the same rule the benchmark's repeatability check applies.
    """
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartile."""
    q1, q3 = quartiles(values)
    return q3 - q1
