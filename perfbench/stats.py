"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile that has at least MIN_BEYOND samples
    above its rank; a tail estimated from fewer samples raises ValueError."""
    data = sorted(values)
    n = len(data)
    if not 0 < q < 100:
        raise ValueError("q must lie strictly between 0 and 100")
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} needs {MIN_BEYOND} samples beyond it; {n} samples leave {n - rank}"
        )
    return data[rank - 1]


def median(values) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with Python's default quartile method."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
