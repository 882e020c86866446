"""Summary statistics for timing samples."""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    data = sorted(values)
    if not data:
        raise ValueError("no samples")
    pos = (len(data) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_percentile(values):
    """Highest percentile with at least MIN_BEYOND samples above it.

    Returns (p, value), or None when there are too few samples for any.
    """
    for p in TAIL_PERCENTILES:
        value = percentile(values, p)
        if sum(v > value for v in values) >= MIN_BEYOND:
            return p, value
    return None


def summarize(values) -> dict:
    """Median, sample count, quartiles and the tail percentile rule."""
    values = list(values)
    out = {"samples": len(values), "median": statistics.median(values) if values else None}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["quartiles"] = [q1, q3]
    tail = tail_percentile(values) if values else None
    out["tail"] = None if tail is None else {"p": tail[0], "value": tail[1]}
    return out


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, as statistics.quantiles(n=4) gives the quartiles."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
