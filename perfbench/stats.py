"""Order statistics for benchmark samples.

Quartiles follow `statistics.quantiles(values, n=4)` (the default
"exclusive" method), which is also how run-to-run spread is judged.
"""

from __future__ import annotations

import statistics

# Tail percentiles considered, highest first; one is reported only when at
# least MIN_BEYOND samples lie beyond it.
TAILS = (99.9, 99.0, 90.0)
MIN_BEYOND = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def tail_percentile(n: int) -> float | None:
    """Highest of TAILS with at least MIN_BEYOND of n samples beyond it."""
    for p in TAILS:
        if round(n * (100.0 - p) / 100.0, 6) >= MIN_BEYOND:   # round off 100 - 99.9 != 0.1
            return p
    return None


def summarize(values: list[float]) -> dict:
    """Sample count, median and the highest tail percentile the count
    supports, e.g. {"n": 120, "p50": 1.9, "p90": 2.4}."""
    out = {"n": len(values), "p50": statistics.median(values)}
    p = tail_percentile(len(values))
    if p is not None:
        cuts = statistics.quantiles(values, n=1000)
        out[f"p{p:g}"] = cuts[round(p * 10) - 1]
    return out
