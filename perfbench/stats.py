"""Summary statistics with the benchmark's percentile rule: a percentile
is reported only when at least ten samples lie beyond it."""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10

#: The tail percentiles tried, highest first.
TAIL_PERCENTILES = (99.0, 90.0, 75.0)


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The nearest-rank ``q``-th percentile, or None when fewer than
    :data:`MIN_BEYOND` samples lie beyond its rank."""
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def median(samples: Sequence[float]) -> float:
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """``(q, value)`` for the highest of :data:`TAIL_PERCENTILES` the
    rule allows; the median when none is allowed."""
    for q in TAIL_PERCENTILES:
        value = percentile(samples, q)
        if value is not None:
            return q, value
    return 50.0, median(samples)
