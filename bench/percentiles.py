"""Order statistics shared by the worker, the runner and ``compare.py``."""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence

#: A percentile is only reported when at least this many samples lie
#: beyond it; otherwise it describes one or two outliers, not a tail.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q < 100) of ``values``.

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples lie
    beyond the percentile's rank.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    n = len(values)
    rank = max(1, math.ceil(q / 100 * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {n - rank} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return sorted(values)[rank - 1]


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` exactly as ``statistics.quantiles(n=4)`` gives
    them (one value repeats itself)."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else math.inf
