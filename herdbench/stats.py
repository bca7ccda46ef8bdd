"""Order statistics the benchmark reports, in one place.

``percentile`` is the nearest-rank-with-interpolation rule of
``statistics.quantiles(method="inclusive")``; ``tail_percentile``
picks the highest percentile the sample can support (at least ten
samples beyond it — choosing-metrics §1); ``spread`` is the
interquartile distance as a share of the median, the figure the
``compare`` verdicts and the driver's steadiness check both use.
"""

from __future__ import annotations

import statistics
from typing import Optional, Sequence

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0..100) by linear interpolation
    between closest ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def supports(n: int, p: float) -> bool:
    """Whether ``n`` samples leave at least :data:`MIN_BEYOND` beyond
    the ``p``-th percentile."""
    # The epsilon absorbs 100.0 - 99.9 == 0.09999999999999432.
    return n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9


def tail_percentile(n: int) -> Optional[float]:
    """The highest percentile of :data:`TAIL_LADDER` that ``n``
    samples support, or ``None`` below 40 samples."""
    for p in TAIL_LADDER:
        if supports(n, p):
            return p
    return None


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for fewer
    than two values or a zero median)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0
