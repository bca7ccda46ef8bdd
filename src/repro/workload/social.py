"""Heavy-tailed social graph degree models for the Drac comparison.

Drac's chaffing cost and anonymity both derive from the social graph:
each user keeps one chaffed connection per contact, and the anonymity
set at H hops is the H-hop neighbourhood (§4.1.1, §4.1.5).  The paper
uses Twitter and Facebook datasets; we synthesize degree sequences from
a discrete truncated power law calibrated so that the *median* and
*maximum* degrees match the published numbers (DESIGN.md E2/E3).  The
paper only ever needs degree statistics, so no graph is materialized:
H = 1 is the degree itself, and H ≥ 2 the paper's
``median_degree ** H`` estimate (:func:`estimated_anonymity_set`).
"""

from __future__ import annotations

import random
from typing import Optional

import numpy as np


def _zipf_weights(max_degree: int, alpha: float) -> np.ndarray:
    degrees = np.arange(1, max_degree + 1, dtype=np.float64)
    return degrees ** (-alpha)


def calibrate_alpha(median_degree: int, max_degree: int,
                    tolerance: float = 0.25) -> float:
    """Find the power-law exponent whose truncated Zipf distribution on
    [1, max_degree] has the requested median degree (bisection)."""
    if median_degree < 1 or median_degree > max_degree:
        raise ValueError("median degree must lie in [1, max_degree]")

    def median_for(alpha: float) -> float:
        w = _zipf_weights(max_degree, alpha)
        cdf = np.cumsum(w) / np.sum(w)
        return float(np.searchsorted(cdf, 0.5) + 1)

    lo, hi = 0.01, 6.0
    # median_for is decreasing in alpha.
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        m = median_for(mid)
        if abs(m - median_degree) <= tolerance:
            return mid
        if m > median_degree:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def degree_sequence(n: int, median_degree: int, max_degree: int,
                    rng: Optional[random.Random] = None,
                    alpha: Optional[float] = None,
                    include_max: bool = True) -> np.ndarray:
    """Draw ``n`` degrees from a truncated power law.

    ``include_max=True`` pins the single largest sample to
    ``max_degree`` so the published maxima (e.g. Facebook's 6.2 GB/s
    user) appear at every scale.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    rng = rng or random.Random(0)
    if alpha is None:
        alpha = calibrate_alpha(median_degree, max_degree)
    weights = _zipf_weights(max_degree, alpha)
    cdf = np.cumsum(weights) / np.sum(weights)
    draws = np.array([rng.random() for _ in range(n)])
    degrees = np.searchsorted(cdf, draws) + 1
    if include_max and n > 1:
        degrees[int(np.argmax(degrees))] = max_degree
    return degrees.astype(np.int64)


def estimated_anonymity_set(median_degree: int, hops: int) -> float:
    """The paper's estimate for H ≥ 2: anonymity grows as
    ``median_degree ** H`` (§4.1.5: "estimate the sizes for H = 2, 3
    using the median node degrees")."""
    if hops < 1:
        raise ValueError("hops must be at least 1")
    return float(median_degree) ** hops
