"""Log-domain values.

Quantities like extinction probabilities from high starting counts decay
geometrically and fall below the smallest positive double long before the
state space is exhausted, so they are carried as natural logs; LOG_ZERO is
the log of 0, and logsumexp_1d sums positive values given by their logs.
"""

from __future__ import annotations

import numpy as np

LOG_ZERO = float("-inf")


def logsumexp_1d(a: np.ndarray) -> float:
    """log(sum(exp(a))) for a 1-d array that may be empty or all -inf."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return LOG_ZERO
    m = np.max(a)
    if np.isneginf(m):
        return LOG_ZERO
    return float(m + np.log(np.sum(np.exp(a - m))))
