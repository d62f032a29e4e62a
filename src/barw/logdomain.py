"""Log-domain values.

Quantities like extinction probabilities from high starting counts decay
geometrically and fall below the smallest positive double long before the
state space is exhausted, so they are carried as natural logs.  LogValue
holds one real number as a (sign, log|value|) pair; logsumexp_1d sums
positive values given by their logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOG_ZERO = float("-inf")


@dataclass(frozen=True)
class LogValue:
    """A real number stored as a sign and the natural log of its magnitude."""

    sign: int
    log_magnitude: float

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign}")
        if self.sign == 0 and not math.isinf(self.log_magnitude):
            raise ValueError("zero values must carry log_magnitude -inf")

    @classmethod
    def from_real(cls, x: float) -> "LogValue":
        if x == 0.0:
            return cls(0, LOG_ZERO)
        return cls(1 if x > 0 else -1, math.log(abs(x)))

    def to_real(self) -> float:
        """Materialize to a plain float (may overflow to inf or underflow to 0)."""
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_magnitude)

    def __float__(self) -> float:
        return self.to_real()


def logsumexp_1d(a: np.ndarray) -> float:
    """log(sum(exp(a))) for a 1-d array that may be empty or all -inf."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return LOG_ZERO
    m = np.max(a)
    if np.isneginf(m):
        return LOG_ZERO
    return float(m + np.log(np.sum(np.exp(a - m))))
