"""Mean-field count chain for branching-annihilating random walk.

On the complete graph the occupied-site count is a Markov chain: from x
occupied sites each surviving site is kept independently with probability
b(x) = (lam*x/n) * exp(-lam*x/n), so the next count is Bin(n, b(x)).
This module holds the model parameters, the transition kernel in log
domain with its log-factorial table, the equilibrium level, the threshold
integerization and the Galton-Watson extinction-probability solver used
throughout the bounds.

Kernel rows are natural logs: hitting probabilities from high counts decay
geometrically and fall below the smallest double long before the state
space is exhausted.  LOG_ZERO is the log of 0 and `_logsumexp_rows` sums in
logs; the exact solves and the hitting sampler build rows blockwise here.

Two rules here judge the numbers the package's entry points take.
`_check_int` takes a count, state, threshold or seed: an int or a numpy
integer, never a bool, within a closed range and the doubles' range.
`_check_real` takes a mean, epsilon, delta or alpha: an int, float or numpy
number, never a bool or NaN, within an open interval.  Both raise
ValueError.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

LOG_ZERO = float("-inf")
GW_MEAN_MARGIN = 1e-12
GW_TOL = 1e-14
#: kernel rows built per call of transition_log_rows
ROW_BLOCK = 64
#: upper-tail columns built per call in _log_tail_blocks; a tail no wider is built in one call
TAIL_CHUNK = 256
#: log 2^60: a row's upper tail stops once its rest is below 2^-60 of its peak
TAIL_LOG_CUT = 60 * math.log(2.0)

# Cephes lgam (Moshier 1989), which scipy.special.gammaln evaluates: log of
# sqrt(2*pi) and the Stirling-series coefficients in 1/x^2, highest power
# first, for 13 <= x < 1000 and for 1000 <= x <= 1e8
_LS2PI = 0.91893853320467274178
_STIRLING = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_STIRLING_LARGE = (
    7.9365079365079365079365e-4,
    -2.7777777777777777777778e-3,
    0.0833333333333333333333,
)


def _check_int(name: str, value: object, least: float = -math.inf, most: float = math.inf) -> int:
    """value as an int: an int or a numpy integer, never a bool, in [least, most].

    It must also be a finite double's size: an int beyond the doubles would
    pass `value <= inf` and overflow in the first float operation.
    """
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not least <= value <= most:
        raise ValueError(f"{name} {value} outside [{least}, {most}]")
    if abs(value) > sys.float_info.max:
        raise ValueError(f"{name} {value} outside the doubles' range")
    return int(value)


def _check_real(name: str, value: object, low: float, high: float) -> float:
    """value as given: an int, float or numpy number, never a bool or NaN, in (low, high).

    It must also be a finite double's size: an int beyond the doubles would
    pass `value < inf` and overflow in the first float operation.
    """
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if not (real and low < value < high and abs(value) <= sys.float_info.max):
        raise ValueError(f"{name} must lie in ({low:g}, {high:g}), got {value!r}")
    return value


@dataclass(frozen=True)
class ModelParams:
    """Offspring mean lam (finite, > 1) and number of sites n for the count chain."""

    lam: float
    n: int

    def __post_init__(self):
        _check_real("offspring mean", self.lam, 1.0, math.inf)
        object.__setattr__(self, "n", _check_int("site count", self.n, 1))


def branch_prob(params: ModelParams, x: int) -> float:
    """Per-site survival probability b(x) = (lam*x/n) * exp(-lam*x/n).

    Always lies in [0, 1/e]; the maximum is reached where lam*x/n = 1.
    """
    t = params.lam * _check_int("state", x, 0, params.n) / params.n
    return t * math.exp(-t)


def equilibrium(params: ModelParams) -> float:
    """The level (log(lam)/lam) * n around which the chain oscillates."""
    return math.log(params.lam) / params.lam * params.n


def gw_extinction_prob(mean: float) -> float:
    """Extinction probability of a Galton-Watson process with Poisson(mean) offspring.

    Returns the unique fixed point q of s = exp(-mean*(1-s)) in (0, 1),
    located by bisection and polished by Newton steps.  For s >= 1/2 the
    residual is taken as -(d + expm1(-mean*d)) with d = 1 - s exact, so a
    root just below 1, where mean is just above 1, is not lost to the
    rounding of exp.  The residual at q is at most 1e-14.  Above about
    745.13, where exp(-mean) underflows to 0, q is not representable and is
    refused.
    """
    if not (mean > 1.0 + GW_MEAN_MARGIN and math.exp(-mean) > 0.0):
        raise ValueError(
            f"offspring mean must exceed 1 and stay below about 745.13 (got {mean}); "
            "the fixed point is 1 or underflows"
        )

    def f(s: float) -> float:
        if s < 0.5:
            return s - math.exp(-mean * (1.0 - s))
        d = 1.0 - s
        return -(d + math.expm1(-mean * d))

    lo, hi = 0.0, 1.0 - 2.0**-53
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    q = 0.5 * (lo + hi)
    for _ in range(4):
        deriv = 1.0 - mean * math.exp(-mean * (1.0 - q))
        if deriv == 0.0:
            break
        q -= f(q) / deriv
    if not (0.0 < q < 1.0) or abs(f(q)) > GW_TOL:
        raise ArithmeticError(f"fixed-point refinement failed for mean={mean}")
    return q


@lru_cache(maxsize=8)
def _log_factorials(n: int) -> np.ndarray:
    """log(k!) for k = 0..n, read-only, equal bit for bit to scipy.special.gammaln(k + 1.0).

    Ports the branches of Cephes lgam that x = k + 1 reaches: the log of
    the exact factorial below 13, Stirling's series with a 5-term
    polynomial below 1000 and a 3-term one up to 1e8, and no correction
    above.  Each step is one IEEE operation in the same order, and the
    logs are math.log, the libm log that Cephes calls.
    """
    lf = np.empty(n + 1)
    small = min(n + 1, 12)
    lf[:small] = [math.log(float(math.factorial(k))) for k in range(small)]
    x = np.arange(13.0, n + 2.0)
    q = (x - 0.5) * np.array([math.log(v) for v in x.tolist()]) - x + _LS2PI
    p = 1.0 / (x * x)

    def series(coeffs):
        s = coeffs[0]
        for c in coeffs[1:]:
            s = s * p + c
        return s

    corr = np.where(x < 1000.0, series(_STIRLING), series(_STIRLING_LARGE)) / x
    lf[small:] = np.where(x > 1.0e8, q, q + corr)
    lf.flags.writeable = False
    return lf


def transition_log_rows(
    params: ModelParams, xs: Iterable[int], y_lo: int = 0, y_hi: int | None = None
) -> np.ndarray:
    """Natural logs of the Bin(n, b(x)) mass at y = y_lo..y_hi (default n), a row per x in xs.

    The binomial coefficients come from the log-factorial table, built
    once per n and equal bit for bit to scipy.special.gammaln, so n up to
    1e4 poses no overflow risk.  Entries with zero mass are -inf.  Every
    entry depends on its own x and y alone, so a row is the same whichever
    other rows are built with it.  Every x must be a state, 0..n; a range
    of them is checked at its two ends.
    """
    n = params.n
    if y_hi is None:
        y_hi = n
    if isinstance(xs, range):
        for x in (xs[0], xs[-1]) if xs else ():  # a range holds ints only: its ends bound it
            _check_int("state", x, 0, n)
    else:
        xs = [_check_int("state", x, 0, n) for x in xs]
    # b(x) as branch_prob computes it, bit for bit
    b = [t * math.exp(-t) for t in (params.lam * x / n for x in xs)]
    # math.log per entry: numpy's vectorized log may round differently
    pairs = [(math.log(v) if v > 0.0 else 0.0, math.log1p(-v)) for v in b]
    logs = np.array(pairs).reshape(-1, 2)  # shape (0, 2) when xs is empty
    y = np.arange(y_lo, y_hi + 1)
    lf = _log_factorials(n)
    rows = (
        lf[n]
        - lf[y]
        - lf[n - y]
        + y * logs[:, :1]
        + (n - y) * logs[:, 1:]
    )
    if 0.0 in b:
        # b(0) = 0: the chain stays at 0
        dead = [i for i, v in enumerate(b) if v == 0.0]
        rows[dead] = LOG_ZERO
        if y_lo == 0:
            rows[dead, 0] = 0.0
    return rows


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the last axis of a 1-d or 2-d array, overwriting `a` as scratch.

    A 1-d array gives a 0-d result, a 2-d array one value per row; a row
    that is all LOG_ZERO sums to LOG_ZERO.
    """
    peak = a.max(axis=-1)
    shift = np.where(np.isneginf(peak), 0.0, peak)
    a -= shift[..., None]
    np.exp(a, out=a)
    with np.errstate(divide="ignore"):
        return np.log(a.sum(axis=-1)) + shift


def _cdf_rows(pmf: np.ndarray) -> np.ndarray:
    """Read-only CDFs along the last axis of whole-support pmfs, clipped to end at exactly 1."""
    cdf = np.cumsum(pmf, axis=-1)
    cdf[..., -1] = 1.0
    np.minimum(cdf, 1.0, out=cdf)
    cdf.flags.writeable = False
    return cdf


def _log_row_blocks(params: ModelParams, u: int, y_lo: int, y_hi: int):
    """transition_log_rows for x = 1..u-1 over y_lo..y_hi, ROW_BLOCK rows at a time.

    Yields (first row index, block).  Blocks keep the builder's temporaries
    small; all rows at once would hold two more arrays of the full size.
    """
    for lo in range(1, u, ROW_BLOCK):
        yield lo - 1, transition_log_rows(params, range(lo, min(lo + ROW_BLOCK, u)), y_lo, y_hi)


def _transient_log_rows(params: ModelParams, u: int) -> np.ndarray:
    """log p(x, y) for x = 1..u-1 (rows) and y = 0..u-1 (columns)."""
    rows = np.empty((u - 1, u))
    for i, block in _log_row_blocks(params, u, 0, u - 1):
        rows[i : i + block.shape[0]] = block
    return rows


def _negligible_rest(chunk: np.ndarray, peak: np.ndarray) -> np.ndarray:
    """Rows whose mass past the chunk's last column is below 2^-60 of `peak`, their running peak.

    A row with b(x) = 0 has no mass here at all.  Any other row is done
    once it falls: its last log-ratio r = a(y) - a(y-1), with a = log p,
    is negative, and by log-concavity the rest of its tail is then at most
    p(y) * e^r / (1 - e^r), which must lie below 2^-60 of the peak.
    """
    last = chunk[:, -1]
    # r is NaN on a row without mass and the log is +inf or NaN unless r < 0
    with np.errstate(invalid="ignore", divide="ignore"):
        r = last - chunk[:, -2]
        log_rest = last + r - np.log(-np.expm1(r))
    return np.isneginf(last) | ((r < 0.0) & (log_rest < peak - TAIL_LOG_CUT))


def _log_tail_blocks(params: ModelParams, u: int):
    """Each ROW_BLOCK of x = 1..u-1 over the live part y = u..u+w-1 of its tail y >= u.

    Yields (first row index, block).  The columns are built TAIL_CHUNK at a
    time, and the block stops at the first chunk after which every row's
    rest is below 2^-60 of its running peak (see _negligible_rest), or at
    y = n.  A tail no wider than one chunk is built whole in one call, with
    no stop test.
    """
    n = params.n
    for lo in range(1, u, ROW_BLOCK):
        xs = range(lo, min(lo + ROW_BLOCK, u))
        y_hi = min(u + TAIL_CHUNK - 1, n)
        chunks = [transition_log_rows(params, xs, u, y_hi)]
        peak = LOG_ZERO
        while y_hi < n:
            peak = np.maximum(peak, chunks[-1].max(axis=1))
            if _negligible_rest(chunks[-1], peak).all():
                break
            y_lo, y_hi = y_hi + 1, min(y_hi + TAIL_CHUNK, n)
            chunks.append(transition_log_rows(params, xs, y_lo, y_hi))
        yield lo - 1, chunks[0] if len(chunks) == 1 else np.concatenate(chunks, axis=1)


def _log_top_masses(params: ModelParams, u: int) -> np.ndarray:
    """log P_x[X_1 >= u] for x = 1..u-1, from the live part of each row's upper tail.

    Summed as a log-sum over y >= u, never formed as 1 minus the mass
    below u, which cancels to nothing once the tail falls below machine
    epsilon.  The sum stops where the rest of every row in a block is
    below 2^-60 of the row's peak (_log_tail_blocks), so it leaves out less
    than 2^-60 of the kept sum: a 64th of the half ulp (2^-54) by which
    rounding the sum may move.

    The bound rests on the Bin(n, b) pmf being log-concave (Keilson and
    Gerber, JASA 66, 1971): its log-ratios fall at every step, so none
    past the last column is above r.  It holds for the computed logs too.
    Each carries a few ulps of error E, which moves r by up to 2E and the
    bound by a factor of about 1 + 2E/|r|.  Where the test passes, |r| is
    above about 41.6/(n + 1): the row's fall from its peak plus |r|
    exceeds log 2^60 = 41.6, and by concavity the last of its at most n
    steps is the steepest.  For n up to 1e4, E is below about 1e-10
    against |r| >= 4e-3, and the factor of 64 to the half ulp covers the
    rest.  Only the columns built are summed, so a value may differ in its
    last place from a sum over the whole tail.
    """
    top = np.empty(u - 1)
    for i, block in _log_tail_blocks(params, u):
        top[i : i + block.shape[0]] = _logsumexp_rows(block)
    return top


def _ceil_snapped(v: float) -> int:
    """Ceiling that first snaps values within 1e-9 (relative) of an integer.

    Decimal inputs like 0.05 are not exact binary doubles, so products such
    as 0.05 * 100 land a few ulps above 5; a raw ceiling would then be off
    by one against the intended real threshold.
    """
    r = round(v)
    if abs(v - r) <= 1e-9 * max(1.0, abs(v)):
        return int(r)
    return math.ceil(v)


def _check_threshold(params: ModelParams, u: int) -> int:
    return _check_int("threshold", u, 1, params.n)


def threshold_u(params: ModelParams, epsilon: float, mode: str) -> int:
    """Integer threshold for upper-passage events.

    mode="low" gives ceil(epsilon*n); mode="window" gives
    ceil(equilibrium - epsilon*n).  For integer states, {X >= r} equals
    {X >= ceil(r)}, which is why the ceiling is the right integerization.
    """
    if mode == "low":
        v = _check_real("epsilon", epsilon, 0.0, math.inf) * params.n
    elif mode == "window":
        eq_rate = math.log(params.lam) / params.lam
        v = equilibrium(params) - _check_real("epsilon", epsilon, 0.0, eq_rate) * params.n
    else:
        raise ValueError(f"mode must be 'low' or 'window', got {mode!r}")
    # eps*n may overflow to inf, which is no threshold
    return _check_threshold(params, _ceil_snapped(v) if v < math.inf else v)
