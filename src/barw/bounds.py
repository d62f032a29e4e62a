"""Analytic constants, bound envelopes and dominance checks.

The Galton-Watson extinction probability at three tilted offspring means
gives the closed-form envelope around hitting probabilities, a geometric
upper bound theta^x, and a uniform adjacent-state ratio floor kappa_n.
The checks here compare those closed forms against exactly solved
profiles and kernels, in log domain, and collect any violations into
plain-text reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import (
    ModelParams,
    _ceil_snapped,
    _logsumexp_rows,
    branch_prob,
    gw_extinction_prob,
    transition_log_row,
    transition_log_rows,
)
from .solver import HittingProfile, TiltedKernel

#: slack for CDF comparisons; absorbs roundoff at probability-1 boundaries
DOMINANCE_SLACK = 1e-12
#: slack for log-domain bound comparisons at exact-equality boundaries (x=0)
LOG_SLACK = 1e-12
PMF_SUM_TOL = 1e-9

_E = math.e


@dataclass(frozen=True)
class BoundSet:
    """Derived constants for one (lam, n, epsilon) configuration.

    q1 = q(lam*exp(-lam*eps)) and q2 = q(lam*(1 + 2*lam*eps)) drive the
    envelope; theta = q(exp(lam*eps)) the geometric upper bound; kappa_n
    the adjacent-ratio floor; gamma the one-step row-ratio bound at the
    chosen alpha.  Fields whose own precondition fails are NaN and the
    matching flag is False.
    """

    lam: float
    n: int
    epsilon: float
    alpha: float
    q1: float
    q2: float
    theta: float
    kappa_n: float
    gamma: float
    envelope_ok: bool
    kappa_ok: bool
    gamma_ok: bool


def default_alpha(lam: float) -> float:
    """Midpoint of the admissible interval (log(lam)/lam, 1 - 1/lam)."""
    return 0.5 * (math.log(lam) / lam + 1.0 - 1.0 / lam)


def kappa_floor(lam: float, n: int) -> float:
    """The adjacent-ratio floor (1 - e*lam/((e-1)*n))^n, NaN when undefined."""
    z = _E * lam / ((_E - 1.0) * n)
    if z >= 1.0:
        return math.nan
    return math.exp(n * math.log1p(-z))


def make_bound_set(lam: float, n: int, epsilon: float, alpha: float | None = None) -> BoundSet:
    """Compute every derived constant, flagging inapplicable ones.

    The envelope needs eps < 1/(2*lam) and lam*exp(-lam*eps) > 1; kappa_n
    needs e*lam/((e-1)*n) < 1; gamma needs lam*eps < 1.  theta and q2 are
    always defined for lam > 1.
    """
    if not lam > 1.0:
        raise ValueError(f"offspring mean must exceed 1, got {lam}")
    if n < 1:
        raise ValueError(f"site count must be positive, got {n}")
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    lo, hi = math.log(lam) / lam, 1.0 - 1.0 / lam
    if alpha is None:
        alpha = default_alpha(lam)
    if not lo < alpha < hi:
        raise ValueError(f"alpha must lie in ({lo:.6g}, {hi:.6g}), got {alpha}")

    lam1 = lam * math.exp(-lam * epsilon)
    envelope_ok = epsilon < 1.0 / (2.0 * lam) and lam1 > 1.0
    q1 = gw_extinction_prob(lam1) if lam1 > 1.0 + 1e-12 else math.nan
    q2 = gw_extinction_prob(lam * (1.0 + 2.0 * lam * epsilon))
    theta = gw_extinction_prob(math.exp(lam * epsilon))

    kappa_n = kappa_floor(lam, n)
    kappa_ok = not math.isnan(kappa_n)

    gamma_ok = lam * epsilon < 1.0
    gamma = (
        math.exp(-alpha * lam1 * (1.0 - lam * epsilon)) if gamma_ok else math.nan
    )
    return BoundSet(
        lam, n, epsilon, alpha, q1, q2, theta, kappa_n, gamma, envelope_ok, kappa_ok, gamma_ok
    )


def envelope_log_bounds(bounds: BoundSet, x: int) -> tuple[float, float]:
    """Natural logs of the envelope around P_x[die before reaching eps*n].

    lower = (q2^x - q2^(eps*n)) / (1 - q2^(eps*n)),
    upper = (q1^x - q1^n) / (1 - q1^n), both evaluated without forming the
    catastrophically cancelling differences directly.
    """
    if not bounds.envelope_ok:
        raise ValueError("envelope preconditions do not hold for this BoundSet")
    en = bounds.epsilon * bounds.n
    if not 0 <= x < en:
        raise ValueError(f"state {x} outside [0, eps*n = {en:.6g})")
    lq1, lq2 = math.log(bounds.q1), math.log(bounds.q2)
    upper = x * lq1 + math.log1p(-math.exp((bounds.n - x) * lq1)) - math.log1p(
        -math.exp(bounds.n * lq1)
    )
    lower = x * lq2 + math.log1p(-math.exp((en - x) * lq2)) - math.log1p(
        -math.exp(en * lq2)
    )
    return lower, upper


def envelope_bounds(bounds: BoundSet, x: int) -> tuple[float, float]:
    """The envelope values themselves (may underflow to 0 for large x)."""
    lower, upper = envelope_log_bounds(bounds, x)
    return math.exp(lower), math.exp(upper)


def geometric_upper(bounds: BoundSet, x: int) -> float:
    """Natural log of the geometric bound theta^x, i.e. x*log(theta)."""
    if x < 0:
        raise ValueError(f"state must be nonnegative, got {x}")
    return x * math.log(bounds.theta)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one bound check: extremes observed plus any violations."""

    name: str
    params: dict
    passed: bool
    extremes: dict
    violations: tuple

    def render(self) -> str:
        lines = [f"check: {self.name}"]
        lines.append("params: " + " ".join(f"{k}={_fmt(v)}" for k, v in self.params.items()))
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        if self.extremes:
            lines.append(
                "extremes: " + " ".join(f"{k}={_fmt(v)}" for k, v in self.extremes.items())
            )
        if self.violations:
            lines.append("violations:")
            lines.extend(f"  - {v}" for v in self.violations)
        else:
            lines.append("violations: none")
        return "\n".join(lines)


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".15g")
    return str(v)


def render_reports(reports: list[CheckReport]) -> str:
    return "\n\n".join(r.render() for r in reports) + "\n"


def check_envelope(profile: HittingProfile, bounds: BoundSet) -> CheckReport:
    """Sandwich the exact profile between the closed-form envelope, in logs."""
    params = {"lambda": bounds.lam, "n": bounds.n, "epsilon": bounds.epsilon, "u": profile.u}
    violations = []
    worst_low = worst_high = -math.inf
    for x in range(profile.u):
        lo, hi = envelope_log_bounds(bounds, x)
        lphi = float(profile.log_phi[x])
        worst_low = max(worst_low, lo - lphi)
        worst_high = max(worst_high, lphi - hi)
        if lo - lphi > LOG_SLACK:
            violations.append(f"x={x} log_lower={lo:.12g} exceeds log_phi={lphi:.12g}")
        if lphi - hi > LOG_SLACK:
            violations.append(f"x={x} log_phi={lphi:.12g} exceeds log_upper={hi:.12g}")
    extremes = {"max_log_lower_minus_phi": worst_low, "max_log_phi_minus_upper": worst_high}
    return CheckReport("envelope", params, not violations, extremes, tuple(violations))


def check_geometric(profile: HittingProfile, bounds: BoundSet) -> CheckReport:
    """Verify log phi(x) <= x*log(theta) for every transient x."""
    params = {
        "lambda": bounds.lam,
        "n": bounds.n,
        "epsilon": bounds.epsilon,
        "u": profile.u,
        "theta": bounds.theta,
    }
    x = np.arange(profile.u)
    excess = profile.log_phi - x * math.log(bounds.theta)
    bad = np.flatnonzero(excess > LOG_SLACK)
    violations = tuple(
        f"x={int(i)} log_phi={profile.log_phi[i]:.12g} exceeds {i * math.log(bounds.theta):.12g}"
        for i in bad
    )
    extremes = {"max_log_phi_minus_bound": float(np.max(excess))}
    return CheckReport("geometric-upper", params, not violations, extremes, violations)


def check_ratio_kappa(profile: HittingProfile, bounds: BoundSet) -> CheckReport:
    """Verify phi(x+1)/phi(x) >= kappa_n for every adjacent pair."""
    if not bounds.kappa_ok:
        raise ValueError("kappa_n is undefined: e*lam/((e-1)*n) >= 1")
    params = {"lambda": bounds.lam, "n": bounds.n, "u": profile.u, "kappa_n": bounds.kappa_n}
    if profile.u < 2:
        return CheckReport("ratio-kappa", params, True, {}, ())
    diffs = np.diff(profile.log_phi)
    log_kappa = math.log(bounds.kappa_n)
    bad = np.flatnonzero(diffs < log_kappa)
    violations = tuple(
        f"x={int(i)} ratio={math.exp(diffs[i]):.12g} below kappa_n" for i in bad
    )
    extremes = {"min_ratio": float(np.exp(diffs.min()))}
    return CheckReport("ratio-kappa", params, not violations, extremes, violations)


def check_ratio_beta(profile: HittingProfile) -> CheckReport:
    """Measure beta_hat = max phi(x+1)/phi(x) and whether lam*beta_hat < 1.

    Meaningful for low-threshold profiles (u about eps*n), where the ratio
    contracting below 1/lam is what makes the conditioned chain subcritical.
    """
    lam = profile.params.lam
    params = {"lambda": lam, "n": profile.params.n, "u": profile.u}
    if profile.u < 2:
        return CheckReport("ratio-beta", params, True, {}, ())
    diffs = np.diff(profile.log_phi)
    beta_hat = float(np.exp(diffs.max()))
    extremes = {"beta_hat": beta_hat, "lambda_beta_hat": lam * beta_hat}
    passed = lam * beta_hat < 1.0
    violations = () if passed else (f"lambda*beta_hat={lam * beta_hat:.12g} >= 1",)
    return CheckReport("ratio-beta", params, passed, extremes, violations)


def check_gamma_ratio(
    params: ModelParams, epsilon: float, alpha: float | None = None
) -> CheckReport:
    """Exhaustively verify p(x+1,y) <= gamma * p(x,y) on its stated grid.

    The grid is 0 <= x < eps*n - 1 and 0 <= y <= (1-alpha)*n*b(x); the
    ratio p(x+1,y)/p(x,y) is also checked to be increasing in y, which is
    what pins its maximum at the right edge of the grid.
    """
    if not 0.0 < epsilon < 1.0 / params.lam:
        raise ValueError(f"epsilon must lie in (0, 1/lam), got {epsilon}")
    bounds = make_bound_set(params.lam, params.n, epsilon, alpha)
    log_gamma = math.log(bounds.gamma)
    x_count = _ceil_snapped(epsilon * params.n - 1.0)
    report_params = {
        "lambda": params.lam,
        "n": params.n,
        "epsilon": epsilon,
        "alpha": bounds.alpha,
        "gamma": bounds.gamma,
        "x_grid": x_count,
    }
    violations = []
    max_log_ratio = -math.inf
    scale = (1.0 - bounds.alpha) * params.n
    y_tops = [math.floor(scale * branch_prob(params, x)) for x in range(x_count)]
    # the rows of states 0..x_count, each built once and sliced for x and x+1
    rows = transition_log_rows(params, range(x_count + 1), 0, max(y_tops, default=0))
    for x, y_top in enumerate(y_tops):
        d = rows[x + 1, : y_top + 1] - rows[x, : y_top + 1]
        max_log_ratio = max(max_log_ratio, float(d.max()))
        for y in np.flatnonzero(d > log_gamma):
            violations.append(f"x={x} y={int(y)} log_ratio={d[y]:.12g} exceeds log_gamma")
        steps = np.diff(d)
        for y in np.flatnonzero(steps < -LOG_SLACK):
            violations.append(f"x={x} ratio not increasing at y={int(y)}->{int(y) + 1}")
    extremes = {"max_ratio": math.exp(max_log_ratio), "gamma": bounds.gamma}
    return CheckReport("ratio-gamma", report_params, not violations, extremes, tuple(violations))


def stochastic_dominance(pmf_a: np.ndarray, pmf_b: np.ndarray) -> bool:
    """True iff a <=_st b: the CDF of a is pointwise >= the CDF of b.

    Inputs must be nonnegative and sum to 1 within 1e-9; the shorter is
    zero-padded.  Comparisons carry a 1e-12 slack for roundoff.
    """
    a = np.asarray(pmf_a, dtype=float)
    b = np.asarray(pmf_b, dtype=float)
    for name, v in (("first", a), ("second", b)):
        if v.ndim != 1 or v.size == 0:
            raise ValueError(f"{name} pmf must be a nonempty vector")
        if np.any(v < 0.0):
            raise ValueError(f"{name} pmf has negative entries")
        if abs(v.sum() - 1.0) > PMF_SUM_TOL:
            raise ValueError(f"{name} pmf sums to {v.sum():.12g}, not 1")
    k = max(a.size, b.size)
    ca = np.zeros(k)
    cb = np.zeros(k)
    ca[: a.size] = a
    cb[: b.size] = b
    return bool(np.all(np.cumsum(ca) >= np.cumsum(cb) - DOMINANCE_SLACK))


def tilted_reference_pmf(
    params: ModelParams, x: int, factor: float, upper: int | None = None
) -> np.ndarray:
    """The normalized measure proportional to factor^y * p(x, y).

    With upper given, mass is restricted to y < upper first.  Weights span
    hundreds of orders of magnitude, so normalization happens in logs.
    """
    if not factor > 0.0:
        raise ValueError(f"tilt factor must be positive, got {factor}")
    if upper is not None and upper < 1:
        raise ValueError(f"upper must be at least 1, or no mass is left; got {upper}")
    log_row = transition_log_row(params, x)
    y = np.arange(params.n + 1)
    log_w = y * math.log(factor) + log_row
    if upper is not None:
        log_w = log_w[:upper]
    pmf = np.zeros(params.n + 1)
    pmf[: log_w.size] = np.exp(log_w - _logsumexp_rows(log_w.copy()))
    return pmf


def check_tilted_dominance(
    kernel: TiltedKernel, beta_hat: float, bounds: BoundSet
) -> CheckReport:
    """Sandwich every tilted row between its two reference tilts.

    Each row p_phi(x, .) must be dominated by the beta_hat-tilted kernel
    row and must dominate the kappa_n-tilted row truncated below u.
    """
    if not bounds.kappa_ok:
        raise ValueError("kappa_n is undefined: e*lam/((e-1)*n) >= 1")
    params = {
        "lambda": bounds.lam,
        "n": bounds.n,
        "u": kernel.u,
        "beta_hat": beta_hat,
        "kappa_n": bounds.kappa_n,
    }
    model = kernel.source.params
    violations = []
    for x in range(1, kernel.u):
        row = np.zeros(model.n + 1)
        row[: kernel.u] = kernel.rows[x - 1]
        mu = tilted_reference_pmf(model, x, beta_hat)
        nu = tilted_reference_pmf(model, x, bounds.kappa_n, upper=kernel.u)
        if not stochastic_dominance(row, mu):
            violations.append(f"x={x}: tilted row not dominated by beta_hat tilt")
        if not stochastic_dominance(nu, row):
            violations.append(f"x={x}: tilted row does not dominate kappa_n tilt")
    return CheckReport(
        "tilted-dominance", params, not violations, {"rows": kernel.u - 1}, tuple(violations)
    )


def binomial_tail_bound(n: int, b: float, xi: float) -> tuple[float, float]:
    """Closed-form lower-tail bound for Bin(n, b) below xi*n*b, and the exact value.

    Returns (exp(-n*b*(1-xi)^2/4), P[Bin(n,b) < xi*n*b]); the bound always
    dominates the exact probability.
    """
    # importing scipy.stats more than doubles the time and memory of
    # `import barw`, and no experiment calls this function, so it is loaded
    # on the first call only
    from scipy.stats import binom
    if not 0.0 < b < 1.0:
        raise ValueError(f"success probability must lie in (0,1), got {b}")
    if not 0.0 < xi < 1.0:
        raise ValueError(f"xi must lie in (0,1), got {xi}")
    bound = math.exp(-n * b * (1.0 - xi) ** 2 / 4.0)
    k = math.ceil(xi * n * b) - 1
    exact = float(binom.cdf(k, n, b)) if k >= 0 else 0.0
    return bound, exact


def coupling_offspring_mean(lam: float, epsilon: float, beta: float) -> float:
    """Offspring mean beta*lam/(1-lam*eps) * (1 + 2*lam*eps/(1-lam*eps)).

    The dominating branching process for the conditioned chain uses this
    mean; it is only useful when the caller's beta makes it less than 1.
    """
    le = lam * epsilon
    if not le < 1.0:
        raise ValueError(f"requires lam*epsilon < 1, got {le}")
    return beta * lam / (1.0 - le) * (1.0 + 2.0 * le / (1.0 - le))
