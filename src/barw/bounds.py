"""Analytic constants, bound envelopes and the checks bounds-report runs.

The Galton-Watson extinction probability at three tilted offspring means
gives the closed-form envelope around hitting probabilities, a geometric
upper bound theta^x, and a uniform adjacent-state ratio floor kappa_n.
The checks here compare those closed forms against exactly solved
profiles and kernel rows, in log domain, and collect any violations into
plain-text reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import (
    GW_MEAN_MARGIN,
    ModelParams,
    _check_int,
    _check_real,
    branch_prob,
    gw_extinction_prob,
    threshold_u,
    transition_log_rows,
)
from .solver import HittingProfile

#: slack for log-domain bound comparisons at exact-equality boundaries (x=0)
LOG_SLACK = 1e-12

_E = math.e


@dataclass(frozen=True)
class BoundSet:
    """Derived constants for one (lam, n, epsilon) configuration.

    q1 = q(lam*exp(-lam*eps)) and q2 = q(lam*(1 + 2*lam*eps)) drive the
    envelope; theta = q(exp(lam*eps)) the geometric upper bound; kappa_n
    the adjacent-ratio floor; gamma the one-step row-ratio bound at the
    chosen alpha.  A field whose own precondition fails is NaN; the
    envelope, which needs more than q1, has its own flag.
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


def default_alpha(lam: float) -> float:
    """Midpoint of the admissible interval (log(lam)/lam, 1 - 1/lam), for lam > 1."""
    _check_real("offspring mean", lam, 1.0, math.inf)
    return 0.5 * (math.log(lam) / lam + 1.0 - 1.0 / lam)


def log_kappa_floor(lam: float, n: int) -> float:
    """log kappa_n = n*log1p(-e*lam/((e-1)*n)), NaN when undefined.

    It stays finite where kappa_n itself underflows to 0 (large lam).
    """
    ModelParams(lam, n)  # refuses a bad lam or n
    z = _E * lam / ((_E - 1.0) * n)
    return n * math.log1p(-z) if z < 1.0 else math.nan


def make_bound_set(lam: float, n: int, epsilon: float, alpha: float | None = None) -> BoundSet:
    """Compute every derived constant, NaN where inapplicable, and the envelope flag.

    The envelope needs eps < 1/(2*lam) and a q1, which exists once
    lam*exp(-lam*eps) exceeds 1 by GW_MEAN_MARGIN; kappa_n needs
    e*lam/((e-1)*n) < 1; gamma needs lam*eps < 1.  An eps whose q2 or theta
    has no representable fixed point is refused, naming eps.
    """
    ModelParams(lam, n)  # refuses a bad lam or n
    _check_real("epsilon", epsilon, 0.0, math.inf)
    if alpha is None:
        alpha = default_alpha(lam)
    _check_real("alpha", alpha, math.log(lam) / lam, 1.0 - 1.0 / lam)

    lam1 = lam * math.exp(-lam * epsilon)
    try:  # a q2 that exists keeps lam*eps below 373, so exp(lam*eps) is finite
        q1 = gw_extinction_prob(lam1) if lam1 > 1.0 + GW_MEAN_MARGIN else math.nan
        q2 = gw_extinction_prob(lam * (1.0 + 2.0 * lam * epsilon))
        theta = gw_extinction_prob(math.exp(lam * epsilon))
    except ValueError as exc:
        raise ValueError(f"epsilon={epsilon} gives no bound set at lambda={lam}: {exc}") from None
    envelope_ok = epsilon < 1.0 / (2.0 * lam) and not math.isnan(q1)

    kappa_n = math.exp(log_kappa_floor(lam, n))
    gamma = math.exp(-alpha * lam1 * (1.0 - lam * epsilon)) if lam * epsilon < 1.0 else math.nan
    return BoundSet(lam, n, epsilon, alpha, q1, q2, theta, kappa_n, gamma, envelope_ok)


def envelope_log_bounds(bounds: BoundSet, x: int) -> tuple[float, float]:
    """Natural logs of the envelope around P_x[die before reaching eps*n].

    lower = (q2^x - q2^(eps*n)) / (1 - q2^(eps*n)),
    upper = (q1^x - q1^n) / (1 - q1^n), both evaluated without forming the
    catastrophically cancelling differences directly.
    """
    if not bounds.envelope_ok:
        raise ValueError("envelope preconditions do not hold for this BoundSet")
    en = bounds.epsilon * bounds.n
    _check_int("state", x, 0, math.ceil(en) - 1)  # the states below eps*n
    lq1, lq2 = math.log(bounds.q1), math.log(bounds.q2)
    upper = x * lq1 + math.log1p(-math.exp((bounds.n - x) * lq1)) - math.log1p(
        -math.exp(bounds.n * lq1)
    )
    lower = x * lq2 + math.log1p(-math.exp((en - x) * lq2)) - math.log1p(
        -math.exp(en * lq2)
    )
    return lower, upper


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
    """Verify phi(x+1)/phi(x) >= kappa_n for every adjacent pair, in logs."""
    if math.isnan(bounds.kappa_n):
        raise ValueError("kappa_n is undefined: e*lam/((e-1)*n) >= 1")
    params = {"lambda": bounds.lam, "n": bounds.n, "u": profile.u, "kappa_n": bounds.kappa_n}
    if profile.u < 2:
        return CheckReport("ratio-kappa", params, True, {}, ())
    diffs = np.diff(profile.log_phi)
    log_kappa = log_kappa_floor(bounds.lam, bounds.n)
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


def check_gamma_ratio(bounds: BoundSet) -> CheckReport:
    """Exhaustively verify p(x+1,y) <= gamma * p(x,y) on its stated grid.

    Needs a gamma, which lam*eps < 1 gives.  The grid is 0 <= x < eps*n - 1
    (threshold_u's low u, less 1) and 0 <= y <= (1-alpha)*n*b(x); the
    ratio p(x+1,y)/p(x,y) is also checked to be increasing in y, which
    pins its maximum at the right edge of the grid.
    """
    if math.isnan(bounds.gamma):
        raise ValueError(f"epsilon must lie in (0, 1/lam), got {bounds.epsilon}")
    params = ModelParams(bounds.lam, bounds.n)
    log_gamma = math.log(bounds.gamma)
    x_count = threshold_u(params, bounds.epsilon, "low") - 1
    report_params = {
        "lambda": params.lam,
        "n": params.n,
        "epsilon": bounds.epsilon,
        "alpha": bounds.alpha,
        "gamma": bounds.gamma,
        "x_grid": x_count,
    }
    if x_count == 0:
        return CheckReport("ratio-gamma", report_params, True, {}, ())
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
