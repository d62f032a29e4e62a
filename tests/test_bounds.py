import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from barw import (
    HittingProfile,
    ModelParams,
    check_envelope,
    check_gamma_ratio,
    check_geometric,
    check_ratio_beta,
    check_ratio_kappa,
    default_alpha,
    envelope_log_bounds,
    gw_extinction_prob,
    hitting_profile,
    make_bound_set,
    render_reports,
    threshold_u,
    transition_log_row,
)
from barw import bounds

E = math.e


class TestMakeBoundSet:
    def test_envelope_applicable_example(self):
        bs = make_bound_set(2.0, 2000, 0.05)
        assert bs.envelope_ok  # 2*exp(-0.1) = 1.8097 > 1 and 0.05 < 0.25
        assert bs.q1 == pytest.approx(gw_extinction_prob(2.0 * math.exp(-0.1)), abs=0)
        assert bs.q2 == pytest.approx(gw_extinction_prob(2.0 * 1.2), abs=0)
        assert bs.q2 < gw_extinction_prob(2.0) < bs.q1 < 1.0

    def test_kappa_direct_evaluation(self):
        bs = make_bound_set(2.0, 50, 0.05)
        z = 2.0 * E / ((E - 1.0) * 50.0)
        assert z == pytest.approx(0.063279, abs=1e-6)
        assert bs.kappa_n == pytest.approx((1.0 - z) ** 50, rel=1e-12)
        assert bs.kappa_n == pytest.approx(0.0381, abs=5e-4)

    def test_default_alpha_midpoint(self):
        assert default_alpha(2.0) == pytest.approx(0.4233, abs=5e-5)
        bs = make_bound_set(2.0, 100, 0.05)
        assert bs.alpha == default_alpha(2.0)

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            make_bound_set(2.0, 100, 0.05, alpha=0.6)  # above 1 - 1/2
        with pytest.raises(ValueError):
            make_bound_set(2.0, 100, 0.05, alpha=0.3)  # below log(2)/2

    def test_envelope_inapplicable_marks_fields(self):
        # lam*exp(-lam*eps) < 1 here, so q1 cannot exist
        bs = make_bound_set(1.1, 100, 0.4)
        assert not bs.envelope_ok
        assert math.isnan(bs.q1)
        assert 0.0 < bs.theta < 1.0  # theta needs only eps > 0
        with pytest.raises(ValueError):
            envelope_log_bounds(bs, 2)

    def test_epsilon_above_half_inverse_lambda_flagged(self):
        bs = make_bound_set(2.0, 100, 0.3)  # 2*exp(-0.6) = 1.0976 > 1 but eps >= 0.25
        assert not bs.envelope_ok
        assert not math.isnan(bs.q1)

    def test_kappa_undefined_for_tiny_n(self):
        bs = make_bound_set(2.0, 3, 0.05)
        assert not bs.kappa_ok
        assert math.isnan(bs.kappa_n)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            make_bound_set(1.0, 100, 0.05)
        with pytest.raises(ValueError):
            make_bound_set(2.0, 100, 0.0)

    @pytest.mark.parametrize(
        ("lam", "n", "message"),
        [(math.inf, 100, "offspring mean must lie in"), (2.0, 0, "site count 0 outside")],
    )
    def test_lambda_and_n_are_checked_as_model_params(self, lam, n, message):
        with pytest.raises(ValueError, match=message):
            make_bound_set(lam, n, 0.05)

    def test_infinite_epsilon_is_refused(self):
        with pytest.raises(ValueError, match=r"epsilon must lie in \(0, inf\), got inf"):
            make_bound_set(2.0, 300, math.inf)

    @pytest.mark.parametrize("epsilon", [4.0, 1e-14, 1e308])
    def test_epsilon_without_q2_or_theta_is_refused_naming_it(self, epsilon):
        # theta = q(exp(2*eps)) underflows at eps = 4, and its mean is within 1e-12
        # of 1 at eps = 1e-14; q2 = q(2 + 8*eps) has an infinite mean at eps = 1e308
        with pytest.raises(ValueError, match=re.escape(f"epsilon={epsilon} gives no bound set")):
            make_bound_set(2.0, 300, epsilon)

    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(
        lam=st.floats(1.0, 1000.0, exclude_min=True),
        n=st.integers(1, 10**4),
        epsilon=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    # lam*exp(-lam*eps) lies within GW_MEAN_MARGIN above 1, so q1 does not exist
    @example(lam=1.5, n=2000, epsilon=0.2703100720715096)
    # kappa_n = (1 - 500e/((e-1)*1000))^1000 underflows to 0
    @example(lam=500.0, n=1000, epsilon=0.0004)
    def test_each_flag_gives_finite_constants_and_a_verdict(self, lam, n, epsilon):
        try:
            bs = make_bound_set(lam, n, epsilon)
        except ValueError:
            return
        params = ModelParams(lam, n)
        if bs.envelope_ok:
            assert 0.0 < bs.q1 < 1.0 and 0.0 < bs.q2 < 1.0
            # the low profile's states all lie below eps*n
            u = min(math.ceil(epsilon * n), 4)
            profile = HittingProfile(params, u, -np.arange(u, dtype=float), 0.0, "synthetic")
            assert isinstance(check_envelope(profile, bs).passed, bool)
        if bs.kappa_ok:
            u = min(n, 4)
            profile = HittingProfile(params, u, -np.arange(u, dtype=float), 0.0, "synthetic")
            assert isinstance(check_ratio_kappa(profile, bs).passed, bool)
            assert math.isfinite(bounds.log_kappa_floor(lam, n))
        if bs.gamma_ok:
            assert 0.0 < bs.gamma <= 1.0


class TestEnvelope:
    def test_both_bounds_equal_one_at_zero(self):
        bs = make_bound_set(2.0, 2000, 0.05)
        assert envelope_log_bounds(bs, 0) == (0.0, 0.0)

    def test_upper_strictly_decreasing(self):
        bs = make_bound_set(2.0, 2000, 0.05)
        ups = [envelope_log_bounds(bs, x)[1] for x in range(99)]
        assert np.all(np.diff(ups) < 0)

    def test_lower_below_upper(self):
        bs = make_bound_set(2.0, 2000, 0.05)
        for x in range(99):
            lo, up = envelope_log_bounds(bs, x)
            assert lo <= up

    @pytest.mark.parametrize("lam,n,eps", [(2.0, 500, 0.05), (3.0, 800, 0.03), (1.5, 400, 0.05)])
    def test_sandwich_on_exact_profile(self, lam, n, eps):
        params = ModelParams(lam, n)
        u = threshold_u(params, eps, "low")
        profile = hitting_profile(params, u)
        bs = make_bound_set(lam, n, eps)
        assert bs.envelope_ok
        report = check_envelope(profile, bs)
        assert report.passed
        assert not report.violations

    def test_x_outside_range(self):
        bs = make_bound_set(2.0, 2000, 0.05)
        with pytest.raises(ValueError):
            envelope_log_bounds(bs, 100)  # eps*n = 100 exactly
        with pytest.raises(ValueError):
            envelope_log_bounds(bs, -1)


class TestGeometricUpper:
    def test_at_zero(self):
        # phi(0) = 1 = theta^0, so the bound is met with equality at x = 0
        profile = hitting_profile(ModelParams(2.0, 100), 1)
        report = check_geometric(profile, make_bound_set(2.0, 100, 0.05))
        assert report.passed
        assert report.extremes["max_log_phi_minus_bound"] == 0.0

    def test_theta_fixed_point_residual(self):
        bs = make_bound_set(1.5, 1200, 0.05)
        mean = math.exp(1.5 * 0.05)
        assert abs(bs.theta - math.exp(-mean * (1.0 - bs.theta))) <= 1e-14

    def test_dominates_exact_profile(self, profile_15_300_window):
        bs = make_bound_set(1.5, 300, 0.05)
        report = check_geometric(profile_15_300_window, bs)
        assert report.passed

    @pytest.mark.parametrize("lam,n,eps", [(2.0, 600, 0.05), (3.0, 800, 0.03)])
    def test_dominates_across_configs(self, lam, n, eps):
        params = ModelParams(lam, n)
        u = threshold_u(params, eps, "window")
        # supermartingale argument needs the drift factor to clear
        # exp(lam*eps) at the deepest transient state
        assert lam * math.exp(-lam * (u - 1) / n) >= math.exp(lam * eps)
        profile = hitting_profile(params, u)
        report = check_geometric(profile, make_bound_set(lam, n, eps))
        assert report.passed

    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(
        lam=st.floats(1.0, 20.0, exclude_min=True),
        n=st.integers(1, 10**5),
        share=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_window_threshold_clears_drift(self, lam, n, share):
        # bounds-report runs check_geometric on every window profile: its
        # precondition must follow from threshold_u's integerization alone
        eps = share * math.log(lam) / lam
        try:
            u = threshold_u(ModelParams(lam, n), eps, "window")
        except ValueError:
            return  # no window threshold in [1, n]
        assert lam * math.exp(-lam * (u - 1) / n) >= math.exp(lam * eps)


class TestRatioChecks:
    def test_kappa_no_violations(self, profile_2_50_u10):
        bs = make_bound_set(2.0, 50, 0.05)
        report = check_ratio_kappa(profile_2_50_u10, bs)
        assert report.passed
        assert report.extremes["min_ratio"] > bs.kappa_n

    def test_kappa_vacuous_for_u_one(self):
        profile = hitting_profile(ModelParams(2.0, 50), 1)
        report = check_ratio_kappa(profile, make_bound_set(2.0, 50, 0.05))
        assert report.passed and not report.extremes

    def test_kappa_requires_valid_constant(self, profile_2_50_u10):
        with pytest.raises(ValueError):
            check_ratio_kappa(profile_2_50_u10, make_bound_set(2.0, 3, 0.05))

    def test_beta_contraction_small_eps_large_n(self):
        params = ModelParams(2.0, 2000)
        profile = hitting_profile(params, threshold_u(params, 0.01, "low"))
        report = check_ratio_beta(profile)
        assert report.passed  # lambda * beta_hat < 1
        assert report.extremes["beta_hat"] < 1.0

    def test_beta_vacuous_for_u_one(self):
        report = check_ratio_beta(hitting_profile(ModelParams(2.0, 50), 1))
        assert report.passed and not report.extremes


class TestGammaRatio:
    def test_grid_clean(self):
        report = check_gamma_ratio(make_bound_set(2.0, 500, 0.05, 0.4233))
        assert report.passed
        assert report.extremes["max_ratio"] <= report.extremes["gamma"]

    def test_epsilon_range_enforced(self):
        with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1/lam\)"):
            check_gamma_ratio(make_bound_set(2.0, 500, 0.5))  # >= 1/lam
        with pytest.raises(ValueError):
            check_gamma_ratio(make_bound_set(2.0, 500, 0.0))

    def test_default_alpha_used(self):
        report = check_gamma_ratio(make_bound_set(2.0, 200, 0.05))
        assert report.params["alpha"] == pytest.approx(default_alpha(2.0), abs=0)
        assert report.passed

    def test_empty_grid_reports_no_ratio(self):
        # eps*n = 0.4 puts the low threshold at 1, so the x grid is empty
        report = check_gamma_ratio(make_bound_set(500.0, 1000, 0.0004))
        assert report.params["x_grid"] == 0
        assert report.passed
        assert report.extremes == {}


class TestReportRendering:
    def test_document_structure(self, profile_2_50_u10):
        bs = make_bound_set(2.0, 50, 0.05)
        doc = render_reports(
            [check_ratio_kappa(profile_2_50_u10, bs), check_ratio_beta(profile_2_50_u10)]
        )
        assert "check: ratio-kappa" in doc
        assert "check: ratio-beta" in doc
        assert "result: PASS" in doc
        assert "violations: none" in doc
        assert doc.endswith("\n")


def assert_fails(report, *named):
    """report failed, has a violation starting with each of `named`, and renders so."""
    assert not report.passed
    for name in named:
        assert any(v.startswith(name) for v in report.violations), (name, report.violations)
    doc = render_reports([report])
    assert "result: FAIL" in doc
    assert "\n".join(["violations:", *(f"  - {v}" for v in report.violations)]) in doc


class TestViolationsAreReported:
    """Each check, given an input just past its bound, fails and names where."""

    def test_envelope(self, profile_2_200_low):
        bs = make_bound_set(2.0, 200, 0.05)
        log_phi = profile_2_200_low.log_phi.copy()
        log_phi[3] = envelope_log_bounds(bs, 3)[0] - 1e-6
        log_phi[4] = envelope_log_bounds(bs, 4)[1] + 1e-6
        report = check_envelope(dataclasses.replace(profile_2_200_low, log_phi=log_phi), bs)
        assert_fails(report, "x=3 log_lower=", "x=4 log_phi=")
        assert len(report.violations) == 2

    def test_geometric(self, profile_15_300_window):
        bs = make_bound_set(1.5, 300, 0.05)
        log_phi = profile_15_300_window.log_phi.copy()
        log_phi[5] = 5 * math.log(bs.theta) + 1e-6
        report = check_geometric(dataclasses.replace(profile_15_300_window, log_phi=log_phi), bs)
        assert_fails(report, "x=5 log_phi=")
        assert len(report.violations) == 1

    def test_ratio_kappa(self, profile_2_50_u10):
        bs = make_bound_set(2.0, 50, 0.05)
        log_phi = profile_2_50_u10.log_phi.copy()
        log_phi[7] = log_phi[6] + math.log(bs.kappa_n) - 1e-6
        report = check_ratio_kappa(dataclasses.replace(profile_2_50_u10, log_phi=log_phi), bs)
        assert_fails(report, "x=6 ratio=")
        assert len(report.violations) == 1

    def test_ratio_beta(self, profile_2_50_u10):
        # log phi falls by log(lam) - 1e-6 per step, so lam * beta_hat = e^1e-6
        log_phi = np.arange(profile_2_50_u10.u) * (1e-6 - math.log(2.0))
        report = check_ratio_beta(dataclasses.replace(profile_2_50_u10, log_phi=log_phi))
        assert_fails(report, "lambda*beta_hat=")
        assert report.extremes["lambda_beta_hat"] == pytest.approx(math.exp(1e-6), rel=1e-12)

    def test_gamma_ratio(self):
        bs = make_bound_set(2.0, 200, 0.05)
        gamma = check_gamma_ratio(bs).extremes["max_ratio"] * (1.0 - 1e-6)
        report = check_gamma_ratio(dataclasses.replace(bs, gamma=gamma))
        assert_fails(report, "x=")
        params = ModelParams(2.0, 200)
        for violation in report.violations:
            x, y = map(int, re.match(r"x=(\d+) y=(\d+) log_ratio=", violation).groups())
            log_ratio = transition_log_row(params, x + 1)[y] - transition_log_row(params, x)[y]
            assert log_ratio > math.log(gamma)

    def test_gamma_ratio_not_increasing(self, monkeypatch):
        # p(6, 2) raised by e^0.5: the ratio p(6,y)/p(5,y) then falls from y=2 to 3
        rows = bounds.transition_log_rows

        def bumped(*args):
            out = rows(*args)
            out[6, 2] += 0.5
            return out

        monkeypatch.setattr(bounds, "transition_log_rows", bumped)
        report = check_gamma_ratio(make_bound_set(2.0, 200, 0.05))
        assert_fails(report, "x=5 ratio not increasing at y=2->3")
