import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln

from barw import (
    ModelParams,
    branch_prob,
    equilibrium,
    gw_extinction_prob,
    hitting_profile,
    threshold_u,
    transition_log_rows,
)
import barw.simulate as sim
from barw.chain import (
    LOG_ZERO,
    ROW_BLOCK,
    _cdf_rows,
    _log_factorials,
    _logsumexp_rows,
    _transient_log_rows,
)
from barw.cli import ExperimentConfig, _resolve_u


class TestModelParams:
    def test_rejects_subcritical_mean(self):
        for lam in (1.0, 0.5, -2.0):
            with pytest.raises(ValueError):
                ModelParams(lam, 10)

    @pytest.mark.parametrize("lam", [math.inf, math.nan])
    def test_rejects_nonfinite_mean(self, lam):
        with pytest.raises(ValueError, match=r"must lie in \(1, inf\)"):
            ModelParams(lam, 10)

    def test_rejects_bad_site_count(self):
        with pytest.raises(ValueError):
            ModelParams(2.0, 0)
        with pytest.raises(ValueError):
            ModelParams(2.0, -3)

    def test_accepts_single_site(self):
        assert ModelParams(2.0, 1).n == 1

    @pytest.mark.parametrize("n", [True, False, 50.0, "50", None])
    def test_site_count_is_an_integer_and_not_a_bool(self, n):
        with pytest.raises(ValueError, match=f"^site count must be an integer, got {n!r}$"):
            ModelParams(2.0, n)

    def test_numpy_integer_site_count_is_stored_as_an_int(self):
        params = ModelParams(2.0, np.int64(50))
        assert type(params.n) is int and params == ModelParams(2.0, 50)


class TestBranchProb:
    def test_empty_system(self):
        assert branch_prob(ModelParams(2.0, 100), 0) == 0.0

    def test_maximum_at_unit_rate(self):
        # lam*x/n = 1 there, and t*exp(-t) peaks at t=1
        assert branch_prob(ModelParams(2.0, 100), 50) == pytest.approx(math.exp(-1), abs=1e-15)

    def test_direct_evaluation(self):
        got = branch_prob(ModelParams(1.5, 1200), 100)
        assert got == pytest.approx(0.125 * math.exp(-0.125), abs=1e-15)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            branch_prob(ModelParams(2.0, 100), -1)
        with pytest.raises(ValueError):
            branch_prob(ModelParams(2.0, 100), 101)

    def test_range_never_exceeds_inverse_e(self):
        params = ModelParams(3.0, 500)
        vals = [branch_prob(params, x) for x in range(501)]
        assert min(vals) >= 0.0
        assert max(vals) <= math.exp(-1) + 1e-15

    def test_unimodal_exhaustive(self):
        # increasing up to floor(n/lam), decreasing from ceil(n/lam)
        params = ModelParams(3.0, 10_000)
        x = np.arange(10_001)
        t = params.lam * x / params.n
        b = t * np.exp(-t)
        peak_lo = math.floor(params.n / params.lam)
        peak_hi = math.ceil(params.n / params.lam)
        assert np.all(np.diff(b[: peak_lo + 1]) > 0)
        assert np.all(np.diff(b[peak_hi:]) < 0)


class TestEquilibrium:
    def test_mean_e(self):
        assert equilibrium(ModelParams(math.e, 100)) == pytest.approx(100 / math.e, abs=1e-12)

    def test_direct_values(self):
        assert equilibrium(ModelParams(1.5, 1200)) == pytest.approx(
            math.log(1.5) / 1.5 * 1200, abs=1e-12
        )
        assert equilibrium(ModelParams(6.0, 1200)) == pytest.approx(
            math.log(6.0) / 6.0 * 1200, abs=1e-12
        )


def bisect_fixed_point(mean, iterations=200):
    """Independent oracle: plain bisection of s - exp(-mean*(1-s)) on (0, 1-1e-9)."""
    lo, hi = 0.0, 1.0 - 1e-9
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if mid - math.exp(-mean * (1.0 - mid)) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestGwExtinctionProb:
    def test_against_bisection_oracle(self):
        assert gw_extinction_prob(2.0) == pytest.approx(bisect_fixed_point(2.0), abs=1e-12)
        assert gw_extinction_prob(2.0) == pytest.approx(0.2031879, abs=1e-7)
        assert gw_extinction_prob(1.5) == pytest.approx(bisect_fixed_point(1.5), abs=1e-12)
        assert gw_extinction_prob(1.5) == pytest.approx(0.4172, abs=5e-5)

    @pytest.mark.parametrize("mean", [1.01, 1.5, 2.0, 6.0, 20.0])
    def test_residual(self, mean):
        q = gw_extinction_prob(mean)
        assert 0.0 < q < 1.0
        assert abs(q - math.exp(-mean * (1.0 - q))) <= 1e-14

    @pytest.mark.parametrize(
        "mean", [1 + 2e-12, 1 + 1e-11, 1 + 1e-9, 1 + 1e-6, 1.001, math.exp(0.1), 1.5, 2.0, 6.0]
    )
    def test_within_4_ulp_of_50_digit_root(self, mean):
        # just above mean 1, q lies about 2(mean - 1) below 1, where
        # s - exp(-mean*(1-s)) is smaller than the rounding of exp
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            m = mpmath.mpf(mean)
            d = mpmath.findroot(lambda d: d + mpmath.expm1(-m * d), 2 * (m - 1) / m)
            assert 0 < d < 1
            want = 1 - d
        q = gw_extinction_prob(mean)
        assert abs(q - want) <= 4 * math.ulp(q)

    def test_strictly_decreasing(self):
        grid = np.linspace(1.01, 30.0, 120)
        qs = [gw_extinction_prob(m) for m in grid]
        assert np.all(np.diff(qs) < 0)

    def test_domain_error(self):
        for mean in (1.0, 0.9, 1.0 + 1e-13):
            with pytest.raises(ValueError):
                gw_extinction_prob(mean)

    def test_underflowing_q_is_refused_naming_the_mean(self):
        # exp(-mean) is 0 from about 745.133 on, so q has no representable value
        assert 0.0 < gw_extinction_prob(745.13) < 1e-300
        for mean in (745.14, 746.0, 1e308, math.inf):
            with pytest.raises(ValueError, match=re.escape(f"(got {mean})")):
                gw_extinction_prob(mean)


class TestTransitionLogpmf:
    def test_empty_state_point_mass(self):
        row = transition_log_rows(ModelParams(2.0, 10), (0,))[0]
        assert row[0] == 0.0
        assert np.all(np.isneginf(row[1:]))

    def test_direct_evaluation(self):
        params = ModelParams(2.0, 3)
        b1 = branch_prob(params, 1)
        got = transition_log_rows(params, (1,))[0, 0]
        assert got == pytest.approx(3 * math.log1p(-b1), abs=1e-14)

    @pytest.mark.parametrize("x", [0, 1, 10, 25, 50])
    def test_row_sums_to_one(self, x):
        params = ModelParams(1.5, 50)
        total = np.exp(transition_log_rows(params, (x,))).sum()
        assert abs(total - 1.0) <= 1e-10

    def test_row_matches_scalar_op(self):
        params = ModelParams(2.0, 20)
        row = transition_log_rows(params, (7,))[0]
        b = branch_prob(params, 7)
        for y in (0, 3, 11, 20):
            scalar = (
                gammaln(21.0) - gammaln(y + 1.0) - gammaln(21.0 - y)
                + y * math.log(b) + (20 - y) * math.log1p(-b)
            )
            assert row[y] == pytest.approx(scalar, abs=0)

    def test_out_of_range(self):
        params = ModelParams(2.0, 10)
        with pytest.raises(ValueError):
            transition_log_rows(params, (-1,))
        with pytest.raises(ValueError):
            transition_log_rows(params, (11,))

    def test_large_n_no_overflow(self):
        params = ModelParams(2.0, 10_000)
        row = transition_log_rows(params, (5000,))[0]
        assert np.all(np.isfinite(row))
        assert abs(np.exp(row).sum() - 1.0) <= 1e-10

    def test_rows_over_a_column_range(self):
        # rows for several x over y = y_lo..y_hi, the empty state included:
        # b(0) = 0 puts all mass on y = 0, outside this range
        params = ModelParams(2.0, 20)
        rows = transition_log_rows(params, [0, 7, 20], 5, 12)
        assert rows.shape == (3, 8)
        assert np.all(np.isneginf(rows[0]))
        assert rows[1].tobytes() == transition_log_rows(params, (7,))[0, 5:13].tobytes()
        y = np.arange(5, 13)
        b = branch_prob(params, 20)
        direct = gammaln(21.0) - gammaln(y + 1.0) - gammaln(21.0 - y)
        direct = direct + y * math.log(b) + (20 - y) * math.log1p(-b)
        np.testing.assert_allclose(rows[2], direct, rtol=1e-14, atol=0)

    @pytest.mark.parametrize(
        "xs", [range(201), range(200, -1, -7), [np.int64(150), 0, 37, 200]], ids=repr
    )
    def test_rows_bit_identical_to_branch_prob_rows(self, xs):
        # transition_log_rows takes b(x) per row as branch_prob does, with one state
        # check per range in place of one per row
        params, n = ModelParams(1.5, 200), 200
        rows = transition_log_rows(params, xs)
        y = np.arange(n + 1)
        lf = _log_factorials(n)
        for row, x in zip(rows, xs):
            b = branch_prob(params, int(x))
            if b == 0.0:
                want = np.where(y == 0, 0.0, -np.inf)
            else:
                want = lf[n] - lf[y] - lf[n - y] + y * math.log(b) + (n - y) * math.log1p(-b)
            assert row.tobytes() == want.tobytes(), x

    @pytest.mark.parametrize(
        "xs", [range(22), range(-1, 5), range(21, 0, -1), [3, 21], [3, -1], [1, 2.5], [True]],
        ids=repr,
    )
    def test_a_row_that_is_no_state_is_refused(self, xs):
        with pytest.raises(ValueError, match="state"):
            transition_log_rows(ModelParams(2.0, 20), xs)

    def test_no_rows(self):
        rows = transition_log_rows(ModelParams(2.0, 20), [], 5, 12)
        assert rows.shape == (0, 8)
        assert transition_log_rows(ModelParams(2.0, 20), []).shape == (0, 21)

    # the ROW_BLOCK edges: one block short of, at and past a full block
    @pytest.mark.parametrize("n", [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 2])
    def test_blocked_full_rows_equal_single_rows(self, n):
        # u = n + 1: the rows of every transient state over the whole support,
        # as unconditional_expected_extinction builds them
        params = ModelParams(2.0, n)
        single = np.array([transition_log_rows(params, (x,))[0] for x in range(1, n + 1)])
        assert _transient_log_rows(params, n + 1).tobytes() == single.tobytes()


class TestLogFactorials:
    """The log-factorial table against scipy.special.gammaln(k + 1.0), bit for bit."""

    def test_matches_gammaln(self):
        n = 200_000
        assert _log_factorials(n).tobytes() == gammaln(np.arange(n + 1) + 1.0).tobytes()

    # tables that end on each side of the branch edges of Cephes lgam at
    # x = k + 1 = 13 and 1000
    @pytest.mark.parametrize("n", [0, 1, 2, 11, 12, 13, 998, 999, 1000, 1001])
    def test_branch_edges(self, n):
        assert _log_factorials(n).tobytes() == gammaln(np.arange(n + 1) + 1.0).tobytes()

    def test_cached_and_read_only(self):
        lf = _log_factorials(40)
        assert lf is _log_factorials(40)
        assert not lf.flags.writeable

    @pytest.mark.parametrize("x", [1, 1351, 5000])  # 1351 = floor(eq)
    def test_kernel_rows_match_gammaln_formula(self, x):
        # n = 5000 reaches the k >= 999 branch, which no pinned output does
        params = ModelParams(1.5, 5000)
        y = np.arange(5001)
        b = branch_prob(params, x)
        direct = gammaln(5001.0) - gammaln(y + 1.0) - gammaln(5000 - y + 1.0)
        direct = direct + y * math.log(b) + (5000 - y) * math.log1p(-b)
        assert transition_log_rows(params, (x,))[0].tobytes() == direct.tobytes()

    @pytest.mark.parametrize("lam", [1.5, 2.0, 8.0, 800.0])
    def test_poisson_cdf_matches_gammaln_formula(self, lam):
        cdf = sim._poisson_cdf(lam)
        k = np.arange(cdf.size)
        direct = _cdf_rows(np.exp(k * math.log(lam) - lam - gammaln(k + 1.0)))
        assert cdf.tobytes() == direct.tobytes()


class TestDriftFloor:
    @pytest.mark.parametrize("lam,n,eps", [(1.5, 1200, 0.05), (2.0, 500, 0.05)])
    def test_growth_factor_above_exp_lam_eps(self, lam, n, eps):
        # n*b(x)/x = lam*exp(-lam*x/n) stays >= exp(lam*eps) below eq - eps*n
        params = ModelParams(lam, n)
        top = math.floor(equilibrium(params) - eps * n)
        floor = math.exp(lam * eps)
        for x in range(1, top + 1):
            assert n * branch_prob(params, x) / x >= floor - 1e-12


class TestThresholdU:
    def test_window_values(self):
        assert threshold_u(ModelParams(1.5, 1200), 0.05, "window") == 265
        assert threshold_u(ModelParams(6.0, 1200), 0.05, "window") == 299

    def test_low_values(self):
        assert threshold_u(ModelParams(2.0, 100), 0.05, "low") == 5
        assert threshold_u(ModelParams(2.0, 2000), 0.05, "low") == 100

    def test_low_fractional_rounds_up(self):
        assert threshold_u(ModelParams(2.0, 30), 0.05, "low") == 2  # ceil(1.5)

    def test_window_requires_epsilon_below_eq_rate(self):
        with pytest.raises(ValueError):
            threshold_u(ModelParams(1.5, 100), 0.3, "window")

    def test_low_requires_positive_epsilon(self):
        with pytest.raises(ValueError):
            threshold_u(ModelParams(2.0, 100), 0.0, "low")

    def test_out_of_range_threshold(self):
        with pytest.raises(ValueError):
            threshold_u(ModelParams(2.0, 10), 1.5, "low")

    @pytest.mark.parametrize("epsilon", [1e308, math.inf])
    def test_overflowing_low_threshold_is_out_of_range(self, epsilon):
        # eps = 1e308 passes, but eps*n overflows to inf, which is no threshold
        match = {
            1e308: r"^threshold must be an integer, got inf$",
            math.inf: r"^epsilon must lie in \(0, inf\), got inf$",
        }[epsilon]
        with pytest.raises(ValueError, match=match):
            threshold_u(ModelParams(2.0, 50), epsilon, "low")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            threshold_u(ModelParams(2.0, 10), 0.1, "middle")


def _resolve(lam, n, mode=None, **flags):
    config = ExperimentConfig(experiment="profile", out_dir=Path("."), lam=lam, n=n, **flags)
    return _resolve_u(config, ModelParams(lam, n), mode)


class TestLevelSpec:
    """Threshold resolution from u, or from epsilon by the experiment's mode (cli._resolve_u)."""

    def test_custom(self):
        assert _resolve(2.0, 100, u=17) == 17

    def test_custom_requires_u(self):
        with pytest.raises(ValueError, match="profile: --u is required"):
            _resolve(2.0, 100, epsilon=0.05)

    def test_low_derives(self):
        assert _resolve(2.0, 100, "low", epsilon=0.05) == 5

    def test_window_derives(self):
        assert _resolve(1.5, 1200, "window", epsilon=0.05) == 265

    def test_derived_requires_epsilon(self):
        with pytest.raises(ValueError, match=r"--u or --epsilon is required"):
            _resolve(2.0, 100, "window")

    def test_explicit_u_wins_over_the_mode(self):
        assert _resolve(2.0, 100, "low", epsilon=0.05, u=7) == 7

    def test_custom_range_check(self):
        # an explicit u passes through; the solve and the sampler own its range
        params = ModelParams(2.0, 100)
        for u in (0, 101):
            assert _resolve(2.0, 100, u=u) == u
            with pytest.raises(ValueError, match=rf"threshold {u} outside \[1, 100\]"):
                hitting_profile(params, u)
            with pytest.raises(ValueError, match=rf"threshold {u} outside \[1, 100\]"):
                sim.estimate_hitting_prob(params, u, 3, 10, 1)


class TestLogSumExp:
    def test_all_neg_inf(self):
        assert _logsumexp_rows(np.array([LOG_ZERO, LOG_ZERO])) == LOG_ZERO

    def test_matches_direct(self):
        a = np.array([-1.0, -2.0, -3.0])
        assert abs(_logsumexp_rows(a.copy()) - math.log(np.exp(a).sum())) < 1e-14
