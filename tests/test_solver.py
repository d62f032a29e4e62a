import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

import barw
from barw import (
    KernelConsistencyError,
    ModelParams,
    ProfileFormatError,
    SolverError,
    branch_prob,
    conditional_expected_extinction,
    conditional_occupation_time,
    equilibrium,
    hitting_profile,
    read_profile,
    threshold_u,
    tilted_kernel,
    transition_log_row,
    unconditional_expected_extinction,
    write_profile,
)
from barw import solver
from barw.chain import _log_top_masses, _logsumexp_rows, _transient_log_rows
from barw.solver import (
    HittingProfile,
    METHOD_LOGDOMAIN,
    METHOD_VI,
    _path_floor,
    _solve_m_matrix,
)


def exact_kernel(lam, n, u):
    """Transition masses p(x, y) for x in 1..u-1, y in 0..u-1, via scipy.

    Independent of the package's log-gamma pmf: this is the oracle side.
    """
    p = np.zeros((u - 1, u))
    for x in range(1, u):
        t = lam * x / n
        p[x - 1] = binom.pmf(np.arange(u), n, t * math.exp(-t))
    return p


def dp_hitting_probability(lam, n, u, horizon):
    """P_x[die before reaching >= u, within `horizon` steps] by forward DP."""
    p = exact_kernel(lam, n, u)
    f = np.zeros(u)
    f[0] = 1.0
    for _ in range(horizon):
        nxt = np.concatenate(([1.0], p @ f))
        f = nxt
    return f


def certified_horizon(lam, n, u, tol=1e-8):
    """Steps after which the remaining transient mass is provably below tol.

    Each step absorbs at least min_x p(x,0) of the surviving mass.
    """
    p = exact_kernel(lam, n, u)
    stay = 1.0 - p[:, 0].min()
    return int(math.ceil(math.log(tol) / math.log(stay))) + 1


def _solve_gth_log(log_q: np.ndarray, log_c: np.ndarray, log_top: np.ndarray) -> np.ndarray:
    """Solve (I - Q) x = c by GTH elimination in log domain; returns log(x).

    log_q = log Q over the transient states (its diagonal is never read),
    log_c = log c, the one-step mass to 0, and log_top the one-step mass to
    >= u.  Every quantity is a log of a positive mass: each pivot 1 - Q_kk
    is the sum of state k's remaining outgoing masses, and eliminating k
    folds its transitions into the later rows by addition only (Grassmann,
    Taksar and Heyman, Oper. Res. 33, 1985).  Nothing cancels, so the
    solution keeps its relative accuracy however small it gets.
    """
    L = np.array(log_q, dtype=float)
    c = np.array(log_c, dtype=float)
    top = np.array(log_top, dtype=float)
    m = c.size
    log_pivot = np.empty(m)
    outer = np.empty((m, m))
    for k in range(m):
        log_pivot[k] = _logsumexp_rows(np.concatenate(([c[k], top[k]], L[k, k + 1 :])))
        f = L[k + 1 :, k] - log_pivot[k]  # log Q_ik / (1 - Q_kk)
        r = f.size
        np.add.outer(f, L[k, k + 1 :], out=outer[:r, :r])
        np.logaddexp(L[k + 1 :, k + 1 :], outer[:r, :r], out=L[k + 1 :, k + 1 :])
        np.logaddexp(c[k + 1 :], f + c[k], out=c[k + 1 :])
        np.logaddexp(top[k + 1 :], f + top[k], out=top[k + 1 :])

    x = np.empty(m)
    for i in range(m - 1, -1, -1):
        terms = np.concatenate(([c[i]], L[i, i + 1 :] + x[i + 1 :]))
        x[i] = _logsumexp_rows(terms) - log_pivot[i]
    return x


def oracle_log_phi(params, u):
    """log phi_u(x), x = 0..u-1, from the all-log-domain GTH reference solve."""
    log_p = _transient_log_rows(params, u)
    x = _solve_gth_log(log_p[:, 1:], log_p[:, 0], _log_top_masses(params, u))
    return np.concatenate(([0.0], x))


def window_u(lam, n):
    return threshold_u(ModelParams(lam, n), 0.05, "window")


class TestHittingProfileSmall:
    def test_two_state_closed_form(self):
        params = ModelParams(2.0, 3)
        prof = hitting_profile(params, 2)
        b1 = branch_prob(params, 1)
        p10 = (1.0 - b1) ** 3
        p11 = 3.0 * b1 * (1.0 - b1) ** 2
        assert prof.phi(1) == pytest.approx(p10 / (1.0 - p11), abs=1e-12)

    def test_u_one_is_trivial(self):
        prof = hitting_profile(ModelParams(2.0, 10), 1)
        assert prof.u == 1
        assert prof.method == METHOD_LOGDOMAIN
        assert prof.log_phi.tolist() == [0.0]
        assert prof.residual == 0.0

    def test_out_of_range_u(self):
        with pytest.raises(ValueError):
            hitting_profile(ModelParams(2.0, 10), 0)
        with pytest.raises(ValueError):
            hitting_profile(ModelParams(2.0, 10), 11)

    def test_explicit_horizon_forty_example(self):
        params = ModelParams(2.0, 20)
        prof = hitting_profile(params, 5)
        dp = dp_hitting_probability(2.0, 20, 5, horizon=40)
        np.testing.assert_allclose(np.exp(prof.log_phi), dp, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("lam", [1.3, 2.0, 6.0])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_dp_oracle_grid(self, lam, n):
        for u in range(1, min(4, n) + 1):
            prof = hitting_profile(ModelParams(lam, n), u)
            horizon = certified_horizon(lam, n, u) if u > 1 else 1
            dp = dp_hitting_probability(lam, n, u, horizon)
            np.testing.assert_allclose(np.exp(prof.log_phi), dp, rtol=0, atol=1e-6)


class TestSolverMethods:
    @pytest.mark.parametrize(
        "lam,n,u",
        [
            (2.0, 50, 10),
            (1.5, 300, 67),
            (6.0, 120, 30),
            (6.0, 1450, 250),  # p(x,0) = (1 - b(x))^n falls to e^-665 near x = 242
        ],
    )
    def test_methods_agree(self, lam, n, u):
        params = ModelParams(lam, n)
        dense = hitting_profile(params, u)
        vi = hitting_profile(params, u, method=METHOD_VI)
        assert dense.method == METHOD_LOGDOMAIN
        np.testing.assert_allclose(dense.log_phi, vi.log_phi, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("lam,n,u", [(2.0, 12, 3), (2.0, 30, 5), (6.0, 40, 12), (8.0, 16, 3)])
    def test_top_mass_from_tail_matches_complement(self, lam, n, u):
        # at small n the mass to >= u is large enough for 1 - sum to be exact
        params = ModelParams(lam, n)
        below = np.exp(_transient_log_rows(params, u)).sum(axis=1)
        np.testing.assert_allclose(
            np.exp(_log_top_masses(params, u)), 1.0 - below, rtol=1e-12, atol=0
        )

    @pytest.mark.parametrize(
        "lam,n,u",
        [
            (6.0, 2400, window_u(6.0, 2400)),  # strong drift: needs the fold
            (8.0, 2000, window_u(8.0, 2000)),
            (2.0, 300, 300),  # trapped far above eq: subnormal pivot rows
            (2.0, 285, 166),
            (2.0, 2000, 594),  # phi down to e^-523: needs the rescaling
            # m = u - 1 at and around the edges of the 32-pivot panels
            *[(2.0, 300, m + 1) for m in (31, 32, 33, 64, 65)],
        ],
    )
    def test_scaled_solve_matches_log_domain_oracle(self, lam, n, u):
        params = ModelParams(lam, n)
        prof = hitting_profile(params, u, method=METHOD_LOGDOMAIN)
        assert prof.residual <= 1e-8
        np.testing.assert_allclose(prof.log_phi, oracle_log_phi(params, u), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("lam,n,u", [(4.0, 500, 350), (3.0, 600, 420)])
    def test_rescaled_solve_matches_log_domain_oracle(self, lam, n, u, monkeypatch):
        # above eq the path floor misses phi by more than e^LOG_SCALE_GAP, so
        # the solve rescales by its own result until a pass stays put; log phi
        # falls to -52 and -103 here, so the oracle checks more than phi = 1
        moves = []
        solve_pass = solver._solve_gth_scaled

        def recorded(log_p, log_top, s):
            log_phi = solve_pass(log_p, log_top, s)
            moves.append(np.max(np.abs(log_phi - s)))
            return log_phi

        monkeypatch.setattr(solver, "_solve_gth_scaled", recorded)
        params = ModelParams(lam, n)
        prof = hitting_profile(params, u)
        assert prof.method == METHOD_LOGDOMAIN
        assert len(moves) > 1 and moves[0] > solver.LOG_SCALE_GAP
        assert moves[-1] <= solver.RESCALE_TOL
        oracle = oracle_log_phi(params, u)
        assert oracle.min() < -50
        np.testing.assert_allclose(prof.log_phi, oracle, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("lam,n,u", [(1.5, 1200, 265), (6.0, 1200, 299)])
    def test_figure_profiles_match_oracle_to_1e12(self, lam, n, u):
        # the README figure profiles, below eq; the subtracting native
        # elimination once used here was off by 9.9e-12 and 1.8e-12
        params = ModelParams(lam, n)
        prof = hitting_profile(params, u)
        np.testing.assert_allclose(prof.log_phi, oracle_log_phi(params, u), rtol=0, atol=1e-12)

    def test_trapped_chain_dies_surely(self):
        # hitting u = n needs every site occupied at once, probability at most
        # e^-n per step, so phi = 1 to double precision.  One pass scaled by
        # the path floor (e^-354 below phi here) that moved every zeroed mass
        # to the top column pulled log phi down to -1.5: the masses posed as
        # escapes to n
        prof = hitting_profile(ModelParams(3.0, 850), 850)
        assert prof.method == METHOD_LOGDOMAIN
        assert np.all(prof.log_phi >= -1e-10)

    def test_auto_avoids_native_above_equilibrium(self):
        # the native elimination of the near-singular I - Q is off by 7.5 in
        # log phi here while passing the harmonicity gate
        params = ModelParams(8.0, 300)
        prof = hitting_profile(params, 300)
        assert prof.method == METHOD_LOGDOMAIN
        np.testing.assert_allclose(prof.log_phi, oracle_log_phi(params, 300), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("lam,n,u", [(8.0, 300, 300), (2.0, 300, 150)])
    def test_forced_native_refused_above_equilibrium(self, lam, n, u):
        # a native elimination forced here was off by 7.47 and 2.7e-6 in
        # log phi, with harmonicity residuals below 1e-14; no path takes it now
        with pytest.raises(ValueError, match="unknown method 'dense-native'"):
            hitting_profile(ModelParams(lam, n), u, method="dense-native")

    def test_unknown_method(self):
        for method in ("iterative-jacobi", "dense-native"):
            for u in (1, 10):
                with pytest.raises(ValueError, match="unknown method"):
                    hitting_profile(ModelParams(2.0, 50), u, method=method)

    def test_deterministic_bit_identical(self):
        for params, u in [(ModelParams(1.5, 300), 67), (ModelParams(6.0, 1450), 250)]:
            a = hitting_profile(params, u)
            b = hitting_profile(params, u)
            assert a.log_phi.tobytes() == b.log_phi.tobytes()
            assert a.residual == b.residual

    def test_bits_independent_of_blas_threads(self):
        # the trailing updates are BLAS matrix products, 18 of them here, and
        # OpenBLAS reads its thread count once, at start-up
        script = (
            "import sys; from barw import ModelParams, hitting_profile; "
            "sys.stdout.buffer.write(hitting_profile(ModelParams(2.0, 2000), 594).log_phi.tobytes())"
        )
        src = str(Path(barw.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        digests = {
            hashlib.sha256(
                subprocess.run(
                    [sys.executable, "-c", script],
                    env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads),
                    capture_output=True,
                    timeout=120,
                    check=True,
                ).stdout
            ).hexdigest()
            for threads in ("1", "2")
        }
        assert len(digests) == 1

    @pytest.mark.parametrize("lam,n,u", [(2.0, 50, 10), (1.5, 300, 67)])
    def test_harmonicity_contract(self, lam, n, u):
        prof = hitting_profile(ModelParams(lam, n), u)
        assert prof.method == METHOD_LOGDOMAIN
        assert prof.residual <= 1e-8
        assert np.all(np.isfinite(prof.log_phi))


@st.composite
def below_equilibrium(draw):
    """(lam, n, u) with 2 <= u <= eq, where every solve path converges fast.

    Above eq the chain is trapped for about e^{cn} steps, and value
    iteration needs that many sweeps.
    """
    lam = draw(st.floats(1.2, 8.0))
    n = draw(st.integers(math.ceil(2.0 * lam / math.log(lam)), 300))
    u = draw(st.integers(2, min(n, math.floor(equilibrium(ModelParams(lam, n))))))
    return lam, n, u


@st.composite
def any_threshold_pair(draw):
    """(lam, n, u, u2) with 2 <= u < u2 <= n."""
    lam = draw(st.floats(1.2, 8.0))
    n = draw(st.integers(3, 300))
    u = draw(st.integers(2, n - 1))
    return lam, n, u, draw(st.integers(u + 1, n))


@st.composite
def any_threshold(draw):
    """(lam, n, u) with 2 <= u <= n, including thresholds far above eq."""
    lam = draw(st.floats(1.2, 8.0))
    n = draw(st.integers(2, 300))
    return lam, n, draw(st.integers(2, n))


PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=50, database=None)


class TestSolverProperties:
    @PROPERTY_SETTINGS
    @given(below_equilibrium())
    def test_paths_agree(self, case):
        lam, n, u = case
        params = ModelParams(lam, n)
        logdom, vi = (hitting_profile(params, u, method=m) for m in (METHOD_LOGDOMAIN, METHOD_VI))
        for prof in (logdom, vi):
            assert prof.residual <= 1e-8
        np.testing.assert_allclose(logdom.log_phi, vi.log_phi, rtol=0, atol=1e-9)

    @PROPERTY_SETTINGS
    @given(any_threshold_pair())
    def test_phi_nondecreasing_in_u(self, case):
        # a higher bar is harder to escape to, so dying first gets likelier
        lam, n, u, u2 = case
        params = ModelParams(lam, n)
        low = hitting_profile(params, u, method=METHOD_LOGDOMAIN)
        high = hitting_profile(params, u2, method=METHOD_LOGDOMAIN)
        assert low.residual <= 1e-8 and high.residual <= 1e-8
        assert np.all(low.log_phi <= high.log_phi[:u] + 1e-9)

    @PROPERTY_SETTINGS
    @given(any_threshold())
    def test_scaled_solve_matches_log_domain_oracle(self, case):
        lam, n, u = case
        params = ModelParams(lam, n)
        prof = hitting_profile(params, u, method=METHOD_LOGDOMAIN)
        assert prof.residual <= 1e-8
        np.testing.assert_allclose(prof.log_phi, oracle_log_phi(params, u), rtol=0, atol=1e-10)

    @PROPERTY_SETTINGS
    @given(any_threshold())
    def test_path_floor_bounds_log_phi(self, case):
        lam, n, u = case
        params = ModelParams(lam, n)
        floor = _path_floor(_transient_log_rows(params, u))
        assert np.all(floor <= oracle_log_phi(params, u))

    @PROPERTY_SETTINGS
    @given(below_equilibrium())
    def test_tilted_rows_sum_to_one(self, case):
        # tilted_kernel raises KernelConsistencyError if a raw row is off
        lam, n, u = case
        kernel = tilted_kernel(hitting_profile(ModelParams(lam, n), u))
        assert np.max(np.abs(kernel.rows.sum(axis=1) - 1.0)) <= 1e-9


class TestTiltedKernel:
    def test_row_sums(self, profile_15_300_window, kernel_15_300_window):
        sums = kernel_15_300_window.rows.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12  # renormalized exactly

    def test_two_state_row(self):
        params = ModelParams(2.0, 3)
        prof = hitting_profile(params, 2)
        kern = tilted_kernel(prof)
        b1 = branch_prob(params, 1)
        p10 = (1.0 - b1) ** 3
        p11 = 3.0 * b1 * (1.0 - b1) ** 2
        phi1 = p10 / (1.0 - p11)
        assert kern.rows[0, 0] == pytest.approx(p10 / phi1, abs=1e-12)
        assert kern.rows[0, 1] == pytest.approx(p11, abs=1e-12)
        assert kern.rows[0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_absorbing_mass_at_least_raw(self, profile_2_50_u10, kernel_2_50_u10):
        # mass on 0 is p(x,0)/phi(x) >= p(x,0) since phi <= 1
        raw = np.exp(
            np.array([transition_log_row(ModelParams(2.0, 50), x, 0)[0] for x in range(1, 10)])
        )
        assert np.all(kernel_2_50_u10.rows[:, 0] >= raw - 1e-15)

    def test_strictly_positive_entries_small_config(self, kernel_2_50_u10):
        # p(x,y) > 0 and phi(y) > 0 here, so no entry may vanish
        assert np.all(kernel_2_50_u10.rows > 0.0)

    def test_u_one_kernel_is_empty(self):
        kern = tilted_kernel(hitting_profile(ModelParams(2.0, 10), 1))
        assert kern.rows.shape == (0, 1)

    def test_bad_profile_rejected(self):
        params = ModelParams(2.0, 50)
        good = hitting_profile(params, 10)
        skewed = np.array(good.log_phi)
        skewed[5] += 0.5  # breaks harmonicity, rows will not sum to 1
        tampered = HittingProfile(params, 10, skewed, good.residual, good.method)
        with pytest.raises(KernelConsistencyError):
            tilted_kernel(tampered)


class TestConditionalExpectedExtinction:
    def test_starts_at_zero(self, kernel_2_50_u10):
        t = conditional_expected_extinction(kernel_2_50_u10)
        assert t.values[0] == 0.0
        assert t.conditional

    def test_two_state_geometric_identity(self):
        params = ModelParams(2.0, 3)
        kern = tilted_kernel(hitting_profile(params, 2))
        t = conditional_expected_extinction(kern)
        assert t.values[1] == pytest.approx(1.0 / (1.0 - kern.rows[0, 1]), abs=1e-12)

    def test_at_least_one_step(self, kernel_15_300_window):
        t = conditional_expected_extinction(kernel_15_300_window)
        assert np.all(t.values[1:] >= 1.0)
        assert np.all(np.isfinite(t.values))

    def test_log_window_band_recorded(self, kernel_15_300_window):
        t = conditional_expected_extinction(kernel_15_300_window).values
        x = np.arange(2, kernel_15_300_window.u)
        r = t[2:] / np.log1p(x)
        assert math.isfinite(r.max() / r.min())


class TestLogsumexpRows:
    def test_matches_logsumexp_1d_bit_for_bit(self, profile_15_300_window):
        # every row equals the 1-d call on it, and the 1-d call equals the
        # plain formula max + log(sum(exp(row - max)))
        log_p = _transient_log_rows(profile_15_300_window.params, profile_15_300_window.u)
        a = log_p + profile_15_300_window.log_phi[None, :]
        a[0] = -np.inf  # an all-zero row sums to log 0
        want = [float(_logsumexp_rows(row.copy())) for row in a]
        assert want[0] == -np.inf
        assert want[1:] == [float(row.max() + np.log(np.sum(np.exp(row - row.max()))))
                            for row in a[1:]]
        assert _logsumexp_rows(a).tolist() == want


class TestConditionedTimeSolve:
    def test_u_one_gives_t_zero(self):
        kern = tilted_kernel(hitting_profile(ModelParams(2.0, 10), 1))
        for t in (conditional_expected_extinction(kern), conditional_occupation_time(kern, 0.05)):
            assert t.values.tolist() == [0.0]
            assert t.conditional

    def test_m_matrix_solve_forms_i_minus_q(self, kernel_2_50_u10):
        Q = kernel_2_50_u10.rows[:, 1:]
        b = np.linspace(0.0, 1.0, Q.shape[0])
        before = Q.copy(), b.copy()
        x = _solve_m_matrix(Q, b)
        assert x == pytest.approx(np.linalg.solve(np.eye(Q.shape[0]) - Q, b), rel=1e-12)
        assert Q.tobytes() == before[0].tobytes() and b.tobytes() == before[1].tobytes()

    def test_occupation_with_full_band_is_extinction_time(self, kernel_15_300_window):
        # every transient state lies above delta*n = 0.3, so r = 1 as for t
        t = conditional_expected_extinction(kernel_15_300_window).values
        occ = conditional_occupation_time(kernel_15_300_window, 0.001).values
        assert occ.tobytes() == t.tobytes()


class TestUnconditionalExpectedExtinction:
    def test_single_site_closed_form(self):
        params = ModelParams(2.0, 1)
        t = unconditional_expected_extinction(params)
        p11 = branch_prob(params, 1)
        assert t.values[0] == 0.0
        assert t.values[1] == pytest.approx(1.0 / (1.0 - p11), rel=1e-12)

    def test_growth_with_n(self):
        previous = 0.0
        for n in (20, 30, 40):
            t = unconditional_expected_extinction(ModelParams(2.0, n))
            x = -(-n // 2)
            assert math.log(t.values[x]) > previous
            previous = math.log(t.values[x])

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            unconditional_expected_extinction(ModelParams(2.0, 401))

    def test_not_conditional(self):
        t = unconditional_expected_extinction(ModelParams(2.0, 5))
        assert not t.conditional
        assert np.all(t.values[1:] >= 1.0)

    def test_non_finite_time_is_a_solver_error(self, monkeypatch):
        monkeypatch.setattr(solver, "_solve_m_matrix", lambda Q, b: np.full(b.size, np.inf))
        with pytest.raises(SolverError, match="expected time from state 1 overflowed"):
            unconditional_expected_extinction(ModelParams(2.0, 5))


class TestConditionalOccupationTime:
    def test_two_state_band_identity(self):
        params = ModelParams(2.0, 3)
        kern = tilted_kernel(hitting_profile(params, 2))
        t = conditional_occupation_time(kern, 0.2)  # band (0.6, 2) contains x=1
        assert t.values[1] == pytest.approx(1.0 / (1.0 - kern.rows[0, 1]), abs=1e-12)

    def test_empty_band_gives_zero(self):
        params = ModelParams(2.0, 3)
        kern = tilted_kernel(hitting_profile(params, 2))
        t = conditional_occupation_time(kern, 0.6)  # band (1.8, 2) holds no integer
        assert np.all(t.values == 0.0)

    def test_band_floor_must_lie_below_u(self):
        params = ModelParams(2.0, 50)
        kern = tilted_kernel(hitting_profile(params, 10))
        with pytest.raises(ValueError):
            conditional_occupation_time(kern, 0.5)  # 25 >= u = 10

    def test_delta_range(self, kernel_2_50_u10):
        with pytest.raises(ValueError):
            conditional_occupation_time(kernel_2_50_u10, 0.0)
        with pytest.raises(ValueError):
            conditional_occupation_time(kernel_2_50_u10, 1.0)

    def test_never_negative(self, kernel_15_300_window):
        t = conditional_occupation_time(kernel_15_300_window, 0.1)
        assert np.all(t.values >= 0.0)


class TestProfileSerialization:
    def test_round_trip_is_exact(self, tmp_path, profile_2_50_u10):
        path = tmp_path / "profile.txt"
        write_profile(profile_2_50_u10, path)
        back = read_profile(path)
        assert back.params == profile_2_50_u10.params
        assert back.u == profile_2_50_u10.u
        assert back.residual == profile_2_50_u10.residual
        assert back.log_phi.tobytes() == profile_2_50_u10.log_phi.tobytes()
        assert back.method == "cached"

    def test_format_shape(self, tmp_path, profile_2_50_u10):
        path = tmp_path / "profile.txt"
        write_profile(profile_2_50_u10, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "version=2"
        assert lines[1] == "lambda=2"
        assert lines[2] == "n=50"
        assert lines[3] == "u=10"
        assert lines[5].split("\t")[0] == "0"

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda lines: lines[1:],  # missing version header
            lambda lines: ["version=7"] + lines[1:],  # unsupported version
            lambda lines: lines[:-1],  # truncated data
            lambda lines: lines + ["10\t0.5"],  # too many data lines
            lambda lines: lines[:5] + [lines[6], lines[5]] + lines[7:],  # out of order
            lambda lines: lines[:5] + ["0\tnot-a-number"] + lines[6:],
            lambda lines: lines[:5] + ["0 0.0"] + lines[6:],  # wrong separator
        ],
    )
    def test_corrupted_files_raise_named_error(self, tmp_path, profile_2_50_u10, mutation):
        path = tmp_path / "bad.txt"
        write_profile(profile_2_50_u10, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(mutation(lines)) + "\n")
        with pytest.raises(ProfileFormatError) as err:
            read_profile(path)
        assert "bad.txt" in str(err.value)

    def test_residual_failure_carries_value(self):
        # value iteration bailing out reports the residual it reached
        err = SolverError("no", residual=0.25)
        assert err.residual == 0.25
