import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

import barw
from barw import (
    ModelParams,
    ProfileFormatError,
    SolverError,
    branch_prob,
    conditional_expected_extinction,
    conditional_occupation_time,
    equilibrium,
    estimate_conditioned_length,
    hitting_profile,
    read_profile,
    threshold_u,
    tilted_kernel,
    unconditional_expected_extinction,
    write_profile,
)
from barw import chain, simulate, solver
from barw.chain import (
    LOG_ZERO,
    ROW_BLOCK,
    _log_row_blocks,
    _log_tail_blocks,
    _log_top_masses,
    _logsumexp_rows,
    _transient_log_rows,
    transition_log_rows,
)
from barw.solver import (
    HittingProfile,
    METHOD_LOGDOMAIN,
    _conditioned_time,
    _path_floor,
    _solve_gth_rhs,
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


def full_tail_log_top_masses(params, u):
    """log P_x[X_1 >= u] for x = 1..u-1, log-summed over the whole tail y = u..n.

    The reference for chain._log_top_masses, which stops each row block's
    sum once the rest of its tail is negligible.
    """
    top = np.empty(u - 1)
    for i, block in _log_row_blocks(params, u, u, params.n):
        top[i : i + block.shape[0]] = _logsumexp_rows(block)
    return top


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


def sequential_solve_gth_scaled(log_p, log_top, s):
    """solver._solve_gth_scaled with O(m) work per pivot: the panel solve's reference.

    The same scaled GTH pass and masks, in panels of _PANEL pivots with a
    BLAS trailing product, but every pivot updates the whole rest of its
    row and column, and the masses to 0 and to >= u of every later state,
    which cost it O(m) numpy work.  The panel solve takes the same sums of
    nonnegative terms in another order, so the two agree to rounding.
    """
    m = s.size
    log_c = log_p[:, 0] - s  # log of the scaled mass to 0
    A = log_p[:, 1:]
    log_moved = np.empty(m)  # log of each row's raw mass moved to top
    for i in range(0, m, ROW_BLOCK):
        rows = A[i : i + ROW_BLOCK]
        s_x = s[i : i + ROW_BLOCK, None]
        block = np.add(rows, s[None, :])
        block -= s_x
        negligible = block < solver.LOG_NEGLIGIBLE
        np.fill_diagonal(negligible[:, i:], False)  # the diagonal is never a pivot mass
        buf = np.subtract(s[None, :], s_x)
        to_top = negligible & (buf < solver.LOG_NEGLIGIBLE / 2)
        buf.fill(LOG_ZERO)
        np.copyto(buf, rows, where=to_top)
        log_moved[i : i + ROW_BLOCK] = _logsumexp_rows(buf)
        np.exp(block, out=rows)
        rows[negligible] = 0.0
    top = np.logaddexp(log_top, log_moved)
    log_pivot = np.empty(m)
    terms = np.empty(m + 1)  # the log masses that sum to a pivot
    with np.errstate(divide="ignore"):
        for k0 in range(0, m, solver._PANEL):
            k1 = min(k0 + solver._PANEL, m)
            for k in range(k0, k1):
                d = s[k] - s[k + 1 :]
                # the pivot's log-sum-exp, in the ufuncs and order of _logsumexp_rows
                lse = terms[: m + 1 - k]
                lse[0] = log_c[k] + s[k]
                lse[1] = top[k]
                np.log(A[k, k + 1 :], out=lse[2:])
                lse[2:] += d  # the raw log masses from k to the states after it
                peak = lse.max()
                shift = peak if peak > LOG_ZERO else 0.0
                lse -= shift
                np.exp(lse, out=lse)
                log_pivot[k] = np.log(lse.sum()) + shift
                col = A[k + 1 :, k]
                col /= math.exp(log_pivot[k])  # column k now holds the multipliers
                row = A[k, k + 1 :]
                w = k1 - k - 1  # panel rows and columns after k
                A[k + 1 : k1, k + 1 :] += np.multiply.outer(col[:w], row)
                A[k1:, k + 1 : k1] += np.multiply.outer(col[w:], row[:w])
                f = np.log(col)  # log(Q_ik / pivot) + s_k - s_i
                np.subtract(top[k], d, out=d)  # (s_(k+1:) - s_k) + top_k, exactly
                d += f
                f += log_c[k]
                np.logaddexp(log_c[k + 1 :], f, out=log_c[k + 1 :])
                np.logaddexp(top[k + 1 :], d, out=top[k + 1 :])
            for i in range(k1, m, ROW_BLOCK):
                A[i : i + ROW_BLOCK, k1:] += A[i : i + ROW_BLOCK, k0:k1] @ A[k0:k1, k1:]

    psi = np.empty(m)
    c = np.exp(log_c)
    pivot = np.exp(log_pivot)
    for i in range(m - 1, -1, -1):
        psi[i] = (c[i] + np.sum(A[i, i + 1 :] * psi[i + 1 :])) / pivot[i]
    return np.log(psi) + s


def sequential_log_phi(params, u):
    """log phi_u(x), x = 0..u-1, from hitting_profile with the sequential reference solve."""
    with mock.patch.object(solver, "_solve_gth_scaled", sequential_solve_gth_scaled):
        return hitting_profile(params, u).log_phi


def sequential_solve_gth_rhs(rows, r):
    """solver._solve_gth_rhs with O(m) work per pivot: the panel time solve's reference.

    The same GTH elimination of t = r + Q t, Q = rows[:, 1:] and exit mass
    c = rows[:, 0], in panels of _PANEL pivots with an einsum trailing
    update, but every pivot updates the whole rest of its row and column,
    c and r ride as two extra columns of one m x (m + 2) copy of the rows,
    nothing is zeroed, and t comes from a back substitution of one state at
    a time.  The panel solve takes the same sums of nonnegative terms in
    another order, so the two agree to rounding.
    """
    m = r.size
    W = np.empty((m, m + 2))
    W[:, :m] = rows[:, 1:]
    W[:, m] = rows[:, 0]
    W[:, m + 1] = r
    pivot = np.empty(m)
    for k0 in range(0, m, solver._PANEL):
        k1 = min(k0 + solver._PANEL, m)
        for k in range(k0, k1):
            pivot[k] = np.sum(W[k, k + 1 : m + 1])
            assert pivot[k] > 0.0, f"state {k + 1} never reaches the exit"
            col = W[k + 1 :, k]
            col /= pivot[k]  # column k now holds the multipliers
            row = W[k, k + 1 :]
            w = k1 - k - 1  # panel rows and columns after k
            W[k + 1 : k1, k + 1 :] += np.multiply.outer(col[:w], row)
            W[k1:, k + 1 : k1] += np.multiply.outer(col[w:], row[:w])
        W[k1:, k1:] += np.einsum("ik,kj->ij", W[k1:, k0:k1], W[k0:k1, k1:], optimize=False)
    t = np.empty(m)
    for k in range(m - 1, -1, -1):
        t[k] = (W[k, m + 1] + np.sum(W[k, k + 1 : m] * t[k + 1 :])) / pivot[k]
    return t


def oracle_log_phi(params, u):
    """log phi_u(x), x = 0..u-1, from the all-log-domain GTH reference solve."""
    log_p = _transient_log_rows(params, u)
    x = _solve_gth_log(log_p[:, 1:], log_p[:, 0], _log_top_masses(params, u))
    return np.concatenate(([0.0], x))


def vi_log_phi(params, u):
    """log phi_u(x), x = 0..u-1, by monotone value iteration in logs.

    The k-th iterate is the probability of absorption within k steps while
    staying below u, so the iterates rise to phi; they stop once a sweep
    moves log phi by less than 1e-13, and fail the test after 10^6 sweeps.
    """
    log_p = _transient_log_rows(params, u)
    log_phi = np.full(u, LOG_ZERO)
    log_phi[0] = 0.0
    for _ in range(10**6):
        nxt = np.concatenate(([0.0], _logsumexp_rows(log_p + log_phi[None, :])))
        change = np.max(np.abs(nxt - log_phi))
        log_phi = nxt
        if change < 1e-13:
            return log_phi
    pytest.fail(f"value iteration still moved log phi by {change:.3e} after 10^6 sweeps")


def window_u(lam, n):
    return threshold_u(ModelParams(lam, n), 0.05, "window")


class TestHittingProfileSmall:
    def test_two_state_closed_form(self):
        params = ModelParams(2.0, 3)
        prof = hitting_profile(params, 2)
        b1 = branch_prob(params, 1)
        p10 = (1.0 - b1) ** 3
        p11 = 3.0 * b1 * (1.0 - b1) ** 2
        assert math.exp(prof.log_phi[1]) == pytest.approx(p10 / (1.0 - p11), abs=1e-12)

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
        assert dense.method == METHOD_LOGDOMAIN
        np.testing.assert_allclose(dense.log_phi, vi_log_phi(params, u), rtol=0, atol=1e-9)

    def test_value_iteration_matches_dp_and_oracle(self):
        # vi_log_phi is the cross-check above, so it is checked itself first;
        # 200 steps of the scipy-kernel DP already agree with it to 4e-16
        params, u = ModelParams(2.0, 50), 10
        vi = vi_log_phi(params, u)
        dp = dp_hitting_probability(2.0, 50, u, horizon=200)
        np.testing.assert_allclose(np.exp(vi), dp, rtol=0, atol=1e-12)
        np.testing.assert_allclose(vi, oracle_log_phi(params, u), rtol=0, atol=1e-12)

    def test_no_method_keyword(self):
        # there is one solve: a caller cannot ask for another
        with pytest.raises(TypeError):
            hitting_profile(ModelParams(2.0, 50), 10, method="dense-logdomain")

    @pytest.mark.parametrize("lam,n,u", [(2.0, 12, 3), (2.0, 30, 5), (6.0, 40, 12), (8.0, 16, 3)])
    def test_top_mass_from_tail_matches_complement(self, lam, n, u):
        # at small n the mass to >= u is large enough for 1 - sum to be exact
        params = ModelParams(lam, n)
        below = np.exp(_transient_log_rows(params, u)).sum(axis=1)
        np.testing.assert_allclose(
            np.exp(_log_top_masses(params, u)), 1.0 - below, rtol=1e-12, atol=0
        )

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(
        lam=st.floats(1.5, 8.0),
        n_u=st.integers(2, 3000).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, n))),
    )
    @example(lam=2.0, n_u=(2000, 594))  # bounds-report's window
    @example(lam=6.0, n_u=(1200, 299))  # figure2's README profile
    @example(lam=2.0, n_u=(300, 300))  # a one-column tail
    def test_live_tail_matches_full_tail(self, lam, n_u):
        n, u = n_u
        params = ModelParams(lam, n)
        top, full = _log_top_masses(params, u), full_tail_log_top_masses(params, u)
        # a few ulps of the mass, and of its log
        eps = np.finfo(float).eps
        np.testing.assert_allclose(top, full, rtol=4 * eps, atol=4 * eps)
        if n - u + 1 <= chain.TAIL_CHUNK:
            # a tail of one chunk is summed whole, as before
            assert top.tobytes() == full.tobytes()
        for i, block in _log_tail_blocks(params, u):
            kept = _logsumexp_rows(block)
            y_lo = u + block.shape[1]
            if y_lo > n:
                continue
            xs = range(i + 1, i + 1 + block.shape[0])
            rest = _logsumexp_rows(transition_log_rows(params, xs, y_lo, n))
            assert np.all(rest < kept - 60 * math.log(2)), (i, y_lo)

    @pytest.mark.filterwarnings("error")
    def test_rows_without_mass_stop_without_a_warning(self):
        # b(x) = 0 for x >= 373 at lam = 2000, n = 1000: those rows are -inf
        # throughout their 501-column tail, wider than one chunk, so the
        # stop test meets them
        params, u = ModelParams(2000.0, 1000), 500
        top = _log_top_masses(params, u)
        assert np.isneginf(top[372:]).all() and np.isfinite(top[:372]).all()
        np.testing.assert_array_equal(top, full_tail_log_top_masses(params, u))

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
        prof = hitting_profile(params, u)
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

    def test_unsettled_rescaling_is_a_solver_error(self, monkeypatch):
        # lam=4, n=500, u=350 takes a second pass above; one pass may not return
        monkeypatch.setattr(solver, "RESCALE_PASSES", 1)
        with pytest.raises(SolverError, match="did not settle within 1 passes"):
            hitting_profile(ModelParams(4.0, 500), 350)

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

    def test_deterministic_bit_identical(self):
        for params, u in [(ModelParams(1.5, 300), 67), (ModelParams(6.0, 1450), 250)]:
            a = hitting_profile(params, u)
            b = hitting_profile(params, u)
            assert a.log_phi.tobytes() == b.log_phi.tobytes()
            assert a.residual == b.residual

    def test_bits_independent_of_blas_threads(self):
        # the trailing updates are BLAS matrix products, 17 of them here in the
        # profile solve and in each time solve, and OpenBLAS reads its thread
        # count once, at start-up
        script = (
            "import sys; from barw import ModelParams, hitting_profile, "
            "conditional_expected_extinction, conditional_occupation_time; "
            "p = hitting_profile(ModelParams(2.0, 2000), 594); "
            "t, h = conditional_expected_extinction(p), conditional_occupation_time(p, 0.1); "
            "sys.stdout.buffer.write(p.log_phi.tobytes() + t.tobytes() + h.tobytes())"
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


class TestPanelSolve:
    """The panel solve against sequential_solve_gth_scaled, through hitting_profile."""

    @settings(derandomize=True, deadline=None, max_examples=30, database=None)
    @given(
        lam=st.floats(1.5, 8.0),
        n_u=st.integers(2, 3000).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, n))),
    )
    # m = u - 1 = 32, 33 and 63 take one panel, 64 and 65 two, 97 three
    @example(lam=2.0, n_u=(300, 33))
    @example(lam=2.0, n_u=(300, 34))
    @example(lam=2.0, n_u=(300, 64))
    @example(lam=2.0, n_u=(300, 65))
    @example(lam=2.0, n_u=(300, 66))
    @example(lam=2.0, n_u=(300, 98))
    @example(lam=2.0, n_u=(2000, 594))  # bounds-report's window
    @example(lam=6.0, n_u=(1200, 299))  # figure2's README profile
    @example(lam=4.0, n_u=(500, 350))  # far above eq: a second scaled pass
    def test_matches_sequential_solve(self, lam, n_u):
        n, u = n_u
        params = ModelParams(lam, n)
        got, want = hitting_profile(params, u).log_phi, sequential_log_phi(params, u)
        scale = np.maximum(1.0, np.abs(want))
        worst = float(np.max(np.abs(got - want) / scale))
        assert worst <= 1e-14, worst


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
        prof = hitting_profile(params, u)
        assert prof.residual <= 1e-8
        np.testing.assert_allclose(prof.log_phi, vi_log_phi(params, u), rtol=0, atol=1e-9)

    @PROPERTY_SETTINGS
    @given(any_threshold_pair())
    def test_phi_nondecreasing_in_u(self, case):
        # a higher bar is harder to escape to, so dying first gets likelier
        lam, n, u, u2 = case
        params = ModelParams(lam, n)
        low = hitting_profile(params, u)
        high = hitting_profile(params, u2)
        assert low.residual <= 1e-8 and high.residual <= 1e-8
        assert np.all(low.log_phi <= high.log_phi[:u] + 1e-9)

    @PROPERTY_SETTINGS
    @given(any_threshold())
    def test_scaled_solve_matches_log_domain_oracle(self, case):
        lam, n, u = case
        params = ModelParams(lam, n)
        prof = hitting_profile(params, u)
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
        # tilted_kernel raises SolverError if a raw row is off
        lam, n, u = case
        rows = tilted_kernel(hitting_profile(ModelParams(lam, n), u))
        assert np.max(np.abs(rows.sum(axis=1) - 1.0)) <= 1e-9


class TestTiltedKernel:
    def test_row_sums(self, profile_15_300_window, kernel_15_300_window):
        sums = kernel_15_300_window.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12  # renormalized exactly

    def test_two_state_row(self):
        params = ModelParams(2.0, 3)
        prof = hitting_profile(params, 2)
        rows = tilted_kernel(prof)
        b1 = branch_prob(params, 1)
        p10 = (1.0 - b1) ** 3
        p11 = 3.0 * b1 * (1.0 - b1) ** 2
        phi1 = p10 / (1.0 - p11)
        assert rows[0, 0] == pytest.approx(p10 / phi1, abs=1e-12)
        assert rows[0, 1] == pytest.approx(p11, abs=1e-12)
        assert rows[0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_absorbing_mass_at_least_raw(self, profile_2_50_u10, kernel_2_50_u10):
        # mass on 0 is p(x,0)/phi(x) >= p(x,0) since phi <= 1
        raw = np.exp(
            transition_log_rows(ModelParams(2.0, 50), range(1, 10), 0, 0)[:, 0]
        )
        assert np.all(kernel_2_50_u10[:, 0] >= raw - 1e-15)

    def test_strictly_positive_entries_small_config(self, kernel_2_50_u10):
        # p(x,y) > 0 and phi(y) > 0 here, so no entry may vanish
        assert np.all(kernel_2_50_u10 > 0.0)

    def test_u_one_kernel_is_empty(self):
        rows = tilted_kernel(hitting_profile(ModelParams(2.0, 10), 1))
        assert rows.shape == (0, 1)

    def test_bad_profile_rejected(self):
        params = ModelParams(2.0, 50)
        good = hitting_profile(params, 10)
        skewed = np.array(good.log_phi)
        skewed[5] += 0.5  # breaks harmonicity, rows will not sum to 1
        tampered = HittingProfile(params, 10, skewed, good.residual, good.method)
        with pytest.raises(SolverError, match=r"tilted row for x=\d+ sums to"):
            tilted_kernel(tampered)

    @PROPERTY_SETTINGS
    @given(st.integers(1, 9), st.floats(1e-6, 1.0), st.sampled_from([-1.0, 1.0]))
    def test_every_conditioned_entry_point_refuses_a_moved_profile(
        self, profile_2_50_u10, x, size, sign
    ):
        # each entry point tilts the profile itself, so the row-sum check
        # refuses one moved log phi(x) before any solve, and before any trial
        moved = np.array(profile_2_50_u10.log_phi)
        moved[x] += sign * size
        tampered = HittingProfile(ModelParams(2.0, 50), 10, moved, 0.0, METHOD_LOGDOMAIN)
        blocks = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "philox_block", lambda *args: blocks.append(args))
            for run in (
                lambda: conditional_expected_extinction(tampered),
                lambda: conditional_occupation_time(tampered, 0.1),
                lambda: estimate_conditioned_length(tampered, 3, 10, 1),
            ):
                with pytest.raises(SolverError, match=r"tilted row for x=\d+ sums to"):
                    run()
        assert blocks == []


def _traced_peak(f, *args):
    """f(*args) and the peak of the memory that tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        result = f(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class TestSolveMemory:
    """Each stage holds about one m^2 array of doubles at its peak, m = u - 1.

    The profile solve writes its scaled matrix over the kernel rows and
    builds its masks, trailing products and residual a ROW_BLOCK of rows at
    a time; tilting works in place of the rows it builds and keeps them
    without a copy.  The time solve tilts straight into its working array
    and eliminates in place, with O(_PANEL m) scratch and its trailing
    products taken a ROW_BLOCK of rows at a time, so its peak is tilting's.
    """

    PARAMS, U = ModelParams(2.0, 2000), 594  # the window profile of bounds-report --n 2000

    @pytest.fixture(scope="class")
    def profile_and_peak(self):
        return _traced_peak(hitting_profile, self.PARAMS, self.U)

    def test_profile_solve_peaks_below_1_6_m2(self, profile_and_peak):
        profile, peak = profile_and_peak
        assert profile.residual <= 1e-8
        assert peak <= 1.6 * 8 * (self.U - 1) ** 2, peak / (8 * (self.U - 1) ** 2)

    def test_tilting_peaks_below_2_m2(self, profile_and_peak):
        rows, peak = _traced_peak(tilted_kernel, profile_and_peak[0])
        assert peak <= 2.0 * 8 * (self.U - 1) ** 2, peak / (8 * (self.U - 1) ** 2)
        assert not rows.flags.writeable

    def test_time_solve_peaks_below_1_5_m2(self, profile_and_peak):
        # the tilted rows are the solve's working array
        t, peak = _traced_peak(conditional_expected_extinction, profile_and_peak[0])
        assert t.size == self.U
        assert peak <= 1.5 * 8 * (self.U - 1) ** 2, peak / (8 * (self.U - 1) ** 2)


class TestConditionalExpectedExtinction:
    def test_starts_at_zero(self, profile_2_50_u10):
        t = conditional_expected_extinction(profile_2_50_u10)
        assert t[0] == 0.0
        assert not t.flags.writeable and t.flags.owndata  # read-only, and not a view

    def test_two_state_geometric_identity(self):
        params = ModelParams(2.0, 3)
        prof = hitting_profile(params, 2)
        t = conditional_expected_extinction(prof)
        assert t[1] == pytest.approx(1.0 / (1.0 - tilted_kernel(prof)[0, 1]), abs=1e-12)

    def test_at_least_one_step(self, profile_15_300_window):
        t = conditional_expected_extinction(profile_15_300_window)
        assert np.all(t[1:] >= 1.0)
        assert np.all(np.isfinite(t))

    def test_log_window_band_recorded(self, profile_15_300_window):
        t = conditional_expected_extinction(profile_15_300_window)
        x = np.arange(2, profile_15_300_window.u)
        r = t[2:] / np.log1p(x)
        assert math.isfinite(r.max() / r.min())


def gw_extinction_and_times(lam, xs):
    """Poisson(lam) Galton-Watson extinction probability q and E_x[tau | extinction] for x in xs.

    Independent of the package: q is the limit of s <- e^(lam(s-1)) from 0.
    Conditioned on extinction the process is Galton-Watson with generating
    function f(s) = e^(lam q (s-1)), so E_x[tau] = sum_(k>=0) (1 - f_k(0)^x).
    The sum runs on g_k = log f_k(0), g_(k+1) = lam q expm1(g_k), without
    forming 1 - f_k(0) by subtraction.
    """
    q = 0.0
    for _ in range(2000):
        q = math.exp(lam * (q - 1.0))
    x = np.asarray(xs, dtype=float)
    total = np.ones(x.size)  # k = 0: f_0(0) = 0
    g = -lam * q
    while True:
        term = -np.expm1(x * g)
        total += term
        if term.max() < 1e-17:
            return q, total
        g = lam * q * math.expm1(g)


class TestGaltonWatsonLimit:
    """At fixed x the chain conditioned to die below the window threshold tends,
    as n grows, to the Galton-Watson process conditioned on extinction.

    Finite n makes dying easier, so log phi(x) exceeds x log q and the
    conditioned time t(x) exceeds the GW one.  Both gaps are of order 1/n:
    from n = 300 to n = 1200 they shrink by 4.01 to 4.45 for t and by 4.02
    to 4.09 for log phi (x = 1..10, lam = 1.5, 2, 3), so the band below
    allows the next-order term and refuses any other power of n.
    """

    RATIO_BAND = (3.8, 4.6)

    @pytest.mark.parametrize("lam", [1.5, 2.0, 3.0])
    def test_gaps_are_positive_and_shrink_as_one_over_n(self, lam):
        x = np.arange(1, 11)
        q, gw_times = gw_extinction_and_times(lam, x)
        gaps = []
        for n in (300, 1200):
            profile = hitting_profile(ModelParams(lam, n), window_u(lam, n))
            t = conditional_expected_extinction(profile)
            gaps.append((t[x] - gw_times, profile.log_phi[x] - x * math.log(q)))
        for small_n, large_n in zip(*gaps):
            assert np.all(large_n > 0.0)
            ratio = small_n / large_n
            assert np.all((self.RATIO_BAND[0] < ratio) & (ratio < self.RATIO_BAND[1])), ratio


class TestLogarithmicExtinctionWindow:
    """The conditioned extinction time tau from x = u - 1 at the window
    threshold: its mean grows like log n / |log(lam q)| and its spread stays
    of order 1, the paper's logarithmic extinction window.

    E[tau^2] = s(u - 1) with s = 1 + 2 P_phi t + P_phi s.  Per 4x in n the
    mean grows by 0.936, 0.903 and 0.875 of log 4 / |log(lam q)| at lam =
    1.5, 2 and 3, approaching the rate from below, and the sd falls from
    3.50 to 2.99, 1.72 to 1.53 and 0.87 to 0.81.
    """

    INCREMENT_BAND = (0.8, 1.0)
    SD_BAND = (0.5, 4.0)

    @pytest.mark.parametrize("lam", [1.5, 2.0, 3.0])
    def test_mean_grows_by_the_subcritical_rate_and_sd_stays_bounded(self, lam):
        q, _ = gw_extinction_and_times(lam, [1])
        rate = abs(math.log(lam * q))
        means, sds = [], []
        for n in (300, 1200):
            profile = hitting_profile(ModelParams(lam, n), window_u(lam, n))
            t = conditional_expected_extinction(profile)
            s = _conditioned_time(profile, 1.0 + 2.0 * tilted_kernel(profile)[:, 1:] @ t[1:])
            means.append(t[-1])
            sds.append(math.sqrt(s[-1] - t[-1] ** 2))
        increment = (means[1] - means[0]) * rate / math.log(4.0)
        assert self.INCREMENT_BAND[0] <= increment <= self.INCREMENT_BAND[1], increment
        assert sds[1] <= sds[0], sds
        assert all(self.SD_BAND[0] <= sd <= self.SD_BAND[1] for sd in sds), sds


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


def absorbing_case(m, seed, density, exit_share, exit_exp, r_density):
    """(rows, r): rows [c | Q] over m states, each summing to 1, from which every state exits; r >= 0.

    A share `density` of the masses and `exit_share` of the exit masses c_k
    are nonzero; state k always reaches k + 1 and the last state always
    exits, and an exit scale of 10^-exit_exp makes the times long and I - Q
    ill-conditioned.  A share `r_density` of r is nonzero.
    """
    rng = np.random.default_rng(seed)
    w = rng.random((m, m + 1)) * (rng.random((m, m + 1)) < density)
    c = rng.random(m) * (rng.random(m) < exit_share)
    c[-1] += 1.0
    w[:, 0] = c * 10.0**-exit_exp
    k = np.arange(m - 1)
    w[k, k + 2] += 1.0
    r = rng.random(m) * (rng.random(m) < r_density)
    return w / w.sum(axis=1, keepdims=True), r


@st.composite
def absorbing_rows(draw):
    """absorbing_case with m at the panel edges; many rows have no exit mass."""
    return absorbing_case(
        draw(st.sampled_from([1, 31, 32, 33, 64, 65])),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.floats(0.05, 1.0)),
        draw(st.floats(0.0, 0.9)),
        draw(st.integers(0, 12)),
        draw(st.floats(0.1, 1.0)),
    )


def _mp_solve_absorbing(mpmath, rows, r):
    """t = r + Q t in mpmath, by Gaussian elimination on [I - Q | r] in natural order.

    1 - Q_kk is taken as c_k plus the masses to the other states, as rows
    that sum to 1 define it.  I - Q is then a nonsingular M-matrix, so no
    pivoting is needed.  mpmath.lu_solve, which pivots, agrees to about 28
    digits and takes about three times as long.
    """
    m = r.size
    a = [[-mpmath.mpf(q) for q in row[1:]] + [mpmath.mpf(b)] for row, b in zip(rows.tolist(), r.tolist())]
    for k in range(m):
        a[k][k] = mpmath.fsum([rows[k, 0], *(rows[k, j + 1] for j in range(m) if j != k)])
    for k in range(m):
        for i in range(k + 1, m):
            f = a[i][k] / a[k][k]
            for j in range(k + 1, m + 1):
                a[i][j] -= f * a[k][j]
    t = [mpmath.mpf(0)] * m
    for k in range(m - 1, -1, -1):
        t[k] = (a[k][m] - mpmath.fsum(a[k][j] * t[j] for j in range(k + 1, m))) / a[k][k]
    return t


class TestConditionedTimeSolve:
    @settings(derandomize=True, deadline=None, max_examples=15, database=None)
    @given(absorbing_rows())
    @example(case=absorbing_case(97, 97, 0.5, 0.5, 6, 0.5))  # two panels before the last stretch
    def test_gth_rhs_matches_forty_digit_solve(self, case):
        mpmath = pytest.importorskip("mpmath")
        rows, r = case
        before = r.tobytes()
        got = _solve_gth_rhs(rows.copy(), r)  # the solve spends its rows
        assert r.tobytes() == before
        with mpmath.workdps(40):
            want = _mp_solve_absorbing(mpmath, rows, r)
        for g, w in zip(got.tolist(), want):
            assert (g == 0.0) if w == 0 else abs(g / w - 1) <= 1e-13, (g, w)

    @settings(derandomize=True, deadline=None, max_examples=20, database=None)
    @given(
        lam=st.floats(1.5, 8.0),
        n_u=st.integers(2, 1200).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, n))),
    )
    # m = u - 1 = 63 is one whole stretch, 64 and 65 one panel before it, 97 two
    @example(lam=2.0, n_u=(300, 64))
    @example(lam=2.0, n_u=(300, 65))
    @example(lam=2.0, n_u=(300, 66))
    @example(lam=2.0, n_u=(300, 98))
    @example(lam=1.5, n_u=(1200, 265))  # the README cond-time and occupation window
    @example(lam=6.0, n_u=(1200, 299))  # figure2's README profile
    @example(lam=2.0, n_u=(2000, 594))  # bounds-report's window
    @example(lam=3.0, n_u=(2400, 759))
    @example(lam=3.017578125, n_u=(795, 795))  # max t = 1.5e140, past the cut's bound
    def test_panel_solve_matches_sequential_solve(self, lam, n_u):
        # expected times (r = 1, with the cut) and band occupation times (no cut);
        # an occupation time below the smallest normal double has no relative
        # accuracy left, so it is held to 1e-14 of that double instead
        n, u = n_u
        prof = hitting_profile(ModelParams(lam, n), u)
        rows = tilted_kernel(prof)
        for r in (np.ones(u - 1), (np.arange(1, u) > 0.1 * n).astype(float)):
            got, want = _conditioned_time(prof, r)[1:], sequential_solve_gth_rhs(rows, r)
            scale = np.maximum(want, np.finfo(float).tiny)
            worst = float(np.max(np.abs(got - want) / scale, initial=0.0))
            assert worst <= 1e-14, worst

    def test_cut_keeps_the_bytes_of_t(self, monkeypatch):
        # bounds-report's window: 30,529 tilted masses lie in (0, e^LOG_NEGLIGIBLE)
        prof = hitting_profile(ModelParams(2.0, 2000), 594)
        rows = tilted_kernel(prof)[:, 1:]
        assert np.any((rows > 0.0) & (rows < math.exp(solver.LOG_NEGLIGIBLE)))
        t = conditional_expected_extinction(prof)
        monkeypatch.setattr(solver, "LOG_NEGLIGIBLE", -math.inf)
        assert conditional_expected_extinction(prof).tobytes() == t.tobytes()

    @pytest.mark.parametrize("n", [765, 795])
    def test_t_past_the_cut_bound_keeps_every_mass(self, monkeypatch, n):
        # a row may lose all its m masses, so t is solved again with every mass once
        # m max t passes 2^-53 e^350 min r = 1.1e136: at n = 765 max t = 7.5e134 stays below
        # 1.1e136 but m max t does not; at n = 795 max t = 1.5e140, and the cut moved t by
        # 7e-15, beyond its rounding
        prof = hitting_profile(ModelParams(3.017578125, n), n)
        t = conditional_expected_extinction(prof)
        assert t.max() * (t.size - 1) > 2.0**-53 * math.exp(-solver.LOG_NEGLIGIBLE)
        monkeypatch.setattr(solver, "LOG_NEGLIGIBLE", -math.inf)
        assert conditional_expected_extinction(prof).tobytes() == t.tobytes()

    def test_occupation_keeps_its_tiny_times(self):
        # far above the band floor the occupation times of figure2's profile fall
        # below 1e-150, where a cut would move them; they keep their relative accuracy
        prof = hitting_profile(ModelParams(6.0, 1200), 299)
        got = conditional_occupation_time(prof, 0.1)[1:]
        want = sequential_solve_gth_rhs(tilted_kernel(prof), (np.arange(1, 299) > 120).astype(float))
        tiny = (want > 0.0) & (want < 1e-150)
        assert tiny.sum() >= 10, tiny.sum()
        assert np.all(np.abs(got - want) <= 1e-14 * want)

    def test_gth_rhs_refuses_a_state_that_never_exits(self):
        rows = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])  # state 1 moves to 2, which loops
        with pytest.raises(SolverError, match="state 2 never reaches the exit"):
            _solve_gth_rhs(rows, np.ones(2))

    def test_u_one_gives_t_zero(self):
        prof = hitting_profile(ModelParams(2.0, 10), 1)
        for t in (conditional_expected_extinction(prof), conditional_occupation_time(prof, 0.05)):
            assert t.tolist() == [0.0]
            assert not t.flags.writeable

    def test_m_matrix_solve_forms_i_minus_q(self, kernel_2_50_u10):
        Q = kernel_2_50_u10[:, 1:]
        b = np.linspace(0.0, 1.0, Q.shape[0])
        before = Q.copy(), b.copy()
        x = _solve_m_matrix(Q, b)
        assert x == pytest.approx(np.linalg.solve(np.eye(Q.shape[0]) - Q, b), rel=1e-12)
        assert Q.tobytes() == before[0].tobytes() and b.tobytes() == before[1].tobytes()

    def test_matches_forty_digit_solve(self):
        # both conditioned time solves at lambda=1.5, n=200 and its window
        # threshold, against an LU solve of I - P on the same double rows in
        # 40-digit arithmetic
        mpmath = pytest.importorskip("mpmath")
        params = ModelParams(1.5, 200)
        prof = hitting_profile(params, threshold_u(params, 0.05, "window"))
        assert prof.u == 45
        x = np.arange(1, prof.u)
        cases = [
            (conditional_expected_extinction(prof), np.ones(x.size)),
            (conditional_occupation_time(prof, 0.1), (x > 0.1 * params.n).astype(float)),
        ]
        with mpmath.workdps(40):
            a = mpmath.eye(x.size) - mpmath.matrix(tilted_kernel(prof)[:, 1:].tolist())
            for got, r in cases:
                want = mpmath.lu_solve(a, mpmath.matrix(r.tolist()))
                assert got[0] == 0.0
                rel = max(abs(g / w - 1) for g, w in zip(got[1:].tolist(), want))
                assert rel <= 1e-14, float(rel)

    def test_occupation_with_full_band_is_extinction_time(self, profile_15_300_window):
        # every transient state lies above delta*n = 0.3, so r = 1 as for t
        t = conditional_expected_extinction(profile_15_300_window)
        occ = conditional_occupation_time(profile_15_300_window, 0.001)
        assert occ.tobytes() == t.tobytes()


class TestUnconditionalExpectedExtinction:
    def test_single_site_closed_form(self):
        params = ModelParams(2.0, 1)
        t = unconditional_expected_extinction(params)
        p11 = branch_prob(params, 1)
        assert t[0] == 0.0
        assert t[1] == pytest.approx(1.0 / (1.0 - p11), rel=1e-12)

    def test_growth_with_n(self):
        previous = 0.0
        for n in (20, 30, 40):
            t = unconditional_expected_extinction(ModelParams(2.0, n))
            x = -(-n // 2)
            assert math.log(t[x]) > previous
            previous = math.log(t[x])

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            unconditional_expected_extinction(ModelParams(2.0, 401))

    def test_not_conditional(self):
        t = unconditional_expected_extinction(ModelParams(2.0, 5))
        assert not t.flags.writeable and t.flags.owndata
        assert np.all(t[1:] >= 1.0)

    def test_non_finite_time_is_a_solver_error(self, monkeypatch):
        monkeypatch.setattr(solver, "_solve_m_matrix", lambda Q, b: np.full(b.size, np.inf))
        with pytest.raises(SolverError, match="expected time from state 1 overflowed"):
            unconditional_expected_extinction(ModelParams(2.0, 5))

    #: log T(ceil(n/2)) at lambda=2 from a 60-digit subtraction-free (GTH)
    #: solve of the same rows
    LOG_T_60_DIGITS = {50: 13.026728385752791, 100: 26.025449335503193, 200: 52.416115305192054}

    def test_admitted_solve_within_known_error(self):
        # the native solve's error at n=50 is 2.5e-9; its estimate n*eps*max T is 5.0e-9
        t = unconditional_expected_extinction(ModelParams(2.0, 50))
        assert abs(math.log(t[25]) - self.LOG_T_60_DIGITS[50]) <= 3e-9

    @pytest.mark.parametrize("n", [100, 200])
    def test_inaccurate_solve_is_refused(self, n):
        # the native log T is off by 4.4e-3 at n=100 and by 21.8 at n=200
        with pytest.raises(SolverError, match="estimated relative error"):
            unconditional_expected_extinction(ModelParams(2.0, n))


class TestConditionalOccupationTime:
    def test_two_state_band_identity(self):
        params = ModelParams(2.0, 3)
        prof = hitting_profile(params, 2)
        t = conditional_occupation_time(prof, 0.2)  # band (0.6, 2) contains x=1
        assert t[1] == pytest.approx(1.0 / (1.0 - tilted_kernel(prof)[0, 1]), abs=1e-12)

    def test_empty_band_gives_zero(self):
        params = ModelParams(2.0, 3)
        prof = hitting_profile(params, 2)
        t = conditional_occupation_time(prof, 0.6)  # band (1.8, 2) holds no integer
        assert np.all(t == 0.0)

    def test_band_floor_must_lie_below_u(self):
        params = ModelParams(2.0, 50)
        prof = hitting_profile(params, 10)
        with pytest.raises(ValueError):
            conditional_occupation_time(prof, 0.5)  # 25 >= u = 10

    def test_delta_range(self, profile_2_50_u10):
        with pytest.raises(ValueError):
            conditional_occupation_time(profile_2_50_u10, 0.0)
        with pytest.raises(ValueError):
            conditional_occupation_time(profile_2_50_u10, 1.0)

    def test_never_negative(self, profile_15_300_window):
        t = conditional_occupation_time(profile_15_300_window, 0.1)
        assert np.all(t >= 0.0)


def _perturbed(log_phi, x, by):
    return [v + by if i == x else v for i, v in enumerate(log_phi)]


class TestProfileSerialization:
    def test_round_trip_is_exact(self, tmp_path, profile_2_50_u10):
        for profile in (profile_2_50_u10, hitting_profile(ModelParams(2.0, 50), 1)):
            path = tmp_path / f"profile_u{profile.u}.json"
            write_profile(profile, path)
            back = read_profile(path, profile.params, profile.u)
            assert back.params == profile.params
            assert back.u == profile.u
            assert back.residual == profile.residual  # recomputed, bit for bit
            assert back.log_phi.tobytes() == profile.log_phi.tobytes()
            assert back.method == "cached"

    def test_format_shape(self, tmp_path, profile_2_50_u10):
        path = tmp_path / "profile.json"
        write_profile(profile_2_50_u10, path)
        text = path.read_text()
        assert text.count("\n") == 1 and text.endswith("}\n")
        record = json.loads(text)
        assert list(record) == ["version", "lambda", "n", "u", "log_phi"]
        assert (record["version"], record["lambda"], record["n"], record["u"]) == (3, 2.0, 50, 10)
        assert record["log_phi"] == profile_2_50_u10.log_phi.tolist()

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda r: {k: v for k, v in r.items() if k != "version"},  # missing version
            lambda r: {**r, "version": 2},  # the text format's version
            lambda r: {**r, "log_phi": r["log_phi"][:-1]},  # short log_phi
            lambda r: {**r, "log_phi": r["log_phi"] + [-10.5]},  # long log_phi
            lambda r: {**r, "log_phi": [0.0, "not-a-number", *r["log_phi"][2:]]},
            lambda r: {**r, "log_phi": [0.0, 10**400, *r["log_phi"][2:]]},  # no double
            lambda r: {**r, "log_phi": dict(enumerate(r["log_phi"]))},  # not a list
            lambda r: {**r, "log_phi": _perturbed(r["log_phi"], 4, 0.5)},  # not harmonic
            lambda r: {**r, "lambda": 10**400},
            lambda r: {**r, "n": True},
            lambda r: {**r, "u": 10.0},
            lambda r: {**r, "u": 51},  # above n
            lambda r: [r],  # not a JSON object
            lambda r: "version=3\nlambda=2\nn=50\nu=10\n",  # not JSON
        ],
    )
    def test_corrupted_files_raise_named_error(self, tmp_path, profile_2_50_u10, mutation):
        path = tmp_path / "bad.json"
        write_profile(profile_2_50_u10, path)
        bad = mutation(json.loads(path.read_text()))
        path.write_text(bad if isinstance(bad, str) else json.dumps(bad))
        with pytest.raises(ProfileFormatError) as err:
            read_profile(path, profile_2_50_u10.params, profile_2_50_u10.u)
        assert "bad.json" in str(err.value)

    def test_other_key_is_refused_before_row_blocks_are_built(
        self, tmp_path, profile_2_50_u10, monkeypatch
    ):
        # checking the harmonicity of a record of n = 10^8 would build rows for
        # 10^8 sites; the residual check builds the key's rows a block at a time
        path = tmp_path / "profile.json"
        write_profile(profile_2_50_u10, path)
        record = json.loads(path.read_text())
        path.write_text(json.dumps({**record, "n": 10**8}))
        built = []
        monkeypatch.setattr(solver, "_log_row_blocks", lambda params, *args: built.append(params))
        with pytest.raises(ValueError, match="its key does not match the requested profile") as err:
            read_profile(path, ModelParams(2.0, 50), 10)
        assert not isinstance(err.value, ProfileFormatError)
        assert str(path) in str(err.value)
        assert built == []

    def test_deeply_nested_record_is_a_format_error(self, tmp_path):
        # json.loads gives up on nesting this deep with RecursionError
        path = tmp_path / "profile.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        with pytest.raises(ProfileFormatError, match="maximum recursion depth") as err:
            read_profile(path, ModelParams(2.0, 50), 10)
        assert err.value.path == str(path)

    def test_numpy_integer_u_is_solved_and_written(self, tmp_path, profile_2_50_u10):
        profile = hitting_profile(ModelParams(2.0, 50), np.int64(10))
        assert type(profile.u) is int
        assert profile.log_phi.tobytes() == profile_2_50_u10.log_phi.tobytes()
        write_profile(profile, tmp_path / "profile.json")
        back = read_profile(tmp_path / "profile.json", ModelParams(2.0, 50), 10)
        assert back.log_phi.tobytes() == profile.log_phi.tobytes()

    @pytest.mark.parametrize("shape", [(10, 1), (10, 2)], ids=["u-by-1", "u-by-2"])
    def test_log_phi_that_is_not_1d_is_refused(self, shape):
        # refused on its shape, before any element-wise check sees a 2-D array
        with pytest.raises(ValueError, match=r"^log_phi must be 1-D with exactly u=10 entries$"):
            HittingProfile(ModelParams(2.0, 50), 10, np.zeros(shape), 0.0, METHOD_LOGDOMAIN)

    @pytest.mark.parametrize("u", [True, 10.0, "10", None])
    def test_non_integer_u_is_refused_before_any_row_is_built(self, monkeypatch, u):
        built = []
        rows = chain.transition_log_rows

        def recording_rows(params, xs, *args):
            built.append(params)
            return rows(params, xs, *args)

        monkeypatch.setattr(chain, "transition_log_rows", recording_rows)
        with pytest.raises(ValueError, match=f"^threshold must be an integer, got {u!r}$"):
            hitting_profile(ModelParams(2.0, 50), u)
        with pytest.raises(ValueError, match=f"^threshold must be an integer, got {u!r}$"):
            HittingProfile(ModelParams(2.0, 50), u, np.zeros(1), 0.0, METHOD_LOGDOMAIN)
        assert built == []

    @settings(derandomize=True, deadline=None, max_examples=150, database=None)
    @given(st.sampled_from(["version", "lambda", "n", "u", "log_phi"]), st.data())
    def test_any_field_value_is_read_back_or_refused(
        self, tmp_path_factory, profile_2_50_u10, field, data
    ):
        # the stored values, as ints and as floats, probe each field's type check
        leaves = (
            st.sampled_from([2, 2.0, 3, 3.0, 10, 10.0, 50, 50.0])
            | st.none() | st.booleans() | st.integers()
            | st.floats() | st.text(max_size=5)
        )
        json_values = st.recursive(
            leaves,
            lambda inner: st.lists(inner, max_size=12)
            | st.dictionaries(st.text(max_size=3), inner),
            max_leaves=15,
        )
        value = data.draw(json_values)
        original = profile_2_50_u10
        path = tmp_path_factory.mktemp("record") / "profile.json"
        write_profile(original, path)
        record = json.loads(path.read_text())
        record[field] = value
        path.write_text(json.dumps(record))
        try:
            back = read_profile(path, original.params, original.u)
        except ProfileFormatError as exc:
            assert exc.path == str(path)
            return
        except ValueError as exc:
            # a record of another key, e.g. a lambda within 3e-9 of 2 whose log phi stays harmonic
            assert str(exc).startswith(f"{path}: its key does not match")
            return
        assert back.params == original.params and back.u == original.u
        assert back.log_phi.tobytes() == original.log_phi.tobytes()
        assert back.residual == original.residual

    def test_residual_failure_carries_value(self):
        # a solve that misses its harmonicity gate reports the residual it reached
        err = SolverError("no", residual=0.25)
        assert err.residual == 0.25
