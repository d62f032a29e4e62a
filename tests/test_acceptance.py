"""Acceptance suite: one test per release criterion.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.  Each criterion pins its tolerances here; the stated wall-clock
budgets are asserted too.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
from scipy.stats import binom, poisson

from barw import (
    ModelParams,
    branch_prob,
    check_gamma_ratio,
    check_ratio_beta,
    check_ratio_kappa,
    conditional_expected_extinction,
    conditional_occupation_time,
    envelope_log_bounds,
    estimate_hitting_prob,
    gw_extinction_prob,
    hitting_profile,
    make_bound_set,
    threshold_u,
    tilted_kernel,
    transition_log_row,
    unconditional_expected_extinction,
)
from barw.cli import ExperimentConfig, run_experiment

MC_SEED = 20240817
EQUIV_SEED = 7


@contextmanager
def criterion(number, description, limit_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL — {description}")
        raise
    elapsed = time.perf_counter() - start
    if limit_seconds is not None:
        assert elapsed < limit_seconds, (
            f"criterion {number} took {elapsed:.1f}s, budget {limit_seconds}s"
        )
    budget = f", budget {limit_seconds:.0f}s" if limit_seconds is not None else ""
    print(f"criterion {number:2d} PASS in {elapsed:6.2f}s{budget} — {description}")


def test_c01_tiny_instance_oracle():
    with criterion(1, "tiny-instance closed form and DP oracle", 1.0):
        params = ModelParams(2.0, 3)
        prof = hitting_profile(params, 2)
        b1 = branch_prob(params, 1)
        p10 = (1.0 - b1) ** 3
        p11 = 3.0 * b1 * (1.0 - b1) ** 2
        assert abs(prof.phi(1) - p10 / (1.0 - p11)) <= 1e-12

        for n in range(1, 13):
            for u in range(1, min(4, n) + 1):
                prof = hitting_profile(ModelParams(2.0, n), u)
                dp = _dp_oracle(2.0, n, u)
                assert np.max(np.abs(np.exp(prof.log_phi) - dp)) <= 1e-6


def _dp_oracle(lam, n, u, tol=1e-8):
    """Horizon-truncated hitting probability with scipy transition masses."""
    p = np.zeros((max(u - 1, 0), u))
    for x in range(1, u):
        t = lam * x / n
        p[x - 1] = binom.pmf(np.arange(u), n, t * math.exp(-t))
    if u == 1:
        return np.ones(1)
    stay = 1.0 - p[:, 0].min()
    horizon = int(math.ceil(math.log(tol) / math.log(stay))) + 1
    f = np.zeros(u)
    f[0] = 1.0
    for _ in range(horizon):
        f = np.concatenate(([1.0], p @ f))
    return f


def test_c02_figure1_left_monotone_but_log_nonlinear():
    with criterion(2, "lam=1.5 window: h decreasing, log h non-affine", 60.0):
        params = ModelParams(1.5, 1200)
        u = threshold_u(params, 0.05, "window")
        assert u == 265
        prof = hitting_profile(params, u)
        diffs = np.diff(prof.log_phi)
        assert np.all(diffs < 0.0)  # h strictly decreasing
        # non-affine: the first differences spread over more than 10% of
        # their own mean magnitude
        relative_range = (diffs.max() - diffs.min()) / abs(diffs.mean())
        assert relative_range > 0.10


def test_c03_figure1_right_non_monotone():
    with criterion(3, "lam=6 window: h rises again near the top", 60.0):
        params = ModelParams(6.0, 1200)
        u = threshold_u(params, 0.05, "window")
        assert u == 299
        prof = hitting_profile(params, u)
        diffs = np.diff(prof.log_phi)
        assert diffs[0] < 0.0  # decreases first
        assert np.any(diffs[u // 2 :] > 0.0)  # increases in the upper part


def test_c04_figure2_bimodal_rows():
    with criterion(4, "lam=6 tilted kernel has bimodal rows", 60.0):
        params = ModelParams(6.0, 1200)
        u = threshold_u(params, 0.05, "window")
        rows = tilted_kernel(hitting_profile(params, u))
        found = 0
        for x in range(1, u):
            row = rows[x - 1]
            peaks = _strict_local_maxima(row)
            if np.count_nonzero(row[peaks] > 1e-3) >= 2:
                found += 1
        # two strict maxima above 1e-3 force an interior value strictly
        # below both, so this is exactly the bimodality statement
        assert found >= 1


def _strict_local_maxima(row):
    left = np.empty_like(row)
    right = np.empty_like(row)
    left[0], left[1:] = -1.0, row[:-1]
    right[-1], right[:-1] = -1.0, row[1:]
    return np.flatnonzero((row > left) & (row > right))


def test_c05_conditional_window_scaling():
    with criterion(5, "t(x)/log(1+x) band stays stable across n", 120.0):
        bands = {}
        for n in (300, 600, 1200):
            params = ModelParams(1.5, n)
            u = threshold_u(params, 0.05, "window")
            t = conditional_expected_extinction(hitting_profile(params, u))
            x = np.arange(2, u)
            r = t[2:] / np.log1p(x)
            assert np.all(np.isfinite(r))
            bands[n] = r.max() / r.min()
        assert bands[1200] <= 2.0 * bands[300]


def test_c06_unconditional_growth():
    with criterion(6, "ln E[T0] grows at least exponentially in n", 60.0):
        lnt = {}
        for n in (20, 30, 40, 50):
            values = unconditional_expected_extinction(ModelParams(2.0, n))
            lnt[n] = math.log(values[-(-n // 2)])
        assert lnt[20] < lnt[30] < lnt[40] < lnt[50]
        assert lnt[50] - lnt[40] >= 0.5 * (lnt[30] - lnt[20])


def test_c07_monte_carlo_vs_exact():
    with criterion(7, "MC hitting estimate within 4 SE of exact phi(3)", 30.0):
        params = ModelParams(2.0, 50)
        est = estimate_hitting_prob(params, 10, 3, 100_000, seed=MC_SEED)
        phi3 = hitting_profile(params, 10).phi(3)
        assert abs(est.mean - phi3) <= 4.0 * est.std_error


def test_c08_envelope_sandwich():
    with criterion(8, "closed-form envelope sandwiches phi, log domain", 60.0):
        params = ModelParams(2.0, 2000)
        prof = hitting_profile(params, 100)
        bs = make_bound_set(2.0, 2000, 0.05)
        assert bs.envelope_ok
        for x in range(100):
            lo, hi = envelope_log_bounds(bs, x)
            assert lo - 1e-12 <= prof.log_phi[x] <= hi + 1e-12


def test_c09_geometric_bound():
    with criterion(9, "log phi(x) <= x log theta over the window profile", 60.0):
        params = ModelParams(1.5, 1200)
        prof = hitting_profile(params, 265)
        theta = gw_extinction_prob(math.exp(0.075))
        x = np.arange(265)
        assert np.all(prof.log_phi <= x * math.log(theta) + 1e-12)


def test_c10_kappa_ratio_floor():
    with criterion(10, "phi(x+1)/phi(x) >= kappa_n for adjacent pairs", 1.0):
        params = ModelParams(2.0, 50)
        prof = hitting_profile(params, 10)
        bs = make_bound_set(2.0, 50, 0.05)
        kappa_direct = (1.0 - math.e * 2.0 / ((math.e - 1.0) * 50.0)) ** 50
        assert abs(bs.kappa_n - kappa_direct) <= 1e-12
        report = check_ratio_kappa(prof, bs)
        assert report.passed and not report.violations
        assert report.extremes["min_ratio"] >= bs.kappa_n


def test_c11_gamma_ratio_grid():
    with criterion(11, "p(x+1,y) <= gamma p(x,y) exhaustively on the grid", 60.0):
        report = check_gamma_ratio(make_bound_set(2.0, 500, 0.05, alpha=0.4233))
        assert report.passed
        assert not report.violations
        assert report.extremes["max_ratio"] <= report.extremes["gamma"]


def dominated(a, b):
    """a <=_st b: the CDF of a is pointwise at least that of b, within 1e-12."""
    k = max(len(a), len(b))
    cdf_a = np.cumsum(np.pad(a, (0, k - len(a))))
    cdf_b = np.cumsum(np.pad(b, (0, k - len(b))))
    return bool(np.all(cdf_a >= cdf_b - 1e-12))


def tilt(params, x, factor, upper):
    """The pmf proportional to factor^y p(x, y) on y < upper, normalized in logs."""
    log_w = transition_log_row(params, x)[:upper] + np.arange(upper) * math.log(factor)
    w = np.exp(log_w - log_w.max())
    return w / w.sum()


def test_c12_stochastic_dominance_suite():
    with criterion(12, "dominance: Bin/Poi grid, conditioned pairs, tilted rows", 120.0):
        # binomial below its matched Poisson
        for n in (5, 20, 100):
            for p in (0.05, 0.1, 0.3, 0.5):
                a = binom.pmf(np.arange(n + 1), n, p)
                mean = -n * math.log1p(-p)
                hi = int(poisson.ppf(1.0 - 1e-15, mean)) + 10
                b = poisson.pmf(np.arange(hi), mean)
                assert dominated(a, b / b.sum())

        # conditioned binomials stay ordered
        for m in (5, 10, 20):
            k = np.arange(31)
            lo = binom.pmf(k, 30, 0.2)
            lo[k > m] = 0.0
            hi = binom.pmf(k, 30, 0.4)
            hi[k > m] = 0.0
            assert dominated(lo / lo.sum(), hi / hi.sum())

        # every tilted row sits between its beta_hat tilt and its kappa_n tilt below u
        params = ModelParams(2.0, 200)
        u = threshold_u(params, 0.05, "low")
        prof = hitting_profile(params, u)
        rows = tilted_kernel(prof)
        beta_hat = check_ratio_beta(prof).extremes["beta_hat"]
        kappa_n = make_bound_set(2.0, 200, 0.05).kappa_n
        for x in range(1, u):
            assert dominated(rows[x - 1], tilt(params, x, beta_hat, params.n + 1))
            assert dominated(tilt(params, x, kappa_n, u), rows[x - 1])

        # row x = 3 moved up by one state is no longer below its beta_hat tilt
        row = rows[2]
        shifted = np.concatenate(([0.0], row[:-2], [row[-2] + row[-1]]))
        assert not dominated(shifted, tilt(params, 3, beta_hat, params.n + 1))


def test_c13_meanfield_equivalence():
    with criterion(13, "particle one-step counts match Bin(n, b(x)) in TV", 60.0):
        from barw import complete_graph, particle_step_counts, transition_log_row, tv_distance

        graph = complete_graph(30, allow_self=True)
        trials = 200_000
        counts = particle_step_counts(graph, 10, 2.0, trials, seed=EQUIV_SEED)
        empirical = np.bincount(counts, minlength=31)[:31] / trials
        exact = np.exp(transition_log_row(ModelParams(2.0, 30), 10))
        assert tv_distance(empirical, exact) <= 0.01


def test_c14_occupation_bounded_in_n():
    with criterion(14, "conditioned band occupation stays bounded in n", 120.0):
        peak = {}
        for n in (300, 600, 1200):
            params = ModelParams(1.5, n)
            u = threshold_u(params, 0.05, "window")
            t = conditional_occupation_time(hitting_profile(params, u), 0.1)
            assert np.all(np.isfinite(t))
            peak[n] = t.max()
        assert peak[1200] <= 1.25 * peak[300]


def test_c15_rerun_determinism(tmp_path):
    with criterion(15, "criteria 7 and 13 CSVs identical on every rerun"):
        blobs = {"mc": [], "eq": []}
        for run in (1, 2):
            mc_dir = tmp_path / f"mc{run}"
            run_experiment(
                ExperimentConfig(
                    experiment="mc-hitting", out_dir=mc_dir, lam=2.0, n=50, u=10,
                    x0=3, trials=100_000, seed=MC_SEED,
                )
            )
            blobs["mc"].append((mc_dir / "est.csv").read_bytes())

            eq_dir = tmp_path / f"eq{run}"
            run_experiment(
                ExperimentConfig(
                    experiment="equivalence", out_dir=eq_dir, lam=2.0, n=30,
                    x0=10, trials=200_000, seed=EQUIV_SEED,
                )
            )
            blobs["eq"].append((eq_dir / "tv.csv").read_bytes())
        assert blobs["mc"][0] == blobs["mc"][1]
        assert blobs["eq"][0] == blobs["eq"][1]
