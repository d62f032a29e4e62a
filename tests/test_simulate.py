import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

import barw.simulate as sim
from barw import (
    EstimateWithCI,
    ModelParams,
    TruncationError,
    branch_prob,
    complete_graph,
    conditional_expected_extinction,
    equilibrium,
    estimate_conditioned_length,
    estimate_hitting_prob,
    graph_from_name,
    hitting_profile,
    parse_graph_file,
    run_to_absorption,
    sample_conditioned_path,
    single_origin_state,
    step_meanfield,
    step_particle,
    threshold_u,
    tilted_kernel,
    transition_log_row,
    trial_stream,
    tv_distance,
)
from barw.simulate import ParticleState, Trajectory


class TestTrialStream:
    def test_deterministic_per_key(self):
        a = trial_stream(42, 7).random(4)
        b = trial_stream(42, 7).random(4)
        assert np.array_equal(a, b)

    def test_distinct_trials_distinct_streams(self):
        assert not np.array_equal(trial_stream(42, 0).random(4), trial_stream(42, 1).random(4))

    def test_distinct_seeds_distinct_streams(self):
        assert not np.array_equal(trial_stream(1, 0).random(4), trial_stream(2, 0).random(4))

    def test_seed_range_validated(self):
        with pytest.raises(ValueError):
            trial_stream(-1, 0)
        with pytest.raises(ValueError):
            trial_stream(1 << 64, 0)
        with pytest.raises(ValueError):
            trial_stream(1, -1)

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_estimators_check_seed_range(self, kernel, seed):
        # the ValueError trial_stream gives, not an OverflowError from the kernel
        match = f"seed must be a 64-bit unsigned integer, got {seed}$"
        with pytest.raises(ValueError, match=match):
            estimate_hitting_prob(ModelParams(2.0, 50), 10, 3, 10, seed)
        with pytest.raises(ValueError, match=match):
            estimate_conditioned_length(kernel, 20, 10, seed)
        with pytest.raises(ValueError, match=match):
            sim.particle_step_counts(complete_graph(10), 3, 2.0, 10, seed)


class TestStepMeanfield:
    def test_zero_is_absorbing(self):
        stream = trial_stream(0, 0)
        assert all(step_meanfield(ModelParams(2.0, 50), 0, stream) == 0 for _ in range(100))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            step_meanfield(ModelParams(2.0, 50), 51, trial_stream(0, 0))

    def test_mean_matches_n_b(self):
        params = ModelParams(2.0, 50)
        stream = trial_stream(101, 0)
        trials = 100_000
        total = sum(step_meanfield(params, 10, stream) for _ in range(trials))
        mean = total / trials
        expect = 50 * branch_prob(params, 10)  # = 13.4064...
        sigma = math.sqrt(50 * branch_prob(params, 10) * (1 - branch_prob(params, 10)) / trials)
        assert abs(mean - expect) <= 4 * sigma

    def test_empirical_pmf_close_in_tv(self):
        params = ModelParams(2.0, 50)
        stream = trial_stream(202, 0)
        trials = 200_000
        samples = np.fromiter(
            (step_meanfield(params, 10, stream) for _ in range(trials)), dtype=np.int64
        )
        empirical = np.bincount(samples, minlength=51)[:51] / trials
        exact = np.exp(transition_log_row(params, 10))
        assert tv_distance(empirical, exact) <= 0.01


class TestExactPoissonSampler:
    @pytest.mark.parametrize("lam", [0.5, 2.0, 6.0, 40.0])
    def test_tv_against_exact_pmf(self, lam):
        # the offspring sampler: inversion of one uniform per draw
        stream = trial_stream(303, 0)
        trials = 200_000
        samples = sim._invert(sim._poisson_cdf(lam), stream.random(trials))
        hi = int(samples.max()) + 1
        empirical = np.bincount(samples, minlength=hi) / trials
        exact = poisson.pmf(np.arange(hi), lam)
        assert tv_distance(empirical, exact) <= 0.01


class TestGraphSpec:
    def test_complete_graph_structure(self):
        g = complete_graph(5, allow_self=True)
        assert g.vertex_count == 5
        assert all(len(a) == 4 for a in g.adjacency)
        assert g.uniform_targets
        assert np.array_equal(g.targets[2], np.arange(5))

    def test_without_self_moves(self):
        g = complete_graph(4, allow_self=False)
        assert not g.uniform_targets
        assert np.array_equal(g.targets[1], np.array([0, 2, 3]))

    def test_duplicate_neighbors_rejected(self):
        with pytest.raises(ValueError):
            sim.GraphSpec(3, ([1, 1], [0], [0]), allow_self=False)

    def test_isolated_vertex_rejected_without_self(self):
        with pytest.raises(ValueError):
            sim.GraphSpec(2, ([1], []), allow_self=False)

    def test_isolated_vertex_ok_with_self(self):
        g = sim.GraphSpec(2, ([1], []), allow_self=True)
        assert np.array_equal(g.targets[1], np.array([1]))


class TestGraphFile:
    def write(self, tmp_path, text):
        path = tmp_path / "graph.txt"
        path.write_text(text)
        return path

    def test_round_trip(self, tmp_path):
        path = self.write(tmp_path, "vertices=3 self_loops=0\n0 1\n1 2\n2 0\n")
        g = parse_graph_file(path)
        assert g.vertex_count == 3
        assert not g.allow_self
        assert np.array_equal(g.adjacency[1], np.array([0, 2]))

    def test_header_flag_on(self, tmp_path):
        g = parse_graph_file(self.write(tmp_path, "vertices=2 self_loops=1\n0 1\n"))
        assert g.allow_self

    def test_bad_header(self, tmp_path):
        with pytest.raises(ValueError):
            parse_graph_file(self.write(tmp_path, "nodes=3\n0 1\n"))

    def test_duplicate_edge_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            parse_graph_file(self.write(tmp_path, "vertices=3 self_loops=0\n0 1\n1 0\n"))

    def test_self_edge_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            parse_graph_file(self.write(tmp_path, "vertices=2 self_loops=1\n0 0\n"))

    def test_complete_name(self):
        g = graph_from_name("complete:6")
        assert g.vertex_count == 6 and g.allow_self and g.uniform_targets
        g2 = graph_from_name("complete:6", allow_self=False)
        assert not g2.allow_self


class TestStepParticle:
    def test_empty_stays_empty(self):
        g = complete_graph(5)
        state = ParticleState(np.zeros(5, dtype=bool), 3)
        nxt = step_particle(g, state, 2.0, trial_stream(0, 0))
        assert nxt.count == 0
        assert nxt.time == 4

    def test_single_vertex_self_loop_survival(self):
        # one vertex whose only target is itself: survives iff Poisson(2) == 1
        g = sim.GraphSpec(1, ([],), allow_self=True)
        trials = 100_000
        counts = sim.particle_step_counts(g, 1, 2.0, trials, seed=404)
        state = single_origin_state(g)
        scalar = [step_particle(g, state, 2.0, trial_stream(404, i)).count for i in range(1000)]
        assert scalar == counts[:1000].tolist()
        p = 2 * math.exp(-2)
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(counts.sum() / trials - p) <= 4 * sigma

    def test_requires_positive_mean(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            step_particle(g, single_origin_state(g), 0.0, trial_stream(0, 0))

    @pytest.mark.parametrize("n,lam,x", [(30, 2.0, 10), (30, 6.0, 5), (50, 1.5, 20)])
    def test_meanfield_equivalence(self, n, lam, x):
        # on K_n with self moves the one-step count is exactly Bin(n, b(x))
        g = complete_graph(n, allow_self=True)
        trials = 200_000
        counts = sim.particle_step_counts(g, x, lam, trials, seed=505)
        empirical = np.bincount(counts, minlength=n + 1)[: n + 1] / trials
        exact = np.exp(transition_log_row(ModelParams(lam, n), x))
        assert tv_distance(empirical, exact) <= 0.01


class TestTrajectory:
    def test_flags_must_be_consistent(self):
        with pytest.raises(ValueError):
            Trajectory([3, 0], absorbed_at_zero=True, crossed_u=True, u=5)
        with pytest.raises(ValueError):
            Trajectory([3, 2], absorbed_at_zero=True, crossed_u=False, u=5)

    def test_truncated_property(self):
        t = Trajectory([3, 2], absorbed_at_zero=False, crossed_u=False, u=5)
        assert t.truncated and t.steps == 1


class TestRunToAbsorption:
    def test_start_at_zero(self):
        traj = run_to_absorption(ModelParams(2.0, 50), 0, 10, 100, trial_stream(0, 0))
        assert traj.absorbed_at_zero
        assert traj.states.tolist() == [0]

    def test_start_at_or_above_u_crosses_immediately(self):
        traj = run_to_absorption(ModelParams(2.0, 50), 10, 10, 100, trial_stream(0, 0))
        assert traj.crossed_u and traj.steps == 0
        traj = run_to_absorption(ModelParams(2.0, 50), 12, 10, 100, trial_stream(0, 0))
        assert traj.crossed_u and traj.steps == 0

    def test_exit_flags_partition(self):
        params = ModelParams(2.0, 50)
        for i in range(200):
            traj = run_to_absorption(params, 3, 10, 10_000, trial_stream(1, i))
            assert traj.absorbed_at_zero != traj.crossed_u
            if traj.absorbed_at_zero:
                assert traj.states[-1] == 0
            else:
                assert traj.states[-1] >= 10

    def test_truncation_flagged_not_raised(self):
        params = ModelParams(2.0, 50)
        traj = run_to_absorption(params, 25, None, 3, trial_stream(2, 0))
        # from the middle with no threshold, three steps never reach 0
        assert traj.truncated
        assert len(traj.states) == 4

    def test_absorption_fraction_matches_exact_phi(self):
        params = ModelParams(2.0, 50)
        phi3 = hitting_profile(params, 10).phi(3)
        trials = 20_000
        absorbed = sum(
            run_to_absorption(params, 3, 10, 10**6, trial_stream(606, i)).absorbed_at_zero
            for i in range(trials)
        )
        p_hat = absorbed / trials
        se = math.sqrt(p_hat * (1 - p_hat) / trials)
        assert abs(p_hat - phi3) <= 4 * se


@pytest.fixture(scope="module")
def kernel():
    params = ModelParams(1.5, 300)
    return tilted_kernel(hitting_profile(params, threshold_u(params, 0.05, "window")))


class TestSampleConditionedPath:
    def test_paths_stay_below_u_and_die(self, kernel):
        for i in range(2000):
            traj = sample_conditioned_path(kernel, 20, trial_stream(707, i))
            assert traj.absorbed_at_zero
            assert traj.states.max() < kernel.u

    def test_minimum_one_step(self, kernel):
        for i in range(200):
            assert sample_conditioned_path(kernel, 1, trial_stream(808, i)).steps >= 1

    def test_start_range_validated(self, kernel):
        with pytest.raises(ValueError):
            sample_conditioned_path(kernel, 0, trial_stream(0, 0))
        with pytest.raises(ValueError):
            sample_conditioned_path(kernel, kernel.u, trial_stream(0, 0))

    def test_mean_length_matches_exact_solve(self, kernel):
        t = conditional_expected_extinction(kernel).values
        est = estimate_conditioned_length(kernel, 20, 100_000, seed=909)
        assert abs(est.mean - t[20]) <= 4 * est.std_error


class TestEstimateHittingProb:
    def test_start_at_zero_trivial(self):
        est = estimate_hitting_prob(ModelParams(2.0, 50), 10, 0, 1000, seed=1)
        assert est.mean == 1.0
        assert est.std_error == 0.0

    def test_matches_exact_solution(self):
        params = ModelParams(2.0, 50)
        est = estimate_hitting_prob(params, 10, 3, 20_000, seed=1234)
        phi3 = hitting_profile(params, 10).phi(3)
        assert abs(est.mean - phi3) <= 4 * est.std_error

    def test_preconditions(self):
        params = ModelParams(2.0, 50)
        with pytest.raises(ValueError):
            estimate_hitting_prob(params, 10, 10, 100, seed=1)  # x0 >= u
        with pytest.raises(ValueError):
            estimate_hitting_prob(params, 10, 3, 0, seed=1)

    def test_step_cap_trips_truncation_error(self, monkeypatch):
        monkeypatch.setattr(sim, "STEP_CAP", 1)
        with pytest.raises(TruncationError):
            estimate_hitting_prob(ModelParams(2.0, 50), 40, 25, 50, seed=3)


class TestTvDistance:
    def test_identical(self):
        p = np.array([0.25, 0.75])
        assert tv_distance(p, p) == 0.0

    def test_disjoint(self):
        assert tv_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_padding(self):
        assert tv_distance(np.array([1.0]), np.array([0.5, 0.5])) == pytest.approx(0.5)


class TestEstimateWithCI:
    def test_positional_construction_defaults_step_counts(self):
        est = EstimateWithCI(0.5, 0.1, 10, 1)
        assert (est.steps_total, est.steps_max) == (0, 0)


# ---------------------------------------------------------------------------
# batched samplers against the one-trial reference
# ---------------------------------------------------------------------------

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=40, database=None)
SEEDS = st.integers(0, (1 << 64) - 1)


class TestPhiloxBlock:
    @PROPERTY_SETTINGS
    @given(SEEDS, st.integers(0, 1 << 40), st.integers(0, 64))
    def test_words_match_trial_stream(self, seed, trial, block):
        raw = trial_stream(seed, trial).bit_generator.random_raw(4 * (block + 1))
        assert np.array_equal(sim.philox_block(seed, trial, block), raw[-4:])

    @PROPERTY_SETTINGS
    @given(SEEDS, st.lists(st.integers(0, 1 << 40), min_size=1, max_size=8), st.integers(1, 16))
    def test_vectorized_blocks_and_uniforms(self, seed, trials, blocks):
        words = sim.philox_block(seed, np.array(trials)[:, None], np.arange(blocks))
        for i, trial in enumerate(trials):
            stream = trial_stream(seed, trial)
            assert np.array_equal(words[i].ravel(), stream.bit_generator.random_raw(4 * blocks))
            stream = trial_stream(seed, trial)
            assert np.array_equal(sim.uniforms(words[i].ravel()), stream.random(4 * blocks))


def searchsorted_rows(table, rows, u):
    """np.searchsorted(table[r], u, side="right") for each (r, u) pair."""
    out = np.empty(len(u), dtype=np.int64)
    for r in np.unique(rows):
        at = rows == r
        out[at] = np.searchsorted(table[r], u[at], side="right")
    return out


@st.composite
def cdf_table_draws(draw):
    """(table, rows, u): nondecreasing rows of one length k >= 1, and draws.

    Rows hold runs of equal entries (zeros among them), may be all zero, and
    may end a few ulps above 1.0; many draws equal an entry or neighbour one.
    """
    k, m, size = draw(st.integers(1, 40)), draw(st.integers(1, 5)), draw(st.integers(1, 30))
    mass = st.sampled_from([0.0, 0.0, 5e-324, 1e-17, 0.25]) | st.floats(0.0, 1.0)
    table = np.cumsum(draw(st.lists(st.lists(mass, min_size=k, max_size=k), min_size=m,
                                    max_size=m)), axis=1)
    for row in table:
        if row[-1] > 0.0:
            row /= row[-1]
            row *= 1.0 + draw(st.integers(0, 3)) * 2.0**-52
    entry = st.sampled_from(table.ravel().tolist())
    near = entry.flatmap(
        lambda e: st.sampled_from([e, np.nextafter(e, -1.0), np.nextafter(e, 2.0)])
    )
    u = draw(st.lists(near | st.floats(0.0, 1.0), min_size=size, max_size=size))
    rows = draw(st.lists(st.integers(0, m - 1), min_size=size, max_size=size))
    return table, np.array(rows), np.array(u)


def hitting_table(params, u):
    """The CDF table estimate_hitting_prob steps against."""
    return np.cumsum(np.exp(sim._transient_log_rows(params, u)), axis=1)


class TestInvertRows:
    @PROPERTY_SETTINGS
    @given(cdf_table_draws())
    def test_matches_searchsorted(self, case):
        table, rows, u = case
        assert np.array_equal(sim._invert_rows(table, rows, u), searchsorted_rows(table, rows, u))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: np.array([[0.0], [0.5], [1.0 + 2.0**-52]]),
            lambda: np.array([[0.0, 0.0, 0.0, 0.3, 0.3, 1.0 + 2.0**-51], [0.0] * 5 + [1.0]]),
            lambda: tilted_kernel(hitting_profile(ModelParams(1.5, 300), 66)).row_cdfs,
            lambda: tilted_kernel(hitting_profile(ModelParams(2.0, 50), 10)).row_cdfs,
            # large x: the low entries underflow to a run of zeros
            lambda: hitting_table(ModelParams(2.0, 2000), 300),
        ],
        ids=["k=1", "zero-runs-above-one", "tilted-1.5-300", "tilted-2-50", "binomial-2-2000"],
    )
    def test_every_entry_of_a_table(self, make):
        # exact ties at every entry, the doubles either side of it, and uniforms
        table = make()
        m, k = table.shape
        rows = np.repeat(np.arange(m), k)
        entries = table.ravel()
        draws = trial_stream(5, 0).random(entries.size)
        for u in (entries, np.nextafter(entries, -1.0), np.nextafter(entries, 2.0), draws):
            got = sim._invert_rows(table, rows, u)
            assert np.array_equal(got, searchsorted_rows(table, rows, u))


@st.composite
def chain_case(draw):
    """(lam, n, u, x0, seed) with 2 <= u <= eq, where trials end fast."""
    lam = draw(st.floats(1.2, 8.0))
    n = draw(st.integers(math.ceil(2.0 * lam / math.log(lam)), 120))
    u = draw(st.integers(2, min(n, math.floor(equilibrium(ModelParams(lam, n))))))
    return lam, n, u, draw(st.integers(0, u - 1)), draw(SEEDS)


def batched_paths(cdfs, x0, trials, seed, cap=None):
    """Per-trial paths, steps and final states of sim._run_chains."""
    history = []
    chunks = list(sim._run_chains(cdfs, x0, trials, seed, cap, history))
    steps = np.concatenate([c[0] for c in chunks])
    final = np.concatenate([c[1] for c in chunks])
    paths = [[x0] for _ in range(trials)]
    for idx, states in history:
        for i, x in zip(idx.tolist(), states.tolist()):
            paths[i].append(x)
    return paths, steps, final


def binomial_table(params, u):
    return np.array([sim._binomial_cdf(params, x)[:u] for x in range(1, u)]).reshape(u - 1, u)


#: (lam, n, u or None for the epsilon=0.05 window) of the pinned outputs and the README figures
CDF_CASES = [(2.0, 50, 10), (1.5, 200, None), (6.0, 200, None), (1.5, 300, None),
             (1.5, 1200, None), (6.0, 1200, None)]
#: the largest uniform a 53-bit draw makes
TOP_UNIFORM = 1.0 - 2.0**-53


def check_cdf_rows(table):
    """Rows nondecreasing, at most 1 and ending at exactly 1; the top uniform stays inside."""
    assert np.all(np.diff(table, axis=1) >= 0.0)
    assert np.all(table <= 1.0)
    assert np.all(table[:, -1] == 1.0)
    tops = [np.searchsorted(row, TOP_UNIFORM, side="right") for row in table]
    assert max(tops) <= table.shape[1] - 1


class TestCdfRowsEndAtOne:
    """CDF rows over a whole support invert every uniform below 1 into it."""

    @staticmethod
    def tilted_cdfs(lam, n, u):
        params = ModelParams(lam, n)
        u = threshold_u(params, 0.05, "window") if u is None else u
        return tilted_kernel(hitting_profile(params, u)).row_cdfs

    @pytest.mark.parametrize("lam, n, u", CDF_CASES)
    def test_tilted_rows(self, lam, n, u):
        check_cdf_rows(self.tilted_cdfs(lam, n, u))

    @pytest.mark.parametrize("lam, n", sorted({(lam, n) for lam, n, _ in CDF_CASES} | {(2.0, 30)}))
    def test_binomial_rows(self, lam, n):
        params = ModelParams(lam, n)
        check_cdf_rows(np.array([sim._binomial_cdf(params, x) for x in range(1, n + 1)]))

    @PROPERTY_SETTINGS
    @given(chain_case())
    def test_chain_cases(self, case):
        lam, n, u, _, _ = case
        params = ModelParams(lam, n)
        check_cdf_rows(self.tilted_cdfs(lam, n, u))
        check_cdf_rows(np.array([sim._binomial_cdf(params, x) for x in range(1, n + 1)]))


class TestBatchedMatchesScalar:
    TRIALS = 25

    @PROPERTY_SETTINGS
    @given(chain_case())
    def test_count_chain(self, case):
        lam, n, u, x0, seed = case
        params = ModelParams(lam, n)
        paths, steps, final = batched_paths(binomial_table(params, u), x0, self.TRIALS, seed)
        refs = [
            run_to_absorption(params, x0, u, 10**6, trial_stream(seed, i))
            for i in range(self.TRIALS)
        ]
        for i, ref in enumerate(refs):
            assert not ref.truncated
            # the batched chain records a crossing as u; the reference keeps the state
            assert paths[i][:-1] == ref.states.tolist()[:-1]
            assert min(paths[i][-1], u) == min(int(ref.states[-1]), u)
            assert steps[i] == ref.steps
            assert (final[i] == 0) == ref.absorbed_at_zero
            assert (final[i] == u) == ref.crossed_u
        est = estimate_hitting_prob(params, u, x0, self.TRIALS, seed)
        assert est.mean == sum(r.absorbed_at_zero for r in refs) / self.TRIALS
        assert est.steps_total == sum(r.steps for r in refs)
        assert est.steps_max == max(r.steps for r in refs)

    @PROPERTY_SETTINGS
    @given(chain_case())
    def test_conditioned_path(self, case):
        lam, n, u, x0, seed = case
        kern = tilted_kernel(hitting_profile(ModelParams(lam, n), u))
        x0 = max(x0, 1)
        paths, steps, final = batched_paths(kern.row_cdfs, x0, self.TRIALS, seed)
        refs = [sample_conditioned_path(kern, x0, trial_stream(seed, i)) for i in range(self.TRIALS)]
        for i, ref in enumerate(refs):
            assert paths[i] == ref.states.tolist()
            assert steps[i] == ref.steps
            assert final[i] == 0 and ref.absorbed_at_zero
        est = estimate_conditioned_length(kern, x0, self.TRIALS, seed)
        lengths = [r.steps for r in refs]
        assert est.mean == sum(lengths) / self.TRIALS
        assert (est.steps_total, est.steps_max) == (sum(lengths), max(lengths))

    @pytest.fixture(scope="class")
    def graph_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("graphs")

    @PROPERTY_SETTINGS
    @given(
        st.integers(2, 12),
        st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=30),
        st.booleans(),
        st.floats(0.3, 6.0),
        st.data(),
        SEEDS,
    )
    def test_particle_step_on_graph_file(self, graph_dir, v, extra, self_loops, lam, data, seed):
        # a path through every vertex plus random extra edges: never complete for v > 2
        edges = {(a, a + 1) for a in range(v - 1)}
        edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b and max(a, b) < v}
        path = graph_dir / f"g{len(list(graph_dir.iterdir()))}.txt"
        lines = [f"vertices={v} self_loops={int(self_loops)}"] + [f"{a} {b}" for a, b in edges]
        path.write_text("\n".join(lines) + "\n")
        graph = parse_graph_file(path)
        start = data.draw(st.integers(0, v))
        self.check_particle(graph, start, lam, seed)

    @PROPERTY_SETTINGS
    @given(st.integers(2, 40), st.booleans(), st.floats(0.3, 6.0), st.data(), SEEDS)
    def test_particle_step_on_complete_graph(self, n, self_loops, lam, data, seed):
        graph = complete_graph(n, allow_self=self_loops)
        self.check_particle(graph, data.draw(st.integers(0, n)), lam, seed)

    def check_particle(self, graph, start, lam, seed):
        counts = sim.particle_step_counts(graph, start, lam, self.TRIALS, seed)
        state = ParticleState(np.arange(graph.vertex_count) < start)
        for i in range(self.TRIALS):
            assert counts[i] == step_particle(graph, state, lam, trial_stream(seed, i)).count


class TestChunkInvariance:
    @pytest.fixture(scope="class")
    def reference(self, kernel):
        return self.run_all(kernel)

    @staticmethod
    def run_all(kernel):
        return (
            estimate_hitting_prob(ModelParams(2.0, 50), 10, 3, 60, seed=17),
            estimate_conditioned_length(kernel, 20, 60, seed=17),
            sim.particle_step_counts(complete_graph(30), 10, 2.0, 60, seed=17).tolist(),
            sim.particle_step_counts(complete_graph(12, False), 5, 3.0, 60, seed=17).tolist(),
        )

    # CHUNK sizes every batch: count-chain trials and Philox blocks per call at
    # CHUNK, particle trials at max(1, CHUNK // 4), which 28 takes to 7
    CHUNKS = [1, 7, 28, sim.CHUNK]

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_results_do_not_depend_on_chunk(self, monkeypatch, kernel, reference, chunk):
        monkeypatch.setattr(sim, "CHUNK", chunk)
        assert self.run_all(kernel) == reference

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_truncation_names_lowest_truncated_trial(self, monkeypatch, chunk):
        # u above eq: a trial that does not die soon is trapped near eq.  Take
        # the first seed whose trial 0 dies in time, so that the lowest
        # truncated trial is not simply the first one.
        params, cap = ModelParams(2.0, 50), 12
        for seed in range(100):
            truncated = [
                run_to_absorption(params, 1, 40, cap, trial_stream(seed, i)).truncated
                for i in range(20)
            ]
            if not truncated[0] and any(truncated):
                break
        assert not truncated[0] and any(truncated)
        monkeypatch.setattr(sim, "CHUNK", chunk)
        monkeypatch.setattr(sim, "STEP_CAP", cap)
        first = truncated.index(True)
        with pytest.raises(TruncationError, match=f"trial {first} exceeded {cap} steps"):
            estimate_hitting_prob(params, 40, 1, 20, seed=seed)


class TestSamplerMemory:
    def test_hitting_steps_hold_no_row_per_trial(self, monkeypatch):
        # u far below eq (about 3466): every trial ends within a few steps
        params, u, x0, seed = ModelParams(2.0, 10_000), 1000, 5, 3
        estimate_hitting_prob(params, u, x0, 10, seed)  # fill the caches
        run_chains = sim._run_chains

        def traced(*args, **kwargs):
            tracemalloc.reset_peak()  # the table is built: measure the sampling
            yield from run_chains(*args, **kwargs)

        monkeypatch.setattr(sim, "_run_chains", traced)
        tracemalloc.start()
        try:
            est = estimate_hitting_prob(params, u, x0, sim.CHUNK + 100, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.steps_max < 30
        # a CHUNK x u gather per step would alone take CHUNK * u * 8 B (32 MB)
        beyond_table = peak - (u - 1) * u * 8
        assert beyond_table < 1 << 20
