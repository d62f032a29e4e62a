import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox
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
    hitting_profile,
    parse_graph_file,
    threshold_u,
    tilted_kernel,
    transition_log_row,
    tv_distance,
)
from barw.chain import _cdf_rows

# ---------------------------------------------------------------------------
# the one-trial oracle: trial i of an estimator is one trial run alone on
# trial_stream(seed, i), reading its words in the same order
# ---------------------------------------------------------------------------


def trial_stream(seed, i):
    """Trial i's stream: numpy's Philox4x64-10 keyed by (seed, i)."""
    return Generator(Philox(key=seed | i << 64))


def binomial_cdf(params, x):
    """The CDF of one count-chain step from x, Bin(n, b(x)) over 0..n."""
    return _cdf_rows(np.exp(transition_log_row(params, x)))


def walk(cdfs, x0, u, stream, cap=10**6):
    """States of one count chain from x0 until it reaches 0 or >= u, or has
    taken cap steps; a step from x inverts one uniform against cdfs[x - 1]."""
    states = [x0]
    while 0 < states[-1] < u and len(states) <= cap:
        states.append(int(np.searchsorted(cdfs[states[-1] - 1], stream.random(), side="right")))
    return states


def particle_count(graph, start, lam, stream):
    """Occupied vertices after one particle step from vertices 0..start-1.

    Each parent draws its offspring count; then each offspring, parent by
    parent, takes floor(U*k) of its parent's k ascending legal targets.
    """
    offspring = np.searchsorted(sim._poisson_cdf(lam), stream.random(start), side="right")
    arrivals = Counter()
    for v, kids in enumerate(offspring):
        if graph.adjacency is None:
            targets = [w for w in range(graph.vertex_count) if graph.allow_self or w != v]
        else:
            targets = sorted(graph.adjacency[v].tolist() + [v] * graph.allow_self)
        for u in stream.random(kids):
            arrivals[targets[min(int(u * len(targets)), len(targets) - 1)]] += 1
    return sum(c == 1 for c in arrivals.values())


class TestTrialStream:
    def test_deterministic_per_key(self):
        a, b = (sim.philox_block(42, 7, np.arange(4)) for _ in range(2))
        assert np.array_equal(a, b)

    def test_distinct_trials_distinct_streams(self):
        assert not np.array_equal(sim.philox_block(42, 0, 0), sim.philox_block(42, 1, 0))

    def test_distinct_seeds_distinct_streams(self):
        assert not np.array_equal(sim.philox_block(1, 0, 0), sim.philox_block(2, 0, 0))

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_estimators_check_seed_range(self, profile, seed):
        # a ValueError, not an OverflowError from the kernel
        match = rf"^seed {seed} outside \[0, 18446744073709551615\]$"
        with pytest.raises(ValueError, match=match):
            estimate_hitting_prob(ModelParams(2.0, 50), 10, 3, 10, seed)
        with pytest.raises(ValueError, match=match):
            estimate_conditioned_length(profile, 20, 10, seed)
        with pytest.raises(ValueError, match=match):
            sim.particle_step_counts(complete_graph(10), 3, 2.0, 10, seed)

    @pytest.mark.parametrize("seed", [1.5, True])
    def test_estimators_refuse_a_seed_that_is_not_an_integer(self, profile, seed):
        # a ValueError, not a TypeError from the range check; True is no seed 1
        match = f"^seed must be an integer, got {seed}$"
        with pytest.raises(ValueError, match=match):
            estimate_hitting_prob(ModelParams(2.0, 50), 10, 3, 10, seed)
        with pytest.raises(ValueError, match=match):
            estimate_conditioned_length(profile, 20, 10, seed)
        with pytest.raises(ValueError, match=match):
            sim.particle_step_counts(complete_graph(10), 3, 2.0, 10, seed)


class TestStepMeanfield:
    def test_zero_is_absorbing(self):
        # every uniform inverts to 0 against the row from 0
        assert binomial_cdf(ModelParams(2.0, 50), 0).tolist() == [1.0] * 51

    def test_mean_matches_n_b(self):
        params = ModelParams(2.0, 50)
        trials = 100_000
        draws = trial_stream(101, 0).random(trials)
        mean = np.searchsorted(binomial_cdf(params, 10), draws, side="right").sum() / trials
        expect = 50 * branch_prob(params, 10)  # = 13.4064...
        sigma = math.sqrt(50 * branch_prob(params, 10) * (1 - branch_prob(params, 10)) / trials)
        assert abs(mean - expect) <= 4 * sigma

    def test_empirical_pmf_close_in_tv(self):
        params = ModelParams(2.0, 50)
        trials = 200_000
        draws = trial_stream(202, 0).random(trials)
        samples = np.searchsorted(binomial_cdf(params, 10), draws, side="right")
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
        assert g.adjacency is None

    def test_without_self_moves(self):
        g = complete_graph(4, allow_self=False)
        assert g.adjacency is None and not g.allow_self
        # vertex 1 moves to 0, 2 or 3
        got = sim._move_targets(g, np.array([1]), np.array([3]), np.array([0.0, 0.5, 0.9]))
        assert got.tolist() == [0, 2, 3]

    @pytest.mark.parametrize("n", [0, -1, 2.5, "3", None, True])
    def test_vertex_count_must_be_positive_integer(self, n):
        with pytest.raises(ValueError, match=r"^vertex count (must be an integer, got|-?\d+ outside \[1, inf\])"):
            complete_graph(n)

    @pytest.mark.parametrize("allow_self", ["no", 0, None])
    def test_allow_self_must_be_a_bool(self, allow_self):
        # a truthy string such as "no" must not allow self-moves
        with pytest.raises(ValueError, match=f"^allow_self must be a bool, got {allow_self!r}$"):
            complete_graph(5, allow_self)

    def test_numpy_bool_allow_self_is_stored_as_a_bool(self):
        g = sim.GraphSpec(3, None, np.False_)
        assert type(g.allow_self) is bool and g == complete_graph(3, False)

    def test_numpy_integer_vertex_count_is_stored_as_an_int(self):
        g = sim.GraphSpec(np.int64(3), None, True)
        assert type(g.vertex_count) is int and g == complete_graph(3)

    def test_single_vertex(self):
        g = complete_graph(1)
        assert g.vertex_count == 1 and g.allow_self
        assert sim.particle_step_counts(g, 1, 2.0, 5, seed=1).tolist() == (
            sim.particle_step_counts(sim.GraphSpec(1, ([],), True), 1, 2.0, 5, seed=1).tolist()
        )
        with pytest.raises(ValueError, match="vertex 0 has no legal move target"):
            complete_graph(1, allow_self=False)
        assert complete_graph(np.int64(3)).vertex_count == 3

    def test_caller_arrays_stay_the_callers(self):
        a = np.array([1])
        g = sim.GraphSpec(2, (a, np.array([0])), allow_self=False)
        a[0] = 0  # the caller's array stays writable
        assert g.adjacency[0] is not a
        assert g.adjacency[0].tolist() == [1]
        assert not g.adjacency[0].flags.writeable

    def test_duplicate_neighbors_rejected(self):
        with pytest.raises(ValueError):
            sim.GraphSpec(3, ([1, 1], [0], [0]), allow_self=False)

    def test_isolated_vertex_rejected_without_self(self):
        with pytest.raises(ValueError):
            sim.GraphSpec(2, ([1], []), allow_self=False)

    def test_isolated_vertex_ok_with_self(self):
        g = sim.GraphSpec(2, ([1], []), allow_self=True)
        assert g.adjacency is not None
        start, size, flat = g._target_table
        assert start.tolist() == [0, 2] and size.tolist() == [2, 1]
        assert flat.tolist() == [0, 1, 1]

    def test_vertex_listing_itself_rejected(self):
        # self-moves come only from allow_self; a listed self would double them
        with pytest.raises(ValueError, match="vertex 0 lists itself"):
            sim.GraphSpec(2, ([0, 1], [0]), allow_self=True)

    @pytest.mark.parametrize(
        "nbrs,match",
        [
            ([1.7], "must be a 1-D integer array"),
            ([True], "must be a 1-D integer array"),
            ([[1]], "must be a 1-D integer array"),
            ([2, 1], "are not in ascending order"),
        ],
    )
    def test_malformed_neighbor_list_rejected(self, nbrs, match):
        # none may be cast or reordered into a different graph
        with pytest.raises(ValueError, match=f"neighbors of vertex 0 {match}"):
            sim.GraphSpec(3, (nbrs, [0], [0]), allow_self=False)


class TestCompleteGraphTargets:
    @pytest.mark.parametrize("allow_self", [True, False])
    def test_closed_form_matches_explicit_targets(self, allow_self):
        n = 7
        g = complete_graph(n, allow_self)
        k = n if allow_self else n - 1
        j = np.arange(1, k) / k
        u = np.concatenate(([0.0], j, np.nextafter(j, 0.0), [1.0 - 2.0**-53]))
        got = sim._move_targets(g, np.arange(n), np.full(n, u.size), np.tile(u, n))
        pick = np.minimum(np.floor(u * k).astype(np.int64), k - 1)
        for v, row in enumerate(got.reshape(n, u.size)):
            targets_v = np.arange(n) if allow_self else np.delete(np.arange(n), v)
            assert row.tolist() == targets_v[pick].tolist()
        counts = sim.particle_step_counts(g, 3, 2.0, 50, seed=3)
        assert "_target_table" not in g.__dict__
        # an explicit complete adjacency reads the target table and draws the same
        adjacency = tuple(np.delete(np.arange(n), v) for v in range(n))
        explicit = sim.GraphSpec(n, adjacency, allow_self)
        table = sim._move_targets(explicit, np.arange(n), np.full(n, u.size), np.tile(u, n))
        assert "_target_table" in explicit.__dict__
        assert table.tolist() == got.tolist()
        assert sim.particle_step_counts(explicit, 3, 2.0, 50, seed=3).tolist() == counts.tolist()

    def test_large_complete_graph(self):
        # K_n stores no adjacency, so n = 10^5 takes milliseconds under both conventions
        a, b = (
            sim.particle_step_counts(complete_graph(10**5, s), 3, 2.0, 16, seed=1)
            for s in (True, False)
        )
        assert a.shape == (16,) and a.tolist() == b.tolist()


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

    def test_self_loops_flag_is_0_or_1(self, tmp_path):
        with pytest.raises(ValueError, match="bad header"):
            parse_graph_file(self.write(tmp_path, "vertices=2 self_loops=2\n0 1\n"))

    def test_duplicate_edge_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            parse_graph_file(self.write(tmp_path, "vertices=3 self_loops=0\n0 1\n1 0\n"))

    def test_self_edge_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            parse_graph_file(self.write(tmp_path, "vertices=2 self_loops=1\n0 0\n"))

    def test_undecodable_file_is_refused_naming_it(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_bytes(b"vertices=3 self_loops=0\n0 1\n\xff 2\n")
        with pytest.raises(ValueError) as err:
            parse_graph_file(path)
        assert str(err.value).startswith(f"{path}: ")
        assert "can't decode byte 0xff" in str(err.value)

    def test_complete_name(self):
        g = complete_graph(6)
        assert g.vertex_count == 6 and g.allow_self and g.adjacency is None
        g2 = complete_graph(6, allow_self=False)
        assert not g2.allow_self and g2.adjacency is None


class TestStepParticle:
    def test_empty_stays_empty(self):
        g = complete_graph(5)
        assert sim.particle_step_counts(g, 0, 2.0, 5, seed=0).tolist() == [0] * 5
        assert particle_count(g, 0, 2.0, trial_stream(0, 0)) == 0

    def test_single_vertex_self_loop_survival(self):
        # one vertex whose only target is itself: survives iff Poisson(2) == 1
        g = sim.GraphSpec(1, ([],), allow_self=True)
        trials = 100_000
        counts = sim.particle_step_counts(g, 1, 2.0, trials, seed=404)
        scalar = [particle_count(g, 1, 2.0, trial_stream(404, i)) for i in range(1000)]
        assert scalar == counts[:1000].tolist()
        p = 2 * math.exp(-2)
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(counts.sum() / trials - p) <= 4 * sigma

    def test_requires_positive_mean(self):
        with pytest.raises(ValueError, match=r"offspring mean must lie in \(0, inf\), got 0.0"):
            sim.particle_step_counts(complete_graph(3), 1, 0.0, 5, seed=0)

    @pytest.mark.parametrize("n,lam,x", [(30, 2.0, 10), (30, 6.0, 5), (50, 1.5, 20)])
    def test_meanfield_equivalence(self, n, lam, x):
        # on K_n with self moves the one-step count is exactly Bin(n, b(x))
        g = complete_graph(n, allow_self=True)
        trials = 200_000
        counts = sim.particle_step_counts(g, x, lam, trials, seed=505)
        empirical = np.bincount(counts, minlength=n + 1)[: n + 1] / trials
        exact = np.exp(transition_log_row(ModelParams(lam, n), x))
        assert tv_distance(empirical, exact) <= 0.01


class TestRunToAbsorption:
    ROWS = [binomial_cdf(ModelParams(2.0, 50), x) for x in range(1, 10)]  # u = 10

    def test_start_at_zero(self):
        est = estimate_hitting_prob(ModelParams(2.0, 50), 10, 0, 100, seed=1)
        assert (est.mean, est.steps_total, est.steps_max) == (1.0, 0, 0)

    def test_exit_flags_partition(self):
        paths, _ = batched_paths(hitting_table(ModelParams(2.0, 50), 10), 3, 200, seed=1)
        for path in paths:
            assert path[-1] in (0, 10)
            assert all(0 < x < 10 for x in path[:-1])

    @pytest.mark.parametrize("dies", [True, False])
    def test_exit_on_the_last_allowed_step(self, monkeypatch, dies):
        # the first seed whose longest of 10 trials from x0 = 3 dies, or
        # crosses, after at least two steps: a STEP_CAP of exactly its steps
        # admits it, and one step fewer truncates it
        params = ModelParams(2.0, 50)
        for seed in range(100):
            refs = [walk(self.ROWS, 3, 10, trial_stream(seed, i)) for i in range(10)]
            lengths = [len(ref) - 1 for ref in refs]
            steps, first = max(lengths), lengths.index(max(lengths))
            if steps >= 2 and (refs[first][-1] == 0) == dies:
                break
        assert steps >= 2 and (refs[first][-1] == 0) == dies
        monkeypatch.setattr(sim, "STEP_CAP", steps)
        est = estimate_hitting_prob(params, 10, 3, 10, seed)
        assert (est.mean, est.steps_max) == (sum(ref[-1] == 0 for ref in refs) / 10, steps)
        monkeypatch.setattr(sim, "STEP_CAP", steps - 1)
        with pytest.raises(TruncationError, match=f"trial {first} exceeded {steps - 1} steps"):
            estimate_hitting_prob(params, 10, 3, 10, seed)

    def test_absorption_fraction_matches_exact_phi(self):
        params = ModelParams(2.0, 50)
        phi3 = hitting_profile(params, 10).phi(3)
        trials = 20_000
        absorbed = sum(walk(self.ROWS, 3, 10, trial_stream(606, i))[-1] == 0 for i in range(trials))
        p_hat = absorbed / trials
        se = math.sqrt(p_hat * (1 - p_hat) / trials)
        assert abs(p_hat - phi3) <= 4 * se


@pytest.fixture(scope="module")
def profile():
    params = ModelParams(1.5, 300)
    return hitting_profile(params, threshold_u(params, 0.05, "window"))


class TestSampleConditionedPath:
    def test_paths_stay_below_u_and_die(self, profile):
        cdfs = _cdf_rows(tilted_kernel(profile))
        for i in range(2000):
            states = walk(cdfs, 20, profile.u, trial_stream(707, i))
            assert states[-1] == 0
            assert max(states) < profile.u

    def test_minimum_one_step(self, profile):
        paths, _ = batched_paths(_cdf_rows(tilted_kernel(profile)), 1, 200, seed=808)
        assert min(len(path) for path in paths) >= 2

    def test_start_range_validated(self, profile):
        for x0 in (0, profile.u):
            with pytest.raises(ValueError, match=f"start {x0} outside"):
                estimate_conditioned_length(profile, x0, 10, seed=0)

    def test_mean_length_matches_exact_solve(self, profile):
        t = conditional_expected_extinction(profile)
        est = estimate_conditioned_length(profile, 20, 100_000, seed=909)
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

    @pytest.mark.parametrize("u", [0, 51, 52])
    def test_threshold_outside_sites_refused(self, u):
        # u = n + 1 would otherwise run every trial to absorption at 0
        with pytest.raises(ValueError, match=rf"^threshold {u} outside \[1, 50\]$"):
            estimate_hitting_prob(ModelParams(2.0, 50), u, 0, 10, seed=1)

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


class TestIntegerArguments:
    """A start or trial count must be an int or numpy integer, and not a bool."""

    RUNS = {
        "hitting": lambda profile, x0, trials: estimate_hitting_prob(
            ModelParams(2.0, 50), 10, x0, trials, 1
        ),
        "conditioned": lambda profile, x0, trials: estimate_conditioned_length(
            profile, x0, trials, 1
        ),
        "particle": lambda profile, x0, trials: sim.particle_step_counts(
            complete_graph(30), x0, 2.0, trials, 1
        ),
    }

    @pytest.mark.parametrize("estimator", list(RUNS))
    @pytest.mark.parametrize(
        ("x0", "trials", "named"),
        [(3.5, 100, "start"), (True, 100, "start"), (3, 100.0, "trials"), (3, True, "trials")],
        ids=["float-start", "bool-start", "float-trials", "bool-trials"],
    )
    def test_non_integer_is_refused(self, profile, estimator, x0, trials, named):
        # a float start or count was truncated, and trials=True ran one trial
        bad = x0 if named == "start" else trials
        with pytest.raises(ValueError, match=rf"^{named}\w* must be an integer, got {bad}$"):
            self.RUNS[estimator](profile, x0, trials)

    def test_bool_threshold_is_refused(self):
        # 1 <= True <= n, but a bool is not a threshold
        with pytest.raises(ValueError, match="^threshold must be an integer, got True$"):
            estimate_hitting_prob(ModelParams(2.0, 50), True, 0, 10, 1)

    @pytest.mark.parametrize("estimator", list(RUNS))
    def test_numpy_integers_are_accepted(self, profile, estimator):
        want = self.RUNS[estimator](profile, 3, 100)
        got = self.RUNS[estimator](profile, np.int64(3), np.int32(100))
        if estimator == "particle":
            assert got.tolist() == want.tolist()
        else:
            assert got == want


# ---------------------------------------------------------------------------
# batched samplers against the one-trial oracle
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

    @PROPERTY_SETTINGS
    @given(SEEDS, SEEDS, st.integers(0, 1 << 63))
    def test_words_match_philox_over_whole_key_and_counter_range(self, seed, trial, block):
        # block + 1 reaches past 2**32, so the first round's product has a high half
        raw = Philox(counter=block, key=seed | trial << 64).random_raw(4)
        assert np.array_equal(sim.philox_block(seed, trial, block), raw)

    def test_kernel_batches_that_split_a_trials_blocks(self, monkeypatch):
        monkeypatch.setattr(sim, "CHUNK", 1)  # kernel batches of 4 blocks
        seed = (1 << 64) - 12345
        trials = np.array([3, (1 << 64) - 1, 1 << 40], dtype=np.uint64)
        blocks = np.array([0, 1, 2, 1 << 32, (1 << 63) + 5], dtype=np.uint64)
        words = sim.philox_block(seed, trials[:, None], blocks)  # 15 blocks in 4 batches
        for i, trial in enumerate(trials.tolist()):
            for j, block in enumerate(blocks.tolist()):
                raw = Philox(counter=block, key=seed | trial << 64).random_raw(4)
                assert np.array_equal(words[i, j], raw)


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
            lambda: _cdf_rows(tilted_kernel(hitting_profile(ModelParams(1.5, 300), 66))),
            lambda: _cdf_rows(tilted_kernel(hitting_profile(ModelParams(2.0, 50), 10))),
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


def batched_paths(cdfs, x0, trials, seed):
    """Per-trial paths of sim._run_chains, and the totals it returns.

    Each step asks `_Uniforms.next` for the live trials' uniforms and then
    `_invert_rows` for their next states; wrapping both records the live
    trial ids and the states of every step.  The patch is undone on return,
    since the callers are hypothesis tests, which take no function fixtures.
    """
    live, states = [], []
    next_uniforms, invert_rows = sim._Uniforms.next, sim._invert_rows

    def recording_next(draws):
        live.append(draws.trials.tolist())
        return next_uniforms(draws)

    def recording_invert(*args):
        x = invert_rows(*args)
        states.append(x.tolist())
        return x

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim._Uniforms, "next", recording_next)
        mp.setattr(sim, "_invert_rows", recording_invert)
        totals = sim._run_chains(cdfs, x0, trials, seed)
    paths = [[x0] for _ in range(trials)]
    for idx, xs in zip(live, states, strict=True):
        for i, x in zip(idx, xs, strict=True):
            paths[i].append(x)
    return paths, totals


def chain_totals(refs):
    """What sim._run_chains returns for these one-trial runs: deaths, and the
    sum, sum of squares and maximum of the steps."""
    lengths = [len(r) - 1 for r in refs]
    return (
        sum(r[-1] == 0 for r in refs),
        sum(lengths),
        sum(k * k for k in lengths),
        max(lengths),
    )


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
        return _cdf_rows(tilted_kernel(hitting_profile(params, u)))

    @pytest.mark.parametrize("lam, n, u", CDF_CASES)
    def test_tilted_rows(self, lam, n, u):
        check_cdf_rows(self.tilted_cdfs(lam, n, u))

    @pytest.mark.parametrize("lam, n", sorted({(lam, n) for lam, n, _ in CDF_CASES} | {(2.0, 30)}))
    def test_binomial_rows(self, lam, n):
        params = ModelParams(lam, n)
        check_cdf_rows(np.array([binomial_cdf(params, x) for x in range(1, n + 1)]))

    @pytest.mark.parametrize("lam", [2.0, 6.0, 800.0])
    def test_poisson_row(self, lam):
        cdf = sim._poisson_cdf(lam)
        assert cdf[-1] == 1.0
        assert sim._invert(cdf, TOP_UNIFORM) < len(cdf)
        check_cdf_rows(cdf[np.newaxis])

    @PROPERTY_SETTINGS
    @given(chain_case())
    def test_chain_cases(self, case):
        lam, n, u, _, _ = case
        params = ModelParams(lam, n)
        check_cdf_rows(self.tilted_cdfs(lam, n, u))
        check_cdf_rows(np.array([binomial_cdf(params, x) for x in range(1, n + 1)]))


class TestBatchedMatchesScalar:
    TRIALS = 25

    @PROPERTY_SETTINGS
    @given(chain_case())
    def test_count_chain(self, case):
        lam, n, u, x0, seed = case
        params = ModelParams(lam, n)
        rows = [binomial_cdf(params, x) for x in range(1, u)]
        paths, totals = batched_paths(np.array([r[:u] for r in rows]), x0, self.TRIALS, seed)
        refs = [walk(rows, x0, u, trial_stream(seed, i)) for i in range(self.TRIALS)]
        for i, ref in enumerate(refs):
            assert ref[-1] == 0 or ref[-1] >= u  # not truncated
            # the batched chain records a crossing as u; the reference keeps the state
            assert paths[i][:-1] == ref[:-1]
            assert min(paths[i][-1], u) == min(ref[-1], u)
            assert len(paths[i]) == len(ref)
            assert (paths[i][-1] == 0) == (ref[-1] == 0)
            assert (paths[i][-1] == u) == (ref[-1] >= u)
        assert totals == chain_totals(refs)
        est = estimate_hitting_prob(params, u, x0, self.TRIALS, seed)
        assert est.mean == sum(r[-1] == 0 for r in refs) / self.TRIALS
        assert est.steps_total == sum(len(r) - 1 for r in refs)
        assert est.steps_max == max(len(r) - 1 for r in refs)

    @PROPERTY_SETTINGS
    @given(chain_case())
    def test_conditioned_path(self, case):
        lam, n, u, x0, seed = case
        prof = hitting_profile(ModelParams(lam, n), u)
        cdfs = _cdf_rows(tilted_kernel(prof))
        x0 = max(x0, 1)
        paths, totals = batched_paths(cdfs, x0, self.TRIALS, seed)
        refs = [walk(cdfs, x0, u, trial_stream(seed, i)) for i in range(self.TRIALS)]
        for i, ref in enumerate(refs):
            assert paths[i] == ref
            assert paths[i][-1] == 0
        assert totals == chain_totals(refs)
        est = estimate_conditioned_length(prof, x0, self.TRIALS, seed)
        lengths = [len(r) - 1 for r in refs]
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
        for i in range(self.TRIALS):
            assert counts[i] == particle_count(graph, start, lam, trial_stream(seed, i))


class TestChunkInvariance:
    @pytest.fixture(scope="class")
    def reference(self, profile):
        return self.run_all(profile)

    @staticmethod
    def run_all(profile):
        return (
            estimate_hitting_prob(ModelParams(2.0, 50), 10, 3, 60, seed=17),
            estimate_conditioned_length(profile, 20, 60, seed=17),
            sim.particle_step_counts(complete_graph(30), 10, 2.0, 60, seed=17).tolist(),
            sim.particle_step_counts(complete_graph(12, False), 5, 3.0, 60, seed=17).tolist(),
        )

    # CHUNK sizes every batch: count-chain trials at CHUNK, Philox blocks per
    # kernel batch at 4 * CHUNK, particle trials at max(1, CHUNK // 4), which
    # 28 takes to 7
    CHUNKS = [1, 7, 28, sim.CHUNK]

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_results_do_not_depend_on_chunk(self, monkeypatch, profile, reference, chunk):
        monkeypatch.setattr(sim, "CHUNK", chunk)
        assert self.run_all(profile) == reference

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_truncation_names_lowest_truncated_trial(self, monkeypatch, chunk):
        # u above eq: a trial that does not die soon is trapped near eq.  Take
        # the first seed whose trial 0 dies in time, so that the lowest
        # truncated trial is not simply the first one.
        params, cap = ModelParams(2.0, 50), 12
        rows = [binomial_cdf(params, x) for x in range(1, 40)]
        for seed in range(100):
            truncated = [
                0 < walk(rows, 1, 40, trial_stream(seed, i), cap)[-1] < 40 for i in range(20)
            ]
            if not truncated[0] and any(truncated):
                break
        assert not truncated[0] and any(truncated)
        monkeypatch.setattr(sim, "CHUNK", chunk)
        monkeypatch.setattr(sim, "STEP_CAP", cap)
        first = truncated.index(True)
        with pytest.raises(TruncationError, match=f"trial {first} exceeded {cap} steps"):
            estimate_hitting_prob(params, 40, 1, 20, seed=seed)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_conditioned_truncation_names_lowest_truncated_trial(self, monkeypatch, chunk):
        # u = n = 20 lies above eq (about 6.9), so the chain conditioned to
        # die below u lives about as long as the raw one: a median of 208
        # steps from x0 = 10.  Take the first seed whose trial 0 ends within
        # the cap, so that the lowest truncated trial is not simply the first.
        prof, cap = hitting_profile(ModelParams(2.0, 20), 20), 12
        cdfs = _cdf_rows(tilted_kernel(prof))
        for seed in range(100):
            truncated = [
                walk(cdfs, 10, prof.u, trial_stream(seed, i), cap)[-1] > 0
                for i in range(20)
            ]
            if not truncated[0] and any(truncated):
                break
        assert not truncated[0] and any(truncated)
        monkeypatch.setattr(sim, "CHUNK", chunk)
        monkeypatch.setattr(sim, "STEP_CAP", cap)
        first = truncated.index(True)
        with pytest.raises(TruncationError, match=f"trial {first} exceeded {cap} steps"):
            estimate_conditioned_length(prof, 10, 20, seed=seed)


class TestSamplerMemory:
    def test_hitting_steps_hold_no_row_per_trial(self, monkeypatch):
        # u far below eq (about 3466): every trial ends within a few steps
        params, u, x0, seed = ModelParams(2.0, 10_000), 1000, 5, 3
        estimate_hitting_prob(params, u, x0, 10, seed)  # fill the caches
        run_chains = sim._run_chains

        def traced(*args, **kwargs):
            tracemalloc.reset_peak()  # the table is built: measure the sampling
            return run_chains(*args, **kwargs)

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

    def test_particle_arrivals_hold_no_row_per_trial(self):
        # a trials x n arrival table would alone take 64 * 10^6 * 8 B (512 MB)
        graph, trials = complete_graph(10**6), 64
        sim.particle_step_counts(graph, 10, 2.0, 1, seed=1)  # fill the Poisson row's cache
        tracemalloc.start()
        try:
            counts = sim.particle_step_counts(graph, 10, 2.0, trials, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.shape == (trials,) and counts.sum() > 0
        assert peak < 4 << 20
