import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import barw
from barw import (
    GraphSpec,
    ModelParams,
    branch_prob,
    complete_graph,
    conditional_occupation_time,
    default_alpha,
    envelope_log_bounds,
    estimate_conditioned_length,
    estimate_hitting_prob,
    hitting_profile,
    make_bound_set,
    particle_step_counts,
    threshold_u,
    transition_log_rows,
)
from barw.bounds import log_kappa_floor

#: blocks scipy, imports barw, runs every experiment step by step and
#: records after each step whether numpy.random has been loaded; argv[1] is
#: a scratch output directory.  The runs cover the kernel rows, every solve
#: and tilt, the bound checks and the samplers' binomial, tilted and Poisson
#: tables
IMPORT_PROBE = """
import json, sys
from pathlib import Path

sys.modules["scipy"] = None  # every import of scipy or a submodule now fails
loaded = {}
def record(step):
    loaded[step] = "numpy.random" in sys.modules

import barw
record("import barw")
import barw.cli as cli
record("import barw.cli")
out = Path(sys.argv[1])
runs = {
    "profile": dict(lam=2.0, n=50, u=10),
    "figure1": dict(lam=1.5, n=200, epsilon=0.05),
    "figure2": dict(lam=6.0, n=200, epsilon=0.05),
    "cond-time": dict(lam=1.5, n=200, epsilon=0.05),
    "occupation": dict(lam=1.5, n=200, epsilon=0.05, delta=0.1),
    "uncond-time": dict(lam=2.0, n_sweep=(20, 30)),
    "bounds-report": dict(lam=2.0, n=300, epsilon=0.05),
    "mc-hitting": dict(lam=2.0, n=50, u=10, x0=3, trials=200, seed=1),
    "mc-cond-path": dict(lam=1.5, n=200, epsilon=0.05, x0=20, trials=200, seed=1),
    "equivalence": dict(lam=2.0, n=30, x0=10, trials=200, seed=1),
}
for experiment, fields in runs.items():
    cli.run_experiment(cli.ExperimentConfig(experiment, out / experiment, **fields))
    record(experiment)
print(json.dumps(loaded))
"""


def test_public_names_resolve_sorted_and_unique():
    names = barw.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(barw, name)] == []


def test_experiments_run_without_scipy_or_numpy_random(tmp_path):
    # numpy is the only runtime dependency: scipy is blocked in the probe, so
    # an experiment that imports it fails.  The samplers make their own
    # Philox words, so numpy.random (about 11 ms) stays unloaded too.  The
    # test modules import both, so the check runs in a fresh interpreter
    src = str(Path(barw.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    loaded = json.loads(done.stdout.splitlines()[-1])
    steps = ["import barw", "import barw.cli", "profile", "figure1", "figure2", "cond-time",
             "occupation", "uncond-time", "bounds-report", "mc-hitting", "mc-cond-path",
             "equivalence"]
    assert loaded == dict.fromkeys(steps, False)


P = ModelParams(2.0, 50)
K30 = complete_graph(30)
#: eps*n = 15: the envelope covers the states 0..14
B = make_bound_set(2.0, 300, 0.05)

#: the counts that public entry points take: a call with the count put in,
#: and a count just outside the entry point's range
COUNTS = {
    "ModelParams-n": (lambda k, v: ModelParams(2.0, v), 0),
    "make_bound_set-n": (lambda k, v: make_bound_set(2.0, v, 0.05), 0),
    "branch_prob-state": (lambda k, v: branch_prob(P, v), 51),
    "transition_log_rows-state": (lambda k, v: transition_log_rows(P, [1, v]), -1),
    "envelope_log_bounds-state": (lambda k, v: envelope_log_bounds(B, v), 15),
    "hitting_profile-u": (lambda k, v: hitting_profile(P, v), 51),
    "estimate_hitting_prob-u": (lambda k, v: estimate_hitting_prob(P, v, 3, 10, 1), 51),
    "estimate_hitting_prob-x0": (lambda k, v: estimate_hitting_prob(P, 10, v, 10, 1), 10),
    "estimate_hitting_prob-trials": (lambda k, v: estimate_hitting_prob(P, 10, 3, v, 1), 0),
    "estimate_hitting_prob-seed": (lambda k, v: estimate_hitting_prob(P, 10, 3, 10, v), -1),
    "estimate_conditioned_length-x0": (lambda k, v: estimate_conditioned_length(k, v, 10, 1), 0),
    "estimate_conditioned_length-trials": (
        lambda k, v: estimate_conditioned_length(k, 3, v, 1), 0
    ),
    "estimate_conditioned_length-seed": (
        lambda k, v: estimate_conditioned_length(k, 3, 10, v), 1 << 64
    ),
    "particle_step_counts-start": (lambda k, v: particle_step_counts(K30, v, 2.0, 10, 1), 31),
    "particle_step_counts-trials": (lambda k, v: particle_step_counts(K30, 3, 2.0, v, 1), 0),
    "particle_step_counts-seed": (lambda k, v: particle_step_counts(K30, 3, 2.0, 10, v), -1),
    "GraphSpec-vertex_count": (lambda k, v: GraphSpec(v, None, True), 0),
    "log_kappa_floor-n": (lambda k, v: log_kappa_floor(2.0, v), 0),
}

#: the reals that public entry points take, each with a value just outside its open interval
REALS = {
    "ModelParams-lambda": (lambda k, v: ModelParams(v, 50), 1.0),
    "make_bound_set-lambda": (lambda k, v: make_bound_set(v, 50, 0.05), 1.0),
    "make_bound_set-epsilon": (lambda k, v: make_bound_set(2.0, 50, v), 0.0),
    # alpha in (log(2)/2, 1/2)
    "make_bound_set-alpha": (lambda k, v: make_bound_set(2.0, 50, 0.05, v), 0.5),
    "threshold_u-low-epsilon": (lambda k, v: threshold_u(P, v, "low"), 0.0),
    # window epsilon in (0, log(2)/2)
    "threshold_u-window-epsilon": (lambda k, v: threshold_u(P, v, "window"), 0.35),
    "conditional_occupation_time-delta": (lambda k, v: conditional_occupation_time(k, v), 1.0),
    "particle_step_counts-lambda": (lambda k, v: particle_step_counts(K30, 3, v, 10, 1), 0.0),
    "default_alpha-lambda": (lambda k, v: default_alpha(v), 1.0),
    "log_kappa_floor-lambda": (lambda k, v: log_kappa_floor(v, 50), 1.0),
}

#: an int beyond the doubles, which `1 < v < inf` and `1 <= v <= inf` let through
HUGE = 10**400


def _cases(entries, bad):
    return [
        pytest.param(name, v, id=f"{name}-{'10**400' if v is HUGE else repr(v)}")
        for name, (_, outside) in entries.items()
        for v in (*bad, outside)
    ]


@pytest.mark.parametrize(
    ("entry", "value"), _cases(COUNTS, [math.nan, math.inf, -math.inf, True, 2.5, "3", HUGE])
)
def test_a_count_that_is_not_one_in_range_is_a_value_error(profile_2_50_u10, entry, value):
    # a ValueError, never a TypeError, an OverflowError or a result
    with pytest.raises(ValueError, match=" must be an integer, got | outside "):
        COUNTS[entry][0](profile_2_50_u10, value)


@pytest.mark.parametrize(
    ("entry", "value"), _cases(REALS, [math.nan, math.inf, -math.inf, True, "2", 2j, HUGE])
)
def test_a_real_outside_its_open_interval_is_a_value_error(profile_2_50_u10, entry, value):
    with pytest.raises(ValueError, match=r" must lie in \(.*\), got "):
        REALS[entry][0](profile_2_50_u10, value)
