import json
import os
import subprocess
import sys
from pathlib import Path

import barw

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
