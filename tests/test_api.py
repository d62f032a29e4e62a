import json
import os
import subprocess
import sys
from pathlib import Path

import barw

#: imports barw and runs experiments step by step, and records after each
#: step which of scipy.special, scipy.stats and numpy.random have been
#: loaded; argv[1] is a scratch output directory.  The runs cover the kernel
#: rows, the unconditional solve and both samplers' binomial and Poisson tables
IMPORT_PROBE = """
import json, sys
from pathlib import Path

loaded = {}
def record(step):
    loaded[step] = [
        name for name in ("scipy.special", "scipy.stats", "numpy.random") if name in sys.modules
    ]

import barw
record("import barw")
import barw.cli as cli
record("import barw.cli")
out = Path(sys.argv[1])
runs = {
    "bounds-report": dict(lam=2.0, n=300, epsilon=0.05),
    "figure1": dict(lam=1.5, n=200, epsilon=0.05),
    "uncond-time": dict(lam=2.0, n_sweep=(20, 30)),
    "mc-hitting": dict(lam=2.0, n=50, u=10, x0=3, trials=200, seed=1),
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


def test_experiments_never_load_scipy_stats(tmp_path):
    # scipy.stats would more than double the time and memory of every
    # process start, and only binomial_tail_bound needs it.  scipy.special
    # alone would add about 0.3 s and 20 MB; the log-factorial table stands
    # in for its gammaln.  The samplers make their own Philox words, so
    # numpy.random (about 11 ms) stays unloaded too.  The test modules import
    # all three, so the check runs in a fresh interpreter
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
    steps = ["import barw", "import barw.cli", "bounds-report", "figure1", "uncond-time",
             "mc-hitting", "equivalence"]
    assert loaded == {step: [] for step in steps}
