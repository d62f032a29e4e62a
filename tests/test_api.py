import json
import os
import subprocess
import sys
from pathlib import Path

import barw

#: imports barw step by step and records after each step whether
#: scipy.stats has been loaded; argv[1] is a scratch output directory
IMPORT_PROBE = """
import json, sys
from pathlib import Path

loaded = {}
import barw
loaded["import barw"] = "scipy.stats" in sys.modules
import barw.cli as cli
loaded["import barw.cli"] = "scipy.stats" in sys.modules
out = Path(sys.argv[1])
for experiment, lam, n in [("bounds-report", 2.0, 300), ("figure1", 1.5, 200)]:
    config = cli.ExperimentConfig(experiment, out / experiment, lam=lam, n=n, epsilon=0.05)
    cli.run_experiment(config)
    loaded[experiment] = "scipy.stats" in sys.modules
print(json.dumps(loaded))
"""


def test_public_names_resolve_sorted_and_unique():
    names = barw.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(barw, name)] == []


def test_experiments_never_load_scipy_stats(tmp_path):
    # scipy.stats would more than double the time and memory of every
    # process start, and only binomial_tail_bound needs it.  The test
    # modules import it, so the check runs in a fresh interpreter
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
    assert loaded == {
        "import barw": False,
        "import barw.cli": False,
        "bounds-report": False,
        "figure1": False,
    }
