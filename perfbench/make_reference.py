"""Regenerate reference.json from the barw sources of this checkout.

    python3 perfbench/make_reference.py

It records:

- for every operation of every workload, at both scales, the header of each
  CSV it writes, and for the exact experiments the hash, row count, sampled
  rows and column sums that checks.py compares;
- the parsed bounds report;
- the exact values the Monte Carlo checks use: phi_10(3) at lambda=2, n=50;
  t(20), the conditioned chain's expected extinction time from x=20 at
  lambda=1.5, n=300, epsilon=0.05 (window), with its standard deviation;
  and the Bin(30, b(10)) row at lambda=2.

Each exact value is cross-checked against an independent computation.
Rerun this only when the program's outputs are meant to change.
"""

from __future__ import annotations

import json
import math
import shutil
import sys

import numpy as np
from scipy.stats import binom

from worker import OUT, environment  # sets up the import path to barw
from barw import (
    ModelParams,
    branch_prob,
    conditional_expected_extinction,
    hitting_profile,
    threshold_u,
    tilted_kernel,
    transition_log_row,
)
from barw.cli import ExperimentConfig, run_experiment
from checks import EXACT_EXPERIMENTS, REFERENCE_PATH, csv_reference, parse_report, ref_key
from workloads import SCALES, WORKLOADS, workload_ops


def exact_values() -> dict:
    params = ModelParams(2.0, 50)
    log_phi = hitting_profile(params, 10).log_phi[3]
    oracle = hitting_profile(params, 10, method="value-iteration").log_phi[3]
    assert abs(log_phi - oracle) < 1e-10, (log_phi, oracle)

    params = ModelParams(1.5, 300)
    u = threshold_u(params, 0.05, "window")
    kernel = tilted_kernel(hitting_profile(params, u))
    t20 = conditional_expected_extinction(kernel).values[20]
    # T = 1 + T', so E[T^2] solves (I - P) s = 1 + 2 P t; numpy's LAPACK solve
    # is the independent check on the package's elimination
    P = kernel.rows[:, 1:]
    A = np.eye(u - 1) - P
    t = np.linalg.solve(A, np.ones(u - 1))
    assert math.isclose(t[19], t20, rel_tol=1e-10), (t[19], t20)
    s = np.linalg.solve(A, 1.0 + 2.0 * P @ t)

    params = ModelParams(2.0, 30)
    row = np.exp(transition_log_row(params, 10))
    scipy_row = binom.pmf(np.arange(31), 30, branch_prob(params, 10))
    assert np.allclose(row, scipy_row, rtol=1e-10, atol=1e-300)
    return {
        "phi_10_3": {"lambda": 2.0, "n": 50, "u": 10, "x": 3, "log_value": log_phi,
                     "value": math.exp(log_phi)},
        "t_20": {"lambda": 1.5, "n": 300, "epsilon": 0.05, "u": u, "x": 20, "value": t20,
                 "sd": math.sqrt(s[19] - t[19] ** 2)},
        "bin_30_b10": row.tolist(),
    }


def file_references(work_dir) -> dict:
    files = {}
    for scale in SCALES:
        for workload in WORKLOADS:
            pass_dir = work_dir / f"{scale}-{workload}"
            for op in workload_ops(workload, seed=1, scale=scale):
                out = pass_dir / op.experiment
                summary = run_experiment(
                    ExperimentConfig(
                        experiment=op.experiment,
                        out_dir=out,
                        cache_dir=pass_dir / "cache" if op.cached else None,
                        **op.fields,
                    )
                )
                for name in summary["files"]:
                    data = (out / name).read_bytes()
                    if name == "report.txt":
                        entry = {"checks": parse_report(data.decode())}
                    else:
                        entry = csv_reference(data, op.experiment in EXACT_EXPERIMENTS)
                    files[ref_key(scale, op.experiment, name)] = entry
    return files


def main() -> int:
    work_dir = OUT / "make-reference"
    try:
        reference = {
            "source": {k: environment()[k] for k in ("commit", "source_sha256")},
            "exact": exact_values(),
            "files": file_references(work_dir),
        }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE_PATH} ({REFERENCE_PATH.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
