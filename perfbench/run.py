"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the root of a checkout.  It starts one workload process
(worker.py) with every BLAS/OpenMP thread variable set to 1, and with
--trace 0 also SETUP_SAMPLES - 1 probe processes that only set up, so that
setup_s is a median.  Like pass_s, each set-up time is rescaled to the
reference machine speed (speed.py), from samples the process takes while it
sets up.  It prints the environment, the pass count, and as its
last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Without barw's sources under src/ it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_SAMPLES = 5
#: every process this run starts is killed once this many seconds have passed
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def run_worker(args: argparse.Namespace, probe: bool,
               deadline: float) -> tuple[tuple[float, float], list[str]]:
    """Run worker.py to completion.

    Returns its set-up time, as (wall seconds, seconds at the reference
    machine speed), and its other output lines.
    """
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if probe:
        cmd.append("--probe")
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - started, 0.0), proc.kill)
    timer.start()
    setup_s, lines = None, []
    try:
        for line in proc.stdout:
            if setup_s is None and line.startswith("ready "):
                wall_s = time.perf_counter() - started
                busy_s, slowdown = map(float, line.split()[1:])
                setup_s = (wall_s, (wall_s - busy_s) / slowdown)
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or setup_s is None or not (probe or lines):
        raise WorkerError(f"worker exited with code {code} (killed after {DEADLINE_S:g} s?)")
    return setup_s, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one barw benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "barw" / "__init__.py").is_file():
        print(f"perfbench: no barw sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    try:
        setups = []
        if not args.trace:
            setups = [run_worker(args, True, deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
        setup_s, lines = run_worker(args, False, deadline)
        report = json.loads(lines[-1])
    except (WorkerError, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)
    metrics = report["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(s for _, s in setups), "unit": "s"}
    print("environment " + json.dumps(report["environment"]))
    passes = report["pass_seconds"]
    setup_pairs = [(round(wall, 4), round(normalised, 4)) for wall, normalised in setups]
    print(f"{len(passes)} passes (s) {passes}; "
          f"setup samples (s, at reference speed) {setup_pairs}")
    if report["normalised_pass_seconds"]:
        print(f"passes at the reference machine speed (s) {report['normalised_pass_seconds']}")
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
