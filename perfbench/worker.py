"""One workload process: set up, warm up, run passes back to back, report.

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1 [--probe]

run.py starts this process and times its set-up: everything until it
prints "ready" (imports, loading the reference values, one small warm-up
pass).  A SpeedProbe runs from the import of numpy on, and the ready line
carries the time it took and the machine's mean slowdown, so that run.py
can rescale the set-up time.  With --probe it exits there.  Otherwise it
runs passes of the workload in a closed loop (one client, one operation at
a time) until --seconds have passed, checks every operation's outputs, and
prints one JSON line with its pass times, counts and metrics.

With --trace 0, a SpeedProbe (speed.py) samples the machine's speed during
every pass, and pass_s is the median pass time at the reference machine speed.
With --trace 1, untraced and traced passes alternate, without the speed probe.
The traced passes give the per-layer metrics, the untraced ones the
per-sampler throughputs, and the two together the tracing overhead.
"""

from __future__ import annotations

import argparse
import atexit
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from run import THREAD_VARS

# before numpy is imported, for a worker started by hand
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from speed import SpeedProbe  # noqa: E402

#: samples the machine's speed during the rest of set-up, when started as a script
SETUP_SPEED = SpeedProbe()
if __name__ == "__main__":
    SETUP_SPEED.start()
    # a process that fails during set-up must not be ended by the timer's signal
    atexit.register(SETUP_SPEED.stop)

import scipy  # noqa: E402
from barw import cli  # noqa: E402

from checks import RESIDUAL_TOL, check_op, load_reference  # noqa: E402
from tracing import COUNTERS, Tracer, layer_metric_names  # noqa: E402
from workloads import WORKLOADS, workload_ops  # noqa: E402

#: sampler experiment -> its throughput metric
THROUGHPUT = {
    "mc-hitting": "hitting_trials_per_s",
    "mc-cond-path": "cond_path_trials_per_s",
    "equivalence": "particle_trials_per_s",
}


@dataclass
class PassResult:
    """One pass: wall time of its operations (checks excluded) and what they did."""

    seconds: float = 0.0
    #: `seconds` at the reference machine speed; only passes run with a SpeedProbe have it
    normalised_seconds: float | None = None
    op_seconds: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    csv_bytes: int = 0
    csv_identical: int = 0


class Runner:
    """Runs passes of one workload, each in a fresh directory with a fresh cache."""

    def __init__(self, workload: str, seed: int, reference: dict, work_dir: Path,
                 scale: str = "full"):
        self.ops = workload_ops(workload, seed, scale)
        self.scale = scale
        self.reference = reference
        self.work_dir = Path(work_dir)
        self.passes = 0

    def run_pass(self, tracer: Tracer | None = None,
                 speed: SpeedProbe | None = None) -> PassResult:
        result = PassResult()
        pass_dir = self.work_dir / f"{self.scale}-pass{self.passes}"
        self.passes += 1
        if tracer is not None:
            tracer.begin_pass()
        if speed is not None:
            # every pass gets at least this sample, taken outside its timed operations
            first_sample = len(speed.samples)
            speed.sample()
        try:
            for op in self.ops:
                self._run_op(op, pass_dir, tracer, speed, result)
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)
        if speed is not None:
            result.normalised_seconds = result.seconds / speed.slowdown(first_sample)
        if tracer is not None and tracer.counters[-1]["solver.residual_max"] > RESIDUAL_TOL:
            print(f"perfbench: a solve's residual exceeds {RESIDUAL_TOL:g}", file=sys.stderr)
            result.failed += 1
        return result

    def _run_op(self, op, pass_dir: Path, tracer: Tracer | None, speed: SpeedProbe | None,
                result: PassResult) -> None:
        out_dir = pass_dir / op.experiment
        config = cli.ExperimentConfig(
            experiment=op.experiment,
            out_dir=out_dir,
            cache_dir=pass_dir / "cache" if op.cached else None,
            **op.fields,
        )
        result.attempted += 1
        run = cli.run_experiment
        if tracer is not None:
            run = tracer.wrap(f"cli.{op.experiment}", run)
        busy0 = speed.busy_s if speed is not None else 0.0
        t0 = time.perf_counter()
        try:
            summary = run(config)
        except Exception:  # an operation that raises is a failed operation; keep going
            traceback.print_exc()
            result.failed += 1
            return
        finally:
            elapsed = time.perf_counter() - t0
            if speed is not None:
                elapsed -= speed.busy_s - busy0
            result.seconds += elapsed
            result.op_seconds[op.experiment] = elapsed
        check = check_op(self.reference, self.scale, op.experiment, op.fields, out_dir, summary)
        result.csv_bytes += check.csv_bytes
        result.csv_identical += check.csv_identical
        if check.problems:
            print("perfbench: " + "; ".join(check.problems), file=sys.stderr)
            result.failed += 1


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[list, list, Tracer | None]:
    """Closed loop: passes back to back until `seconds` have passed.

    Without tracing, a SpeedProbe samples the machine's speed throughout.
    With tracing, passes alternate untraced, traced, untraced, ... and at
    least one of each runs.
    """
    tracer = Tracer() if trace else None
    speed = None if trace else SpeedProbe()
    plain, traced = [], []
    start = time.perf_counter()
    if speed is not None:
        speed.start()
    try:
        while time.perf_counter() - start < seconds or (trace and not traced):
            if trace and len(plain) > len(traced):
                with tracer.installed():
                    traced.append(runner.run_pass(tracer))
            else:
                plain.append(runner.run_pass(speed=speed))
    finally:
        if speed is not None:
            speed.stop()
    return plain, traced, tracer


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


#: end-to-end metric -> (unit, better, bound); setup_s is measured by run.py
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "pass_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}


def per_layer_spec() -> dict:
    """Per-layer metric -> (unit, better), in report order."""
    spec = {}
    for name in layer_metric_names():
        if name in COUNTERS:
            spec[name] = COUNTERS[name]
        else:
            spec[name] = ("count", "lower") if name.endswith(".calls") else ("s", "lower")
    spec.update({metric: ("1/s", "higher") for metric in THROUGHPUT.values()})
    spec.update(
        {
            "error_rate": ("ratio", "lower"),
            "cli.csv_bytes": ("bytes", "lower"),
            "cli.csv_identical": ("count", "higher"),
            "trace.pass_s": ("s", "lower"),
            "trace.untraced_pass_s": ("s", "lower"),
            "trace.overhead_s": ("s", "lower"),
        }
    )
    return spec


def end_to_end_metrics(plain: list[PassResult]) -> dict:
    return {
        "pass_s": _median(p.normalised_seconds for p in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(runner: Runner, plain: list[PassResult], traced: list[PassResult],
                  tracer: Tracer) -> dict:
    per_pass = tracer.pass_metrics()
    out = {name: _median(m[name] for m in per_pass) for name in per_pass[0]}
    trials = {op.experiment: op.fields.get("trials") for op in runner.ops}
    for experiment, metric in THROUGHPUT.items():
        out[metric] = 0.0
        if experiment in trials:
            out[metric] = _median(trials[experiment] / p.op_seconds[experiment] for p in plain)
    all_passes = plain + traced
    out["cli.csv_bytes"] = _median(p.csv_bytes for p in all_passes)
    out["cli.csv_identical"] = _median(p.csv_identical for p in all_passes)
    out["trace.pass_s"] = _median(p.seconds for p in traced)
    out["trace.untraced_pass_s"] = _median(p.seconds for p in plain)
    out["trace.overhead_s"] = out["trace.pass_s"] - out["trace.untraced_pass_s"]
    return out


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        run = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = run.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "barw").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--probe", action="store_true", help="exit once set up")
    args = parser.parse_args(argv)

    if Path(cli.__file__).resolve().parents[1] != SRC:
        print(f"perfbench: barw imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    reference = load_reference()
    work_dir = OUT / f"work-{os.getpid()}"
    try:
        warm = Runner(args.workload, args.seed, reference, work_dir, scale="small").run_pass()
        SETUP_SPEED.sample()  # at least one sample
        SETUP_SPEED.stop()
        print(f"ready {SETUP_SPEED.busy_s!r} {SETUP_SPEED.slowdown(0)!r}", flush=True)
        if args.probe:
            return 0
        runner = Runner(args.workload, args.seed, reference, work_dir)
        plain, traced, tracer = measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    passes = [warm] + plain + traced
    report = {
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "pass_seconds": [round(p.seconds, 4) for p in plain + traced],
        "normalised_pass_seconds": [
            round(p.normalised_seconds, 4) for p in plain if p.normalised_seconds is not None
        ],
        "environment": environment(),
    }
    if args.trace:
        metrics, spec = layer_metrics(runner, plain, traced, tracer), per_layer_spec()
        metrics["error_rate"] = report["failed"] / report["attempted"]
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        metrics, spec = end_to_end_metrics(plain), END_TO_END
    report["metrics"] = {k: {"value": v, "unit": spec[k][0]} for k, v in metrics.items()}
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
