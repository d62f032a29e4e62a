"""Self-tests of the benchmark, mostly at the small scale.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import speed
import worker
from barw import cli
from barw.simulate import EstimateWithCI
from checks import load_reference
from speed import SpeedProbe
from tracing import COUNTERS, Tracer
from workloads import WORKLOADS, workload_ops

HERE = Path(__file__).resolve().parents[1]
SEED = 5


@pytest.fixture(scope="module")
def reference():
    return load_reference()


def run_pass(reference, tmp_path, workload, scale="small", seed=SEED):
    return worker.Runner(workload, seed, reference, tmp_path, scale).run_pass()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_completes(reference, tmp_path, workload):
    result = run_pass(reference, tmp_path, workload)
    assert result.attempted == len(workload_ops(workload, SEED, "small"))
    assert result.failed == 0
    assert result.seconds > 0.0


def _perturbing_writer(original, rel):
    """_write_csv that scales the largest last-column value by (1 + rel)."""

    def write(path, header, rows):
        rows = [list(r) for r in rows]
        i = max(range(len(rows)), key=lambda k: abs(float(rows[k][-1] or 0.0)))
        rows[i][-1] = float(rows[i][-1]) * (1.0 + rel)
        original(path, header, rows)

    return write


def test_small_value_moves_pass_the_checks(reference, tmp_path, monkeypatch):
    # a solver that moves outputs by ~1e-11 changes the bytes but still passes
    monkeypatch.setattr(cli, "_write_csv", _perturbing_writer(cli._write_csv, 1e-11))
    result = run_pass(reference, tmp_path, "figures-native")
    assert result.failed == 0
    assert result.csv_identical < 6


def test_perturbed_output_value_fails(reference, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_write_csv", _perturbing_writer(cli._write_csv, 1e-6))
    result = run_pass(reference, tmp_path, "figures-native")
    assert result.failed == result.attempted == 6


def test_perturbed_estimate_fails(reference, tmp_path, monkeypatch):
    original = cli.estimate_hitting_prob

    def shifted(*args, **kwargs):
        est = original(*args, **kwargs)
        return EstimateWithCI(est.mean + 0.1, est.std_error, est.trials, est.seed)

    monkeypatch.setattr(cli, "estimate_hitting_prob", shifted)
    result = run_pass(reference, tmp_path, "mc-samplers")
    assert result.failed == 1


def test_injected_exception_fails(reference, tmp_path, monkeypatch):
    def broken(profile):
        raise RuntimeError("injected")

    monkeypatch.setattr(cli, "tilted_kernel", broken)
    result = run_pass(reference, tmp_path, "figures-native")
    # figure2, cond-time and occupation tilt the kernel
    assert result.failed == 3
    assert result.attempted == 6


def _traced_counts(reference, tmp_path, workload, scale):
    runner = worker.Runner(workload, SEED, reference, tmp_path, scale)
    tracer = Tracer()
    with tracer.installed():
        result = runner.run_pass(tracer)
    assert result.failed == 0
    (metrics,) = tracer.pass_metrics()
    return {k: v for k, v in metrics.items() if k.endswith(".calls") or k in COUNTERS}


@pytest.mark.parametrize(
    "workload, scale",
    [("figures-native", "small"), ("mc-samplers", "small"), ("bounds-logdomain", "full")],
)
def test_traced_counts_repeat(reference, tmp_path, workload, scale):
    first = _traced_counts(reference, tmp_path / "a", workload, scale)
    second = _traced_counts(reference, tmp_path / "b", workload, scale)
    assert first == second
    if workload == "figures-native":
        assert first["cli.cache.stores"] == 3
        assert first["cli.cache.hits"] == 2
        assert first["chain.transition_log_row.calls"] > 0
    elif workload == "mc-samplers":
        assert first["simulate.trial_stream.calls"] == 400 + 400 + 800
        assert first["simulate.cond_path.steps_total"] > 400
    else:
        assert first["solver.method.logdomain"] == 1
        assert first["logdomain.signed_add.calls"] > 0


def test_traced_run_reports_every_per_layer_metric(reference, tmp_path):
    runner = worker.Runner("mc-samplers", SEED, reference, tmp_path, "small")
    plain, traced, tracer = worker.measure(runner, 0.0, trace=True)
    assert len(plain) == len(traced) == 1
    metrics = worker.layer_metrics(runner, plain, traced, tracer)
    assert set(metrics) | {"error_rate"} == set(worker.per_layer_spec())


def test_speed_probe_normalises_untraced_passes(reference, tmp_path):
    runner = worker.Runner("bounds-logdomain", SEED, reference, tmp_path, "small")
    plain, traced, _ = worker.measure(runner, 0.05, trace=False)
    assert plain and not traced
    assert all(p.normalised_seconds > 0.0 for p in plain)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_speed_probe_slowdown_is_time_weighted():
    probe = SpeedProbe()
    probe.samples = [speed.REFERENCE_S, 3 * speed.REFERENCE_S]
    # half the time at the reference rate, half at a third of it: 2/3 of the reference work
    assert probe.slowdown(0) == pytest.approx(1.5)
    assert probe.slowdown(1) == pytest.approx(3.0)


def test_tracing_restores_the_package(reference, tmp_path):
    before = cli.hitting_profile
    with Tracer().installed():
        assert cli.hitting_profile is not before
    assert cli.hitting_profile is before


def test_benchmark_json_matches_the_metrics_reported():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]} == (
        worker.END_TO_END
    )
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == (
        worker.per_layer_spec()
    )


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures-native", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
