import dataclasses
import errno
import json
import math
from pathlib import Path

import numpy as np
import pytest

import barw.cli as cli
from barw import (
    ModelParams,
    SolverError,
    TruncationError,
    equilibrium,
    gw_extinction_prob,
    hitting_profile,
    threshold_u,
    unconditional_expected_extinction,
)
from barw.cli import ExperimentConfig, cache_lookup, cache_path, cache_store, run_experiment


def run(argv):
    return cli.main(argv)


def exit_code(argv):
    """main's exit code, whether it returns it or argparse exits with it."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


class TestProfileExperiment:
    def test_u_one_single_row(self, tmp_path):
        out = tmp_path / "out"
        assert run(["profile", "--lambda", "2", "--n", "10", "--u", "1", "--out", str(out)]) == 0
        lines = (out / "phi.csv").read_text().splitlines()
        assert lines == ["x,log_phi_natural,phi_if_representable", "0,0,1"]

    def test_row_count_matches_u(self, tmp_path):
        out = tmp_path / "out"
        assert (
            run(["profile", "--lambda", "2", "--n", "50", "--u", "10", "--out", str(out)]) == 0
        )
        lines = (out / "phi.csv").read_text().splitlines()
        assert len(lines) == 11

    def test_mode_low_resolution(self, tmp_path):
        out = tmp_path / "out"
        code = run(
            ["profile", "--lambda", "2", "--n", "100", "--mode", "low",
             "--epsilon", "0.05", "--out", str(out)]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["constants"]["u"] == 5

    def test_summary_constants_match_modules(self, tmp_path):
        out = tmp_path / "out"
        run(
            ["profile", "--lambda", "1.5", "--n", "300", "--mode", "window",
             "--epsilon", "0.05", "--out", str(out)]
        )
        summary = json.loads((out / "summary.json").read_text())
        params = ModelParams(1.5, 300)
        assert summary["constants"]["eq"] == equilibrium(params)
        assert summary["constants"]["q"] == gw_extinction_prob(1.5)
        assert summary["constants"]["u"] == threshold_u(params, 0.05, "window")


class TestFigureExperiments:
    def test_figure1_row_count(self, tmp_path):
        out = tmp_path / "f1"
        assert (
            run(["figure1", "--lambda", "1.5", "--n", "60", "--epsilon", "0.05",
                 "--out", str(out)]) == 0
        )
        lines = (out / "logh.csv").read_text().splitlines()
        u = threshold_u(ModelParams(1.5, 60), 0.05, "window")
        assert lines[0] == "x,log10_h"
        assert len(lines) == u + 1

    def test_figure1_base_conversion(self, tmp_path):
        out = tmp_path / "f1"
        run(["figure1", "--lambda", "1.5", "--n", "60", "--epsilon", "0.05", "--out", str(out)])
        lines = (out / "logh.csv").read_text().splitlines()
        params = ModelParams(1.5, 60)
        profile = hitting_profile(params, threshold_u(params, 0.05, "window"))
        x, val = lines[2].split(",")
        assert float(val) == pytest.approx(profile.log_phi[1] / math.log(10.0), abs=0)

    def test_figure2_full_matrix(self, tmp_path):
        out = tmp_path / "f2"
        assert (
            run(["figure2", "--lambda", "2", "--n", "100", "--epsilon", "0.05",
                 "--out", str(out)]) == 0
        )
        lines = (out / "kernel.csv").read_text().splitlines()
        u = threshold_u(ModelParams(2.0, 100), 0.05, "window")
        assert lines[0] == "x,y,p_phi"
        assert len(lines) == 1 + (u - 1) * u

    def test_figure1_canonical_row_count(self, tmp_path):
        out = tmp_path / "f1c"
        run(["figure1", "--lambda", "1.5", "--n", "1200", "--epsilon", "0.05",
             "--out", str(out)])
        lines = (out / "logh.csv").read_text().splitlines()
        assert len(lines) == 266  # header plus x = 0..264

    def test_rerun_bit_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["figure1", "--lambda", "1.5", "--n", "60", "--epsilon", "0.05"]
        run(args + ["--out", str(out1)])
        run(args + ["--out", str(out2)])
        assert (out1 / "logh.csv").read_bytes() == (out2 / "logh.csv").read_bytes()


class TestThresholdResolution:
    def test_custom(self, tmp_path):
        out = tmp_path / "out"
        assert run(["profile", "--lambda", "2", "--n", "100", "--mode", "custom", "--u", "17",
                    "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["constants"]["u"] == 17

    def test_custom_requires_u(self, tmp_path):
        assert run(["profile", "--lambda", "2", "--n", "100", "--mode", "custom",
                    "--out", str(tmp_path / "x")]) == 2

    def test_custom_range_check(self, tmp_path):
        for u in ("0", "101"):
            assert run(["profile", "--lambda", "2", "--n", "100", "--u", u,
                        "--out", str(tmp_path / "x")]) == 2

    def test_derived_modes_reject_explicit_u(self, tmp_path):
        cases = [
            ("profile", "phi.csv", ["--n", "100", "--mode", "low", "--u", "7"]),
            ("figure1", "logh.csv", ["--n", "300", "--mode", "low", "--u", "5"]),
            ("figure2", "kernel.csv", ["--n", "300", "--mode", "window", "--u", "5"]),
        ]
        for experiment, csv, flags in cases:
            out = tmp_path / experiment
            argv = [experiment, "--lambda", "2", "--epsilon", "0.05", *flags, "--out", str(out)]
            assert run(argv) == 2
            assert not (out / csv).exists()

    def test_figures_honor_u_and_mode(self, tmp_path):
        assert run(["figure1", "--lambda", "1.5", "--n", "300", "--u", "5",
                    "--out", str(tmp_path / "f1")]) == 0
        assert len((tmp_path / "f1" / "logh.csv").read_text().splitlines()) == 1 + 5
        assert run(["figure2", "--lambda", "2", "--n", "100", "--mode", "low",
                    "--epsilon", "0.05", "--out", str(tmp_path / "f2")]) == 0
        # u = ceil(0.05 * 100) = 5: rows x = 1..4, columns y = 0..4
        assert len((tmp_path / "f2" / "kernel.csv").read_text().splitlines()) == 1 + 4 * 5


class TestTimeExperiments:
    def test_cond_time_columns(self, tmp_path):
        out = tmp_path / "ct"
        assert (
            run(["cond-time", "--lambda", "1.5", "--n", "100", "--epsilon", "0.05",
                 "--out", str(out)]) == 0
        )
        lines = (out / "t.csv").read_text().splitlines()
        assert lines[0] == "x,t,t_over_log1p"
        assert lines[1] == "0,0,"  # ratio undefined at x=0

    def test_uncond_time_sweep(self, tmp_path):
        out = tmp_path / "T"
        assert run(["uncond-time", "--lambda", "2", "--n", "10,20", "--out", str(out)]) == 0
        lines = (out / "T.csv").read_text().splitlines()
        assert lines[0] == "n,x,expected_T0,ln_expected_T0"
        assert len(lines) == 3
        assert lines[1].startswith("10,5,")  # default start is ceil(n/2)

    def test_uncond_time_start_out_of_range(self, tmp_path, capsys):
        for x0 in ("0", "21"):
            out = tmp_path / f"T{x0}"
            assert run(["uncond-time", "--lambda", "2", "--n", "20", "--x0", x0,
                        "--out", str(out)]) == 2
            assert "--x0" in capsys.readouterr().err
            assert not (out / "T.csv").exists()

    @pytest.mark.parametrize(
        "sweep",
        [["--n", "300,20", "--x0", "30"], ["--n", "20,300,401"], ["--n", "20,0"]],
    )
    def test_uncond_time_checks_whole_sweep_before_solving(self, tmp_path, monkeypatch, sweep):
        solves = []

        def counted(params):
            solves.append(params.n)
            return unconditional_expected_extinction(params)

        monkeypatch.setattr(cli, "unconditional_expected_extinction", counted)
        out = tmp_path / "T"
        assert run(["uncond-time", "--lambda", "2", *sweep, "--out", str(out)]) == 2
        assert solves == []
        assert not out.exists()

    def test_occupation(self, tmp_path):
        out = tmp_path / "occ"
        code = run(
            ["occupation", "--lambda", "1.5", "--n", "100", "--epsilon", "0.05",
             "--delta", "0.1", "--out", str(out)]
        )
        assert code == 0
        lines = (out / "h_occ.csv").read_text().splitlines()
        assert lines[0] == "x,expected_band_time"
        assert lines[1] == "0,0"


class TestStochasticExperiments:
    def test_mc_hitting_output(self, tmp_path):
        out = tmp_path / "mc"
        code = run(
            ["mc-hitting", "--lambda", "2", "--n", "50", "--u", "10", "--x0", "3",
             "--trials", "2000", "--seed", "42", "--out", str(out)]
        )
        assert code == 0
        lines = (out / "est.csv").read_text().splitlines()
        assert lines[0] == "estimate,std_error,trials,seed"
        assert lines[1].endswith(",2000,42")

    def test_seed_mandatory(self, tmp_path):
        code = run(
            ["mc-hitting", "--lambda", "2", "--n", "50", "--u", "10", "--x0", "3",
             "--trials", "100", "--out", str(tmp_path / "x")]
        )
        assert code == 2

    def test_worker_count_invisible_in_output(self, tmp_path):
        outs = []
        for i, workers in enumerate(("1", "3")):
            out = tmp_path / f"w{i}"
            run(
                ["mc-hitting", "--lambda", "2", "--n", "50", "--u", "10", "--x0", "3",
                 "--trials", "3000", "--seed", "11", "--workers", workers, "--out", str(out)]
            )
            outs.append((out / "est.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_mc_cond_path(self, tmp_path):
        out = tmp_path / "cp"
        code = run(
            ["mc-cond-path", "--lambda", "1.5", "--n", "100", "--epsilon", "0.05",
             "--x0", "5", "--trials", "2000", "--seed", "9", "--out", str(out)]
        )
        assert code == 0
        estimate = float((out / "est.csv").read_text().splitlines()[1].split(",")[0])
        assert estimate >= 1.0

    def test_equivalence_complete_graph(self, tmp_path):
        out = tmp_path / "eq"
        code = run(
            ["equivalence", "--lambda", "2", "--n", "30", "--x0", "10",
             "--trials", "4000", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        lines = (out / "tv.csv").read_text().splitlines()
        assert lines[0] == "n,lambda,x,trials,tv_distance"
        assert lines[1].startswith("30,2,10,4000,")

    def test_equivalence_named_graph(self, tmp_path):
        out = tmp_path / "eq2"
        code = run(
            ["equivalence", "--lambda", "2", "--graph", "complete:20", "--x0", "5",
             "--trials", "2000", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        assert (out / "tv.csv").read_text().splitlines()[1].startswith("20,")


    def test_equivalence_rejects_zero_trials(self, tmp_path):
        out = tmp_path / "eq"
        assert run(["equivalence", "--lambda", "2", "--n", "30", "--x0", "10", "--trials", "0",
                    "--seed", "1", "--out", str(out)]) == 2
        assert not (out / "tv.csv").exists()


    def test_mc_summaries_report_steps_and_rate(self, tmp_path):
        runs = {
            "mc-hitting": ["--n", "50", "--u", "10", "--x0", "3"],
            "mc-cond-path": ["--n", "100", "--epsilon", "0.05", "--x0", "5"],
        }
        for experiment, flags in runs.items():
            out = tmp_path / experiment
            argv = [experiment, "--lambda", "2", *flags, "--trials", "500", "--seed", "4"]
            assert run(argv + ["--out", str(out)]) == 0
            summary = json.loads((out / "summary.json").read_text())
            assert 500 <= summary["steps_total"] <= 500 * summary["steps_max"]
            assert summary["trials_per_s"] > 0


class TestFlags:
    def test_unused_flags_are_rejected(self, tmp_path, capsys):
        cases = [
            ["bounds-report", "--lambda", "2", "--n", "100", "--epsilon", "0.05",
             "--u", "7", "--mode", "low"],
            ["profile", "--lambda", "2", "--n", "50", "--u", "10",
             "--trials", "5", "--delta", "3", "--seed", "9"],
        ]
        for i, argv in enumerate(cases):
            out = tmp_path / str(i)
            with pytest.raises(SystemExit) as exc:
                run(argv + ["--out", str(out)])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
            assert not out.exists()

    #: flag -> (a non-default value, the ExperimentConfig field it fills, the field's value)
    NON_DEFAULT = {
        "--lambda": ("2.5", "lam", 2.5),
        "--n": ("40", "n", 40),
        "--epsilon": ("0.03", "epsilon", 0.03),
        "--delta": ("0.2", "delta", 0.2),
        "--alpha": ("0.4", "alpha", 0.4),
        "--x0": ("7", "x0", 7),
        "--u": ("9", "u", 9),
        "--mode": ("custom", "mode", "custom"),
        "--trials": ("123", "trials", 123),
        "--seed": ("5", "seed", 5),
        "--graph": ("complete:8", "graph", "complete:8"),
        "--self-loops": ("0", "self_loops", False),
        "--workers": ("3", "workers", 3),
        "--cache": ("d", "cache_dir", Path("d")),
    }

    @pytest.mark.parametrize("experiment", list(cli._EXPERIMENTS))
    def test_every_flag_fills_its_config_field(self, experiment):
        argv = [experiment, "--out", "o"]
        want = dataclasses.asdict(ExperimentConfig(experiment=experiment, out_dir=Path("o")))
        for flag in cli._FLAGS[experiment]:
            text, field, value = self.NON_DEFAULT[flag]
            if experiment == "uncond-time" and flag == "--n":
                text, field, value = "20,30", "n_sweep", (20, 30)
            assert want[field] != value
            argv += [flag, text]
            want[field] = value
        config = cli._config_from_args(cli._build_parser().parse_args(argv))
        assert dataclasses.asdict(config) == want
        assert type(config.self_loops) is bool

    def test_unset_flags_keep_config_defaults(self):
        for argv in (["uncond-time", "--out", "o"], ["equivalence", "--out", "o"]):
            config = cli._config_from_args(cli._build_parser().parse_args(argv))
            assert config == ExperimentConfig(experiment=argv[0], out_dir=Path("o"))

    def test_bad_flag_values_exit_2_before_output(self, tmp_path, capsys):
        cases = [
            (["uncond-time", "--lambda", "2", "--n", "20,x"], "T.csv", "20,x"),
            (["uncond-time", "--lambda", "2"], "T.csv", "--n"),
            (["equivalence", "--lambda", "2", "--n", "30", "--x0", "10", "--trials", "10",
              "--seed", "1", "--self-loops", "2"], "tv.csv", "--self-loops"),
        ]
        for i, (argv, csv, named) in enumerate(cases):
            out = tmp_path / str(i)
            assert exit_code(argv + ["--out", str(out)]) == 2
            assert named in capsys.readouterr().err
            assert not (out / csv).exists()

    def test_readme_commands_parse(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        commands = [
            line.split("#")[0].split()[1:]
            for line in readme.read_text().splitlines()
            if line.startswith("barw ")
        ]
        assert len(commands) == len(cli._EXPERIMENTS)
        for argv in commands:
            args = cli._build_parser().parse_args(argv)
            assert cli._config_from_args(args).experiment == argv[0]


class TestSummaryKeys:
    THRESHOLD = ["--lambda", "1.5", "--n", "60", "--epsilon", "0.05"]
    PROFILE = {"constants", "residual", "solve", "files", "experiment", "elapsed_seconds"}
    ESTIMATE = {"constants", "steps_total", "steps_max", "trials_per_s", "files", "experiment",
                "elapsed_seconds"}
    BOUNDS = {"eq", "q", "q1", "q2", "theta", "kappa_n"}
    RUNS = {
        "profile": (["--lambda", "2", "--n", "50", "--u", "10"],
                    PROFILE | {"method"}, {"eq", "q", "kappa_n", "u"}),
        "figure1": (THRESHOLD, PROFILE, BOUNDS | {"u"}),
        "figure2": (THRESHOLD, PROFILE, BOUNDS | {"u"}),
        "cond-time": (THRESHOLD, PROFILE, BOUNDS | {"u"}),
        "uncond-time": (["--lambda", "2", "--n", "10,20"],
                        {"constants", "files", "experiment", "elapsed_seconds"}, {"q"}),
        "occupation": ([*THRESHOLD, "--delta", "0.1"], PROFILE | {"delta"}, BOUNDS | {"u"}),
        "mc-hitting": (["--lambda", "2", "--n", "50", "--u", "10", "--x0", "3",
                        "--trials", "200", "--seed", "1"],
                       ESTIMATE, {"eq", "q", "kappa_n", "u"}),
        "mc-cond-path": ([*THRESHOLD, "--x0", "5", "--trials", "200", "--seed", "1"],
                         ESTIMATE | {"solve"}, BOUNDS | {"u"}),
        "equivalence": (["--lambda", "2", "--n", "20", "--x0", "5", "--trials", "200",
                         "--seed", "1"],
                        {"constants", "files", "experiment", "elapsed_seconds"},
                        {"eq", "q", "kappa_n"}),
        "bounds-report": (["--lambda", "2", "--n", "200", "--epsilon", "0.05"],
                          {"constants", "alpha", "gamma", "checks", "solve", "files",
                           "experiment", "elapsed_seconds"},
                          BOUNDS),
    }

    def test_every_experiment_is_pinned(self):
        assert set(self.RUNS) == set(cli._EXPERIMENTS)

    @pytest.mark.parametrize("experiment", list(RUNS))
    def test_summary_key_set(self, tmp_path, experiment):
        flags, keys, constants = self.RUNS[experiment]
        assert run([experiment, *flags, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert set(summary) == keys
        assert set(summary["constants"]) == constants
        if experiment == "bounds-report":
            solves = list(summary["solve"].values())
        else:
            solves = [summary["solve"]] if "solve" in summary else []
        for solve in solves:
            assert set(solve) == {"u", "m", "method", "residual"}


class TestCsvWriter:
    @pytest.mark.parametrize("chunk", [cli.CSV_CHUNK, 3])
    def test_column_formatting_matches_per_cell(self, tmp_path, monkeypatch, chunk):
        # with 3-row chunks column d mixes types in its first chunk only
        monkeypatch.setattr(cli, "CSV_CHUNK", chunk)
        floats = [0.1, -0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-310, 1e300, -2.5, 1.0]
        ints = list(range(-5, len(floats) - 5))
        columns = [
            ints,
            floats,
            [np.float64(v) for v in floats],
            [v if i > 1 else "" for i, v in enumerate(floats)],
            [np.int64(v) for v in ints],
            [""] * len(floats),
            [v if i % 2 else i for i, v in enumerate(floats)],
        ]
        rows = list(zip(*columns))
        header = ["a", "b", "c", "d", "e", "f", "g"]
        cli._write_csv(tmp_path / "t.csv", header, rows)
        want = [",".join(header)] + [",".join(cli._cell(v) for v in row) for row in rows]
        assert (tmp_path / "t.csv").read_bytes() == ("\n".join(want) + "\n").encode()


class TestBoundsReport:
    def test_report_written(self, tmp_path):
        out = tmp_path / "br"
        code = run(
            ["bounds-report", "--lambda", "2", "--n", "200", "--epsilon", "0.05",
             "--out", str(out)]
        )
        assert code == 0
        text = (out / "report.txt").read_text()
        for name in ("envelope", "ratio-beta", "geometric-upper", "ratio-kappa", "ratio-gamma"):
            assert f"check: {name}" in text
        summary = json.loads((out / "summary.json").read_text())
        assert all(summary["checks"].values())
        params = ModelParams(2.0, 200)
        for mode in ("low", "window"):
            u = threshold_u(params, 0.05, mode)
            solve = summary["solve"][mode]
            assert (solve["u"], solve["m"]) == (u, u - 1)
            assert solve["method"] == hitting_profile(params, u).method
            assert 0.0 <= solve["residual"] <= 1e-8


class TestCache:
    def test_lookup_miss_on_empty_dir(self, tmp_path):
        assert cache_lookup(tmp_path, 2.0, 50, 10) is None

    def test_store_then_lookup(self, tmp_path):
        profile = hitting_profile(ModelParams(2.0, 50), 10)
        cache_store(tmp_path, profile)
        back = cache_lookup(tmp_path, 2.0, 50, 10)
        assert back is not None
        assert back.log_phi.tobytes() == profile.log_phi.tobytes()

    def test_tampered_key_is_miss(self, tmp_path):
        profile = hitting_profile(ModelParams(2.0, 50), 10)
        path = cache_store(tmp_path, profile)
        text = path.read_text().replace("lambda=2", "lambda=2.5")
        path.write_text(text)
        assert cache_lookup(tmp_path, 2.0, 50, 10) is None

    def test_out_of_contract_residual_is_miss(self, tmp_path):
        profile = hitting_profile(ModelParams(2.0, 50), 10)
        path = cache_store(tmp_path, profile)
        lines = path.read_text().splitlines()
        lines[4] = "residual=0.001"
        path.write_text("\n".join(lines) + "\n")
        assert cache_lookup(tmp_path, 2.0, 50, 10) is None

    def test_interrupted_store_leaves_no_file(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        profile = hitting_profile(ModelParams(2.0, 50), 10)
        write_text = Path.write_text

        def write_half_then_fail(path, text, *args, **kwargs):
            write_text(path, text[: len(text) // 2], *args, **kwargs)
            raise OSError(errno.ENOSPC, "no space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(Path, "write_text", write_half_then_fail)
            with pytest.raises(OSError):
                cache_store(cache, profile)
        assert not cache_path(cache, 2.0, 50, 10).exists()
        assert list(cache.iterdir()) == []
        args = ["profile", "--lambda", "2", "--n", "50", "--u", "10", "--cache", str(cache)]
        assert run(args + ["--out", str(tmp_path / "a")]) == 0
        back = cache_lookup(cache, 2.0, 50, 10)
        assert back is not None
        assert back.log_phi.tobytes() == profile.log_phi.tobytes()
        assert [p.name for p in cache.iterdir()] == [cache_path(cache, 2.0, 50, 10).name]

    def test_run_uses_cache_and_stays_identical(self, tmp_path):
        cache = tmp_path / "cache"
        args = ["profile", "--lambda", "2", "--n", "50", "--u", "10", "--cache", str(cache)]
        run(args + ["--out", str(tmp_path / "a")])
        assert cache_path(cache, 2.0, 50, 10).exists()
        run(args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "phi.csv").read_bytes() == (
            tmp_path / "b" / "phi.csv"
        ).read_bytes()

    def test_summary_names_the_solve_and_cache_hits(self, tmp_path):
        cache = tmp_path / "cache"
        args = ["figure1", "--lambda", "2", "--n", "50", "--u", "10", "--cache", str(cache)]
        solves = []
        for name in ("a", "b"):
            run(args + ["--out", str(tmp_path / name)])
            solves.append(json.loads((tmp_path / name / "summary.json").read_text())["solve"])
        residual = hitting_profile(ModelParams(2.0, 50), 10).residual
        assert solves[0] == {"u": 10, "m": 9, "method": "dense-logdomain", "residual": residual}
        assert solves[1] == dict(solves[0], method="cached")

    def test_run_refuses_mismatched_cache_file(self, tmp_path):
        cache = tmp_path / "cache"
        args = ["profile", "--lambda", "2", "--n", "50", "--u", "10", "--cache", str(cache)]
        run(args + ["--out", str(tmp_path / "a")])
        path = cache_path(cache, 2.0, 50, 10)
        lines = path.read_text().splitlines()
        lines[4] = "residual=0.001"
        path.write_text("\n".join(lines) + "\n")
        assert run(args + ["--out", str(tmp_path / "b")]) == 2

    def test_version_one_cache_file_is_refused(self, tmp_path, capsys):
        # version 1 was written while u > eq could still take the native solve,
        # off by 7.5 in log phi here; such a file must not be reused as "cached"
        cache = tmp_path / "cache"
        path = cache_store(cache, hitting_profile(ModelParams(8.0, 300), 300))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(["version=1"] + lines[1:]) + "\n")
        code = run(
            ["profile", "--lambda", "8", "--n", "300", "--u", "300",
             "--cache", str(cache), "--out", str(tmp_path / "b")]
        )
        assert code == 2
        assert path.name in capsys.readouterr().err
        assert not (tmp_path / "b" / "phi.csv").exists()

    def test_corrupted_cache_is_parse_error_naming_file(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        profile = hitting_profile(ModelParams(2.0, 50), 10)
        path = cache_store(cache, profile)
        path.write_text("garbage\n")
        code = run(
            ["profile", "--lambda", "2", "--n", "50", "--u", "10",
             "--cache", str(cache), "--out", str(tmp_path / "b")]
        )
        assert code == 2
        assert path.name in capsys.readouterr().err


class TestExitCodes:
    def test_invalid_config(self, tmp_path):
        assert run(["profile", "--n", "50", "--u", "10", "--out", str(tmp_path / "x")]) == 2

    def test_bad_lambda(self, tmp_path):
        assert (
            run(["profile", "--lambda", "0.5", "--n", "50", "--u", "10",
                 "--out", str(tmp_path / "x")]) == 2
        )

    def test_solver_failure_maps_to_three(self, tmp_path, monkeypatch):
        def boom(params, u):
            raise SolverError("synthetic failure", residual=1.0)

        monkeypatch.setattr(cli, "hitting_profile", boom)
        assert (
            run(["profile", "--lambda", "2", "--n", "50", "--u", "10",
                 "--out", str(tmp_path / "x")]) == 3
        )

    def test_unconditional_pivot_failure_maps_to_three(self, tmp_path):
        # the native elimination meets a nonpositive pivot at lambda=3, n=80
        assert run(["uncond-time", "--lambda", "3", "--n", "80", "--out", str(tmp_path / "x")]) == 3

    def test_truncation_maps_to_four(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise TruncationError("synthetic cap hit")

        monkeypatch.setattr(cli, "estimate_hitting_prob", boom)
        code = run(
            ["mc-hitting", "--lambda", "2", "--n", "50", "--u", "10", "--x0", "3",
             "--trials", "10", "--seed", "1", "--out", str(tmp_path / "x")]
        )
        assert code == 4

    def test_bad_epsilon_with_explicit_u_writes_nothing(self, tmp_path):
        # the constants (and their --epsilon check) come before the solve
        out = tmp_path / "never"
        argv = ["profile", "--lambda", "2", "--n", "50", "--u", "10", "--epsilon", "-1"]
        assert run(argv + ["--out", str(out)]) == 2
        assert not (out / "phi.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["mc-hitting", "--lambda", "2", "--n", "50", "--u", "10", "--trials", "10",
             "--seed", "1"],
            ["figure1", "--lambda", "1.5", "--n", "100", "--epsilon", "0.9"],
            ["profile", "--lambda", "0.5", "--n", "50", "--u", "10"],
        ],
        ids=["no-x0", "bad-epsilon", "bad-lambda"],
    )
    def test_refused_run_creates_no_out_directory(self, tmp_path, argv):
        out = tmp_path / "never"
        assert run(argv + ["--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["mc-hitting", "--lambda", "2", "--n", "50", "--u", "10", "--x0", "3"],
            ["mc-cond-path", "--lambda", "1.5", "--n", "300", "--epsilon", "0.05", "--x0", "20"],
            ["equivalence", "--lambda", "2", "--n", "30", "--x0", "10"],
        ],
        ids=["mc-hitting", "mc-cond-path", "equivalence"],
    )
    def test_out_of_range_seed_exits_2_before_any_solve(self, tmp_path, monkeypatch, argv, seed):
        solves = []
        monkeypatch.setattr(cli, "hitting_profile", lambda *args: solves.append(args))
        out = tmp_path / "never"
        assert run(argv + ["--trials", "100", "--seed", seed, "--out", str(out)]) == 2
        assert solves == []
        assert not out.exists()

    def test_validation_precedes_output(self, tmp_path):
        out = tmp_path / "never"
        assert (
            run(["mc-hitting", "--lambda", "2", "--n", "50", "--u", "10", "--x0", "99",
                 "--trials", "10", "--seed", "1", "--out", str(out)]) == 2
        )
        assert not (out / "est.csv").exists()


class TestRunExperimentApi:
    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(experiment="nope", out_dir=tmp_path))

    def test_workers_validated(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="profile", out_dir=tmp_path, lam=2.0, n=50, u=10, workers=0
        )
        with pytest.raises(ValueError):
            run_experiment(cfg)

    def test_summary_returned_and_written(self, tmp_path):
        cfg = ExperimentConfig(experiment="profile", out_dir=tmp_path, lam=2.0, n=50, u=10)
        summary = run_experiment(cfg)
        on_disk = json.loads((tmp_path / "summary.json").read_text())
        assert summary["experiment"] == "profile"
        assert on_disk["constants"] == summary["constants"]
