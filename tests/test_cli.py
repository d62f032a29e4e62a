import dataclasses
import errno
import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import barw.bounds as bounds
import barw.cli as cli
import barw.simulate as simulate
import barw.solver as solver
from barw import (
    ModelParams,
    ProfileFormatError,
    SolverError,
    TruncationError,
    equilibrium,
    gw_extinction_prob,
    hitting_profile,
    threshold_u,
    tilted_kernel,
    unconditional_expected_extinction,
)
from barw.cli import ExperimentConfig, cache_lookup, cache_path, cache_store, run_experiment


def run(argv):
    return cli.main(argv)


def edit_record(path, **fields):
    """Overwrite fields of the cache record at path."""
    record = json.loads(path.read_text())
    record.update(fields)
    path.write_text(json.dumps(record))


def perturb_log_phi(path, by=0.5):
    """Move the last log phi entry of the cache record at path by `by`."""
    log_phi = json.loads(path.read_text())["log_phi"]
    edit_record(path, log_phi=[*log_phi[:-1], log_phi[-1] + by])


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
        assert run(["profile", "--lambda", "2", "--n", "100", "--u", "17",
                    "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["constants"]["u"] == 17

    def test_custom_requires_u(self, tmp_path, capsys):
        # profile has no default mode: without --u it needs --mode
        out = tmp_path / "x"
        assert run(["profile", "--lambda", "2", "--n", "100", "--epsilon", "0.05",
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--u" in err and "--mode" in err
        assert not out.exists()

    def test_custom_range_check(self, tmp_path, capsys):
        # every experiment that takes --u refuses one outside 1..n before any output
        out, cache = tmp_path / "x", tmp_path / "c"
        trials = ["--x0", "3", "--trials", "10", "--seed", "1"]
        cases = [
            ("profile", []),
            ("figure1", []),
            ("figure2", []),
            ("cond-time", []),
            ("occupation", ["--delta", "0.1"]),
            ("mc-hitting", trials),
            ("mc-cond-path", trials),
        ]
        cases += [(e, [*flags, "--cache", str(cache)]) for e, flags in cases if e != "mc-hitting"]
        for experiment, flags in cases:
            for u in ("0", "101"):
                argv = [experiment, "--lambda", "2", "--n", "100", "--u", u, *flags]
                assert run(argv + ["--out", str(out)]) == 2, argv
                assert f"threshold {u} outside [1, 100]" in capsys.readouterr().err
                assert not out.exists() and not cache.exists()

    def test_derived_mode_requires_epsilon(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run(["figure1", "--lambda", "2", "--n", "100", "--mode", "window",
                    "--out", str(out)]) == 2
        assert "mode=window requires --epsilon" in capsys.readouterr().err
        assert not out.exists()

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

    def test_rerun_identical_output(self, tmp_path):
        outs = []
        for i in range(2):
            out = tmp_path / f"r{i}"
            run(
                ["mc-hitting", "--lambda", "2", "--n", "50", "--u", "10", "--x0", "3",
                 "--trials", "3000", "--seed", "11", "--out", str(out)]
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

    @staticmethod
    def cycle4(tmp_path) -> Path:
        """The README's example graph file, the 4-cycle without self-moves."""
        path = tmp_path / "cycle4.txt"
        path.write_text("vertices=4 self_loops=0\n0 1\n1 2\n2 3\n3 0\n")
        return path

    def test_equivalence_graph_file(self, tmp_path):
        out = tmp_path / "eq2"
        code = run(
            ["equivalence", "--lambda", "2", "--graph", str(self.cycle4(tmp_path)), "--x0", "2",
             "--trials", "2000", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        assert (out / "tv.csv").read_text().splitlines()[1].startswith("4,2,2,2000,")

    @pytest.mark.parametrize("flag", [["--n", "30"], ["--self-loops", "0"]],
                             ids=["n", "self-loops"])
    def test_equivalence_graph_file_refuses_what_it_fixes(self, tmp_path, capsys, flag):
        # the file's header sets n and the self-move convention
        out = tmp_path / "eq"
        argv = ["equivalence", "--lambda", "2", "--graph", str(self.cycle4(tmp_path)), *flag,
                "--x0", "2", "--trials", "200", "--seed", "3", "--out", str(out)]
        assert run(argv) == 2
        assert flag[0] in capsys.readouterr().err
        assert not out.exists()

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


@st.composite
def graph_file_texts(draw):
    """Graph files on at most 12 vertices, each with some subset (maybe
    none) of the faults the format forbids."""
    k = draw(st.integers(-2, 12))
    faults = draw(st.sets(st.sampled_from(["header", "range", "self", "repeat", "junk"])))
    head = f"vertices={k} self_loops={draw(st.sampled_from(['0', '1']))}"
    if "header" in faults:  # a bad flag, a missing key or an extra one
        loops = draw(st.sampled_from(["0", "1", "2", "-1", "x", ""]))
        head = draw(st.sampled_from([f"vertices={k} self_loops={loops}", f"vertices={k}",
                                     f"self_loops={loops}", f"{head} extra=1"]))
    # a path through every vertex, so that most fault-free files run, plus random edges
    inside = st.integers(0, max(k - 1, 0))
    edges = {(a, a + 1) for a in range(k - 1)} | set(draw(st.lists(st.tuples(inside, inside))))
    pairs = sorted({(min(e), max(e)) for e in edges if e[0] != e[1]})
    anywhere = st.integers(-3, 14)
    if "range" in faults:  # an endpoint below or above 0..k-1
        outside = st.integers(-3, -1) | st.integers(max(k, 0), 14)
        pairs += draw(st.lists(st.tuples(outside, anywhere) | st.tuples(anywhere, outside),
                               min_size=1, max_size=2))
    if "self" in faults:
        pairs += [(a, a) for a in draw(st.lists(inside | anywhere, min_size=1, max_size=2))]
    if "repeat" in faults and pairs:  # an edge again, in either order
        repeats = draw(st.lists(st.tuples(st.sampled_from(pairs), st.booleans()),
                                min_size=1, max_size=2))
        pairs += [pair[::-1] if flip else pair for pair, flip in repeats]
    lines = [f"{a} {b}" for a, b in pairs] + ["", "  "]
    if "junk" in faults:  # non-integer tokens, or 1 or 3 of them
        lines += draw(st.lists(st.sampled_from(["3", "0 1 2", "0 x", "1.5 2", "a"]),
                               min_size=1, max_size=2))
    return "\n".join([head, *draw(st.permutations(lines))]) + "\n"


class TestGraphFiles:
    """`equivalence --graph FILE` runs a good file and refuses a bad one with exit 2."""

    @staticmethod
    def argv(graph, out):
        return ["equivalence", "--lambda", "2", "--graph", str(graph), "--x0", "0",
                "--trials", "8", "--seed", "1", "--out", str(out)]

    @pytest.fixture(scope="class")
    def graph_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("graphs")

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(graph_file_texts())
    def test_any_file_is_run_or_refused_before_output(self, graph_dir, text):
        i = len(list(graph_dir.iterdir()))
        graph, out = graph_dir / f"g{i}.txt", graph_dir / f"out{i}"
        graph.write_text(text)
        code = run(self.argv(graph, out))
        assert code in (0, 2)
        assert (out / "tv.csv").exists() if code == 0 else not out.exists()

    @pytest.mark.parametrize(
        "text,named",
        [
            ("vertices=4 self_loops=0\n0 1\n1 2\n2 3\n1 7\n", "'1 7'"),
            ("vertices=4 self_loops=0\n0 1\n1 2\n2 3\n3 -1\n", "'3 -1'"),
            ("vertices=4 self_loops=2\n0 1\n1 2\n2 3\n3 0\n", "bad header"),
            ("vertices=4 self_loops=1\n0 1\n1 2\n2 2\n", "vertex 2 lists itself"),
            ("vertices=4 self_loops=0\n0 1\n1 2\n2 3\n1 0\n", "duplicate neighbors"),
        ],
        ids=["endpoint-above", "endpoint-negative", "self-loops-2", "self-edge", "duplicate-edge"],
    )
    def test_bad_file_is_exit_2_naming_the_fault(self, tmp_path, capsys, text, named):
        graph, out = tmp_path / "g.txt", tmp_path / "out"
        graph.write_text(text)
        assert run(self.argv(graph, out)) == 2
        err = capsys.readouterr().err
        assert str(graph) in err and named in err
        assert not out.exists()

    def test_undecodable_file_is_exit_2_naming_it(self, tmp_path, capsys):
        graph, out = tmp_path / "g.txt", tmp_path / "out"
        graph.write_bytes(b"vertices=4 self_loops=0\n0 1\n1 2\n2 \xff\n")
        assert run(self.argv(graph, out)) == 2
        err = capsys.readouterr().err
        assert f"{graph}: " in err and "can't decode byte 0xff" in err
        assert not out.exists()


#: the flags besides --lambda, --n and --out of each run in TestFloatFlags, and
#: whether it also takes the drawn --epsilon.  No Monte Carlo run takes one: an
#: eps near 1 puts u far above eq, where a trial can live for minutes.
_FLOAT_RUNS = {
    "profile": (["--u", "10"], True),
    "figure1": ([], True),
    "bounds-report": ([], True),
    "uncond-time": ([], False),
    "equivalence": (["--x0", "3", "--trials", "20", "--seed", "1"], False),
    "mc-hitting": (["--u", "10", "--x0", "3", "--trials", "20", "--seed", "1"], False),
}


class TestFloatFlags:
    """Any float for --lambda and --epsilon, NaN and the infinities too, ends in
    exit 0, 2, 3 or 4, and an exit 2 leaves no --out directory."""

    @pytest.fixture(scope="class")
    def out_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("floats")

    # the second branch of each float draw reaches the solves and the samplers
    @settings(derandomize=True, deadline=None, max_examples=150, database=None)
    @given(
        st.sampled_from(sorted(_FLOAT_RUNS)),
        st.floats() | st.floats(1.0, 30.0),
        st.floats() | st.floats(0.0, 1.0),
        st.integers(1, 50),
    )
    @example("profile", math.inf, 0.05, 50)
    @example("figure1", 746.0, 0.001, 50)
    @example("bounds-report", 1e308, 0.001, 50)
    @example("mc-hitting", 1e308, 0.05, 50)
    def test_any_float_exits_0_2_3_or_4(self, out_dir, experiment, lam, epsilon, n):
        flags, takes_epsilon = _FLOAT_RUNS[experiment]
        out = out_dir / f"out{len(list(out_dir.iterdir()))}"
        # the = form: argparse reads a lone "-inf" or "-1e-05" as a flag
        argv = [experiment, f"--lambda={lam!r}", "--n", str(n), *flags, "--out", str(out)]
        if takes_epsilon:
            argv.append(f"--epsilon={epsilon!r}")
        code = run(argv)
        assert code in (0, 2, 3, 4)
        assert code != 2 or not out.exists()


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
        "--mode": ("low", "mode", "low"),
        "--trials": ("123", "trials", 123),
        "--seed": ("5", "seed", 5),
        "--graph": ("g.txt", "graph", "g.txt"),
        "--self-loops": ("0", "self_loops", False),
        "--cache": ("d", "cache_dir", Path("d")),
    }

    @pytest.mark.parametrize("experiment", list(cli._EXPERIMENTS))
    def test_every_flag_fills_its_config_field(self, experiment):
        argv = [experiment, "--out", "o"]
        want = dataclasses.asdict(ExperimentConfig(experiment=experiment, out_dir=Path("o")))
        _, _, flags = cli._EXPERIMENTS[experiment]
        for flag in flags:
            text, field, value = self.NON_DEFAULT[flag]
            if experiment == "uncond-time" and flag == "--n":
                text, field, value = "20,30", "n_sweep", (20, 30)
            assert want[field] != value
            argv += [flag, text]
            want[field] = value
        config = cli._config_from_args(cli._build_parser().parse_args(argv))
        assert dataclasses.asdict(config) == want
        if "--self-loops" in flags:
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

    def test_removed_spellings_exit_2_before_output(self, tmp_path):
        trials = ["--x0", "10", "--trials", "100", "--seed", "1"]
        cases = [
            ["mc-hitting", "--lambda", "2", "--n", "50", "--u", "10", *trials, "--workers", "1"],
            ["mc-cond-path", "--lambda", "1.5", "--n", "300", "--epsilon", "0.05", *trials,
             "--workers", "1"],
            ["equivalence", "--lambda", "2", "--n", "30", *trials, "--workers", "1"],
            ["profile", "--lambda", "2", "--n", "100", "--mode", "custom", "--u", "17"],
            ["equivalence", "--lambda", "2", "--graph", "complete:20", *trials],
        ]
        for i, argv in enumerate(cases):
            out = tmp_path / str(i)
            assert exit_code(argv + ["--out", str(out)]) == 2, argv
            assert not out.exists()

    def test_readme_flag_table_matches_flags(self):
        # the table lists what each subcommand takes beyond --lambda, --n and --out
        readme = Path(__file__).resolve().parents[1] / "README.md"
        common = ("--lambda", "--n")
        table = {}
        for line in readme.read_text().splitlines():
            row = re.fullmatch(r"\| (`[a-z0-9-]+`(?:, `[a-z0-9-]+`)*) \| (.+) \|", line)
            if row:
                flags = [f for f in re.findall(r"--[a-z0-9-]+", row[2]) if f not in common]
                for name in re.findall(r"`([a-z0-9-]+)`", row[1]):
                    table[name] = flags
        want = {name: [f for f in flags if f not in common]
                for name, (_, _, flags) in cli._EXPERIMENTS.items()}
        assert table == want

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
    BOUNDS = {"eq", "q", "q1", "q2", "theta", "kappa_n", "log_kappa_n"}
    RUNS = {
        "profile": (["--lambda", "2", "--n", "50", "--u", "10"],
                    PROFILE, {"eq", "q", "kappa_n", "log_kappa_n", "u"}),
        "figure1": (THRESHOLD, PROFILE, BOUNDS | {"u"}),
        "figure2": (THRESHOLD, PROFILE, BOUNDS | {"u"}),
        "cond-time": (THRESHOLD, PROFILE, BOUNDS | {"u"}),
        "uncond-time": (["--lambda", "2", "--n", "10,20"],
                        {"constants", "files", "experiment", "elapsed_seconds"}, {"q"}),
        "occupation": ([*THRESHOLD, "--delta", "0.1"], PROFILE | {"delta"}, BOUNDS | {"u"}),
        "mc-hitting": (["--lambda", "2", "--n", "50", "--u", "10", "--x0", "3",
                        "--trials", "200", "--seed", "1"],
                       ESTIMATE, {"eq", "q", "kappa_n", "log_kappa_n", "u"}),
        "mc-cond-path": ([*THRESHOLD, "--x0", "5", "--trials", "200", "--seed", "1"],
                         ESTIMATE | {"residual", "solve"}, BOUNDS | {"u"}),
        "equivalence": (["--lambda", "2", "--n", "20", "--x0", "5", "--trials", "200",
                         "--seed", "1"],
                        {"constants", "files", "experiment", "elapsed_seconds"},
                        {"eq", "q", "kappa_n", "log_kappa_n"}),
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
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*summary["files"], "summary.json"])
        assert set(summary["constants"]) == constants
        if experiment == "bounds-report":
            solves = list(summary["solve"].values())
        else:
            solves = [summary["solve"]] if "solve" in summary else []
        for solve in solves:
            assert set(solve) == {"u", "m", "method", "residual"}


def _per_cell(header, columns):
    """The CSV text `_cell` gives cell by cell: what `_write_csv` must write."""
    lines = [",".join(header)] + [",".join(cli._cell(v) for v in row) for row in zip(*columns)]
    return ("\n".join(lines) + "\n").encode()


class TestCsvWriter:
    @pytest.mark.parametrize("chunk", [cli.CSV_CHUNK, 3])
    def test_column_formatting_matches_per_cell(self, tmp_path, monkeypatch, chunk):
        # 3-row chunks split the table at many boundaries, undecided rows among them
        monkeypatch.setattr(cli, "CSV_CHUNK", chunk)
        floats = [0.1, -0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-310, 1e300, -2.5, 1.0]
        # decade edges, where the digit count and the notation change, and the extremes
        floats += [9.9999999999999999e-5, 1e-4, 1e16, 1e17, -5e-324, 1.7976931348623157e308]
        powers = [float(f"1e{q}") for q in range(-323, 309)]
        floats += powers
        floats += np.nextafter(powers, 0.0).tolist() + np.nextafter(powers, math.inf).tolist()
        # the 8 doubles on each side of 10^q, where the decade and 10^17 tests decide
        for q in range(-30, 31):
            below = above = float(f"1e{q}")
            for _ in range(8):
                below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
                floats += [below, above]
        extremes = [2**63 - 1, -(2**63), 10**17 - 1, 10**17, 2**53 + 1]
        int64s = np.array((extremes + list(range(-5, len(floats))))[: len(floats)], np.int64)
        cli._write_csv(tmp_path / "t.csv", ["a", "b"], [int64s, np.array(floats)])
        assert (tmp_path / "t.csv").read_bytes() == _per_cell(["a", "b"], [int64s.tolist(), floats])
        # a column of any other dtype leaves every row to `_cell`
        columns = [int64s.astype(np.uint64), int64s % 3 == 0, int64s]
        cli._write_csv(tmp_path / "t.csv", ["a", "b", "c"], columns)
        want = _per_cell(["a", "b", "c"], [column.tolist() for column in columns])
        assert (tmp_path / "t.csv").read_bytes() == want

    def test_rows_of_mixed_cells_match_per_cell(self, tmp_path):
        ints = [2**63 - 1, -(2**63), 2**63, 2**64 - 1, 2**53 + 1, -7, 0, 10**30, -(10**30)]
        floats = [0.1, -0.0, math.nan, math.inf, 5e-324, 1e300, -2.5, 1.0, 1e17]
        columns = [
            ints,
            floats,
            [np.float64(v) for v in floats],
            [v if i > 1 else "" for i, v in enumerate(floats)],
            [np.int64(v % 2**63) for v in ints],
            [""] * len(floats),
            [np.uint64(v % 2**64) for v in ints],
            [v % 3 == 0 for v in ints],
            [np.bool_(v % 2) for v in ints],
        ]
        header = [chr(ord("a") + j) for j in range(len(columns))]
        cli._write_csv(tmp_path / "t.csv", header, columns)
        assert (tmp_path / "t.csv").read_bytes() == _per_cell(header, columns)

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(
        st.lists(st.tuples(st.floats(), st.integers(-(2**63), 2**63 - 1)), min_size=1, max_size=20)
    )
    def test_generated_floats_and_integers_match_per_cell(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        floats, ints = zip(*rows)
        cli._write_csv(path, ["v", "i"], [np.array(floats), np.array(ints, np.int64)])
        assert path.read_bytes() == _per_cell(["v", "i"], [floats, ints])

    def test_random_bit_patterns_match_per_cell(self, tmp_path):
        bits = np.random.default_rng(20261019).integers(0, 2**64, 10**5, dtype=np.uint64)
        floats = bits.view(np.float64)
        cli._write_csv(tmp_path / "t.csv", ["v"], [floats])
        assert (tmp_path / "t.csv").read_bytes() == _per_cell(["v"], [floats.tolist()])

    def test_fast_path_settles_its_cells(self):
        # the bytes would stay right with every cell sent to `_cell`, so this
        # checks that the one-pass formatter keeps settling the cells it should
        f1, f2 = ModelParams(1.5, 200), ModelParams(6.0, 200)
        log10_h = hitting_profile(f1, threshold_u(f1, 0.05, "window")).log_phi / math.log(10.0)
        rows = tilted_kernel(hitting_profile(f2, threshold_u(f2, 0.05, "window")))
        bits = np.random.default_rng(20261019).integers(0, 2**64, 10**5, dtype=np.uint64)
        floats = bits.view(np.float64)
        for values, share in [
            (rows.ravel(), 0.0),
            (log10_h, 0.0),
            (floats[np.isfinite(floats)], 0.01),
        ]:
            slots, keep, odd = cli._float_slots(values)
            assert np.count_nonzero(odd) <= share * len(values)
            settled = np.flatnonzero(~odd)
            texts = [slots[i][keep[i]].tobytes().decode() for i in settled]
            assert texts == [format(v, ".17g") for v in values[settled].tolist()]

    def test_rows_of_unequal_width_are_refused(self, tmp_path):
        # a column count other than the header's, or a short column, leaves a row of another width
        for header, columns in [
            (["a", "b"], [[1, 3], [2.0]]),
            (["a"], [[1], [2.5]]),
            (["x", "p", "q"], [np.zeros(2, np.int64), np.zeros(2)]),
        ]:
            with pytest.raises(ValueError, match="columns of lengths"):
                cli._write_csv(tmp_path / "t.csv", header, columns)
            assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("chunk", [cli.CSV_CHUNK, 3])
    def test_array_columns_match_list_columns(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(cli, "CSV_CHUNK", chunk)
        columns = [
            np.array([1, 1, 2, 2, 3, -3, 2**62, -(2**63)]),
            np.arange(8),
            np.array([0.5, 1e-300, 0.0, -0.0, math.nan, 1 / 3, 1e22, 2.0**-1074]),
        ]
        lists = [column.tolist() for column in columns]
        cli._write_csv(tmp_path / "a.csv", ["x", "y", "p"], columns)
        cli._write_csv(tmp_path / "b.csv", ["x", "y", "p"], lists)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == _per_cell(["x", "y", "p"], lists)


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

    def test_no_envelope_without_q1(self, tmp_path):
        # 1.5*exp(-1.5*eps) exceeds 1 by less than GW_MEAN_MARGIN: q1 does not exist
        out = tmp_path / "br"
        argv = ["bounds-report", "--lambda", "1.5", "--n", "2000",
                "--epsilon", "0.2703100720715096", "--out", str(out)]
        assert run(argv) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["constants"]["q1"] is None
        assert "envelope" not in summary["checks"]
        assert "check: envelope" not in (out / "report.txt").read_text()

    def test_ratio_kappa_where_kappa_n_underflows(self, tmp_path):
        # kappa_n = (1 - 500e/((e-1)*1000))^1000 underflows to 0; its log, about -1565, does not
        out = tmp_path / "br"
        argv = ["bounds-report", "--lambda", "500", "--n", "1000", "--epsilon", "0.0004",
                "--out", str(out)]
        assert run(argv) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["checks"] == dict.fromkeys(
            ["envelope", "ratio-beta", "geometric-upper", "ratio-kappa", "ratio-gamma"], True
        )
        # the low threshold is 1, so ratio-gamma has no x to check and no ratio to report
        gamma = (out / "report.txt").read_text().split("check: ratio-gamma\n")[1]
        assert "x_grid=0" in gamma and "max_ratio" not in gamma


class TestCache:
    def test_lookup_miss_on_empty_dir(self, tmp_path):
        assert cache_lookup(tmp_path, 2.0, 50, 10) is None

    def test_store_then_lookup(self, tmp_path):
        profile = hitting_profile(ModelParams(2.0, 50), 10)
        cache_store(tmp_path, profile)
        back = cache_lookup(tmp_path, 2.0, 50, 10)
        assert back is not None
        assert back.log_phi.tobytes() == profile.log_phi.tobytes()

    def test_deeply_nested_record_exits_2(self, tmp_path, capsys):
        # json.loads raises RecursionError on nesting this deep, which is a malformed record
        cache = tmp_path / "cache"
        cache.mkdir()
        path = cache_path(cache, 2.0, 50, 10)
        path.write_text("[" * 200_000 + "]" * 200_000)
        refused = path.read_bytes()
        args = ["profile", "--lambda", "2", "--n", "50", "--u", "10", "--cache", str(cache)]
        assert run(args + ["--out", str(tmp_path / "out")]) == 2
        assert f"{path}: maximum recursion depth" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert path.read_bytes() == refused

    def test_tampered_key_is_refused(self, tmp_path):
        # lambda moved by 1e-12 leaves log phi harmonic within 1e-8, so only the key check sees it
        profile = hitting_profile(ModelParams(2.0, 50), 10)
        path = cache_store(tmp_path, profile)
        edit_record(path, **{"lambda": 2.0 + 1e-12})
        with pytest.raises(ValueError, match=re.escape(str(path))) as err:
            cache_lookup(tmp_path, 2.0, 50, 10)
        assert not isinstance(err.value, ProfileFormatError)

    def test_out_of_contract_residual_is_refused(self, tmp_path):
        profile = hitting_profile(ModelParams(2.0, 50), 10)
        path = cache_store(tmp_path, profile)
        perturb_log_phi(path)
        refused = path.read_bytes()
        with pytest.raises(ProfileFormatError, match="harmonicity residual") as err:
            cache_lookup(tmp_path, 2.0, 50, 10)
        assert err.value.path == str(path)
        assert path.read_bytes() == refused

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

    def test_run_refuses_mismatched_cache_file(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        args = ["profile", "--lambda", "2", "--n", "50", "--u", "10", "--cache", str(cache)]
        run(args + ["--out", str(tmp_path / "a")])
        path = cache_path(cache, 2.0, 50, 10)
        perturb_log_phi(path)
        refused = path.read_bytes()
        capsys.readouterr()
        assert run(args + ["--out", str(tmp_path / "b")]) == 2
        assert path.name in capsys.readouterr().err
        assert path.read_bytes() == refused
        assert not (tmp_path / "b").exists()

    def test_key_is_compared_before_rows_are_built(self, tmp_path, capsys, monkeypatch):
        # checking the harmonicity of a record of n = 10^8 would build rows for 10^8 sites
        cache = tmp_path / "cache"
        args = ["profile", "--lambda", "2", "--n", "50", "--u", "10", "--cache", str(cache)]
        assert run(args + ["--out", str(tmp_path / "a")]) == 0
        edit_record(cache_path(cache, 2.0, 50, 10), n=10**8)
        built = []

        def recording_blocks(params, *args):
            built.append(params.n)
            return iter(())  # builds nothing, should the order be wrong

        monkeypatch.setattr(solver, "_log_row_blocks", recording_blocks)
        capsys.readouterr()
        started = time.perf_counter()
        assert run(args + ["--out", str(tmp_path / "b")]) == 2
        assert time.perf_counter() - started < 1.0
        assert "its key does not match the requested profile" in capsys.readouterr().err
        assert 10**8 not in built
        assert not (tmp_path / "b").exists()

    # profile's case is test_run_refuses_mismatched_cache_file
    @pytest.mark.parametrize(
        "argv",
        [
            ["figure1", "--lambda", "2", "--n", "50", "--u", "10"],
            ["cond-time", "--lambda", "2", "--n", "50", "--u", "10"],
            ["mc-cond-path", "--lambda", "2", "--n", "50", "--u", "10",
             "--x0", "3", "--trials", "50", "--seed", "1"],
            ["bounds-report", "--lambda", "2", "--n", "50", "--epsilon", "0.05"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_perturbed_profile_is_refused_before_output(self, tmp_path, capsys, argv):
        cache = tmp_path / "cache"
        assert run([*argv, "--cache", str(cache), "--out", str(tmp_path / "a")]) == 0
        stored = sorted(cache.iterdir())
        for path in stored:
            perturb_log_phi(path)
        refused = [p.read_bytes() for p in stored]
        capsys.readouterr()
        assert run([*argv, "--cache", str(cache), "--out", str(tmp_path / "b")]) == 2
        err = capsys.readouterr().err
        assert any(p.name in err for p in stored)
        assert not (tmp_path / "b").exists()
        assert [p.read_bytes() for p in stored] == refused

    def test_bounds_report_reads_both_records_before_solving(self, tmp_path, capsys, monkeypatch):
        params = ModelParams(2.0, 300)
        u_low, u_win = (threshold_u(params, 0.05, mode) for mode in ("low", "window"))
        cache = tmp_path / "cache"
        window = cache_store(cache, hitting_profile(params, u_win))
        perturb_log_phi(window)
        solve, solves = cli.hitting_profile, []
        monkeypatch.setattr(cli, "hitting_profile", lambda *args: solves.append(args) or solve(*args))
        argv = ["bounds-report", "--lambda", "2", "--n", "300", "--epsilon", "0.05",
                "--cache", str(cache), "--out", str(tmp_path / "b")]
        assert run(argv) == 2
        assert window.name in capsys.readouterr().err
        assert solves == []
        assert not cache_path(cache, 2.0, 300, u_low).exists()
        assert not (tmp_path / "b").exists()

    def test_bounds_report_solves_and_stores_a_shared_threshold_once(self, tmp_path, monkeypatch):
        # at lam = 35.8, n = 300, eps = 0.05 the low and window thresholds are both u = 15
        params = ModelParams(35.8, 300)
        assert threshold_u(params, 0.05, "low") == threshold_u(params, 0.05, "window") == 15
        solve, solves = cli.hitting_profile, []
        monkeypatch.setattr(cli, "hitting_profile", lambda *args: solves.append(args) or solve(*args))
        cache = tmp_path / "cache"
        argv = ["bounds-report", "--lambda", "35.8", "--n", "300", "--epsilon", "0.05",
                "--cache", str(cache), "--out", str(tmp_path / "b")]
        assert run(argv) == 0
        assert solves == [(params, 15)]
        assert [p.name for p in cache.iterdir()] == [cache_path(cache, 35.8, 300, 15).name]
        solve = json.loads((tmp_path / "b" / "summary.json").read_text())["solve"]
        assert solve["window"] == solve["low"]
        assert solve["low"]["method"] == "dense-logdomain"

    def test_version_one_cache_file_is_refused(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        path = cache_store(cache, hitting_profile(ModelParams(2.0, 50), 10))
        edit_record(path, version=1)
        code = run(
            ["profile", "--lambda", "2", "--n", "50", "--u", "10",
             "--cache", str(cache), "--out", str(tmp_path / "b")]
        )
        assert code == 2
        assert path.name in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_text_cache_files_are_ignored(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        old = cache / "profile_lambda2_n50_u10.txt"
        old.write_text("version=2\nlambda=2\nn=50\nu=10\n")
        args = ["profile", "--lambda", "2", "--n", "50", "--u", "10", "--cache", str(cache)]
        assert run(args + ["--out", str(tmp_path / "a")]) == 0
        assert old.read_text() == "version=2\nlambda=2\nn=50\nu=10\n"
        assert cache_lookup(cache, 2.0, 50, 10).method == "cached"

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

    def test_unsettled_rescaling_maps_to_three(self, tmp_path, monkeypatch):
        # lam=4, n=500, u=350 lies far above eq and needs a second scaled pass
        monkeypatch.setattr(solver, "RESCALE_PASSES", 1)
        out = tmp_path / "x"
        assert run(["profile", "--lambda", "4", "--n", "500", "--u", "350",
                    "--out", str(out)]) == 3
        assert not out.exists()

    def test_unconditional_pivot_failure_maps_to_three(self, tmp_path):
        # the native elimination meets a nonpositive pivot at lambda=3, n=80
        assert run(["uncond-time", "--lambda", "3", "--n", "80", "--out", str(tmp_path / "x")]) == 3

    @pytest.mark.parametrize("lam,n", [("2", "100"), ("2", "200"), ("3", "100"), ("4", "100")])
    def test_unvouched_unconditional_time_maps_to_three(self, tmp_path, lam, n):
        # the native solve's estimated relative error exceeds its tolerance,
        # so T is refused before any output
        out = tmp_path / "x"
        assert run(["uncond-time", "--lambda", lam, "--n", n, "--out", str(out)]) == 3
        assert not out.exists()

    def test_truncation_maps_to_four(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise TruncationError("synthetic cap hit")

        monkeypatch.setattr(cli, "estimate_hitting_prob", boom)
        code = run(
            ["mc-hitting", "--lambda", "2", "--n", "50", "--u", "10", "--x0", "3",
             "--trials", "10", "--seed", "1", "--out", str(tmp_path / "x")]
        )
        assert code == 4

    def test_conditioned_truncation_maps_to_four(self, tmp_path, monkeypatch):
        # u = n = 20 lies above eq: conditioned paths from 10 take hundreds of steps
        monkeypatch.setattr(simulate, "STEP_CAP", 12)
        out = tmp_path / "x"
        code = run(
            ["mc-cond-path", "--lambda", "2", "--n", "20", "--u", "20", "--x0", "10",
             "--trials", "20", "--seed", "1", "--out", str(out)]
        )
        assert code == 4
        assert not out.exists()

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
            # eps*n overflows to inf: no threshold, and no bound set
            ["mc-hitting", "--lambda", "2", "--n", "50", "--x0", "3", "--trials", "10",
             "--seed", "1", "--epsilon", "1e308"],
            ["figure1", "--lambda", "2", "--n", "50", "--epsilon", "inf", "--mode", "low"],
            ["bounds-report", "--lambda", "2", "--n", "300", "--epsilon", "inf"],
            # a site count beyond the doubles would overflow in the first float operation
            ["figure1", "--lambda", "2", "--n", str(10**400), "--epsilon", "0.05"],
        ],
        ids=["no-x0", "bad-epsilon", "bad-lambda", "mc-hitting-eps-1e308", "figure1-eps-inf",
             "bounds-report-eps-inf", "figure1-n-10**400"],
    )
    def test_refused_run_creates_no_out_directory(self, tmp_path, argv):
        out = tmp_path / "never"
        assert run(argv + ["--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("lam", ["746", "1e308", "inf"])
    @pytest.mark.parametrize(
        "flags",
        [
            ["profile", "--n", "300", "--u", "10", "--cache"],
            ["figure1", "--n", "300", "--u", "10", "--cache"],
            ["figure2", "--n", "300", "--epsilon", "0.001", "--cache"],
            ["cond-time", "--n", "300", "--u", "10", "--cache"],
            ["occupation", "--n", "300", "--u", "10", "--delta", "0.01", "--cache"],
            ["mc-cond-path", "--n", "300", "--u", "10", "--x0", "3", "--trials", "10",
             "--seed", "1", "--cache"],
            ["bounds-report", "--n", "300", "--epsilon", "0.001", "--cache"],
            ["uncond-time", "--n", "20,30"],
            ["mc-hitting", "--n", "50", "--u", "10", "--x0", "3", "--trials", "10", "--seed", "1"],
            ["equivalence", "--n", "30", "--x0", "3", "--trials", "10", "--seed", "1"],
        ],
        ids=lambda flags: flags[0],
    )
    def test_lambda_without_representable_q_exits_2(self, tmp_path, flags, lam):
        # q = q(lam) underflows from lam = 745.13 on; window mode refuses eps = 0.001
        # at lam = 1e308 by itself, so figure2 takes the q refusal at 746 only
        out, cache = tmp_path / "never", tmp_path / "cache"
        argv = [flags[0], "--lambda", lam, *flags[1:]]
        if argv[-1] == "--cache":
            argv.append(str(cache))
        assert run(argv + ["--out", str(out)]) == 2
        assert not out.exists() and not cache.exists()

    @pytest.mark.parametrize("epsilon", ["4", "1e-14"])
    def test_bound_set_refusal_names_epsilon(self, tmp_path, capsys, epsilon):
        # theta = q(exp(2*eps)) has no representable fixed point at either eps
        out = tmp_path / "never"
        argv = ["bounds-report", "--lambda", "2", "--n", "300", "--epsilon", epsilon]
        assert run(argv + ["--out", str(out)]) == 2
        assert f"epsilon={float(epsilon)} gives no bound set" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["figure1"],
            ["cond-time"],
            ["occupation", "--delta", "0.001"],
            ["mc-hitting", "--mode", "window", "--x0", "3", "--trials", "100", "--seed", "1"],
        ],
        ids=lambda flags: flags[0],
    )
    def test_epsilon_without_bound_set_runs_where_unchecked(self, tmp_path, flags):
        # eps = 0.04 < log(100)/100 gives a window u = 13, but q2 = q(900) does
        # not exist: only bounds-report checks q2, so these record it as null
        argv = [flags[0], "--lambda", "100", "--n", "2000", "--epsilon", "0.04", *flags[1:]]
        assert run(argv + ["--out", str(tmp_path)]) == 0
        constants = json.loads((tmp_path / "summary.json").read_text())["constants"]
        assert constants["u"] == 13
        assert constants["q1"] is None and constants["q2"] is None and constants["theta"] is None
        assert constants["kappa_n"] == bounds.kappa_floor(100.0, 2000)

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

    @pytest.mark.parametrize(
        ("argv", "work", "message"),
        [
            (["mc-hitting", "--lambda", "2", "--n", "10", "--u", "2", "--epsilon", "0",
              "--x0", "1", "--trials", "1", "--seed", "1"],
             "estimate_hitting_prob", "epsilon must lie in (0, inf)"),
            # ModelParams admits lambda = 1 + 1e-13; gw_extinction_prob refuses it
            (["uncond-time", "--lambda", "1.0000000000001", "--n", "2"],
             "unconditional_expected_extinction", "offspring mean must exceed 1"),
            (["equivalence", "--lambda", "1.0000000000001", "--n", "2", "--x0", "1",
              "--trials", "1", "--seed", "1"],
             "particle_step_counts", "offspring mean must exceed 1"),
        ],
        ids=["mc-hitting", "uncond-time", "equivalence"],
    )
    def test_summary_constants_are_checked_before_any_work(
        self, tmp_path, monkeypatch, capsys, argv, work, message
    ):
        def work_ran(*args):
            raise AssertionError(f"{work} ran before the configuration was refused")

        monkeypatch.setattr(cli, work, work_ran)
        out = tmp_path / "never"
        assert run(argv + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["occupation", "--delta", "0.5"], "band floor delta*n=25 must lie below u=10"),
            (["occupation", "--delta", "1"], "delta must lie in (0, 1)"),
            (["mc-cond-path", "--x0", "10", "--trials", "1", "--seed", "1"], "start 10 outside [1, 9]"),
            (["mc-cond-path", "--x0", "1", "--trials", "0", "--seed", "1"], "trials 0 outside [1, inf]"),
        ],
        ids=["occupation-band", "occupation-delta", "mc-cond-path-x0", "mc-cond-path-trials"],
    )
    def test_flag_against_u_is_refused_before_the_solve(
        self, tmp_path, monkeypatch, capsys, flags, message
    ):
        solve, solves = cli.hitting_profile, []
        monkeypatch.setattr(cli, "hitting_profile", lambda *args: solves.append(args) or solve(*args))
        out, cache = tmp_path / "never", tmp_path / "cache"
        argv = [flags[0], "--lambda", "2", "--n", "50", "--u", "10", *flags[1:]]
        assert run(argv + ["--cache", str(cache), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert solves == []
        assert not out.exists() and not list(cache.glob("profile_*.json"))

    @pytest.mark.parametrize(
        ("argv", "flag", "out", "cache"),
        [
            (["figure1", "--lambda", "2", "--n", "50", "--u", "10"], "--cache", "out", "file"),
            (["figure1", "--lambda", "2", "--n", "50", "--u", "10"], "--cache", "out", "file/c"),
            (["figure1", "--lambda", "2", "--n", "50", "--u", "10"], "--out", "file", "cache"),
            (["figure1", "--lambda", "2", "--n", "50", "--u", "10"], "--out", "link", "cache"),
            (["mc-hitting", "--lambda", "2", "--n", "50", "--u", "10", "--x0", "3",
              "--trials", "100", "--seed", "1"], "--out", "file/sub", None),
        ],
        ids=["figure1-cache-file", "figure1-cache-under-file", "figure1-out-file",
             "figure1-out-dangling-link", "mc-hitting-out-under-file"],
    )
    def test_unusable_out_or_cache_is_refused_before_any_work(
        self, tmp_path, monkeypatch, capsys, argv, flag, out, cache
    ):
        work = []
        for name in ("hitting_profile", "estimate_hitting_prob"):
            call = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *args, call=call: work.append(args) or call(*args))
        (tmp_path / "file").write_text("kept\n")
        (tmp_path / "link").symlink_to(tmp_path / "missing" / "out")
        argv = [*argv, "--out", str(tmp_path / out)]
        if cache is not None:
            argv += ["--cache", str(tmp_path / cache)]
        assert run(argv) == 2
        named = out if flag == "--out" else cache
        assert f"{flag} {tmp_path / named}" in capsys.readouterr().err
        assert work == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "link"]
        assert (tmp_path / "file").read_text() == "kept\n"

    @pytest.mark.parametrize(
        ("argv", "name"),
        [
            (["profile", "--lambda", "2", "--n", "50", "--u", "10", "--cache", "C"], "phi.csv"),
            (["figure1", "--lambda", "1.5", "--n", "200", "--epsilon", "0.05", "--cache", "C"],
             "summary.json"),
            (["mc-hitting", "--lambda", "2", "--n", "50", "--u", "10", "--x0", "3",
              "--trials", "100", "--seed", "1"], "est.csv"),
        ],
        ids=["profile-phi-csv", "figure1-summary-json", "mc-hitting-est-csv-link"],
    )
    def test_output_file_that_is_a_directory_is_refused_before_any_work(
        self, tmp_path, monkeypatch, capsys, argv, name
    ):
        work = []
        for attr in ("hitting_profile", "estimate_hitting_prob"):
            call = getattr(cli, attr)
            monkeypatch.setattr(cli, attr, lambda *args, call=call: work.append(args) or call(*args))
        out, cache = tmp_path / "out", tmp_path / "cache"
        argv = [str(cache) if a == "C" else a for a in argv]
        out.mkdir()
        if name == "est.csv":  # a link to a directory is refused as the directory is
            (tmp_path / "dir").mkdir()
            (out / name).symlink_to(tmp_path / "dir")
        else:
            (out / name).mkdir()
        assert run([*argv, "--out", str(out)]) == 2
        assert f"{out / name} is a directory" in capsys.readouterr().err
        assert work == []
        assert not list(cache.glob("profile_*.json"))
        assert [p.name for p in out.iterdir()] == [name]

    @pytest.mark.parametrize("name", ["phi.csv", "summary.json"])
    def test_output_file_that_is_a_dangling_link_is_refused_before_any_work(
        self, tmp_path, monkeypatch, capsys, name
    ):
        work = []
        call = cli.hitting_profile
        monkeypatch.setattr(cli, "hitting_profile", lambda *args: work.append(args) or call(*args))
        out, cache = tmp_path / "out", tmp_path / "cache"
        out.mkdir()
        (out / name).symlink_to(tmp_path / "missing" / name)
        argv = ["profile", "--lambda", "2", "--n", "50", "--u", "10", "--cache", str(cache)]
        assert run([*argv, "--out", str(out)]) == 2
        assert f"{out / name} is a dangling link" in capsys.readouterr().err
        assert work == []
        assert not list(cache.glob("profile_*.json"))
        assert [p.name for p in out.iterdir()] == [name]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


class TestRunExperimentApi:
    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(experiment="nope", out_dir=tmp_path))

    def test_summary_returned_and_written(self, tmp_path):
        cfg = ExperimentConfig(experiment="profile", out_dir=tmp_path, lam=2.0, n=50, u=10)
        summary = run_experiment(cfg)
        on_disk = json.loads((tmp_path / "summary.json").read_text())
        assert summary["experiment"] == "profile"
        assert on_disk["constants"] == summary["constants"]
