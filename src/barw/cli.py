"""Command-line front end: canned experiments emitting CSV data.

Every experiment validates its configuration before touching the output
directory, which its first write creates, writes a fixed set of CSV files
plus a summary.json, and is bit-reproducible: the same configuration
(including seed) always yields byte-identical CSVs.  Each subcommand takes
only the flags its experiment reads.

Exit codes: 0 success, 2 invalid configuration or cache refusal,
3 solver failure, 4 simulation truncation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path

import numpy as np

from . import bounds as bnd
from .chain import ModelParams, equilibrium, gw_extinction_prob, threshold_u, transition_log_row
from .simulate import (
    EstimateWithCI,
    TruncationError,
    _check_seed,
    complete_graph,
    estimate_conditioned_length,
    estimate_hitting_prob,
    parse_graph_file,
    particle_step_counts,
    tv_distance,
)
from .solver import (
    HittingProfile,
    KernelConsistencyError,
    ProfileFormatError,
    SolverError,
    _check_unconditional_cap,
    conditional_expected_extinction,
    conditional_occupation_time,
    hitting_profile,
    read_profile,
    tilted_kernel,
    unconditional_expected_extinction,
    write_profile,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_TRUNCATION = 4

#: rows formatted per block by _write_csv
CSV_CHUNK = 4096


@dataclass
class ExperimentConfig:
    """Everything one experiment run needs; unset fields stay None."""

    experiment: str
    out_dir: Path
    lam: float | None = None
    n: int | None = None
    n_sweep: tuple[int, ...] = ()
    epsilon: float | None = None
    delta: float | None = None
    alpha: float | None = None
    x0: int | None = None
    u: int | None = None
    mode: str | None = None
    trials: int | None = None
    seed: int | None = None
    graph: str | None = None
    self_loops: bool | None = None  # K_n's convention; unset means with self-moves
    cache_dir: Path | None = None


def _g17(v: float) -> str:
    # float() first: formatting a numpy scalar directly is slower, same text
    return format(float(v), ".17g")


def _cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return _g17(v)


#: printf conversions giving `_cell`'s text for a column of one plain type
_CONVERSIONS = {float: "%.17g", int: "%d", str: "%s"}


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write rows as CSV, CSV_CHUNK rows per printf-style format call.

    A column whose cells in a chunk are all plain floats, ints or strings
    is formatted by one conversion; any other column goes through `_cell`
    cell by cell.  Either way the bytes equal those of `_cell` on every
    cell, so pass Python numbers (from `.tolist()`) for speed.
    """
    rows = iter(rows)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        while chunk := list(islice(rows, CSV_CHUNK)):
            width = len(chunk[0])
            cells = list(chain.from_iterable(chunk))
            conversions = []
            for j in range(width):
                kinds = set(map(type, cells[j::width]))
                conversion = _CONVERSIONS.get(kinds.pop()) if len(kinds) == 1 else None
                if conversion is None:
                    cells[j::width] = map(_cell, cells[j::width])
                    conversion = "%s"
                conversions.append(conversion)
            line = ",".join(conversions)
            f.write("\n".join([line] * len(chunk)) % tuple(cells) + "\n")


def _solve_summary(profile: HittingProfile) -> dict:
    """What summary.json records of a profile: its size, solve method and residual."""
    return {
        "u": profile.u,
        "m": profile.u - 1,
        "method": profile.method,
        "residual": profile.residual,
    }


def _require(config: ExperimentConfig, *names: str) -> None:
    for name in names:
        if getattr(config, name) is None:
            flag = "lambda" if name == "lam" else name.replace("_", "-")
            raise ValueError(f"{config.experiment}: --{flag} is required")


def _params(config: ExperimentConfig) -> ModelParams:
    _require(config, "lam", "n")
    return ModelParams(config.lam, config.n)


def _resolve_u(config: ExperimentConfig, params: ModelParams, default_mode: str | None) -> int:
    """Threshold from --u or --mode/--epsilon, with a per-experiment default mode.

    --mode low|window derives u from --epsilon, so an explicit --u with
    either of them is a conflict, not an override.  Without a default mode
    one of --u and --mode is required.
    """
    if config.u is not None:
        if config.mode in ("low", "window"):
            raise ValueError(f"mode={config.mode} derives u from --epsilon; do not pass --u")
        if not 1 <= config.u <= params.n:
            raise ValueError(f"threshold {config.u} outside [1, {params.n}]")
        return config.u
    mode = config.mode or default_mode
    if mode is None:
        raise ValueError(f"{config.experiment}: --u or --mode (low|window) is required")
    if config.epsilon is None:
        raise ValueError(f"mode={mode} requires --epsilon")
    return threshold_u(params, config.epsilon, mode)


# ---------------------------------------------------------------------------
# profile cache
# ---------------------------------------------------------------------------


def cache_path(cache_dir: str | Path, lam: float, n: int, u: int) -> Path:
    return Path(cache_dir) / f"profile_lambda{_g17(lam)}_n{n}_u{u}.json"


def cache_lookup(cache_dir: str | Path, lam: float, n: int, u: int) -> HittingProfile | None:
    """Return the cached profile, or None when its file is absent.

    A file that exists is reused or refused, never overwritten: one that
    read_profile refuses (malformed, or not harmonic within the solve's
    tolerance) raises ProfileFormatError, and one whose key disagrees with
    the requested one raises ValueError naming the file.
    """
    path = cache_path(cache_dir, lam, n, u)
    if not path.exists():
        return None
    profile = read_profile(path)
    if _g17(profile.params.lam) != _g17(lam) or profile.params.n != n or profile.u != u:
        raise ValueError(
            f"cache file {path} exists but its key does not match the requested "
            "profile; refusing to reuse or overwrite"
        )
    return profile


def cache_store(cache_dir: str | Path, profile: HittingProfile) -> Path:
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_path(cache_dir, profile.params.lam, profile.params.n, profile.u)
    write_profile(profile, path)
    return path


def _get_profile(config: ExperimentConfig, params: ModelParams, u: int) -> HittingProfile:
    """Look up, else solve and store; cache_lookup refuses a mismatched cache file."""
    if config.cache_dir is None:
        return hitting_profile(params, u)
    profile = cache_lookup(config.cache_dir, params.lam, params.n, u)
    if profile is None:
        profile = hitting_profile(params, u)
        cache_store(config.cache_dir, profile)
    return profile


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _constants(params: ModelParams, epsilon: float | None, u: int | None) -> dict:
    out = {
        "eq": equilibrium(params),
        "q": gw_extinction_prob(params.lam),
    }
    if u is not None:
        out["u"] = u
    b = bnd.make_bound_set(params.lam, params.n, epsilon) if epsilon is not None else None
    if b is not None:
        out["q1"] = None if math.isnan(b.q1) else b.q1
        out["q2"] = b.q2
        out["theta"] = b.theta
        out["kappa_n"] = None if math.isnan(b.kappa_n) else b.kappa_n
    else:
        kappa = bnd.kappa_floor(params.lam, params.n)
        out["kappa_n"] = None if math.isnan(kappa) else kappa
    return out


def _profile_step(
    config: ExperimentConfig, default_mode: str | None, *required: str
) -> tuple[HittingProfile, dict]:
    """Check the flags, resolve u, get its profile; returns it and its summary fields."""
    params = _params(config)
    _require(config, *required)
    u = _resolve_u(config, params, default_mode)
    constants = _constants(params, config.epsilon, u)
    profile = _get_profile(config, params, u)
    return profile, {
        "constants": constants,
        "residual": profile.residual,
        "solve": _solve_summary(profile),
    }


def _exp_profile(config: ExperimentConfig, out: Path) -> dict:
    profile, summary = _profile_step(config, None)
    rows = []
    for x, log_phi in enumerate(profile.log_phi.tolist()):
        v = math.exp(log_phi)
        rows.append((x, log_phi, v if v > 0.0 else ""))
    _write_csv(out / "phi.csv", ["x", "log_phi_natural", "phi_if_representable"], rows)
    return {"files": ["phi.csv"], "method": profile.method, **summary}


def _exp_figure1(config: ExperimentConfig, out: Path) -> dict:
    profile, summary = _profile_step(config, "window")
    log10_h = (profile.log_phi / math.log(10.0)).tolist()
    _write_csv(out / "logh.csv", ["x", "log10_h"], enumerate(log10_h))
    return {"files": ["logh.csv"], **summary}


def _exp_figure2(config: ExperimentConfig, out: Path) -> dict:
    profile, summary = _profile_step(config, "window")
    kernel = tilted_kernel(profile)
    rows = (
        (x, y, p) for x in range(1, profile.u) for y, p in enumerate(kernel.rows[x - 1].tolist())
    )
    _write_csv(out / "kernel.csv", ["x", "y", "p_phi"], rows)
    return {"files": ["kernel.csv"], **summary}


def _exp_cond_time(config: ExperimentConfig, out: Path) -> dict:
    profile, summary = _profile_step(config, "window")
    t = conditional_expected_extinction(tilted_kernel(profile)).values.tolist()
    rows = [(0, 0.0, "")]
    rows.extend((x, t[x], t[x] / math.log1p(x)) for x in range(1, profile.u))
    _write_csv(out / "t.csv", ["x", "t", "t_over_log1p"], rows)
    return {"files": ["t.csv"], **summary}


def _exp_uncond_time(config: ExperimentConfig, out: Path) -> dict:
    _require(config, "lam")
    if not config.n_sweep:
        raise ValueError("uncond-time: --n takes a comma-separated sweep, e.g. 20,30,40,50")
    starts = []  # every sweep entry is checked before the first solve
    for n in config.n_sweep:
        params = ModelParams(config.lam, n)
        _check_unconditional_cap(n)
        x = config.x0 if config.x0 is not None else -(-n // 2)
        if not 1 <= x <= n:
            raise ValueError(f"--x0 must lie in [1, n={n}], got {x}")
        starts.append((params, x))
    rows = []
    for params, x in starts:
        t = unconditional_expected_extinction(params).values
        rows.append((params.n, x, t[x], math.log(t[x])))
    _write_csv(out / "T.csv", ["n", "x", "expected_T0", "ln_expected_T0"], rows)
    return {"files": ["T.csv"], "constants": {"q": gw_extinction_prob(config.lam)}}


def _exp_occupation(config: ExperimentConfig, out: Path) -> dict:
    profile, summary = _profile_step(config, "window", "delta")
    t = conditional_occupation_time(tilted_kernel(profile), config.delta).values.tolist()
    _write_csv(out / "h_occ.csv", ["x", "expected_band_time"], enumerate(t))
    return {"files": ["h_occ.csv"], "delta": config.delta, **summary}


def _write_estimate(out: Path, est: EstimateWithCI, seconds: float, constants: dict) -> dict:
    """Write est.csv; the summary also gets the chain steps and the trial rate."""
    _write_csv(
        out / "est.csv",
        ["estimate", "std_error", "trials", "seed"],
        [(est.mean, est.std_error, est.trials, est.seed)],
    )
    return {
        "files": ["est.csv"],
        "constants": constants,
        "steps_total": est.steps_total,
        "steps_max": est.steps_max,
        "trials_per_s": est.trials / seconds,
    }


def _exp_mc_hitting(config: ExperimentConfig, out: Path) -> dict:
    params = _params(config)
    _require(config, "x0", "trials", "seed")
    u = _resolve_u(config, params, "low")
    started = time.perf_counter()
    est = estimate_hitting_prob(params, u, config.x0, config.trials, config.seed)
    seconds = time.perf_counter() - started
    return _write_estimate(out, est, seconds, _constants(params, config.epsilon, u))


def _exp_mc_cond_path(config: ExperimentConfig, out: Path) -> dict:
    profile, step = _profile_step(config, "window", "x0", "trials", "seed")
    kernel = tilted_kernel(profile)
    started = time.perf_counter()
    est = estimate_conditioned_length(kernel, config.x0, config.trials, config.seed)
    seconds = time.perf_counter() - started
    return {**_write_estimate(out, est, seconds, step["constants"]), "solve": step["solve"]}


def _exp_equivalence(config: ExperimentConfig, out: Path) -> dict:
    _require(config, "lam", "x0", "trials", "seed")
    if config.graph is not None:
        if config.n is not None or config.self_loops is not None:
            raise ValueError(
                "equivalence: a graph file sets n and self_loops; do not pass --n or --self-loops"
            )
        graph = parse_graph_file(config.graph)
    else:
        _require(config, "n")
        graph = complete_graph(config.n, config.self_loops is not False)
    n = graph.vertex_count
    params = ModelParams(config.lam, n)
    counts = particle_step_counts(graph, config.x0, config.lam, config.trials, config.seed)
    empirical = np.bincount(counts, minlength=n + 1)[: n + 1] / config.trials
    exact = np.exp(transition_log_row(params, config.x0))
    tv = tv_distance(empirical, exact)
    _write_csv(
        out / "tv.csv",
        ["n", "lambda", "x", "trials", "tv_distance"],
        [(n, params.lam, config.x0, config.trials, tv)],
    )
    return {"files": ["tv.csv"], "constants": _constants(params, None, None)}


def _exp_bounds_report(config: ExperimentConfig, out: Path) -> dict:
    params = _params(config)
    _require(config, "epsilon")
    bset = bnd.make_bound_set(params.lam, params.n, config.epsilon, config.alpha)
    reports = []
    u_low = threshold_u(params, config.epsilon, "low")
    low_profile = _get_profile(config, params, u_low)
    solves = {"low": _solve_summary(low_profile)}
    if bset.envelope_ok:
        reports.append(bnd.check_envelope(low_profile, bset))
    reports.append(bnd.check_ratio_beta(low_profile))
    eq_rate = math.log(params.lam) / params.lam
    if config.epsilon < eq_rate:
        u_win = threshold_u(params, config.epsilon, "window")
        win_profile = _get_profile(config, params, u_win)
        solves["window"] = _solve_summary(win_profile)
        # u_win - 1 < eq - eps*n, so the drift factor clears exp(lam*eps) below u_win
        reports.append(bnd.check_geometric(win_profile, bset))
        if bset.kappa_ok:
            reports.append(bnd.check_ratio_kappa(win_profile, bset))
    if bset.gamma_ok:
        reports.append(bnd.check_gamma_ratio(bset))
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").write_text(bnd.render_reports(reports))
    return {
        "files": ["report.txt"],
        "constants": _constants(params, config.epsilon, None),
        "alpha": bset.alpha,
        "gamma": None if math.isnan(bset.gamma) else bset.gamma,
        "checks": {r.name: r.passed for r in reports},
        "solve": solves,
    }


_EXPERIMENTS = {
    "profile": _exp_profile,
    "figure1": _exp_figure1,
    "figure2": _exp_figure2,
    "cond-time": _exp_cond_time,
    "uncond-time": _exp_uncond_time,
    "occupation": _exp_occupation,
    "mc-hitting": _exp_mc_hitting,
    "mc-cond-path": _exp_mc_cond_path,
    "equivalence": _exp_equivalence,
    "bounds-report": _exp_bounds_report,
}


def run_experiment(config: ExperimentConfig) -> dict:
    """Run one experiment; returns the summary also written to summary.json."""
    if config.experiment not in _EXPERIMENTS:
        raise ValueError(f"unknown experiment {config.experiment!r}")
    if config.seed is not None:
        _check_seed(config.seed)
    started = time.perf_counter()
    out = Path(config.out_dir)
    summary = _EXPERIMENTS[config.experiment](config, out)
    summary["experiment"] = config.experiment
    summary["elapsed_seconds"] = time.perf_counter() - started
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _n_sweep(text: str) -> tuple[int, ...]:
    """uncond-time's --n: the site counts of its sweep."""
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated site counts: {text!r}") from None


def _zero_or_one(text: str) -> bool:
    if text not in ("0", "1"):
        raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from 0, 1)")
    return text == "1"


#: argparse settings of every flag but --out; each dest names an ExperimentConfig field
_ARGUMENTS = {
    "--lambda": {"dest": "lam", "type": float, "help": "offspring mean (> 1)"},
    "--n": {"type": int, "help": "number of sites"},
    "--epsilon": {"type": float},
    "--delta": {"type": float},
    "--alpha": {"type": float},
    "--x0": {"type": int},
    "--u": {"type": int},
    "--mode": {"choices": ["low", "window"]},
    "--trials": {"type": int},
    "--seed": {"type": int},
    "--graph": {"type": str, "help": "graph file path"},
    "--self-loops": {"type": _zero_or_one, "metavar": "{0,1}"},
    "--cache": {"dest": "cache_dir", "type": Path, "default": None},
}

_THRESHOLD = ("--lambda", "--n", "--epsilon", "--u", "--mode")
_TRIALS = ("--x0", "--trials", "--seed")

#: the flags each experiment reads, besides --out; any other flag is exit 2
_FLAGS = {
    "profile": (*_THRESHOLD, "--cache"),
    "figure1": (*_THRESHOLD, "--cache"),
    "figure2": (*_THRESHOLD, "--cache"),
    "cond-time": (*_THRESHOLD, "--cache"),
    "uncond-time": ("--lambda", "--n", "--x0"),
    "occupation": (*_THRESHOLD, "--delta", "--cache"),
    "mc-hitting": (*_THRESHOLD, *_TRIALS),
    "mc-cond-path": (*_THRESHOLD, *_TRIALS, "--cache"),
    "equivalence": ("--lambda", "--n", "--graph", "--self-loops", *_TRIALS),
    "bounds-report": ("--lambda", "--n", "--epsilon", "--alpha", "--cache"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barw",
        description="Exact analysis and simulation of mean-field branching-annihilating random walk.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in _EXPERIMENTS:
        sp = sub.add_parser(name)
        for flag in _FLAGS[name]:
            settings = _ARGUMENTS[flag]
            if name == "uncond-time" and flag == "--n":
                sweep = "comma-separated site counts, e.g. 20,30,40,50"
                settings = {"dest": "n_sweep", "type": _n_sweep, "default": (), "help": sweep}
            sp.add_argument(flag, **settings)
        sp.add_argument("--out", dest="out_dir", type=Path, required=True)
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(**vars(args))


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        summary = run_experiment(_config_from_args(args))
    except (ValueError, ProfileFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, KernelConsistencyError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except TruncationError as exc:
        print(f"simulation truncated: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    files = ", ".join(summary.get("files", []))
    print(f"{summary['experiment']}: wrote {files} and summary.json to {args.out_dir}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
