"""Command-line front end: canned experiments emitting CSV data.

Every experiment refuses a bad configuration (exit 2) before any solve,
sample, cache file or output.  It returns its outputs, a fixed set of CSV
tables (or bounds-report's text), and its summary; `run_experiment` alone
creates the output directory and writes them plus a summary.json.  Runs are
bit-reproducible: the same configuration (including seed) always yields
byte-identical CSVs.  Each subcommand takes only the flags its experiment reads.

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
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import bounds as bnd
from .chain import ModelParams, equilibrium, gw_extinction_prob, threshold_u, transition_log_row
from .simulate import (
    EstimateWithCI,
    TruncationError,
    _check_conditioned_run,
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
    SolverError,
    _check_band,
    _check_threshold,
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


# Exact %.17g for float64 columns: with y = |v|·10^(16-k) for the decimal
# exponent k, the 17 digits are round(y).  k is estimated from log10, and y
# is formed once in double-double (Dekker, Numer. Math. 18, 1971) from a
# table of 10^q = (hi + lo)·2^b, with an absolute error below 2^-46.  One
# pass settles a cell only when 10^16 ≤ y < 10^17 - 1/2 and y is not within
# 2^-30 of a tie.  `_cell` writes any row holding an undecided cell: NaN,
# ±inf, a decade the estimate missed, a rounding up to 10^17, a near-tie, a
# negative int or a cell of any other dtype.  A cell's text is a fixed row of
# byte slots and a mask of the slots it keeps: for a float, sign, "0.000",
# the 17 digits, ".", digits 1..16 again, "e±ddd".
_K_MIN, _K_MAX = -326, 310
_POWERS_OF_TEN = 10 ** np.arange(20, dtype=np.uint64)


def _split(a):
    """Dekker's split of a into halves of at most 26 bits each."""
    c = 134217729.0 * a  # 2^27 + 1
    high = c - (c - a)
    return high, a - high


def _kept(k, last):
    """Slots kept for decimal exponent k and last nonzero digit `last` (0..16)."""
    fixed = (k >= -4) & (k < 17)
    small = (fixed & (k < 0))[:, None]
    point = np.where(fixed & (k >= 0), k, 0)[:, None]  # the digit the point follows
    j, last = np.arange(17), last[:, None]
    return np.hstack([
        np.zeros_like(small),  # the sign is set per cell
        small, small, small & (np.arange(3) < -k[:, None] - 1),
        j <= np.where(small, last, point),
        ~small & (last > point),
        ~small & (j[1:] > point) & (j[1:] <= last),
        ~fixed[:, None] & ((np.arange(5) != 2) | (np.abs(k)[:, None] >= 100)),
    ])


@cache
def _tables() -> tuple[np.ndarray, ...]:
    """Lookup tables, built from exact integers on first use.

    By k - _K_MIN: 10^(16-k) = (hi + lo)·2^b, "e±ddd" and 17 times the
    layout class of k (k ≤ -100, -99..-5, each of -4..16, 17..99, ≥ 100);
    the 4 ASCII digits of 0..9999 as one uint32; `_kept` by class and last.
    """
    pow10 = []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        b = num.bit_length() - den.bit_length()
        n = (num << max(0, 120 - b)) // (den << max(0, b - 120))
        hi = math.ldexp(float(n), -120)
        pow10.append((hi, *_split(hi), math.ldexp(float(n - int(float(n))), -120), b))
    exp = "".join(f"e{k:+04d}" for k in range(_K_MIN, _K_MAX + 1)).encode()
    digits = np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
    k = np.arange(_K_MIN, _K_MAX + 1)
    tables = (
        np.array(pow10).T,
        np.frombuffer(exp, np.uint8).reshape(-1, 5),
        (np.clip(k, -5, 17) + 6 - (k <= -100) + (k >= 100)) * 17,
        digits.astype(np.uint8).view(np.uint32).ravel(),
        _kept(np.repeat([-100, -5, *range(-4, 17), 17, 100], 17), np.tile(np.arange(17), 25)),
    )
    for table in tables:  # every later call reads these same arrays
        table.setflags(write=False)
    return tables


def _scaled(m, e, k):
    """m·2^e·10^(16-k) as a double-double (s, t), s an integer near 1e16..1e17."""
    hi, hi_high, hi_low, lo, b = _tables()[0].take(k - _K_MIN, axis=1)
    m_high, m_low = _split(m)
    p = m * hi
    err = ((m_high * hi_high - p) + m_high * hi_low + m_low * hi_high) + m_low * hi_low + m * lo
    s = p + err
    e = e + b.astype(np.int32)
    return np.ldexp(s, e), np.ldexp(err - (s - p), e)


def _digits(magnitude, count):
    """ASCII of the 4·count lowest decimal digits of each integer in magnitude."""
    groups = np.empty((len(magnitude), count), np.int64)
    for i in range(count - 1, -1, -1):
        q = magnitude // 10000
        groups[:, i] = magnitude - q * 10000
        magnitude = q
    return _tables()[3].take(groups).view(np.uint8)


def _float_slots(a: np.ndarray):
    """Slots and keep mask of each cell's %.17g, and which cells are left to `_cell`.

    Zero is settled as "0" or "-0"; a nonzero finite cell only when one pass
    puts its y in [10^16, 10^17 - 1/2) away from a tie.
    """
    v = np.abs(a)
    zero = v == 0.0
    odd = ~np.isfinite(v)
    m, e = np.frexp(np.where(odd | zero, 1.0, v))
    k = np.floor(np.log10(m) + e * math.log10(2.0)).astype(np.int64)  # off by at most 1
    s, t = _scaled(m, e, k)
    # a y whose error lifts it to 10^16 rounds to 10^16 at k - 1 too: no margin needed
    outside = ((s - 1e16) + t < 0) | ((s - 1e17) + t >= -0.5)
    odd |= ~zero & (outside | (np.abs(t - np.floor(t) - 0.5) < 2.0**-30))
    d = np.where(odd | zero, 0, s.astype(np.int64) + np.floor(t + 0.5).astype(np.int64))
    k = np.where(zero, 0, k) - _K_MIN
    digits = _digits(d, 5)[:, 3:]
    nonzero = digits != ord("0")
    nonzero[:, 0] = True
    last = 16 - np.argmax(nonzero[:, ::-1], axis=1)  # the last digit %g keeps
    _, exponents, layouts, _, kept = _tables()
    keep = kept.take(layouts.take(k) + last, axis=0)
    keep[:, 0] = np.signbit(a)
    return np.hstack([
        np.broadcast_to(np.frombuffer(b"-0.000", np.uint8), (len(a), 6)),
        digits, np.full((len(a), 1), ord("."), np.uint8), digits[:, 1:],
        exponents.take(k, axis=0),
    ]), keep, odd


def _int_slots(a: np.ndarray):
    """Slots and keep mask of each cell's %d: a nonnegative int64 column only."""
    a = a.astype(np.uint64)
    length = np.maximum(1, np.searchsorted(_POWERS_OF_TEN, a, "right"))
    count = (int(length.max()) + 3) // 4
    return _digits(a, count), np.arange(4 * count) >= (4 * count - length)[:, None]


def _column_slots(a: np.ndarray):
    """Slots, keep mask and undecided cells of a column; `_cell` writes any row holding one."""
    if a.dtype == np.float64:
        return _float_slots(a)
    if a.dtype.kind == "i":
        odd = a < 0
        return *_int_slots(np.where(odd, 0, a)), odd
    return np.zeros((len(a), 0), np.uint8), np.zeros((len(a), 0), bool), np.ones(len(a), bool)


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write rows as CSV, each cell's text equal to `_cell`'s.

    rows is a structured array whose fields are the columns, or any other
    iterable of rows.  numpy formats a structured array CSV_CHUNK rows at a
    time, its float64 and signed-integer fields column by column, and
    `_cell` writes each row that holds a cell numpy leaves undecided.
    `_cell` writes every row of any other input.  A field count or row
    width other than len(header) raises ValueError.
    """
    names = rows.dtype.names if isinstance(rows, np.ndarray) else None
    if names and len(names) != len(header):
        raise ValueError(f"{len(names)} fields under {len(header)} header names")
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        if not names:
            for row in rows:
                if len(row) != len(header):
                    raise ValueError(f"a row of {len(row)} cells under {len(header)} header names")
                f.write(",".join(map(_cell, row)) + "\n")
            return
        for start in range(0, len(rows), CSV_CHUNK):
            columns = [rows[name][start : start + CSV_CHUNK] for name in names]
            cells = [_column_slots(column) for column in columns]
            sep = np.full((len(columns[0]), 1), ord(","), np.uint8)
            slots = np.hstack([part for s, _, _ in cells for part in (s, sep)])
            slots[:, -1] = ord("\n")
            keep = np.hstack([part for _, k, _ in cells for part in (k, np.ones_like(sep, bool))])
            undecided = np.flatnonzero(np.any([odd for *_, odd in cells], axis=0))
            keep[undecided, :-1] = False  # the row keeps only its newline
            text = slots[keep].tobytes().decode()
            if undecided.size:
                lines = text.split("\n")
                for i in undecided.tolist():
                    lines[i] = ",".join(_cell(column[i]) for column in columns)
                text = "\n".join(lines)
            f.write(text)


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
    """The cached profile of (lam, n, u), or None when its file is absent.

    A file that exists is reused or refused by read_profile, never
    overwritten.
    """
    path = cache_path(cache_dir, lam, n, u)
    return read_profile(path, ModelParams(lam, n), u) if path.exists() else None


def cache_store(cache_dir: str | Path, profile: HittingProfile) -> Path:
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_path(cache_dir, profile.params.lam, profile.params.n, profile.u)
    write_profile(profile, path)
    return path


def _get_profiles(config: ExperimentConfig, params: ModelParams, *us: int) -> list[HittingProfile]:
    """The profile of each u, every u looked up before any is solved.

    cache_lookup refuses a mismatched cache file before any solve; each
    missing u is then solved, in order, and stored once.
    """
    found = dict.fromkeys(us)
    if config.cache_dir is not None:
        found = {u: cache_lookup(config.cache_dir, params.lam, params.n, u) for u in found}
    for u, profile in found.items():
        if profile is None:
            found[u] = hitting_profile(params, u)
            if config.cache_dir is not None:
                cache_store(config.cache_dir, found[u])
    return [found[u] for u in us]


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
    config: ExperimentConfig, default_mode: str | None, *required: str, check=lambda u: None
) -> tuple[HittingProfile, dict]:
    """Check the flags, resolve u, `check(u)`, get u's profile; returns it and its summary fields."""
    params = _params(config)
    _require(config, *required)
    u = _resolve_u(config, params, default_mode)
    _check_threshold(params, u)
    check(u)
    constants = _constants(params, config.epsilon, u)
    (profile,) = _get_profiles(config, params, u)
    return profile, {
        "constants": constants,
        "residual": profile.residual,
        "solve": _solve_summary(profile),
    }


def _exp_profile(config: ExperimentConfig) -> tuple[dict, dict]:
    profile, summary = _profile_step(config, None)
    rows = [(x, v, math.exp(v) or "") for x, v in enumerate(profile.log_phi.tolist())]
    header = ["x", "log_phi_natural", "phi_if_representable"]
    return {"phi.csv": (header, rows)}, {"method": profile.method, **summary}


def _exp_figure1(config: ExperimentConfig) -> tuple[dict, dict]:
    profile, summary = _profile_step(config, "window")
    log10_h = np.rec.fromarrays([np.arange(profile.u), profile.log_phi / math.log(10.0)])
    return {"logh.csv": (["x", "log10_h"], log10_h)}, summary


def _exp_figure2(config: ExperimentConfig) -> tuple[dict, dict]:
    profile, summary = _profile_step(config, "window")
    kernel = tilted_kernel(profile)
    table = np.empty(kernel.rows.shape, [("x", np.int64), ("y", np.int64), ("p_phi", np.float64)])
    table["x"] = np.arange(1, profile.u)[:, None]
    table["y"] = np.arange(profile.u)
    table["p_phi"] = kernel.rows
    return {"kernel.csv": (["x", "y", "p_phi"], table.ravel())}, summary


def _exp_cond_time(config: ExperimentConfig) -> tuple[dict, dict]:
    profile, summary = _profile_step(config, "window")
    t = conditional_expected_extinction(tilted_kernel(profile)).values.tolist()
    rows = [(0, 0.0, "")]
    rows.extend((x, t[x], t[x] / math.log1p(x)) for x in range(1, profile.u))
    return {"t.csv": (["x", "t", "t_over_log1p"], rows)}, summary


def _exp_uncond_time(config: ExperimentConfig) -> tuple[dict, dict]:
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
    constants = {"q": gw_extinction_prob(config.lam)}
    rows = []
    for params, x in starts:
        t = unconditional_expected_extinction(params).values
        rows.append((params.n, x, t[x], math.log(t[x])))
    return {"T.csv": (["n", "x", "expected_T0", "ln_expected_T0"], rows)}, {"constants": constants}


def _exp_occupation(config: ExperimentConfig) -> tuple[dict, dict]:
    check = partial(_check_band, config.delta, config.n)  # called with u
    profile, summary = _profile_step(config, "window", "delta", check=check)
    t = conditional_occupation_time(tilted_kernel(profile), config.delta).values
    table = np.rec.fromarrays([np.arange(profile.u), t])
    return {"h_occ.csv": (["x", "expected_band_time"], table)}, {"delta": config.delta, **summary}


def _estimate_outputs(est: EstimateWithCI, seconds: float, constants: dict) -> tuple[dict, dict]:
    """An estimate's CSV row and summary, which also gets the chain steps and trial rate."""
    row = (est.mean, est.std_error, est.trials, est.seed)
    return {"est.csv": (["estimate", "std_error", "trials", "seed"], [row])}, {
        "constants": constants,
        "steps_total": est.steps_total,
        "steps_max": est.steps_max,
        "trials_per_s": est.trials / seconds,
    }


def _exp_mc_hitting(config: ExperimentConfig) -> tuple[dict, dict]:
    params = _params(config)
    _require(config, "x0", "trials", "seed")
    u = _resolve_u(config, params, "low")
    constants = _constants(params, config.epsilon, u)
    started = time.perf_counter()
    est = estimate_hitting_prob(params, u, config.x0, config.trials, config.seed)
    seconds = time.perf_counter() - started
    return _estimate_outputs(est, seconds, constants)


def _exp_mc_cond_path(config: ExperimentConfig) -> tuple[dict, dict]:
    check = partial(_check_conditioned_run, config.x0, config.trials)  # called with u
    profile, step = _profile_step(config, "window", "x0", "trials", "seed", check=check)
    kernel = tilted_kernel(profile)
    started = time.perf_counter()
    est = estimate_conditioned_length(kernel, config.x0, config.trials, config.seed)
    seconds = time.perf_counter() - started
    outputs, summary = _estimate_outputs(est, seconds, step["constants"])
    return outputs, {**summary, "solve": step["solve"]}


def _exp_equivalence(config: ExperimentConfig) -> tuple[dict, dict]:
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
    constants = _constants(params, None, None)
    counts = particle_step_counts(graph, config.x0, config.lam, config.trials, config.seed)
    empirical = np.bincount(counts, minlength=n + 1)[: n + 1] / config.trials
    exact = np.exp(transition_log_row(params, config.x0))
    row = (n, params.lam, config.x0, config.trials, tv_distance(empirical, exact))
    header = ["n", "lambda", "x", "trials", "tv_distance"]
    return {"tv.csv": (header, [row])}, {"constants": constants}


def _exp_bounds_report(config: ExperimentConfig) -> tuple[dict, dict]:
    params = _params(config)
    _require(config, "epsilon")
    bset = bnd.make_bound_set(params.lam, params.n, config.epsilon, config.alpha)
    reports = []
    modes = ["low", "window"] if config.epsilon < math.log(params.lam) / params.lam else ["low"]
    us = [threshold_u(params, config.epsilon, mode) for mode in modes]
    profiles = dict(zip(modes, _get_profiles(config, params, *us)))
    solves = {mode: _solve_summary(profile) for mode, profile in profiles.items()}
    if bset.envelope_ok:
        reports.append(bnd.check_envelope(profiles["low"], bset))
    reports.append(bnd.check_ratio_beta(profiles["low"]))
    if "window" in profiles:
        # u_win - 1 < eq - eps*n, so the drift factor clears exp(lam*eps) below u_win
        reports.append(bnd.check_geometric(profiles["window"], bset))
        if bset.kappa_ok:
            reports.append(bnd.check_ratio_kappa(profiles["window"], bset))
    if bset.gamma_ok:
        reports.append(bnd.check_gamma_ratio(bset))
    return {"report.txt": bnd.render_reports(reports)}, {
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
    """Run one experiment, write its outputs and summary.json to --out; return the summary."""
    if config.experiment not in _EXPERIMENTS:
        raise ValueError(f"unknown experiment {config.experiment!r}")
    if config.seed is not None:
        _check_seed(config.seed)
    for flag, path in (("--out", config.out_dir), ("--cache", config.cache_dir)):
        if path is None:
            continue
        # the nearest of path and its ancestors that exists, or is a link, must be a directory
        nearest = next(p for p in (Path(path), *Path(path).parents) if p.exists() or p.is_symlink())
        if not nearest.is_dir():
            raise ValueError(f"{flag} {path}: {nearest} is not a directory")
    started = time.perf_counter()
    outputs, summary = _EXPERIMENTS[config.experiment](config)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, output in outputs.items():
        if isinstance(output, str):
            (out / name).write_text(output)
        else:
            _write_csv(out / name, *output)
    summary["files"] = list(outputs)
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
    args = _build_parser().parse_args(argv)
    try:
        summary = run_experiment(_config_from_args(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, KernelConsistencyError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except TruncationError as exc:
        print(f"simulation truncated: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    files = ", ".join(summary["files"])
    print(f"{summary['experiment']}: wrote {files} and summary.json to {args.out_dir}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
