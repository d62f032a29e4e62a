"""Command-line front end: canned experiments emitting CSV data.

Every experiment refuses a bad configuration (exit 2) before any solve,
sample, cache file or output.  It returns one output, a CSV table (or
bounds-report's text), and its summary; `_EXPERIMENTS` names the output's
file, which `run_experiment` alone writes, with a summary.json.  Runs are
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
from typing import NamedTuple

import numpy as np

from . import bounds as bnd
from .chain import (
    ModelParams,
    _check_int,
    _check_real,
    equilibrium,
    gw_extinction_prob,
    threshold_u,
    transition_log_rows,
)
from .simulate import (
    TruncationError,
    _check_conditioned_run,
    complete_graph,
    estimate_conditioned_length,
    estimate_hitting_prob,
    parse_graph_file,
    particle_step_counts,
    tv_distance,
)
from .solver import (
    HittingProfile,
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
# negative int or a cell of any other dtype.
#
# A cell's text is a field of little-endian uint32 words, one row of words
# per field and one column per cell; every NUL byte is dropped when the
# chunk is written, and so is a word that no cell of the chunk keeps a byte
# of.  A field's first byte is left NUL for the byte before the cell: ","
# or the "\n" ending the line above.  An int's field is its 4-digit groups,
# each the word of a 10^4-entry ASCII table: as many as the chunk's largest
# value needs, and one more when its digit count is a multiple of 4, so that
# the first byte is a leading zero.  A mask by digit count, which a
# 10^4-entry table gives per group, clears the leading zeros.  A float's field is 13 words:
#   0      the lead byte, the sign, and "0." of a fixed-notation k < 0;
#   1..5   its 17 digits, after "000": the leading zeros of a k < 0;
#   6      "." in its last byte, then 7..10, digits 1..16 again;
#   11, 12 "e±dd" and a third exponent digit, in exponent notation.
# Words 0, 11 and 12 come from a table by k.  What words 1..10 keep is a mask
# by layout class (exponent notation, or fixed notation for one k in
# -4..16) and the last nonzero digit, which a 10^4-entry table gives per
# group: the digits up to the point from 1..5, the point and the digits
# after it from 6..10, and for a k < 0, "000"'s last -k-1 zeros and no
# point.  Only a point after digit 1 or later keeps a byte of words 2..5,
# so a chunk without one drops them.
_K_MIN, _K_MAX = -326, 310
_WORD = np.dtype("<u4")
#: the place among the 17 digits of each group's first byte
_GROUP_STARTS = np.arange(-3, 17, 4, dtype=np.int8)[:, None]


class _Tables(NamedTuple):
    """Lookup tables for `_write_csv`; see `_tables`."""

    pow10: np.ndarray  # (5, k): hi, hi's two halves, lo and b of 10^(16-k) = (hi + lo)·2^b
    k_words: np.ndarray  # (3, k): a float's words 0, 11 and 12 but for its lead byte and sign
    layouts: np.ndarray  # (k,): 17 times the layout class
    digits: np.ndarray  # (10^4,): the 4 ASCII digits of a group, as one word
    digit_counts: np.ndarray  # (10^4,): the digit count of a group, 1 for 0
    last_digits: np.ndarray  # (10^4,): the place of a group's last nonzero digit, -64 for 0
    int_masks: np.ndarray  # (5, 21): by digit count, the last that many bytes of 5 words
    float_masks: np.ndarray  # (10, 22·17): `_float_masks`, a column each


def _split(a):
    """Dekker's split of a into halves of at most 26 bits each."""
    c = 134217729.0 * a  # 2^27 + 1
    high = c - (c - a)
    return high, a - high


def _words(masks):
    """Rows of uint32 words, 0xFF bytes where masks hold and 0 elsewhere, from 4·words masks per row."""
    return (np.asarray(masks, np.uint8) * 0xFF).view(_WORD)


def _float_masks():
    """What a float keeps of words 1..10, by layout class and last nonzero digit, a row each.

    Class 0 is exponent notation, with the point after the first digit;
    class 1 + j is fixed notation for k = j - 4, with the point after digit
    k, or for k < 0 none, "0." and -k-1 leading zeros before the digits.
    """
    k = np.repeat([17, *range(-4, 17)], 17)[:, None]
    last = np.tile(np.arange(17), 22)[:, None]
    small = (k >= -4) & (k < 0)
    point = np.where(k < 17, np.maximum(k, 0), 0)
    j = np.arange(17)
    return _words(np.hstack([
        small & (np.arange(3) >= k + 4),  # "000"
        j <= point,  # digits up to the point
        np.zeros((len(k), 3), bool), ~small & (last > point),  # the point
        (j[1:] > point) & (j[1:] <= last),  # digits after it
    ]))


@cache
def _tables() -> _Tables:
    """Lookup tables, built from exact integers on first use; by k, each is indexed by k - _K_MIN."""
    pow10 = []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        b = num.bit_length() - den.bit_length()
        n = (num << max(0, 120 - b)) // (den << max(0, b - 120))
        hi = math.ldexp(float(n), -120)
        pow10.append((hi, *_split(hi), math.ldexp(float(n - int(float(n))), -120), b))
    k = np.arange(_K_MIN, _K_MAX + 1)
    fixed = (k >= -4) & (k < 17)
    places = np.abs(k)[:, None] // [100, 10, 1] % 10 + ord("0")
    k_bytes = np.zeros((len(k), 12), np.uint8)  # words 0, 11 and 12
    k_bytes[fixed & (k < 0), 2:4] = [ord("0"), ord(".")]
    k_bytes[~fixed, 4] = ord("e")
    k_bytes[~fixed, 5] = np.where(k < 0, ord("-"), ord("+"))[~fixed]
    k_bytes[~fixed, 6:9] = places[~fixed]
    two = ~fixed & (np.abs(k) < 100)  # "e±dd", with no hundreds place
    k_bytes[two, 6:8] = places[two, 1:]
    k_bytes[two, 8] = 0
    digits = np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10
    nonzero = digits != 0
    tables = _Tables(
        np.array(pow10).T,
        k_bytes.view(_WORD).T.copy(),
        np.where(fixed, k + 5, 0) * 17,
        (digits + ord("0")).astype(np.uint8).view(_WORD).ravel(),
        1 + (np.arange(10000)[:, None] >= [10, 100, 1000]).sum(axis=1, dtype=np.int8),
        np.where(nonzero.any(axis=1), 3 - np.argmax(nonzero[:, ::-1], axis=1), -64).astype(np.int8),
        _words(np.arange(20) >= 20 - np.arange(21)[:, None]).T.copy(),
        _float_masks().T.copy(),
    )
    for table in tables:  # every later call reads these same arrays
        table.setflags(write=False)
    return tables


def _scaled(m, e, k):
    """m·2^e·10^(16-k) as a double-double (s, t), s an integer near 1e16..1e17."""
    hi, hi_high, hi_low, lo, b = _tables().pow10.take(k - _K_MIN, axis=1)
    m_high, m_low = _split(m)
    p = m * hi
    err = ((m_high * hi_high - p) + m_high * hi_low + m_low * hi_high) + m_low * hi_low + m * lo
    s = p + err
    e = e + b.astype(np.int32)
    return np.ldexp(s, e), np.ldexp(err - (s - p), e)


def _groups(magnitude, count):
    """The `count` 4-digit groups of each int64 in 0..10^(4·count)-1, one row each, the highest first."""
    groups = np.empty((count, len(magnitude)), np.int64)
    for i in range(count - 1, 0, -1):
        q = magnitude // 10000
        groups[i] = magnitude - q * 10000
        magnitude = q
    groups[0] = magnitude
    return groups


def _float_slots(a: np.ndarray):
    """The 13-word field of each cell's %.17g, a column each, and which cells are left to `_cell`.

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
    groups = _groups(d, 5)
    tables = _tables()
    # the last nonzero digit, which %g keeps last; 0 for zero
    last = np.maximum((tables.last_digits.take(groups) + _GROUP_STARTS).max(axis=0), 0)
    field = np.empty((13, len(a)), _WORD)
    point, field[11], field[12] = tables.k_words.take(k, axis=1)
    field[0] = point | np.signbit(a) * np.uint32(ord("-") << 8)
    tables.digits.take(groups, out=field[1:6])
    field[6] = ord(".") << 24
    field[7:11] = field[2:6]
    field[1:11] &= tables.float_masks.take(tables.layouts.take(k) + last, axis=1)
    return field, odd


def _int_slots(a: np.ndarray):
    """The field of each cell's %d, a column each, and which cells are left to `_cell`: the negative ones."""
    odd = a < 0
    a = np.where(odd, 0, a).astype(np.int64, copy=False)
    words = len(str(int(a.max(initial=0)))) // 4 + 1
    groups = _groups(a, words)
    tables = _tables()
    # the digit count: the highest nonzero group's, plus 4 for each group below it
    places = 4 * np.arange(words - 1, -1, -1, dtype=np.int8)[:, None]
    count = (tables.digit_counts.take(groups) + places * (groups > 0)).max(axis=0)
    field = tables.digits.take(groups)
    field &= tables.int_masks[5 - words :].take(count, axis=1)
    return field, odd


def _column_slots(a):
    """Field and undecided cells of a column; `_cell` writes any row holding one."""
    if isinstance(a, np.ndarray) and a.dtype == np.float64:
        return _float_slots(a)
    if isinstance(a, np.ndarray) and a.dtype.kind == "i":
        return _int_slots(a)
    return np.zeros((1, len(a)), _WORD), np.ones(len(a), bool)


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write one 1-D column per header name as CSV, each cell's text equal to `_cell`'s.

    numpy formats a float64 or signed-integer ndarray column CSV_CHUNK rows
    at a time from lookup tables: the chunk's fields, one per column, stack
    into one array of words, whose transpose less its NUL bytes is the
    chunk's text.  `_cell` writes each row that holds a cell numpy leaves
    undecided.  Every cell of any other column, a list say, is undecided,
    so `_cell` writes every row of a table that has one.  The file is
    written as bytes with "\\n" line ends on every platform: the header
    line, each row opening with the "\\n" that ends the line above, and a
    last "\\n".  A column count other than len(header), or columns of
    unequal length, raise ValueError.
    """
    lengths = {len(column) for column in columns}
    if len(columns) != len(header) or len(lengths) > 1:
        raise ValueError(
            f"{len(columns)} columns of lengths {sorted(lengths)} under {len(header)} header names"
        )
    with open(path, "wb") as f:
        f.write(",".join(header).encode())
        for start in range(0, max(lengths, default=0), CSV_CHUNK):
            chunk = [column[start : start + CSV_CHUNK] for column in columns]
            fields = [_column_slots(column) for column in chunk]
            words = np.concatenate([field for field, _ in fields])
            leads = np.cumsum([0] + [len(field) for field, _ in fields[:-1]])
            words[leads] |= np.array([ord("\n")] + [ord(",")] * (len(leads) - 1), np.uint32)[:, None]
            words = words[words.max(axis=1) > 0]  # a word no cell keeps a byte of adds nothing
            # no byte but a lead is "\n", so an undecided row is its line whatever its bytes
            text = words.T.tobytes().translate(None, b"\0")
            undecided = np.flatnonzero(np.any([odd for _, odd in fields], axis=0))
            if undecided.size:
                lines = text.split(b"\n")  # lines[0] is empty: the text opens with "\n"
                for i in undecided.tolist():
                    lines[i + 1] = ",".join(_cell(column[i]) for column in chunk).encode()
                text = b"\n".join(lines)
            f.write(text)
        f.write(b"\n")


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


def _resolve_u(config: ExperimentConfig, params: ModelParams, mode: str | None) -> int:
    """Threshold from --u, or else from --epsilon by the experiment's own mode.

    profile has no mode of its own, so it needs --u.
    """
    if config.u is not None:
        return config.u
    if mode is None:
        raise ValueError(f"{config.experiment}: --u is required")
    if config.epsilon is None:
        raise ValueError(f"{config.experiment}: --u or --epsilon is required")
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
    if epsilon is not None:
        _check_real("epsilon", epsilon, 0.0, math.inf)
        try:
            b = bnd.make_bound_set(params.lam, params.n, epsilon)
            consts = (b.q1, b.q2, b.theta)
        except ValueError:  # no q2 or theta at this eps; only bounds-report needs them
            consts = (math.nan,) * 3
        for name, v in zip(("q1", "q2", "theta"), consts):
            out[name] = None if math.isnan(v) else v
    # kappa_n underflows to 0 for large lam; its log is the floor that check_ratio_kappa compares
    log_kappa = bnd.log_kappa_floor(params.lam, params.n)
    out["kappa_n"] = None if math.isnan(log_kappa) else math.exp(log_kappa)
    out["log_kappa_n"] = None if math.isnan(log_kappa) else log_kappa
    return out


def _profile_step(
    config: ExperimentConfig, mode: str | None, *required: str, check=lambda u: None
) -> tuple[HittingProfile, dict]:
    """Check the flags, resolve u, `check(u)`, get u's profile; returns it and its summary fields."""
    params = _params(config)
    _require(config, *required)
    u = _resolve_u(config, params, mode)
    _check_threshold(params, u)
    check(u)
    constants = _constants(params, config.epsilon, u)
    (profile,) = _get_profiles(config, params, u)
    return profile, {
        "constants": constants,
        "residual": profile.residual,
        "solve": _solve_summary(profile),
    }


def _exp_profile(config: ExperimentConfig) -> tuple[tuple, dict]:
    profile, summary = _profile_step(config, None)
    log_phi = profile.log_phi.tolist()
    columns = [range(profile.u), log_phi, [math.exp(v) or "" for v in log_phi]]
    return (["x", "log_phi_natural", "phi_if_representable"], columns), summary


def _exp_figure1(config: ExperimentConfig) -> tuple[tuple, dict]:
    profile, summary = _profile_step(config, "window")
    columns = [np.arange(profile.u), profile.log_phi / math.log(10.0)]
    return (["x", "log10_h"], columns), summary


def _exp_figure2(config: ExperimentConfig) -> tuple[tuple, dict]:
    profile, summary = _profile_step(config, "window")
    rows = tilted_kernel(profile)
    m, u = rows.shape
    columns = [np.arange(1, u).repeat(u), np.tile(np.arange(u), m), rows.ravel()]
    return (["x", "y", "p_phi"], columns), summary


def _exp_cond_time(config: ExperimentConfig) -> tuple[tuple, dict]:
    profile, summary = _profile_step(config, "window")
    t = conditional_expected_extinction(profile).tolist()
    ratio = [""] + [t[x] / math.log1p(x) for x in range(1, profile.u)]
    return (["x", "t", "t_over_log1p"], [range(profile.u), t, ratio]), summary


def _exp_uncond_time(config: ExperimentConfig) -> tuple[tuple, dict]:
    _require(config, "lam")
    if not config.n_sweep:
        raise ValueError("uncond-time: --n takes a comma-separated sweep, e.g. 20,30,40,50")
    starts = []  # every sweep entry is checked before the first solve
    for n in config.n_sweep:
        params = ModelParams(config.lam, n)
        _check_unconditional_cap(n)
        x = config.x0 if config.x0 is not None else -(-n // 2)
        starts.append((params, _check_int("--x0", x, 1, n)))
    constants = {"q": gw_extinction_prob(config.lam)}
    rows = []
    for params, x in starts:
        t = unconditional_expected_extinction(params)
        rows.append((params.n, x, t[x], math.log(t[x])))
    header = ["n", "x", "expected_T0", "ln_expected_T0"]
    return (header, list(zip(*rows))), {"constants": constants}


def _exp_occupation(config: ExperimentConfig) -> tuple[tuple, dict]:
    check = partial(_check_band, config.delta, config.n)  # called with u
    profile, summary = _profile_step(config, "window", "delta", check=check)
    t = conditional_occupation_time(profile, config.delta)
    columns = [np.arange(profile.u), t]
    return (["x", "expected_band_time"], columns), {"delta": config.delta, **summary}


def _estimate_outputs(estimate, summary: dict) -> tuple[tuple, dict]:
    """Time `estimate()`; its CSV row, and summary with the chain steps and trial rate."""
    started = time.perf_counter()
    est = estimate()
    seconds = time.perf_counter() - started
    columns = [[est.mean], [est.std_error], [est.trials], [est.seed]]
    return (["estimate", "std_error", "trials", "seed"], columns), {
        **summary,
        "steps_total": est.steps_total,
        "steps_max": est.steps_max,
        "trials_per_s": est.trials / seconds,
    }


def _exp_mc_hitting(config: ExperimentConfig) -> tuple[tuple, dict]:
    params = _params(config)
    _require(config, "x0", "trials", "seed")
    u = _resolve_u(config, params, "low")
    constants = _constants(params, config.epsilon, u)
    run = partial(estimate_hitting_prob, params, u, config.x0, config.trials, config.seed)
    return _estimate_outputs(run, {"constants": constants})


def _exp_mc_cond_path(config: ExperimentConfig) -> tuple[tuple, dict]:
    check = partial(_check_conditioned_run, config.x0, config.trials, config.seed)  # called with u
    profile, step = _profile_step(config, "window", "x0", "trials", "seed", check=check)
    run = partial(estimate_conditioned_length, profile, config.x0, config.trials, config.seed)
    return _estimate_outputs(run, step)


def _exp_equivalence(config: ExperimentConfig) -> tuple[tuple, dict]:
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
    exact = np.exp(transition_log_rows(params, (config.x0,))[0])
    columns = [[n], [params.lam], [config.x0], [config.trials], [tv_distance(empirical, exact)]]
    return (["n", "lambda", "x", "trials", "tv_distance"], columns), {"constants": constants}


def _exp_bounds_report(config: ExperimentConfig) -> tuple[str, dict]:
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
        if not math.isnan(bset.kappa_n):
            reports.append(bnd.check_ratio_kappa(profiles["window"], bset))
    if not math.isnan(bset.gamma):
        reports.append(bnd.check_gamma_ratio(bset))
    return bnd.render_reports(reports), {
        "constants": _constants(params, config.epsilon, None),
        "alpha": bset.alpha,
        "gamma": None if math.isnan(bset.gamma) else bset.gamma,
        "checks": {r.name: r.passed for r in reports},
        "solve": solves,
    }


def run_experiment(config: ExperimentConfig) -> dict:
    """Run one experiment, write its output and summary.json to --out; return the summary."""
    if config.experiment not in _EXPERIMENTS:
        raise ValueError(f"unknown experiment {config.experiment!r}")
    experiment, name, _ = _EXPERIMENTS[config.experiment]
    for flag, path in (("--out", config.out_dir), ("--cache", config.cache_dir)):
        if path is None:
            continue
        # the nearest of path and its ancestors that exists, or is a link, must be a directory
        nearest = next(p for p in (Path(path), *Path(path).parents) if p.exists() or p.is_symlink())
        if not nearest.is_dir():
            raise ValueError(f"{flag} {path}: {nearest} is not a directory")
    out = Path(config.out_dir)
    for path in (out / name, out / "summary.json"):
        if path.is_dir():
            raise ValueError(f"--out {out}: {path} is a directory")
        if path.is_symlink() and not path.exists():
            raise ValueError(f"--out {out}: {path} is a dangling link")
    started = time.perf_counter()
    output, summary = experiment(config)
    out.mkdir(parents=True, exist_ok=True)
    if isinstance(output, str):
        (out / name).write_text(output)
    else:
        _write_csv(out / name, *output)
    summary["files"] = [name]
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
    "--trials": {"type": int},
    "--seed": {"type": int},
    "--graph": {"type": str, "help": "graph file path"},
    "--self-loops": {"type": _zero_or_one, "metavar": "{0,1}"},
    "--cache": {"dest": "cache_dir", "type": Path, "default": None},
}

_THRESHOLD = ("--lambda", "--n", "--epsilon", "--u")
_TRIALS = ("--x0", "--trials", "--seed")

#: each experiment's function, its one output file and the flags it reads
#: besides --out; any other flag is exit 2
_EXPERIMENTS = {
    "profile": (_exp_profile, "phi.csv", (*_THRESHOLD, "--cache")),
    "figure1": (_exp_figure1, "logh.csv", (*_THRESHOLD, "--cache")),
    "figure2": (_exp_figure2, "kernel.csv", (*_THRESHOLD, "--cache")),
    "cond-time": (_exp_cond_time, "t.csv", (*_THRESHOLD, "--cache")),
    "uncond-time": (_exp_uncond_time, "T.csv", ("--lambda", "--n", "--x0")),
    "occupation": (_exp_occupation, "h_occ.csv", (*_THRESHOLD, "--delta", "--cache")),
    "mc-hitting": (_exp_mc_hitting, "est.csv", (*_THRESHOLD, *_TRIALS)),
    "mc-cond-path": (_exp_mc_cond_path, "est.csv", (*_THRESHOLD, *_TRIALS, "--cache")),
    "equivalence": (_exp_equivalence, "tv.csv",
                    ("--lambda", "--n", "--graph", "--self-loops", *_TRIALS)),
    "bounds-report": (_exp_bounds_report, "report.txt",
                      ("--lambda", "--n", "--epsilon", "--alpha", "--cache")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barw",
        description="Exact analysis and simulation of mean-field branching-annihilating random walk.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, (_, _, flags) in _EXPERIMENTS.items():
        sp = sub.add_parser(name)
        for flag in flags:
            settings = _ARGUMENTS[flag]
            if name == "uncond-time" and flag == "--n":
                sweep = "comma-separated site counts, e.g. 20,30,40,50"
                settings = {"dest": "n_sweep", "type": _n_sweep, "default": (), "help": sweep}
            sp.add_argument(flag, **settings)
        sp.add_argument("--out", dest="out_dir", type=Path, required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        summary = run_experiment(ExperimentConfig(**vars(args)))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
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
