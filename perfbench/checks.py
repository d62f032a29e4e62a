"""Output checks for benchmark operations, against reference.json.

Exact outputs are compared value by value within a stated tolerance, not by
bytes, so a solver that moves log phi by 1e-11 still passes:

- every CSV keeps its header, its row count and its empty cells;
- sampled rows (all rows of the small files, about 400 rows of kernel.csv)
  match cell by cell, and every numeric column sum matches;
- the bounds report keeps its checks, every one PASSes, and every number in
  it matches.

Monte Carlo outputs are checked against exact values: the two estimates must
lie within 4 standard errors of the exact value, and the equivalence TV
distance within `tv_bound`.  Byte-identical CSVs are counted separately, as
a diagnostic.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

REL_TOL = 1e-9
ABS_TOL = 1e-12
#: residual contract of every hitting profile (README: harmonicity <= 1e-8)
RESIDUAL_TOL = 1e-8
#: Monte Carlo estimates must lie within this many standard errors
MC_SIGMAS = 4.0
#: false-failure probability allowed to the TV concentration term
TV_DELTA = 1e-6

EXACT_EXPERIMENTS = ("profile", "figure1", "figure2", "cond-time", "uncond-time", "occupation")
#: rows kept per CSV in the reference: all of a small file, a stride of a large one
SAMPLE_ROWS = 400


@dataclass
class OpCheck:
    """What checking one operation's outputs found."""

    problems: list[str] = field(default_factory=list)
    csv_bytes: int = 0
    csv_identical: int = 0


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(Path(path).read_text())


def ref_key(scale: str, experiment: str, name: str) -> str:
    return f"{scale}/{experiment}/{name}"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _close(a: float, b: float, abs_tol: float = ABS_TOL) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=abs_tol)


# ---------------------------------------------------------------------------
# CSV files
# ---------------------------------------------------------------------------


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def sample_indices(rows: int) -> list[int]:
    stride = max(1, rows // SAMPLE_ROWS)
    idx = list(range(0, rows, stride))
    if rows and idx[-1] != rows - 1:
        idx.append(rows - 1)
    return idx


def column_sums(rows: list[list[str]], width: int) -> list[float]:
    """math.fsum of each column's nonempty cells."""
    return [math.fsum(float(r[c]) for r in rows if r[c] != "") for c in range(width)]


def csv_reference(data: bytes, exact: bool) -> dict:
    """Reference entry for one CSV: its header, plus its values when exact."""
    header, rows = parse_csv(data.decode())
    entry = {"header": header}
    if exact:
        entry["sha256"] = sha256(data)
        entry["rows"] = len(rows)
        entry["sample"] = [[i, rows[i]] for i in sample_indices(len(rows))]
        entry["column_sums"] = column_sums(rows, len(header))
    return entry


def _cells_match(got: str, want: str) -> bool:
    if got == "" or want == "":
        return got == want
    return _close(float(got), float(want))


def check_csv(name: str, data: bytes, ref: dict) -> list[str]:
    """Problems with one CSV against its reference entry."""
    try:
        header, rows = parse_csv(data.decode())
    except (UnicodeDecodeError, IndexError) as exc:
        return [f"{name}: unreadable ({exc})"]
    if header != ref["header"]:
        return [f"{name}: header {header} != {ref['header']}"]
    if "sha256" not in ref or sha256(data) == ref["sha256"]:
        return []
    if len(rows) != ref["rows"]:
        return [f"{name}: {len(rows)} rows, reference has {ref['rows']}"]
    problems = []
    try:
        if any(len(r) != len(header) for r in rows):
            return [f"{name}: a row does not have {len(header)} cells"]
        for i, want in ref["sample"]:
            if not all(_cells_match(g, w) for g, w in zip(rows[i], want)):
                problems.append(f"{name}: row {i} {rows[i]} != reference {want}")
                break
        for c, (got, want) in enumerate(zip(column_sums(rows, len(header)), ref["column_sums"])):
            if not _close(got, want, ABS_TOL * max(1, len(rows))):
                problems.append(f"{name}: column {header[c]} sums to {got!r}, reference {want!r}")
    except ValueError as exc:
        problems.append(f"{name}: non-numeric cell ({exc})")
    return problems


# ---------------------------------------------------------------------------
# bounds report
# ---------------------------------------------------------------------------


def parse_report(text: str) -> list[dict]:
    """report.txt as a list of {name, params, result, extremes, violations}."""
    checks = []
    for block in text.strip().split("\n\n"):
        fields = dict(line.split(": ", 1) for line in block.splitlines() if ": " in line)
        checks.append(
            {
                "name": fields.get("check"),
                "params": dict(kv.split("=", 1) for kv in fields.get("params", "").split()),
                "result": fields.get("result"),
                "extremes": dict(kv.split("=", 1) for kv in fields.get("extremes", "").split()),
                "violations": fields.get("violations"),
            }
        )
    return checks


def _values_match(got: dict, want: dict) -> bool:
    if got.keys() != want.keys():
        return False
    for k, w in want.items():
        try:
            if not _close(float(got[k]), float(w)):
                return False
        except ValueError:
            if got[k] != w:
                return False
    return True


def check_report(data: bytes, ref: dict) -> list[str]:
    try:
        got = parse_report(data.decode())
    except ValueError as exc:
        return [f"report.txt: unreadable ({exc})"]
    names = [c["name"] for c in got]
    want_names = [c["name"] for c in ref["checks"]]
    if names != want_names:
        return [f"report.txt: checks {names} != reference {want_names}"]
    problems = []
    for g, w in zip(got, ref["checks"]):
        if g["result"] != "PASS" or g["violations"] != "none":
            problems.append(f"report.txt: check {g['name']} is {g['result']}")
        for part in ("params", "extremes"):
            if not _values_match(g[part], w[part]):
                problems.append(f"report.txt: {g['name']} {part} {g[part]} != {w[part]}")
    return problems


# ---------------------------------------------------------------------------
# Monte Carlo outputs
# ---------------------------------------------------------------------------


def tv_bound(pmf: list[float], trials: int) -> float:
    """High-probability bound on the TV distance of an empirical pmf.

    E[TV] <= 0.5 * sum_k sqrt(p_k (1 - p_k) / N) by Jensen, and TV changes
    by at most 1/N when one trial changes, so by McDiarmid's inequality
    P[TV >= E[TV] + t] <= exp(-2 N t^2); t is set so that this is TV_DELTA.
    """
    mean_term = 0.5 * math.fsum(math.sqrt(p * (1.0 - p) / trials) for p in pmf)
    return mean_term + math.sqrt(math.log(1.0 / TV_DELTA) / (2.0 * trials))


def _single_row(data: bytes) -> dict:
    header, rows = parse_csv(data.decode())
    if len(rows) != 1 or len(rows[0]) != len(header):
        raise ValueError("expected exactly one data row")
    return dict(zip(header, rows[0]))


#: ExperimentConfig field -> the output column that echoes it
_ECHOED = {"trials": "trials", "seed": "seed", "n": "n", "lam": "lambda", "x0": "x"}


def check_mc(experiment: str, fields: dict, data: bytes, exact: dict) -> list[str]:
    try:
        row = _single_row(data)
        echoed = {f: float(row[c]) for f, c in _ECHOED.items() if c in row}
        value = float(row["estimate"] if "estimate" in row else row["tv_distance"])
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        return [f"{experiment}: unreadable output ({exc})"]
    wrong = {f: v for f, v in echoed.items() if v != fields[f]}
    if wrong:
        return [f"{experiment}: output echoes {wrong}, configured {fields}"]
    trials = fields["trials"]
    if experiment == "equivalence":
        limit = tv_bound(exact["bin_30_b10"], trials)
        ok = 0.0 <= value <= limit
        what = f"TV {value!r} exceeds its bound {limit!r}"
    else:
        if experiment == "mc-hitting":
            target = exact["phi_10_3"]["value"]
            se = math.sqrt(target * (1.0 - target) / trials)
        else:
            target = exact["t_20"]["value"]
            se = exact["t_20"]["sd"] / math.sqrt(trials)
        ok = abs(value - target) <= MC_SIGMAS * se
        what = f"estimate {value!r} is more than {MC_SIGMAS:g} SE ({se:.3g}) from {target!r}"
    return [] if ok else [f"{experiment}: {what}"]


# ---------------------------------------------------------------------------
# one operation
# ---------------------------------------------------------------------------


def check_op(reference: dict, scale: str, experiment: str, fields: dict,
             out_dir: Path, summary: dict) -> OpCheck:
    """Check everything one run_experiment call wrote into out_dir."""
    result = OpCheck()
    files = reference["files"]
    expected = sorted(k.rsplit("/", 1)[1] for k in files if k.startswith(f"{scale}/{experiment}/"))
    if sorted(summary.get("files", [])) != expected:
        result.problems.append(f"{experiment}: wrote {summary.get('files')}, expected {expected}")
        return result
    residual = summary.get("residual")
    if residual is not None and not residual <= RESIDUAL_TOL:
        result.problems.append(f"{experiment}: residual {residual!r} exceeds {RESIDUAL_TOL:g}")
    if not all(summary.get("checks", {}).values()):
        result.problems.append(f"{experiment}: summary checks {summary['checks']}")
    for name in expected:
        ref = files[ref_key(scale, experiment, name)]
        try:
            data = (out_dir / name).read_bytes()
        except OSError as exc:
            result.problems.append(f"{experiment}: {exc}")
            continue
        if name == "report.txt":
            result.problems += check_report(data, ref)
            continue
        result.csv_bytes += len(data)
        result.csv_identical += ref.get("sha256") == sha256(data)
        result.problems += check_csv(name, data, ref)
        if experiment not in EXACT_EXPERIMENTS and not result.problems:
            result.problems += check_mc(experiment, fields, data, reference["exact"])
    return result
