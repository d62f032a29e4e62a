"""Exact solves for the absorbing count chain.

Hitting probabilities phi_u(x) = P_x[hit 0 before reaching >= u] solve the
first-step system phi(x) = p(x,0) + sum_{0<y<u} p(x,y) phi(y).  They decay
geometrically in x, far below the smallest double, and above eq I - Q is
nearly singular.  Every threshold is solved by subtraction-free (GTH)
elimination on the rescaled matrix D^-1 Q D, D = diag(e^s) with s an
estimate of log phi from below, in native doubles and in panels, while
the O(u) vectors of masses and pivots stay in logs.  Where the estimate
s falls far short, the solve is repeated, scaled by its own result, until
it reaches a fixed point.  Conditioning on that hitting event is a Doob
transform of the kernel by phi; expected absorption and occupation times
under the conditioned chain are ordinary dense solves.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .chain import (
    LOG_ZERO,
    ModelParams,
    _cdf_rows,
    _log_top_masses,
    _logsumexp_rows,
    _transient_log_rows,
)

HARMONICITY_TOL = 1e-8
ROW_SUM_TOL = 1e-9
VI_TOL = 1e-13
VI_MAX_SWEEPS = 10**6
#: scaled GTH zeroes entries below e^LOG_NEGLIGIBLE, so any product of two
#: kept entries is a normal double (e^-700 > 2.2e-308)
LOG_NEGLIGIBLE = -350.0
#: a floor-scaled solve whose psi = phi / e^s exceeds e^LOG_SCALE_GAP is
#: redone, scaled by its own result, until a pass moves log phi by at most
#: RESCALE_TOL; at most RESCALE_PASSES passes in all
LOG_SCALE_GAP = 100.0
RESCALE_TOL = 1e-9
RESCALE_PASSES = 8
#: GTH eliminates this many pivots between two trailing matrix products
_PANEL = 32
UNCONDITIONAL_N_CAP = 400

METHOD_LOGDOMAIN = "dense-logdomain"
METHOD_VI = "value-iteration"
METHOD_CACHED = "cached"

#: version 2 keeps version 1's layout.  Version-1 files with u above eq may
#: hold the plain native solve, which is wrong there, so they are refused.
PROFILE_FORMAT_VERSION = 2


class SolverError(RuntimeError):
    """A solve finished without meeting its residual contract."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class KernelConsistencyError(RuntimeError):
    """Tilted rows failed to sum to 1 within tolerance, signalling a bad profile."""


class ProfileFormatError(ValueError):
    """A profile text file could not be parsed; `path` names the file."""

    def __init__(self, message: str, path: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class HittingProfile:
    """log phi_u(x) for x = 0..u-1, plus the solve's residual and method.

    All entries are logs of strictly positive probabilities (every transient
    state reaches 0 in one step with positive mass), so a plain float vector
    of natural logs carries the sign-(+1) values losslessly.
    """

    params: ModelParams
    u: int
    log_phi: np.ndarray
    residual: float
    method: str

    def __post_init__(self):
        object.__setattr__(self, "log_phi", _frozen(self.log_phi))
        if self.u < 1 or len(self.log_phi) != self.u:
            raise ValueError(f"log_phi must hold exactly u={self.u} entries")
        if self.log_phi[0] != 0.0:
            raise ValueError("phi(0) must be 1 (log 0.0): absorption already happened")
        if not np.all(np.isfinite(self.log_phi)):
            raise ValueError("all phi entries must be strictly positive")

    def phi(self, x: int) -> float:
        """phi(x) as a native float (0.0 if the value underflows)."""
        return float(np.exp(self.log_phi[x]))


@dataclass(frozen=True)
class TiltedKernel:
    """Transition law of the chain conditioned to die before reaching u.

    rows[x-1, y] = p(x,y) * phi(y) / phi(x) for x in 1..u-1, y in 0..u-1.
    """

    u: int
    rows: np.ndarray
    source: HittingProfile = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "rows", _frozen(self.rows))
        if self.rows.shape != (self.u - 1, self.u):
            raise ValueError(f"rows must have shape ({self.u - 1}, {self.u})")

    @cached_property
    def row_cdfs(self) -> np.ndarray:
        """Per-row CDFs ending at exactly 1, for inverse-CDF sampling."""
        return _cdf_rows(self.rows)


@dataclass(frozen=True)
class TimeProfile:
    """Expected step counts t[x] indexed by starting state x = 0, 1, ..."""

    values: np.ndarray
    conditional: bool

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values))
        if self.values[0] != 0.0:
            raise ValueError("t(0) must be 0")


def _solve_m_matrix(Q: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (I - Q) x = b by Gaussian elimination without pivoting, native doubles.

    Q is substochastic, so I - Q is a nonsingular M-matrix, for which
    elimination in natural order is stable.  I - Q is formed here, in the
    one m x m array the elimination works in; Q and b are left as they are.
    Row updates are elementwise vector operations, so results are
    bit-reproducible: no BLAS reductions with data-dependent ordering are
    involved.
    """
    m = b.size
    A = np.subtract(0.0, Q)
    A.flat[:: m + 1] += 1.0  # bit for bit np.eye(m) - Q
    b = b.copy()
    for k in range(m):
        akk = A[k, k]
        if not akk > 0.0:
            raise SolverError(f"nonpositive pivot at elimination step {k}")
        f = A[k + 1 :, k] / akk
        A[k + 1 :, k + 1 :] -= f[:, None] * A[k, k + 1 :][None, :]
        b[k + 1 :] -= f * b[k]
    x = np.empty(m)
    for i in range(m - 1, -1, -1):
        x[i] = (b[i] - np.sum(A[i, i + 1 :] * x[i + 1 :])) / A[i, i]
    return x


def _path_floor(log_p: np.ndarray) -> np.ndarray:
    """s(x) = log-probability of the likeliest path from x to 0 below u, x = 0..u-1.

    Every such path is one way of hitting 0 before reaching u, so s is a
    rigorous lower bound on log phi.  It is a max-plus shortest path on
    the weights -log p(x, y) >= 0, found by dense Dijkstra from 0 in O(u^2).
    Paths may climb: far above eq the likeliest route to 0 first goes up,
    where b(x) is smallest, and a floor over descending paths alone falls
    more than e^709 below phi.
    """
    m = log_p.shape[0]
    s = np.full(m + 1, LOG_ZERO)
    s[0] = 0.0
    done = np.zeros(m + 1, dtype=bool)
    for _ in range(m + 1):
        y = int(np.argmax(np.where(done, LOG_ZERO, s)))
        done[y] = True
        # finished states hold s >= s[y] >= log p + s[y]: relaxing them is a no-op
        np.maximum(s[1:], log_p[:, y] + s[y], out=s[1:])
    return s


def _solve_gth_scaled(log_p: np.ndarray, log_top: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Solve phi = c + Q phi by GTH elimination on D^-1 Q D; returns log phi(1..u-1).

    log_p holds log p(x, y) for x = 1..u-1, y = 0..u-1, so c = p(., 0) and
    Q = p(., 1..u-1); log_top is the one-step mass to >= u.  GTH (Grassmann,
    Taksar and Heyman, Oper. Res. 33, 1985) carries c and top as two
    absorbing columns and takes every pivot 1 - Q_kk as the sum of state
    k's remaining outgoing masses, so nothing is ever subtracted.

    phi spans far more orders of magnitude than a double, so the solve
    finds psi = phi / e^s on A = D^-1 Q D, D = diag(e^s), with s an
    estimate of log phi(1..u-1) from below.  The O(m^3) elimination is a
    native multiply-add; pivots, c and top (O(m) per step) stay in logs,
    as raw masses.

    The elimination is the right-looking block LU (Golub and Van Loan,
    Matrix Computations, 3.2): a panel of _PANEL pivots updates only its
    own rows and columns, so each pivot sees its fully updated row, and
    the trailing block then takes the panel's updates as one matrix
    product.  Every term of that product is a product of nonnegatives, so
    its summation order keeps GTH's entrywise relative accuracy
    (O'Cinneide, Numer. Math. 65, 1993).

    Entries with log A below LOG_NEGLIGIBLE are set to 0, which keeps every
    product of two kept entries a normal double.  Where the scaling alone,
    e^(s_y - s_x), is below e^(LOG_NEGLIGIBLE / 2), phi(y) is negligible
    beside phi(x): the raw mass, which may be large (a jump against a
    strong drift), moves to top, so the pivot keeps it.  Otherwise the raw
    mass itself is below e^(LOG_NEGLIGIBLE / 2) and is dropped, as if it
    were a self-loop.  Moving such a mass to top instead would pose as an
    escape to >= u, which in a chain trapped far above eq can be far rarer
    still.  Each way drops a share of at most
    e^(LOG_NEGLIGIBLE / 2) * psi(y) / psi(x) from phi(x), with psi the
    true phi / e^s, which the pass itself cannot see (see _solve_logdomain).
    """
    m = s.size
    A = np.add(log_p[:, 1:], s[None, :])
    A -= s[:, None]
    negligible = A < LOG_NEGLIGIBLE
    np.fill_diagonal(negligible, False)  # the diagonal is never a pivot mass
    buf = np.subtract(s[None, :], s[:, None])
    to_top = negligible & (buf < LOG_NEGLIGIBLE / 2)
    buf.fill(LOG_ZERO)
    np.copyto(buf, log_p[:, 1:], where=to_top)
    del to_top
    top = np.logaddexp(log_top, _logsumexp_rows(buf))
    del buf
    np.exp(A, out=A)
    A[negligible] = 0.0
    del negligible
    log_c = log_p[:, 0] - s  # log of the scaled mass to 0
    log_pivot = np.empty(m)
    with np.errstate(divide="ignore"):
        for k0 in range(0, m, _PANEL):
            k1 = min(k0 + _PANEL, m)
            for k in range(k0, k1):
                log_row = np.log(A[k, k + 1 :]) + (s[k] - s[k + 1 :])
                log_pivot[k] = _logsumexp_rows(np.concatenate(([log_c[k] + s[k], top[k]], log_row)))
                col = A[k + 1 :, k]
                col /= math.exp(log_pivot[k])  # column k now holds the multipliers
                row = A[k, k + 1 :]
                w = k1 - k - 1  # panel rows and columns after k
                A[k + 1 : k1, k + 1 :] += np.multiply.outer(col[:w], row)
                A[k1:, k + 1 : k1] += np.multiply.outer(col[w:], row[:w])
                f = np.log(col)  # log(Q_ik / pivot) + s_k - s_i
                np.logaddexp(log_c[k + 1 :], f + log_c[k], out=log_c[k + 1 :])
                np.logaddexp(top[k + 1 :], f + (s[k + 1 :] - s[k] + top[k]), out=top[k + 1 :])
            A[k1:, k1:] += A[k1:, k0:k1] @ A[k0:k1, k1:]

    psi = np.empty(m)
    c = np.exp(log_c)
    pivot = np.exp(log_pivot)
    for i in range(m - 1, -1, -1):
        psi[i] = (c[i] + np.sum(A[i, i + 1 :] * psi[i + 1 :])) / pivot[i]
    return np.log(psi) + s


def _solve_logdomain(log_p: np.ndarray, log_top: np.ndarray) -> np.ndarray:
    """log phi(1..u-1) by scaled GTH, rescaled by its own result until it settles.

    The first pass scales by the path floor.  Its result is returned when
    psi = phi / e^s stays below e^LOG_SCALE_GAP.  That exit is a measured
    rule, not a proof, since a pass that fell short would understate its
    own psi too: it holds for every configuration from eq down, and every
    first pass that took it matched the all-log-domain solve within 2e-12
    in log phi (lam 1.5 to 8, n up to 3000, u up to n).

    Far above eq phi gathers e^(cn) looping paths that the floor, a single
    path, misses: at lam=4, n=u=2000 by about e^730.  The zeroed entries
    then hold shares of phi that matter.  Each further pass scales by the
    previous result, and a pass is returned only at a fixed point, once it
    moves log phi by at most RESCALE_TOL.  The scaling is then the answer
    itself, so every zeroed entry carried less than e^LOG_NEGLIGIBLE of the
    returned phi(x), and a pivot missed at most raw masses below
    e^(LOG_NEGLIGIBLE / 2) kept as self-loops.
    """
    s = _path_floor(log_p)[1:]
    log_phi = _solve_gth_scaled(log_p, log_top, s)
    if np.max(log_phi - s) <= LOG_SCALE_GAP:
        return log_phi
    for _ in range(RESCALE_PASSES - 1):
        s = log_phi
        log_phi = _solve_gth_scaled(log_p, log_top, s)
        if np.max(np.abs(log_phi - s)) <= RESCALE_TOL:
            return log_phi
    raise SolverError(f"scaled GTH did not settle within {RESCALE_PASSES} passes")


def _harmonicity_residual(log_p: np.ndarray, log_phi: np.ndarray) -> float:
    """max_x | logsumexp_y(log p(x,y) + log phi(y)) - log phi(x) |, over x = 1..u-1 (u >= 2)."""
    lhs = _logsumexp_rows(log_p + log_phi[None, :])
    return float(np.max(np.abs(lhs - log_phi[1:])))


def hitting_profile(params: ModelParams, u: int, method: str = METHOD_LOGDOMAIN) -> HittingProfile:
    """Solve for phi_u(x) = P_x[hit 0 before reaching >= u], x = 0..u-1.

    The dense solve, dense-logdomain, is GTH elimination on D^-1 Q D (see
    _solve_logdomain) at every threshold: it carries the one-step masses to
    0 and to >= u as two absorbing columns, never subtracts, and keeps
    phi's relative accuracy however small it gets, also above eq, where
    I - Q is nearly singular.  method="value-iteration" is the independent
    cross-check, a monotone fixed-point iteration from phi = 0.
    """
    if not 1 <= u <= params.n:
        raise ValueError(f"threshold {u} outside [1, {params.n}]")
    if method not in (METHOD_LOGDOMAIN, METHOD_VI):
        raise ValueError(f"unknown method {method!r}")
    if u == 1:
        return HittingProfile(params, 1, np.zeros(1), 0.0, method)

    log_p = _transient_log_rows(params, u)
    if method == METHOD_LOGDOMAIN:
        log_phi = np.concatenate(([0.0], _solve_logdomain(log_p, _log_top_masses(params, u))))
    else:
        log_phi = _value_iteration(log_p, u)

    residual = _harmonicity_residual(log_p, log_phi)
    if not residual <= HARMONICITY_TOL:
        raise SolverError(
            f"harmonicity residual {residual:.3e} exceeds {HARMONICITY_TOL:.0e}",
            residual=residual,
        )
    return HittingProfile(params, u, log_phi, residual, method)


def _value_iteration(log_p: np.ndarray, u: int) -> np.ndarray:
    """Monotone iteration phi_{k+1}(x) = p(x,0) + sum p(x,y) phi_k(y), in logs.

    phi_k(x) is the probability of absorption within k steps while staying
    below u, so the iterates increase to the true phi.
    """
    log_phi = np.full(u, LOG_ZERO)
    log_phi[0] = 0.0
    for _ in range(VI_MAX_SWEEPS):
        nxt = np.concatenate(([0.0], _logsumexp_rows(log_p + log_phi[None, :])))
        change = np.max(np.abs(nxt - log_phi))
        log_phi = nxt
        if change < VI_TOL:
            return log_phi
    raise SolverError(
        f"value iteration did not converge in {VI_MAX_SWEEPS} sweeps",
        residual=float(change),
    )


def tilted_kernel(profile: HittingProfile) -> TiltedKernel:
    """Doob transform of the kernel by phi: rows over y = 0..u-1 for x = 1..u-1.

    Each raw row must already sum to 1 within 1e-9 (harmonicity of phi);
    rows are then renormalized exactly.  A larger deviation means the
    profile is inconsistent with the kernel and is reported as an error.
    """
    if not profile.residual <= HARMONICITY_TOL:
        raise ValueError(f"profile residual {profile.residual:.3e} out of contract")
    u = profile.u
    if u == 1:
        return TiltedKernel(1, np.zeros((0, 1)), profile)
    log_p = _transient_log_rows(profile.params, u)
    log_rows = log_p + profile.log_phi[None, :] - profile.log_phi[1:, None]
    rows = np.exp(log_rows)
    sums = rows.sum(axis=1)
    worst = int(np.argmax(np.abs(sums - 1.0)))
    if abs(sums[worst] - 1.0) > ROW_SUM_TOL:
        raise KernelConsistencyError(
            f"tilted row for x={worst + 1} sums to {sums[worst]:.12f}, "
            f"off by more than {ROW_SUM_TOL:.0e}"
        )
    return TiltedKernel(u, rows / sums[:, None], profile)


def _conditioned_time(kernel: TiltedKernel, r: np.ndarray) -> TimeProfile:
    """Solve t = r + P_phi t over x = 1..u-1 under the conditioned chain, t(0) = 0."""
    t = _solve_m_matrix(kernel.rows[:, 1:], r)
    return TimeProfile(np.concatenate(([0.0], t)), conditional=True)


def conditional_expected_extinction(kernel: TiltedKernel) -> TimeProfile:
    """Expected steps to absorption under the conditioned chain, t(0) = 0."""
    return _conditioned_time(kernel, np.ones(kernel.u - 1))


def _check_unconditional_cap(n: int) -> None:
    """Refuse an unconditional solve with n above UNCONDITIONAL_N_CAP."""
    if n > UNCONDITIONAL_N_CAP:
        raise ValueError(
            f"n={n} exceeds the native-precision cap {UNCONDITIONAL_N_CAP}; the native "
            "solve loses relative accuracy as n grows (at n=100, log T is off by 4.4e-3 "
            "at lambda=2, 8.4 at lambda=3 and 3.8 at lambda=4) long before expected "
            "times overflow doubles"
        )


def unconditional_expected_extinction(params: ModelParams) -> TimeProfile:
    """Expected absorption time of the raw chain from every state.

    Solves (I - Q)T = 1 over the states 1..n by native elimination, which
    subtracts.  The chain leaves for 0 at a rate of about 1/T ~ e^(-cn), so
    I - Q is singular to within that rate and T loses relative accuracy as
    n grows, with no error raised.  Against a 60-digit subtraction-free (GTH)
    solve of the same rows, log T is off by up to 2.5e-9, 2.5e-7 and 4.4e-3
    at lam=2 and n=50, 60, 100; 1.8e-6 and 8.4 at lam=3 and n=50, 100 (n=80
    meets a nonpositive pivot); 3.8 at lam=4, n=100.  That solve waits for a
    change of the benchmark's recorded values.  Overflow is not the limit: at
    lam=2 T stays below e^110 for n <= UNCONDITIONAL_N_CAP.  A larger n is
    refused, and a non-finite entry raises SolverError.
    """
    n = params.n
    _check_unconditional_cap(n)
    rows = np.exp(_transient_log_rows(params, n + 1))
    t = _solve_m_matrix(rows[:, 1:], np.ones(n))
    bad = np.flatnonzero(~np.isfinite(t))
    if bad.size:
        raise SolverError(f"expected time from state {bad[0] + 1} overflowed")
    return TimeProfile(np.concatenate(([0.0], t)), conditional=False)


def conditional_occupation_time(kernel: TiltedKernel, delta: float) -> TimeProfile:
    """Expected conditioned time spent with delta*n < X < u, from every start.

    Solves t(x) = 1{delta*n < x < u} + sum_{0<y<u} p_phi(x,y) t(y).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0,1), got {delta}")
    n = kernel.source.params.n
    if delta * n >= kernel.u:
        raise ValueError(f"band floor delta*n={delta * n:.6g} must lie below u={kernel.u}")
    x = np.arange(1, kernel.u)
    return _conditioned_time(kernel, (x > delta * n).astype(float))


# ---------------------------------------------------------------------------
# profile text format (version 2)
#
#   version=2
#   lambda=<17 significant digits>
#   n=<int>
#   u=<int>
#   residual=<17 significant digits>
#   <x> TAB <log_phi, 17 significant digits>      (one line per x, ascending)
# ---------------------------------------------------------------------------


def _g17(v: float) -> str:
    # float() first: formatting a numpy scalar directly is slower, same text
    return format(float(v), ".17g")


def write_profile(profile: HittingProfile, path: str | Path) -> None:
    """Write a version-2 profile file atomically.

    The text goes to a temporary file beside `path`, which then replaces
    `path` in one step, so an interrupted write leaves no partial file.
    """
    path = Path(path)
    lines = [
        f"version={PROFILE_FORMAT_VERSION}",
        f"lambda={_g17(profile.params.lam)}",
        f"n={profile.params.n}",
        f"u={profile.u}",
        f"residual={_g17(profile.residual)}",
    ]
    lines.extend(f"{x}\t{_g17(lp)}" for x, lp in enumerate(profile.log_phi))
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text("\n".join(lines) + "\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_profile(path: str | Path) -> HittingProfile:
    """Parse a version-2 profile file; malformed content raises ProfileFormatError."""
    path = Path(path)
    text = path.read_text()
    lines = text.splitlines()
    if len(lines) < 6:
        raise ProfileFormatError("truncated profile file", str(path))
    header = {}
    for key in ("version", "lambda", "n", "u", "residual"):
        line = lines.pop(0)
        if not line.startswith(key + "="):
            raise ProfileFormatError(f"expected '{key}=' header line, got {line!r}", str(path))
        header[key] = line.split("=", 1)[1]
    try:
        version = int(header["version"])
        lam = float(header["lambda"])
        n = int(header["n"])
        u = int(header["u"])
        residual = float(header["residual"])
    except ValueError as exc:
        raise ProfileFormatError(f"bad header value: {exc}", str(path)) from None
    if version != PROFILE_FORMAT_VERSION:
        raise ProfileFormatError(
            f"unsupported version {version}, expected {PROFILE_FORMAT_VERSION}", str(path)
        )
    body = [line for line in lines if line]
    if len(body) != u:
        raise ProfileFormatError(f"expected {u} data lines, found {len(body)}", str(path))
    log_phi = np.empty(u)
    for i, line in enumerate(body):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ProfileFormatError(f"malformed data line {line!r}", str(path))
        try:
            x, lp = int(parts[0]), float(parts[1])
        except ValueError:
            raise ProfileFormatError(f"malformed data line {line!r}", str(path)) from None
        if x != i:
            raise ProfileFormatError(f"data line out of order: expected x={i}, got {x}", str(path))
        log_phi[i] = lp
    try:
        return HittingProfile(ModelParams(lam, n), u, log_phi, residual, METHOD_CACHED)
    except ValueError as exc:
        raise ProfileFormatError(f"inconsistent profile content: {exc}", str(path)) from None
