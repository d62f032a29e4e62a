"""Exact solves for the absorbing count chain.

Hitting probabilities phi_u(x) = P_x[hit 0 before reaching >= u] solve the
first-step system phi(x) = p(x,0) + sum_{0<y<u} p(x,y) phi(y).  They decay
geometrically in x, far below the smallest double, and above eq I - Q is
nearly singular.  Every threshold takes the one solve, subtraction-free (GTH)
elimination on the rescaled matrix D^-1 Q D, D = diag(e^s) with s an
estimate of log phi from below, in native doubles and in panels, while
the O(u) vectors of masses and pivots stay in logs.  A pivot works only
on its own panel of _PANEL states, in O(_PANEL) numpy work, and the
panel reaches the rest of the matrix through _panel_update, which states
the product rule of both GTH solves.  Where the estimate s falls far
short, the solve is repeated, scaled by its own result, until it reaches
a fixed point.  With m = u - 1, a profile solve holds about 1.2-1.4 m^2
doubles at its peak: each pass writes the scaled matrix over the m x u
kernel rows, which are built again for each further pass and, a block
at a time, for the harmonicity residual.  Conditioning on that hitting
event is a Doob transform of the kernel by phi, built from a
HittingProfile by tilted_kernel alone, which checks every tilted row
sum.  Expected absorption and occupation times under the conditioned
chain take the profile and tilt it straight into the working array of a
GTH solve (_solve_gth_rhs), unscaled and carrying the right-hand side, in
the profile solve's panels and through the same _panel_update; a time
solve peaks at tilting's 1.1-1.4 m^2 doubles.  The unconditional expected
time is still a native elimination that subtracts.  Every time solve
returns a plain read-only array t over x = 0, 1, ..., with t[0] = 0, and
every solve or check that fails its contract raises SolverError.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .chain import (
    LOG_ZERO,
    ROW_BLOCK,
    ModelParams,
    _check_real,
    _check_threshold,
    _log_row_blocks,
    _log_top_masses,
    _logsumexp_rows,
    _transient_log_rows,
)

HARMONICITY_TOL = 1e-8
ROW_SUM_TOL = 1e-9
#: scaled GTH, and the time solve where r > 0, zero entries below
#: e^LOG_NEGLIGIBLE, so any product of two kept entries is a normal double
#: (e^-700 > 2.2e-308)
LOG_NEGLIGIBLE = -350.0
#: a floor-scaled solve whose psi = phi / e^s exceeds e^LOG_SCALE_GAP is
#: redone, scaled by its own result, until a pass moves log phi by at most
#: RESCALE_TOL; at most RESCALE_PASSES passes in all.  Far above eq the first
#: passes close the gap only by a factor of 4 to 40 each: lam=4, n=3000,
#: u=2000 settles on its ninth pass, so 16 leaves room
LOG_SCALE_GAP = 100.0
RESCALE_TOL = 1e-9
RESCALE_PASSES = 16
#: GTH eliminates this many pivots in a small workspace of their own, then
#: applies them to the rest of the matrix as products of nonnegatives
_PANEL = 32
UNCONDITIONAL_N_CAP = 400
#: largest n*eps*max(T), the estimated relative error of an unconditional solve, that is returned
_UNCONDITIONAL_REL_TOL = 1e-6

METHOD_LOGDOMAIN = "dense-logdomain"
METHOD_CACHED = "cached"

#: version of the JSON profile record; earlier versions' .txt files are never read
PROFILE_FORMAT_VERSION = 3


class SolverError(RuntimeError):
    """A solve finished without meeting its residual contract."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class ProfileFormatError(ValueError):
    """A profile file is malformed or fails the harmonicity check; `path` names the file."""

    def __init__(self, message: str, path: str):
        super().__init__(f"{path}: {message}")
        self.path = path


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
        log_phi = np.array(self.log_phi, dtype=float)  # a copy: the caller's writes miss it
        log_phi.flags.writeable = False
        object.__setattr__(self, "log_phi", log_phi)
        object.__setattr__(self, "u", _check_threshold(self.params, self.u))
        if self.log_phi.shape != (self.u,):
            raise ValueError(f"log_phi must be 1-D with exactly u={self.u} entries")
        if self.log_phi[0] != 0.0:
            raise ValueError("phi(0) must be 1 (log 0.0): absorption already happened")
        if not np.all(np.isfinite(self.log_phi)):
            raise ValueError("all phi entries must be strictly positive")


def _solve_m_matrix(Q: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (I - Q) x = b by Gaussian elimination without pivoting, native doubles.

    Q is substochastic, so I - Q is a nonsingular M-matrix, for which
    elimination in natural order is stable.  I - Q is formed here, in the
    one m x m array the elimination works in; Q and b are left as they are.
    Row updates are elementwise vector operations, so results are
    bit-reproducible: no BLAS reductions with data-dependent ordering are
    involved.

    It serves only unconditional_expected_extinction now.  _solve_gth_rhs
    would make that T accurate, but would move it by up to 2.5e-9 relative
    at lam=2, n=50, past the tolerance at which the benchmark's reference
    values, taken from this solve, are checked; the switch waits until those
    references are regenerated.
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


def _panels(m: int):
    """(k0, k1) of each GTH panel: _PANEL states, but a last stretch of fewer than 2 _PANEL whole."""
    k0 = 0
    while k0 < m:
        k1 = k0 + _PANEL if m - k0 >= 2 * _PANEL else m
        yield k0, k1
        k0 = k1


def _panel_update(A: np.ndarray, k0: int, k1: int, N: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Apply GTH panel k0..k1-1 to the m x m matrix A after it, in place; returns L21.

    With the panel's N = (I - L11)^-1 and M = (D - U11)^-1, U12 = N A12 and
    L21 = A21 M overwrite A[k0:k1, k1:] and A[k1:, k0:k1], and A[k1:, k1:]
    takes L21 U12, a ROW_BLOCK of rows at a time.

    The product rule of both GTH solves: a panel's own products (U12, L21
    and each solve's folds and back substitution through them and M) are
    np.einsum products, and every trailing update is BLAS (@).  All factors
    are nonnegative, so no summation order loses GTH's entrywise relative
    accuracy (O'Cinneide, Numer. Math. 65, 1993).  That the pinned outputs
    keep their bytes under the forced OpenBLAS kernels and thread counts
    the tests run is measured, not by construction; taking a panel's own
    products through BLAS too moved t's bytes under the Prescott kernel.
    """
    A12 = A[k0:k1, k1:]
    A12[...] = np.einsum("ik,kj->ij", N, A12, optimize=False)
    L21 = A[k1:, k0:k1]
    L21[...] = np.einsum("ik,kj->ij", L21, M, optimize=False)
    for i in range(k1, A.shape[0], ROW_BLOCK):
        A[i : i + ROW_BLOCK, k1:] += A[i : i + ROW_BLOCK, k0:k1] @ A12
    return L21


def _solve_gth_rhs(W: np.ndarray, r: np.ndarray, cut: float = 0.0) -> np.ndarray:
    """Solve t = r + Q t by GTH elimination, Q = W[:, 1:] and exit mass c = W[:, 0].

    Each row of W sums to 1: c_k plus state k's masses Q_k.  The solve
    spends W, eliminating in place beside O(_PANEL m) scratch; r is left
    as it is.  The elimination is _solve_gth_scaled's, in native doubles
    and in the same _panels, and like it subtracts nothing: every pivot
    is the sum of state k's remaining outgoing masses, never 1 - Q_kk, and
    the multipliers fold c and r into the later rows as they fold Q.
    - Before a panel of b states, one row sum gives R, each panel row's
      mass to all states after it.  A pivot is its row's sum within the
      panel plus R and c, and it folds R, c and r into the later panel rows.
    - The pivots run on a 2b x (2b + 3) workspace: the panel's diagonal
      block, R, c and r beside an identity block, above another, which the
      same rank-1 updates turn into N = (I - L11)^-1 and M = (D - U11)^-1.
    - _panel_update then applies the panel to A = W[:, 1:], whose indices
      are Q's, and c and r are folded through L21, under its product rule.
      The last stretch, with no states after it, needs neither R nor N.
    The back substitution goes a panel at a time, through the stored rows
    U12 and the folded r: t_panel = M (r_panel + U12 t_after).

    The masses Q below `cut` are zeroed before the elimination; the exit
    mass c never is.  A zeroed mass acts as a self-loop: the row's m masses
    move its equation by less than m cut max t, against t >= min r.
    """
    m = r.size
    r = np.array(r, dtype=float)  # a copy: the panels fold r in place
    if cut > 0.0:
        for i in range(0, m, ROW_BLOCK):
            Q = W[i : i + ROW_BLOCK, 1:]
            Q[Q < cut] = 0.0
    panels = []  # (k0, k1, M) of every panel, for the back substitution
    for k0, k1 in _panels(m):
        b = k1 - k0
        w = b if k1 < m else 0  # the width of N
        P = np.zeros((2 * b, b + 3 + w))  # columns: the panel, R, c, r, N; rows: the panel, M
        P[:b, :b] = W[k0:k1, k0 + 1 : k1 + 1]
        np.sum(W[k0:k1, k1 + 1 :], axis=1, out=P[:b, b])
        P[:b, b + 1] = W[k0:k1, 0]
        P[:b, b + 2] = r[k0:k1]
        P[b:, :b] = np.eye(b)
        P[:b, b + 3 :] = np.eye(b, w)
        for k in range(b):
            pivot = P[k, k + 1 : b + 2].sum()
            if not pivot > 0.0:
                raise SolverError(f"state {k0 + k + 1} never reaches the exit")
            # the panel rows after k and M's rows up to k, over the panel's columns
            # after k and N's columns up to k; where M's rows meet the rest is scratch
            e = b + k + 1
            col = P[k + 1 : e, k]
            col /= pivot  # column k now holds the multipliers
            f = b + 3 + min(w, k + 1)
            P[k + 1 : e, k + 1 : f] += np.multiply.outer(col, P[k, k + 1 : f])
        M = P[b:, :b].copy()
        r[k0:k1] = P[:b, b + 2]
        panels.append((k0, k1, M))
        if not w:
            break
        L21 = _panel_update(W[:, 1:], k0, k1, P[:b, b + 3 :], M)
        W[k1:, 0] += np.einsum("ik,k->i", L21, P[:b, b + 1], optimize=False)
        r[k1:] += np.einsum("ik,k->i", L21, r[k0:k1], optimize=False)
    t = np.empty(m)
    for k0, k1, M in reversed(panels):
        v = r[k0:k1] + np.einsum("ij,j->i", W[k0:k1, k1 + 1 :], t[k1:], optimize=False)
        t[k0:k1] = np.einsum("ij,j->i", M, v, optimize=False)
    return t


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
    cand = log_p[:, 0] + s[0]  # s over states 1..m as relaxed so far; LOG_ZERO once finished
    live = np.ones(m, dtype=bool)
    for _ in range(m):
        y = int(np.argmax(cand))
        if cand[y] == LOG_ZERO:
            break  # no state left can reach 0
        s[y + 1] = cand[y]
        cand[y] = LOG_ZERO
        live[y] = False
        np.maximum(cand, log_p[:, y + 1] + s[y + 1], out=cand, where=live)
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
    native multiply-add; the pivots and each row's masses to 0 and to >= u
    stay in logs, as raw masses.

    The solve spends log_p: A is written in place of log_p[:, 1:], a
    ROW_BLOCK of rows at a time, with the masks below made per block, so
    the pass holds about 1.2-1.4 m^2 doubles at its peak, log_p itself
    and block-sized scratch.  A caller that needs the rows again rebuilds
    them.

    The elimination is the right-looking block LU (Golub and Van Loan,
    Matrix Computations, 3.2) in panels of b = _PANEL pivots, and a pivot
    touches only its own panel:
    - Before the panel, one b x (m - k1) log-sum-exp gives each of its
      rows R, its mass to all states k1.. after the panel.  The pivots
      fold R like a third absorbing column, so a pivot sums its masses
      within the panel and three more, and updates the panel's masses to
      0, to >= u and R with one logaddexp.
    - The pivots run on a 2b x 2b workspace: the panel's diagonal block
      beside two identity blocks, which the same rank-1 updates turn into
      N = (I - L11)^-1 and M = (D - U11)^-1.
    - After the panel, _panel_update applies it to the rest of A, under
      the product rule it states.  Each panel pivot is then taken again,
      as the sum of its row as stored: R came by another path than U12,
      and the back substitution divides each row by its own sum, so that
      pivot and numerator share their masses, which keeps phi = 1 to the
      last digits in a chain that surely dies.  The rows after the panel
      take their masses to 0 and to >= u in one log-sum-exp of b + 1 terms
      each.
    - The last panel, with no states after it, needs neither R nor the
      identity blocks, and its pivots already are the sums of its rows.
    N and M are nonnegative, as the multipliers and U are, so every product
    and every sum adds nonnegatives.  The scratch beside A is O(b m).

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
    # per row, the log of its raw mass to 0, to >= u and, while its panel
    # runs, to the states after the panel
    V = np.empty((m, 3))
    V[:, 0] = log_p[:, 0]
    A = log_p[:, 1:]
    log_moved = np.empty(m)  # log of each row's raw mass moved to top
    for i in range(0, m, ROW_BLOCK):
        rows = A[i : i + ROW_BLOCK]
        s_x = s[i : i + ROW_BLOCK, None]
        block = np.add(rows, s[None, :])
        block -= s_x
        negligible = block < LOG_NEGLIGIBLE
        np.fill_diagonal(negligible[:, i:], False)  # the diagonal is never a pivot mass
        buf = np.subtract(s[None, :], s_x)
        to_top = negligible & (buf < LOG_NEGLIGIBLE / 2)
        buf.fill(LOG_ZERO)
        np.copyto(buf, rows, where=to_top)
        log_moved[i : i + ROW_BLOCK] = _logsumexp_rows(buf)
        np.exp(block, out=rows)
        rows[negligible] = 0.0
    V[:, 1] = np.logaddexp(log_top, log_moved)
    log_pivot = np.empty(m)
    terms = np.empty(2 * _PANEL + 1)  # the log masses that sum to a pivot
    with np.errstate(divide="ignore"):
        for k0, k1 in _panels(m):
            b = k1 - k0
            t = b if k1 < m else 0  # the identity blocks' size
            P, sp = V[k0:k1], s[k0:k1]
            W = np.zeros((b + t, b + t))
            W[:b, :b] = A[k0:k1, k0:k1]
            if t:
                W[:b, b:] = W[b:, :b] = np.eye(b)
                R = np.log(A[k0:k1, k1:])
                R += np.subtract.outer(sp, s[k1:])
                P[:, 2] = _logsumexp_rows(R)
            else:
                P[:, 2] = LOG_ZERO
            for k in range(b):
                d = sp[k] - sp[k + 1 :]
                # the pivot's log-sum-exp, in the ufuncs and order of _logsumexp_rows
                lse = terms[: b + 2 - k]
                lse[:3] = P[k]
                np.log(W[k, k + 1 : b], out=lse[3:])
                lse[3:] += d  # the raw log masses from k to the panel after it
                peak = lse.max()
                shift = peak if peak > LOG_ZERO else 0.0
                lse -= shift
                np.exp(lse, out=lse)
                log_pivot[k0 + k] = np.log(lse.sum()) + shift
                # the rows after k of the panel and of M, and the columns after k of the
                # panel and of N; where M's rows meet N's columns is scratch
                e = b + min(t, k + 1)
                col = W[k + 1 : e, k]
                col /= math.exp(log_pivot[k0 + k])  # column k now holds the multipliers
                W[k + 1 : e, k + 1 : e] += np.multiply.outer(col, W[k, k + 1 : e])
                f = np.log(col[: b - k - 1])
                f -= d  # log(Q_ik / pivot), the raw multipliers
                np.logaddexp(P[k + 1 :], np.add.outer(f, P[k]), out=P[k + 1 :])
            A[k0:k1, k0:k1] = np.triu(W[:b, :b], 1)  # U11 off its diagonal: all that is read
            if not t:
                break
            L21 = _panel_update(A, k0, k1, W[:b, b:], W[b:, :b])
            rows = np.empty((b, m - k0 + 1))  # each pivot again, from its row as stored
            rows[:, :2] = P[:, :2]
            np.log(A[k0:k1, k0 + 1 :], out=rows[:, 2:])
            rows[:, 2:] += np.subtract.outer(sp, s[k0 + 1 :])
            log_pivot[k0:k1] = _logsumexp_rows(rows)
            # the masses to 0 and to >= u of the rows after the panel
            masses = np.empty((2, m - k1, b + 1))
            masses[:, :, 0] = V[k1:, :2].T
            masses[:, :, 1:] = np.log(L21)
            masses[:, :, 1:] += np.subtract.outer(s[k1:], sp)  # the raw multipliers
            masses[:, :, 1:] += P[:, :2].T[:, None, :]
            V[k1:, :2] = _logsumexp_rows(masses.reshape(-1, b + 1)).reshape(2, -1).T

    psi = np.empty(m)
    c = np.exp(V[:, 0] - s)
    pivot = np.exp(log_pivot)
    for i in range(m - 1, -1, -1):
        psi[i] = (c[i] + (A[i, i + 1 :] * psi[i + 1 :]).sum()) / pivot[i]
    return np.log(psi) + s


def _solve_logdomain(params: ModelParams, u: int, log_top: np.ndarray) -> np.ndarray:
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

    Every pass spends the kernel rows it is given, so each further pass
    rebuilds them.
    """
    log_p = _transient_log_rows(params, u)
    s = _path_floor(log_p)[1:]
    log_phi = _solve_gth_scaled(log_p, log_top, s)
    del log_p
    if np.max(log_phi - s) <= LOG_SCALE_GAP:
        return log_phi
    for _ in range(RESCALE_PASSES - 1):
        s = log_phi
        log_phi = _solve_gth_scaled(_transient_log_rows(params, u), log_top, s)
        if np.max(np.abs(log_phi - s)) <= RESCALE_TOL:
            return log_phi
    raise SolverError(f"scaled GTH did not settle within {RESCALE_PASSES} passes")


def _harmonicity_residual(params: ModelParams, u: int, log_phi: np.ndarray) -> float:
    """max_x | logsumexp_y(log p(x,y) + log phi(y)) - log phi(x) |, over x = 1..u-1.

    The kernel rows are built a ROW_BLOCK at a time, so the check holds no
    m^2 array.  Raises SolverError above HARMONICITY_TOL; 0.0 for u = 1,
    with no rows.
    """
    lhs = np.empty(u - 1)
    for i, block in _log_row_blocks(params, u, 0, u - 1):
        block += log_phi[None, :]
        lhs[i : i + block.shape[0]] = _logsumexp_rows(block)
    residual = float(np.max(np.abs(lhs - log_phi[1:]), initial=0.0))
    if not residual <= HARMONICITY_TOL:
        raise SolverError(
            f"harmonicity residual {residual:.3e} exceeds {HARMONICITY_TOL:.0e}",
            residual=residual,
        )
    return residual


def hitting_profile(params: ModelParams, u: int) -> HittingProfile:
    """Solve for phi_u(x) = P_x[hit 0 before reaching >= u], x = 0..u-1.

    The one solve, dense-logdomain, is GTH elimination on D^-1 Q D (see
    _solve_logdomain) at every threshold: it carries the one-step masses to
    0 and to >= u as two absorbing columns, never subtracts, and keeps
    phi's relative accuracy however small it gets, also above eq, where
    I - Q is nearly singular.
    """
    _check_threshold(params, u)
    if u == 1:
        return HittingProfile(params, 1, np.zeros(1), 0.0, METHOD_LOGDOMAIN)

    log_top = _log_top_masses(params, u)  # before the m^2 rows, so its blocks add to no peak
    log_phi = np.concatenate(([0.0], _solve_logdomain(params, u, log_top)))
    residual = _harmonicity_residual(params, u, log_phi)
    return HittingProfile(params, u, log_phi, residual, METHOD_LOGDOMAIN)


def _tilt(profile: HittingProfile) -> np.ndarray:
    """tilted_kernel's rows, still writable: built, tilted, checked and normalized in place."""
    u = profile.u
    if u == 1:
        return np.zeros((0, 1))
    rows = _transient_log_rows(profile.params, u)
    rows += profile.log_phi[None, :]
    rows -= profile.log_phi[1:, None]
    np.exp(rows, out=rows)
    sums = rows.sum(axis=1)
    worst = int(np.argmax(np.abs(sums - 1.0)))
    if abs(sums[worst] - 1.0) > ROW_SUM_TOL:
        raise SolverError(
            f"tilted row for x={worst + 1} sums to {sums[worst]:.12f}, "
            f"off by more than {ROW_SUM_TOL:.0e}"
        )
    rows /= sums[:, None]
    return rows


def tilted_kernel(profile: HittingProfile) -> np.ndarray:
    """Doob transform of the kernel by phi, the law of the chain conditioned to die before u.

    A read-only (u-1, u) array: row x-1 holds p(x,y) * phi(y) / phi(x) for
    y = 0..u-1, x = 1..u-1.  Each raw row must already sum to 1 within
    1e-9 (harmonicity of phi); rows are then renormalized exactly.  A
    larger deviation means the profile is inconsistent with the kernel and
    raises SolverError.
    """
    rows = _tilt(profile)
    rows.flags.writeable = False
    return rows


def _conditioned_time(profile: HittingProfile, r: np.ndarray) -> np.ndarray:
    """Solve t = r + P_phi t over x = 1..u-1 under the conditioned chain; t over x = 0..u-1.

    The tilted rows sum to 1 with their mass to 0 as column 0, so GTH
    (_solve_gth_rhs) solves it without subtracting.  The rows are tilted
    straight into the solve's working array, which it spends, so the solve
    holds one m x u array beside O(_PANEL m) scratch, and its peak is
    tilting's own, 1.1-1.4 m^2 doubles.  t(0) = 0, and t is read-only.

    Where r > 0 everywhere, as for expected times, the tilted masses below
    e^LOG_NEGLIGIBLE (about 1e-152) are zeroed, so no product of two stored
    masses is subnormal.  A row loses at most its m masses, so that moves
    each equation by less than its rounding while e^LOG_NEGLIGIBLE m max t
    stays below 2^-53 min r, about max t < 1.1e136 min r / m; a t past that
    is solved again with every mass.  Where r has zeros, as
    for occupation times, t may itself lie below 1e-150 and nothing is zeroed.
    """
    cut = math.exp(LOG_NEGLIGIBLE) if np.all(r > 0.0) else 0.0
    t = _solve_gth_rhs(_tilt(profile), r, cut)
    if cut and t.size and cut * t.size * t.max() >= 2.0**-53 * r.min():
        t = _solve_gth_rhs(_tilt(profile), r)
    t = np.concatenate(([0.0], t))
    t.flags.writeable = False
    return t


def conditional_expected_extinction(profile: HittingProfile) -> np.ndarray:
    """Expected steps to absorption under the conditioned chain, read-only, t(0) = 0."""
    return _conditioned_time(profile, np.ones(profile.u - 1))


def _check_unconditional_cap(n: int) -> None:
    """Refuse an unconditional solve with n above UNCONDITIONAL_N_CAP."""
    if n > UNCONDITIONAL_N_CAP:
        raise ValueError(
            f"n={n} exceeds the size cap {UNCONDITIONAL_N_CAP} of the dense unconditional solve"
        )


def unconditional_expected_extinction(params: ModelParams) -> np.ndarray:
    """Expected absorption time T of the raw chain from every state, read-only, T(0) = 0.

    Solves (I - Q)T = 1 over the states 1..n by native elimination, which
    subtracts.  The chain leaves for 0 at a rate of about 1/T ~ e^(-cn), so
    I - Q is singular to within that rate and T loses relative accuracy as
    n grows.  (I - Q)^-1 >= 0 has inf-norm max T, so n*eps*max T estimates
    that loss; above _UNCONDITIONAL_REL_TOL, or for a non-finite T, the
    solve raises SolverError.  The estimate is not a bound: a 60-digit
    subtraction-free (GTH) solve finds log T off by up to 4 times it, and
    by 2.5e-9 at lam=2, n=50.  An n above UNCONDITIONAL_N_CAP is refused.
    """
    n = params.n
    _check_unconditional_cap(n)
    rows = np.exp(_transient_log_rows(params, n + 1))
    t = np.concatenate(([0.0], _solve_m_matrix(rows[:, 1:], np.ones(n))))
    bad = np.flatnonzero(~np.isfinite(t))
    if bad.size:
        raise SolverError(f"expected time from state {bad[0]} overflowed")
    estimate = n * np.finfo(float).eps * float(np.abs(t).max())
    if not estimate <= _UNCONDITIONAL_REL_TOL:
        raise SolverError(
            f"native solve's estimated relative error n*eps*max(T) = {estimate:.2g} exceeds "
            f"{_UNCONDITIONAL_REL_TOL:.0e} at lambda={params.lam:g}, n={n}"
        )
    t.flags.writeable = False
    return t


def _check_band(delta: float, n: int, u: int) -> None:
    _check_real("delta", delta, 0.0, 1.0)
    if delta * n >= u:
        raise ValueError(f"band floor delta*n={delta * n:.6g} must lie below u={u}")


def conditional_occupation_time(profile: HittingProfile, delta: float) -> np.ndarray:
    """Expected conditioned time spent with delta*n < X < u, from every start; read-only, t(0) = 0.

    Solves t(x) = 1{delta*n < x < u} + sum_{0<y<u} p_phi(x,y) t(y).
    """
    n = profile.params.n
    _check_band(delta, n, profile.u)
    return _conditioned_time(profile, (np.arange(1, profile.u) > delta * n).astype(float))


def write_profile(profile: HittingProfile, path: str | Path) -> None:
    """Write a profile as one JSON object {"version", "lambda", "n", "u", "log_phi"}, atomically.

    json.dumps writes each float's shortest round-trip text, so the values
    read back exactly.  The text goes to a temporary file beside `path`,
    which then replaces `path` in one step, so an interrupted write leaves
    no partial file.
    """
    path = Path(path)
    record = {
        "version": PROFILE_FORMAT_VERSION,
        "lambda": profile.params.lam,
        "n": profile.params.n,
        "u": profile.u,
        "log_phi": profile.log_phi.tolist(),
    }
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(record) + "\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_profile(path: str | Path, params: ModelParams, u: int) -> HittingProfile:
    """Load the profile of (params, u) that write_profile stored at path.

    A file that is not a version-3 record raises ProfileFormatError naming
    it.  A record of another (lambda, n, u) raises ValueError naming it,
    before any kernel row is built, so a record's n costs nothing until it
    is the requested one.  Last, the residual is recomputed from the kernel
    rows of the key, as a solve computes it; above HARMONICITY_TOL it
    raises ProfileFormatError naming the file.
    """
    path = Path(path)
    try:
        record = json.loads(path.read_text())
        if not isinstance(record, dict):
            raise ValueError("not a JSON object")
        if record.get("version") != PROFILE_FORMAT_VERSION:
            raise ValueError(
                f"unsupported version {record.get('version')!r}, expected {PROFILE_FORMAT_VERSION}"
            )
        lam, n, stored_u, log_phi = (record.get(k) for k in ("lambda", "n", "u", "log_phi"))
        # exact types: json.loads gives bool for true/false, and bool subclasses int;
        # ModelParams and HittingProfile refuse an n or u that is not an integer
        if type(lam) not in (int, float):
            raise ValueError("lambda must be a number")
        if not (type(log_phi) is list and all(type(v) in (int, float) for v in log_phi)):
            raise ValueError("log_phi must be a list of numbers")
        profile = HittingProfile(
            ModelParams(float(lam), n), stored_u, np.array(log_phi, dtype=float),
            math.nan, METHOD_CACHED,
        )
    except (ValueError, OverflowError, RecursionError) as exc:  # json.loads: too deeply nested
        raise ProfileFormatError(str(exc), str(path)) from None
    if (profile.params, profile.u) != (params, u):
        raise ValueError(f"{path}: its key does not match the requested profile")
    try:
        residual = _harmonicity_residual(params, u, profile.log_phi)
    except SolverError as exc:
        raise ProfileFormatError(str(exc), str(path)) from None
    return replace(profile, residual=residual)
