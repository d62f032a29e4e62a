"""Monte Carlo engines for the count chain and the particle system.

Randomness is counter-based: trial i of a run with seed s reads, word by
word, the Philox4x64-10 stream keyed by (s, i), which is the stream of numpy's
`Generator(Philox(key=s | i << 64))`.  Every draw inverts one 53-bit uniform
made from the next word against a CDF row held in doubles: a count-chain step
against Bin(n, b(x)), a conditioned step against the tilted rows that
solver.tilted_kernel makes from a HittingProfile, an offspring count against
Poisson(lam), and a move as floor(U*k) into the k legal targets.  Sampling
is exact up to the rounding of those CDF rows; there are no normal
approximations.  A row that covers its distribution's whole
support ends at exactly 1 (the Poisson row folds its tail, below double
resolution, into its last entry), so no uniform inverts past it.

The estimators run their trials in lockstep, a chunk at a time, and make
their words with `philox_block`, a numpy-vectorized Philox that equals
numpy's bit for bit and makes up to 4 * CHUNK blocks per kernel call, so a
particle chunk's moves take one call.  CHUNK sizes every batch, and the
count chains invert by bisection in their CDF table, so a step's memory
does not grow with u.
Both count-chain estimators run in one loop, which stops a trial at
STEP_CAP = 10^7 steps with TruncationError.  A count-chain trial takes one
word per step.  A particle step takes one word per parent, in ascending
vertex order, for its offspring count, and then one per offspring, parent by
parent, for its move.  So trial i of an estimator draws what it would draw
run alone on its own stream, and every result depends only on (seed, trials).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .chain import (
    ModelParams,
    _cdf_rows,
    _check_int,
    _check_real,
    _log_factorials,
    _transient_log_rows,
)
from .solver import HittingProfile, _check_threshold, tilted_kernel

#: hard per-trial cap inside estimators; hitting it means the estimate
#: would be biased, which is an error rather than a silent truncation
STEP_CAP = 10**7

#: the batching budget: count-chain trials per step, a quarter of the Philox
#: blocks per kernel call (a call takes about 180 us plus 80-90 ns a block on
#: a 2-vCPU Xeon) and 4x the particle trials per step.  Results do not depend
#: on it: every trial has its own key.
CHUNK = 4096

_MASK64 = (1 << 64) - 1

# Philox4x64 round multipliers, each with its 32-bit halves, and key
# increments (Salmon et al., SC'11)
_PHILOX_M = tuple(
    (np.uint64(m), np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32))
    for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157)
)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


class TruncationError(RuntimeError):
    """A trial hit the internal step cap; the estimate would be biased."""


def _check_seed(seed: int) -> None:
    _check_int("seed", seed, 0, _MASK64)


def _mulhilo(m: tuple, b, hi, lo, t, w) -> None:
    """hi, lo = high and low 64-bit words of m*b, from 32-bit halves whose sums never wrap.

    m is a `_PHILOX_M` entry; b is spent, t and w are scratch, and all five
    arrays are distinct.
    """
    m, m_lo, m_hi = m
    np.multiply(b, m, out=lo)
    np.bitwise_and(b, _LO32, out=t)
    np.multiply(t, m_hi, out=w)
    t *= m_lo
    t >>= _SHIFT32
    np.right_shift(b, _SHIFT32, out=hi)
    np.multiply(hi, m_lo, out=b)
    t += b
    np.bitwise_and(t, _LO32, out=b)
    w += b
    hi *= m_hi
    t >>= _SHIFT32
    hi += t
    w >>= _SHIFT32
    hi += w


def _philox4x64_10(seed: int, trials: np.ndarray, blocks: np.ndarray, out: np.ndarray) -> None:
    """out = philox4x64_10(counter=(blocks+1, 0, 0, 0), key=(seed, trials)), 1-D arrays.

    A round maps (c0, c1, c2, c3) to (hi(M1*c2) ^ c1 ^ k0, lo(M1*c2),
    hi(M0*c0) ^ c3 ^ k1, lo(M0*c0)).  With c1 = c2 = c3 = 0, round 0 makes
    one array product and leaves c0 = seed, so round 1's M0*c0 is one Python
    product: 18 array products in all, not 20.  Eight rows are allocated once
    and renamed from round to round, and the last round writes into out.
    """
    m0, m1 = _PHILOX_M
    t, w, c0, c1, c2, c3, f0, f1 = np.empty((8, trials.size), dtype=np.uint64)
    # round 0 on (blocks + 1, 0, 0, 0) gives (seed, 0, c2, c3)
    np.add(blocks, np.uint64(1), out=c0)
    _mulhilo(m0, c0, c2, c3, t, w)
    c2 ^= trials
    # round 1 gives (c0, c1, c3 ^ k1 ^ hi(M0*seed), lo(M0*seed))
    k0, k1 = (seed + _PHILOX_W[0]) & _MASK64, _PHILOX_W[1]
    hi, lo = divmod(int(m0[0]) * seed, 1 << 64)
    _mulhilo(m1, c2, c0, c1, t, w)
    c0 ^= np.uint64(k0)
    np.add(trials, np.uint64(k1), out=c2)
    c3 ^= c2
    c3 ^= np.uint64(hi)
    c2, c3, f0 = c3, f0, c2
    c3.fill(lo)
    # rounds 2..9; f0 and f1 are free rows
    for r in range(2, 10):
        last = r == 9
        k0 = (k0 + _PHILOX_W[0]) & _MASK64
        k1 = (k1 + _PHILOX_W[1]) & _MASK64
        _mulhilo(m0, c0, f0, out[:, 3] if last else f1, t, w)
        np.add(trials, np.uint64(k1), out=c0)
        f0 ^= c3
        np.bitwise_xor(f0, c0, out=out[:, 2] if last else f0)
        _mulhilo(m1, c2, c0, out[:, 1] if last else c3, t, w)
        c0 ^= c1
        np.bitwise_xor(c0, np.uint64(k0), out=out[:, 0] if last else c0)
        c1, c2, c3, f0, f1 = c3, f0, f1, c1, c2


def philox_block(seed: int, trials, blocks) -> np.ndarray:
    """Block `blocks` of the streams of trials `trials`: uint64 words, shape (..., 4).

    Trial i's stream is numpy's `Philox(key=seed | i << 64)`: Philox4x64-10
    keyed by (seed, i), which increments its counter before each block, so
    block j is philox4x64_10(counter=(j+1, 0, 0, 0), key=(seed, i)).
    `trials` and `blocks` broadcast against each other; word w of a trial is
    word w % 4 of its block w // 4.  The kernel runs over up to 4 * CHUNK
    blocks at a time, which bounds its eight scratch rows.
    """
    trials, blocks = np.broadcast_arrays(
        np.asarray(trials, dtype=np.uint64), np.asarray(blocks, dtype=np.uint64)
    )
    out = np.empty(trials.shape + (4,), dtype=np.uint64)
    flat_trials, flat_blocks, flat_out = trials.ravel(), blocks.ravel(), out.reshape(-1, 4)
    batch = 4 * CHUNK
    for lo in range(0, flat_trials.size, batch):
        part = slice(lo, lo + batch)
        _philox4x64_10(seed, flat_trials[part], flat_blocks[part], flat_out[part])
    return out


def uniforms(words: np.ndarray) -> np.ndarray:
    """53-bit uniforms on [0, 1) from 64-bit words, as numpy's `Generator.random` makes them."""
    u = (words >> np.uint64(11)).astype(np.float64)
    u *= 2.0**-53
    return u


def _invert_rows(table: np.ndarray, rows, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws: how many entries of the nondecreasing CDF row table[rows] are <= u.

    rows is an int array matching u, or one row index for every u.  All rows
    have length k, so every search halves its range in step with the others
    and reads ceil(log2 k) + 1 entries of the flat table, not a row.
    """
    k = table.shape[1]
    flat = table.reshape(-1)
    pos = rows * k
    n = k  # the count lies in [pos - rows * k, pos - rows * k + n]
    while n > 1:
        half = n // 2
        pos += (flat[pos + half] <= u) * half
        n -= half
    return pos - rows * k + (flat[pos] <= u)


@lru_cache(maxsize=64)
def _poisson_cdf(lam: float) -> np.ndarray:
    """CDF of Poisson(lam) over k = 0..K, ending at exactly 1, with K far
    enough out that the tail folded into k = K lies below double resolution."""
    k = np.arange(int(lam + 12.0 * math.sqrt(lam) + 40.0))
    return _cdf_rows(np.exp(k * math.log(lam) - lam - _log_factorials(k.size - 1)))


@dataclass(frozen=True)
class GraphSpec:
    """A finite graph plus the convention for where offspring may move.

    adjacency is None for K_n, or GraphSpec's own copies of ascending, in-range
    integer neighbor arrays without duplicates; no vertex lists itself, since
    self-moves come only from allow_self, which adds the parent's own vertex to
    every legal-target set.  The mean-field convention is K_n with allow_self=True.
    """

    vertex_count: int
    adjacency: tuple | None
    allow_self: bool

    def __post_init__(self):
        n = _check_int("vertex count", self.vertex_count, 1)
        object.__setattr__(self, "vertex_count", n)
        if not isinstance(self.allow_self, (bool, np.bool_)):
            raise ValueError(f"allow_self must be a bool, got {self.allow_self!r}")
        object.__setattr__(self, "allow_self", bool(self.allow_self))
        if self.adjacency is None:
            if n == 1 and not self.allow_self:
                raise ValueError("vertex 0 has no legal move target")
            return
        if len(self.adjacency) != n:
            raise ValueError("adjacency must list every vertex")
        frozen = []
        for v, nbrs in enumerate(self.adjacency):
            arr = np.array(nbrs)
            if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):  # [] is float64
                raise ValueError(f"neighbors of vertex {v} must be a 1-D integer array")
            arr = arr.astype(np.int64, copy=False)
            if np.any(arr == v):
                raise ValueError(f"vertex {v} lists itself (self-moves come from allow_self)")
            steps = np.diff(arr)
            if np.any(steps == 0):
                raise ValueError(f"duplicate neighbors at vertex {v}")
            if np.any(steps < 0):
                raise ValueError(f"neighbors of vertex {v} are not in ascending order")
            if arr.size and (arr[0] < 0 or arr[-1] >= n):
                raise ValueError(f"neighbor out of range at vertex {v}")
            if arr.size == 0 and not self.allow_self:
                raise ValueError(f"vertex {v} has no legal move target")
            arr.flags.writeable = False
            frozen.append(arr)
        object.__setattr__(self, "adjacency", tuple(frozen))

    @cached_property
    def _target_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Legal targets flattened: (start, size, flat); vertex v's ascending targets
        (its neighbors, and v under allow_self) are flat[start[v]:start[v] + size[v]]."""
        adj = self.adjacency
        targets = [np.union1d(a, [v]) for v, a in enumerate(adj)] if self.allow_self else adj
        size = np.array([t.size for t in targets], dtype=np.int64)
        return np.cumsum(size) - size, size, np.concatenate(targets)


def complete_graph(n: int, allow_self: bool = True) -> GraphSpec:
    """K_n, stored as its size; with allow_self=True this is the mean-field movement convention."""
    return GraphSpec(n, None, allow_self)


def parse_graph_file(path: str | Path) -> GraphSpec:
    """Read the plain-text graph format; GraphSpec judges the graph it holds.

    The first line is exactly `vertices=<count> self_loops=<0|1>`; every
    further nonempty line is an undirected edge `a b`, two integer endpoints
    in 0..count-1.  A self edge or a duplicate edge (in either order) leaves
    a vertex listing itself or a neighbor twice, which GraphSpec refuses.
    Every violation raises ValueError naming the file.
    """
    path = Path(path)
    try:
        lines = path.read_text().splitlines() or [""]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    head = re.fullmatch(r"\s*vertices=([0-9]+)\s+self_loops=([01])\s*", lines[0])
    if head is None:
        raise ValueError(f"{path}: bad header line {lines[0]!r}")
    count = int(head[1])
    nbrs: list[list[int]] = [[] for _ in range(count)]
    for line in lines[1:]:
        if not line.strip():
            continue
        try:
            a, b = (int(tok) for tok in line.split())
        except ValueError:
            raise ValueError(f"{path}: bad edge line {line!r}") from None
        if not (0 <= a < count and 0 <= b < count):
            raise ValueError(f"{path}: edge {line!r} has an endpoint outside 0..{count - 1}")
        nbrs[a].append(b)
        nbrs[b].append(a)
    try:
        return GraphSpec(count, tuple(np.sort(v) for v in nbrs), head[2] == "1")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class EstimateWithCI:
    """A Monte Carlo estimate with its standard error and provenance."""

    mean: float
    std_error: float
    trials: int
    seed: int
    #: chain steps summed over trials, and the most any one trial took
    steps_total: int = 0
    steps_max: int = 0

    def __post_init__(self):
        _check_int("trials", self.trials, 1)
        if self.std_error < 0.0:
            raise ValueError("standard error cannot be negative")


def _move_targets(
    graph: GraphSpec, parents: np.ndarray, offspring: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Where each offspring lands: floor(u*k) into its parent's k ascending legal targets.

    parents[j] has offspring[j] offspring, which take the uniforms of u in turn.
    On K_n (adjacency None) target m is vertex m, or without self-moves m + (m >= parent).
    """
    if graph.adjacency is None:
        k = graph.vertex_count - (not graph.allow_self)
        m = (u * k).astype(np.int64)
        np.minimum(m, k - 1, out=m)
        if not graph.allow_self:
            m += m >= np.repeat(parents, offspring)
        return m
    start, size, flat = graph._target_table
    movers = np.repeat(parents, offspring)
    k = size[movers]
    return flat[start[movers] + np.minimum((u * k).astype(np.int64), k - 1)]


class _Uniforms:
    """Successive uniforms of the streams of a shrinking set of trials.

    Each `philox_block` call makes about CHUNK blocks, one per trial or, as
    fewer trials remain, up to 64 ahead, so that a few long trials do not pay
    the call's overhead every four steps; the buffer holds at most 4 * CHUNK uniforms.
    """

    def __init__(self, seed: int, trials: np.ndarray):
        self.seed = seed
        self.trials = trials
        self.buf = np.empty((trials.size, 0))
        self.col = 0
        self.block = 0

    def next(self) -> np.ndarray:
        if self.col == self.buf.shape[1]:
            self.buf = None  # spent: free it before the next one is made
            ahead = min(64, max(1, CHUNK // max(self.trials.size, 1)))
            blocks = self.block + np.arange(ahead)
            words = philox_block(self.seed, self.trials[:, None], blocks)
            self.buf = uniforms(words).reshape(self.trials.size, 4 * ahead)
            self.block += ahead
            self.col = 0
        self.col += 1
        return self.buf[:, self.col - 1]

    def keep(self, mask: np.ndarray) -> None:
        self.trials = self.trials[mask]
        self.buf = self.buf[mask]


def _run_chains(cdfs: np.ndarray, x0: int, trials: int, seed: int) -> tuple[int, int, int, int]:
    """Run trials 0..trials-1 of a count chain in lockstep, CHUNK at a time.

    Row x-1 of cdfs (shape (u-1, u)) is the CDF over 0..u-1 of the next
    state from x; step t of trial i inverts uniform t of trial i's stream.
    A count of u means the step left 0..u-1, a crossing, which a row ending
    at 1 never gives.  A trial stops at 0 or u, and one still running
    after STEP_CAP steps raises TruncationError naming the lowest such trial.
    Returns exact integer totals: the trials that ended at 0, and the sum,
    sum of squares and maximum of the steps they took.
    """
    if not x0:
        return trials, 0, 0, 0
    u, cap = cdfs.shape[1], STEP_CAP
    deaths = total = sq = longest = 0
    for lo in range(0, trials, CHUNK):
        draws = _Uniforms(seed, np.arange(lo, min(lo + CHUNK, trials), dtype=np.uint64))
        x = np.full(draws.trials.size, x0, dtype=np.int64)
        t = 0
        while x.size:
            if t == cap:
                raise TruncationError(
                    f"trial {draws.trials[0]} exceeded {cap} steps; the estimate would be biased"
                )
            x = _invert_rows(cdfs, x - 1, draws.next())
            t += 1
            stop = (x == 0) | (x == u)
            ended = int(np.count_nonzero(stop))
            if ended:
                deaths += int(np.count_nonzero(x == 0))
                total += ended * t
                sq += ended * t * t
                longest = max(longest, t)
                keep = ~stop
                x = x[keep]
                draws.keep(keep)
    return deaths, total, sq, longest


def estimate_hitting_prob(
    params: ModelParams,
    u: int,
    x0: int,
    trials: int,
    seed: int,
) -> EstimateWithCI:
    """Monte Carlo estimate of P_x0[hit 0 before reaching >= u].

    All trials step in lockstep against one Bin(n, b(x)) CDF table over
    0..u-1, one uniform per step; the mean is an exact integer count over
    trials, so repeated runs agree bit for bit.  A trial that passes
    STEP_CAP steps raises TruncationError.
    """
    u = _check_threshold(params, u)
    _check_int("trials", trials, 1)
    _check_seed(seed)
    _check_int("start", x0, 0, u - 1)
    cdfs = _transient_log_rows(params, u)
    np.exp(cdfs, out=cdfs)
    np.cumsum(cdfs, axis=1, out=cdfs)
    deaths, total, _, longest = _run_chains(cdfs, x0, trials, seed)
    mean = float(deaths) / trials
    return EstimateWithCI(
        mean, math.sqrt(mean * (1.0 - mean) / trials), trials, seed, total, longest
    )


def _check_conditioned_run(x0: int, trials: int, seed: int, u: int) -> None:
    _check_int("trials", trials, 1)
    _check_seed(seed)
    _check_int("start", x0, 1, u - 1)


def estimate_conditioned_length(
    profile: HittingProfile,
    x0: int,
    trials: int,
    seed: int,
) -> EstimateWithCI:
    """Mean extinction time of the conditioned chain from x0, with its SE.

    The arguments are checked before the profile is tilted, and the tilt's
    row-sum check runs before any trial.  A trial that passes STEP_CAP steps
    raises TruncationError: with u at or above eq a conditioned chain lives
    about as long as the raw one.
    """
    _check_conditioned_run(x0, trials, seed, profile.u)
    # exact integer moments: nothing is rounded before the final division
    _, total, sq, longest = _run_chains(_cdf_rows(tilted_kernel(profile)), x0, trials, seed)
    mean = float(total) / trials
    var = max(float(sq) / trials - mean * mean, 0.0)
    return EstimateWithCI(mean, math.sqrt(var / trials), trials, seed, total, longest)


def _move_uniforms(seed: int, idx: np.ndarray, p: int, moves: np.ndarray) -> np.ndarray:
    """Uniforms p .. p+moves_i-1 of trial idx_i's stream, trial after trial."""
    nblocks = np.where(moves > 0, (p + moves - 1) // 4 - p // 4 + 1, 0)
    first = np.cumsum(nblocks) - nblocks  # each trial's first block in the list
    owner = np.repeat(np.arange(idx.size), nblocks)
    words = philox_block(seed, idx[owner], p // 4 + np.arange(owner.size) - first[owner])
    # word p of trial i is flat word 4*first_i + p % 4, and its moves follow it
    at = np.repeat(4 * first + p % 4 - (np.cumsum(moves) - moves), moves)
    at += np.arange(at.size)
    return uniforms(words).reshape(-1)[at]


def _particle_chunk(
    graph: GraphSpec, parents: np.ndarray, lam: float, seed: int, idx: np.ndarray
) -> np.ndarray:
    """Occupied counts after one step of trials idx, all from the same parents.

    Words 0..P-1 of a trial's stream are the parents' offspring counts, the
    next ones the moves.  A vertex is occupied next when exactly one offspring
    lands on it: once the keys trial * n + vertex are sorted, those equal to
    neither neighbour are counted per trial.
    """
    p = parents.size
    first = -(-p // 4)  # blocks holding the count words
    words = philox_block(seed, idx[:, None], np.arange(first)).reshape(idx.size, 4 * first)
    offspring = _invert_rows(_poisson_cdf(lam)[None], 0, uniforms(words[:, :p]))
    moves = offspring.sum(axis=1)
    u = _move_uniforms(seed, idx, p, moves)
    key = _move_targets(graph, np.tile(parents, idx.size), offspring.reshape(-1), u)
    n = graph.vertex_count
    key += np.repeat(np.arange(idx.size) * n, moves)
    key.sort()
    same = key[1:] == key[:-1]
    lone = np.ones(key.size, dtype=bool)
    lone[1:] = ~same
    lone[:-1] &= ~same
    return np.bincount(key[lone] // n, minlength=idx.size)


def particle_step_counts(
    graph: GraphSpec,
    start_count: int,
    lam: float,
    trials: int,
    seed: int,
) -> np.ndarray:
    """Occupied-site counts after one particle step from a fixed-size start.

    The starting set is the first start_count vertices; on a vertex-
    transitive graph the choice is immaterial.  Returns one count per trial.
    """
    _check_int("trials", trials, 1)
    _check_seed(seed)
    _check_int("start_count", start_count, 0, graph.vertex_count)
    _check_real("offspring mean", lam, 0.0, math.inf)
    parents = np.arange(start_count)
    counts = np.empty(trials, dtype=np.int64)
    chunk = max(1, CHUNK // 4)
    for lo in range(0, trials, chunk):
        idx = np.arange(lo, min(lo + chunk, trials), dtype=np.uint64)
        counts[lo : lo + idx.size] = _particle_chunk(graph, parents, lam, seed, idx)
    return counts


def tv_distance(pmf_a: np.ndarray, pmf_b: np.ndarray) -> float:
    """Total-variation distance between two pmfs on 0..K (padded as needed)."""
    k = max(len(pmf_a), len(pmf_b))
    a = np.zeros(k)
    b = np.zeros(k)
    a[: len(pmf_a)] = pmf_a
    b[: len(pmf_b)] = pmf_b
    return float(0.5 * np.abs(a - b).sum())
