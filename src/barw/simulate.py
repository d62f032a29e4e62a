"""Monte Carlo engines for the count chain and the particle system.

Randomness is counter-based: trial i of a run with seed s reads the words of
one Philox4x64-10 stream keyed by (s, i), which is `trial_stream(s, i)`.
Every draw inverts one 53-bit uniform made from the next word against a CDF
row held in doubles: a count-chain step against Bin(n, b(x)), a tilted step
against the conditioned kernel, an offspring count against Poisson(lam), and
a move as floor(U*k) into the k legal targets.  Sampling is exact up to the
rounding of those CDF rows; there are no normal approximations.  A row that
covers its distribution's whole support ends at exactly 1 (the Poisson row
folds its tail, below double resolution, into its last entry), so no
uniform inverts past it.

The estimators run their trials in lockstep, a chunk at a time, and make
their words with `philox_block`, a numpy-vectorized Philox that equals
`trial_stream` bit for bit.  CHUNK sizes every batch, and the count chains
invert by bisection in their CDF table, so a step's memory does not grow
with u.  Both count-chain estimators run in one loop, which stops a trial
at STEP_CAP = 10^7 steps with TruncationError.  The one-trial functions
(`step_meanfield`, `sample_conditioned_path`, `step_particle`) are the
reference: they read the same words from a `trial_stream` generator in the
same order, so trial i of an estimator equals its one-trial run on
`trial_stream(seed, i)` (for a count chain, whenever that run ends within
STEP_CAP steps), and every result depends only on (seed, trials).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np
from numpy.random import Generator, Philox

from .chain import ModelParams, _cdf_rows, _log_factorials, _transient_log_rows, transition_log_row
from .solver import TiltedKernel, _check_threshold

#: hard per-trial cap inside estimators; hitting it means the estimate
#: would be biased, which is an error rather than a silent truncation
STEP_CAP = 10**7

#: the batching budget: count-chain trials per step, Philox blocks per kernel
#: call (about 150 ns a block from 4096 up, twice that at 1024) and 4x the
#: particle trials per step.  Results do not depend on it: every trial has its own key.
CHUNK = 4096

_MASK64 = (1 << 64) - 1

# Philox4x64 round multipliers and key increments (Salmon et al., SC'11)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


class TruncationError(RuntimeError):
    """A trial hit the internal step cap; the estimate would be biased."""


def _check_seed(seed: int) -> None:
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError("trials must be positive")


def trial_stream(seed: int, trial: int) -> Generator:
    """Independent generator for one trial, keyed by (seed, trial)."""
    _check_seed(seed)
    if trial < 0:
        raise ValueError(f"trial index must be nonnegative, got {trial}")
    return Generator(Philox(key=(seed & _MASK64) | (trial << 64)))


def _mulhilo(m: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of m*b, from 32-bit halves whose sums never wrap."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    b_lo, hi = b & _LO32, b >> _SHIFT32
    t = ((b_lo * m_lo) >> _SHIFT32) + hi * m_lo
    w = (t & _LO32) + b_lo * m_hi
    hi *= m_hi
    hi += (t >> _SHIFT32) + (w >> _SHIFT32)
    return hi, b * np.uint64(m)


def _philox4x64_10(seed: int, trials: np.ndarray, blocks: np.ndarray, out: np.ndarray) -> None:
    """out = philox4x64_10(counter=(blocks+1, 0, 0, 0), key=(seed, trials)), 1-D arrays."""
    c0 = blocks + np.uint64(1)
    c1 = c2 = c3 = np.zeros_like(c0)
    k0, k1 = seed, trials.copy()
    for r in range(10):
        if r:
            k0 = (k0 + _PHILOX_W[0]) & _MASK64
            k1 += np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        hi1 ^= c1 ^ np.uint64(k0)
        hi0 ^= c3 ^ k1
        c0, c1, c2, c3 = hi1, lo1, hi0, lo0
    np.stack([c0, c1, c2, c3], axis=-1, out=out)


def philox_block(seed: int, trials, blocks) -> np.ndarray:
    """Block `blocks` of `trial_stream(seed, trials)`: uint64 words, shape (..., 4).

    numpy's Philox is Philox4x64-10 keyed by (seed, trial) and increments its
    counter before each block, so block j is philox4x64_10(counter=(j+1, 0, 0,
    0), key=(seed, trial)).  `trials` and `blocks` broadcast against each
    other; word w of a trial is word w % 4 of its block w // 4.  The kernel
    runs over CHUNK blocks at a time, which bounds its temporaries.
    """
    trials, blocks = np.broadcast_arrays(
        np.asarray(trials, dtype=np.uint64), np.asarray(blocks, dtype=np.uint64)
    )
    out = np.empty(trials.shape + (4,), dtype=np.uint64)
    flat_trials, flat_blocks, flat_out = trials.ravel(), blocks.ravel(), out.reshape(-1, 4)
    for lo in range(0, flat_trials.size, CHUNK):
        part = slice(lo, lo + CHUNK)
        _philox4x64_10(seed, flat_trials[part], flat_blocks[part], flat_out[part])
    return out


def uniforms(words: np.ndarray) -> np.ndarray:
    """53-bit uniforms on [0, 1) from 64-bit words, as `Generator.random` makes them."""
    u = (words >> np.uint64(11)).astype(np.float64)
    u *= 2.0**-53
    return u


def _invert(cdf: np.ndarray, u) -> np.ndarray:
    """Inverse-CDF draw: how many entries of a nondecreasing CDF row are <= u."""
    return np.searchsorted(cdf, u, side="right")


def _invert_rows(table: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """_invert(table[rows[i]], u[i]) for every i, by bisection.

    All rows have length k, so every search halves its range in step with the
    others and reads ceil(log2 k) + 1 entries of the flat table, not a row.
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


@lru_cache(maxsize=256)
def _binomial_cdf(params: ModelParams, x: int) -> np.ndarray:
    """CDF of Bin(n, b(x)) over y = 0..n, from transition_log_row, ending at exactly 1."""
    return _cdf_rows(np.exp(transition_log_row(params, x)))


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
        n = self.vertex_count
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"vertex count must be an integer >= 1, got {n!r}")
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
    lines = path.read_text().splitlines() or [""]
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
class ParticleState:
    """Occupied-site indicator vector and the current time step."""

    occupied: np.ndarray
    time: int = 0

    def __post_init__(self):
        occ = np.asarray(self.occupied, dtype=bool).copy()
        occ.flags.writeable = False
        object.__setattr__(self, "occupied", occ)

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.occupied))


def single_origin_state(graph: GraphSpec, origin: int = 0) -> ParticleState:
    occ = np.zeros(graph.vertex_count, dtype=bool)
    occ[origin] = True
    return ParticleState(occ, 0)


@dataclass(frozen=True)
class Trajectory:
    """A sample path of the count chain, with its exit flags."""

    states: np.ndarray
    absorbed_at_zero: bool
    crossed_u: bool
    u: int | None = None

    def __post_init__(self):
        arr = np.asarray(self.states, dtype=np.int64).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "states", arr)
        if self.absorbed_at_zero and self.crossed_u:
            raise ValueError("a path cannot both die and cross the threshold")
        if self.absorbed_at_zero != (self.states[-1] == 0):
            raise ValueError("absorbed_at_zero must match a terminal state of 0")

    @property
    def truncated(self) -> bool:
        return not self.absorbed_at_zero and not self.crossed_u

    @property
    def steps(self) -> int:
        return len(self.states) - 1


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
        _check_trials(self.trials)
        if self.std_error < 0.0:
            raise ValueError("standard error cannot be negative")


def step_meanfield(params: ModelParams, x: int, stream: Generator) -> int:
    """One exact Bin(n, b(x)) transition of the count chain, by inversion."""
    if x == 0:
        return 0
    return int(_invert(_binomial_cdf(params, x), stream.random()))


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


def step_particle(
    graph: GraphSpec, state: ParticleState, lam: float, stream: Generator
) -> ParticleState:
    """One step of the particle system on a graph.

    Every occupied vertex, in ascending order, spawns a Poisson(lam) number
    of offspring (one word each); then each offspring, parent by parent,
    moves to a uniform legal target (one word each).  Vertices receiving
    exactly one arrival are occupied next.
    """
    if not lam > 0.0:
        raise ValueError(f"offspring mean must be positive, got {lam}")
    parents = np.flatnonzero(state.occupied)
    offspring = _invert(_poisson_cdf(lam), stream.random(parents.size))
    targets = _move_targets(graph, parents, offspring, stream.random(offspring.sum()))
    arrivals = np.bincount(targets, minlength=graph.vertex_count)
    return ParticleState(arrivals == 1, state.time + 1)


def run_to_absorption(
    params: ModelParams,
    x0: int,
    u: int | None,
    max_steps: int,
    stream: Generator,
) -> Trajectory:
    """Run the count chain until it dies, reaches >= u, or exhausts max_steps.

    The upper-passage time is inf{t >= 0: X_t >= u}, so a start at or above
    u crosses immediately at time 0.  Hitting max_steps yields a truncated
    trajectory, flagged but not an error.
    """
    if not 0 <= x0 <= params.n:
        raise ValueError(f"state {x0} outside [0, {params.n}]")
    states = [x0]
    x = x0
    while x != 0 and (u is None or x < u) and len(states) <= max_steps:
        x = step_meanfield(params, x, stream)
        states.append(x)
    return Trajectory(states, x == 0, x != 0 and u is not None and x >= u, u)


def sample_conditioned_path(kernel: TiltedKernel, x0: int, stream: Generator) -> Trajectory:
    """Sample the conditioned chain from x0 until it dies.

    The tilted kernel puts no mass at or above u, so every sampled path
    stays below u and ends at 0.
    """
    if not 1 <= x0 < kernel.u:
        raise ValueError(f"start {x0} outside [1, {kernel.u - 1}]")
    cdfs = kernel.row_cdfs
    states = [x0]
    x = x0
    while x != 0:
        x = int(_invert(cdfs[x - 1], stream.random()))
        states.append(x)
    return Trajectory(states, True, False, kernel.u)


class _Uniforms:
    """Successive uniforms of `trial_stream(seed, i)` for a shrinking set of trials.

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
    state from x; step t of trial i inverts uniform t of trial_stream(seed,
    i).  A count of u means the step left 0..u-1, a crossing, which a row
    ending at 1 never gives.  A trial stops at 0 or u, and one still running
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
    _check_threshold(params, u)
    _check_trials(trials)
    _check_seed(seed)
    if not 0 <= x0 < u:
        raise ValueError(f"start {x0} must lie in [0, u={u})")
    cdfs = _transient_log_rows(params, u)
    np.exp(cdfs, out=cdfs)
    np.cumsum(cdfs, axis=1, out=cdfs)
    deaths, total, _, longest = _run_chains(cdfs, x0, trials, seed)
    mean = float(deaths) / trials
    return EstimateWithCI(
        mean, math.sqrt(mean * (1.0 - mean) / trials), trials, seed, total, longest
    )


def _check_conditioned_run(x0: int, trials: int, u: int) -> None:
    _check_trials(trials)
    if not 1 <= x0 < u:
        raise ValueError(f"start {x0} outside [1, {u - 1}]")


def estimate_conditioned_length(
    kernel: TiltedKernel,
    x0: int,
    trials: int,
    seed: int,
) -> EstimateWithCI:
    """Mean extinction time of the conditioned chain from x0, with its SE.

    A trial that passes STEP_CAP steps raises TruncationError: with u at or
    above eq a conditioned chain lives about as long as the raw one.
    """
    _check_conditioned_run(x0, trials, kernel.u)
    _check_seed(seed)
    # exact integer moments: nothing is rounded before the final division
    _, total, sq, longest = _run_chains(kernel.row_cdfs, x0, trials, seed)
    mean = float(total) / trials
    var = max(float(sq) / trials - mean * mean, 0.0)
    return EstimateWithCI(mean, math.sqrt(var / trials), trials, seed, total, longest)


def _move_uniforms(seed: int, idx: np.ndarray, p: int, moves: np.ndarray) -> np.ndarray:
    """Uniforms p .. p+moves_i-1 of trial_stream(seed, idx_i), trial after trial."""
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

    Trial i reads the words step_particle reads from trial_stream(seed, i):
    words 0..P-1 are the parents' offspring counts, the next ones the moves.
    """
    p = parents.size
    first = -(-p // 4)  # blocks holding the count words
    words = philox_block(seed, idx[:, None], np.arange(first)).reshape(idx.size, 4 * first)
    offspring = _invert(_poisson_cdf(lam), uniforms(words[:, :p]))
    moves = offspring.sum(axis=1)
    u = _move_uniforms(seed, idx, p, moves)
    key = _move_targets(graph, np.tile(parents, idx.size), offspring.reshape(-1), u)
    n = graph.vertex_count
    key += np.repeat(np.arange(idx.size) * n, moves)
    arrivals = np.bincount(key, minlength=idx.size * n).reshape(idx.size, n)
    return (arrivals == 1).sum(axis=1)


def particle_step_counts(
    graph: GraphSpec,
    start_count: int,
    lam: float,
    trials: int,
    seed: int,
) -> np.ndarray:
    """Occupied-site counts after one particle step from a fixed-size start.

    The starting set is the first start_count vertices; on a vertex-
    transitive graph the choice is immaterial.  Returns one count per trial;
    trial i equals step_particle on trial_stream(seed, i).
    """
    _check_trials(trials)
    _check_seed(seed)
    if not 0 <= start_count <= graph.vertex_count:
        raise ValueError("start_count outside the vertex range")
    if not lam > 0.0:
        raise ValueError(f"offspring mean must be positive, got {lam}")
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
