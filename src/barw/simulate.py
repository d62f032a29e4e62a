"""Monte Carlo engines for the count chain and the particle system.

Sampling is exact: binomial and Poisson draws come from numpy's Generator
(inversion for small means, exact accept/reject for large), never from
normal approximations.  Randomness is counter-based: trial i of a run with
seed s uses an independent Philox stream keyed by (s, i), and trials run
one after another, so results depend only on (seed, trials).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from numpy.random import Generator, Philox

from .chain import ModelParams, branch_prob
from .solver import TiltedKernel

#: hard per-trial cap inside estimators; hitting it means the estimate
#: would be biased, which is an error rather than a silent truncation
STEP_CAP = 10**7

_MASK64 = (1 << 64) - 1


class TruncationError(RuntimeError):
    """A trial hit the internal step cap; the estimate would be biased."""


def trial_stream(seed: int, trial: int) -> Generator:
    """Independent generator for one trial, keyed by (seed, trial)."""
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if trial < 0:
        raise ValueError(f"trial index must be nonnegative, got {trial}")
    return Generator(Philox(key=(seed & _MASK64) | (trial << 64)))


@dataclass(frozen=True)
class GraphSpec:
    """A finite graph plus the convention for where offspring may move.

    adjacency holds sorted neighbor arrays without duplicates; allow_self
    adds the parent's own vertex to every legal-target set.  The mean-field
    convention is the complete graph with allow_self=True.
    """

    vertex_count: int
    adjacency: tuple
    allow_self: bool

    def __post_init__(self):
        if self.vertex_count < 1:
            raise ValueError("graph needs at least one vertex")
        if len(self.adjacency) != self.vertex_count:
            raise ValueError("adjacency must list every vertex")
        frozen = []
        for v, nbrs in enumerate(self.adjacency):
            arr = np.asarray(nbrs, dtype=np.int64)
            if arr.size != np.unique(arr).size:
                raise ValueError(f"duplicate neighbors at vertex {v}")
            if arr.size and (arr.min() < 0 or arr.max() >= self.vertex_count):
                raise ValueError(f"neighbor out of range at vertex {v}")
            if arr.size == 0 and not self.allow_self:
                raise ValueError(f"vertex {v} has no legal move target")
            arr.flags.writeable = False
            frozen.append(arr)
        object.__setattr__(self, "adjacency", tuple(frozen))

    @cached_property
    def targets(self) -> tuple:
        """Legal move targets per vertex (neighbors, plus self if allowed)."""
        out = []
        for v, nbrs in enumerate(self.adjacency):
            t = np.sort(np.append(nbrs, v)) if self.allow_self else nbrs
            t.flags.writeable = False
            out.append(t)
        return tuple(out)

    @cached_property
    def uniform_targets(self) -> bool:
        """True when every vertex may move anywhere (complete graph with self)."""
        return self.allow_self and all(
            len(nbrs) == self.vertex_count - 1 for nbrs in self.adjacency
        )


def complete_graph(n: int, allow_self: bool = True) -> GraphSpec:
    """K_n; with allow_self=True this is the mean-field movement convention."""
    adjacency = [np.delete(np.arange(n), v) for v in range(n)]
    return GraphSpec(n, tuple(adjacency), allow_self)


def parse_graph_file(path: str | Path) -> GraphSpec:
    """Read the plain-text graph format.

    First line: `vertices=<count> self_loops=<0|1>`; every further nonempty
    line is an undirected edge `a b` with 0-based endpoints.  Duplicate
    edges are rejected.
    """
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty graph file")
    head = lines[0].split()
    try:
        fields = dict(part.split("=", 1) for part in head)
        count = int(fields["vertices"])
        allow_self = bool(int(fields["self_loops"]))
    except (ValueError, KeyError):
        raise ValueError(f"{path}: bad header line {lines[0]!r}") from None
    seen = set()
    nbrs: list[list[int]] = [[] for _ in range(count)]
    for line in lines[1:]:
        if not line.strip():
            continue
        try:
            a, b = (int(tok) for tok in line.split())
        except ValueError:
            raise ValueError(f"{path}: bad edge line {line!r}") from None
        if a == b:
            raise ValueError(f"{path}: self edge {a} {b} (use the self_loops flag)")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise ValueError(f"{path}: duplicate edge {a} {b}")
        seen.add(key)
        nbrs[a].append(b)
        nbrs[b].append(a)
    return GraphSpec(count, tuple(np.array(sorted(v), dtype=np.int64) for v in nbrs), allow_self)


def graph_from_name(name: str, allow_self: bool = True) -> GraphSpec:
    """Resolve `complete:<n>` to K_n, anything else to a graph file path."""
    if name.startswith("complete:"):
        return complete_graph(int(name.split(":", 1)[1]), allow_self)
    return parse_graph_file(name)


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

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.std_error < 0.0:
            raise ValueError("standard error cannot be negative")


def step_meanfield(params: ModelParams, x: int, stream: Generator) -> int:
    """One exact Bin(n, b(x)) transition of the count chain."""
    if not 0 <= x <= params.n:
        raise ValueError(f"state {x} outside [0, {params.n}]")
    if x == 0:
        return 0
    return int(stream.binomial(params.n, branch_prob(params, x)))


def step_particle(
    graph: GraphSpec, state: ParticleState, lam: float, stream: Generator
) -> ParticleState:
    """One step of the particle system on a graph.

    Every occupied vertex spawns an exact Poisson(lam) number of offspring;
    each offspring moves to an independent uniform legal target; vertices
    receiving exactly one arrival are occupied next.
    """
    if not lam > 0.0:
        raise ValueError(f"offspring mean must be positive, got {lam}")
    parents = np.flatnonzero(state.occupied)
    if parents.size == 0:
        return ParticleState(state.occupied, state.time + 1)
    counts = stream.poisson(lam, size=parents.size)
    arrivals = np.zeros(graph.vertex_count, dtype=np.int64)
    if graph.uniform_targets:
        total = int(counts.sum())
        if total:
            moves = stream.integers(0, graph.vertex_count, size=total)
            arrivals += np.bincount(moves, minlength=graph.vertex_count)
    else:
        targets = graph.targets
        for parent, k in zip(parents, counts):
            if k:
                choices = targets[parent]
                moves = choices[stream.integers(0, choices.size, size=int(k))]
                arrivals += np.bincount(moves, minlength=graph.vertex_count)
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
    if x == 0:
        return Trajectory(states, True, False, u)
    if u is not None and x >= u:
        return Trajectory(states, False, True, u)
    for _ in range(max_steps):
        x = step_meanfield(params, x, stream)
        states.append(x)
        if x == 0:
            return Trajectory(states, True, False, u)
        if u is not None and x >= u:
            return Trajectory(states, False, True, u)
    return Trajectory(states, False, False, u)


def sample_conditioned_path(kernel: TiltedKernel, x0: int, stream: Generator) -> Trajectory:
    """Sample the conditioned chain from x0 until it dies.

    The tilted kernel puts no mass at or above u, so every sampled path
    stays below u and ends at 0.
    """
    if not 1 <= x0 < kernel.u:
        raise ValueError(f"start {x0} outside [1, {kernel.u - 1}]")
    cdfs = kernel.row_cdfs
    top = kernel.u - 1
    states = [x0]
    x = x0
    while x != 0:
        x = min(int(np.searchsorted(cdfs[x - 1], stream.random(), side="right")), top)
        states.append(x)
    return Trajectory(states, True, False, kernel.u)


def estimate_hitting_prob(
    params: ModelParams,
    u: int,
    x0: int,
    trials: int,
    seed: int,
) -> EstimateWithCI:
    """Monte Carlo estimate of P_x0[hit 0 before reaching >= u].

    Per-trial streams are derived from (seed, trial index); the mean is an
    exact integer count over trials, so repeated runs agree bit for bit.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0 <= x0 < u:
        raise ValueError(f"start {x0} must lie in [0, u={u})")
    deaths = 0
    for i in range(trials):
        traj = run_to_absorption(params, x0, u, STEP_CAP, trial_stream(seed, i))
        if traj.truncated:
            raise TruncationError(
                f"trial {i} exceeded {STEP_CAP} steps; the estimate would be biased"
            )
        deaths += traj.absorbed_at_zero
    mean = float(deaths) / trials
    return EstimateWithCI(mean, math.sqrt(mean * (1.0 - mean) / trials), trials, seed)


def estimate_conditioned_length(
    kernel: TiltedKernel,
    x0: int,
    trials: int,
    seed: int,
) -> EstimateWithCI:
    """Mean extinction time of the conditioned chain from x0, with its SE."""
    if trials < 1:
        raise ValueError("trials must be positive")
    lengths = np.zeros(trials, dtype=np.int64)
    for i in range(trials):
        lengths[i] = sample_conditioned_path(kernel, x0, trial_stream(seed, i)).steps
    mean = float(int(lengths.sum())) / trials
    # exact integer moments: nothing is rounded before the final division
    sq = float(int(np.dot(lengths, lengths)))
    var = max(sq / trials - mean * mean, 0.0)
    return EstimateWithCI(mean, math.sqrt(var / trials), trials, seed)


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
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0 <= start_count <= graph.vertex_count:
        raise ValueError("start_count outside the vertex range")
    occ = np.zeros(graph.vertex_count, dtype=bool)
    occ[:start_count] = True
    state = ParticleState(occ, 0)
    counts = np.zeros(trials, dtype=np.int64)
    for i in range(trials):
        counts[i] = step_particle(graph, state, lam, trial_stream(seed, i)).count
    return counts


def tv_distance(pmf_a: np.ndarray, pmf_b: np.ndarray) -> float:
    """Total-variation distance between two pmfs on 0..K (padded as needed)."""
    k = max(len(pmf_a), len(pmf_b))
    a = np.zeros(k)
    b = np.zeros(k)
    a[: len(pmf_a)] = pmf_a
    b[: len(pmf_b)] = pmf_b
    return float(0.5 * np.abs(a - b).sum())
