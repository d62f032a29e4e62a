"""The three benchmark workloads: README experiments run through run_experiment.

A workload is a list of operations that make up one pass.  Each operation
is one `barw` experiment at the configuration the README documents
("full"), or at a reduced size ("small") that the self-tests and each
process's warm-up use.  The workload seed becomes `--seed` for the Monte
Carlo experiments; the exact experiments do not read it.

Why these three:

- figures-native: the exact figure set.  Dense-native solves, tilting, the
  time solves, the profile cache (3 stores and 2 hits per pass) and CSV
  writing.  It never reaches the log-domain path or the samplers.
- bounds-logdomain: one bounds report.  Its window profile (u=594) takes
  the signed log-domain path, which holds most of the time.
- mc-samplers: the three samplers.  Per-trial stream set-up and scalar
  stepping hold most of the time; the only solve is native at u=67.
"""

from __future__ import annotations

from dataclasses import dataclass, field

WORKLOADS = ("figures-native", "bounds-logdomain", "mc-samplers")
SCALES = ("full", "small")


@dataclass(frozen=True)
class Op:
    """One experiment: its name and the ExperimentConfig fields it sets."""

    experiment: str
    fields: dict = field(default_factory=dict)
    #: run with the pass's fresh --cache directory
    cached: bool = False


def _figures(n: int, sweep: tuple[int, ...]) -> list[Op]:
    window = {"epsilon": 0.05}
    return [
        Op("profile", {"lam": 2.0, "n": 50, "u": 10}, cached=True),
        Op("figure1", {"lam": 1.5, "n": n, **window}, cached=True),
        Op("figure2", {"lam": 6.0, "n": n, **window}, cached=True),
        Op("cond-time", {"lam": 1.5, "n": n, **window}, cached=True),
        Op("uncond-time", {"lam": 2.0, "n_sweep": sweep}, cached=True),
        Op("occupation", {"lam": 1.5, "n": n, "delta": 0.1, **window}, cached=True),
    ]


def _samplers(seed: int, trials: int) -> list[Op]:
    return [
        Op("mc-hitting", {"lam": 2.0, "n": 50, "u": 10, "x0": 3, "trials": trials, "seed": seed}),
        Op(
            "mc-cond-path",
            {"lam": 1.5, "n": 300, "epsilon": 0.05, "x0": 20, "trials": trials, "seed": seed},
        ),
        Op("equivalence", {"lam": 2.0, "n": 30, "x0": 10, "trials": 2 * trials, "seed": seed}),
    ]


def workload_ops(workload: str, seed: int, scale: str = "full") -> list[Op]:
    """The operations of one pass of `workload` at `scale`."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    full = scale == "full"
    if workload == "figures-native":
        return _figures(1200, (20, 30, 40, 50)) if full else _figures(200, (20, 30))
    if workload == "bounds-logdomain":
        return [Op("bounds-report", {"lam": 2.0, "n": 2000 if full else 300, "epsilon": 0.05})]
    if workload == "mc-samplers":
        return _samplers(seed, 20_000 if full else 400)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
