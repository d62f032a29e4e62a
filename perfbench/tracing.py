"""Outside-in tracing of barw: spans recorded by wrapping module attributes.

The package imports names directly (`from .solver import hitting_profile`),
so a wrapper must replace the attribute that the *caller* looks up, such as
`barw.cli.hitting_profile` or `barw.solver.signed_add`.  PATCHES lists
those call sites; nothing under src/ changes.  An attribute a later
version no longer has is skipped, and its layer reports 0 calls.

A span carries a name, start, end, parent span and pass id.  Spans are
kept in memory in flat arrays and written out once, at the end of a run.
Counters (cache hits, solve sizes, path steps) are taken from the wrapped
calls' results, per pass.
"""

from __future__ import annotations

import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from workloads import WORKLOADS, workload_ops

#: (module, attribute the caller looks up, span name)
PATCHES = (
    ("barw.solver", "transition_log_row", "chain.transition_log_row"),
    ("barw.bounds", "transition_log_row", "chain.transition_log_row"),
    ("barw.cli", "transition_log_row", "chain.transition_log_row"),
    ("barw.cli", "hitting_profile", "solver.hitting_profile"),
    ("barw.cli", "tilted_kernel", "solver.tilted_kernel"),
    ("barw.cli", "conditional_expected_extinction", "solver.time_solve"),
    ("barw.cli", "conditional_occupation_time", "solver.time_solve"),
    ("barw.cli", "unconditional_expected_extinction", "solver.time_solve"),
    ("barw.solver", "signed_add", "logdomain.signed_add"),
    ("barw.solver", "signed_sum", "logdomain.signed_sum"),
    ("barw.bounds", "check_envelope", "bounds.checks"),
    ("barw.bounds", "check_ratio_beta", "bounds.checks"),
    ("barw.bounds", "check_geometric", "bounds.checks"),
    ("barw.bounds", "check_ratio_kappa", "bounds.checks"),
    ("barw.bounds", "check_gamma_ratio", "bounds.checks"),
    ("barw.cli", "estimate_hitting_prob", "simulate.estimator"),
    ("barw.cli", "estimate_conditioned_length", "simulate.estimator"),
    ("barw.cli", "particle_step_counts", "simulate.estimator"),
    ("barw.simulate", "trial_stream", "simulate.trial_stream"),
    ("barw.simulate", "step_meanfield", "simulate.step_meanfield"),
    ("barw.simulate", "sample_conditioned_path", "simulate.sample_conditioned_path"),
    ("barw.simulate", "step_particle", "simulate.step_particle"),
    ("barw.cli", "cache_lookup", "cli.cache_lookup"),
    ("barw.cli", "cache_store", "cli.cache_store"),
)

#: every experiment the workloads run, each reported as cli.<experiment>.s
EXPERIMENTS = tuple(op.experiment for w in WORKLOADS for op in workload_ops(w, seed=0))

#: spans reported as .calls and .s
LAYER_SPANS = (
    "chain.transition_log_row",
    "solver.hitting_profile",
    "solver.tilted_kernel",
    "solver.time_solve",
    "logdomain.signed_add",
    "logdomain.signed_sum",
    "bounds.checks",
    "simulate.estimator",
    "simulate.trial_stream",
    "simulate.step_meanfield",
    "simulate.sample_conditioned_path",
    "simulate.step_particle",
    "cli.cache_lookup",
    "cli.cache_store",
)
#: spans whose self time (duration minus traced children) is reported
SELF_SPANS = ("solver.hitting_profile", "simulate.estimator")

#: counter name -> (unit, better)
COUNTERS = {
    "solver.hitting_profile.m_sum": ("count", "lower"),
    "solver.method.native": ("count", "higher"),
    "solver.method.logdomain": ("count", "lower"),
    "solver.residual_max": ("log", "lower"),
    "bounds.checks.failed": ("count", "lower"),
    "simulate.cond_path.steps_total": ("count", "lower"),
    "simulate.cond_path.steps_max": ("count", "lower"),
    "cli.cache.hits": ("count", "higher"),
    "cli.cache.stores": ("count", "lower"),
}


def _profile(counters: dict, profile) -> None:
    counters["solver.hitting_profile.m_sum"] += profile.u - 1
    if profile.method == "dense-native":
        counters["solver.method.native"] += 1
    elif profile.method == "dense-logdomain":
        counters["solver.method.logdomain"] += 1
    counters["solver.residual_max"] = max(counters["solver.residual_max"], profile.residual)


def _path(counters: dict, trajectory) -> None:
    counters["simulate.cond_path.steps_total"] += trajectory.steps
    counters["simulate.cond_path.steps_max"] = max(
        counters["simulate.cond_path.steps_max"], trajectory.steps
    )


def _check(counters: dict, report) -> None:
    counters["bounds.checks.failed"] += not report.passed


def _lookup(counters: dict, profile) -> None:
    counters["cli.cache.hits"] += profile is not None


def _store(counters: dict, path) -> None:
    counters["cli.cache.stores"] += 1


#: span name -> function updating the pass's counters from the call's result
OBSERVERS = {
    "solver.hitting_profile": _profile,
    "bounds.checks": _check,
    "simulate.sample_conditioned_path": _path,
    "cli.cache_lookup": _lookup,
    "cli.cache_store": _store,
}


def layer_metric_names() -> list[str]:
    """Every per-pass metric `Tracer.pass_metrics` returns, in report order."""
    names = []
    for span in LAYER_SPANS:
        names += [f"{span}.calls", f"{span}.s"]
        if span in SELF_SPANS:
            names.append(f"{span}.self_s")
    names += [f"cli.{e}.s" for e in EXPERIMENTS]
    names.append("cli.self_s")
    names += list(COUNTERS)
    return names


class Tracer:
    """Records spans and counters while installed, one pass at a time."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.pass_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: list[dict] = []

    def begin_pass(self) -> None:
        self.counters.append(dict.fromkeys(COUNTERS, 0))

    def wrap(self, name: str, fn):
        """fn, recording a span (and the pass's counters) around every call."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        observe = OBSERVERS.get(name)
        # bound to locals: this runs once per traced call, up to ~10^5 times a pass
        name_id, parent, pass_id = self.name_id, self.parent, self.pass_id
        start, end, stack, counters = self.start, self.end, self._stack, self.counters

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            pass_id.append(len(counters) - 1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()
            if observe is not None:
                observe(counters[-1], result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Replace every PATCHES attribute by its traced wrapper, then restore."""
        saved = []
        try:
            for module_name, attr, name in PATCHES:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def _arrays(self):
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        pass_id = np.frombuffer(self.pass_id, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        children = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        return name_id, pass_id, dur, dur - children

    def pass_metrics(self) -> list[dict]:
        """Per-layer metrics of every traced pass, keyed as layer_metric_names()."""
        name_id, pass_id, dur, self_dur = self._arrays()
        out = []
        for k, counters in enumerate(self.counters):
            in_pass = pass_id == k
            m = {}

            def mask(name):
                return in_pass & (name_id == self._ids.get(name, -1))

            def total(name, values=dur):
                return float(values[mask(name)].sum())

            for span in LAYER_SPANS:
                m[f"{span}.calls"] = int(np.count_nonzero(mask(span)))
                m[f"{span}.s"] = total(span)
                if span in SELF_SPANS:
                    m[f"{span}.self_s"] = total(span, self_dur)
            for e in EXPERIMENTS:
                m[f"cli.{e}.s"] = total(f"cli.{e}")
            m["cli.self_s"] = sum(total(f"cli.{e}", self_dur) for e in EXPERIMENTS)
            m.update(counters)
            out.append(m)
        return out

    def save(self, path) -> None:
        """Write every span out: name, start, end, parent index and pass id."""
        name_id, pass_id, _, _ = self._arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=name_id,
            parent=np.frombuffer(self.parent, dtype=np.int32),
            pass_id=pass_id,
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
