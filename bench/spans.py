"""In-memory span recorder and the wrappers that time calls into nslmm.

A span is one call across a layer boundary: name, start, end, parent span
and job id.  Spans live in a list and are written out once, when the run
ends.  Hot leaf calls (``problems.rhs`` and ``denominator.phi_value``, tens
of thousands per job) are not stored one by one: each is folded into a
per-(job, parent, name) count and summed duration.  A leaf has no children,
so its self time is its duration and folding loses nothing that self times
need.

The wrappers are installed from outside the program: each public function
is replaced, in every loaded ``nslmm`` module that holds it, by a timing
wrapper.  ``src/`` itself is never edited.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

_now = time.perf_counter_ns


class Recorder:
    """Spans, folded leaf calls and work counters of one traced run."""

    def __init__(self):
        self.spans = []    # [name, start_ns, end_ns, parent, job]
        self.leaves = defaultdict(lambda: [0, 0])   # (job, parent, name)
        self.counters = defaultdict(int)            # (job, name)
        self.job = None
        self._stack = []
        self._next_job = 0

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, _now(), None, parent, self.job])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = _now()
        self._stack.pop()

    @contextlib.contextmanager
    def job_span(self):
        """The root span of one job; spans opened inside belong to it."""
        self.job = self._next_job
        self._next_job += 1
        idx = self.open("job")
        try:
            yield
        finally:
            self.close(idx)

    def count(self, name: str, value) -> None:
        self.counters[(self.job, name)] += int(value)

    def wrap(self, name: str, fn, on_result=None):
        """A span around every call of ``fn``.  ``on_result(recorder, args,
        result)`` turns the bound arguments and the result into counters."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                on_result(self, bound.arguments, result)
            return result
        return wrapper

    def wrap_leaf(self, name: str, fn):
        leaves = self.leaves
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = _now()
            result = fn(*args, **kwargs)
            cell = leaves[(self.job, stack[-1] if stack else None, name)]
            cell[0] += 1
            cell[1] += _now() - start
            return result
        return wrapper

    # -- analysis ---------------------------------------------------------

    def per_job(self) -> dict:
        """job -> {"calls": {name: n}, "total_s": {...}, "self_s": {...},
        "counters": {...}, "wall_s": job span duration}."""
        child_ns = defaultdict(int)
        for name, start, end, parent, job in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        for (job, parent, name), (calls, total) in self.leaves.items():
            if parent is not None:
                child_ns[parent] += total
        jobs: dict = {}

        def entry(job):
            return jobs.setdefault(job, {
                "calls": defaultdict(int), "total_s": defaultdict(float),
                "self_s": defaultdict(float), "counters": {}, "wall_s": 0.0})

        for idx, (name, start, end, parent, job) in enumerate(self.spans):
            e = entry(job)
            e["calls"][name] += 1
            e["total_s"][name] += (end - start) * 1e-9
            e["self_s"][name] += (end - start - child_ns[idx]) * 1e-9
            if name == "job":
                e["wall_s"] += (end - start) * 1e-9
        for (job, parent, name), (calls, total) in self.leaves.items():
            e = entry(job)
            e["calls"][name] += calls
            e["total_s"][name] += total * 1e-9
            e["self_s"][name] += total * 1e-9
        for (job, name), value in self.counters.items():
            entry(job)["counters"][name] = value
        return jobs

    def dump(self, path) -> None:
        """One JSON line per span, then one per folded leaf and counter."""
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"span": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "job": job}) + "\n")
            for (job, parent, name), (calls, total) in self.leaves.items():
                fh.write(json.dumps({"leaf": name, "job": job,
                                     "parent": parent, "calls": calls,
                                     "total_ns": total}) + "\n")
            for (job, name), value in self.counters.items():
                fh.write(json.dumps({"counter": name, "job": job,
                                     "value": value}) + "\n")


# ---------------------------------------------------------------------------
# work counters computed from a call's arguments and result
# ---------------------------------------------------------------------------

def _integrate_steps(rec, args, traj):
    config = args["config"]
    n = round((config.t_end - config.t0) / config.dt)
    rec.count("integrate.integrate.steps", n)
    rec.count("integrate.steps", n)


def _reference_steps(rec, args, result):
    n = round((args["t_end"] - args["t0"]) / args["dt_ref"])
    rec.count("integrate.reference_solution.steps", n)
    rec.count("integrate.steps", n)


def _checked_states(rec, args, report):
    rec.count("qualprops.check.states", np.asarray(args["traj"].states).shape[0])


def sweep_element_steps(args, outcome) -> tuple[int, int]:
    """(computed, useful) element-steps of one ``run_preservation_sweep``.

    Reconstructed from the call's arguments and outcome under the kernel's
    freezing rule: an element is active from step ``s`` until its horizon
    or the step at which the last requested check first failed, and the
    loop computes all B elements on every step until none is active.
    """
    y0s = np.asarray(args["y0s"])
    B = y0s.shape[0]
    s = args["method"].steps
    n_steps = np.broadcast_to(np.asarray(args["n_steps"], dtype=float), (B,))
    requested = []
    if args["lower"] is not None or args["upper"] is not None:
        requested.append(outcome.first_bound_step)
    if args["weak_direction"] != 0:
        requested.append(outcome.first_weak_step)
    finish = np.full(B, np.inf)
    if requested:
        firsts = np.stack([np.where(f >= 0, f, np.inf) for f in requested])
        finish = firsts.max(axis=0)
    active_steps = np.clip(np.minimum(n_steps, finish) - s + 1, 0, None)
    iterations = int(active_steps.max()) if B else 0
    return B * iterations, int(active_steps.sum())


def _sweep_steps(rec, args, outcome):
    computed, useful = sweep_element_steps(args, outcome)
    rec.count("experiments.sweep.elem_steps", computed)
    rec.count("experiments.sweep.useful_elem_steps", useful)


def _sharpness_rows(rec, args, report):
    rec.count("experiments.sharpness_bisection.rows", len(report.rows))


def _replace_everywhere(original, replacement) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "nslmm"
                               or mod_name.startswith("nslmm.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(rec: Recorder) -> None:
    """Time the public functions of every nslmm layer the workloads use."""
    # ``nslmm.integrate`` is shadowed by the function of that name in the
    # package namespace, so modules are looked up by their full names
    cli, denominator, experiments, integrate, problems, qualprops = (
        importlib.import_module(f"nslmm.{name}") for name in
        ("cli", "denominator", "experiments", "integrate", "problems",
         "qualprops"))

    spans = [
        (cli, "main", "cli.main", None),
        (experiments, "convergence_study", "experiments.convergence_study",
         None),
        (experiments, "run_preservation_sweep",
         "experiments.run_preservation_sweep", _sweep_steps),
        (experiments, "seir_conservation_sweep",
         "experiments.seir_conservation_sweep", None),
        (experiments, "sharpness_bisection",
         "experiments.sharpness_bisection", _sharpness_rows),
        (experiments, "bisect_threshold", "experiments.bisect_threshold",
         None),
        (integrate, "integrate", "integrate.integrate", _integrate_steps),
        (integrate, "reference_solution", "integrate.reference_solution",
         _reference_steps),
        (integrate, "nslmm_step", "integrate.nslmm_step", None),
        (integrate, "nsrk_step", "integrate.nsrk_step", None),
        (qualprops, "check_bounds", "qualprops.check", _checked_states),
        (qualprops, "check_weak_monotonicity", "qualprops.check",
         _checked_states),
        (qualprops, "check_linear_invariant", "qualprops.check",
         _checked_states),
    ]
    for module, attr, name, on_result in spans:
        original = getattr(module, attr)
        _replace_everywhere(original, rec.wrap(name, original, on_result))

    original_phi = denominator.phi_value
    _replace_everywhere(original_phi,
                        rec.wrap_leaf("denominator.phi_value", original_phi))

    # rhs is a closure built per problem: wrap it in every problem the
    # factories hand out from now on
    for attr in ("logistic_problem", "seir_problem"):
        factory = getattr(problems, attr)

        def traced_factory(*args, _factory=factory, **kwargs):
            problem = _factory(*args, **kwargs)
            return dataclasses.replace(
                problem, rhs=rec.wrap_leaf("problems.rhs", problem.rhs))

        functools.update_wrapper(traced_factory, factory)
        _replace_everywhere(factory, traced_factory)
