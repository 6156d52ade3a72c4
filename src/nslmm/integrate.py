"""Stepping engine: transformed multistep and Runge-Kutta steps, the
full-run driver with startup handling, and a classical RK4 reference solver.

A multistep run needs s starting iterates u^0..u^(s-1).  These come either
from the problem's closed-form solution or from a transformed one-step
Runge-Kutta starter, mirroring how the two model problems are handled in
practice (closed form for the logistic equation, a matching-order starter
for the epidemic system).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Union

import numpy as np

from .denominator import DenominatorSpec, PhiKind, eval_phi
from .errors import ConfigurationError
from .methods import (Method, MultistepMethod, RungeKuttaMethod,
                      effective_ssp_coefficient, get_method)
from .problems import OdeProblem, exact_solution, fe_property_bound

#: (t_end - t0)/dt must be this close to an integer; runs are never shortened
ALIGNMENT_TOL = 1e-8


@dataclass(frozen=True)
class ExactStartup:
    """Fill u^1..u^(s-1) from the problem's closed-form solution."""


@dataclass(frozen=True)
class RungeKuttaStartup:
    """Fill u^1..u^(s-1) with a transformed one-step Runge-Kutta method.

    ``bound`` overrides the starter's transform threshold; by default it is
    the starter's SSP coefficient times the problem's Euler bound at y0.
    """

    rk: Union[str, RungeKuttaMethod]
    phi_kind: PhiKind = PhiKind.PHI8
    p: int | None = None
    bound: float | None = None


StartupPolicy = Union[ExactStartup, RungeKuttaStartup]

#: matching-order starter for each multistep design order
STARTER_FOR_ORDER = {
    2: ("ssprk22", PhiKind.PHI5),
    3: ("ssprk33", PhiKind.PHI7),
    4: ("ssprk104", PhiKind.PHI8),
}


class RecordMode(Enum):
    FULL_TRAJECTORY = "full"
    FINAL_STATE_ONLY = "final"


@dataclass(frozen=True)
class RunConfig:
    problem: OdeProblem
    method: Method
    phi: DenominatorSpec
    dt: float
    t_end: float
    y0: Sequence[float]
    t0: float = 0.0
    startup: StartupPolicy | None = None
    record: RecordMode = RecordMode.FULL_TRAJECTORY


@dataclass(frozen=True)
class Trajectory:
    """Uniform-grid states plus provenance.

    ``states`` has shape (K, m); row i is the state at step index
    ``first_index + i`` (first_index > 0 only for final-state-only records).
    """

    t0: float
    dt: float
    states: np.ndarray
    provenance: dict
    first_index: int = 0

    @property
    def times(self) -> np.ndarray:
        idx = self.first_index + np.arange(self.states.shape[0])
        return self.t0 + idx * self.dt

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def to_csv(self) -> str:
        m = self.states.shape[1]
        header = "t," + ",".join(f"u{k + 1}" for k in range(m))
        lines = [header]
        for t, row in zip(self.times, self.states):
            lines.append(",".join([repr(float(t))] + [repr(float(v)) for v in row]))
        return "\n".join(lines) + "\n"


def step_count(t0: float, t_end: float, dt: float) -> int:
    """Number of steps N with t0 + N dt = t_end, rejecting misaligned grids."""
    if not all(math.isfinite(v) for v in (t0, t_end, dt)):
        raise ConfigurationError(
            f"t0, t_end and dt must be finite (got {t0!r}, {t_end!r}, {dt!r})")
    if not dt > 0:
        raise ConfigurationError("dt must be positive")
    span = t_end - t0
    if not span > 0:
        raise ConfigurationError("t_end must exceed t0")
    ratio = span / dt
    n = round(ratio)
    if n < 1 or abs(ratio - n) > ALIGNMENT_TOL:
        raise ConfigurationError(
            f"(t_end - t0)/dt = {ratio!r} is not an integer; "
            "choose dt dividing the time span")
    return n


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def _ms_step(terms, h: float, rhs, newest_first) -> np.ndarray:
    """One Shu-Osher multistep update with fixed accumulation order
    (ascending j, state term before slope term)."""
    acc = None
    for j, a, b in terms:
        u = newest_first[j - 1]
        contrib = a * u
        if b != 0.0:
            contrib = contrib + (h * b) * rhs(u)
        acc = contrib if acc is None else acc + contrib
    return acc


def nslmm_step(method: MultistepMethod, phi: DenominatorSpec,
               problem: OdeProblem, history: Sequence, dt: float) -> np.ndarray:
    """One transformed multistep step.

    ``history`` holds the last s states ordered newest first, so
    history[j-1] is u^(n+1-j).
    """
    if len(history) != method.steps:
        raise ValueError(
            f"history has {len(history)} states, method needs {method.steps}")
    if not dt > 0:
        raise ValueError("dt must be positive")
    h = float(eval_phi(phi, dt))
    hist = [np.asarray(u, dtype=float) for u in history]
    return _ms_step(method.terms, h, problem.rhs, hist)


def _rk_step(stages, h: float, rhs, u: np.ndarray) -> np.ndarray:
    """One Shu-Osher Runge-Kutta step; slope values cached per stage source."""
    values = [u]
    slopes: list = [None]
    for stage in stages:
        acc = None
        for src, a, b in stage:
            contrib = a * values[src]
            if b != 0.0:
                if slopes[src] is None:
                    slopes[src] = rhs(values[src])
                contrib = contrib + (h * b) * slopes[src]
            acc = contrib if acc is None else acc + contrib
        values.append(acc)
        slopes.append(None)
    return values[-1]


def nsrk_step(rk: RungeKuttaMethod, phi: DenominatorSpec,
              problem: OdeProblem, u, dt: float) -> np.ndarray:
    """One transformed Runge-Kutta step (dt replaced by phi(dt) throughout)."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    h = float(eval_phi(phi, dt))
    return _rk_step(rk.float_stages, h, problem.rhs, np.asarray(u, dtype=float))


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def resolve_startup(config: RunConfig) -> StartupPolicy | None:
    """The startup policy actually used for a run.

    Explicit policies pass through; the default is the closed-form solution
    when available, otherwise the matching-order Runge-Kutta starter.
    Runge-Kutta methods need no startup.
    """
    if isinstance(config.method, RungeKuttaMethod):
        return None
    if config.startup is not None:
        return config.startup
    if config.problem.exact is not None:
        return ExactStartup()
    order = config.method.design_order
    if order not in STARTER_FOR_ORDER:
        raise ConfigurationError(
            f"no default starter for order {order}; set startup explicitly")
    rk_id, kind = STARTER_FOR_ORDER[order]
    return RungeKuttaStartup(rk=rk_id, phi_kind=kind)


def _starter_spec(policy: RungeKuttaStartup, problem: OdeProblem,
                  y0: np.ndarray) -> tuple[RungeKuttaMethod, DenominatorSpec]:
    rk = get_method(policy.rk) if isinstance(policy.rk, str) else policy.rk
    if not isinstance(rk, RungeKuttaMethod):
        raise ConfigurationError(f"starter {policy.rk!r} is not a Runge-Kutta method")
    if policy.phi_kind is PhiKind.IDENTITY:
        return rk, DenominatorSpec(PhiKind.IDENTITY)
    bound = policy.bound
    if bound is None:
        b_fe = fe_property_bound(problem, y0)
        bound = effective_ssp_coefficient(rk) * b_fe
    return rk, DenominatorSpec(policy.phi_kind, bound=bound, p=policy.p)


def _startup_states(config: RunConfig, s: int, y0: np.ndarray) -> list[np.ndarray]:
    policy = resolve_startup(config)
    states = [y0]
    if s == 1:
        return states
    if isinstance(policy, ExactStartup):
        if config.problem.exact is None:
            raise ConfigurationError(
                f"{config.problem.name} has no closed-form solution for startup")
        for i in range(1, s):
            states.append(exact_solution(config.problem, i * config.dt, y0))
    elif isinstance(policy, RungeKuttaStartup):
        rk, spec = _starter_spec(policy, config.problem, y0)
        h = float(eval_phi(spec, config.dt))
        for _ in range(1, s):
            states.append(_rk_step(rk.float_stages, h, config.problem.rhs,
                                   states[-1]))
    else:
        raise ConfigurationError(f"unknown startup policy {policy!r}")
    return states


def integrate(config: RunConfig) -> Trajectory:
    """Run a configured integration to t_end on an aligned uniform grid."""
    problem = config.problem
    y0 = np.asarray(config.y0, dtype=float)
    if y0.shape != (problem.dimension,):
        raise ConfigurationError(
            f"y0 has shape {y0.shape}, problem needs ({problem.dimension},)")
    n = step_count(config.t0, config.t_end, config.dt)
    method = config.method
    full = config.record is RecordMode.FULL_TRAJECTORY

    if isinstance(method, MultistepMethod):
        s = method.steps
        if n < s - 1:
            raise ConfigurationError(
                f"{n} steps cannot accommodate {s - 1} startup values")
        startup = _startup_states(config, s, y0)
        recorded = list(startup) if full else [startup[-1]]
        hist = deque(reversed(startup), maxlen=s)
        h = float(eval_phi(config.phi, config.dt))
        rhs = problem.rhs
        terms = method.terms
        for _ in range(s - 1, n):
            new = _ms_step(terms, h, rhs, hist)
            hist.appendleft(new)
            if full:
                recorded.append(new)
            else:
                recorded[0] = new
    else:
        h = float(eval_phi(config.phi, config.dt))
        rhs = problem.rhs
        stages = method.float_stages
        u = y0
        recorded = [u]
        for _ in range(n):
            u = _rk_step(stages, h, rhs, u)
            if full:
                recorded.append(u)
            else:
                recorded[0] = u

    states = np.asarray(recorded, dtype=float)
    provenance = {
        "problem": problem.name,
        "params": dict(problem.params),
        "method": method.name,
        "phi": config.phi.label(),
        "phi_bound": config.phi.bound,
        "dt": config.dt,
        "t0": config.t0,
        "t_end": config.t_end,
        "y0": [float(v) for v in y0],
        "startup": type(resolve_startup(config)).__name__
        if isinstance(method, MultistepMethod) else None,
        "record": config.record.value,
    }
    first_index = 0 if full else n
    return Trajectory(t0=config.t0, dt=config.dt, states=states,
                      provenance=provenance, first_index=first_index)


# ---------------------------------------------------------------------------
# reference solver
# ---------------------------------------------------------------------------

def _rk4_classic_step(rhs, u: np.ndarray, dt: float) -> np.ndarray:
    k1 = rhs(u)
    k2 = rhs(u + (0.5 * dt) * k1)
    k3 = rhs(u + (0.5 * dt) * k2)
    k4 = rhs(u + dt * k3)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_solution(problem: OdeProblem, y0, t_end: float,
                       dt_ref: float, t0: float = 0.0) -> np.ndarray:
    """Final state from the classical fourth-order Runge-Kutta tableau."""
    n = step_count(t0, t_end, dt_ref)
    u = np.asarray(y0, dtype=float)
    if u.shape != (problem.dimension,):
        raise ConfigurationError(
            f"y0 has shape {u.shape}, problem needs ({problem.dimension},)")
    rhs = problem.rhs
    for _ in range(n):
        u = _rk4_classic_step(rhs, u, dt_ref)
    return u
