"""Stepping engine: transformed multistep and Runge-Kutta steps, the
full-run driver with startup handling, and a classical RK4 reference solver.

A multistep run needs s starting iterates u^0..u^(s-1).  These come either
from the problem's closed-form solution or from a transformed one-step
Runge-Kutta starter, mirroring how the two model problems are handled in
practice (closed form for the logistic equation, a matching-order starter
for the epidemic system).  ``_startup_states`` builds them for one run or
for a batch of runs alike.

``_ms_step`` is the one multistep kernel of the scalar driver here and the
batched sweep in ``experiments``.  Beside the ring of the last s states it
keeps a ring of their slopes, each evaluated the first time a term needs
it, so a run makes one ``rhs`` call per step plus at most s - 1 for the
startup states.  h*beta_j is formed once per run and the accumulation
order is fixed, so cached slopes give the same bits as fresh ones.
``_rk_step`` is the one Runge-Kutta kernel of both paths, with h*beta
formed once per run in the same way; it sums each stage with ``_ms_step``.

A single run carries its state as Python floats through the same
kernels: a float for a one-component problem, a list of m floats for
several components, with h*beta_j and alpha_j floats.  Python's float
``+``, ``-`` and ``*`` are the IEEE double operations numpy's are, and
the list branch of ``_ms_step`` sums each component in the kernel's
order, so they give the same bits without numpy's cost per call, which
dominates on a state of a few values.  ``_single_state`` puts ``y0`` and
the closed-form startup states in that form, and the record is copied
into a (K, m) array at the end; the classical RK4 reference steps a
state the same way.  ``nslmm_step`` and ``nsrk_step`` take and return
arrays and convert at their edges.  On a 2-vCPU Xeon virtual machine
(Python 3.11, numpy 2.4) a SEIR ``sspms64`` run took 4.8 instead of 8.2
us per step that way, and 5000 logistic ``sspms64`` steps on a bare float
4.1 instead of 16.0 ms on a one-element list.  Every stepping loop
runs with numpy's overflow and invalid-value warnings off, as the
sweep's does: a run that leaves the property region shows its inf and
NaN states in the record and in any check.

The batch driver passes both kernels a pair of scratch arrays, in which
each term is formed (see ``_add_in_place``).  On SEIR blocks of 4000 x 4
states, where each temporary is 128 KB, this took a sweep of 2e4
elements over 200 steps from about 320 to about 220 ms on a 2-vCPU Xeon
virtual machine.

A batch's (B, m) states are component-major (Fortran-ordered), so that
each component a right-hand side reads or writes is contiguous: the batch
driver starts from a Fortran-ordered ``y0``, ``_component_major`` lays
out per-element step sizes the same way, and numpy's ufuncs keep the
layout of their operands.  On a 2-vCPU Xeon virtual machine one SEIR
``rhs`` call on 4000 states took 23 instead of 40 us that way.

A full-trajectory run whose record would take more than
``MAX_RECORD_BYTES`` (see ``record_bytes``) is refused before it steps,
by ``require_size``, which sweeps and sharpness grids use too.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Union

import numpy as np

from .denominator import (DenominatorSpec, PhiKind, eval_phi, phi_value,
                          ssp_threshold)
from .errors import ConfigurationError
from .methods import Method, MultistepMethod, RungeKuttaMethod, get_method
from .problems import OdeProblem, exact_solution, fe_property_bound

#: (t_end - t0)/dt must be this close to an integer; runs are never shortened
ALIGNMENT_TOL = 1e-8

#: largest full-trajectory record, in bytes, a run may build; sweeps and
#: sharpness grids are held to it too
MAX_RECORD_BYTES = 2 ** 30

#: bytes of a Python float, the state of a one-component run
_FLOAT_OBJECT_BYTES = sys.getsizeof(1.0)

#: bytes of an empty list object, beside 8 bytes per item, the state of a
#: run of several components
_LIST_OBJECT_BYTES = sys.getsizeof([])


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
        # Python floats print as ``repr(float(v))`` of each value did; a
        # row at a time keeps the lists small
        for t, row in zip(self.times.tolist(), self.states):
            lines.append(",".join(map(repr, [t] + row.tolist())))
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


def require_size(need: int, what: str, advice: str = "") -> None:
    """Refuse ``what``, of ``need`` bytes, over ``MAX_RECORD_BYTES``."""
    if need > MAX_RECORD_BYTES:
        raise ConfigurationError(
            f"{what} needs about {need / 2 ** 20:.0f} MiB, over the "
            f"{MAX_RECORD_BYTES // 2 ** 20} MiB limit{advice}")


def record_bytes(n_states: int, m: int) -> int:
    """Peak bytes of a full-trajectory record of ``n_states`` states of
    ``m`` values: while the run steps, one Python float per state for one
    component, else one list of m floats, and the state's slot in the
    record list; then the (n_states, m) array they are copied into, with
    the 32 bytes per list that numpy keeps while it copies a list of
    lists."""
    if m == 1:
        return n_states * (_FLOAT_OBJECT_BYTES + 8 + 8)
    state = _LIST_OBJECT_BYTES + m * (8 + _FLOAT_OBJECT_BYTES)
    return n_states * (state + 8 + 32 + 8 * m)


def _run_steps(method: Method, t0: float, t_end: float, dt: float) -> int:
    """``step_count`` of a run of ``method``; a multistep run must also
    leave room for its s - 1 startup values."""
    n = step_count(t0, t_end, dt)
    if isinstance(method, MultistepMethod) and n < method.steps - 1:
        raise ConfigurationError(
            f"{n} steps cannot accommodate {method.steps - 1} startup values")
    return n


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def _scaled_terms(terms, h) -> list:
    """(j, alpha_j, h*beta_j) per term, with None where beta_j is zero;
    ``h`` is a float or a (B, m) array of per-element step sizes.  Terms
    with equal beta_j share one product, which the kernels only read."""
    products = {}
    for _j, _a, b in terms:
        if b != 0.0 and b not in products:
            products[b] = h * b
    return [(j, a, products.get(b)) for j, a, b in terms]


def _single_state(u: np.ndarray):
    """One state as a single run steps it: a Python float for one
    component, else a list of its m floats."""
    values = u.ravel().tolist()
    return values[0] if len(values) == 1 else values


def _component_major(values, m: int) -> np.ndarray:
    """A (B, m) array whose row i repeats ``values[i]``, Fortran-ordered
    like the states of a batch."""
    return np.repeat(np.reshape(values, (1, -1)), m, axis=0).T


def _add_in_place(acc, a, u, hb, f, scratch) -> np.ndarray:
    """``acc + (a*u + hb*f)`` for a batch, or the term alone when ``acc`` is
    None; no slope part when ``hb`` is None.  The term is formed in the two
    ``scratch`` arrays with ufunc ``out=`` and added into ``acc`` in place,
    so only a first term makes a new array.  These are the operations of
    the allocating form in the same order, so they give the same bits."""
    contrib = np.multiply(a, u, out=None if acc is None else scratch[0])
    if hb is not None:
        contrib += np.multiply(hb, f, out=scratch[1])
    if acc is None:
        return contrib
    acc += contrib
    return acc


def _ms_step(scaled, rhs, states, slopes, scratch=None):
    """One Shu-Osher combination sum_j (alpha_j u_j + h*beta_j f(u_j)),
    ascending j, state term before slope term: a multistep update, or one
    Runge-Kutta stage.  ``states[j-1]`` is u_j (for a multistep update
    u^(n+1-j)); ``slopes[j-1]`` is its rhs, or None until a term first
    needs it (then filled in place).

    A batch driver passes ``scratch``, two arrays of the states' shape that
    it owns: the update is then summed in place into one new array, the
    returned state, and never into a scratch array.  A single run passes
    none and steps a Python float, or a list of floats for several
    components, summed component by component in the same order.
    """
    acc = None
    for j, a, hb in scaled:
        u = states[j - 1]
        f = None
        if hb is not None:
            f = slopes[j - 1]
            if f is None:
                f = slopes[j - 1] = rhs(u)
        if scratch is not None:
            acc = _add_in_place(acc, a, u, hb, f, scratch)
        elif type(u) is list:
            if acc is None:
                acc = ([a * x for x in u] if hb is None
                       else [a * x + hb * y for x, y in zip(u, f)])
            elif hb is None:
                acc = [p + a * x for p, x in zip(acc, u)]
            else:
                acc = [p + (a * x + hb * y) for p, x, y in zip(acc, u, f)]
        else:
            contrib = a * u
            if hb is not None:
                contrib = contrib + hb * f
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
    states = [np.asarray(u, dtype=float) for u in history]
    new = _ms_step(_scaled_terms(method.terms, h), problem.rhs,
                   [_single_state(u) for u in states], [None] * method.steps)
    return np.reshape(np.array(new, dtype=float), states[0].shape)


def _scaled_stages(stages, h) -> list:
    """(terms, done) per Runge-Kutta stage: its (source + 1, alpha, h*beta
    or None) terms for ``_ms_step``, with one product per distinct beta of
    the whole method, and the sources no later stage reads."""
    terms = _scaled_terms([(src + 1, a, b) for stage in stages
                           for src, a, b in stage], h)
    last_read = {src: k for k, stage in enumerate(stages)
                 for src, _a, _b in stage}
    out, start = [], 0
    for k, stage in enumerate(stages):
        done = [src for src, last in last_read.items() if last == k]
        out.append((terms[start:start + len(stage)], done))
        start += len(stage)
    return out


def _rk_step(scaled_stages, rhs, u, scratch=None):
    """One Shu-Osher Runge-Kutta step; slope values cached per stage source.
    ``scaled_stages`` comes from ``_scaled_stages`` with a float ``h`` for
    a single run's state, or a (B, m) array of per-element step sizes.  A
    stage value and its slope are dropped after the last stage that reads
    them, so a ten-stage batch step holds a few of them at a time, not
    all.  ``scratch`` is as for ``_ms_step``: with it each stage value is
    one new array, summed in place."""
    values = [u]
    slopes: list = [None]
    for stage, done in scaled_stages:
        acc = _ms_step(stage, rhs, values, slopes, scratch)
        for src in done:
            values[src] = slopes[src] = None
        values.append(acc)
        slopes.append(None)
    return values[-1]


def nsrk_step(rk: RungeKuttaMethod, phi: DenominatorSpec,
              problem: OdeProblem, u, dt: float) -> np.ndarray:
    """One transformed Runge-Kutta step (dt replaced by phi(dt) throughout)."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    h = float(eval_phi(phi, dt))
    u = np.asarray(u, dtype=float)
    new = _rk_step(_scaled_stages(rk.float_stages, h), problem.rhs,
                   _single_state(u))
    return np.reshape(np.array(new, dtype=float), u.shape)


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
    return default_startup(config.problem, config.method)


def default_startup(problem: OdeProblem,
                    method: MultistepMethod) -> StartupPolicy:
    """The closed-form solution when the problem has one, otherwise the
    Runge-Kutta starter matching the method's design order."""
    if problem.exact is not None:
        return ExactStartup()
    order = method.design_order
    if order not in STARTER_FOR_ORDER:
        raise ConfigurationError(
            f"no default starter for order {order}; set startup explicitly")
    rk_id, kind = STARTER_FOR_ORDER[order]
    return RungeKuttaStartup(rk=rk_id, phi_kind=kind)


def _startup_states(problem: OdeProblem, method: MultistepMethod,
                    policy: StartupPolicy, y0: np.ndarray, dt,
                    scratch=None) -> list:
    """u^0..u^(s-1) of a multistep run under a startup policy.

    ``y0`` is one state of shape (m,) with a float ``dt``, or a batch of
    shape (B, m) with a (B,) array of per-element ``dt``.  A single run's
    states come as it steps them (see ``_single_state``), a batch's with
    the shape of ``y0``.  A batch driver passes its ``scratch`` for the
    Runge-Kutta starter (see ``_ms_step``).
    """
    s = method.steps
    batch = y0.ndim == 2
    pack = (lambda u: u) if batch else _single_state
    states = [pack(y0)]
    if s == 1:
        return states
    if isinstance(policy, ExactStartup):
        if problem.exact is None:
            raise ConfigurationError(
                f"{problem.name} has no closed-form solution for startup")
        return states + [pack(exact_solution(problem, i * dt, y0))
                         for i in range(1, s)]
    if not isinstance(policy, RungeKuttaStartup):
        raise ConfigurationError(f"unknown startup policy {policy!r}")
    rk = get_method(policy.rk) if isinstance(policy.rk, str) else policy.rk
    if not isinstance(rk, RungeKuttaMethod):
        raise ConfigurationError(
            f"starter {policy.rk!r} is not a Runge-Kutta method")
    kind = policy.phi_kind
    bound = None
    if kind is not PhiKind.IDENTITY:
        bound = policy.bound
        if bound is None:
            bound = ssp_threshold(rk, fe_property_bound(problem, y0))
        # checks the kind, p and an explicit threshold; the thresholds the
        # Euler rule gives are positive and finite
        DenominatorSpec(kind, bound=float(np.min(bound)), p=policy.p)
    h = phi_value(kind, bound, dt, policy.p)
    if batch:
        # a full (B, m) array: numpy multiplies two full arrays several
        # times faster than an array and a (B, 1) column
        h = _component_major(h, y0.shape[1])
    stages = _scaled_stages(rk.float_stages, h)
    for _ in range(1, s):
        states.append(_rk_step(stages, problem.rhs, states[-1], scratch))
    return states


def _initial_state(problem: OdeProblem, y0) -> np.ndarray:
    """``y0`` as an (m,) array, checked: of the problem's dimension and
    finite.  A non-finite initial state is a configuration error, whatever
    the startup."""
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (problem.dimension,):
        raise ConfigurationError(
            f"y0 has shape {y0.shape}, problem needs ({problem.dimension},)")
    if not np.isfinite(y0).all():
        raise ConfigurationError(
            f"y0 {y0.tolist()} has a non-finite component")
    return y0


def integrate(config: RunConfig) -> Trajectory:
    """Run a configured integration to t_end on an aligned uniform grid.

    ``y0`` must pass ``_initial_state``.  A one-component run steps its
    state as a Python float, a run of several components as a list of m
    floats (the problem's ``rhs`` takes either); both record a (K, m)
    array.
    """
    problem = config.problem
    y0 = _initial_state(problem, config.y0)
    method = config.method
    n = _run_steps(method, config.t0, config.t_end, config.dt)
    full = config.record is RecordMode.FULL_TRAJECTORY
    if full:
        require_size(record_bytes(n + 1, y0.size),
                     f"a full record of {n + 1} states",
                     "; use a larger dt or record the final state only")
    h = float(eval_phi(config.phi, config.dt))
    rhs = problem.rhs

    # a run that leaves the property region may overflow; its inf/nan
    # states show in the record and in any check, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(method, MultistepMethod):
            s = method.steps
            startup = _startup_states(problem, method,
                                      resolve_startup(config), y0, config.dt)
            recorded = list(startup) if full else [startup[-1]]
            states = deque(reversed(startup), maxlen=s)
            slopes = deque([None] * s, maxlen=s)
            scaled = _scaled_terms(method.terms, h)
            for _ in range(s - 1, n):
                new = _ms_step(scaled, rhs, states, slopes)
                states.appendleft(new)
                slopes.appendleft(None)
                if full:
                    recorded.append(new)
                else:
                    recorded[0] = new
        else:
            stages = _scaled_stages(method.float_stages, h)
            u = _single_state(y0)
            recorded = [u]
            for _ in range(n):
                u = _rk_step(stages, rhs, u)
                if full:
                    recorded.append(u)
                else:
                    recorded[0] = u

    states = np.asarray(recorded, dtype=float).reshape(len(recorded), -1)
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

def _rk4_classic_step(rhs, u, coefs):
    """One classical RK4 step of a single run's state (see
    ``_single_state``); ``coefs`` holds 0.5*dt, dt and dt/6, formed once
    per run."""
    half, full, sixth = coefs
    k1 = rhs(u)
    if type(u) is list:
        k2 = rhs([x + half * k for x, k in zip(u, k1)])
        k3 = rhs([x + half * k for x, k in zip(u, k2)])
        k4 = rhs([x + full * k for x, k in zip(u, k3)])
        return [x + sixth * (a + 2.0 * b + 2.0 * c + d)
                for x, a, b, c, d in zip(u, k1, k2, k3, k4)]
    k2 = rhs(u + half * k1)
    k3 = rhs(u + half * k2)
    k4 = rhs(u + full * k3)
    return u + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_solution(problem: OdeProblem, y0, t_end: float,
                       dt_ref: float, t0: float = 0.0) -> np.ndarray:
    """Final state from the classical fourth-order Runge-Kutta tableau,
    stepped as a single run steps its state."""
    n = step_count(t0, t_end, dt_ref)
    y0 = _initial_state(problem, y0)
    rhs = problem.rhs
    coefs = (0.5 * dt_ref, dt_ref, dt_ref / 6.0)
    u = _single_state(y0)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n):
            u = _rk4_classic_step(rhs, u, coefs)
    return np.array(u, dtype=float).reshape(y0.shape)
