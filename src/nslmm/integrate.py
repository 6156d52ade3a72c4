"""Stepping engine: transformed multistep and Runge-Kutta steps, the
full-run driver with startup handling, and a classical RK4 reference solver.

A multistep run needs s starting iterates u^0..u^(s-1).  These come either
from the problem's closed-form solution or from a transformed one-step
Runge-Kutta starter, mirroring how the two model problems are handled in
practice (closed form for the logistic equation, a matching-order starter
for the epidemic system).  ``_startup_states`` builds them for one run or
for a batch of runs alike.

A multistep update and a Runge-Kutta stage are each one Shu-Osher
combination sum_j (alpha_j u_j + h*beta_j f(u_j)), summed in ascending j,
left to right, state term before slope term, with h*beta_j formed once
per run (``_scaled_terms``, ``_scaled_stages``).  Beside the ring of the
last s states a multistep run keeps a ring of their slopes, each
evaluated the first time a term needs it, so a run makes one ``rhs``
call per step plus at most s - 1 for the startup states; the fixed order
makes cached slopes give the same bits as fresh ones.

Every combination, of a single run or of a batch (the sweeps of
``experiments``), is stepped by a kernel written out straight-line:
``_kernel_factory`` builds, once per process and at first use, a small
function for each term pattern (the offsets j, and which terms have a
slope) and form, whose body is the combination; ``_run_kernel`` binds it
to a run's alpha_j and h*beta_j.  One generator emits both forms from the
one term pattern, with the same slope fetches and term order.  A single
run carries its state as Python floats, a float for one component and a
list of m floats for several, and its form sums component by component.
A batch's form works on (B, m) arrays and forms each term in a pair of
scratch arrays that the batch driver owns, with ufunc ``out=``, adding it
in place into the one new array it returns; on SEIR blocks of 4000 x 4
states, where each temporary is 128 KB, that took a sweep of 2e4
elements over 200 steps from about 320 to about 220 ms on a 2-vCPU Xeon
virtual machine.  Python's float ``+``, ``-`` and ``*`` are the IEEE
double operations numpy's are, so both forms give the same bits.  A
Runge-Kutta step runs one such kernel per stage over the stage values
and their slopes (``_rk_kernel_step``), and the RK4 reference has its
own (``_rk4_factory``).  The kernels take ``rhs`` per call, so the rows
of a convergence table share one, and their sources hold only
identifiers and integer indices.  They are compiled under names such as
``<nslmm kernel j=1,4,5,6 f=1,4,5 m=4>`` or ``<nslmm batch kernel j=1,4,5,6
f=1,4,5>`` (f: the offsets with a slope) and their lines kept in
``linecache``, so tracebacks and profiles show them.  ``_single_state``
puts ``y0`` and the closed-form startup states in single-run form, and
the record is copied into a (K, m) array at the end; ``nslmm_step`` and
``nsrk_step`` take and return arrays and convert at their edges.  On a
2-vCPU Xeon virtual machine (Python 3.11, numpy 2.4) the single-run
kernels took a SEIR ``sspms64`` run from 4.7 to 1.6 us per step, a SEIR
``ssprk104`` run from 18.8 to 8.2 us and the SEIR RK4 reference from 5.0
to 2.4 us, against a loop over the terms with one list comprehension per
term.  Every stepping loop runs with numpy's overflow and invalid-value
warnings off, as the sweep's does: a run that leaves the property region
shows its inf and NaN states in the record and in any check.

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

import functools
import linecache
import math
import sys
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence, Union

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

#: rows per piece of a trajectory's CSV text (``Trajectory.csv_chunks``)
CSV_CHUNK_ROWS = 512

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

    def csv_chunks(self) -> Iterator[str]:
        """The CSV text in pieces: the header line, then blocks of at most
        ``CSV_CHUNK_ROWS`` rows, so a writer never holds the whole text."""
        m = self.states.shape[1]
        yield "t," + ",".join(f"u{k + 1}" for k in range(m)) + "\n"
        row = ",".join(["%r"] * (m + 1)) + "\n"
        table = np.column_stack([self.times, self.states])
        # ``%r`` of a Python float is ``repr(float(v))`` of the value
        for a in range(0, table.shape[0], CSV_CHUNK_ROWS):
            block = table[a:a + CSV_CHUNK_ROWS]
            yield row * block.shape[0] % tuple(block.ravel().tolist())

    def to_csv(self) -> str:
        return "".join(self.csv_chunks())


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


def _compile_factory(filename: str, source: str):
    """The function ``factory`` that ``source`` defines, compiled under
    ``filename``, with the source's lines kept in ``linecache`` so that
    tracebacks and profiles inside it show real lines.  The source may
    call numpy's ``multiply``."""
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    namespace: dict = {"multiply": np.multiply}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["factory"]


def _state_source(m: int, component) -> str:
    """Source of a state of m components, ``component(c)`` the source of
    the component that the index suffix c selects: for m = 1 the bare
    float (no suffix), else a list of m components."""
    if m == 1:
        return component("")
    return "[" + ", ".join(component(f"[{k}]") for k in range(m)) + "]"


@functools.lru_cache(maxsize=None)
def _kernel_factory(pattern: tuple, m: int | None, drop: tuple = ()):
    """The factory of a step kernel for one term pattern, in single-run
    form (m an int) or batch form (m None), built once per process.

    ``pattern`` holds (j, has a slope) per term, in term order.  The
    factory takes alpha_j, then h*beta_j where there is a slope, term by
    term, and in batch form then the batch's two scratch arrays; it
    returns ``kernel(rhs, states, slopes)``, the Shu-Osher combination
    sum_j (alpha_j u_j + h*beta_j f(u_j)): a multistep update or one
    Runge-Kutta stage.  ``states[j-1]`` is u_j (for a multistep update
    u^(n+1-j)); ``slopes[j-1]`` is its rhs, or None until a term first
    needs it, then filled in place.  Both forms fetch the slopes in term
    order and sum the terms in ascending j, state term before slope term.

    The single-run form writes the sum out component by component, on
    states of m components, a bare float for m = 1.  The batch form works
    on (B, m) arrays: each term is formed in the scratch pair with ufunc
    ``out=`` and added in place into one new array, the returned state,
    so no scratch array is ever returned.  Python's float ``+`` and ``*``
    are the IEEE double operations numpy's are, so both forms give the
    same bits.  The batch form then sets ``states[k]`` and ``slopes[k]``
    to None for each k in ``drop``, the sources that no later Runge-Kutta
    stage reads.  The source names only identifiers and integer indices;
    coefficients come in as arguments.
    """
    params, lines = [], []
    for t, (j, slope) in enumerate(pattern):
        params.append(f"a{t}")
        lines.append(f"u{t} = states[{j - 1}]")
        if slope:
            params.append(f"h{t}")
            lines += [f"f{t} = slopes[{j - 1}]",
                      f"if f{t} is None:",
                      f"    f{t} = slopes[{j - 1}] = rhs(u{t})"]
    offsets = ",".join(str(j) for j, _slope in pattern)
    sloped = ",".join(str(j) for j, slope in pattern if slope)
    if m is None:
        params += ["s0", "s1"]
        for t, (_j, slope) in enumerate(pattern):
            into = "acc" if t == 0 else "term"
            lines.append(f"{into} = multiply(a{t}, u{t}"
                         + (")" if t == 0 else ", out=s0)"))
            if slope:
                lines.append(f"{into} += multiply(h{t}, f{t}, out=s1)")
            if t:
                lines.append("acc += term")
        lines += [f"states[{k}] = slopes[{k}] = None" for k in drop]
        lines.append("return acc")
        dropped = ",".join(str(k + 1) for k in drop)
        name = (f"<nslmm batch kernel j={offsets} f={sloped}"
                + (f" drop={dropped}>" if drop else ">"))
    else:
        def component(c: str) -> str:
            return " + ".join(f"(a{t}*u{t}{c} + h{t}*f{t}{c})" if slope
                              else f"a{t}*u{t}{c}"
                              for t, (_j, slope) in enumerate(pattern))

        lines.append("return " + _state_source(m, component))
        name = f"<nslmm kernel j={offsets} f={sloped} m={m}>"
    source = "\n".join(
        [f"def factory({', '.join(params)}):",
         "    def kernel(rhs, states, slopes):"]
        + ["        " + line for line in lines] + ["    return kernel", ""])
    return _compile_factory(name, source)


def _run_kernel(scaled, m: int, scratch=None, drop=()):
    """A step kernel for ``scaled`` terms (see ``_scaled_terms``): a single
    run's on states of m components, or with ``scratch``, a pair of arrays
    of the states' shape that the batch driver owns, a batch's that drops
    the sources ``drop`` (see ``_kernel_factory``)."""
    pattern = tuple((j, hb is not None) for j, _a, hb in scaled)
    coefs = [c for _j, a, hb in scaled
             for c in ((a,) if hb is None else (a, hb))]
    if scratch is None:
        return _kernel_factory(pattern, m)(*coefs)
    return _kernel_factory(pattern, None, tuple(drop))(*coefs, *scratch)


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
    states = [np.asarray(u, dtype=float) for u in history]
    if any(u.size != problem.dimension for u in states):
        raise ValueError(
            f"history states have sizes {[u.size for u in states]}, "
            f"problem needs {problem.dimension}")
    h = float(eval_phi(phi, dt))
    kernel = _run_kernel(_scaled_terms(method.terms, h), problem.dimension)
    new = kernel(problem.rhs, [_single_state(u) for u in states],
                 [None] * method.steps)
    return np.reshape(np.array(new, dtype=float), states[0].shape)


def _scaled_stages(stages, h) -> list:
    """(terms, done) per Runge-Kutta stage: its (source + 1, alpha, h*beta
    or None) terms for ``_run_kernel``, with one product per distinct beta
    of the whole method, and the sources no later stage reads, which a
    batch kernel drops, so that a ten-stage batch step holds a few stage
    values and slopes at a time, not all.  A single run's kernels keep
    them, a few floats each, as dropping them would cost time."""
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


def _stage_kernels(stages, h, m: int, scratch=None) -> list:
    """A kernel (see ``_run_kernel``) per Runge-Kutta stage, with
    coefficients from ``_scaled_stages``: a single run's at a float ``h``,
    or with ``scratch`` a batch's at a (B, m) array of per-element step
    sizes."""
    return [_run_kernel(terms, m, scratch, done)
            for terms, done in _scaled_stages(stages, h)]


def _rk_kernel_step(kernels, rhs, u):
    """One Runge-Kutta step of a single run's state (see
    ``_single_state``) or of a batch, one kernel per stage over the stage
    values and their slopes."""
    values = [u]
    slopes: list = [None]
    for kernel in kernels:
        values.append(kernel(rhs, values, slopes))
        slopes.append(None)
    return values[-1]


def nsrk_step(rk: RungeKuttaMethod, phi: DenominatorSpec,
              problem: OdeProblem, u, dt: float) -> np.ndarray:
    """One transformed Runge-Kutta step (dt replaced by phi(dt) throughout)."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    u = np.asarray(u, dtype=float)
    if u.size != problem.dimension:
        raise ValueError(
            f"u has size {u.size}, problem needs {problem.dimension}")
    h = float(eval_phi(phi, dt))
    new = _rk_kernel_step(_stage_kernels(rk.float_stages, h, u.size),
                          problem.rhs, _single_state(u))
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
    the shape of ``y0``.  A Runge-Kutta starter steps through the kernels
    of ``_stage_kernels``, in batch form with the batch driver's
    ``scratch``.
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
    kernels = _stage_kernels(rk.float_stages, h, y0.shape[-1], scratch)
    for _ in range(1, s):
        states.append(_rk_kernel_step(kernels, problem.rhs, states[-1]))
    return states


def _initial_state(problem: OdeProblem, y0, what: str = "y0") -> np.ndarray:
    """``y0`` as an (m,) array, checked: of the problem's dimension and
    finite.  A non-finite initial state is a configuration error, whatever
    the startup.  ``what`` names the state in the error, which serves
    other given states too."""
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (problem.dimension,):
        raise ConfigurationError(
            f"{what} has shape {y0.shape}, problem needs "
            f"({problem.dimension},)")
    if not np.isfinite(y0).all():
        raise ConfigurationError(
            f"{what} {y0.tolist()} has a non-finite component")
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
            kernel = _run_kernel(_scaled_terms(method.terms, h), y0.size)
            for _ in range(s - 1, n):
                new = kernel(rhs, states, slopes)
                states.appendleft(new)
                slopes.appendleft(None)
                if full:
                    recorded.append(new)
                else:
                    recorded[0] = new
        else:
            kernels = _stage_kernels(method.float_stages, h, y0.size)
            u = _single_state(y0)
            recorded = [u]
            for _ in range(n):
                u = _rk_kernel_step(kernels, rhs, u)
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

@functools.lru_cache(maxsize=None)
def _rk4_factory(m: int):
    """The factory of the classical RK4 step kernel on states of m
    components (a bare float for m = 1), built once per process.  It takes
    0.5*dt, dt, dt/6 and 2.0 and returns ``kernel(rhs, u)``, which forms
    each stage state as ``x + half*k`` and the new state as
    ``x + sixth*(((a + two*b) + two*c) + d)``, component by component."""
    def stage(step: str, k: int) -> str:
        return _state_source(m, lambda c: f"u{c} + {step}*k{k}{c}")

    new = _state_source(m, lambda c: (f"u{c} + sixth*(((k1{c} + two*k2{c})"
                                      f" + two*k3{c}) + k4{c})"))
    source = "\n".join([
        "def factory(half, full, sixth, two):",
        "    def kernel(rhs, u):",
        "        k1 = rhs(u)",
        f"        k2 = rhs({stage('half', 1)})",
        f"        k3 = rhs({stage('half', 2)})",
        f"        k4 = rhs({stage('full', 3)})",
        f"        return {new}",
        "    return kernel",
        ""])
    return _compile_factory(f"<nslmm rk4 kernel m={m}>", source)


def reference_solution(problem: OdeProblem, y0, t_end: float,
                       dt_ref: float, t0: float = 0.0) -> np.ndarray:
    """Final state from the classical fourth-order Runge-Kutta tableau,
    stepped as a single run steps its state."""
    n = step_count(t0, t_end, dt_ref)
    y0 = _initial_state(problem, y0)
    rhs = problem.rhs
    kernel = _rk4_factory(y0.size)(0.5 * dt_ref, dt_ref, dt_ref / 6.0, 2.0)
    u = _single_state(y0)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n):
            u = kernel(rhs, u)
    return np.array(u, dtype=float).reshape(y0.shape)
