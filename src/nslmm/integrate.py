"""Stepping engine: transformed multistep and Runge-Kutta steps, the
full-run driver with startup handling, and a classical RK4 reference solver.

A multistep run needs s starting iterates u^0..u^(s-1).  These come either
from the problem's closed-form solution or from a transformed one-step
Runge-Kutta starter, mirroring how the two model problems are handled in
practice (closed form for the logistic equation, a matching-order starter
for the epidemic system).  ``_startup_states`` builds them for one run or
for a batch of runs alike.

Every method steps through its Shu-Osher stage view (see ``methods``): a
ring of the last s states (s = 1 for a Runge-Kutta method) and stages
whose terms read ring states or earlier stage values.  Each stage sums
alpha_i v_i + h*beta_i f(v_i) in term order, state term before slope term,
with one h*beta per distinct beta.  A run keeps a ring of slopes beside
the ring of states, each evaluated the first time a term needs it, and a
step evaluates each stage value's slope once: a multistep run makes one
``rhs`` call per step plus at most s - 1 for the startup states, a
Runge-Kutta run one per source read with a slope.  The fixed order makes
cached slopes give the same bits as fresh ones.

A step, of a single run or of a batch (the sweeps of ``experiments``), is
one kernel written out straight-line: ``_kernel_factory`` builds, once per
process and at first use, a function per method shape and form whose body
is the whole step, and ``_step_kernel`` binds it to a method's alpha and
h*beta.  ``integrate``, the starter of ``_startup_states``, ``nslmm_step``,
``nsrk_step`` and the sweep blocks all step through it.  A single run
carries its state as Python floats, a float for one component and a list
of m floats for several, and its form sums component by component.  A
batch's form works on (B, m) arrays and allocates nothing: it writes
each stage with ufunc ``out=`` into arrays the batch driver owns, the
new state into the ring slot its caller names, each slope into the slot
beside its state (``rhs(u, out)``), a Runge-Kutta step's stage values
and their slopes into stage slots (``stage_slots``), a stage's first
state term into the stage's own array and every other product into a
scratch pair, from which it is added in place.  Python's float ``+``,
``-`` and ``*`` are the IEEE double operations numpy's are, so both
forms give the same bits.  The RK4 reference has its own kernel
(``_rk4_factory``): its sum ``u + sixth*(((k1 + two*k2) + two*k3) +
k4)`` is in no Shu-Osher term order.  A single run of a problem whose
``rhs`` is the one built from its slope source (``problems.inline_slope``)
steps through kernels with that source written in place of ``rhs(u)``,
and the source's constants passed to the factory; any other problem, a
wrapped ``rhs`` among them, through kernels that call ``rhs``.  Either
way one factory serves a method shape and problem family, so the rows of
a convergence table share one; their sources hold only identifiers and
integer indices, and their lines are kept in ``linecache`` under names
such as ``<nslmm kernel j=1,4,5,6 f=1,4,5 m=4>``, ``<nslmm kernel
j=1,4,5,6 f=1,4,5 m=4 slope=seir>`` or ``<nslmm batch kernel j=1;1,v1;1,v2
f=1;v1;v2>`` (``ssprk33``), so tracebacks and profiles show them.
``_single_state``
puts ``y0`` and the closed-form startup states in single-run form, and
the record is copied into a (K, m) array at the end; ``nslmm_step`` and
``nsrk_step`` take and return arrays.  Every stepping loop runs with
numpy's overflow and invalid-value warnings off, as the sweep's does: a
run that leaves the property region shows its inf and NaN states in the
record and in any check.

A batch's (B, m) states are component-major (Fortran-ordered), so that
each component a right-hand side reads or writes is contiguous: the batch
driver's arrays come from ``_block_arrays`` in that order,
``_component_major`` lays out per-element step sizes the same way, and
numpy's ufuncs keep the layout of their operands.  On a 2-vCPU Xeon
virtual machine one SEIR ``rhs`` call on 4000 states took 23 instead of
40 us that way.  ``_block_arrays`` also starts each of them on a
64-byte cache line, which numpy does not: it places an array at a random
16-byte offset within one.  On a 2-vCPU AVX-512 Xeon virtual machine
``multiply(h, f, out=o)`` over a (4096, 4) block took 5.1-6.5 us with
``o`` on a line boundary and 10-15 us with it 16, 32 or 48 bytes past
one (fastest and median of eight rounds), and the SEIR ``rhs`` writing
its slope with ufunc ``out=`` into such an array took 13-18 us per call
on 4096 states, against 20-25 us for four temporaries copied into a new
array (fastest of 30 timings in each of three alternating rounds).
Where an array starts changes no bit of any value.

A full-trajectory run whose record would take more than
``MAX_RECORD_BYTES`` (see ``record_bytes``) is refused before it steps,
by ``require_size``, which sweeps and sharpness grids use too.  So is any
run, RK4 reference, sweep or bisection that would make more than
``MAX_WORK`` rhs evaluations, by ``require_work``: steps times rhs calls
per step (``rhs_calls``) times m, times the elements of a sweep and the
levels of a bisection.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence, Union

import numpy as np

from .codegen import compile_factory, state_list, state_source
from .denominator import (DenominatorSpec, PhiKind, eval_phi, phi_value,
                          ssp_threshold)
from .errors import ConfigurationError
from .methods import Method, get_method
from .problems import (OdeProblem, Slope, SlopeSource, exact_solution,
                       fe_property_bound, inline_slope)

#: (t_end - t0)/dt must be this close to an integer; runs are never shortened
ALIGNMENT_TOL = 1e-8

#: largest full-trajectory record, in bytes, a run may build; sweeps and
#: sharpness grids are held to it too
MAX_RECORD_BYTES = 2 ** 30

#: most ``rhs`` evaluations, one per state component (steps x rhs calls per
#: step x m, times the elements of a sweep and the levels of a bisection),
#: that a run, sweep or bisection may ask for.  The fastest measured cost
#: of one is about 11 ns, in a sweep of 2**14 values of logistic or SEIR
#: states (6.5 ns of it the rhs call alone; a single run's step costs 400 to
#: 960 ns per evaluation), on a 2-vCPU Xeon virtual machine with numpy 2.4;
#: at that cost the limit is about a day of stepping
MAX_WORK = 2 ** 43

#: bytes of a processor cache line, on which a batch block's arrays start
#: (see the module docstring)
CACHE_LINE = 64

#: float64 values per cache line
_LINE_FLOATS = CACHE_LINE // 8

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

    rk: Union[str, Method]
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


def require_work(need: float, what: str) -> None:
    """Refuse ``what``, of ``need`` ``rhs`` evaluations (see ``rhs_work``),
    over ``MAX_WORK``."""
    if need > MAX_WORK:
        raise ConfigurationError(
            f"{what} needs about {need:.3g} rhs evaluations, over the "
            f"{MAX_WORK:.3g} limit; use a larger step or a shorter span")


def rhs_work(n_steps, calls: int, m: int) -> float:
    """``rhs`` evaluations, one per state component, of ``n_steps`` steps
    of ``calls`` rhs calls each on states of ``m`` components; a float, so
    that no count overflows."""
    return float(n_steps) * calls * m


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


def _run_steps(method: Method, t0: float, t_end: float, dt: float,
               m: int) -> int:
    """``step_count`` of a run of ``method`` on states of ``m`` components,
    which must also leave room for its s - 1 startup values and stay
    within ``MAX_WORK``."""
    n = step_count(t0, t_end, dt)
    if n < method.steps - 1:
        raise ConfigurationError(
            f"{n} steps cannot accommodate {method.steps - 1} startup values")
    require_work(rhs_work(n, rhs_calls(method), m), f"a run of {n:.3g} steps")
    return n


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def _single_state(u: np.ndarray):
    """One state as a single run steps it: a Python float for one
    component, else a list of its m floats."""
    values = u.ravel().tolist()
    return values[0] if len(values) == 1 else values


def _component_major(values, m: int) -> np.ndarray:
    """A (B, m) array whose row i repeats ``values[i]``, Fortran-ordered
    like the states of a batch; for m = 1 a view of ``values``."""
    if m == 1:
        return np.reshape(values, (-1, 1))
    return np.repeat(np.reshape(values, (1, -1)), m, axis=0).T


def _block_arrays(count: int, b: int, m: int) -> list:
    """``count`` Fortran-ordered (b, m) float64 arrays cut from one buffer,
    each starting on a ``CACHE_LINE`` boundary, with one address lookup
    for them all (``ndarray.ctypes.data`` takes about 3 us; reading
    ``__array_interface__`` instead took 2 us, but a 30 s ``sharpness``
    benchmark run then peaked at 44.2 instead of 43.3 MB)."""
    size = b * m
    stride = -(-size // _LINE_FLOATS) * _LINE_FLOATS
    buffer = np.empty(count * stride + _LINE_FLOATS - 1)
    first = -buffer.ctypes.data % CACHE_LINE // buffer.itemsize
    rows = buffer[first:first + count * stride].reshape(count, stride)
    return list(rows[:, :size].reshape(count, m, b).transpose(0, 2, 1))


def _rhs_into(rhs):
    """``rhs`` as a batch kernel calls it, ``rhs(u, out)`` (see
    ``OdeProblem``): itself if it takes a second argument, else a function
    that leaves ``out`` aside and returns the slope ``rhs(u)`` makes.  A
    plain function's code object tells; ``inspect.signature``, which
    tells for any callable, took 17 us, a percent of a sharpness job."""
    code = getattr(rhs, "__code__", None)
    if code is not None and not inspect.ismethod(rhs):
        takes = code.co_argcount >= 2 or code.co_flags & inspect.CO_VARARGS
    else:
        try:
            inspect.signature(rhs).bind(None, None)
            takes = True
        except (TypeError, ValueError):
            takes = False
    return rhs if takes else lambda u, out: rhs(u)


def _slope_lines(source: SlopeSource | None, target: str, value: str,
                 m: int, out: str = "") -> list:
    """Lines that set ``target`` to the slope of the state ``value`` of m
    components: ``rhs(value)`` (with ``out``, ``rhs(value, out)``), or
    with a slope ``source`` that source written over ``value``'s
    components, a float for m = 1, else a list."""
    if source is None:
        return [f"{target} = rhs({value}{out})"]
    lines, slope = source.render(
        lambda k: value if m == 1 else f"{value}[{k}]")
    return lines + [f"{target} = {state_list(slope)}"]


@functools.lru_cache(maxsize=None)
def _kernel_factory(s: int, pattern: tuple, m: int | None,
                    source: SlopeSource | None):
    """The factory of the step kernel of one method shape, in single-run
    form (m an int) or batch form (m None), built once per process and
    slope source.

    ``pattern`` is a stage view (see ``methods``) without coefficients:
    per stage, (source, has a slope) per term.  The factory takes alpha,
    then h*beta where there is a slope, term by term through the stages,
    and in batch form then the batch's work arrays: its scratch pair and
    ``stage_slots`` slots, or in single-run form with a slope ``source``
    (see ``problems.SlopeSource``) the values of its constants.  It
    returns ``kernel(rhs, states, slopes)``, one
    whole step: ``states[i]`` is ring state i, newest first, and
    ``slopes[i]`` its rhs, or None until a term first needs it, then
    filled in place; a stage value's slope is evaluated where a term first
    needs it, by a call ``rhs(u)``, or with a ``source`` by that source
    written into the kernel, which then leaves ``rhs`` aside.  Each stage
    fetches its slopes and sums its terms in term order, state term before
    slope term.

    The single-run form writes each stage out component by component, on
    states of m components, a bare float for m = 1.  The batch form works
    on (B, m) arrays and writes only into arrays its caller owns: it is
    ``kernel(rhs, states, slopes, fslots)``, with ``states[s]`` the array
    the new state is written into and ``fslots[i]`` the one ring state
    i's slope is written into, as ``rhs(u, fslots[i])``; the kernel keeps
    the array ``rhs`` returns.  A stage's first state term is formed in
    the stage's own array with ufunc ``out=``, every other product in the
    scratch pair, and added in place.  A stage value and its slope each go
    into the lowest free of the factory's ``stage_slots`` slots, freed
    after the last stage that reads them.  The name lists per stage (``;``
    between) the values read, ring state i as offset i + 1 and stage value
    k as ``vk``, and those with a slope (``f``), and the slope source, if
    any.
    """
    assert source is None or m is not None
    last_read = {src: k for k, stage in enumerate(pattern)
                 for src, _slope in stage}
    params, lines, sloped, t = [], [], set(), 0
    # batch form: the slot of each stage value vk and slope gk, and the
    # slots free to take again
    slot, free, made = {}, [], []

    def take(name: str) -> str:
        if free:
            slot[name] = min(free)
            free.remove(slot[name])
        else:
            slot[name] = len(made)
            made.append(name)
        return f"w{slot[name]}"

    for k, stage in enumerate(pattern):
        final = k == len(pattern) - 1
        into = "acc" if final else f"v{k + 1}"
        reads = []  # (term index, value, its slope or None) per term
        for src, slope in stage:
            params += [f"a{t}"] + ([f"h{t}"] if slope else [])
            if src < s:
                u, f = f"u{t}", f"f{t}"
                lines.append(f"{u} = states[{src}]")
                if slope:
                    out = "" if m is not None else f", fslots[{src}]"
                    lines += [f"{f} = slopes[{src}]", f"if {f} is None:"]
                    lines += ["    " + line for line in _slope_lines(
                        source, f"{f} = slopes[{src}]", u, m, out)]
            else:
                u, f = f"v{src - s + 1}", f"g{src - s + 1}"
                if slope and src not in sloped:
                    sloped.add(src)
                    out = "" if m is not None else f", {take(f)}"
                    lines += _slope_lines(source, f, u, m, out)
            reads.append((t, u, f if slope else None))
            t += 1
        if m is None:
            target = f"states[{s}]" if final else take(into)
            for i, (n, u, f) in enumerate(reads):
                value = "term" if i else into
                lines.append(f"{value} = multiply(a{n}, {u}, out="
                             + ("s0)" if i else f"{target})"))
                if f:
                    lines.append(f"{value} += multiply(h{n}, {f}, out=s1)")
                if i:
                    lines.append(f"{into} += term")
            free += [slot[name] for src, last in last_read.items()
                     if src >= s and last == k and not final
                     for name in (f"v{src - s + 1}", f"g{src - s + 1}")
                     if name in slot]
        else:
            def component(c: str) -> str:
                return " + ".join(f"(a{n}*{u}{c} + h{n}*{f}{c})" if f
                                  else f"a{n}*{u}{c}" for n, u, f in reads)

            lines.append(("return " if final else f"{into} = ")
                         + state_source(m, component))
    if m is None:
        params += ["s0", "s1"] + [f"w{j}" for j in range(len(made))]
        lines.append("return acc")
    elif source is not None:
        params += [f"k_{c}" for c in source.constants]

    def label(with_slope: bool) -> str:
        return ";".join(",".join(str(src + 1) if src < s else f"v{src - s + 1}"
                                 for src, slope in stage
                                 if slope or not with_slope)
                        for stage in pattern)

    name = (f"<nslmm batch kernel j={label(False)} f={label(True)}>"
            if m is None
            else f"<nslmm kernel j={label(False)} f={label(True)} m={m}"
            + ("" if source is None else f" slope={source.name}") + ">")
    text = "\n".join(
        [f"def factory({', '.join(params)}):",
         "    def kernel(rhs, states, slopes"
         + ("):" if m is not None else ", fslots):")]
        + ["        " + line for line in lines] + ["    return kernel", ""])
    factory = compile_factory(name, text)
    factory.stage_slots = len(made)
    return factory


def _pattern(method: Method) -> tuple:
    """``method``'s stage view without coefficients (see
    ``_kernel_factory``)."""
    return tuple(tuple((src, b != 0.0) for src, _a, b in stage)
                 for stage in method.float_stages)


def stage_slots(method: Method) -> int:
    """Slots the batch kernel of ``method`` keeps its stage values and
    their slopes in (see ``_kernel_factory``): none for a multistep
    method, five for ``ssprk104``'s ten stages."""
    return _kernel_factory(method.steps, _pattern(method), None,
                           None).stage_slots


def _step_kernel(method: Method, h, m: int, work=None,
                 slope: Slope | None = None):
    """``method``'s step kernel (see ``_kernel_factory``) at step size
    ``h``: a single run's on states of m components at a float ``h``, with
    ``slope`` (see ``problems.inline_slope``) written into it, or with
    ``work``, arrays of the states' shape that the batch driver owns (the
    scratch pair, then ``stage_slots(method)`` or more slots), a batch's
    at a (B, m) array of per-element step sizes.  Terms with equal beta
    share one product h*beta, which the kernels only read."""
    coefs, products = [], {}
    for stage in method.float_stages:
        for _src, a, b in stage:
            coefs.append(a)
            if b != 0.0:
                if b not in products:
                    products[b] = h * b
                coefs.append(products[b])
    if work is not None:
        factory = _kernel_factory(method.steps, _pattern(method), None, None)
        return factory(*coefs, *work[:2 + factory.stage_slots])
    if slope is None:
        return _kernel_factory(method.steps, _pattern(method), m, None)(*coefs)
    return _kernel_factory(method.steps, _pattern(method), m,
                           slope.source)(*coefs, *slope.constants)


def rhs_calls(method: Method) -> int:
    """``rhs`` calls one step of ``method`` makes (see ``_kernel_factory``):
    one for the newest ring state if a term reads a ring state's slope,
    the others' being kept from earlier steps, and one per stage value
    whose slope a term reads."""
    s = method.steps
    sloped = {src for stage in method.float_stages
              for src, _a, b in stage if b != 0.0}
    return any(src < s for src in sloped) + sum(src >= s for src in sloped)


def _single_step(method: Method, phi: DenominatorSpec, problem: OdeProblem,
                 states: list, dt: float) -> np.ndarray:
    """One step of ``method`` from its ring of checked (m,) arrays
    ``states``, newest first, through the single-run kernel."""
    h = float(eval_phi(phi, dt))
    kernel = _step_kernel(method, h, problem.dimension,
                          slope=inline_slope(problem))
    new = kernel(problem.rhs, [_single_state(u) for u in states],
                 [None] * method.steps)
    return np.reshape(np.array(new, dtype=float), states[0].shape)


def nslmm_step(method: Method, phi: DenominatorSpec,
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
    return _single_step(method, phi, problem, states, dt)


def nsrk_step(rk: Method, phi: DenominatorSpec,
              problem: OdeProblem, u, dt: float) -> np.ndarray:
    """One transformed Runge-Kutta step (dt replaced by phi(dt) throughout)."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    u = np.asarray(u, dtype=float)
    if u.size != problem.dimension:
        raise ValueError(
            f"u has size {u.size}, problem needs {problem.dimension}")
    return _single_step(rk, phi, problem, [u], dt)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def resolve_startup(config: RunConfig) -> StartupPolicy | None:
    """The startup policy actually used for a run.

    Explicit policies pass through; the default is the closed-form solution
    when available, otherwise the matching-order Runge-Kutta starter.
    A one-step method (every Runge-Kutta method) needs no startup.
    """
    if config.method.steps == 1:
        return None
    if config.startup is not None:
        return config.startup
    return default_startup(config.problem, config.method)


def default_startup(problem: OdeProblem,
                    method: Method) -> StartupPolicy:
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


def _startup_states(problem: OdeProblem, method: Method,
                    policy: StartupPolicy | None, y0: np.ndarray, dt,
                    block=None) -> list:
    """u^0..u^(s-1) of a run under a startup policy; a one-step method's
    is ``y0`` alone, whatever the policy.

    ``y0`` is one state of shape (m,) with a float ``dt``, or, with
    ``block``, a batch of shape (B, m) with a (B,) array of per-element
    ``dt``.  A single run's states come as it steps them (see
    ``_single_state``).  A batch's are written into arrays of its block:
    ``block`` is (slots, spare), the s arrays u^0..u^(s-1) go into, and
    arrays free until startup ends, the first two the kernels' scratch
    pair.  A Runge-Kutta starter steps through its kernel (see
    ``_step_kernel``), in batch form with the slope of the state it steps
    from and its stage slots in ``spare`` after the pair, and more from
    ``_block_arrays`` only if ``spare`` is too short.
    """
    s = method.steps

    def place(i: int, u):
        """u^i as the run keeps it."""
        if block is None:
            return _single_state(u)
        np.copyto(block[0][i], u)
        return block[0][i]

    states = [place(0, y0)]
    if s == 1:
        return states
    if isinstance(policy, ExactStartup):
        if problem.exact is None:
            raise ConfigurationError(
                f"{problem.name} has no closed-form solution for startup")
        return states + [place(i, exact_solution(problem, i * dt, y0))
                         for i in range(1, s)]
    if not isinstance(policy, RungeKuttaStartup):
        raise ConfigurationError(f"unknown startup policy {policy!r}")
    rk = get_method(policy.rk) if isinstance(policy.rk, str) else policy.rk
    if rk.steps != 1:
        raise ConfigurationError(
            f"starter {policy.rk!r} is not a one-step method")
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
    if block is None:
        kernel = _step_kernel(rk, h, y0.size, slope=inline_slope(problem))
        for _ in range(1, s):
            states.append(kernel(problem.rhs, states[-1:], [None]))
        return states
    slots, spare = block
    need = 3 + stage_slots(rk)
    if len(spare) < need:
        spare = [*spare, *_block_arrays(need - len(spare), *y0.shape)]
    # a full (B, m) array: numpy multiplies two full arrays several times
    # faster than an array and a (B, 1) column
    kernel = _step_kernel(rk, _component_major(h, y0.shape[1]), y0.shape[1],
                          [*spare[:2], *spare[3:]])
    rhs = _rhs_into(problem.rhs)
    for i in range(1, s):
        states.append(kernel(rhs, [states[-1], slots[i]], [None], spare[2:3]))
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
    n = _run_steps(method, config.t0, config.t_end, config.dt, y0.size)
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
        startup = resolve_startup(config)
        start = _startup_states(problem, method, startup, y0, config.dt)
        s = method.steps
        recorded = list(start) if full else [start[-1]]
        states = deque(reversed(start), maxlen=s)
        slopes = deque([None] * s, maxlen=s)
        kernel = _step_kernel(method, h, y0.size,
                              slope=inline_slope(problem))
        for _ in range(s - 1, n):
            new = kernel(rhs, states, slopes)
            states.appendleft(new)
            slopes.appendleft(None)
            if full:
                recorded.append(new)
            else:
                recorded[0] = new

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
        "startup": None if startup is None else type(startup).__name__,
        "record": config.record.value,
    }
    first_index = 0 if full else n
    return Trajectory(t0=config.t0, dt=config.dt, states=states,
                      provenance=provenance, first_index=first_index)


# ---------------------------------------------------------------------------
# reference solver
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _rk4_factory(m: int, source: SlopeSource | None = None):
    """The factory of the classical RK4 step kernel on states of m
    components (a bare float for m = 1), built once per process and slope
    source.  It takes 0.5*dt, dt, dt/6 and 2.0, and with a slope
    ``source`` (see ``problems.SlopeSource``) the values of its constants,
    and returns ``kernel(rhs, u)``, which forms each stage state as
    ``x + half*k`` and the new state as
    ``x + sixth*(((a + two*b) + two*c) + d)``, component by component,
    with the state and the stage slopes kept as one local per component.
    Without ``source`` it calls ``rhs`` on each stage state, a list; with
    it, the source is written into the kernel in place of the call."""
    def read(name: str):
        """Component c of the state ``name`` as the kernel reads it."""
        return (lambda c: name) if m == 1 else (lambda c: f"{name}_{c}")

    u = read("u")
    k = [None] + [read(f"k{j}") for j in range(1, 5)]
    lines = [] if m == 1 else [", ".join(u(c) for c in range(m)) + " = u"]
    for j, step in enumerate([None, "half", "half", "full"], 1):
        stage = ([] if step is None else
                 [f"{u(c)} + {step}*{k[j - 1](c)}" for c in range(m)])
        if source is None:
            lines.append(", ".join(k[j](c) for c in range(m)) + " = rhs("
                         + (state_list(stage) if stage else "u") + ")")
            continue
        # a stage state's components, those the slope reads, then its slope
        x = read("x") if stage else u
        lines += [f"{x(c)} = {value}" for c, value in enumerate(stage)
                  if c in source.reads()]
        temps, slope = source.render(x)
        lines += temps + [f"{k[j](c)} = {value}"
                          for c, value in enumerate(slope)]
    lines.append("return " + state_list(
        [f"{u(c)} + sixth*((({k[1](c)} + two*{k[2](c)}) + two*{k[3](c)})"
         f" + {k[4](c)})" for c in range(m)]))
    params = ["half", "full", "sixth", "two"]
    name = f"<nslmm rk4 kernel m={m}>"
    if source is not None:
        params += [f"k_{c}" for c in source.constants]
        name = f"<nslmm rk4 kernel m={m} slope={source.name}>"
    return compile_factory(name, "\n".join(
        [f"def factory({', '.join(params)}):", "    def kernel(rhs, u):"]
        + ["        " + line for line in lines] + ["    return kernel", ""]))


def reference_solution(problem: OdeProblem, y0, t_end: float,
                       dt_ref: float, t0: float = 0.0) -> np.ndarray:
    """Final state from the classical fourth-order Runge-Kutta tableau,
    stepped as a single run steps its state."""
    n = step_count(t0, t_end, dt_ref)
    require_work(rhs_work(n, 4, problem.dimension),
                 f"an RK4 reference of {n:.3g} steps")
    y0 = _initial_state(problem, y0)
    rhs = problem.rhs
    slope = inline_slope(problem)
    steps = (0.5 * dt_ref, dt_ref, dt_ref / 6.0, 2.0)
    if slope is None:
        kernel = _rk4_factory(y0.size)(*steps)
    else:
        kernel = _rk4_factory(y0.size, slope.source)(*steps, *slope.constants)
    u = _single_state(y0)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n):
            u = kernel(rhs, u)
    return np.array(u, dtype=float).reshape(y0.shape)
