"""Quantitative studies: convergence tables with observed orders, empirical
bound-sharpness sweeps, large preservation sweeps, and a transform
micro-benchmark.

The sweep machinery is vectorized: a batch of independent runs (one per
combination of initial value, step size and threshold) advances in lockstep
as numpy arrays, with property monitors evaluated on the fly; bounds and
monotonicity directions may differ per element.  A batch starts through
the startup routine of a single run (``integrate._startup_states``) and
steps with the batch form of the kernel a single run steps with, which
``integrate._kernel_factory`` emits from the same method shape: the same
slope ring, one ``rhs`` call per step for all elements, and the same
operations in the same order.  So each element's states equal its single
run bit for bit, whatever else shares its batch, given the same
transformed step h.  ``phi_value`` on an array can round differently in
the last bit from the same transform of one float (numpy's vectorised
``**``), and then so do the element's states.

A step does only the bookkeeping it needs.  Which elements are active, and
which ones each monitor still watches, changes only on events: a check that
newly fails (which may finish an element and its group) or a horizon that
passes.  These sets are kept from step to step and made again only on the
step after an event, so most steps form the new states and test them
against cached masks.  The monitors call the elementwise predicates of
``qualprops``, so an element's verdicts and invariant deviation do not
depend on its batch, and equal a recorded run's of the same states.

A step allocates no array either.  Its new state, the slopes ``rhs``
writes and every term go into arrays the block made when it started or
last compacted, each starting on a 64-byte cache line, so that no pass
writes across line boundaries (see ``run_preservation_sweep``).  On the
benchmark's SEIR sweep (2e4 elements, 200 steps, ``sspms64`` started by
``ssprk104``, on a 2-vCPU Xeon virtual machine) that, with the
invariant's weighted sum adding its unit weights without multiplying by
1.0, took the job from 14.2 to 11.1 times the benchmark's reference
kernel (medians of ten alternating runs), with every final state bit for
bit the same.

A block also ends once it has settled: when a step's new states equal
every state of its ring bit for bit (NaN payloads and the sign of zero
included), and no invariant with drift is watched.  The step kernel and
``rhs`` are elementwise and deterministic, and frozen elements keep their
states, so every later step would give the same states and the same
verdicts; each element's final state, at whatever horizon, is its current
one.  So the stop shows in no result.  It is tested every s steps (s the
ring length), and a test ends at the first ring state that differs.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Sequence

import numpy as np

from .denominator import (CATALOG_KINDS, DenominatorSpec, PhiKind,
                          capped_product, eval_phi, make_phi_for_method,
                          phi_value, ssp_threshold)
from .errors import ConfigurationError
from .integrate import (RecordMode, RunConfig as _RunConfig, _block_arrays,
                        _component_major, _initial_state, _rhs_into,
                        _run_steps, _startup_states, _step_kernel,
                        default_startup, integrate, reference_solution,
                        require_size, require_work, rhs_calls, rhs_work,
                        stage_slots)
from .methods import Method
from .problems import (BOUNDEDNESS, LINEAR_INVARIANCE, WEAK_MONOTONICITY,
                       OdeProblem, default_properties, exact_solution,
                       fe_property_bound)
from .qualprops import (_weighted_sum, bound_edges, invariant_deviation,
                        sweep_checks, window_violations)

# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------


class ErrorNorm(Enum):
    ABS = "abs"
    MAX_COMPONENT = "max"
    EUCLIDEAN = "euclidean"


def apply_norm(diff: np.ndarray, norm: ErrorNorm) -> float:
    diff = np.asarray(diff, dtype=float)
    if norm is ErrorNorm.EUCLIDEAN:
        return float(np.sqrt(np.sum(diff * diff)))
    return float(np.max(np.abs(diff)))


@dataclass(frozen=True)
class ExactReference:
    pass


@dataclass(frozen=True)
class RK4Reference:
    dt_ref: float


@dataclass(frozen=True)
class ConvergenceRow:
    dt: float
    error: float
    order: float | None


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple[ConvergenceRow, ...]
    norm: ErrorNorm
    config: dict

    def to_csv(self) -> str:
        lines = ["dt,error,order"]
        for row in self.rows:
            order = "" if row.order is None else repr(row.order)
            lines.append(f"{row.dt!r},{row.error!r},{order}")
        return "\n".join(lines) + "\n"


def observed_order(errors: Sequence[float],
                   dts: Sequence[float] | None = None) -> list[float | None]:
    """Orders from consecutive error ratios: log2 on halving grids, the
    general log-ratio quotient otherwise.  A zero error leaves the affected
    entries undefined (None)."""
    errors = [float(e) for e in errors]
    if len(errors) < 2:
        raise ValueError("need at least two errors")
    if any(e < 0 for e in errors):
        raise ValueError("errors must be nonnegative")
    out: list[float | None] = []
    for k in range(1, len(errors)):
        if errors[k - 1] <= 0 or errors[k] <= 0:
            out.append(None)
            continue
        ratio = errors[k - 1] / errors[k]
        step_ratio = 2.0 if dts is None else dts[k - 1] / dts[k]
        if step_ratio == 2.0:
            out.append(math.log2(ratio))
        else:
            out.append(math.log(ratio) / math.log(step_ratio))
    return out


def convergence_study(problem: OdeProblem, method: Method, phi,
                      dt_list: Sequence[float], t_end: float, y0,
                      reference, norm: ErrorNorm | None = None,
                      b_fe: float | None = None, startup=None,
                      t0: float = 0.0) -> ConvergenceReport:
    """Errors at t_end over a decreasing step-size list, with orders.

    ``phi`` is either a ready ``DenominatorSpec`` or a ``PhiKind``; in the
    latter case the threshold is ``ssp_threshold(method, b_fe)``, with
    ``b_fe`` defaulting to the problem's Euler bound at ``y0``.
    ``reference`` is ``ExactReference()``, ``RK4Reference(dt_ref)``, or the
    reference's final state itself, m finite values, so that studies of
    one problem, initial state and horizon can share one computed
    reference.
    """
    dts = [float(d) for d in dt_list]
    if not dts:
        raise ValueError("dt_list is empty")
    if any(b >= a for a, b in zip(dts, dts[1:])):
        raise ValueError("dt_list must be strictly decreasing")

    # every run's step and the initial state are checked before the
    # reference, which can take far longer than the runs it serves
    for dt in dts:
        _run_steps(method, t0, t_end, dt, problem.dimension)
    y0 = _initial_state(problem, y0)
    if norm is None:
        norm = ErrorNorm.ABS if problem.dimension == 1 else ErrorNorm.MAX_COMPONENT

    spec = phi
    if isinstance(phi, PhiKind):
        if b_fe is None and phi is not PhiKind.IDENTITY:
            b_fe = fe_property_bound(problem, y0)
        spec = make_phi_for_method(method, b_fe, phi)

    if isinstance(reference, ExactReference):
        if problem.exact is None:
            raise ConfigurationError(
                f"{problem.name} has no closed-form solution; "
                "use an RK4 reference")
        ref_final = exact_solution(problem, t_end - t0, y0)
    elif isinstance(reference, RK4Reference):
        ref_final = reference_solution(problem, y0, t_end, reference.dt_ref, t0)
    else:
        try:
            ref_final = _initial_state(problem, reference, "reference state")
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"unknown reference policy {reference!r}") from None

    def run_one(dt: float) -> float:
        config = _RunConfig(problem=problem, method=method, phi=spec, dt=dt,
                            t_end=t_end, y0=y0, t0=t0, startup=startup,
                            record=RecordMode.FINAL_STATE_ONLY)
        traj = integrate(config)
        return apply_norm(traj.final_state - ref_final, norm)

    errors = [run_one(dt) for dt in dts]

    orders: list[float | None] = [None]
    if len(errors) > 1:
        orders += observed_order(errors, dts)
    rows = tuple(ConvergenceRow(dt, err, order)
                 for dt, err, order in zip(dts, errors, orders))
    config = {
        "problem": problem.name,
        "params": dict(problem.params),
        "method": method.name,
        "phi": spec.label(),
        "phi_bound": spec.bound,
        "t_end": t_end,
        "y0": [float(v) for v in y0],
        "norm": norm.value,
        "reference": (type(reference).__name__
                      if isinstance(reference, (ExactReference, RK4Reference))
                      else "state"),
    }
    return ConvergenceReport(rows=rows, norm=norm, config=config)


# ---------------------------------------------------------------------------
# vectorized preservation sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepOutcome:
    """Per-element results of a batched preservation run."""

    bound_violated: np.ndarray
    weak_violated: np.ndarray
    invariant_max_dev: np.ndarray
    first_bound_step: np.ndarray
    first_weak_step: np.ndarray
    final_states: np.ndarray


def _rows_all(mask: np.ndarray) -> np.ndarray:
    """``mask.all(axis=1)`` for a (B, m) mask, column by column (for m = 1
    the column itself): numpy reduces over a short last axis slower."""
    out = mask[:, 0]
    for k in range(1, mask.shape[1]):
        out = out & mask[:, k]
    return out


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two float arrays of one shape hold the same bits, NaN
    payloads and the sign of zero included."""
    return bool((a.view(np.int64) == b.view(np.int64)).all())


def _take_into(keep: np.ndarray, a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The rows ``keep`` of a (b, m) component-major array, written into
    ``out``, a component-major array of their number of rows."""
    a.T.compress(keep, axis=-1, out=out.T)
    return out


def _take(keep: np.ndarray, *arrays) -> tuple:
    """The entries ``keep`` of each array along its first axis, passing None
    through; a (b, m) array stays component-major (``a[keep]`` and
    ``a.T[:, keep].T`` give it in row-major order)."""
    return tuple(None if a is None else a.T.compress(keep, axis=-1).T
                 for a in arrays)


def run_preservation_sweep(problem: OdeProblem, method: Method,
                           phi_kind: PhiKind, bounds: np.ndarray,
                           dts: np.ndarray, y0s: np.ndarray, n_steps,
                           *, p: int | None = None, startup=None,
                           lower=None, upper=None,
                           weak_direction: int = 0, weak_component: int = 0,
                           invariant_weights=None,
                           invariant_drift: float = 0.0,
                           _groups=None) -> SweepOutcome:
    """Advance a batch of runs in lockstep and monitor preserved properties.

    Per batch element i: threshold bounds[i], step size dts[i], initial
    state y0s[i], horizon n_steps[i] steps.  ``dts`` has shape (B,) and
    holds positive finite steps whose horizons n_steps * dts are finite;
    ``bounds`` and ``n_steps`` are one value for the whole batch or arrays
    of shape (B,).  ``lower``/``upper`` are bounds applied to every
    component and ``weak_direction`` is +1 (windowed increase), -1
    (decrease) or 0 (skip); each is either one value for the whole batch or
    an array of shape (B,).  In an array a missing bound is
    -inf/+inf, and an element with both bounds missing has no bound check.
    An in-horizon state with a non-finite component, startup states
    included, violates every check requested for its element, and its
    invariant deviation is inf.  The invariant ``invariant_weights`` (one
    weight per component) is watched to every element's horizon, so its
    deviation does not depend on the checks beside it; without it, an
    element stops evolving once every check requested for it has failed
    or its horizon is reached.  ``bounds`` must be positive and finite
    unless ``phi_kind`` is the identity.  ``startup`` is a startup policy,
    or None for ``integrate.default_startup``.  A batch whose full-size
    arrays would take more than ``MAX_RECORD_BYTES`` (see ``sweep_bytes``)
    is refused before any of them is made, and so is one of more than
    ``MAX_WORK`` rhs evaluations: B times the longest horizon times the
    method's rhs calls per step times m.

    The batch advances in blocks of at most ``MAX_SWEEP_ELEMENTS // m``
    elements, each block to its own last active step, so that a block's
    rings of states and slopes stay in the processor caches.  Once at most
    ``COMPACT_AT`` of a block's elements still evolve, the stopped ones'
    results are written out and the block goes on with the others alone.
    Elements are independent, so neither blocks nor compaction show in any
    result.  A block that has settled ends early: tested every s steps,
    once the new states repeat the whole ring of s states bit for bit and
    no invariant with drift is watched, every later step would repeat them
    and their verdicts (the kernel and ``rhs`` are elementwise and
    deterministic, frozen elements keep their states), so the results are
    already final.  With drift the invariant's target moves at each step.

    A block's step allocates nothing.  The block owns every (b, m) array
    its kernels write into (see ``integrate._kernel_factory``), all cut
    from one buffer by ``integrate._block_arrays``, each on a 64-byte
    cache line: s + 1 ring slots for states, the newest s of them the ring
    and the last the one the next state goes into; s slots beside the ring
    for their slopes, which ``rhs`` writes with ufunc ``out=``; and the
    work arrays, the scratch pair in which terms are formed and a
    Runge-Kutta method's stage slots.  A step writes its new state into
    the free ring slot, and state, slope and slot rotate together.  The
    startup writes u^0..u^(s-1) into the ring and its Runge-Kutta
    starter's stage values and slopes into the arrays still free then
    (the slope slots and the last ring slot), so they take no memory of
    their own.  A compaction makes all of them again at the new
    size, gathers the kept states and slopes into them and binds the step
    kernel to the new work arrays.  numpy places an array at a random
    16-byte offset within a cache line, and a pass whose output is not
    line-aligned ran up to twice as slow (see ``integrate``); where an
    array starts changes no result.

    ``_groups`` (private) gives each element a nonnegative integer group id:
    once one element stops at its failed checks, all elements of its group
    stop too, and their results cover only the steps they made.
    Whether a group has a failing element is the same with and without it.
    """
    y0s = np.asarray(y0s, dtype=float)
    B, m = y0s.shape
    require_size(sweep_bytes(B, m),
                 f"a sweep of {B} elements of {m} components")
    dts = np.asarray(dts, dtype=float)
    bounds = np.asarray(bounds, dtype=float)
    n_steps = np.asarray(n_steps, dtype=int)
    if dts.shape != (B,):
        raise ConfigurationError(
            f"dts has shape {dts.shape}, the batch needs ({B},)")
    for name, value in (("bounds", bounds), ("n_steps", n_steps)):
        if value.ndim and value.shape != (B,):
            raise ConfigurationError(
                f"{name} has shape {value.shape}, the batch needs ({B},) "
                "or one value")
    bounds = np.broadcast_to(bounds, (B,))
    n_steps = np.broadcast_to(n_steps, (B,))
    # a finite horizon keeps every invariant target finite; with no drift
    # it is then exactly the initial level
    with np.errstate(over="ignore"):
        if not (np.isfinite(dts).all() and (dts > 0).all()
                and np.isfinite(n_steps * dts).all()):
            raise ConfigurationError(
                "dts must be positive and finite, and so must every "
                "horizon n_steps * dts")
    if phi_kind is not PhiKind.IDENTITY and not (
            np.isfinite(bounds).all() and (bounds > 0).all()):
        raise ConfigurationError("bounds must be positive and finite")
    longest = n_steps.max(initial=0)
    require_work(B * rhs_work(longest, rhs_calls(method), m),
                 f"a sweep of {B} elements of up to {longest:.3g} steps")
    if startup is None:
        startup = default_startup(problem, method)
    s = method.steps
    rhs = _rhs_into(problem.rhs)
    # the kernels' scratch pair and the stage slots of a Runge-Kutta step
    n_work = 2 + stage_slots(method)

    if phi_kind is PhiKind.IDENTITY:
        phis = dts.copy()
    else:
        phis = np.asarray(phi_value(phi_kind, bounds, dts, p))

    check_bounds_on = lower is not None or upper is not None
    if check_bounds_on:
        lower, upper = (np.broadcast_to(np.asarray(bound, dtype=float), (B,))
                        for bound in (-np.inf if lower is None else lower,
                                      np.inf if upper is None else upper))
        bound_req = ~(np.isneginf(lower) & np.isposinf(upper))
        lo_edge, hi_edge = bound_edges(lower, upper)
    else:
        bound_req = np.zeros(B, dtype=bool)
    direction = np.broadcast_to(np.asarray(weak_direction, dtype=int), (B,))
    weak_req = direction != 0
    check_weak = bool(weak_req.any())
    if check_weak and not 0 <= weak_component < m:
        raise ConfigurationError(
            f"weak_component {weak_component} is not a component index "
            f"of a state of length {m}")
    check_inv = invariant_weights is not None
    if check_inv:
        gamma = np.asarray(invariant_weights, dtype=float)
        if gamma.shape != (m,):
            raise ConfigurationError(
                f"invariant_weights has shape {gamma.shape}, a state of "
                f"length {m} needs ({m},)")
        level = _weighted_sum(y0s, gamma, np.empty(B), np.empty(B))
    # a drifting invariant's target moves with the step, so no block whose
    # states repeat has its verdicts settled
    settles = not (check_inv and invariant_drift != 0)
    groups = None
    if _groups is not None:
        groups = np.broadcast_to(np.asarray(_groups, dtype=np.intp), (B,))
        n_groups = int(groups.max(initial=0)) + 1

    out = SweepOutcome(bound_violated=np.zeros(B, dtype=bool),
                       weak_violated=np.zeros(B, dtype=bool),
                       invariant_max_dev=np.zeros(B),
                       first_bound_step=np.full(B, -1, dtype=np.int64),
                       first_weak_step=np.full(B, -1, dtype=np.int64),
                       final_states=np.empty((B, m)))

    def advance(sl: slice) -> None:
        """Step the elements ``sl`` to their last active step and write
        their results into ``out``."""
        # the block's elements (global indices) and everything carried
        # from step to step for them; a compaction gathers all of it
        idx = np.arange(sl.start, sl.stop)
        b = idx.size
        horizon, b_req, w_req = n_steps[sl], bound_req[sl], weak_req[sl]
        # True: a windowed increase, else a decrease (or no check: unwatched)
        w_inc = direction[sl] > 0
        group = None if groups is None else groups[sl]
        bound_viol = np.zeros(b, dtype=bool)
        weak_viol = np.zeros(b, dtype=bool)
        first_bound = np.full(b, -1, dtype=np.int64)
        first_weak = np.full(b, -1, dtype=np.int64)
        inv_dev = np.zeros(b)
        # full (b, m) operands, component-major like the states: numpy
        # multiplies and compares two full arrays several times faster than
        # an array and a (b, 1) column
        lo = hi = None
        if check_bounds_on:
            lo = _component_major(lo_edge[sl], m)
            hi = _component_major(hi_edge[sl], m)
        block_h = _component_major(phis[sl], m)
        block_level, block_dts = ((level[sl], dts[sl]) if check_inv
                                  else (None, None))

        def buffers(size: int) -> None:
            """(Re)make the arrays the block owns for ``size`` elements, all
            cut from one aligned buffer: the kernels' work arrays (scratch
            pair and stage slots), s + 1 slots for the ring's states and s
            for their slopes; and the invariant's sums.  Bind the step
            kernel to the work arrays and to ``block_h``."""
            nonlocal work, ring, fring, kernel, sums, elapsed
            arrays = _block_arrays(n_work + 2 * s + 1, size, m)
            work = arrays[:n_work]
            ring = deque(arrays[n_work:n_work + s + 1])
            fring = deque(arrays[n_work + s + 1:])
            kernel = _step_kernel(method, block_h, m, work)
            if check_inv:
                sums = (np.empty(size), np.empty(size))
                elapsed = None if invariant_drift == 0 else np.empty(size)

        work = ring = fring = kernel = sums = elapsed = None
        buffers(b)

        def watch(live) -> None:
            """The elements each monitor watches: those ``live`` (None: all
            of them) whose check is requested and has not failed yet."""
            nonlocal b_watch, w_watch

            def watched(req, viol):
                mask = req & ~viol
                if live is not None:
                    mask &= live
                return mask

            if check_bounds_on:
                b_watch = watched(b_req, bound_viol)
            if check_weak:
                w_watch = watched(w_req, weak_viol)

        def flag(v, viol, first, step_idx: int) -> None:
            """Mark the watched elements ``v`` as failing at ``step_idx``."""
            nonlocal changed
            if np.count_nonzero(v):
                first[v] = step_idx
                viol[v] = True
                changed = True

        def record(state: np.ndarray, step_idx: int, stepped=False) -> None:
            """Monitor ``state``, the states of step ``step_idx``, for the
            elements ``live``; a ``stepped`` state's weak window is the
            ring's s states (else a startup state, checked only for
            NaN/inf)."""
            if check_bounds_on:
                flag(b_watch & ~_rows_all((state >= lo) & (state <= hi)),
                     bound_viol, first_bound, step_idx)
            if check_weak:
                v = ~_rows_all(np.isfinite(state))
                if stepped:
                    # oldest first
                    v |= window_violations(
                        state[:, weak_component],
                        [ring[i][:, weak_component]
                         for i in range(s - 1, -1, -1)], w_inc)
                flag(v & w_watch, weak_viol, first_weak, step_idx)
            if check_inv:
                if elapsed is not None:
                    np.multiply(step_idx, block_dts, out=elapsed)
                dev, _ = invariant_deviation(state, gamma, block_level,
                                             invariant_drift, elapsed, *sums)
                np.abs(dev, out=dev)
                np.maximum(inv_dev, dev, out=inv_dev,
                           where=True if live is None else live)

        def retire(sel) -> None:
            """Write the results of the block's elements ``sel``."""
            at = idx[sel]
            out.bound_violated[at] = bound_viol[sel]
            out.weak_violated[at] = weak_viol[sel]
            # a NaN deviation sticks in the running maximum; it is an
            # infinite one, as in a recorded run's monitor
            dev = inv_dev[sel]
            out.invariant_max_dev[at] = np.where(np.isnan(dev), np.inf, dev)
            out.first_bound_step[at] = first_bound[sel]
            out.first_weak_step[at] = first_weak[sel]
            out.final_states[at] = ring[0][sel]

        b_watch = w_watch = None
        # a starter may overflow too (an untransformed one at a large step)
        with np.errstate(over="ignore", invalid="ignore"):
            # u^0 .. u^(s-1) go into the ring's slots s-1 .. 0, newest
            # first; the other arrays are free until the first step
            startup_states = _startup_states(
                problem, method, startup, y0s[sl], dts[sl],
                ([ring[s - 1 - i] for i in range(s)],
                 [*work[:2], ring[s], *fring, *work[2:]]))
            for i, state in enumerate(startup_states):
                live = i <= horizon
                live = None if live.all() else live
                watch(live)
                record(state, i)

        # the ring of states (``ring[s]`` the slot the next one goes into),
        # their slopes as the shared kernel fills them, and where it writes
        # each slope: state, slope and slot rotate together, so the slot
        # that comes round to the newest state held the dropped one's slope
        slopes = deque([None] * s, maxlen=s)
        # the steps after which some element's horizon has passed
        ends = set((horizon + 1).tolist())
        # the active set changes only on events: a newly failed check, which
        # may finish an element and its group, or a passed horizon
        changed = True
        # violated elements may blow up before they freeze; their inf/nan
        # arithmetic is elementwise and never poisons the others
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(s - 1, int(horizon.max())):
                step_idx = n + 1
                if changed:
                    # an element finishes once every check requested for
                    # it has failed; one with nothing to check, or with an
                    # invariant to watch, runs to its horizon
                    done = ((bound_viol | ~b_req) & (weak_viol | ~w_req)
                            & (b_req | w_req) & (not check_inv))
                    if group is not None and done.any():
                        hit = np.zeros(n_groups, dtype=bool)
                        hit[group[done]] = True
                        done = hit[group]
                if changed or step_idx in ends:
                    changed = False
                    active = (step_idx <= horizon) & ~done
                    n_active = np.count_nonzero(active)
                    if n_active == 0:
                        break
                    if n_active <= COMPACT_AT * active.size:
                        retire(~active)
                        (idx, horizon, b_req, w_req, w_inc, group, done,
                         lo, hi, bound_viol, weak_viol, first_bound,
                         first_weak, inv_dev, block_level, block_dts,
                         block_h) = _take(
                            active, idx, horizon, b_req, w_req, w_inc,
                            group, done, lo, hi, bound_viol, weak_viol,
                            first_bound, first_weak, inv_dev, block_level,
                            block_dts, block_h)
                        old = list(ring)[:s], list(slopes)
                        buffers(n_active)
                        for i, (u, f) in enumerate(zip(*old)):
                            _take_into(active, u, ring[i])
                            if f is not None:
                                slopes[i] = _take_into(active, f, fring[i])
                        active = active[active]
                    live = None if n_active == active.size else active
                    frozen = None if live is None else ~live[:, None]
                    watch(live)

                new = kernel(rhs, ring, slopes, fring)
                if frozen is not None:
                    np.copyto(new, ring[0], where=frozen)

                record(new, step_idx, True)
                # a step whose new states repeat its whole ring bit for bit
                # repeats it at every later step: its verdicts and states
                # are all recorded already
                if (settles and step_idx % s == 0
                        and all(_same_bits(new, u) for u in islice(ring, s))):
                    break
                ring.rotate(1)
                fring.rotate(1)
                slopes.appendleft(None)
        retire(slice(None))

    # blocks of near-equal size
    n_blocks = -(-B // max(1, MAX_SWEEP_ELEMENTS // m))
    for k in range(n_blocks):
        advance(slice(k * B // n_blocks, (k + 1) * B // n_blocks))
    return out


def _row_checks(problem: OdeProblem, y0_states: np.ndarray, what: str,
                weak_component: int = 0) -> dict:
    """Each initial state's ``sweep_checks`` of class ``what``, stacked."""
    checks = [sweep_checks(default_properties(problem, y0), problem.dimension,
                           what, weak_component) for y0 in y0_states]
    return {key: np.array([c[key] for c in checks])
            for key in (checks[0] if checks else ())}


def logistic_preservation_grid(c: float, y0_values: np.ndarray,
                               dt_values: np.ndarray,
                               method: Method, phi_kind: PhiKind,
                               n_steps: int = 1000) -> SweepOutcome:
    """Preservation sweep on the logistic problem: the full (y0 x dt) grid
    with thresholds C * min(1/c, 1/y0), checking the bounds and windowed
    monotonicity of each y0's property set."""
    from .problems import logistic_problem
    problem = logistic_problem(c)
    y0_values = np.asarray(y0_values, float)
    yv, dv = np.meshgrid(y0_values, np.asarray(dt_values, float),
                         indexing="ij")
    y0s = yv.ravel()[:, None]
    bounds = ssp_threshold(method, fe_property_bound(problem, y0s))
    checks = {**_row_checks(problem, y0_values[:, None], BOUNDEDNESS),
              **_row_checks(problem, y0_values[:, None], WEAK_MONOTONICITY)}
    return run_preservation_sweep(
        problem, method, phi_kind, bounds, dv.ravel(), y0s, n_steps,
        **{key: np.repeat(v, dv.shape[1]) for key, v in checks.items()})


def seir_conservation_sweep(method: Method, phi_kind: PhiKind,
                            y0s: np.ndarray, dts: np.ndarray,
                            n_steps: int = 1000,
                            influx: float = 0.0) -> np.ndarray:
    """Max deviation of the property set's linear invariant from its target
    over a batch of epidemic runs; startup via the matching-order starter."""
    from .problems import seir_problem
    problem = seir_problem(influx)
    bounds = ssp_threshold(method, fe_property_bound(problem, y0s))
    # the same weights and drift at every state; the batch may be empty
    invariant = sweep_checks(default_properties(problem, np.zeros(4)), 4,
                             LINEAR_INVARIANCE)
    return run_preservation_sweep(problem, method, phi_kind, bounds, dts,
                                  y0s, n_steps, **invariant).invariant_max_dev


# ---------------------------------------------------------------------------
# bound sharpness by bisection
# ---------------------------------------------------------------------------

#: most values (elements x state dimension) in one state array of a sweep
#: block or a sharpness chunk.  A block's arrays then take 128 KB each and
#: its six-step rings of states and slopes stay in a 2 MB L2 cache.  On a
#: SEIR sweep of 2e4 elements (m = 4), blocks of 2**14 or 2**15 values ran
#: about 20% faster than one block, 2**13 about 10%, and 2**12 slower (the
#: per-step Python work grows with the block count); on a 400 x 1000 SEIR
#: grid, sharpness chunks of 2**12 to 2**14 elements ran about 1.7 times
#: faster than chunks of 2**17
MAX_SWEEP_ELEMENTS = 2 ** 14

#: a sweep block is compacted (its stopped elements written out, the rest
#: gathered into smaller arrays) once at most this fraction of its elements
#: still evolves; 0 never compacts
COMPACT_AT = 0.5


def sweep_bytes(n_elements: int, m: int) -> int:
    """Peak bytes of a preservation sweep beside its blocks: per element
    its outcome entries (26 + 8 m bytes) and its inputs normalised at full
    size.  Rounded up from tracemalloc peaks of logistic and SEIR sweeps
    with every check (about 68 bytes per element for m = 1 and 95 for
    m = 4 on Python 3.11 with numpy 2.4)."""
    return n_elements * (72 + 8 * m)


def sharpness_bytes(n_rows: int, n_dt: int) -> int:
    """Peak bytes of a sharpness bisection beside its sweep blocks: per row
    its initial state, label, checks, bracket and output row, and per step
    size its entries in a one-row sweep.  Rounded up from tracemalloc peaks
    of logistic and SEIR bisections (about 600 bytes per row and 175 per
    step size on Python 3.11 with numpy 2.4)."""
    return 1024 * n_rows + 256 * n_dt


def bisect_threshold(predicate, lo: float, hi: float, tol: float,
                     max_iter: int = 60) -> tuple[float, str]:
    """Largest value in [lo, hi] at which a monotone predicate holds.

    Returns (value, status): the interval midpoint once hi - lo <= tol and
    "ok"; ``hi`` and "at-range-top" when the predicate holds at the top;
    NaN and "below-range" when it already fails at ``lo``.
    """
    if not predicate(lo):
        return float("nan"), "below-range"
    if predicate(hi):
        return hi, "at-range-top"
    iters = 0
    while hi - lo > tol and iters < max_iter:
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            lo = mid
        else:
            hi = mid
        iters += 1
    return 0.5 * (lo + hi), "ok"


@dataclass(frozen=True)
class SharpnessRow:
    y0_label: float
    sufficient_bound: float
    empirical_bound: float
    property_name: str
    status: str


@dataclass(frozen=True)
class SharpnessReport:
    rows: tuple[SharpnessRow, ...]
    config: dict

    def to_csv(self) -> str:
        lines = ["y0,sufficient_bound,empirical_bound,property"]
        for r in self.rows:
            lines.append(f"{r.y0_label!r},{r.sufficient_bound!r},"
                         f"{r.empirical_bound!r},{r.property_name}")
        return "\n".join(lines) + "\n"


def sharpness_bisection(problem: OdeProblem, method: Method,
                        phi_kind: PhiKind, y0_states: np.ndarray,
                        dt_grid: np.ndarray, t_end: float, prop: str,
                        labels: Sequence[float] | None = None,
                        interval_scale: tuple[float, float] = (1e-4, 10.0),
                        tol: float = 1e-4, max_iter: int = 60,
                        weak_component: int = 0,
                        startup=None) -> SharpnessReport:
    """Per initial value, bisect on the transform threshold for the largest
    value at which ``prop`` holds for every step size in ``dt_grid`` over
    the horizon [0, t_end].

    The predicate must hold at the lower end of the search interval (it does
    at the sufficient threshold by construction); a row where it fails even
    there is marked "below-range", and one where it still holds at the top
    is censored at the top ("at-range-top").

    All rows bisect in lockstep: one sweep tests the lower ends of every
    row, one the upper ends of the rows that pass, and each further sweep
    makes two bisection iterations.  It tests every bisecting row's
    midpoint together with the midpoint the next iteration needs on each
    side whose half is still wider than ``tol`` (and only while
    ``max_iter`` allows another iteration); the midpoint's verdict then
    picks the side that counts.  Each tested threshold is one group of
    elements, one per step size, with its own row's checks, and stops at
    its first failing element.  Every row sees the midpoints
    ``bisect_threshold`` would give it alone, so the rows equal a
    row-by-row bisection exactly.  A sweep holds at most
    ``MAX_SWEEP_ELEMENTS // m`` elements (m the state dimension); larger
    ones run in chunks of tested thresholds.

    A row checks ``prop`` as its initial state's property set states it
    (see ``qualprops.sweep_checks``).  ``startup`` None is
    ``integrate.default_startup``.  A bisection of more than ``MAX_WORK``
    rhs evaluations, counted as its sweeps' at every one of the 2 +
    ``max_iter`` levels it may make, is refused before any sweep.
    """
    if prop not in (BOUNDEDNESS, WEAK_MONOTONICITY):
        raise ValueError(f"unknown property {prop!r}")
    if not (math.isfinite(t_end) and t_end > 0):
        raise ConfigurationError(
            f"t_end must be positive and finite (got {t_end!r})")
    if not tol >= 0:
        raise ConfigurationError(f"tol must be nonnegative (got {tol!r})")
    y0_states = np.asarray(y0_states, dtype=float)
    dt_grid = np.asarray(dt_grid, dtype=float)
    n_dt = dt_grid.size
    if n_dt == 0:
        raise ValueError("dt_grid is empty")
    if not (np.isfinite(dt_grid).all() and (dt_grid > 0).all()):
        raise ConfigurationError("dt_grid must hold positive finite steps")
    n_rows = y0_states.shape[0]
    require_size(sharpness_bytes(n_rows, n_dt),
                 f"a sharpness bisection of {n_rows} initial states and "
                 f"{n_dt} step sizes")
    with np.errstate(over="ignore"):
        n_steps = np.ceil(t_end / dt_grid - 1e-9)
    # each tested threshold is a sweep of n_dt elements, and a bisection
    # tests both range ends and then at most max_iter levels
    longest = n_steps.max()
    require_work(n_rows * (2 + max_iter) * n_dt
                 * rhs_work(longest, rhs_calls(method), problem.dimension),
                 f"a sharpness bisection of {n_rows} initial states and "
                 f"{n_dt} step sizes of up to {longest:.3g} steps")
    n_steps = n_steps.astype(int)

    label_values = [float(labels[i]) if labels is not None
                    else float(y0_states[i, 0]) for i in range(n_rows)]
    sufficient = ssp_threshold(method, fe_property_bound(problem, y0_states))
    if problem.property_set is None:
        raise ConfigurationError(
            f"no sharpness property set for {problem.name}")
    per_row = _row_checks(problem, y0_states, prop, weak_component)
    rows_per_sweep = max(1, MAX_SWEEP_ELEMENTS // (n_dt * problem.dimension))

    def holds(rows: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
        """Whether ``prop`` holds for row rows[k] at thresholds[k] for every
        step size."""
        out = np.empty(rows.size, dtype=bool)
        for start in range(0, rows.size, rows_per_sweep):
            chunk = rows[start:start + rows_per_sweep]
            k = chunk.size
            # one group per tested threshold: its first failing step size
            # decides it, and the others stop there
            outcome = run_preservation_sweep(
                problem, method, phi_kind,
                np.repeat(thresholds[start:start + k], n_dt),
                np.tile(dt_grid, k), np.repeat(y0_states[chunk], n_dt, axis=0),
                np.tile(n_steps, k), startup=startup,
                weak_component=weak_component,
                _groups=np.repeat(np.arange(k), n_dt),
                **{key: np.repeat(v[chunk], n_dt)
                   for key, v in per_row.items()})
            violated = (outcome.bound_violated if prop == BOUNDEDNESS
                        else outcome.weak_violated)
            out[start:start + k] = ~violated.reshape(k, n_dt).any(axis=1)
        return out

    def settle(rows: np.ndarray, points: np.ndarray, ok: np.ndarray):
        # one bisection step: a point that holds becomes its row's lower
        # end, one that fails its upper end
        lo[rows[ok]] = points[ok]
        hi[rows[~ok]] = points[~ok]

    # the same steps as bisect_threshold, for every row at once
    lo = interval_scale[0] * sufficient
    # finite where the sufficient threshold is unconditional
    hi = capped_product(interval_scale[1], sufficient)
    values = np.full(n_rows, np.nan)
    statuses = ["below-range"] * n_rows
    rows = np.arange(n_rows)
    rows = rows[holds(rows, lo[rows])]
    at_top = holds(rows, hi[rows])
    for i in rows[at_top]:
        values[i], statuses[i] = hi[i], "at-range-top"
    bisecting = rows[~at_top]
    active = bisecting
    # two bisection levels per sweep: beside each row's midpoint, the sweep
    # tests the midpoint the next level needs on either side whose bracket
    # is still wider than tol; the midpoint's verdict picks which counts
    for level in range(0, max_iter, 2):
        active = active[hi[active] - lo[active] > tol]
        if active.size == 0:
            break
        a_lo, a_hi = lo[active], hi[active]
        mid = 0.5 * (a_lo + a_hi)
        more = level + 1 < max_iter
        left = more & (mid - a_lo > tol)
        right = more & (a_hi - mid > tol)
        q_left = 0.5 * (a_lo[left] + mid[left])
        q_right = 0.5 * (mid[right] + a_hi[right])
        ok, ok_left, ok_right = np.split(
            holds(np.concatenate([active, active[left], active[right]]),
                  np.concatenate([mid, q_left, q_right])),
            [active.size, active.size + q_left.size])
        settle(active, mid, ok)
        use = ~ok[left]
        settle(active[left][use], q_left[use], ok_left[use])
        use = ok[right]
        settle(active[right][use], q_right[use], ok_right[use])
    for i in bisecting:
        values[i], statuses[i] = 0.5 * (lo[i] + hi[i]), "ok"

    rows_out = tuple(
        SharpnessRow(label_values[i], float(sufficient[i]), float(values[i]),
                     prop, statuses[i])
        for i in range(n_rows))
    config = {
        "problem": problem.name,
        "params": dict(problem.params),
        "method": method.name,
        "phi": phi_kind.value,
        "t_end": t_end,
        "property": prop,
        "dt_grid": [float(dt_grid.min()), float(dt_grid.max()), int(n_dt)],
        "tol": tol,
    }
    return SharpnessReport(rows=rows_out, config=config)


# ---------------------------------------------------------------------------
# transform micro-benchmark
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkRow:
    phi: str
    evals: int
    seconds: float


@dataclass(frozen=True)
class BenchmarkReport:
    rows: tuple[BenchmarkRow, ...]

    def to_csv(self) -> str:
        lines = ["phi,evals,seconds"]
        for r in self.rows:
            lines.append(f"{r.phi},{r.evals},{r.seconds!r}")
        return "\n".join(lines) + "\n"


def phi_benchmark(kinds: Sequence[PhiKind | tuple[PhiKind, int]] | None = None,
                  n_evals: int = 10 ** 7, x: float = 0.1, bound: float = 0.1,
                  reps: int = 5, chunk: int = 1 << 20) -> BenchmarkReport:
    """Median wall-clock time to evaluate each transform ``n_evals`` times.

    ``kinds`` holds kinds or, for the general family, ``(kind, p)`` pairs
    as ``parse_phi_label`` returns them; rows are labelled as
    ``DenominatorSpec.label`` does.  Evaluation is chunked over
    preallocated arrays; a running scalar accumulator keeps the results
    observable, and an ``x`` whose values would overflow it is refused
    before anything is timed.  The repetitions go round robin over the
    kinds, so a change in the host's speed during the run hits every kind
    alike.  Absolute numbers are hardware-bound; only relative ordering is
    meaningful.
    """
    if n_evals < 10 ** 6:
        raise ValueError("n_evals must be at least 1e6")
    if not math.isfinite(x):
        raise ConfigurationError(f"x must be finite (got {x!r})")
    if reps < 1:
        raise ConfigurationError(f"reps must be at least 1 (got {reps})")
    if kinds is None:
        kinds = list(CATALOG_KINDS) + [PhiKind.IDENTITY]
    pairs = [(k, None) if isinstance(k, PhiKind) else k for k in kinds]
    specs = [DenominatorSpec(kind, bound=bound, p=p) for kind, p in pairs]
    xs = np.full(min(chunk, n_evals), float(x))
    # the accumulator adds the first value of every block of every
    # repetition, reps * ceil(n_evals / xs.size) values per kind
    blocks = reps * -(-n_evals // xs.size)
    if not math.isfinite(blocks * sum(eval_phi(spec, float(x))
                                      for spec in specs)):
        raise ConfigurationError(
            f"the transform values at x = {x!r} overflow the benchmark "
            "accumulator")
    times = [[] for _ in specs]
    guard = 0.0
    for _ in range(reps):
        for spec, spec_times in zip(specs, times):
            remaining = n_evals
            start = time.perf_counter()
            while remaining > 0:
                block = xs if remaining >= xs.size else xs[:remaining]
                out = phi_value(spec.kind, bound, block, spec.p)
                guard += float(np.asarray(out).flat[0])
                remaining -= block.size
            spec_times.append(time.perf_counter() - start)
    return BenchmarkReport(rows=tuple(
        BenchmarkRow(spec.label(), n_evals, statistics.median(t))
        for spec, t in zip(specs, times)))
