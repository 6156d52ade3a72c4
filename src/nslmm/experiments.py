"""Quantitative studies: convergence tables with observed orders, empirical
bound-sharpness sweeps, large preservation sweeps, and a transform
micro-benchmark.

The sweep machinery is vectorized: a batch of independent runs (one per
combination of initial value, step size and threshold) advances in lockstep
as numpy arrays, with property monitors evaluated on the fly; bounds and
monotonicity directions may differ per element.  One engine does it, a
lockstep pool (``_SweepPool``) that elements join between steps: a
preservation sweep admits its batch a block at a time, and a sharpness
bisection admits each round of tested thresholds while earlier ones, the
range ends among them, still run.  Elements join through the startup
routine of a single run (``integrate._startup_states``) and step with the
batch form of the kernel a single run steps with, which
``integrate._kernel_factory`` emits from the same method shape: the same
slope ring, one ``rhs`` call per step for all elements, and the same
operations in the same order.  So each element's states equal its single
run bit for bit, whatever else shares its pool and whenever it joined,
given the same transformed step h.  ``phi_value`` on an array can round
differently in the last bit from the same transform of one float (numpy's
vectorised ``**``), and then so do the element's states.  How elements
join, and why joining keeps every kept element's bits, is told at
``_SweepPool``.

A step does only the bookkeeping it needs.  Which elements are active, and
which ones each monitor still watches, changes only on events: a check that
newly fails (which may finish an element and its group), a horizon that
decides a group or brings the pool to compaction, an element that settles,
or a rebuild.  These
sets are kept from step to step and made again only on the step after an
event, so most steps form the new states and test them against cached
masks.  The monitors call the elementwise predicates of ``qualprops``, so
an element's verdicts and invariant deviation do not depend on its pool,
and equal a recorded run's of the same states.

A step allocates no array either.  Its new state, the slopes ``rhs``
writes and every term go into arrays the pool made at its last rebuild,
each starting on a 64-byte cache line, so that no pass writes across line
boundaries (see ``run_preservation_sweep``).  On the benchmark's SEIR
sweep (2e4 elements, 200 steps, ``sspms64`` started by ``ssprk104``, on a
2-vCPU Xeon virtual machine) that, with the invariant's weighted sum
adding its unit weights without multiplying by 1.0, took the job from
14.2 to 11.1 times the benchmark's reference kernel (medians of ten
alternating runs), with every final state bit for bit the same.

An element finishes early once it has settled: when its new state equals
every state of its ring bit for bit (NaN payloads and the sign of zero
included), and no invariant with drift is watched.  The step kernel and
``rhs`` are elementwise and deterministic, so every later step would give
it the same states and the same verdicts, and its final state, at
whatever horizon, is its current one.  So settling shows in no result.
A settled element counts as finished for its group and for the end of
the pool; a sweep element, a group of its own, has its results written at
the event after it settles, and it steps on, repeating its states, until
the next rebuild drops it.
While elements wait to join, its row counts as room.  It is tested every
s steps (s the ring length): a test in which no element still evolving
repeats its newest ring state costs one compare and one count.
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


def _bound_inputs(lower: np.ndarray, upper: np.ndarray) -> dict:
    """The bound check of elements with bounds ``lower`` and ``upper``
    (-inf/+inf where missing), as a sweep pool takes it: whether each has
    one, and the edges its states keep (see ``qualprops.bound_edges``)."""
    lo_edge, hi_edge = bound_edges(lower, upper)
    return {"b_req": ~(np.isneginf(lower) & np.isposinf(upper)),
            "lo_edge": lo_edge, "hi_edge": hi_edge}


def _same_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether each row of two (B, m) float arrays holds the same bits in
    both, NaN payloads and the sign of zero included."""
    return _rows_all(a.view(np.int64) == b.view(np.int64))


def _batch_states(name: str, states, problem: OdeProblem) -> np.ndarray:
    """``states`` as an (n, m) float array, m the state dimension of
    ``problem``; any other shape is refused, naming it."""
    states = np.asarray(states, dtype=float)
    m = problem.dimension
    if states.ndim != 2 or states.shape[1] != m:
        raise ConfigurationError(
            f"{name} has shape {states.shape}, states of {problem.name} "
            f"need (n, {m})")
    return states


def _take_into(keep: np.ndarray, a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The rows ``keep`` of a (b, m) component-major array, written into
    ``out``, a (b', m) array (or a row slice of one) of their number of
    rows."""
    a.T.compress(keep, axis=-1, out=out.T)
    return out


#: a pool step after every horizon
_NEVER = np.iinfo(np.int64).max


class _Columns:
    """Everything a sweep pool carries from step to step for its elements,
    one entry per row, in one 2-D array per type whose rows ``FIELDS``
    names.  ``base`` is the pool step of an element's step 0, ``last`` the
    pool step of its horizon (``_NEVER`` once it has settled) and ``fin``
    the pool step it finishes at, its horizon or where it settled;
    ``first_bound`` and ``first_weak`` are its first failing steps (-1:
    none) and ``group`` its group (a sweep element's is its row of
    ``out``).  ``b_req`` and ``w_req`` say whether it has a
    bound and a weak check, ``w_inc`` whether its window increases, and
    ``bound_viol`` and ``weak_viol`` whether each has failed.  ``phis`` is
    its transformed step, ``inv_dev`` its invariant's largest deviation so
    far, ``level`` that invariant's initial value, ``dts`` its step size,
    and ``lo_edge`` and ``hi_edge`` the edges its states keep."""

    FIELDS = ((np.int64, ("base", "last", "first_bound", "first_weak",
                          "group", "fin")),
              (bool, ("b_req", "w_req", "w_inc", "bound_viol", "weak_viol")),
              (float, ("phis", "inv_dev", "level", "dts", "lo_edge",
                       "hi_edge")))

    def __init__(self, arrays: list):
        self.arrays = arrays
        self.size = arrays[0].shape[1]
        for (_, names), rows in zip(self.FIELDS, arrays):
            self.__dict__.update(zip(names, rows))

    @classmethod
    def joining(cls, inputs: dict, base: int, weights) -> _Columns:
        """The columns of elements that join with their step 0 at pool step
        ``base``, from their inputs (see ``_SweepPool.admit``); their
        invariant's level with ``weights`` (None: none watched)."""
        b, last = inputs["dts"].size, base + inputs["n_steps"]
        # the inputs that name a column, and the other columns' values (0
        # where none is given)
        values = {**inputs, "base": base, "last": last, "fin": last,
                  "first_bound": -1, "first_weak": -1,
                  "w_req": inputs["direction"] != 0,
                  "w_inc": inputs["direction"] > 0}
        if weights is not None:
            values["level"] = _weighted_sum(inputs["y0s"], weights,
                                            np.empty(b), np.empty(b))
        cols = cls([np.zeros((len(names), b), dtype)
                    for dtype, names in cls.FIELDS])
        for name in values.keys() & vars(cols).keys():
            getattr(cols, name)[:] = values[name]
        return cols

    def take(self, keep: np.ndarray) -> _Columns:
        """The rows ``keep``, in their order."""
        return _Columns([a.compress(keep, axis=1) for a in self.arrays])

    def join(self, other: _Columns) -> _Columns:
        """These rows, then those of ``other``."""
        return _Columns([np.concatenate(pair, axis=1)
                         for pair in zip(self.arrays, other.arrays)])


def _schedule(active: np.ndarray, last: np.ndarray, n_active: int,
              n_settled: int, head: int, admitted: bool, capacity: int,
              run_due: int) -> tuple:
    """What a sweep pool does at an event, as ``(action, due)``: "admit"
    (rebuild with the queued elements that fit), "compact" (rebuild
    without them), "finish", or "step" on to ``due``, the pool step of the
    next event that no check sets off.

    The pool has ``active.size`` rows, ``n_active`` of them ``active``,
    and ``n_settled`` of those have settled (``last``, the pool step of
    each row's horizon, is ``_NEVER``).  ``head`` is the unit of the
    queue's head (0: nothing queued), and ``admitted`` whether the
    listener queued it at this event.  Queued elements join once nothing
    evolves, once at most ``COMPACT_AT`` of the pool is counted, or after
    the listener admitted them and the head fits beside the evolving rows.
    A settled row counts as room only while elements queue; else it steps
    on, repeating its states, until the next rebuild.  (Counted as
    evolving always, ``run_sharpness.py``'s logistic-c500 setting took
    1.10 times as long as before the pool; as now, 0.76 times.)

    The pool reads a horizon only where it decides a group (the next one
    by horizon, ``run_due``) or the count above: nothing else moves that
    count between events, so it is at most ``COMPACT_AT`` of the pool from
    the step after the counted horizon that brings it there.  In a sweep,
    whose every element is a group of its own, each horizon decides one.
    """
    going = n_active - n_settled
    counted = going if head else n_active
    compact = counted <= COMPACT_AT * active.size
    if head and (going == 0 or compact
                 or admitted and head <= capacity - going):
        return "admit", None
    if going == 0:
        return "finish", None
    if compact:
        return "compact", None
    # settled rows (``_NEVER``) sort last: with elements queued they are
    # not counted, and the over-th smallest is an evolving row's horizon
    over = counted - int(COMPACT_AT * active.size)
    h = last[active]
    h.partition(over - 1)
    return "step", min(run_due, int(h[over - 1])) + 1


class _SweepPool:
    """A lockstep pool of sweep elements that elements join between steps.

    Every element of a pool shares its problem, method and startup policy;
    each has its own transformed step, step size, initial state, horizon,
    checks and group.  ``admit`` queues elements;
    ``run`` starts from an empty pool, lets queued elements join as room
    allows and advances them all in lockstep.  ``run_preservation_sweep``
    describes the step, the monitors, compaction and settling;
    ``sharpness_bisection`` admits as it goes.

    A group is decided once one of its elements has failed every check
    requested for it, which stops the others, or once all of them have
    passed their horizons or settled.  Its rows then go where the pool
    sends them: a pool with ``out`` (a sweep, whose every element is a
    group of its own, numbered by its row of ``out``) writes their results
    there, and one without (a bisection) reports the group to ``run``'s
    listener.  The pool reads no state of a decided element, which steps
    on with the others until a rebuild drops it, and it reads an element's
    horizon only where it decides something: a verdict (a failure past it
    is dropped, and a run that repeats its ring past it has not settled),
    a group's decision, and the count by which the pool compacts and
    admits (see ``_schedule``).  So it compacts and admits at the very
    steps a pool with an event at every horizon would.  On the benchmark's
    bisection (10 rows of 100 step sizes, 685 lockstep steps) that makes 96
    events, where an event at every horizon makes 418; a sweep makes one
    at each horizon, as each decides a group.

    An element counts its steps from the pool step at which it joined: its
    horizon, first failing step and invariant drift all count from there.
    Joining is a rebuild, made as a compaction is: the kept rows are
    gathered into new arrays and the new ones appended; their startup
    states go into their ring rows and are checked as a sweep's startup
    is.  Every slope slot then goes back to None and ``rhs`` makes the
    slopes again, elementwise and deterministic, so the kept elements'
    states keep their bits.  Queued elements join when the pool runs
    empty, at a compaction, and when ``run``'s listener admits them and
    they fit; the pool holds at most ``capacity`` elements, but always
    takes at least one unit.  ``counts`` holds the last run's lockstep
    steps, admissions, compactions (rebuilds that admit nothing) and
    events.

    A run's state is the pool's own: its rows' columns (``cols``), the
    ring and the arrays and kernel made for it at the last rebuild, the
    active set and watch masks made at the last event, and the pool steps
    of the next events.  ``_schedule`` decides each event from counts and
    arrays alone; the run itself is the lockstep loop.
    """

    def __init__(self, problem: OdeProblem, method: Method, startup, *,
                 weak_component: int = 0, invariant_weights=None,
                 invariant_drift: float = 0.0,
                 out: SweepOutcome | None = None):
        self.problem, self.method, self.startup = problem, method, startup
        self.weak_component, self.out = weak_component, out
        self.invariant_weights = invariant_weights
        self.invariant_drift = invariant_drift
        #: most elements the pool holds, unless one unit is larger
        self.capacity = max(1, MAX_SWEEP_ELEMENTS // problem.dimension)
        # [count, unit, take, elements taken so far] per admission
        self.queue: deque = deque()

    def admit(self, count: int, unit: int, take) -> None:
        """Queue ``count`` elements, which join in whole runs of ``unit``
        (a group, or a whole block): ``take(a, b)`` gives the inputs of the
        admission's elements a..b-1 as a dict of per-element arrays,
        ``phis`` (transformed steps), ``dts``, ``y0s``, ``n_steps`` and
        ``direction`` (the weak check's, 0 for none) and ``group``, with
        the bound check's ``_bound_inputs`` when the pool checks bounds.
        A group's elements join together, as one run of rows."""
        if count:
            self.queue.append([count, unit, take, 0])

    def _joiners(self, room: int, empty: bool) -> dict | None:
        """The inputs of the queued elements that fit into ``room``, in
        whole units; an ``empty`` pool takes at least one unit."""
        parts, got = [], 0
        while self.queue:
            item = self.queue[0]
            count, unit, take, at = item
            fit = min(count - at, (room - got) // unit * unit)
            if fit <= 0 and empty and not got:
                fit = min(unit, count - at)
            if fit <= 0:
                break
            parts.append(take(at, at + fit))
            got += fit
            item[3] = at + fit
            if item[3] == count:
                self.queue.popleft()
        if len(parts) < 2:
            return parts[0] if parts else None
        return {key: np.concatenate([part[key] for part in parts])
                for key in parts[0]}

    def run(self, on_decided=None) -> None:
        """Advance the pool from empty until every element has finished
        (failed its checks, passed its horizon or settled) and the queue is
        empty.  A pool without ``out`` is run with ``on_decided``: each
        group is reported at the step it is decided, ``on_decided(groups,
        held)`` getting the group ids and whether each held (no element of
        it failed, every one passed its horizon or settled).  It may admit
        more, and the run ends once it returns True."""
        s = self.method.steps
        rhs = _rhs_into(self.problem.rhs)
        # a drifting invariant's target moves with the step, so no element
        # whose states repeat has its verdicts settled
        settles = not (self.invariant_weights is not None
                       and self.invariant_drift != 0)
        self.counts = dict.fromkeys(
            ("steps", "admissions", "compactions", "events"), 0)
        if not self.queue:
            return
        record = self._record
        # violated elements may blow up before they freeze; their inf/nan
        # arithmetic is elementwise and never poisons the others.  A
        # starter may overflow too (an untransformed one at a large step).
        with np.errstate(over="ignore", invalid="ignore"):
            # the pool step of the newest ring state
            step = s - 1
            self._rebuild(None, True, step + 1)
            while True:
                nxt = step + 1
                # the active set changes only on events: a newly failed
                # check, which may finish an element and its group, a
                # passed horizon that counts, a settled element or a
                # rebuild, which makes the ring, slopes and kernel again
                if self.changed or nxt == self.due:
                    while self.changed or nxt == self.due:
                        if self._event(nxt, on_decided):
                            # the next run makes arrays of its own
                            self.cols = self.ring = self.fring = None
                            self.slopes = self.work = self.kernel = None
                            self.lo = self.hi = None
                            return
                    ring, slopes, fring = self.ring, self.slopes, self.fring
                    kernel = self.kernel
                new = kernel(rhs, ring, slopes, fring)
                record(new, nxt, True)
                if settles and nxt % s == 0:
                    self._settle(new, nxt)
                step = nxt
                ring.rotate(1)
                fring.rotate(1)
                slopes.appendleft(None)

    def _event(self, nxt: int, on_decided) -> bool:
        """The event before pool step ``nxt``: make the active set again,
        take the groups decided (see ``_decide_groups``), and admit,
        compact, finish or step on as ``_schedule`` decides.  True once the
        run ends."""
        cols, counts = self.cols, self.counts
        counts["events"] += 1
        counts["steps"] = nxt - self.method.steps
        rewatch, hit = self.changed, None
        if rewatch:
            # an element finishes once every check requested for it has
            # failed; one with nothing to check, or with an invariant to
            # watch, runs to its horizon.  A failing element finishes its
            # group
            done = ((cols.bound_viol | ~cols.b_req)
                    & (cols.weak_viol | ~cols.w_req)
                    & (cols.b_req | cols.w_req)
                    & (self.invariant_weights is None))
            if done.any():
                hit = np.zeros(int(self.run_group.max()) + 1, dtype=bool)
                hit[cols.group[done]] = True
                done = hit[cols.group]
            active = (nxt <= cols.last) & ~done
            if self.n_settled:
                self.n_settled = np.count_nonzero(cols.last[active] == _NEVER)
        else:
            active = self.active & (nxt <= cols.last)
        self.changed, self.active = False, active
        n_active = np.count_nonzero(active)
        admitted = False
        if rewatch or nxt > self.run_due:
            ended, admitted = self._decide_groups(nxt, hit, on_decided)
            if ended:
                return True
        action, due = _schedule(
            active, cols.last, n_active, self.n_settled,
            self.queue[0][1] if self.queue else 0, admitted, self.capacity,
            self.run_due)
        if action == "step":
            self.due = due
            self.live = None if n_active == cols.size else active
            self._watch(active)
        elif action != "finish":
            # the rows that still evolve: the active ones not settled
            keep = active & (cols.last < _NEVER) if self.n_settled else active
            self._rebuild(keep, action == "admit", nxt)
        return action == "finish"

    def _decide_groups(self, nxt: int, hit, on_decided) -> tuple:
        """Take the groups decided by pool step ``nxt``: a group is decided
        once one of its rows fails (``hit``, per group id) or all of them
        have passed their horizons or settled.  A pool with ``out`` writes
        their results there, one without reports them to ``on_decided``.
        Whether the listener ended the run, and whether it admitted more."""
        free = self.run_waiting & (self.run_end < nxt)
        if hit is not None:
            free |= self.run_waiting & hit[self.run_group]
        ended = admitted = False
        if free.any():
            self.run_waiting &= ~free
            if self.out is not None:
                self._write(free, nxt)
            else:
                decided = self.run_group[free]
                queued = len(self.queue)
                ended = on_decided(
                    decided, np.ones(decided.size, bool) if hit is None
                    else ~hit[decided])
                admitted = len(self.queue) > queued
        self.run_due = int(self.run_end.min(initial=_NEVER,
                                            where=self.run_waiting))
        return ended, admitted

    def _rebuild(self, keep, join: bool, nxt: int) -> None:
        """Gather the rows ``keep`` (None: the pool is empty) into new
        arrays and, with ``join``, append the queued elements that fit,
        run their startup and check its states, so that their next step is
        pool step ``nxt``.  The ring of states (``ring[s]`` the slot the
        next one goes into), their slopes as the shared kernel fills them,
        and where it writes each slope: state, slope and slot rotate
        together, so the slot that comes round to the newest state held the
        dropped one's slope."""
        s = self.method.steps
        k = 0 if keep is None else int(np.count_nonzero(keep))
        new = self._joiners(self.capacity - k, k == 0) if join else None
        self.counts["compactions" if new is None else "admissions"] += 1
        if k:
            cols = self.cols.take(keep)
            old = list(self.ring)[:s], list(self.slopes)
        if new is not None:
            fresh = _Columns.joining(new, nxt - s, self.invariant_weights)
            cols = cols.join(fresh) if k else fresh
        self.cols = cols
        self._arrays()
        # the active set, and with it the finished elements and groups, is
        # made again at the next event, and so is the pool step of the next
        # event that no check sets off (``due``) and of the next group
        # decided by horizon (``run_due``)
        self.changed, self.n_settled = True, 0
        self.due, self.run_due = None, _NEVER
        ring = self.ring
        for i in range(s if k else 0):
            _take_into(keep, old[0][i], ring[i][:k])
        if new is None:
            for i, f in enumerate(old[1]):
                if f is not None:
                    self.slopes[i] = _take_into(keep, f, self.fring[i])
        else:
            self.slopes = deque([None] * s, maxlen=s)
            # u^0 .. u^(s-1) of the new rows go into their rows of the
            # ring's slots s-1 .. 0, newest first; the other arrays are
            # free until the next step
            new_rows = slice(k, None)
            slots = [ring[s - 1 - i][new_rows] for i in range(s)]
            spare = [a[new_rows] for a in (*self.work[:2], ring[s],
                                           *self.fring, *self.work[2:])]
            _startup_states(self.problem, self.method, self.startup,
                            new["y0s"], new["dts"], (slots, spare))
            for i in range(s):
                live = np.zeros(cols.size, dtype=bool)
                live[new_rows] = i <= new["n_steps"]
                self.live = None if live.all() else live
                self._watch(live)
                self._record(ring[s - 1 - i], nxt - s + i)
        self._runs()

    def _arrays(self) -> None:
        """Make the arrays the pool owns for its rows, all cut from one
        aligned buffer: the kernels' work arrays (scratch pair and stage
        slots), s + 1 slots for the ring's states and s for their slopes;
        the bound edges and the invariant's sums.  Bind the step kernel to
        the work arrays and the rows' steps, and monitor the checks that
        any row requests."""
        cols, s, m = self.cols, self.method.steps, self.problem.dimension
        n_work = 2 + stage_slots(self.method)
        arrays = _block_arrays(n_work + 2 * s + 1, cols.size, m)
        self.work = arrays[:n_work]
        self.ring = deque(arrays[n_work:n_work + s + 1])
        self.fring = deque(arrays[n_work + s + 1:])
        self.kernel = _step_kernel(
            self.method, _component_major(cols.phis, m), m, self.work)
        self.check_bounds = bool(cols.b_req.any())
        self.check_weak = bool(cols.w_req.any())
        # full (b, m) operands, component-major like the states: numpy
        # multiplies and compares two full arrays several times faster
        # than an array and a (b, 1) column
        if self.check_bounds:
            self.lo = _component_major(cols.lo_edge, m)
            self.hi = _component_major(cols.hi_edge, m)
        # the invariant's sums, and the steps and times of its drift
        if self.invariant_weights is not None:
            self.sums = (np.empty(cols.size), np.empty(cols.size))
            self.local = np.empty(cols.size, dtype=np.int64)
        self.elapsed = np.empty(cols.size) if self.invariant_drift else None

    def _runs(self) -> None:
        """Make the runs of rows of one group again, a group's rows joining
        together and keeping their order: where each starts, its group,
        whether it waits for a decision and the pool step its last row
        finishes at.  Every group in the pool waits: a decided one has no
        row left to evolve, so a rebuild keeps none of its rows."""
        group = self.cols.group
        self.starts = np.flatnonzero(np.concatenate(
            [[True], group[1:] != group[:-1]]))
        self.run_group = group[self.starts]
        self.run_waiting = np.ones(self.starts.size, dtype=bool)
        self.run_end = np.maximum.reduceat(self.cols.fin, self.starts)

    def _watch(self, rows: np.ndarray) -> None:
        """The elements each monitor watches: those of ``rows`` whose check
        is requested and has not failed yet."""
        cols = self.cols
        # a & ~b is a > b on bools
        if self.check_bounds:
            self.b_watch = (cols.b_req & rows) > cols.bound_viol
        if self.check_weak:
            self.w_watch = (cols.w_req & rows) > cols.weak_viol

    def _flag(self, v, mask, viol, first, at: int) -> None:
        """Mark the elements ``v`` of the watch ``mask`` as failing at pool
        step ``at``.  The pool may watch an element past its horizon until
        the next event (see ``_SweepPool``): such an element is dropped
        from ``v`` and cleared from ``mask``."""
        late = v & (self.cols.last < at)
        if late.any():
            # a & ~b is a > b on bools
            np.greater(mask, late, out=mask)
            np.greater(v, late, out=v)
            if not v.any():
                return
        first[v] = at - self.cols.base[v]
        viol[v] = True
        self.changed = True

    def _record(self, state: np.ndarray, at: int, stepped=False) -> None:
        """Monitor ``state``, the states of pool step ``at``, for the
        elements ``live``; a ``stepped`` state's weak window is the ring's
        s states (else a startup state, checked only for NaN/inf)."""
        cols = self.cols
        if self.check_bounds:
            # watched and outside its edges (a & ~b is a > b on bools)
            watch = self.b_watch
            v = np.greater(watch, _rows_all((state >= self.lo)
                                            & (state <= self.hi)))
            if np.count_nonzero(v):
                self._flag(v, watch, cols.bound_viol, cols.first_bound, at)
        if self.check_weak:
            wc, ring = self.weak_component, self.ring
            v = ~_rows_all(np.isfinite(state))
            if stepped:
                # oldest first
                v |= window_violations(state[:, wc], [
                    ring[i][:, wc] for i in range(len(ring) - 2, -1, -1)],
                    cols.w_inc)
            watch = self.w_watch
            v &= watch
            if np.count_nonzero(v):
                self._flag(v, watch, cols.weak_viol, cols.first_weak, at)
        if self.invariant_weights is not None:
            if self.elapsed is not None:
                np.subtract(at, cols.base, out=self.local)
                np.multiply(self.local, cols.dts, out=self.elapsed)
            dev, _ = invariant_deviation(
                state, self.invariant_weights, cols.level,
                self.invariant_drift, self.elapsed, *self.sums)
            np.abs(dev, out=dev)
            np.maximum(cols.inv_dev, dev, out=cols.inv_dev,
                       where=True if self.live is None else self.live)

    def _settle(self, new: np.ndarray, nxt: int) -> None:
        """Mark the elements whose ``new`` state, of pool step ``nxt``,
        repeats their whole ring bit for bit as settled: they repeat it,
        and their verdicts, at every later step, so their results are
        final, and stepping them on past their horizons changes none of
        them."""
        cols, ring = self.cols, self.ring
        same = _same_rows(new, ring[0])
        if self.live is not None:
            same &= self.live
        # settled elements repeat their newest state
        if np.count_nonzero(same) <= self.n_settled:
            return
        # neither settled nor past its horizon
        same &= (nxt <= cols.last) & (cols.last < _NEVER)
        for u in islice(ring, 1, self.method.steps):
            same &= _same_rows(new, u)
        newly = np.count_nonzero(same)
        if newly:
            self.n_settled += newly
            cols.last[same] = _NEVER
            self.due = nxt + 1
            np.minimum(cols.fin, nxt, out=cols.fin, where=same)
            self.run_end = np.maximum.reduceat(cols.fin, self.starts)
            self.run_due = nxt

    def _write(self, free: np.ndarray, nxt: int) -> None:
        """Write the results of the runs ``free``, decided before pool step
        ``nxt``, into ``out``: a sweep's groups are one row each, numbered
        by their rows of ``out``.  A row's final state is its newest one,
        or for a horizon inside the startup (it is decided at the event
        after the startup) its state at the horizon, ``nxt - 1 - last``
        slots back."""
        out, cols, ring = self.out, self.cols, self.ring
        rows, at = self.starts[free], self.run_group[free]
        out.bound_violated[at] = cols.bound_viol[rows]
        out.weak_violated[at] = cols.weak_viol[rows]
        # a NaN deviation sticks in the running maximum; it is an infinite
        # one, as in a recorded run's monitor
        dev = cols.inv_dev[rows]
        out.invariant_max_dev[at] = np.where(np.isnan(dev), np.inf, dev)
        out.first_bound_step[at] = cols.first_bound[rows]
        out.first_weak_step[at] = cols.first_weak[rows]
        out.final_states[at] = ring[0][rows]
        for back in range(1, self.method.steps):
            short = cols.last[rows] == nxt - 1 - back
            if short.any():
                out.final_states[at[short]] = ring[back][rows[short]]


def run_preservation_sweep(problem: OdeProblem, method: Method,
                           phi_kind: PhiKind, bounds: np.ndarray,
                           dts: np.ndarray, y0s: np.ndarray, n_steps,
                           *, p: int | None = None, startup=None,
                           lower=None, upper=None,
                           weak_direction: int = 0, weak_component: int = 0,
                           invariant_weights=None,
                           invariant_drift: float = 0.0) -> SweepOutcome:
    """Advance a batch of runs in lockstep and monitor preserved properties.

    Per batch element i: threshold bounds[i], step size dts[i], initial
    state y0s[i], horizon n_steps[i] steps.  ``y0s`` has shape (B, m), m
    the problem's state dimension, ``dts`` has shape (B,) and
    holds positive finite steps whose horizons n_steps * dts are finite;
    ``n_steps`` holds whole numbers, 0 or more; ``bounds`` and ``n_steps``
    are one value for the whole batch or arrays of shape (B,).  An
    element's final state is u^n at its horizon n, or where it stopped
    before it; a horizon inside the startup (n < s - 1) has it from the
    startup.  ``lower``/``upper`` are bounds applied to every
    component and ``weak_direction`` is +1 (windowed increase), -1
    (decrease) or 0 (skip); each is either one value for the whole batch or
    an array of shape (B,).  In an array a missing bound is
    -inf/+inf, and an element with both bounds missing has no bound check;
    a NaN bound, a direction of another value and another shape are
    refused.
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

    The batch runs through one lockstep pool (``_SweepPool``), admitted in
    blocks of at most ``MAX_SWEEP_ELEMENTS // m`` elements, each block
    once the one before has left it, so that a block's rings of states and
    slopes stay in the processor caches.  Each element is a group of its
    own, and its results are written at the event that decides it: once
    every check requested for it has failed, past its horizon, or once it
    has settled (see the module notes).  Once at most ``COMPACT_AT`` of a
    block's elements still evolve, the block goes on with them alone, and
    it ends once every element has stopped.  Elements are independent, so
    neither blocks, compaction nor settling show in any result.  A block
    none of whose elements settles pays one compare of its new states with
    the newest ring state and one count per s steps.

    A step allocates nothing.  The pool owns every (b, m) array its
    kernels write into (see ``integrate._kernel_factory``), all cut from
    one buffer by ``integrate._block_arrays``, each on a 64-byte cache
    line: s + 1 ring slots for states, the newest s of them the ring and
    the last the one the next state goes into; s slots beside the ring for
    their slopes, which ``rhs`` writes with ufunc ``out=``; and the work
    arrays, the scratch pair in which terms are formed and a Runge-Kutta
    method's stage slots.  A step writes its new state into the free ring
    slot, and state, slope and slot rotate together.  The startup writes
    u^0..u^(s-1) into the ring and its Runge-Kutta starter's stage values
    and slopes into the arrays still free then (the slope slots and the
    last ring slot), so they take no memory of their own.  A compaction
    makes all of them again at the new size, gathers the kept states and
    slopes into them and binds the step kernel to the new work arrays.
    numpy places an array at a random 16-byte offset within a cache line,
    and a pass whose output is not line-aligned ran up to twice as slow
    (see ``integrate``); where an array starts changes no result.
    """
    y0s = _batch_states("y0s", y0s, problem)
    B, m = y0s.shape
    require_size(sweep_bytes(B, m),
                 f"a sweep of {B} elements of {m} components")
    dts = np.asarray(dts, dtype=float)
    bounds = np.asarray(bounds, dtype=float)
    n_steps = np.asarray(n_steps)
    if n_steps.dtype.kind not in "iu":
        n_steps = n_steps.astype(float)
    bad = ~(np.isfinite(n_steps) & (n_steps >= 0)
            & (np.floor(n_steps) == n_steps))
    if bad.any():
        raise ConfigurationError(
            "n_steps must be whole numbers of steps, 0 or more (got "
            f"{n_steps[bad][0].item()!r})")
    if dts.shape != (B,):
        raise ConfigurationError(
            f"dts has shape {dts.shape}, the batch needs ({B},)")
    # a missing bound is -inf/+inf, which checks nothing
    lower, upper = (np.asarray(edge if bound is None else bound, dtype=float)
                    for bound, edge in ((lower, -np.inf), (upper, np.inf)))
    direction = np.asarray(weak_direction, dtype=float)
    per_element = {"bounds": bounds, "n_steps": n_steps, "lower": lower,
                   "upper": upper, "weak_direction": direction}
    for name, value in per_element.items():
        if value.ndim and value.shape != (B,):
            raise ConfigurationError(
                f"{name} has shape {value.shape}, the batch needs ({B},) "
                "or one value")
    for name, value in (("lower", lower), ("upper", upper)):
        if np.isnan(value).any():
            raise ConfigurationError(
                f"{name} holds NaN; a missing bound is -inf/+inf")
    bad = ~np.isin(direction, (-1, 0, 1))
    if bad.any():
        raise ConfigurationError(
            "weak_direction must be +1, -1 or 0 (got "
            f"{direction[bad][0].item()!r})")
    bounds, lower, upper = (np.broadcast_to(v, (B,))
                            for v in (bounds, lower, upper))
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
    n_steps = np.broadcast_to(n_steps.astype(np.int64, copy=False), (B,))
    if startup is None:
        startup = default_startup(problem, method)

    phis = np.asarray(phi_value(phi_kind, bounds, dts, p))
    inputs = {"phis": phis, "dts": dts, "y0s": y0s, "n_steps": n_steps,
              "direction": np.broadcast_to(direction.astype(int), (B,))}
    if (direction != 0).any() and not 0 <= weak_component < m:
        raise ConfigurationError(
            f"weak_component {weak_component} is not a component index "
            f"of a state of length {m}")
    gamma = None
    if invariant_weights is not None:
        gamma = np.asarray(invariant_weights, dtype=float)
        if gamma.shape != (m,):
            raise ConfigurationError(
                f"invariant_weights has shape {gamma.shape}, a state of "
                f"length {m} needs ({m},)")

    out = SweepOutcome(bound_violated=np.zeros(B, dtype=bool),
                       weak_violated=np.zeros(B, dtype=bool),
                       invariant_max_dev=np.zeros(B),
                       first_bound_step=np.full(B, -1, dtype=np.int64),
                       first_weak_step=np.full(B, -1, dtype=np.int64),
                       final_states=np.empty((B, m)))
    pool = _SweepPool(problem, method, startup,
                      weak_component=weak_component, invariant_weights=gamma,
                      invariant_drift=invariant_drift, out=out)

    def take(a: int, b: int) -> dict:
        """The inputs of elements a..b-1 of the batch, as ``admit`` asks
        for them."""
        return {"group": np.arange(a, b),
                **_bound_inputs(lower[a:b], upper[a:b]),
                **{key: value[a:b] for key, value in inputs.items()}}

    # blocks of near-equal size, each one unit run to its end alone
    n_blocks = -(-B // pool.capacity)
    for k in range(n_blocks):
        a, b = k * B // n_blocks, (k + 1) * B // n_blocks
        pool.admit(b - a, b - a, lambda i, j, a=a: take(a + i, a + j))
        pool.run()
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
#: pool (a sweep block, or a bisection's tested thresholds at one time,
#: but at least one of them).  Its arrays then take 128 KB each and its
#: six-step rings of states and slopes stay in a 2 MB L2 cache.  On a SEIR
#: sweep of 2e4 elements (m = 4), blocks of 2**14 or 2**15 values ran
#: about 20% faster than one block, 2**13 about 10%, and 2**12 slower (the
#: per-step Python work grows with the block count); on a 400 x 1000 SEIR
#: grid, sharpness chunks of 2**12 to 2**14 elements ran about 1.7 times
#: faster than chunks of 2**17
MAX_SWEEP_ELEMENTS = 2 ** 14

#: a sweep pool is compacted (its stopped elements written out, the rest
#: gathered into smaller arrays, and queued ones let in) once at most this
#: fraction of its elements still evolves; 0 compacts only an empty pool
COMPACT_AT = 0.5


def sweep_bytes(n_elements: int, m: int) -> int:
    """Peak bytes of a preservation sweep beside its blocks: per element
    its outcome entries (26 + 8 m bytes) and its transformed step; every
    other per-element input is made a block at a time.  Rounded up from
    tracemalloc peaks of logistic and SEIR sweeps with every check (about
    48 bytes per element for m = 1 and 68 for m = 4 on Python 3.11 with
    numpy 2.4)."""
    return n_elements * (48 + 8 * m)


def sharpness_bytes(n_rows: int, n_dt: int) -> int:
    """Peak bytes of a sharpness bisection beside its pool's arrays for
    ``MAX_SWEEP_ELEMENTS // m`` elements: per row its initial state,
    label, checks, brackets, queued tests and output row, and per step
    size the pool's arrays for one group, which the pool holds whole even
    where one group is more than that.  Rounded up from tracemalloc peaks
    of logistic and SEIR bisections (about 300 bytes per row, and per step
    size 350 for logistic and 1070 for SEIR with ``sspms64``, on Python
    3.11 with numpy 2.4)."""
    return 1024 * n_rows + 1280 * n_dt


def _midpoint(lo, hi):
    """The midpoint of [lo, hi], finite up to the largest float: halving is
    exact for normal floats, so wherever ``0.5 * (lo + hi)`` is finite this
    is its value bit for bit.  Elementwise over arrays."""
    return 0.5 * lo + 0.5 * hi


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
        mid = _midpoint(lo, hi)
        if predicate(mid):
            lo = mid
        else:
            hi = mid
        iters += 1
    return _midpoint(lo, hi), "ok"


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

    All rows bisect in lockstep through one sweep pool (``_SweepPool``).
    Each tested threshold is one group of elements, one per step size,
    with its own row's checks: it fails at its first failing element,
    which stops the others, and holds once every element has passed its
    horizon or settled.  A round tests two bisection levels: every
    bisecting row's midpoint together with the midpoint the next level
    needs on each side whose half is still wider than ``tol`` (and only
    while ``max_iter`` allows another level); the midpoint's verdict then
    picks the side that counts.  The first round joins the pool at step 0
    together with every row's range ends, and each later round as soon as
    every group of the round before is decided, so no round waits for the
    range ends, whose steps are the longest: on the benchmark's bisection
    (10 rows, 100 step sizes) the pool makes about 690 lockstep steps where
    sweeps of the range ends first took about 890.  A row stops bisecting
    once its lower end has failed or its upper end has held, and the pool
    runs until every range end that counts is decided; a row may so bisect
    a few levels it did not need, which shows in no output.  Every row sees
    the midpoints ``bisect_threshold`` would give it alone, so the rows
    equal a row-by-row bisection exactly.  The pool holds at most
    ``MAX_SWEEP_ELEMENTS // m`` elements (m the state dimension), and at
    least one group; tested thresholds beyond that wait in its queue and
    join as room is made.

    ``y0_states`` holds one initial state per row, of shape (n, m) with m
    the problem's state dimension, and ``labels`` (None: each state's
    first component) one value per row.  A row checks ``prop`` as its
    initial state's property set states it (see
    ``qualprops.sweep_checks``).  ``startup`` None is
    ``integrate.default_startup``.  ``interval_scale`` is the search
    interval in units of the row's sufficient threshold, 0 < lower < upper,
    both finite.  A bisection of more than ``MAX_WORK`` rhs evaluations,
    counted as its groups' at every one of the 2 + ``max_iter`` levels it
    may make, is refused before any step.
    """
    if prop not in (BOUNDEDNESS, WEAK_MONOTONICITY):
        raise ValueError(f"unknown property {prop!r}")
    if not (math.isfinite(t_end) and t_end > 0):
        raise ConfigurationError(
            f"t_end must be positive and finite (got {t_end!r})")
    if not tol >= 0:
        raise ConfigurationError(f"tol must be nonnegative (got {tol!r})")
    scale_lo, scale_hi = (float(v) for v in interval_scale)
    if not (0 < scale_lo < scale_hi and math.isfinite(scale_hi)):
        raise ConfigurationError(
            "interval_scale must hold a lower and an upper factor with "
            f"0 < lower < upper, both finite (got {interval_scale!r})")
    y0_states = _batch_states("y0_states", y0_states, problem)
    n_rows = y0_states.shape[0]
    labels = (y0_states[:, 0] if labels is None
              else np.asarray(labels, dtype=float))
    if labels.shape != (n_rows,):
        raise ConfigurationError(
            f"labels has shape {labels.shape}, {n_rows} initial states need "
            f"({n_rows},)")
    dt_grid = np.asarray(dt_grid, dtype=float)
    n_dt = dt_grid.size
    if n_dt == 0:
        raise ValueError("dt_grid is empty")
    if not (np.isfinite(dt_grid).all() and (dt_grid > 0).all()):
        raise ConfigurationError("dt_grid must hold positive finite steps")
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

    label_values = labels.tolist()
    sufficient = ssp_threshold(method, fe_property_bound(problem, y0_states))
    if problem.property_set is None:
        raise ConfigurationError(
            f"no sharpness property set for {problem.name}")
    per_row = _row_checks(problem, y0_states, prop, weak_component)
    if prop == BOUNDEDNESS:
        per_row = _bound_inputs(per_row["lower"], per_row["upper"])
    else:
        per_row = {"direction": per_row["weak_direction"]}
    if startup is None:
        startup = default_startup(problem, method)
    pool = _SweepPool(problem, method, startup, weak_component=weak_component)
    # per tested threshold (group id): whether it is decided, and held; the
    # range ends are the first groups, each row's lower end and then its
    # upper end
    decided = held = np.zeros(0, dtype=bool)
    low_end, top_end = slice(0, n_rows), slice(n_rows, 2 * n_rows)

    def admit(rows: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
        """Queue, in one admission, one group per tested threshold,
        thresholds[k] for row rows[k]: one element per step size, with the
        row's checks, and its first failing element decides it.  The
        groups' ids."""
        nonlocal decided, held
        if phi_kind is not PhiKind.IDENTITY and not (
                np.isfinite(thresholds).all() and (thresholds > 0).all()):
            raise ConfigurationError("bounds must be positive and finite")
        first = decided.size
        decided = np.concatenate([decided, np.zeros(rows.size, dtype=bool)])
        held = np.concatenate([held, np.zeros(rows.size, dtype=bool)])

        def take(a: int, b: int) -> dict:
            g = slice(a // n_dt, b // n_dt)
            k = g.stop - g.start
            dts = np.tile(dt_grid, k)
            return {"phis": np.asarray(phi_value(
                        phi_kind, np.repeat(thresholds[g], n_dt), dts)),
                    "dts": dts,
                    "y0s": np.repeat(y0_states[rows[g]], n_dt, axis=0),
                    "n_steps": np.tile(n_steps, k),
                    "direction": np.zeros(b - a, dtype=int),
                    "group": np.repeat(np.arange(first + g.start,
                                                 first + g.stop), n_dt),
                    **{key: np.repeat(v[rows[g]], n_dt)
                       for key, v in per_row.items()}}

        pool.admit(rows.size * n_dt, n_dt, take)
        return np.arange(first, first + rows.size)

    def next_round(rows: np.ndarray):
        """Admit the next two bisection levels of the ``rows`` whose bracket
        is still wider than tol and that have a level left: each row's
        midpoint and the midpoint its next level needs on either side whose
        half is still wider than tol; the midpoint's verdict picks which
        counts.  The round as ``(rows, points, ids)``, ``points`` and
        ``ids`` of shape (3, k) holding the midpoint, left and right (id -1:
        not tested); None when no row is in it."""
        rows = rows[(hi[rows] - lo[rows] > tol) & (levels[rows] < max_iter)]
        if not rows.size:
            return None
        a_lo, a_hi = lo[rows], hi[rows]
        mid = _midpoint(a_lo, a_hi)
        more = levels[rows] + 1 < max_iter
        points = np.stack([mid, _midpoint(a_lo, mid), _midpoint(mid, a_hi)])
        tested = np.stack([np.ones_like(more), more & (mid - a_lo > tol),
                           more & (a_hi - mid > tol)])
        ids = np.full(points.shape, -1)
        # midpoints first, then lefts, then rights
        ids[tested] = admit(np.broadcast_to(rows, points.shape)[tested],
                            points[tested])
        return rows, points, ids

    def on_decided(groups: np.ndarray, verdicts: np.ndarray) -> bool:
        """Take the verdicts of newly decided groups.  Once every group of
        the current round whose row still bisects is decided, narrow those
        rows' brackets and admit the next round.  True once no round is
        left and the range ends of every row are decided."""
        nonlocal current, awaited
        decided[groups] = True
        held[groups] = verdicts
        if (groups < 2 * n_rows).any():
            # a row bisects until its lower end fails or its upper end holds
            stopped[:] = ((decided[low_end] & ~held[low_end])
                          | (decided[top_end] & held[top_end]))
            awaited = None
        going = np.zeros(0, dtype=int)
        if current is not None:
            rows, points, ids = current
            on = ~stopped[rows]
            if awaited is None:
                awaited = ids[:, on]
                awaited = awaited[awaited >= 0]
            if not decided[awaited].all():
                return False
            # one bisection step at the midpoint, then one at the side its
            # verdict picks: a point that holds becomes its row's lower
            # end, one that fails its upper end
            col = np.arange(rows.size)
            for k in (0, np.where(held[ids[0]], 2, 1)):
                g, p = ids[k, col], points[k, col]
                ok, use = held[g], on & (g >= 0)
                lo[rows[use & ok]] = p[use & ok]
                hi[rows[use & ~ok]] = p[use & ~ok]
            going = rows[on]
            levels[going] += 2
        current, awaited = next_round(going), None
        return current is None and bool(
            (decided[low_end] & (decided[top_end] | ~held[low_end])).all())

    # the same steps as bisect_threshold, for every row at once
    lo = scale_lo * sufficient
    # finite where the sufficient threshold is unconditional
    hi = capped_product(scale_hi, sufficient)
    top = hi.copy()
    levels = np.zeros(n_rows, dtype=int)
    # the round under test, the groups it waits for, and the rows that
    # stopped bisecting
    current = awaited = None
    stopped = np.zeros(n_rows, dtype=bool)
    if n_rows:
        # the range ends and the first round join the pool together, in one
        # rebuild; no later round waits for the range ends' verdicts
        all_rows = np.arange(n_rows)
        admit(np.tile(all_rows, 2), np.concatenate([lo, top]))
        current = next_round(all_rows)
        pool.run(on_decided)
    below, at_top = ~held[low_end], held[top_end]
    values = np.where(below, np.nan,
                      np.where(at_top, top, _midpoint(lo, hi)))
    statuses = np.where(below, "below-range",
                        np.where(at_top, "at-range-top", "ok")).tolist()

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
        # the pool's lockstep steps, admissions, compactions and events
        "pool": dict(pool.counts),
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
