"""Quantitative studies: convergence tables with observed orders, empirical
bound-sharpness sweeps, large preservation sweeps, and a transform
micro-benchmark.

The sweep machinery is vectorized: a batch of independent runs (one per
combination of initial value, step size and threshold) advances in lockstep
as numpy arrays, with property monitors evaluated on the fly; bounds and
monotonicity directions may differ per element.  Elementwise arithmetic
matches the scalar stepping kernels, so a batch element agrees with the
corresponding single run to round-off, and it does not depend on which
other elements share its batch.

Sharpness bisection uses that independence: every initial value's threshold
bracket advances together, one sweep over (rows still bisecting x step
sizes) per bisection iteration, cut into chunks of at most
``MAX_SWEEP_ELEMENTS`` elements to bound memory.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .denominator import CATALOG_KINDS, DenominatorSpec, PhiKind, phi_value
from .errors import ConfigurationError
from .integrate import (STARTER_FOR_ORDER, ExactStartup, RecordMode,
                        RunConfig as _RunConfig, RungeKuttaStartup, integrate,
                        reference_solution)
from .methods import (Method, MultistepMethod, effective_ssp_coefficient,
                      get_method)
from .problems import (SEIR_CONTACT_RATE, OdeProblem, exact_solution,
                       fe_property_bound, logistic_fe_bounds)

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


def _worker_count(n_jobs: int) -> int:
    raw = os.environ.get("NSLMM_THREADS", "").strip()
    try:
        workers = int(raw) if raw else 1
    except ValueError:
        workers = 1
    return max(1, min(workers, n_jobs))


def convergence_study(problem: OdeProblem, method: Method, phi,
                      dt_list: Sequence[float], t_end: float, y0,
                      reference, norm: ErrorNorm | None = None,
                      b_fe: float | None = None, startup=None,
                      t0: float = 0.0) -> ConvergenceReport:
    """Errors at t_end over a decreasing step-size list, with orders.

    ``phi`` is either a ready ``DenominatorSpec`` or a ``PhiKind``; in the
    latter case the threshold is the method's effective SSP coefficient
    times ``b_fe`` (defaulting to the problem's Euler bound at ``y0``).
    """
    dts = [float(d) for d in dt_list]
    if not dts:
        raise ValueError("dt_list is empty")
    if any(b >= a for a, b in zip(dts, dts[1:])):
        raise ValueError("dt_list must be strictly decreasing")

    y0 = np.asarray(y0, dtype=float)
    if norm is None:
        norm = ErrorNorm.ABS if problem.dimension == 1 else ErrorNorm.MAX_COMPONENT

    if isinstance(phi, PhiKind):
        if phi is PhiKind.IDENTITY:
            spec = DenominatorSpec(PhiKind.IDENTITY)
        else:
            fe = b_fe if b_fe is not None else fe_property_bound(problem, y0)
            spec = DenominatorSpec(
                phi, bound=effective_ssp_coefficient(method) * fe)
    else:
        spec = phi

    if isinstance(reference, ExactReference):
        if problem.exact is None:
            raise ConfigurationError(
                f"{problem.name} has no closed-form solution; "
                "use an RK4 reference")
        ref_final = exact_solution(problem, t_end - t0, y0)
    elif isinstance(reference, RK4Reference):
        ref_final = reference_solution(problem, y0, t_end, reference.dt_ref, t0)
    else:
        raise ConfigurationError(f"unknown reference policy {reference!r}")

    def run_one(dt: float) -> float:
        config = _RunConfig(problem=problem, method=method, phi=spec, dt=dt,
                            t_end=t_end, y0=y0, t0=t0, startup=startup,
                            record=RecordMode.FINAL_STATE_ONLY)
        traj = integrate(config)
        return apply_norm(traj.final_state - ref_final, norm)

    workers = _worker_count(len(dts))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            errors = list(pool.map(run_one, dts))
    else:
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
        "reference": type(reference).__name__,
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


def _batch_fe_bounds(problem: OdeProblem, y0s: np.ndarray) -> np.ndarray:
    if problem.name == "logistic":
        return logistic_fe_bounds(problem.params["c"], y0s[:, 0])
    if problem.name == "seir":
        totals = y0s.sum(axis=1)
        with np.errstate(divide="ignore"):
            inv = np.where(
                totals > 0,
                1.0 / (SEIR_CONTACT_RATE * np.where(totals > 0, totals, 1.0)),
                np.inf)
        return np.minimum(inv, 1.0)
    raise ConfigurationError(f"no vectorized Euler bound for {problem.name}")


def _batch_rk_step(stages, h: np.ndarray, rhs, u: np.ndarray) -> np.ndarray:
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


def _batch_startup(problem: OdeProblem, method: Method, y0s: np.ndarray,
                   dts: np.ndarray, startup) -> np.ndarray:
    """Startup block of shape (s, B, m) for a batched multistep run."""
    s = method.steps if isinstance(method, MultistepMethod) else 1
    B, m = y0s.shape
    block = np.empty((s, B, m))
    block[0] = y0s
    if s == 1:
        return block
    if startup == "auto":
        startup = ExactStartup() if problem.exact is not None else None
        if startup is None:
            rk_id, kind = STARTER_FOR_ORDER[method.design_order]
            startup = RungeKuttaStartup(rk=rk_id, phi_kind=kind)
    if isinstance(startup, ExactStartup):
        for i in range(1, s):
            block[i] = problem.exact(i * dts, y0s)
    elif isinstance(startup, RungeKuttaStartup):
        rk = get_method(startup.rk) if isinstance(startup.rk, str) else startup.rk
        if startup.bound is not None:
            bounds_rk = np.full(B, float(startup.bound))
        else:
            bounds_rk = (effective_ssp_coefficient(rk)
                         * _batch_fe_bounds(problem, y0s))
        h = np.asarray(phi_value(startup.phi_kind, bounds_rk, dts,
                                 startup.p)).reshape(B, 1)
        for i in range(1, s):
            block[i] = _batch_rk_step(rk.float_stages, h, problem.rhs,
                                      block[i - 1])
    else:
        raise ConfigurationError(f"unsupported batch startup {startup!r}")
    return block


def _rows_all(mask: np.ndarray) -> np.ndarray:
    """``mask.all(axis=1)`` for a (B, m) mask, column by column: numpy
    reduces over a short last axis several times slower."""
    out = mask[:, 0].copy()
    for k in range(1, mask.shape[1]):
        out &= mask[:, k]
    return out


def run_preservation_sweep(problem: OdeProblem, method: MultistepMethod,
                           phi_kind: PhiKind, bounds: np.ndarray,
                           dts: np.ndarray, y0s: np.ndarray, n_steps,
                           *, p: int | None = None, startup="auto",
                           lower=None, upper=None,
                           weak_direction: int = 0, weak_component: int = 0,
                           invariant_weights=None,
                           invariant_drift: float = 0.0) -> SweepOutcome:
    """Advance a batch of runs in lockstep and monitor preserved properties.

    Per batch element i: threshold bounds[i], step size dts[i], initial
    state y0s[i], horizon n_steps[i] steps.  ``lower``/``upper`` are bounds
    applied to every component and ``weak_direction`` is +1 (windowed
    increase), -1 (decrease) or 0 (skip); each is either one value for the
    whole batch or an array of shape (B,).  In an array a missing bound is
    -inf/+inf, and an element with both bounds missing has no bound check.
    An in-horizon state with a non-finite component violates every check
    requested for its element.  Elements stop evolving once every check
    requested for them has failed or their horizon is reached.
    """
    y0s = np.asarray(y0s, dtype=float)
    B, m = y0s.shape
    dts = np.asarray(dts, dtype=float)
    bounds = np.broadcast_to(np.asarray(bounds, dtype=float), (B,))
    n_steps = np.broadcast_to(np.asarray(n_steps, dtype=int), (B,))
    s = method.steps
    rhs = problem.rhs

    if phi_kind is PhiKind.IDENTITY:
        phis = dts.copy()
    else:
        phis = np.asarray(phi_value(phi_kind, bounds, dts, p))
    ring = _batch_startup(problem, method, y0s, dts, startup)

    def edge(bound, sign: float) -> np.ndarray:
        # the bound widened by a 1e-12 relative tolerance, per element
        if bound is None:
            return np.full(B, sign * np.inf)
        bound = np.broadcast_to(np.asarray(bound, dtype=float), (B,))
        return bound + sign * 1e-12 * np.maximum(1.0, np.abs(bound))

    check_bounds_on = lower is not None or upper is not None
    if check_bounds_on:
        lo_edge = edge(lower, -1.0)
        hi_edge = edge(upper, +1.0)
        bound_req = ~(np.isneginf(lo_edge) & np.isposinf(hi_edge))
        # finite edges make one pair of comparisons also fail NaN and
        # infinite states; full (B, m) arrays compare several times faster
        # than a broadcast (B, 1) column
        big = np.finfo(float).max
        lo_edge = np.repeat(np.fmax(lo_edge, -big)[:, None], m, axis=1)
        hi_edge = np.repeat(np.fmin(hi_edge, big)[:, None], m, axis=1)
    else:
        bound_req = np.zeros(B, dtype=bool)
    direction = np.broadcast_to(np.asarray(weak_direction, dtype=int), (B,))
    weak_req = direction != 0
    weak_inc = direction > 0
    weak_dec = direction < 0
    check_weak = bool(weak_req.any())
    check_inv = invariant_weights is not None
    # an element finishes once every check requested for it has failed; one
    # with nothing to check runs to its horizon
    bound_free = ~bound_req
    weak_free = ~weak_req
    checked = bound_req | weak_req

    bound_viol = np.zeros(B, dtype=bool)
    weak_viol = np.zeros(B, dtype=bool)
    first_bound = np.full(B, -1, dtype=np.int64)
    first_weak = np.full(B, -1, dtype=np.int64)
    inv_dev = np.zeros(B)
    if check_inv:
        gamma = np.asarray(invariant_weights, dtype=float)
        level = ring[0] @ gamma

    def record(state: np.ndarray, step_idx: int, in_horizon: np.ndarray):
        nonlocal inv_dev
        if check_bounds_on:
            v = ~_rows_all((state >= lo_edge) & (state <= hi_edge))
            v &= in_horizon & bound_req
            newly = v & ~bound_viol
            first_bound[newly] = step_idx
            bound_viol[:] |= v
        if check_inv:
            target = level + invariant_drift * (step_idx * dts)
            dev = np.abs(state @ gamma - target)
            inv_dev = np.maximum(inv_dev, np.where(in_horizon, dev, 0.0))

    full_horizon = np.ones(B, dtype=bool)
    for i in range(s):
        record(ring[i], i, (i <= n_steps) & full_horizon)

    terms = method.terms
    max_steps = int(n_steps.max())
    top = s - 1
    # violated elements may blow up before they freeze; their inf/nan
    # arithmetic is elementwise and never poisons the others
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(s - 1, max_steps):
            step_idx = n + 1
            in_horizon = step_idx <= n_steps
            finished = (bound_viol | bound_free) & (weak_viol | weak_free)
            active = in_horizon & ~(finished & checked)
            if not active.any():
                break

            acc = None
            for j, a, b in terms:
                u = ring[(top - (j - 1)) % s]
                contrib = a * u
                if b != 0.0:
                    contrib = contrib + (phis * b)[:, None] * rhs(u)
                acc = contrib if acc is None else acc + contrib
            current = ring[top]
            new = np.where(active[:, None], acc, current)

            if check_weak:
                window = ring[:, :, weak_component]
                comp = new[:, weak_component]
                tol_w = 1e-12 * np.maximum(1.0, np.abs(comp))
                v = ~_rows_all(np.isfinite(new))
                if weak_inc.any():
                    v |= weak_inc & (comp < window.min(axis=0) - tol_w)
                if weak_dec.any():
                    v |= weak_dec & (comp > window.max(axis=0) + tol_w)
                v &= active & weak_req
                newly = v & ~weak_viol
                first_weak[newly] = step_idx
                weak_viol[:] |= v
            record(new, step_idx, in_horizon)

            top = (top + 1) % s
            ring[top] = new

    return SweepOutcome(bound_violated=bound_viol, weak_violated=weak_viol,
                        invariant_max_dev=inv_dev,
                        first_bound_step=first_bound,
                        first_weak_step=first_weak,
                        final_states=ring[top].copy())


def logistic_preservation_grid(c: float, y0_values: np.ndarray,
                               dt_values: np.ndarray,
                               method: MultistepMethod, phi_kind: PhiKind,
                               n_steps: int = 1000) -> SweepOutcome:
    """Preservation sweep on the logistic problem: the full (y0 x dt) grid
    with thresholds C * min(1/c, 1/y0), checking containment in [0, c] and
    windowed monotone increase.  Intended for y0 in (0, c)."""
    from .problems import logistic_problem
    problem = logistic_problem(c)
    yv, dv = np.meshgrid(np.asarray(y0_values, float),
                         np.asarray(dt_values, float), indexing="ij")
    yv = yv.ravel()
    dv = dv.ravel()
    bounds = effective_ssp_coefficient(method) * logistic_fe_bounds(c, yv)
    return run_preservation_sweep(
        problem, method, phi_kind, bounds, dv, yv[:, None], n_steps,
        startup="auto", lower=0.0, upper=c,
        weak_direction=+1, weak_component=0)


def seir_conservation_sweep(method: MultistepMethod, phi_kind: PhiKind,
                            y0s: np.ndarray, dts: np.ndarray,
                            n_steps: int = 1000,
                            influx: float = 0.0) -> np.ndarray:
    """Max deviation of the component sum from its conserved target over a
    batch of epidemic runs; startup via the matching-order starter."""
    from .problems import seir_problem
    problem = seir_problem(influx)
    B = y0s.shape[0]
    bounds = (effective_ssp_coefficient(method)
              * _batch_fe_bounds(problem, y0s))
    outcome = run_preservation_sweep(
        problem, method, phi_kind, bounds, dts, y0s, n_steps,
        startup="auto", invariant_weights=np.ones(problem.dimension),
        invariant_drift=influx)
    return outcome.invariant_max_dev


# ---------------------------------------------------------------------------
# bound sharpness by bisection
# ---------------------------------------------------------------------------

BOUNDEDNESS = "boundedness"
WEAK_MONOTONICITY = "weak-monotonicity"

#: most elements one sharpness sweep holds.  A six-step SEIR ring of this
#: many elements takes 3 MB; on a 400 x 1000 SEIR grid, chunks of 2**12 to
#: 2**14 elements ran about 1.7 times faster than chunks of 2**17, whose
#: arrays no longer fit the processor caches
MAX_SWEEP_ELEMENTS = 2 ** 14


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


def _sharpness_checks(problem: OdeProblem, y0: np.ndarray,
                      prop: str, weak_component: int) -> dict:
    if problem.name == "logistic":
        c = problem.params["c"]
        y = y0[0]
        if prop == BOUNDEDNESS:
            if y <= c:
                return {"lower": 0.0, "upper": c}
            return {"lower": c}
        direction = +1 if y < c else -1
        return {"weak_direction": direction, "weak_component": 0}
    if problem.name == "seir":
        if prop == BOUNDEDNESS:
            checks = {"lower": 0.0}
            if problem.params["influx"] == 0.0:
                checks["upper"] = float(y0.sum())
            return checks
        return {"weak_direction": -1, "weak_component": weak_component}
    raise ConfigurationError(f"no sharpness property set for {problem.name}")


def _stack_checks(checks: Sequence[dict]) -> dict:
    """Per-row check dicts -> one array per bound or direction any row
    uses, holding -inf/+inf/0 for the rows without it."""
    return {key: np.array([c.get(key, missing) for c in checks])
            for key, missing in (("lower", -np.inf), ("upper", np.inf),
                                 ("weak_direction", 0))
            if any(key in c for c in checks)}


def sharpness_bisection(problem: OdeProblem, method: MultistepMethod,
                        phi_kind: PhiKind, y0_states: np.ndarray,
                        dt_grid: np.ndarray, t_end: float, prop: str,
                        labels: Sequence[float] | None = None,
                        interval_scale: tuple[float, float] = (1e-4, 10.0),
                        tol: float = 1e-4, max_iter: int = 60,
                        weak_component: int = 0,
                        startup="auto") -> SharpnessReport:
    """Per initial value, bisect on the transform threshold for the largest
    value at which ``prop`` holds for every step size in ``dt_grid`` over
    the horizon [0, t_end].

    The predicate must hold at the lower end of the search interval (it does
    at the sufficient threshold by construction); a row where it fails even
    there is marked "below-range", and one where it still holds at the top
    is censored at the top ("at-range-top").

    All rows bisect in lockstep: one sweep tests the lower ends of every
    row, one the upper ends of the rows that pass, and each bisection
    iteration is one sweep over (rows still bisecting x step sizes), each
    element with its own row's threshold and checks.  Every row sees the
    midpoints ``bisect_threshold`` would give it alone, so the rows equal
    a row-by-row bisection exactly.  A sweep holds at most
    ``MAX_SWEEP_ELEMENTS`` elements; larger ones run in chunks of rows.
    """
    if prop not in (BOUNDEDNESS, WEAK_MONOTONICITY):
        raise ValueError(f"unknown property {prop!r}")
    y0_states = np.asarray(y0_states, dtype=float)
    dt_grid = np.asarray(dt_grid, dtype=float)
    n_dt = dt_grid.size
    if n_dt == 0:
        raise ValueError("dt_grid is empty")
    n_steps = np.ceil(t_end / dt_grid - 1e-9).astype(int)
    n_rows = y0_states.shape[0]

    label_values = [float(labels[i]) if labels is not None
                    else float(y0_states[i, 0]) for i in range(n_rows)]
    sufficient = np.array([effective_ssp_coefficient(method)
                           * fe_property_bound(problem, y0)
                           for y0 in y0_states])
    checks = [_sharpness_checks(problem, y0, prop, weak_component)
              for y0 in y0_states]
    per_row = _stack_checks(checks)
    # one problem monitors the same component in every row
    column = checks[0].get("weak_component", 0) if checks else 0
    rows_per_sweep = max(1, MAX_SWEEP_ELEMENTS // n_dt)

    def holds(rows: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
        """Whether ``prop`` holds for row rows[k] at thresholds[k] for every
        step size."""
        out = np.empty(rows.size, dtype=bool)
        for start in range(0, rows.size, rows_per_sweep):
            chunk = rows[start:start + rows_per_sweep]
            k = chunk.size
            outcome = run_preservation_sweep(
                problem, method, phi_kind,
                np.repeat(thresholds[start:start + k], n_dt),
                np.tile(dt_grid, k), np.repeat(y0_states[chunk], n_dt, axis=0),
                np.tile(n_steps, k), startup=startup, weak_component=column,
                **{key: np.repeat(v[chunk], n_dt)
                   for key, v in per_row.items()})
            violated = (outcome.bound_violated if prop == BOUNDEDNESS
                        else outcome.weak_violated)
            out[start:start + k] = ~violated.reshape(k, n_dt).any(axis=1)
        return out

    # the same steps as bisect_threshold, for every row at once
    lo = interval_scale[0] * sufficient
    hi = interval_scale[1] * sufficient
    values = np.full(n_rows, np.nan)
    statuses = ["below-range"] * n_rows
    rows = np.arange(n_rows)
    rows = rows[holds(rows, lo[rows])]
    at_top = holds(rows, hi[rows])
    for i in rows[at_top]:
        values[i], statuses[i] = hi[i], "at-range-top"
    bisecting = rows[~at_top]
    active = bisecting
    for _ in range(max_iter):
        active = active[hi[active] - lo[active] > tol]
        if active.size == 0:
            break
        mid = 0.5 * (lo[active] + hi[active])
        ok = holds(active, mid)
        lo[active[ok]] = mid[ok]
        hi[active[~ok]] = mid[~ok]
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


def phi_benchmark(kinds: Sequence[PhiKind] | None = None,
                  n_evals: int = 10 ** 7, x: float = 0.1, bound: float = 0.1,
                  reps: int = 5, chunk: int = 1 << 20) -> BenchmarkReport:
    """Median wall-clock time to evaluate each transform ``n_evals`` times.

    Evaluation is chunked over preallocated arrays; a running scalar
    accumulator keeps the results observable.  Absolute numbers are
    hardware-bound; only relative ordering is meaningful.
    """
    if n_evals < 10 ** 6:
        raise ValueError("n_evals must be at least 1e6")
    if kinds is None:
        kinds = list(CATALOG_KINDS) + [PhiKind.IDENTITY]
    rows = []
    for kind in kinds:
        xs = np.full(min(chunk, n_evals), float(x))
        times = []
        guard = 0.0
        for _ in range(reps):
            remaining = n_evals
            start = time.perf_counter()
            while remaining > 0:
                block = xs if remaining >= xs.size else xs[:remaining]
                out = phi_value(kind, bound, block,
                                5 if kind is PhiKind.GENERAL_P else None)
                guard += float(np.asarray(out).flat[0])
                remaining -= block.size
            times.append(time.perf_counter() - start)
        label = kind.value if kind is not PhiKind.GENERAL_P else "phi-general:5"
        rows.append(BenchmarkRow(label, n_evals, statistics.median(times)))
    if not np.isfinite(guard):  # pragma: no cover
        raise RuntimeError("benchmark accumulator overflowed")
    return BenchmarkReport(rows=tuple(rows))
