"""Monitors for the preserved qualitative properties of computed trajectories.

Every check scans a full trajectory, reports whether the property held, the
first violation if any, and the worst margin encountered.  Margins are
signed so that ``holds`` is equivalent to ``worst_margin >= -tol``: for an
upper bound the margin is bound minus value, for a lower bound value minus
bound, for windowed monotonicity the distance to the window extremum, and
for a linear invariant the negated absolute drift from its target line
``level + drift * (n * dt)`` (a problem's property set takes the level
from y0, as a sweep does).  The verdicts come from three elementwise
predicates, ``bound_edges``, ``window_violations`` and
``invariant_deviation``, which ``experiments.run_preservation_sweep``
calls too, with the checks ``sweep_checks`` reads from a property set.
A state with a non-finite component violates every check at its step,
whichever component the check concerns: a bound or windowed violation
names the first non-finite component, and the margin is -inf.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .integrate import Trajectory
from .problems import (BOUNDEDNESS, LINEAR_INVARIANCE, WEAK_MONOTONICITY,
                       PropertyKind, QualitativeProperty)

#: relative violation tolerance for bound and windowed-monotonicity checks
VIOLATION_RTOL = 1e-12


@dataclass(frozen=True)
class Violation:
    step: int
    component: int | None
    value: float
    bound: float

    def to_dict(self) -> dict:
        return {"n": self.step, "k": self.component,
                "value": self.value, "bound": self.bound}


@dataclass(frozen=True)
class PropertyReport:
    descriptor: dict
    holds: bool
    first_violation: Violation | None
    worst_margin: float

    def to_dict(self) -> dict:
        return {
            "property": self.descriptor,
            "holds": self.holds,
            "first_violation":
                None if self.first_violation is None
                else self.first_violation.to_dict(),
            "worst_margin": self.worst_margin,
        }


def _require_states(traj: Trajectory) -> np.ndarray:
    states = np.asarray(traj.states, dtype=float)
    if states.size == 0:
        raise ValueError("empty trajectory")
    return states


def bound_edges(lower, upper) -> tuple[np.ndarray, np.ndarray]:
    """The edges a value x keeps iff ``lo <= x <= hi``: ``lower`` and
    ``upper`` (-inf/+inf where missing) widened by ``VIOLATION_RTOL *
    max(1, |b|)`` and clamped to the largest float, which NaN and infinite
    values never keep."""
    lower, upper = np.asarray(lower, float), np.asarray(upper, float)
    lo = lower - VIOLATION_RTOL * np.maximum(1.0, np.abs(lower))
    hi = upper + VIOLATION_RTOL * np.maximum(1.0, np.abs(upper))
    big = np.finfo(float).max
    return np.fmax(lo, -big), np.fmin(hi, big)


def window_extremum(older: Sequence[np.ndarray], increase: bool):
    """The minimum (``increase``) or maximum of the window's ``older``
    values, arrays of the same shape, reduced oldest to newest."""
    return reduce(np.minimum if increase else np.maximum, older)


def window_violations(x: np.ndarray, older: Sequence[np.ndarray],
                      increase) -> np.ndarray:
    """Whether each value of ``x`` breaks windowed monotonicity against
    ``older``, the window's older values oldest first: ``x < min - tol``
    where ``increase`` (one value or one per element) holds, else ``x >
    max + tol``, with ``tol = VIOLATION_RTOL * max(1, |x|)``."""
    increase = np.asarray(increase)
    tol = VIOLATION_RTOL * np.maximum(1.0, np.abs(x))
    up = down = False
    if increase.any():
        up = increase & (x < window_extremum(older, True) - tol)
    if not increase.all():
        down = ~increase & (x > window_extremum(older, False) + tol)
    return up | down


def _weighted_sum(x: np.ndarray, weights: np.ndarray, out: np.ndarray,
                  tmp: np.ndarray) -> np.ndarray:
    """``x[:, 0]*w_0 + x[:, 1]*w_1 + ...`` for a (b, m) batch, left to right,
    into ``out``: elementwise, so each row's value is the same in a batch of
    any size (numpy's matrix product rounds differently with the rows)."""
    np.multiply(x[:, 0], weights[0], out=out)
    for k in range(1, len(weights)):
        np.multiply(x[:, k], weights[k], out=tmp)
        out += tmp
    return out


def invariant_deviation(x: np.ndarray, weights: np.ndarray, level, drift,
                        elapsed, out: np.ndarray, tmp: np.ndarray) -> tuple:
    """``_weighted_sum(x) - (level + drift * elapsed)`` for (b, m) states
    ``x``, with ``elapsed`` = n * dt at step n, into ``out``.  Returns it
    and the target line: ``level`` without drift, else in ``tmp``."""
    _weighted_sum(x, weights, out, tmp)
    if drift == 0:
        return np.subtract(out, level, out=out), level
    np.multiply(drift, elapsed, out=tmp)
    np.add(level, tmp, out=tmp)
    return np.subtract(out, tmp, out=out), tmp


def check_bounds(traj: Trajectory, component: int | None = None,
                 upper: float | None = None,
                 lower: float | None = None) -> PropertyReport:
    """Check u_k in [lower, upper] at every recorded step.

    ``component`` of None checks every component against the same bounds.
    At least one of ``upper``/``lower`` must be given.
    """
    if upper is None and lower is None:
        raise ValueError("need an upper or a lower bound")
    states = _require_states(traj)
    m = states.shape[1]
    if component is not None and not 0 <= component < m:
        raise ValueError(f"component {component} out of range 0..{m - 1}")
    col_ids = list(range(m)) if component is None else [component]
    cols = states[:, col_ids]
    lo, hi = bound_edges(-np.inf if lower is None else lower,
                         np.inf if upper is None else upper)
    kept = (cols >= lo) & (cols <= hi)
    finite = np.isfinite(states).all(axis=1)
    violated = ~(finite & kept.all(axis=1))
    with np.errstate(over="ignore", invalid="ignore"):  # see ``finite``
        margin = np.fmin(np.inf if upper is None else upper - cols,
                         np.inf if lower is None else cols - lower)

    first = None
    if violated.any():
        step = int(np.argmax(violated))
        k = (col_ids[int(np.argmax(~kept[step]))] if finite[step]
             else int(np.argmax(~np.isfinite(states[step]))))
        value = float(states[step, k])
        which = (upper if lower is None or (upper is not None and value > upper)
                 else lower)
        first = Violation(step=traj.first_index + step, component=k,
                          value=value, bound=float(which))
    descriptor = {"kind": "bounds", "component": component, "upper": upper,
                  "lower": lower}
    worst = float(margin.min()) if finite.all() else -np.inf
    return PropertyReport(descriptor=descriptor, holds=first is None,
                          first_violation=first, worst_margin=worst)


def check_weak_monotonicity(traj: Trajectory, component: int, window: int,
                            direction: str) -> PropertyReport:
    """Windowed monotonicity: each iterate past the first ``window`` entries
    must not drop below the minimum (direction "increase") or rise above the
    maximum (direction "decrease") of the preceding ``window`` iterates.
    A ``window`` of 1 is classical step-by-step monotonicity, which the
    preservation theory does not guarantee."""
    if direction not in ("increase", "decrease"):
        raise ValueError("direction must be 'increase' or 'decrease'")
    states = _require_states(traj)
    if window < 1:
        raise ValueError("window must be >= 1")
    n = states.shape[0]
    if n <= window:
        raise ValueError("window is longer than the trajectory")
    series = states[:, component]
    x = series[window:]
    older = [series[j:n - window + j] for j in range(window)]
    increase = direction == "increase"
    extremum = window_extremum(older, increase)
    with np.errstate(invalid="ignore"):  # inf - inf: handled by finite
        broken = window_violations(x, older, increase)
        margin = x - extremum if increase else extremum - x
    # by iterate index; a non-finite state violates even inside the first
    # window, where it has no window extremum to report
    finite = np.isfinite(states).all(axis=1)
    violated = ~finite
    violated[window:] |= broken
    first = None
    if violated.any():
        i = int(np.argmax(violated))
        k = component if finite[i] else int(np.argmax(~np.isfinite(states[i])))
        first = Violation(step=traj.first_index + i, component=k,
                          value=float(states[i, k]),
                          bound=float(extremum[i - window]) if i >= window
                          else float("nan"))
    descriptor = {"kind": f"weakmon-{direction}", "component": component,
                  "window": window}
    worst = float(margin.min()) if finite.all() else -np.inf
    return PropertyReport(descriptor=descriptor, holds=first is None,
                          first_violation=first, worst_margin=worst)


def check_linear_invariant(traj: Trajectory, weights: Sequence[float],
                           drift: float, m0: float) -> PropertyReport:
    """Compare the weighted component sum against m0 + drift (t - t0); the
    drift allowed grows by ``VIOLATION_RTOL`` per step."""
    states = _require_states(traj)
    gamma = np.asarray(weights, dtype=float)
    if gamma.shape != (states.shape[1],):
        raise ValueError(
            f"weights have shape {gamma.shape}, expected ({states.shape[1]},)")
    n = states.shape[0]
    steps = traj.first_index + np.arange(n)
    # a non-finite state shows as an infinite deviation, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        dev, target = invariant_deviation(
            states, gamma, np.full(n, float(m0)), drift, steps * traj.dt,
            np.empty(n), np.empty(n))
        abs_dev = np.abs(dev)
        abs_dev[np.isnan(abs_dev)] = np.inf
        tol = VIOLATION_RTOL * max(1, traj.first_index + n - 1)
        first = None
        if (abs_dev > tol).any():
            i = int(np.argmax(abs_dev > tol))
            value = _weighted_sum(states[i:i + 1], gamma, *np.empty((2, 1)))
            first = Violation(step=traj.first_index + i, component=None,
                              value=float(value[0]), bound=float(target[i]))
    descriptor = {"kind": "linear-invariant",
                  "weights": [float(g) for g in gamma], "drift": drift,
                  "level": m0}
    return PropertyReport(descriptor=descriptor, holds=first is None,
                          first_violation=first,
                          worst_margin=float(-abs_dev.max()))


def check_property(traj: Trajectory, prop: QualitativeProperty,
                   window: int | None = None) -> PropertyReport:
    """Dispatch a property descriptor to the matching monitor."""
    kind = prop.kind
    if kind is PropertyKind.BOUND_ABOVE:
        return check_bounds(traj, prop.component, upper=prop.level)
    if kind is PropertyKind.BOUND_BELOW:
        return check_bounds(traj, prop.component, lower=prop.level)
    if kind in (PropertyKind.WEAK_MONOTONE_INCREASE,
                PropertyKind.WEAK_MONOTONE_DECREASE):
        if window is None:
            raise ValueError("windowed monotonicity needs a window length")
        direction = ("increase" if kind is PropertyKind.WEAK_MONOTONE_INCREASE
                     else "decrease")
        component = prop.component if prop.component is not None else 0
        return check_weak_monotonicity(traj, component, window, direction)
    if kind is PropertyKind.LINEAR_INVARIANT:
        if prop.weights is None:
            raise ValueError("linear invariant needs weights")
        return check_linear_invariant(traj, prop.weights, prop.drift,
                                      prop.level)
    raise ValueError(f"unknown property kind {kind}")


def sweep_checks(props: Sequence[QualitativeProperty], m: int, what: str,
                 weak_component: int = 0) -> dict:
    """The ``run_preservation_sweep`` keywords that check the class ``what``
    of one initial state's property set on states of length ``m``: the
    tightest ``lower`` and ``upper`` (-inf/+inf where none), the
    ``weak_direction`` of the entry on ``weak_component``, or the
    ``invariant_weights`` and ``invariant_drift``.  A class the set does
    not state, or a bound on one component of several (a sweep bounds
    every component alike), is a ``ConfigurationError``."""
    K = PropertyKind
    if what == BOUNDEDNESS:
        bounds = [p for p in props if p.kind in (K.BOUND_BELOW, K.BOUND_ABOVE)]
        alone = [p.component for p in bounds if p.component is not None]
        if alone and m != 1:
            raise ConfigurationError(f"a sweep bounds every component "
                                     f"alike, not component {alone[0]} alone")
        if bounds:
            return {"lower": max((p.level for p in bounds
                                  if p.kind is K.BOUND_BELOW), default=-np.inf),
                    "upper": min((p.level for p in bounds
                                  if p.kind is K.BOUND_ABOVE), default=np.inf)}
    elif what == WEAK_MONOTONICITY:
        trend = {K.WEAK_MONOTONE_INCREASE: +1, K.WEAK_MONOTONE_DECREASE: -1}
        for p in props:
            # component None is component 0, as in ``check_property``
            if p.kind in trend and (p.component or 0) == weak_component:
                return {"weak_direction": trend[p.kind]}
        what += f" on weak_component {weak_component}"
    elif what == LINEAR_INVARIANCE:
        for p in props:
            if p.kind is K.LINEAR_INVARIANT and p.weights is not None:
                return {"invariant_weights": p.weights,
                        "invariant_drift": p.drift}
    else:
        raise ValueError(f"unknown property class {what!r}")
    raise ConfigurationError(f"the property set states no {what}")
