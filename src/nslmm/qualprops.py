"""Monitors for the preserved qualitative properties of computed trajectories.

Every check scans a full trajectory, reports whether the property held, the
first violation if any, and the worst margin encountered.  Margins are
signed so that ``holds`` is equivalent to ``worst_margin >= -tol``: for an
upper bound the margin is bound minus value, for a lower bound value minus
bound, for windowed monotonicity the distance to the window extremum, and
for a linear invariant the negated absolute drift from its target line.

Round-off at a pinned boundary is not a violation: bound and windowed checks
use a relative tolerance of 1e-12, and invariant drift is allowed to grow
linearly with the step count.  A non-finite (NaN or infinite) checked value
always is: the first one can be the first violation, and its margin is -inf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .integrate import Trajectory
from .problems import PropertyKind, QualitativeProperty

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


def _tol(ref: float) -> float:
    return VIOLATION_RTOL * max(1.0, abs(ref))


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
    if component is not None:
        if not 0 <= component < m:
            raise ValueError(f"component {component} out of range 0..{m - 1}")
        cols = states[:, [component]]
        col_ids = [component]
    else:
        cols = states
        col_ids = list(range(m))

    # fmin keeps the -inf of a non-finite value where a NaN difference
    # would otherwise win
    viol = ~np.isfinite(cols)
    margin = np.where(viol, -np.inf, np.inf)
    if upper is not None:
        mu = upper - cols
        margin = np.fmin(margin, mu)
        viol |= mu < -_tol(upper)
    if lower is not None:
        ml = cols - lower
        margin = np.fmin(margin, ml)
        viol |= ml < -_tol(lower)

    first = None
    if viol.any():
        step, col = np.unravel_index(int(np.argmax(viol)), viol.shape)
        k = col_ids[col]
        value = float(cols[step, col])
        which = (upper if lower is None or (upper is not None and value > upper)
                 else lower)
        first = Violation(step=int(traj.first_index + step), component=k,
                          value=value, bound=float(which))
    descriptor = {
        "kind": "bounds",
        "component": component,
        "upper": upper,
        "lower": lower,
    }
    return PropertyReport(descriptor=descriptor, holds=first is None,
                          first_violation=first,
                          worst_margin=float(margin.min()))


def check_weak_monotonicity(traj: Trajectory, component: int, window: int,
                            direction: str) -> PropertyReport:
    """Windowed monotonicity: each iterate past the first ``window`` entries
    must not drop below the minimum (direction "increase") or rise above the
    maximum (direction "decrease") of the preceding ``window`` iterates."""
    if direction not in ("increase", "decrease"):
        raise ValueError("direction must be 'increase' or 'decrease'")
    states = _require_states(traj)
    if window < 1:
        raise ValueError("window must be >= 1")
    if states.shape[0] <= window:
        raise ValueError("window is longer than the trajectory")
    series = states[:, component]
    windows = np.lib.stride_tricks.sliding_window_view(series[:-1], window)
    tols = VIOLATION_RTOL * np.maximum(1.0, np.abs(series[window:]))
    with np.errstate(invalid="ignore"):  # inf - inf: handled below
        if direction == "increase":
            ref = windows.min(axis=1)
            margin = series[window:] - ref
        else:
            ref = windows.max(axis=1)
            margin = ref - series[window:]
    # by iterate index; a non-finite iterate violates even inside the first
    # window, where it has no window extremum to report
    finite = np.isfinite(series)
    viol = ~finite
    viol[window:] |= margin < -tols
    first = None
    if viol.any():
        i = int(np.argmax(viol))
        first = Violation(step=int(traj.first_index + i),
                          component=component, value=float(series[i]),
                          bound=float(ref[i - window]) if i >= window
                          else float("nan"))
    descriptor = {
        "kind": f"weakmon-{direction}",
        "component": component,
        "window": window,
    }
    worst = float(margin.min()) if finite.all() else -np.inf
    return PropertyReport(descriptor=descriptor, holds=first is None,
                          first_violation=first, worst_margin=worst)


def check_classical_monotonicity(traj: Trajectory, component: int,
                                 direction: str) -> PropertyReport:
    """Step-by-step monotonicity; stricter than the windowed property and
    not guaranteed by the preservation theory (diagnostic only)."""
    return check_weak_monotonicity(traj, component, window=1,
                                   direction=direction)


def _weighted_sum(x: np.ndarray, weights: np.ndarray, out: np.ndarray,
                  tmp: np.ndarray) -> np.ndarray:
    """``x[:, 0]*w_0 + x[:, 1]*w_1 + ...`` for a (b, m) batch, left to right,
    into ``out``: the linear invariant of a sweep's states and of a
    recorded trajectory alike.  Elementwise, so each row's value is the
    same in a batch of any size; numpy's matrix product rounds differently
    with the row count."""
    np.multiply(x[:, 0], weights[0], out=out)
    for k in range(1, len(weights)):
        np.multiply(x[:, k], weights[k], out=tmp)
        out += tmp
    return out


def check_linear_invariant(traj: Trajectory, weights: Sequence[float],
                           drift: float, m0: float) -> PropertyReport:
    """Compare the weighted component sum against m0 + drift (t - t0)."""
    states = _require_states(traj)
    gamma = np.asarray(weights, dtype=float)
    if gamma.shape != (states.shape[1],):
        raise ValueError(
            f"weights have shape {gamma.shape}, expected ({states.shape[1]},)")
    target = m0 + drift * (traj.times - traj.t0)
    # a non-finite state shows as an infinite deviation, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        values = _weighted_sum(states, gamma, np.empty(len(states)),
                               np.empty(len(states)))
        dev = values - target
    n_steps = max(1, traj.first_index + states.shape[0] - 1)
    tol = VIOLATION_RTOL * n_steps
    abs_dev = np.where(np.isnan(dev), np.inf, np.abs(dev))
    first = None
    if (abs_dev > tol).any():
        i = int(np.argmax(abs_dev > tol))
        first = Violation(step=int(traj.first_index + i), component=None,
                          value=float(values[i]), bound=float(target[i]))
    descriptor = {
        "kind": "linear-invariant",
        "weights": [float(g) for g in gamma],
        "drift": drift,
        "level": m0,
    }
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
