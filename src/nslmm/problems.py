"""Autonomous ODE model problems with known qualitative structure.

Two built-in problems:

* ``logistic`` -- y' = y (c - y).  Closed-form solution, monotone, bounded;
  a single forward-Euler step preserves both properties for
  dt <= min(1/c, 1/y0) when y0 >= 0 and unconditionally when y0 < 0.
* ``seir`` -- a four-compartment epidemic model with hard-coded contact
  rate 5 and unit transition rates, optionally with a constant influx of
  susceptibles.  Euler preserves nonnegativity and (for zero influx) the
  component sum for dt <= min(1/(5 M), 1), M the initial component sum.

Each problem carries its structure, its property set among it, as
closures (see ``OdeProblem``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigurationError, UnsupportedError

#: sentinel for "preserved for every step size" (kept finite so that bound
#: arithmetic stays in ordinary floats)
UNCONDITIONAL_BOUND = float(np.finfo(float).max)

SEIR_CONTACT_RATE = 5.0

#: the property classes a sweep checks; a sharpness sweep bisects on the
#: first two
BOUNDEDNESS = "boundedness"
WEAK_MONOTONICITY = "weak-monotonicity"
LINEAR_INVARIANCE = "linear-invariance"


class PropertyKind(Enum):
    BOUND_ABOVE = "bound-above"
    BOUND_BELOW = "bound-below"
    WEAK_MONOTONE_INCREASE = "weakmon-increase"
    WEAK_MONOTONE_DECREASE = "weakmon-decrease"
    LINEAR_INVARIANT = "linear-invariant"


@dataclass(frozen=True)
class QualitativeProperty:
    """One preserved feature of a solution component or combination.

    ``component`` is the state index the property concerns (None = all
    components).  For linear invariants, ``weights`` holds the combination
    and ``level`` its conserved value at t0; ``drift`` is the linear growth
    rate of the invariant (the influx for the epidemic model).
    """

    kind: PropertyKind
    component: int | None = None
    level: float = 0.0
    weights: tuple[float, ...] | None = None
    drift: float = 0.0


@dataclass(frozen=True)
class OdeProblem:
    """An autonomous system u' = f(u) plus the metadata the toolkit needs.

    ``rhs`` must be vectorized over leading axes (input shape (..., m) ->
    output (..., m)) and deterministic.  A single run steps one state as
    Python floats, and ``rhs`` must take that too: for a one-component
    problem (``dimension == 1``) it maps a float to a float, otherwise a
    list of m floats to a sequence of m floats.  ``exact``, when present,
    maps an elapsed time t (scalar or array) and an initial state to the
    solution state; ``exact(0, y0) == y0``.  ``bound_rule`` maps states of shape
    (..., m) to their Euler property bounds B_FE, elementwise.
    ``bound_proven`` records whether that bound is backed by a proof for the
    given parameters.

    ``property_set`` maps an initial state to the provably preserved
    properties, the one description of them: recorded runs check it
    through ``qualprops.check_property`` and sweeps through
    ``qualprops.sweep_checks``.  ``sharpness_states`` maps an array of
    sharpness-grid labels to initial states of shape (n, m).
    """

    name: str
    dimension: int
    params: Mapping[str, float]
    rhs: Callable
    exact: Callable | None = None
    bound_rule: Callable | None = None
    bound_proven: bool = True
    property_set: Callable | None = None
    sharpness_states: Callable | None = None


def eval_rhs(problem: OdeProblem, u) -> np.ndarray:
    """Evaluate f(u) for a single state vector of length m."""
    u = np.asarray(u, dtype=float)
    if u.shape != (problem.dimension,):
        raise ValueError(
            f"state has shape {u.shape}, expected ({problem.dimension},)")
    return problem.rhs(u)


def exact_solution(problem: OdeProblem, t, y0) -> np.ndarray:
    """Closed-form solution state after elapsed time t >= 0."""
    if problem.exact is None:
        raise UnsupportedError(f"{problem.name} has no closed-form solution")
    y0 = np.asarray(y0, dtype=float)
    return problem.exact(t, y0)


def fe_property_bound(problem: OdeProblem, y0):
    """Largest Euler step provably preserving the problem's properties: a
    float for one state of shape (m,), an array of shape (B,) for a batch
    of shape (B, m).  A state with a non-finite component has none."""
    if problem.bound_rule is None:
        raise UnsupportedError(f"{problem.name} has no Euler property bound")
    y0 = np.asarray(y0, dtype=float)
    if not np.isfinite(y0).all():
        rows = y0.reshape(-1, y0.shape[-1])
        bad = rows[~np.isfinite(rows).all(axis=1)][0]
        raise ConfigurationError(
            f"no Euler property bound at the non-finite state {bad.tolist()}")
    bound = problem.bound_rule(y0)
    return float(bound) if y0.ndim == 1 else bound


def forward_euler_step(problem: OdeProblem, u, dt: float) -> np.ndarray:
    """One explicit Euler step u + dt f(u); the substep oracle."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    u = np.asarray(u, dtype=float)
    if u.shape[-1] != problem.dimension:
        raise ValueError(
            f"state has trailing length {u.shape[-1]}, expected {problem.dimension}")
    return u + dt * problem.rhs(u)


# ---------------------------------------------------------------------------
# logistic growth
# ---------------------------------------------------------------------------

def logistic_problem(c: float) -> OdeProblem:
    if not c > 0:
        raise ValueError("c must be positive")
    c = float(c)

    def rhs(u):
        return u * (c - u)

    def exact(t, y0):
        # stable rearrangement of c e^{ct} y0 / (y0 (e^{ct} - 1) + c):
        # dividing through by e^{ct} avoids overflow for large c*t
        t = np.asarray(t, dtype=float)
        y = np.asarray(y0, dtype=float)[..., 0]
        out = c * y / (y + (c - y) * np.exp(-c * t))
        return np.stack([out + np.zeros_like(t)], axis=-1)

    def bound_rule(y0):
        return logistic_fe_bounds(c, y0[..., 0])

    def property_set(y0):
        y = y0[0]
        if 0 <= y <= c:
            return [QualitativeProperty(PropertyKind.BOUND_BELOW, 0, 0.0),
                    QualitativeProperty(PropertyKind.BOUND_ABOVE, 0, c),
                    QualitativeProperty(
                        PropertyKind.WEAK_MONOTONE_INCREASE, 0)]
        if y > c:
            return [QualitativeProperty(PropertyKind.BOUND_BELOW, 0, c),
                    QualitativeProperty(PropertyKind.BOUND_ABOVE, 0, y),
                    QualitativeProperty(
                        PropertyKind.WEAK_MONOTONE_DECREASE, 0)]
        return [QualitativeProperty(PropertyKind.BOUND_ABOVE, 0, y),
                QualitativeProperty(PropertyKind.WEAK_MONOTONE_DECREASE, 0)]

    def sharpness_states(labels):
        return labels[:, None]

    return OdeProblem(
        name="logistic",
        dimension=1,
        params={"c": c},
        rhs=rhs,
        exact=exact,
        bound_rule=bound_rule,
        property_set=property_set,
        sharpness_states=sharpness_states,
    )


def logistic_fe_bounds(c: float, y0s: np.ndarray) -> np.ndarray:
    """Vectorized Euler bound min(1/c, 1/y0) for batches of initial values."""
    y = np.asarray(y0s, dtype=float)
    with np.errstate(divide="ignore"):
        inv = np.where(y > 0, 1.0 / np.where(y > 0, y, 1.0), np.inf)
    b = np.minimum(1.0 / c, inv)
    return np.where(y < 0, UNCONDITIONAL_BOUND, b)


# ---------------------------------------------------------------------------
# SEIR epidemic model
# ---------------------------------------------------------------------------

def seir_problem(influx: float = 0.0) -> OdeProblem:
    if influx < 0:
        raise ValueError("influx must be nonnegative")
    pi = float(influx)

    def slopes(s, e, i, out):
        # f from a single run's Python floats or a batch's component rows,
        # the same IEEE operations in the same order, so the same bits;
        # each component is written into ``out`` as soon as it is formed
        infection = SEIR_CONTACT_RATE * s * i
        out[0] = pi - infection
        out[1] = infection - e
        out[2] = e - i
        out[3] = i
        return out

    def rhs(u):
        if type(u) is list:
            # one state of a single run, on Python floats
            s, e, i, _ = u
            return slopes(s, e, i, [0.0] * 4)
        # a batch through the transpose gives component rows; the output is
        # written as rows and returned transposed, so a batch's slopes are
        # Fortran-ordered and its rows contiguous
        rows = u.T
        s, e, i, _ = rows
        return slopes(s, e, i, np.empty(rows.shape)).T

    def bound_rule(y0):
        if np.any(y0 < 0):
            raise ValueError("SEIR state components must be nonnegative")
        totals = y0.sum(axis=-1)
        with np.errstate(divide="ignore"):
            inv = np.where(
                totals > 0,
                1.0 / (SEIR_CONTACT_RATE * np.where(totals > 0, totals, 1.0)),
                np.inf)
        return np.minimum(inv, 1.0)

    def property_set(y0):
        # one Euler step within B_FE keeps each entry: every component
        # nonnegative, S_{n+1} = S_n (1 - 5 dt I_n) <= S_n without influx
        # and R_{n+1} = R_n + dt I_n >= R_n, so convex combinations of
        # Euler steps keep their windowed versions
        K, total = PropertyKind, float(y0.sum())
        closed = [QualitativeProperty(K.BOUND_ABOVE, None, total),
                  QualitativeProperty(K.WEAK_MONOTONE_DECREASE, 0)]
        return [QualitativeProperty(K.BOUND_BELOW, None, 0.0),
                *(closed if pi == 0.0 else []),
                QualitativeProperty(K.WEAK_MONOTONE_INCREASE, 3),
                QualitativeProperty(K.LINEAR_INVARIANT, None, total,
                                    weights=(1.0,) * 4, drift=pi)]

    def sharpness_states(labels):
        # labels are initial infected fractions of a population of one
        zeros = np.zeros_like(labels)
        return np.stack([1.0 - labels, zeros, labels, zeros], axis=1)

    return OdeProblem(
        name="seir",
        dimension=4,
        params={"influx": pi},
        rhs=rhs,
        exact=None,
        bound_rule=bound_rule,
        # the Euler bound is proven for zero influx; with influx > 0 the same
        # formula (with M the sum at the supplied state) is reused unproven
        bound_proven=(pi == 0.0),
        property_set=property_set,
        sharpness_states=sharpness_states,
    )


# ---------------------------------------------------------------------------
# registry and property sets
# ---------------------------------------------------------------------------

def make_problem(name: str, params: Mapping[str, float] | None = None) -> OdeProblem:
    params = dict(params or {})
    if name == "logistic":
        prob = logistic_problem(params.pop("c", 2.0))
    elif name == "seir":
        prob = seir_problem(params.pop("influx", params.pop("pi", 0.0)))
    else:
        raise ValueError(f"unknown problem {name!r} (known: logistic, seir)")
    if params:
        raise ValueError(f"unknown {name} parameters: {sorted(params)}")
    return prob


def default_properties(problem: OdeProblem, y0) -> list[QualitativeProperty]:
    """The provably preserved property set for a problem and initial state
    (empty for a problem that states none)."""
    if problem.property_set is None:
        return []
    return problem.property_set(np.asarray(y0, dtype=float))
