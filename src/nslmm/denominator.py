"""Step-size transforms bounded by a property-preservation threshold.

Each transform maps a raw step size x >= 0 to an effective step phi(x) with
phi(0) = 0, 0 < phi(x) <= bound for x > 0, and phi(x) = x + O(x^(q+1)) near
zero.  Here q is the transform's *enabled order*: a method of design order
p <= q keeps its order when x is replaced by phi(x), while every effective
Euler substep stays below the preservation threshold for arbitrarily large x.

The catalog, by enabled order:

    q = 1:  phi1 = B(1 - exp(-x/B)),  phi2 = x exp(-x/(Be)),  phi3 = Bx/(B+x)
    q = 2:  phi4 = (2B/pi) atan(pi x / 2B),  phi5 = B tanh(x/B),
            phi6 = Bx/sqrt(B^2+x^2)
    q = 3:  phi7 = Bx/(B^3+x^3)^(1/3)
    q = 4:  phi8 = Bx/(B^4+x^4)^(1/4)
    q = p:  general family Bx/(B^p+x^p)^(1/p) for p >= 5

``identity`` (phi(x) = x) is included so that standard methods run through
the exact same stepping code path as the transformed ones.

Each kind has one entry in ``_TRANSFORMS``: its enabled order and one
formula written against a numeric namespace.  ``phi_value`` evaluates it
with numpy; ``verify_phi_conditions`` evaluates the same formula with
mpmath (through ``_MP``, which names mpmath's functions as numpy does) for
the residual phi(x) - x, which cancels completely in double precision.

The threshold of a method's transform is C * B_FE, C the method's effective
SSP coefficient and B_FE the problem's Euler property bound, capped at the
largest float; ``ssp_threshold`` is the one place that forms it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace

import numpy as np
from mpmath import mp

from .errors import ConfigurationError, UnsupportedError
from .methods import Method, effective_ssp_coefficient

_FLOAT_MAX = float(np.finfo(float).max)


class PhiKind(Enum):
    PHI1 = "phi1"
    PHI2 = "phi2"
    PHI3 = "phi3"
    PHI4 = "phi4"
    PHI5 = "phi5"
    PHI6 = "phi6"
    PHI7 = "phi7"
    PHI8 = "phi8"
    GENERAL_P = "phi-general"
    IDENTITY = "identity"


#: the eight cataloged kinds, in order
CATALOG_KINDS = (
    PhiKind.PHI1, PhiKind.PHI2, PhiKind.PHI3, PhiKind.PHI4,
    PhiKind.PHI5, PhiKind.PHI6, PhiKind.PHI7, PhiKind.PHI8,
)


# The formulas take (ns, x, B, p), ns a numeric namespace.  The power forms
# are scaled, x * (1 + (x/B)^q)^(-1/q), so that very large bounds (the
# unconditional sentinel) degrade gracefully to phi(x) = x instead of
# overflowing.

def _phi4(ns, x, B, p):
    s = (x * (ns.pi / 2.0)) / B
    return x * ns.arctan(s) / ns.where(s == 0.0, 1.0, s)


def _phi6(ns, x, B, p):
    r = x / B
    return x / ns.sqrt(1.0 + r * r)


def _phi7(ns, x, B, p):
    r = x / B
    return x / ns.cbrt(1.0 + r * r * r)


def _phi8(ns, x, B, p):
    r2 = (x / B) ** 2
    return x / (1.0 + r2 * r2) ** 0.25


#: kind -> (enabled order, formula); the general family's order is its p
_TRANSFORMS = {
    PhiKind.PHI1: (1, lambda ns, x, B, p: B * (-ns.expm1(-x / B))),
    PhiKind.PHI2: (1, lambda ns, x, B, p: x * ns.exp(-(x / B) / ns.e)),
    PhiKind.PHI3: (1, lambda ns, x, B, p: x / (1.0 + x / B)),
    PhiKind.PHI4: (2, _phi4),
    PhiKind.PHI5: (2, lambda ns, x, B, p: B * ns.tanh(x / B)),
    PhiKind.PHI6: (2, _phi6),
    PhiKind.PHI7: (3, _phi7),
    PhiKind.PHI8: (4, _phi8),
    PhiKind.GENERAL_P: (
        None, lambda ns, x, B, p: x / (1.0 + (x / B) ** p) ** (1.0 / p)),
    PhiKind.IDENTITY: (math.inf, lambda ns, x, B, p: x),
}

#: the numpy names the formulas use, in mpmath, for one mpf at a time
_MP = SimpleNamespace(e=mp.e, pi=mp.pi, exp=mp.exp, expm1=mp.expm1,
                      tanh=mp.tanh, sqrt=mp.sqrt, cbrt=mp.cbrt, arctan=mp.atan,
                      where=lambda cond, a, b: a if cond else b)


@dataclass(frozen=True)
class DenominatorSpec:
    """A concrete transform: kind, threshold ``bound`` and, for the general
    family, the power ``p``."""

    kind: PhiKind
    bound: float | None = None
    p: int | None = None

    def __post_init__(self):
        if self.kind is PhiKind.IDENTITY:
            return
        if self.bound is None or not self.bound > 0 or not math.isfinite(self.bound):
            raise ValueError(f"{self.kind.value} requires a positive finite bound")
        if self.kind is PhiKind.GENERAL_P:
            if self.p is None or self.p < 5:
                raise ValueError("general family requires integer p >= 5")
        elif self.p is not None:
            raise ValueError("p is only meaningful for the general family")

    @property
    def enabled_order(self) -> float:
        """Largest method order the transform leaves intact (inf for identity)."""
        order, _formula = _TRANSFORMS[self.kind]
        return self.p if order is None else order

    def label(self) -> str:
        if self.kind is PhiKind.GENERAL_P:
            return f"phi-general:{self.p}"
        return self.kind.value


def phi_value(kind: PhiKind, bound, x, p: int | None = None):
    """Evaluate a transform elementwise; broadcasts over ``bound`` and ``x``."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("step size must be nonnegative")
    if kind is not PhiKind.IDENTITY:
        bound = np.asarray(bound, dtype=float)
        if np.any(bound <= 0):
            raise ValueError("bound must be positive")
    if kind is PhiKind.GENERAL_P and p is None:
        raise ValueError("general family requires p")
    _order, formula = _TRANSFORMS[kind]
    out = formula(np, x, bound, p)
    return out if out.shape else float(out)


def eval_phi(spec: DenominatorSpec, x):
    """Evaluate ``spec`` at ``x`` (scalar or array, nonnegative)."""
    return phi_value(spec.kind, spec.bound, x, spec.p)


def phi_bound(spec: DenominatorSpec) -> float:
    """The global threshold sup phi; the identity transform has none."""
    if spec.kind is PhiKind.IDENTITY:
        raise UnsupportedError("identity transform is unbounded")
    return spec.bound


def capped_product(a, b):
    """a * b elementwise, an overflow capped at the largest float: a float
    for floats, an array for an array."""
    with np.errstate(over="ignore"):
        out = np.minimum(np.multiply(a, b), _FLOAT_MAX)
    return out if out.shape else float(out)


def ssp_threshold(method: Method, b_fe):
    """The transform threshold C * b_fe of ``method``, C its effective SSP
    coefficient, so that every Euler substep stays within b_fe; elementwise
    over an array ``b_fe``.  An unconditional Euler bound (the largest
    float) times C > 1 gives the largest float, not inf."""
    return capped_product(effective_ssp_coefficient(method), b_fe)


def make_phi_for_method(method: Method, b_fe: float, kind: PhiKind,
                        p: int | None = None) -> DenominatorSpec:
    """Build the transform matched to a method and an Euler property bound,
    with the threshold ``ssp_threshold(method, b_fe)``."""
    if kind is PhiKind.IDENTITY:
        return DenominatorSpec(PhiKind.IDENTITY)
    if not b_fe > 0:
        raise ValueError("b_fe must be positive")
    return DenominatorSpec(kind, bound=ssp_threshold(method, b_fe), p=p)


# ---------------------------------------------------------------------------
# numerical certification of the order and boundedness conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplingPlan:
    """Grid for certification: x = bound * 2^-k for k_min..k_max plus a
    log-spaced sweep up to ``span`` * bound for the threshold checks."""

    k_min: int = 4
    k_max: int = 18
    span: float = 100.0
    span_points: int = 128

    def _check_smallest_point(self, bound: float) -> None:
        """bound * 2^-k_max, the smallest x of both grids, must be a normal
        float: below it the grids underflow to subnormals and zeros."""
        try:
            x = math.ldexp(bound, -self.k_max)
        except OverflowError:  # a k_max far below zero
            x = math.inf
        if not x >= np.finfo(float).tiny:
            raise ConfigurationError(
                f"k_max={self.k_max} with bound {bound!r} puts the smallest "
                f"sample {x!r} below the smallest normal float")

    def _check_largest_point(self, bound: float) -> None:
        """bound * 2^-k_min, the largest x of the dyadic grid, must be
        finite: a grid of points above every float certifies nothing."""
        try:
            x = bound * 2.0 ** -self.k_min
        except OverflowError:  # a k_min far below zero
            x = math.inf
        if not math.isfinite(x):
            raise ConfigurationError(
                f"k_min={self.k_min} with bound {bound!r} makes the largest "
                "sample bound * 2**-k_min overflow")

    def dyadic_points(self, bound: float) -> np.ndarray:
        if self.k_max < self.k_min:
            raise ValueError("empty dyadic grid")
        self._check_smallest_point(bound)
        self._check_largest_point(bound)
        ks = np.arange(self.k_min, self.k_max + 1)
        return bound * 2.0 ** (-ks.astype(float))

    def span_grid(self, bound: float) -> np.ndarray:
        if self.span_points < 1:
            raise ValueError("empty span grid")
        self._check_smallest_point(bound)
        return np.geomspace(bound * 2.0 ** (-self.k_max),
                            self.span * bound, self.span_points)


@dataclass(frozen=True)
class CertificationReport:
    spec_label: str
    order_tested: int
    slope: float | None
    slope_ok: bool
    bound_ok: bool
    positive_ok: bool
    max_phi: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "phi": self.spec_label,
            "order_tested": self.order_tested,
            "slope": self.slope,
            "slope_ok": self.slope_ok,
            "bound_ok": self.bound_ok,
            "positive_ok": self.positive_ok,
            "max_phi": self.max_phi,
            "passed": self.passed,
        }


#: slope must reach p + 1 minus this margin for the order condition to pass
SLOPE_MARGIN = 0.1

#: relative slack allowed on the threshold check
BOUND_SLACK = 1e-12

#: most digits the residual phi(x) - x may be formed with (a few seconds
#: of mpmath work for the dyadic grid)
MAX_DIGITS = 10_000


def verify_phi_conditions(spec: DenominatorSpec, p: int,
                          plan: SamplingPlan | None = None) -> CertificationReport:
    """Certify empirically that ``spec`` enables order ``p``.

    Three checks: (i) the log-log slope of |phi(x) - x| against x on the
    dyadic grid reaches p + 1 (within ``SLOPE_MARGIN``); (ii) phi stays below
    its threshold on the span grid; (iii) phi is strictly positive there.
    The identity transform passes the slope check by convention (its residual
    is identically zero) and has no threshold to violate.
    """
    if p < 1:
        raise ValueError("order p must be >= 1")
    plan = plan or SamplingPlan()

    if spec.kind is PhiKind.IDENTITY:
        grid = plan.dyadic_points(1.0)
        vals = np.asarray(eval_phi(spec, grid))
        return CertificationReport(
            spec_label=spec.label(), order_tested=p, slope=None,
            slope_ok=True, bound_ok=True,
            positive_ok=bool(np.all(vals > 0)),
            max_phi=float(vals.max()),
            passed=bool(np.all(vals > 0)),
        )

    xs = plan.dyadic_points(spec.bound)
    if xs.size < 2:
        raise ValueError("need at least two dyadic points for the slope fit")
    # the residual phi(x) - x cancels completely in double precision on the
    # fine end of the grid, so mpmath forms it, with 60 digits beyond the
    # (q + 1) k_max log10(2) its smallest point x = B 2^-k_max needs for a
    # transform of enabled order q
    digits = max(60, 60 + math.ceil(
        (spec.enabled_order + 1) * plan.k_max * math.log10(2)))
    if digits > MAX_DIGITS:
        raise ConfigurationError(
            f"the residual of {spec.label()} down to k_max={plan.k_max} "
            f"needs {digits} digits, over the limit of {MAX_DIGITS}; "
            "use a smaller k_max")
    _order, formula = _TRANSFORMS[spec.kind]
    with mp.workdps(digits):
        B = mp.mpf(repr(float(spec.bound)))
        power = None if spec.p is None else mp.mpf(spec.p)
        lx, ly = [], []
        for x in xs:
            xm = mp.mpf(repr(float(x)))
            lx.append(float(mp.log(xm)))
            ly.append(float(mp.log(abs(formula(_MP, xm, B, power) - xm))))
    slope = float(np.polyfit(lx, ly, 1)[0])
    slope_ok = slope >= p + 1 - SLOPE_MARGIN

    span = plan.span_grid(spec.bound)
    vals = np.asarray(eval_phi(spec, span))
    bound_ok = bool(vals.max() <= spec.bound * (1.0 + BOUND_SLACK))
    positive_ok = bool(np.all(vals > 0))

    return CertificationReport(
        spec_label=spec.label(), order_tested=p, slope=slope,
        slope_ok=slope_ok, bound_ok=bound_ok, positive_ok=positive_ok,
        max_phi=float(vals.max()),
        passed=bool(slope_ok and bound_ok and positive_ok),
    )


def parse_phi_label(label: str) -> tuple[PhiKind, int | None]:
    """Map a command-line name (phi1..phi8, phi-general:<p>, identity) to a
    kind and optional power."""
    if label == "identity":
        return PhiKind.IDENTITY, None
    if label.startswith("phi-general:"):
        try:
            p = int(label.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad general-family label {label!r}") from None
        return PhiKind.GENERAL_P, p
    for kind in CATALOG_KINDS:
        if kind.value == label:
            return kind, None
    raise ValueError(f"unknown transform {label!r}")
