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
with numpy; ``verify_phi_conditions`` expands the same formula in mpmath
(through ``_MP``, which names mpmath's functions as numpy does) into the
Taylor coefficients at 0 of the residual phi(x) - x, which cancels
completely in double precision.

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
        # an infinite bound would give nan (phi1) or 0 (phi4), not x
        if not (np.isfinite(bound) & (bound > 0)).all():
            raise ValueError("bound must be positive and finite")
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

#: relative slack allowed on the threshold check
BOUND_SLACK = 1e-12

#: largest enabled order the certificate expands to: the expansion to
#: degree q + 1 grows as q^2 and takes about 1.4 s at q = 50 (0.8 s at
#: q = 40) on a 2-vCPU Xeon with mpmath 1.3
MAX_ORDER = 50

#: digits of the Taylor expansion; coefficients below the square root of
#: its resolution count as zero (the vanishing ones read at most 2e-64,
#: the leading ones are at least 1/q in magnitude)
_DIGITS = 60


def _span_grid(bound: float) -> np.ndarray:
    """128 log-spaced x from bound * 2^-18 to 100 * bound, where the
    threshold and positivity checks run; both ends must be normal floats."""
    low, high = math.ldexp(bound, -18), 100.0 * bound
    if not (low >= np.finfo(float).tiny and math.isfinite(high)):
        raise ConfigurationError(
            f"bound {bound!r} puts the certification grid [{low!r}, "
            f"{high!r}] outside the normal floats")
    return np.geomspace(low, high, 128)


def _residual_taylor(spec: DenominatorSpec, degree: int) -> list[float]:
    """Taylor coefficients at r = 0, up to ``degree``, of the residual in
    units of the threshold, phi(B r)/B - r, from the ``_TRANSFORMS``
    formula in mpmath.  Dividing by B keeps them finite and scale-free for
    any bound: phi(x) - x = sum_k c_k B (x/B)^k."""
    _order, formula = _TRANSFORMS[spec.kind]
    with mp.workdps(_DIGITS):
        B = mp.mpf(spec.bound)
        power = None if spec.p is None else mp.mpf(spec.p)
        coeffs = mp.taylor(lambda r: formula(_MP, B * r, B, power) / B - r,
                           0, degree)
        zero = mp.mpf(10) ** (-_DIGITS // 2)
        return [0.0 if abs(c) <= zero else float(c) for c in coeffs]


@dataclass(frozen=True)
class CertificationReport:
    spec_label: str
    order_tested: int
    order: int | None
    order_ok: bool
    leading_coefficient: float | None
    bound_ok: bool
    positive_ok: bool
    max_phi: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "phi": self.spec_label,
            "order_tested": self.order_tested,
            "order": self.order,
            "order_ok": self.order_ok,
            "leading_coefficient": self.leading_coefficient,
            "bound_ok": self.bound_ok,
            "positive_ok": self.positive_ok,
            "max_phi": self.max_phi,
            "passed": self.passed,
        }


def verify_phi_conditions(spec: DenominatorSpec, p: int) -> CertificationReport:
    """Certify that ``spec`` enables order ``p``.

    Three checks: (i) phi(x) = x + O(x^(p+1)), read off the Taylor
    coefficients at 0 of the residual phi(x) - x up to degree q + 1, q the
    enabled order: the first nonzero one, of degree k, gives the order
    k - 1 and the leading coefficient c, phi(x) - x = c B (x/B)^k + ...;
    (ii) phi stays below its threshold on the span grid; (iii) phi is
    strictly positive there.  The identity has no residual (order and
    coefficient ``None``) and no threshold; its grid is the span at B = 1.
    """
    if p < 1:
        raise ValueError("order p must be >= 1")
    identity = spec.kind is PhiKind.IDENTITY
    span = _span_grid(1.0 if identity else spec.bound)
    if identity:
        order, leading = None, None
    else:
        q = int(spec.enabled_order)
        if q > MAX_ORDER:
            raise ConfigurationError(
                f"{spec.label()} has enabled order {q}, over the limit of "
                f"{MAX_ORDER} the certificate expands to")
        coeffs = _residual_taylor(spec, q + 1)
        # all zero through q + 1 would still certify order q, with c = 0
        k = next((k for k, c in enumerate(coeffs) if c != 0.0), q + 1)
        order, leading = k - 1, coeffs[k]
    order_ok = identity or order >= p

    vals = np.asarray(eval_phi(spec, span))
    bound_ok = identity or bool(vals.max() <= spec.bound * (1.0 + BOUND_SLACK))
    positive_ok = bool(np.all(vals > 0))
    return CertificationReport(
        spec_label=spec.label(), order_tested=p, order=order,
        order_ok=order_ok, leading_coefficient=leading, bound_ok=bound_ok,
        positive_ok=positive_ok, max_phi=float(vals.max()),
        passed=bool(order_ok and bound_ok and positive_ok),
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
