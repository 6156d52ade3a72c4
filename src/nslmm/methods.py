"""Catalog of explicit SSP multistep and Runge-Kutta methods in Shu-Osher form.

A multistep step combines the last ``s`` iterates as

    u_next = sum_j ( alpha[j] * u[n+1-j] + h * beta[j] * f(u[n+1-j]) )

where ``h`` is the (possibly transformed) step size.  Runge-Kutta methods are
stored stage by stage, every stage being a convex combination of previously
computed stage values plus ``h``-scaled slope terms.  Both representations
expose the forward-Euler substep structure that the preservation arguments
rest on: each (alpha, beta) pair with beta > 0 is an Euler substep of
effective size ``h * beta / alpha``.

Both give one Shu-Osher stage view of a step: ``steps``, the ring of s last
states a step reads (s = 1 for a Runge-Kutta method), and ``float_stages``,
stages of float terms (source, alpha, beta) in which source i < s reads
ring state i, newest first, and i >= s the value of stage i - s + 1; the
last stage's value is the new state.  A multistep step is one stage.

Coefficients are kept as exact ``Fraction`` objects wherever they are simple
fractions and converted to ``float`` exactly once, at construction time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Union

Coefficient = Union[Fraction, float]

#: tolerance for the consistency check sum(alpha) == 1
CONSISTENCY_TOL = 1e-9


@dataclass(frozen=True)
class MultistepMethod:
    """Explicit s-step method in Shu-Osher form with sparse coefficients.

    ``alpha`` and ``beta`` map the step offset j (1 = most recent iterate)
    to the nonnegative coefficients; absent keys mean zero.
    """

    name: str
    steps: int
    alpha: Mapping[int, Coefficient]
    beta: Mapping[int, Coefficient]
    design_order: int
    stated_ssp_coeff: Coefficient | None = None
    _terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        terms = tuple(
            (j, float(self.alpha.get(j, 0)), float(self.beta.get(j, 0)))
            for j in sorted(set(self.alpha) | set(self.beta))
        )
        object.__setattr__(self, "_terms", terms)

    @property
    def terms(self) -> tuple[tuple[int, float, float], ...]:
        """(j, alpha_j, beta_j) triples as floats, ascending in j."""
        return self._terms

    @property
    def float_stages(self) -> tuple:
        """The stage view: one stage, offset j reading ring state j - 1."""
        return (tuple((j - 1, a, b) for j, a, b in self._terms),)


@dataclass(frozen=True)
class RungeKuttaMethod:
    """Explicit SSP Runge-Kutta method as a sequence of Shu-Osher stages,
    each a tuple of (source, a, b) terms numbered as in the stage view:
    source 0 is the step's input state, source k the value of stage k."""

    name: str
    stages: tuple
    design_order: int
    stated_ssp_coeff: Coefficient | None = None
    _float_stages: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fstages = tuple(
            tuple((int(src), float(a), float(b)) for (src, a, b) in stage)
            for stage in self.stages
        )
        object.__setattr__(self, "_float_stages", fstages)

    @property
    def float_stages(self) -> tuple:
        return self._float_stages

    @property
    def steps(self) -> int:
        """A one-step method's ring holds its input state alone."""
        return 1

    @property
    def stage_count(self) -> int:
        return len(self.stages)


Method = Union[MultistepMethod, RungeKuttaMethod]


def _ratio(a: Coefficient, b: Coefficient) -> Coefficient:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a / b
    return float(a) / float(b)


def ssp_coefficient(method: Method) -> Coefficient:
    """Computed SSP coefficient: min alpha/beta over terms with beta > 0.

    Returns an exact ``Fraction`` when every contributing coefficient is
    stored as one, and ``math.inf`` when no beta is positive (the step is a
    bare convex combination and imposes no Euler substep restriction).
    """
    ratios: list[Coefficient] = []
    if isinstance(method, MultistepMethod):
        for j, b in method.beta.items():
            if b > 0:
                ratios.append(_ratio(method.alpha.get(j, 0), b))
    else:
        for stage in method.stages:
            for (_src, a, b) in stage:
                if b > 0:
                    ratios.append(_ratio(a, b))
    if not ratios:
        return math.inf
    return min(ratios)


def effective_ssp_coefficient(method: Method) -> float:
    """SSP coefficient used for bound construction.

    The conservative choice: the smaller of the cataloged (stated) value and
    the ratio computed from the coefficients.  A stated value that merely
    rounds the computed ratio upward is thereby ignored, so the Euler substep
    guarantee stays airtight.
    """
    computed = ssp_coefficient(method)
    if method.stated_ssp_coeff is None:
        return float(computed)
    return float(min(computed, method.stated_ssp_coeff))


@dataclass(frozen=True)
class ValidationReport:
    method: str
    passed: bool
    failures: tuple[str, ...]


def validate_method(method: Method) -> ValidationReport:
    """Check the structural invariants of a Shu-Osher coefficient set."""
    failures: list[str] = []
    if isinstance(method, MultistepMethod):
        if method.steps < 1:
            failures.append("steps must be >= 1")
        for j in set(method.alpha) | set(method.beta):
            if not 1 <= j <= method.steps:
                failures.append(f"offset {j} outside 1..{method.steps}")
        total = sum(Fraction(a) if isinstance(a, Fraction) else float(a)
                    for a in method.alpha.values())
        if abs(float(total) - 1.0) > CONSISTENCY_TOL:
            failures.append(f"sum(alpha) = {float(total)!r} != 1")
        for j, a in method.alpha.items():
            if a < 0:
                failures.append(f"alpha[{j}] < 0")
        for j, b in method.beta.items():
            if b < 0:
                failures.append(f"beta[{j}] < 0")
            if b > 0 and method.alpha.get(j, 0) == 0:
                failures.append(f"beta[{j}] > 0 but alpha[{j}] = 0")
    else:
        for i, stage in enumerate(method.stages, start=1):
            total = sum(Fraction(a) if isinstance(a, Fraction) else float(a)
                        for (_s, a, _b) in stage)
            if abs(float(total) - 1.0) > CONSISTENCY_TOL:
                failures.append(f"stage {i}: sum(a) = {float(total)!r} != 1")
            for (src, a, b) in stage:
                if not 0 <= src < i:
                    failures.append(f"stage {i}: source {src} not yet computed")
                if a < 0 or b < 0:
                    failures.append(f"stage {i}: negative coefficient")
                if b > 0 and a == 0:
                    failures.append(f"stage {i}: b > 0 but a = 0")
    return ValidationReport(method.name, not failures, tuple(failures))


def _build_catalog() -> dict[str, Method]:
    F = Fraction

    sspms42 = MultistepMethod(
        name="SSPMS(4,2)",
        steps=4,
        alpha={1: F(8, 9), 4: F(1, 9)},
        beta={1: F(4, 3)},
        design_order=2,
        stated_ssp_coeff=F(2, 3),
    )

    # beta[1] = 16/9, the unique value compatible with first-order consistency
    # (sum_j j*alpha_j == sum_j beta_j) and with the stated coefficient 1/3.
    sspms43 = MultistepMethod(
        name="SSPMS(4,3)",
        steps=4,
        alpha={1: F(16, 27), 4: F(11, 27)},
        beta={1: F(16, 9), 4: F(4, 9)},
        design_order=3,
        stated_ssp_coeff=F(1, 3),
    )

    sspms64 = MultistepMethod(
        name="SSPMS(6,4)",
        steps=6,
        alpha={
            1: 0.342460855717007,
            4: 0.191798259434736,
            5: 0.093562124939008,
            6: 0.372178759909247,
        },
        beta={
            1: 2.078553105578060,
            4: 1.164112222279710,
            5: 0.567871749748709,
        },
        design_order=4,
        stated_ssp_coeff=0.1648,
    )

    ssprk22 = RungeKuttaMethod(
        name="SSPRK(2,2)",
        stages=(
            ((0, F(1), F(1)),),
            ((0, F(1, 2), F(0)), (1, F(1, 2), F(1, 2))),
        ),
        design_order=2,
        stated_ssp_coeff=F(1),
    )

    ssprk33 = RungeKuttaMethod(
        name="SSPRK(3,3)",
        stages=(
            ((0, F(1), F(1)),),
            ((0, F(3, 4), F(0)), (1, F(1, 4), F(1, 4))),
            ((0, F(1, 3), F(0)), (2, F(2, 3), F(2, 3))),
        ),
        design_order=3,
        stated_ssp_coeff=F(1),
    )

    euler_like = lambda src: ((src, F(1), F(1, 6)),)
    ssprk104 = RungeKuttaMethod(
        name="SSPRK(10,4)",
        stages=(
            euler_like(0),
            euler_like(1),
            euler_like(2),
            euler_like(3),
            ((0, F(3, 5), F(0)), (4, F(2, 5), F(1, 15))),
            euler_like(5),
            euler_like(6),
            euler_like(7),
            euler_like(8),
            ((0, F(1, 25), F(0)), (4, F(9, 25), F(3, 50)), (9, F(3, 5), F(1, 10))),
        ),
        design_order=4,
        stated_ssp_coeff=F(6),
    )

    return {
        "sspms42": sspms42,
        "sspms43": sspms43,
        "sspms64": sspms64,
        "ssprk22": ssprk22,
        "ssprk33": ssprk33,
        "ssprk104": ssprk104,
    }


CATALOG: dict[str, Method] = _build_catalog()

#: multistep catalog entries only, in catalog order
MULTISTEP_IDS = ("sspms42", "sspms43", "sspms64")
RUNGE_KUTTA_IDS = ("ssprk22", "ssprk33", "ssprk104")


def get_method(method_id: str) -> Method:
    try:
        return CATALOG[method_id]
    except KeyError:
        known = ", ".join(sorted(CATALOG))
        raise KeyError(f"unknown method {method_id!r}; known: {known}") from None
