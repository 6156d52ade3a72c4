"""Catalog of explicit SSP multistep and Runge-Kutta methods in Shu-Osher form.

Every method is one ``Method``: the Shu-Osher stage view of a step.  Its
``steps`` is s, the ring of the last s states a step reads (s = 1 for a
Runge-Kutta method), and its ``stages`` hold the step's stages, each a
tuple of exact terms (source, a, b), in which source i < s reads ring
state i, newest first, and i >= s the value of stage i - s + 1.  A stage
sums ``a * v + h * b * f(v)`` over its terms, v the value its source
reads and ``h`` the (possibly transformed) step size; the last stage's
value is the new state.  Every term with b > 0 is a forward-Euler substep
of effective size ``h * b / a``, the structure the preservation arguments
rest on.

A multistep method is one stage.  ``multistep_method`` builds it from the
paper's notation,

    u_next = sum_j ( alpha[j] * u[n+1-j] + h * beta[j] * f(u[n+1-j]) ),

offset j reading ring state j - 1.  A Runge-Kutta method lists its
stages: source 0 is the step's input state, source k the value of stage k.

Coefficients are kept as exact ``Fraction`` objects wherever they are simple
fractions and converted to ``float`` exactly once, at construction time,
into ``float_stages``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Union

Coefficient = Union[Fraction, float]

#: tolerance for the consistency check that a stage's a sum to 1
CONSISTENCY_TOL = 1e-9


@dataclass(frozen=True)
class Method:
    """An explicit SSP method as its Shu-Osher stage view (see above):
    ``stages`` of exact (source, a, b) terms, and ``float_stages``, the
    same with int sources and float coefficients, which the kernels read."""

    name: str
    steps: int
    stages: tuple
    design_order: int
    stated_ssp_coeff: Coefficient | None = None
    float_stages: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fstages = tuple(
            tuple((int(src), float(a), float(b)) for (src, a, b) in stage)
            for stage in self.stages
        )
        object.__setattr__(self, "float_stages", fstages)


def multistep_method(name: str, steps: int,
                     alpha: Mapping[int, Coefficient],
                     beta: Mapping[int, Coefficient], design_order: int,
                     stated_ssp_coeff: Coefficient | None = None) -> Method:
    """The s-step method with sparse ``alpha`` and ``beta``, which map the
    step offset j (1 = most recent iterate) to the coefficients; absent
    keys mean zero.  Its one stage has a term per offset, ascending in j,
    reading ring state j - 1."""
    stage = tuple((j - 1, alpha.get(j, 0), beta.get(j, 0))
                  for j in sorted(set(alpha) | set(beta)))
    return Method(name, steps, (stage,), design_order, stated_ssp_coeff)


def _ratio(a: Coefficient, b: Coefficient) -> Coefficient:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a / b
    return float(a) / float(b)


def ssp_coefficient(method: Method) -> Coefficient:
    """Computed SSP coefficient: min a/b over terms with b > 0.

    Returns an exact ``Fraction`` when every contributing coefficient is
    stored as one, and ``math.inf`` when no b is positive (the step is a
    bare convex combination and imposes no Euler substep restriction).
    """
    return min((_ratio(a, b) for stage in method.stages
                for _src, a, b in stage if b > 0), default=math.inf)


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
    """Check the structural invariants of a Shu-Osher stage view: each
    stage's a sum to 1, each term reads a ring state or an earlier stage's
    value, no coefficient is negative, and b > 0 only where a > 0.  Each
    failure names its stage (from 1) and, for a term, its source."""
    failures: list[str] = []
    for i, stage in enumerate(method.stages, start=1):
        total = sum(a for _src, a, _b in stage)
        if abs(float(total) - 1.0) > CONSISTENCY_TOL:
            failures.append(f"stage {i}: sum(a) = {float(total)!r} != 1")
        readable = method.steps + i - 1
        for (src, a, b) in stage:
            where = f"stage {i}, source {src}"
            if not 0 <= src < readable:
                failures.append(f"{where}: not a ring state or an earlier "
                                f"stage's value (0..{readable - 1})")
            if a < 0 or b < 0:
                failures.append(f"{where}: negative coefficient")
            if b > 0 and a == 0:
                failures.append(f"{where}: b > 0 but a = 0")
    return ValidationReport(method.name, not failures, tuple(failures))


def _build_catalog() -> dict[str, Method]:
    F = Fraction

    sspms42 = multistep_method(
        name="SSPMS(4,2)",
        steps=4,
        alpha={1: F(8, 9), 4: F(1, 9)},
        beta={1: F(4, 3)},
        design_order=2,
        stated_ssp_coeff=F(2, 3),
    )

    # beta[1] = 16/9, the unique value compatible with first-order consistency
    # (sum_j j*alpha_j == sum_j beta_j) and with the stated coefficient 1/3.
    sspms43 = multistep_method(
        name="SSPMS(4,3)",
        steps=4,
        alpha={1: F(16, 27), 4: F(11, 27)},
        beta={1: F(16, 9), 4: F(4, 9)},
        design_order=3,
        stated_ssp_coeff=F(1, 3),
    )

    sspms64 = multistep_method(
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

    ssprk22 = Method(
        name="SSPRK(2,2)",
        steps=1,
        stages=(
            ((0, F(1), F(1)),),
            ((0, F(1, 2), F(0)), (1, F(1, 2), F(1, 2))),
        ),
        design_order=2,
        stated_ssp_coeff=F(1),
    )

    ssprk33 = Method(
        name="SSPRK(3,3)",
        steps=1,
        stages=(
            ((0, F(1), F(1)),),
            ((0, F(3, 4), F(0)), (1, F(1, 4), F(1, 4))),
            ((0, F(1, 3), F(0)), (2, F(2, 3), F(2, 3))),
        ),
        design_order=3,
        stated_ssp_coeff=F(1),
    )

    euler_like = lambda src: ((src, F(1), F(1, 6)),)
    ssprk104 = Method(
        name="SSPRK(10,4)",
        steps=1,
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
