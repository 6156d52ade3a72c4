from fractions import Fraction as F

import math
import pytest

from nslmm import (CATALOG, MULTISTEP_IDS, RUNGE_KUTTA_IDS, MultistepMethod,
                   RungeKuttaMethod, effective_ssp_coefficient, get_method, ssp_coefficient,
                   validate_method)


def test_catalog_contains_the_six_methods():
    assert set(CATALOG) == {"sspms42", "sspms43", "sspms64",
                            "ssprk22", "ssprk33", "ssprk104"}


@pytest.mark.parametrize("method_id", sorted(CATALOG))
def test_catalog_methods_validate(method_id):
    report = validate_method(get_method(method_id))
    assert report.passed, report.failures


def test_ssp_coefficient_values():
    assert ssp_coefficient(get_method("sspms42")) == F(2, 3)
    assert ssp_coefficient(get_method("sspms43")) == F(1, 3)
    assert ssp_coefficient(get_method("ssprk22")) == 1
    assert ssp_coefficient(get_method("ssprk33")) == 1
    assert ssp_coefficient(get_method("ssprk104")) == 6
    c64 = ssp_coefficient(get_method("sspms64"))
    assert 0.1647 <= c64 <= 0.1649


def test_effective_coefficient_is_conservative():
    # stated 0.1648 rounds the computed ratio up; the effective value must
    # not exceed the computed one
    m64 = get_method("sspms64")
    assert effective_ssp_coefficient(m64) == float(ssp_coefficient(m64))
    m43 = get_method("sspms43")
    assert effective_ssp_coefficient(m43) == pytest.approx(1 / 3)


def test_rational_coefficients_sum_exactly():
    m = get_method("sspms42")
    assert sum(m.alpha.values()) == 1  # 8/9 + 1/9, exact
    m43 = get_method("sspms43")
    assert sum(m43.alpha.values()) == 1


def test_sspms64_alpha_sum_within_tolerance():
    m = get_method("sspms64")
    assert abs(sum(float(a) for a in m.alpha.values()) - 1.0) <= 1e-9


def test_consistency_violation_detected():
    bad = MultistepMethod("bad", 2, alpha={1: 0.5}, beta={1: 0.1},
                          design_order=1)
    report = validate_method(bad)
    assert not report.passed
    assert any("sum(alpha)" in f for f in report.failures)


def test_zero_pairing_violation_detected():
    bad = MultistepMethod("bad", 3, alpha={1: 1.0, 2: 0.0}, beta={2: 0.1},
                          design_order=1)
    report = validate_method(bad)
    assert not report.passed
    assert any("alpha[2] = 0" in f for f in report.failures)


def test_negative_coefficient_detected():
    bad = MultistepMethod("bad", 2, alpha={1: 1.5, 2: -0.5}, beta={1: 0.5},
                          design_order=1)
    assert not validate_method(bad).passed


def test_rk_stage_sum_violation_detected():
    bad = RungeKuttaMethod("bad", stages=(((0, 0.9, 0.5),),), design_order=1)
    assert not validate_method(bad).passed


def test_unknown_method_id():
    with pytest.raises(KeyError):
        get_method("sspms99")


def test_all_beta_zero_gives_unbounded_coefficient():
    m = MultistepMethod("combo", 2, alpha={1: 0.5, 2: 0.5}, beta={},
                        design_order=1)
    assert ssp_coefficient(m) == math.inf


def _order_condition_residuals(method: MultistepMethod, max_order: int):
    """Independent oracle: the classical linear multistep order conditions,
    in exact fractions of the stored coefficients.

    With the new value at t = 1 and u[n+1-j] at t = 1 - j, the step is
    exact for u(t) = t^k when sum_j alpha_j (1-j)^k + k beta_j (1-j)^(k-1)
    = 1; the method has order p when that holds for k = 0..p.  Returns the
    residuals for k = 0..max_order.
    """
    out = []
    for k in range(max_order + 1):
        e = sum(F(a) * (1 - j) ** k for j, a in method.alpha.items())
        if k:
            e += sum(k * F(b) * F(1 - j) ** (k - 1)
                     for j, b in method.beta.items())
        out.append(e - 1)
    return out


#: the first nonzero residual, at k = p + 1: exact for the rational
#: coefficient sets, to the digits shown for sspms64's decimal ones
FIRST_MISSED_CONDITION = {"sspms42": -4, "sspms43": -16, "sspms64": -108.132}


@pytest.mark.parametrize("method_id", MULTISTEP_IDS)
def test_multistep_order_conditions(method_id):
    # order exactly p: the conditions hold for k <= p, exactly where the
    # coefficients are fractions and to 1e-12 for sspms64's floats (whose
    # worst reads 8.4e-13), and fail at k = p + 1
    method = get_method(method_id)
    p = method.design_order
    residuals = _order_condition_residuals(method, p + 1)
    exact = all(isinstance(c, F) for c in (*method.alpha.values(),
                                           *method.beta.values()))
    tol = 0 if exact else 1e-12
    assert max(abs(r) for r in residuals[:-1]) <= tol
    assert float(residuals[-1]) == pytest.approx(
        FIRST_MISSED_CONDITION[method_id], rel=1e-5)


# ---------------------------------------------------------------------------
# Runge-Kutta order conditions, through the Butcher form
# ---------------------------------------------------------------------------


def _butcher(rk: RungeKuttaMethod):
    """(A, b, c) of a Shu-Osher method, in exact fractions.

    Stage value v_i = u + h * sum_k W[i][k] f(v_k); substituting the
    earlier stage values into v_i = sum_k (a v_k + h b f(v_k)) gives
    W[i] = sum_k a W[k] + b e_k, since every stage's a sum to 1.  The
    slopes are taken at v_0 .. v_(S-1), so A is rows 0 .. S-1 of W and b
    is row S.
    """
    n = rk.stage_count
    weights = [[F(0)] * n]
    for stage in rk.stages:
        row = [F(0)] * n
        for src, a, b in stage:
            row = [r + F(a) * w for r, w in zip(row, weights[src])]
            row[src] += F(b)
        weights.append(row)
    A = weights[:n]
    return A, weights[n], [sum(row) for row in A]


def _grow(tree):
    """Every rooted tree with one vertex more than ``tree``; a tree is the
    sorted tuple of its subtrees."""
    yield tuple(sorted(tree + ((),)))
    for i, child in enumerate(tree):
        for grown in _grow(child):
            yield tuple(sorted(tree[:i] + (grown,) + tree[i + 1:]))


def _rooted_trees(order: int) -> set:
    trees = {()}
    for _ in range(order - 1):
        trees = {g for t in trees for g in _grow(t)}
    return trees


def _order_residuals(A, b, order: int) -> list:
    """b . Phi(t) - 1/gamma(t) over the rooted trees t of one order."""
    def weight(tree):  # elementary weight vector of the stages
        out = [F(1)] * len(b)
        for child in tree:
            inner = weight(child)
            out = [o * sum(a * w for a, w in zip(row, inner))
                   for o, row in zip(out, A)]
        return out

    def size(tree):
        return 1 + sum(size(c) for c in tree)

    def density(tree):
        return size(tree) * math.prod(density(c) for c in tree)

    return [sum(bi * wi for bi, wi in zip(b, weight(t))) - F(1, density(t))
            for t in _rooted_trees(order)]


def test_rooted_tree_counts():
    assert [len(_rooted_trees(q)) for q in range(1, 6)] == [1, 1, 2, 4, 9]


@pytest.mark.parametrize("method_id", RUNGE_KUTTA_IDS)
def test_runge_kutta_order_conditions(method_id):
    rk = get_method(method_id)
    A, b, c = _butcher(rk)
    assert all(A[i][k] == 0 for i in range(len(A)) for k in range(i, len(A)))
    conditions = [r for q in range(1, rk.design_order + 1)
                  for r in _order_residuals(A, b, q)]
    assert len(conditions) == {2: 2, 3: 4, 4: 8}[rk.design_order]
    assert all(r == 0 for r in conditions)
    # the bushy trees among them, written with the abscissae c
    for q in range(1, rk.design_order + 1):
        assert sum(bi * ci ** (q - 1) for bi, ci in zip(b, c)) == F(1, q)
    assert any(r != 0 for r in _order_residuals(A, b, rk.design_order + 1))
