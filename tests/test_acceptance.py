"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every tolerance is pinned here, not configurable.
"""

import time

import numpy as np
import pytest

import nslmm as n
from nslmm import (BOUNDEDNESS, WEAK_MONOTONICITY, DenominatorSpec,
                   ExactReference, PhiKind, RK4Reference, RunConfig,
                   RungeKuttaStartup, convergence_study, check_bounds,
                   effective_ssp_coefficient, eval_phi, forward_euler_step,
                   get_method, integrate, make_phi_for_method,
                   reference_solution, seir_problem, sharpness_bisection,
                   verify_phi_conditions)
from nslmm.experiments import logistic_preservation_grid
from nslmm.problems import logistic_fe_bounds

from conftest import ORDER_MATCHED_PHI


def _report(criterion: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion:2d} {label}: {status}{tail}")
    assert ok, f"criterion {criterion} {label}: {detail}"


def _logistic_rows(method_id, phi_kind, dts, c=2.0, y0=1.0, t_end=1.0,
                   b_fe=None):
    prob = n.logistic_problem(c)
    method = get_method(method_id)
    report = convergence_study(prob, method, phi_kind, dts, t_end, [y0],
                               ExactReference(), b_fe=b_fe)
    return report.rows


def test_c01_logistic_convergence_spot_values():
    # logistic c=2, y0=1, T=1, six-step fourth-order method, exact startup
    start = time.perf_counter()
    dts = [0.1 * 2.0 ** (-2), 0.1 * 2.0 ** (-3)]
    targets = {PhiKind.PHI8: (5.3510e-5, 3.9373),
               PhiKind.PHI7: (4.6978e-4, 2.9273),
               PhiKind.PHI5: (3.0902e-3, 1.9255)}
    details = []
    for kind, (err_target, order_target) in targets.items():
        rows = _logistic_rows("sspms64", kind, dts)
        err, order = rows[1].error, rows[1].order
        assert err == pytest.approx(err_target, rel=0.01), kind
        assert order == pytest.approx(order_target, abs=0.02), kind
        details.append(f"{kind.value}: err {err:.4e}, order {order:.4f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(1, "logistic convergence spot values", True,
            "; ".join(details) + f"; {elapsed:.2f}s")


def test_c02_method_comparison_spot_values():
    start = time.perf_counter()
    # second-order four-step method at dt=0.05, run with the order-four
    # transform (the configuration behind the pinned value)
    rows = _logistic_rows("sspms42", PhiKind.PHI8, [0.05])
    err42 = rows[0].error
    assert err42 == pytest.approx(1.6660e-4, rel=0.01)

    # ten-stage fourth-order one-step method; the pinned value
    # corresponds to a transform threshold of C * 1.0
    rows = _logistic_rows("ssprk104", PhiKind.PHI8, [0.05], b_fe=1.0)
    err104 = rows[0].error
    assert err104 == pytest.approx(8.9811e-9, rel=0.02)

    # third-order four-step method with the order-three transform: the order
    # sequence reaches 2.9826 at dt = 0.05 * 2^-3
    dts = [0.05 * 2.0 ** (-k) for k in range(4)]
    rows = _logistic_rows("sspms43", PhiKind.PHI7, dts)
    order = rows[3].order
    assert order == pytest.approx(2.9826, abs=0.02)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(2, "method comparison spot values", True,
            f"ms42 {err42:.4e}, rk104 {err104:.4e}, ms43 order {order:.4f}; "
            f"{elapsed:.2f}s")


def test_c03_stiff_logistic_spot_values():
    dts = [2e-4 * 2.0 ** (-2), 2e-4 * 2.0 ** (-3)]
    rows = _logistic_rows("sspms64", PhiKind.PHI8, dts, c=500.0, y0=1000.0,
                          t_end=1.0 / 500.0)
    err, order = rows[1].error, rows[1].order
    assert err == pytest.approx(1.7704e-2, rel=0.01)
    assert order == pytest.approx(3.9411, abs=0.02)
    _report(3, "stiff logistic spot values", True,
            f"err {err:.4e}, order {order:.4f}")


def test_c04_epidemic_convergence_orders(seir0, seir_y0):
    start = time.perf_counter()
    # coarsened reference certified by step-halving self-consistency
    ref_a = reference_solution(seir0, seir_y0, 5.0, 1e-3)
    ref_b = reference_solution(seir0, seir_y0, 5.0, 5e-4)
    richardson = float(np.max(np.abs(ref_a - ref_b)))
    assert richardson <= 1e-10

    method = get_method("sspms64")
    phi = make_phi_for_method(method, 0.2, PhiKind.PHI8)
    dts = [0.1 * 2.0 ** (-k) for k in range(3, 8)]
    report = convergence_study(
        seir0, method, phi, dts, 5.0, seir_y0, RK4Reference(5e-4),
        startup=RungeKuttaStartup(rk="ssprk104", phi_kind=PhiKind.PHI8))
    errors = [row.error for row in report.rows]
    orders = [row.order for row in report.rows[1:]]
    pinned = [1.7033e-3, 1.0731e-4, 6.7211e-6, 4.2047e-7, 2.6294e-8]
    for err, tab in zip(errors, pinned):
        assert tab / 2 <= err <= tab * 2, (err, tab)
    for order in orders:
        assert 3.9 <= order <= 4.05, orders
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(4, "epidemic convergence orders", True,
            f"orders {['%.4f' % o for o in orders]}, "
            f"richardson {richardson:.1e}; {elapsed:.2f}s")


def test_c05_component_sum_conservation(seir0, seir_y0):
    start = time.perf_counter()
    worst = 0.0
    for method_id in sorted(n.CATALOG):
        method = get_method(method_id)
        kind = ORDER_MATCHED_PHI[method.design_order]
        phi = make_phi_for_method(method, 0.2, kind)
        traj = integrate(RunConfig(problem=seir0, method=method, phi=phi,
                                   dt=1.0, t_end=100.0, y0=seir_y0))
        dev = float(np.max(np.abs(traj.states.sum(axis=1) - 1.0)))
        assert dev <= 1e-10, method_id
        worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(5, "sum conservation across catalog", True,
            f"worst drift {worst:.2e}; {elapsed:.2f}s")


def test_c06_boundedness_and_weak_monotonicity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)
    checked = 0
    for c in (2.0, 500.0):
        y0s = rng.uniform(0.0, c, size=50)
        y0s = np.where(y0s == 0.0, c / 2, y0s)
        dts = rng.uniform(0.0, 100.0, size=50)
        dts = np.where(dts == 0.0, 50.0, dts)
        for method_id in ("sspms42", "sspms43", "sspms64"):
            method = get_method(method_id)
            kind = ORDER_MATCHED_PHI[method.design_order]
            outcome = logistic_preservation_grid(c, y0s, dts, method, kind,
                                                 n_steps=1000)
            assert not outcome.bound_violated.any(), (c, method_id)
            assert not outcome.weak_violated.any(), (c, method_id)
            checked += outcome.bound_violated.size
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(6, "preservation suite, zero violations", True,
            f"{checked} runs x 1000 steps; {elapsed:.2f}s")


def test_c07_convex_combination_oracle():
    rng = np.random.default_rng(7)
    logistic = n.logistic_problem(2.0)
    seir = seir_problem(0.0)
    method_ids = ["sspms42", "sspms43", "sspms64"]
    kinds = list(n.CATALOG_KINDS)
    worst = 0.0
    for _ in range(1000):
        method = get_method(method_ids[rng.integers(len(method_ids))])
        kind = kinds[rng.integers(len(kinds))]
        if rng.random() < 0.5:
            problem = logistic
            history = [rng.uniform(0.05, 1.95, size=1)
                       for _ in range(method.steps)]
        else:
            problem = seir
            history = [rng.uniform(0.0, 1.0, size=4)
                       for _ in range(method.steps)]
        dt = float(rng.uniform(1e-4, 50.0))
        phi = DenominatorSpec(kind, bound=float(rng.uniform(0.01, 2.0)))
        direct = n.nslmm_step(method, phi, problem, history, dt)
        h = float(eval_phi(phi, dt))
        oracle = np.zeros(problem.dimension)
        (stage,) = method.float_stages
        for src, a, b in stage:
            u = np.asarray(history[src], dtype=float)
            if b == 0.0:
                oracle = oracle + a * u
            else:
                oracle = oracle + a * forward_euler_step(problem, u, h * b / a)
        scale = max(1.0, float(np.max(np.abs(direct))))
        rel = float(np.max(np.abs(direct - oracle))) / scale
        worst = max(worst, rel)
        assert rel <= 1e-14
    _report(7, "convex-combination oracle", True, f"worst {worst:.2e}")


def test_c08_certification_matrix():
    for kind in n.CATALOG_KINDS:
        spec = DenominatorSpec(kind, bound=1.0)
        enabled = spec.enabled_order
        for p in range(1, 6):
            report = verify_phi_conditions(spec, p)
            assert report.passed == (p <= enabled), (kind.value, p)
    _report(8, "order certification matrix", True,
            "8 transforms x orders 1..5")


def test_c09_sharpness_soundness():
    start = time.perf_counter()
    prob = n.logistic_problem(2.0)
    y0_grid = np.linspace(1e-3, 5.0, 20)
    dt_grid = np.geomspace(0.5, 3.0, 100)
    configs = [("sspms42", PhiKind.PHI5), ("sspms43", PhiKind.PHI7),
               ("sspms64", PhiKind.PHI8)]
    details = []
    for method_id, kind in configs:
        method = get_method(method_id)
        bounded = sharpness_bisection(prob, method, kind, y0_grid[:, None],
                                      dt_grid, 100.0, BOUNDEDNESS)
        weak = sharpness_bisection(prob, method, kind, y0_grid[:, None],
                                   dt_grid, 100.0, WEAK_MONOTONICITY)
        sufficient = (effective_ssp_coefficient(method)
                      * logistic_fe_bounds(2.0, y0_grid))
        for row, suff in zip(bounded.rows, sufficient):
            assert row.status != "below-range", (method_id, row)
            assert row.empirical_bound >= suff - 1e-4, (method_id, row)
        for brow, wrow in zip(bounded.rows, weak.rows):
            assert wrow.empirical_bound >= brow.empirical_bound, (
                method_id, brow, wrow)
        margin = min(row.empirical_bound - suff
                     for row, suff in zip(bounded.rows, sufficient))
        details.append(f"{method_id} min(B*-B)={margin:.2e}")
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(9, "sharpness soundness", True,
            "; ".join(details) + f"; {elapsed:.1f}s")


def test_c10_standard_vs_transformed_divergence():
    prob = n.logistic_problem(2.0)
    method = get_method("sspms64")
    standard = integrate(RunConfig(
        problem=prob, method=method, phi=DenominatorSpec(PhiKind.IDENTITY),
        dt=0.5, t_end=15.0, y0=[3.0]))
    std_report = check_bounds(standard, 0, lower=2.0)
    assert not std_report.holds

    phi = make_phi_for_method(method, 1.0 / 3.0, PhiKind.PHI8)
    transformed = integrate(RunConfig(
        problem=prob, method=method, phi=phi, dt=0.5, t_end=15.0, y0=[3.0]))
    ns_report = check_bounds(transformed, 0, lower=2.0)
    assert ns_report.holds
    _report(10, "standard diverges, transformed preserved", True,
            f"standard first violation at step "
            f"{std_report.first_violation.step}")
