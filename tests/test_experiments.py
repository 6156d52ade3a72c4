import dataclasses
import math
import re
import statistics
import sys
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nslmm as n
from nslmm import (BOUNDEDNESS, WEAK_MONOTONICITY, ConfigurationError,
                   ErrorNorm, ExactReference, PhiKind, RK4Reference,
                   convergence_study, get_method, observed_order,
                   phi_benchmark, sharpness_bisection)
from nslmm import experiments
from nslmm.experiments import (bisect_threshold,
                               logistic_preservation_grid,
                               run_preservation_sweep,
                               seir_conservation_sweep, sweep_bytes)
from nslmm.integrate import STARTER_FOR_ORDER
from nslmm.methods import multistep_method
from nslmm.problems import OdeProblem, logistic_fe_bounds
from nslmm.qualprops import sweep_checks

from conftest import ORDER_MATCHED_PHI, counting_rhs, slope_evaluations

# the module, which the package's ``integrate`` function shadows
integrate_mod = sys.modules["nslmm.integrate"]


# ---------------------------------------------------------------------------
# observed orders
# ---------------------------------------------------------------------------


def test_observed_order_pinned_values():
    # inputs are five-digit roundings, so the quoted orders are only good
    # to a few 1e-4
    assert observed_order([1.6660e-4, 6.0870e-5])[0] == pytest.approx(
        1.4527, abs=5e-4)
    assert observed_order([8.2145e-4, 5.7502e-5])[0] == pytest.approx(
        3.8365, abs=5e-4)


def test_observed_order_exact_ratio():
    eps = 1e-9
    assert observed_order([4 * eps, eps]) == [pytest.approx(2.0, rel=1e-12)]


def test_observed_order_general_grid():
    # error model e = dt^3 on a non-halving grid
    dts = [0.1, 0.03, 0.007]
    errors = [dt ** 3 for dt in dts]
    orders = observed_order(errors, dts)
    assert orders == [pytest.approx(3.0, rel=1e-12)] * 2


def test_observed_order_zero_error_absent():
    assert observed_order([1e-3, 0.0, 1e-5]) == [None, None]


def test_observed_order_argument_errors():
    with pytest.raises(ValueError):
        observed_order([1e-3])
    with pytest.raises(ValueError):
        observed_order([1e-3, -1e-4])


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------


def test_convergence_study_basics(logistic2):
    m = get_method("sspms64")
    dts = [0.1 * 2.0 ** (-k) for k in range(3)]
    report = convergence_study(logistic2, m, PhiKind.PHI8, dts, 1.0, [1.0],
                               ExactReference())
    assert [r.dt for r in report.rows] == dts
    assert report.rows[0].order is None
    assert report.rows[1].order is not None
    assert report.rows[1].error < report.rows[0].error
    csv = report.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "dt,error,order"
    assert lines[1].endswith(",")  # first row has no order


def test_convergence_single_row(logistic2):
    m = get_method("ssprk22")
    report = convergence_study(logistic2, m, PhiKind.PHI5, [0.05], 1.0,
                               [1.0], ExactReference())
    assert len(report.rows) == 1
    assert report.rows[0].order is None


def test_convergence_requires_decreasing_dts(logistic2):
    m = get_method("ssprk22")
    with pytest.raises(ValueError):
        convergence_study(logistic2, m, PhiKind.PHI5, [0.05, 0.1], 1.0,
                          [1.0], ExactReference())


def test_convergence_exact_reference_needs_closed_form(seir0, seir_y0):
    m = get_method("ssprk104")
    with pytest.raises(ConfigurationError):
        convergence_study(seir0, m, PhiKind.PHI8, [0.1], 1.0, seir_y0,
                          ExactReference())


@pytest.mark.parametrize("dts, t_end", [
    ([0.5, -0.25], 1.0), ([0.5, 0.3], 1.0), ([np.inf, 0.5], 1.0),
    ([0.25, 0.125], 0.5)])
def test_convergence_checks_every_step_before_the_reference(
        seir0, seir_y0, monkeypatch, dts, t_end):
    # a negative, misaligned or infinite step, and 2 steps of 0.25 with
    # no room for five startup values
    def unreachable(*args, **kwargs):
        raise AssertionError("reference computed before the steps' checks")

    monkeypatch.setattr(experiments, "reference_solution", unreachable)
    with pytest.raises(ConfigurationError):
        convergence_study(seir0, get_method("sspms64"), PhiKind.PHI8, dts,
                          t_end, seir_y0, RK4Reference(1e-3))


@pytest.mark.parametrize("phi", [
    n.DenominatorSpec(PhiKind.PHI5, bound=0.1),
    n.DenominatorSpec(PhiKind.IDENTITY)])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_convergence_rejects_a_non_finite_y0_before_the_reference(
        seir0, phi, bad):
    # a ready transform asks for no Euler bound at y0, which would have
    # caught the bad component; the reference must not run either
    counted, calls = counting_rhs(seir0)
    with pytest.raises(ConfigurationError, match="non-finite"):
        convergence_study(counted, get_method("sspms42"), phi, [0.1, 0.05],
                          5.0, [0.8, bad, 0.2, 0.0], RK4Reference(1e-4))
    assert calls[0] == 0


def test_convergence_with_a_ready_reference_state_equals_rk4(seir0,
                                                             seir_y0):
    # a reference computed once serves several studies, bit for bit as
    # each computing its own; the study runs no reference of its own
    method = get_method("sspms43")
    dts = [0.1, 0.05]
    want = convergence_study(seir0, method, PhiKind.PHI7, dts, 1.0, seir_y0,
                             RK4Reference(1e-3))
    state = n.reference_solution(seir0, seir_y0, 1.0, 1e-3)
    counted, calls = counting_rhs(seir0)
    got = convergence_study(counted, method, PhiKind.PHI7, dts, 1.0,
                            seir_y0, state)
    assert got.to_csv() == want.to_csv()
    assert got.config["reference"] == "state"
    # the two runs take 30 steps; the RK4 reference alone makes 4000 calls
    assert calls[0] < 100


@pytest.mark.parametrize("bad", [
    [0.8, 0.0, 0.2], [0.8, np.nan, 0.2, 0.0], [0.8, np.inf, 0.2, 0.0],
    "rk4", object()])
def test_convergence_rejects_a_bad_reference_state(seir0, seir_y0, bad):
    with pytest.raises(ConfigurationError):
        convergence_study(seir0, get_method("sspms43"), PhiKind.PHI7,
                          [0.1, 0.05], 1.0, seir_y0, bad)


def test_convergence_norm_defaults(logistic2, seir0, seir_y0):
    m = get_method("ssprk104")
    r1 = convergence_study(logistic2, m, PhiKind.PHI8, [0.1], 1.0, [1.0],
                           ExactReference())
    assert r1.norm is ErrorNorm.ABS
    r2 = convergence_study(seir0, m, PhiKind.PHI8, [0.1], 1.0, seir_y0,
                           RK4Reference(1e-2))
    assert r2.norm is ErrorNorm.MAX_COMPONENT


def test_convergence_reproducible_bytes(logistic2):
    m = get_method("sspms42")
    dts = [0.05, 0.025]
    a = convergence_study(logistic2, m, PhiKind.PHI5, dts, 1.0, [1.0],
                          ExactReference()).to_csv()
    b = convergence_study(logistic2, m, PhiKind.PHI5, dts, 1.0, [1.0],
                          ExactReference()).to_csv()
    assert a.encode() == b.encode()


def test_order_plateau_and_error_ranking(logistic2):
    # fourth-order six-step method, thresholds C*min(1/c, 1/y0): first-order
    # transforms plateau at 1, second-order at 2, and so on; within an order
    # class the transform with the smaller low-order derivative at zero has
    # the smaller error at every grid point
    m = get_method("sspms64")
    dts = [0.1 * 2.0 ** (-k) for k in range(10)]
    errors = {}
    orders = {}
    for kind in n.CATALOG_KINDS:
        report = convergence_study(logistic2, m, kind, dts, 1.0, [1.0],
                                   ExactReference())
        errors[kind] = [r.error for r in report.rows]
        orders[kind] = [r.order for r in report.rows]
    for kind, target, tol, row in [
            (PhiKind.PHI1, 1.0, 0.05, -1), (PhiKind.PHI2, 1.0, 0.05, -1),
            (PhiKind.PHI3, 1.0, 0.05, -1), (PhiKind.PHI4, 2.0, 0.05, -1),
            (PhiKind.PHI5, 2.0, 0.05, -1), (PhiKind.PHI6, 2.0, 0.05, -1),
            (PhiKind.PHI7, 3.0, 0.05, -1), (PhiKind.PHI8, 4.0, 0.1, -3)]:
        assert orders[kind][row] == pytest.approx(target, abs=tol), kind
    e = errors
    for i in range(10):
        assert e[PhiKind.PHI2][i] < e[PhiKind.PHI1][i] < e[PhiKind.PHI3][i]
        assert e[PhiKind.PHI5][i] < e[PhiKind.PHI4][i]


# ---------------------------------------------------------------------------
# bisection
# ---------------------------------------------------------------------------


def test_bisect_threshold_synthetic_predicate():
    value, status = bisect_threshold(lambda b: b <= 0.37, 0.1, 1.0, 1e-3)
    assert status == "ok"
    assert value == pytest.approx(0.37, abs=1e-3)


def test_bisect_threshold_edges():
    assert bisect_threshold(lambda b: False, 0.1, 1.0, 1e-3)[1] == "below-range"
    value, status = bisect_threshold(lambda b: True, 0.1, 1.0, 1e-3)
    assert (value, status) == (1.0, "at-range-top")


def test_sharpness_logistic_rows_sound(logistic2):
    m = get_method("sspms42")
    y0s = np.array([[0.5], [1.5], [3.0]])
    dts = np.linspace(0.5, 3.0, 16)
    report = sharpness_bisection(logistic2, m, PhiKind.PHI5, y0s, dts,
                                 t_end=30.0, prop=BOUNDEDNESS, tol=1e-3)
    assert len(report.rows) == 3
    for row in report.rows:
        assert row.status in ("ok", "at-range-top")
        assert row.empirical_bound >= row.sufficient_bound - 1e-3
    csv = report.to_csv()
    assert csv.splitlines()[0] == "y0,sufficient_bound,empirical_bound,property"


def test_sharpness_below_range_status(logistic2):
    m = get_method("sspms42")
    y0s = np.array([[1.0]])
    dts = np.linspace(0.5, 3.0, 8)
    report = sharpness_bisection(logistic2, m, PhiKind.PHI5, y0s, dts,
                                 t_end=30.0, prop=BOUNDEDNESS,
                                 interval_scale=(60.0, 100.0), tol=1e-3)
    assert report.rows[0].status == "below-range"
    assert np.isnan(report.rows[0].empirical_bound)


def test_sharpness_rejects_unknown_property(logistic2):
    m = get_method("sspms42")
    with pytest.raises(ValueError):
        sharpness_bisection(logistic2, m, PhiKind.PHI5,
                            np.array([[1.0]]), np.array([0.5]), 10.0,
                            "positivity")


def _checks(problem, y0, prop, weak_component=0):
    """The sweep checks of class ``prop`` in ``y0``'s property set, with
    the watched component of a windowed check."""
    checks = sweep_checks(n.default_properties(problem, y0),
                          problem.dimension, prop, weak_component)
    if prop == WEAK_MONOTONICITY:
        checks["weak_component"] = weak_component
    return checks


def _row_by_row(problem, method, kind, y0s, dts, t_end, prop,
                interval_scale=(1e-4, 10.0), tol=1e-4, max_iter=60,
                weak_component=0):
    """Oracle: ``bisect_threshold`` per row over single-row sweeps."""
    n_steps = np.ceil(t_end / dts - 1e-9).astype(int)
    results = []
    for y0 in y0s:
        sufficient = (n.effective_ssp_coefficient(method)
                      * n.fe_property_bound(problem, y0))
        checks = _checks(problem, y0, prop, weak_component)

        def holds(value):
            outcome = run_preservation_sweep(
                problem, method, kind, np.full(dts.size, value), dts,
                np.tile(y0, (dts.size, 1)), n_steps, **checks)
            violated = (outcome.bound_violated if prop == BOUNDEDNESS
                        else outcome.weak_violated)
            return not violated.any()

        results.append((sufficient, *bisect_threshold(
            holds, interval_scale[0] * sufficient,
            interval_scale[1] * sufficient, tol, max_iter)))
    return results


def _assert_matches_oracle(report, oracle):
    assert len(report.rows) == len(oracle)
    for row, (sufficient, value, status) in zip(report.rows, oracle):
        assert row.status == status
        assert row.sufficient_bound == sufficient
        if status == "below-range":
            assert math.isnan(row.empirical_bound)
        else:
            assert row.empirical_bound == value


LOGISTIC_Y0S = np.array([[0.3], [1.0], [1.9], [2.0], [2.5], [4.0]])


@pytest.mark.parametrize("max_iter", [60, 4])
@pytest.mark.parametrize("prop", [BOUNDEDNESS, WEAK_MONOTONICITY])
def test_lockstep_sharpness_equals_row_by_row_logistic(logistic2, prop,
                                                       max_iter):
    # max_iter=4 stops every bracket before it reaches tol
    m = get_method("sspms42")
    dts = np.geomspace(0.5, 3.0, 12)
    report = sharpness_bisection(logistic2, m, PhiKind.PHI5, LOGISTIC_Y0S,
                                 dts, 30.0, prop, tol=1e-3,
                                 max_iter=max_iter)
    oracle = _row_by_row(logistic2, m, PhiKind.PHI5, LOGISTIC_Y0S, dts,
                         30.0, prop, tol=1e-3, max_iter=max_iter)
    _assert_matches_oracle(report, oracle)
    assert {r.status for r in report.rows} == {"ok", "at-range-top"}


@pytest.mark.parametrize("max_iter", [1, 3, 5])
def test_lockstep_sharpness_odd_max_iter(logistic2, max_iter):
    # an odd budget ends on a sweep that tests midpoints alone
    m = get_method("sspms42")
    dts = np.geomspace(0.5, 3.0, 12)
    report = sharpness_bisection(logistic2, m, PhiKind.PHI5, LOGISTIC_Y0S,
                                 dts, 30.0, BOUNDEDNESS, tol=1e-3,
                                 max_iter=max_iter)
    _assert_matches_oracle(report, _row_by_row(
        logistic2, m, PhiKind.PHI5, LOGISTIC_Y0S, dts, 30.0, BOUNDEDNESS,
        tol=1e-3, max_iter=max_iter))


@pytest.mark.parametrize("side", ["left", "right"])
def test_lockstep_sharpness_one_side_reaches_tol_first(logistic2, side):
    # follow one row's row-by-row bisection to a first-of-sweep level whose
    # halves differ in the last bits and whose midpoint picks ``side``, the
    # narrower half; with tol equal to that half's width the row stops
    # there, while the wider half would have taken another level
    m = get_method("sspms42")
    dts = np.geomspace(0.5, 3.0, 12)
    y0 = LOGISTIC_Y0S[4]
    n_steps = np.ceil(30.0 / dts - 1e-9).astype(int)
    checks = _checks(logistic2, y0, BOUNDEDNESS)
    sufficient = (n.effective_ssp_coefficient(m)
                  * n.fe_property_bound(logistic2, y0))
    lo, hi = 1e-4 * sufficient, 10.0 * sufficient
    for level in range(0, 50):
        mid = 0.5 * (lo + hi)
        ok = not run_preservation_sweep(
            logistic2, m, PhiKind.PHI5, np.full(dts.size, mid), dts,
            np.tile(y0, (dts.size, 1)), n_steps,
            **checks).bound_violated.any()
        halves = (hi - mid, mid - lo) if ok else (mid - lo, hi - mid)
        if (level % 2 == 0 and ok == (side == "right")
                and halves[0] < halves[1]):
            tol = halves[0]
            break
        lo, hi = (mid, hi) if ok else (lo, mid)
    else:
        pytest.fail(f"no {side} level with unequal halves")
    report = sharpness_bisection(logistic2, m, PhiKind.PHI5, LOGISTIC_Y0S,
                                 dts, 30.0, BOUNDEDNESS, tol=tol)
    _assert_matches_oracle(report, _row_by_row(
        logistic2, m, PhiKind.PHI5, LOGISTIC_Y0S, dts, 30.0, BOUNDEDNESS,
        tol=tol))


def test_lockstep_sharpness_range_edges(logistic2):
    # y0 <= 1.9 hold only up to about the sufficient threshold (below
    # range), y0 = 2 is the fixed point and y0 = 4 holds beyond 1.5 times
    # it (at range top), y0 = 2.5 bisects
    m = get_method("sspms42")
    dts = np.geomspace(0.5, 3.0, 12)
    scale = (1.1, 1.5)
    report = sharpness_bisection(logistic2, m, PhiKind.PHI5, LOGISTIC_Y0S,
                                 dts, 30.0, BOUNDEDNESS, tol=1e-3,
                                 interval_scale=scale)
    oracle = _row_by_row(logistic2, m, PhiKind.PHI5, LOGISTIC_Y0S, dts,
                         30.0, BOUNDEDNESS, tol=1e-3, interval_scale=scale)
    _assert_matches_oracle(report, oracle)
    assert [r.status for r in report.rows] == [
        "below-range", "below-range", "below-range", "at-range-top", "ok",
        "at-range-top"]


def test_lockstep_sharpness_equals_row_by_row_seir(seir0):
    m = get_method("sspms43")
    labels = np.array([0.01, 0.2, 0.6, 0.95])
    states = np.stack([1.0 - labels, np.zeros_like(labels), labels,
                       np.zeros_like(labels)], axis=1)
    dts = np.geomspace(0.5, 3.0, 8)
    report = sharpness_bisection(seir0, m, PhiKind.PHI7, states, dts, 20.0,
                                 BOUNDEDNESS, labels=labels, tol=1e-3)
    oracle = _row_by_row(seir0, m, PhiKind.PHI7, states, dts, 20.0,
                         BOUNDEDNESS, tol=1e-3)
    _assert_matches_oracle(report, oracle)
    assert [r.y0_label for r in report.rows] == list(labels)


@pytest.mark.parametrize("cap", [1, 2 * 12 + 1])
def test_lockstep_sharpness_queued_groups(logistic2, monkeypatch, cap):
    # a cap below one row's dt grid still holds one tested threshold (one
    # group of 12 step sizes) at a time; a cap of two groups and one
    # element holds up to 25 elements, and the other groups wait in the
    # queue
    m = get_method("sspms42")
    dts = np.geomspace(0.5, 3.0, 12)
    whole = sharpness_bisection(logistic2, m, PhiKind.PHI5, LOGISTIC_Y0S,
                                dts, 30.0, WEAK_MONOTONICITY, tol=1e-3)
    sizes = []
    block_arrays = experiments._block_arrays

    def counting(count, b, m):
        sizes.append(b)
        return block_arrays(count, b, m)

    monkeypatch.setattr(experiments, "_block_arrays", counting)
    monkeypatch.setattr(experiments, "MAX_SWEEP_ELEMENTS", cap)
    queued = sharpness_bisection(logistic2, m, PhiKind.PHI5, LOGISTIC_Y0S,
                                 dts, 30.0, WEAK_MONOTONICITY, tol=1e-3)
    assert queued.to_csv() == whole.to_csv()
    assert dts.size <= max(sizes) <= max(cap, dts.size)
    # more than one group at once where two fit
    assert (max(sizes) > dts.size) == (cap > 2 * dts.size)
    _assert_matches_oracle(queued, _row_by_row(
        logistic2, m, PhiKind.PHI5, LOGISTIC_Y0S, dts, 30.0,
        WEAK_MONOTONICITY, tol=1e-3))


def test_lockstep_sharpness_admits_once_per_round(logistic2, monkeypatch):
    m = get_method("sspms42")
    dts = np.geomspace(0.5, 3.0, 12)
    counts = []
    admit = experiments._SweepPool.admit

    def counting(self, count, unit, take):
        counts.append(count)
        return admit(self, count, unit, take)

    monkeypatch.setattr(experiments._SweepPool, "admit", counting)
    report = sharpness_bisection(logistic2, m, PhiKind.PHI5, LOGISTIC_Y0S,
                                 dts, 30.0, BOUNDEDNESS, tol=1e-3)
    # the range ends join with the first round, then one admission per two
    # halvings of the widest bracket (ten times the sufficient threshold at
    # most)
    widest = 10.0 * max(r.sufficient_bound for r in report.rows)
    levels = math.ceil(math.log2(widest / 1e-3))
    assert len(counts) <= 1 + math.ceil(levels / 2)
    assert counts[0] >= 2 * LOGISTIC_Y0S.shape[0] * dts.size


@given(method_id=st.sampled_from(["sspms42", "sspms43", "sspms64"]),
       prop=st.sampled_from([BOUNDEDNESS, WEAK_MONOTONICITY]),
       data=st.data())
def test_pool_bisection_equals_row_by_row(logistic2, method_id, prop, data):
    # a few rows, step sizes and range scales (the narrow one ends rows
    # below range and at range top), in a pool so small that tested
    # thresholds wait in its queue; sspms43 and sspms64 read older slopes,
    # which every admission makes again.  Short horizons (one step or a
    # few at the largest step sizes) end runs that would fail later, and
    # that a bisection's pool steps on past their horizons
    m = get_method(method_id)
    picks = data.draw(st.lists(st.integers(0, len(LOGISTIC_Y0S) - 1),
                               min_size=1, max_size=4, unique=True))
    y0s = LOGISTIC_Y0S[sorted(picks)]
    dts = np.geomspace(0.5, 3.0, data.draw(st.integers(2, 6)))
    t_end = data.draw(st.sampled_from([3.0, 6.0, 10.0, 30.0]))
    scale = data.draw(st.sampled_from([(1e-4, 10.0), (1.1, 1.5)]))
    max_iter = data.draw(st.sampled_from([3, 60]))
    cap = data.draw(st.integers(1, 3)) * dts.size
    with mock.patch.object(experiments, "MAX_SWEEP_ELEMENTS", cap):
        report = sharpness_bisection(logistic2, m, PhiKind.PHI5, y0s, dts,
                                     t_end, prop, interval_scale=scale,
                                     tol=1e-2, max_iter=max_iter)
    _assert_matches_oracle(report, _row_by_row(
        logistic2, m, PhiKind.PHI5, y0s, dts, t_end, prop,
        interval_scale=scale, tol=1e-2, max_iter=max_iter))


# ---------------------------------------------------------------------------
# batched sweeps
# ---------------------------------------------------------------------------


def test_sweep_final_states_match_scalar_runs(logistic2):
    m = get_method("sspms64")
    y0s = np.array([[0.5], [1.7], [0.9]])
    dts = np.array([0.02, 0.01, 0.04])
    n_steps = 100
    bounds = (n.effective_ssp_coefficient(m)
              * logistic_fe_bounds(2.0, y0s[:, 0]))
    outcome = run_preservation_sweep(
        logistic2, m, PhiKind.PHI8, bounds, dts, y0s, n_steps,
        lower=0.0, upper=2.0, weak_direction=+1)
    assert not outcome.bound_violated.any()
    assert not outcome.weak_violated.any()
    for i in range(3):
        phi = n.DenominatorSpec(PhiKind.PHI8, bound=float(bounds[i]))
        traj = n.integrate(n.RunConfig(
            problem=logistic2, method=m, phi=phi, dt=float(dts[i]),
            t_end=float(n_steps * dts[i]), y0=y0s[i],
            record=n.RecordMode.FINAL_STATE_ONLY))
        assert outcome.final_states[i] == pytest.approx(
            traj.final_state, rel=1e-13)


def _mixed_batch(problem):
    """Four elements with their own y0, dt, horizon and threshold."""
    if problem.name == "logistic":
        y0s = np.array([[0.3], [1.1], [2.6], [0.05]])
    else:
        infected = np.array([0.2, 0.01, 0.6, 0.35])
        y0s = np.stack([1.0 - infected, 0.0 * infected, infected,
                        0.0 * infected], axis=1)
    dts = np.array([0.05, 0.2, 0.35, 0.1])
    n_steps = np.array([40, 25, 12, 33])
    return y0s, dts, n_steps


@pytest.mark.parametrize("method_id", n.MULTISTEP_IDS)
@pytest.mark.parametrize("problem_name", ["logistic", "seir"])
def test_batch_element_equals_scalar_run_bitwise(method_id, problem_name):
    # logistic starts from the closed form, SEIR from the Runge-Kutta
    # starter; both paths step through the same kernels
    problem = n.make_problem(problem_name)
    m = get_method(method_id)
    kind = ORDER_MATCHED_PHI[m.design_order]
    y0s, dts, n_steps = _mixed_batch(problem)
    bounds = np.array([n.effective_ssp_coefficient(m)
                       * n.fe_property_bound(problem, y0) for y0 in y0s])
    outcome = run_preservation_sweep(problem, m, kind, bounds, dts, y0s,
                                     n_steps)
    for i in range(len(dts)):
        traj = n.integrate(n.RunConfig(
            problem=problem, method=m,
            phi=n.DenominatorSpec(kind, bound=float(bounds[i])),
            dt=float(dts[i]), t_end=float(n_steps[i] * dts[i]), y0=y0s[i],
            record=n.RecordMode.FINAL_STATE_ONLY))
        assert (outcome.final_states[i] == traj.final_state).all(), i


@pytest.mark.parametrize("method_id", n.MULTISTEP_IDS)
@pytest.mark.parametrize("problem_name", ["logistic", "seir"])
def test_sweep_makes_one_rhs_call_per_step(method_id, problem_name):
    problem, calls = counting_rhs(n.make_problem(problem_name))
    m = get_method(method_id)
    y0s, dts, n_steps = _mixed_batch(problem)
    run_preservation_sweep(problem, m, PhiKind.PHI8, np.full(4, 0.1), dts,
                           y0s, n_steps)
    starter = 0
    if problem_name == "seir":
        rk = get_method(STARTER_FOR_ORDER[m.design_order][0])
        per_step = len({src for stage in rk.float_stages
                        for src, _a, b in stage if b != 0.0})
        starter = (m.steps - 1) * per_step
    assert calls[0] - starter == slope_evaluations(m, int(n_steps.max()))


def test_sweep_detects_violations_with_oversized_threshold(logistic2):
    m = get_method("sspms64")
    y0s = np.array([[3.0]])
    dts = np.array([0.5])
    outcome = run_preservation_sweep(
        logistic2, m, PhiKind.IDENTITY, np.array([1.0]), dts, y0s, 60,
        lower=2.0, weak_direction=-1)
    assert outcome.bound_violated.all()
    assert outcome.first_bound_step[0] > 0


def _outcome_fields(outcome):
    return (outcome.bound_violated, outcome.weak_violated,
            outcome.invariant_max_dev, outcome.first_bound_step,
            outcome.first_weak_step, outcome.final_states)


def test_sweep_array_checks_equal_scalar_calls(logistic2):
    # four groups of elements with their own checks, oversized thresholds
    # so that some of them fail
    m = get_method("sspms42")
    groups = [
        (np.array([0.3, 1.2]), dict(lower=0.0, upper=2.0, weak_direction=+1)),
        (np.array([2.5, 4.0]), dict(lower=2.0, weak_direction=-1)),
        (np.array([0.5, 1.5]), dict(upper=1.5)),
        (np.array([0.2, 0.8]), dict(weak_direction=+1)),
    ]
    dts = np.array([0.7, 2.0])
    bounds = np.array([0.4, 1.3])
    parts = [run_preservation_sweep(logistic2, m, PhiKind.PHI5, bounds, dts,
                                    y0s[:, None], 40, **checks)
             for y0s, checks in groups]
    lower = np.repeat([0.0, 2.0, -np.inf, -np.inf], 2)
    upper = np.repeat([2.0, np.inf, 1.5, np.inf], 2)
    direction = np.repeat([1, -1, 0, 1], 2)
    whole = run_preservation_sweep(
        logistic2, m, PhiKind.PHI5, np.tile(bounds, 4), np.tile(dts, 4),
        np.concatenate([y0s for y0s, _ in groups])[:, None], 40,
        lower=lower, upper=upper, weak_direction=direction)
    assert whole.bound_violated.any() and whole.weak_violated.any()
    assert not (whole.bound_violated.all() and whole.weak_violated.all())
    for got, parts_field in zip(_outcome_fields(whole),
                                zip(*map(_outcome_fields, parts))):
        assert np.array_equal(got, np.concatenate(parts_field),
                              equal_nan=True)


def test_sweep_nan_initial_state_violates_every_check(logistic2):
    m = get_method("sspms42")
    outcome = run_preservation_sweep(
        logistic2, m, PhiKind.PHI5, np.array([0.3, 0.3]),
        np.array([0.5, 0.5]), np.array([[np.nan], [1.0]]), 20,
        lower=0.0, upper=2.0, weak_direction=+1)
    assert list(outcome.bound_violated) == [True, False]
    assert list(outcome.weak_violated) == [True, False]
    # the startup states are monitored too, so both checks fail at the
    # NaN start itself, as a recorded run's monitors find
    assert outcome.first_bound_step[0] == 0
    assert outcome.first_weak_step[0] == 0


def test_sweep_overflowing_starter_prints_no_warnings(seir0, seir_y0):
    # an untransformed starter at large steps overflows before the first
    # multistep step; its states count as violations, not as warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcome = run_preservation_sweep(
            seir0, get_method("sspms64"), PhiKind.IDENTITY, 1.0,
            np.array([5.0, 50.0]), np.array([seir_y0, seir_y0]), 40,
            startup=n.RungeKuttaStartup("ssprk104", PhiKind.IDENTITY),
            lower=0.0, invariant_weights=np.ones(4))
    assert outcome.bound_violated.all()
    # the larger step leaves the region inside the six-step startup
    assert outcome.first_bound_step[1] == 1
    assert not np.isfinite(outcome.final_states[1]).any()
    assert not np.isfinite(outcome.invariant_max_dev[1])


def test_sweep_overflow_violates_lower_only_check():
    # u' = u^2 blows up upward: the states overflow to +inf and never cross
    # the lower bound, yet the non-finite state counts as a violation
    def exact(t, y0):
        y = np.asarray(y0, dtype=float)[..., 0]
        return (y / (1.0 - y * np.asarray(t, dtype=float)))[..., None]

    problem = OdeProblem(name="quadratic", dimension=1, params={},
                         rhs=lambda u: u * u, exact=exact)
    m = get_method("sspms42")
    dt, n_steps = 0.5, 200
    outcome = run_preservation_sweep(
        problem, m, PhiKind.IDENTITY, np.array([1.0]), np.array([dt]),
        np.array([[0.1]]), n_steps, startup=n.ExactStartup(), lower=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        traj = n.integrate(n.RunConfig(
            problem=problem, method=m, phi=n.DenominatorSpec(PhiKind.IDENTITY),
            dt=dt, t_end=n_steps * dt, y0=[0.1], startup=n.ExactStartup()))
    finite = np.isfinite(traj.states[:, 0])
    assert (traj.states[finite, 0] >= 0.0).all()
    assert not finite.all()
    assert outcome.bound_violated[0]
    assert outcome.first_bound_step[0] == np.argmin(finite)


def test_sweep_invariant_deviation_of_a_non_finite_run_is_inf(seir0,
                                                              seir_y0):
    # the untransformed runs end in -inf and inf components, whose sum is
    # NaN; the deviation is inf, as a recorded run's monitor reports it
    m = get_method("sspms42")
    startup = n.RungeKuttaStartup("ssprk22", PhiKind.IDENTITY)
    dts = np.array([1.0, 3.0])
    outcome = run_preservation_sweep(
        seir0, m, PhiKind.IDENTITY, 1.0, dts, np.array([seir_y0, seir_y0]),
        40, startup=startup, invariant_weights=np.ones(4))
    assert (outcome.invariant_max_dev == np.inf).all()
    for dt in dts:
        traj = n.integrate(n.RunConfig(
            problem=seir0, method=m, phi=n.DenominatorSpec(PhiKind.IDENTITY),
            dt=float(dt), t_end=40 * float(dt), y0=seir_y0, startup=startup))
        assert not np.isfinite(traj.final_state).all()
        report = n.check_linear_invariant(traj, np.ones(4), 0.0, 1.0)
        assert report.worst_margin == -np.inf


@pytest.mark.parametrize("checks", [
    {}, {"lower": 0.0}, {"lower": 0.0, "weak_direction": -1}])
def test_sweep_watches_the_invariant_to_the_horizon(seir0, seir_y0, checks):
    # the bound fails at step 2; the element still runs on and its sum goes
    # non-finite, whatever checks ride along (with the lower bound this
    # read 0.0 when the element stopped at its first failure)
    outcome = run_preservation_sweep(
        seir0, get_method("sspms42"), PhiKind.IDENTITY, 1.0,
        np.array([1.0]), seir_y0[None], 40,
        startup=n.RungeKuttaStartup("ssprk22", PhiKind.IDENTITY),
        invariant_weights=np.ones(4), **checks)
    assert outcome.invariant_max_dev[0] == np.inf
    assert not np.isfinite(outcome.final_states[0]).all()
    if checks:
        assert outcome.first_bound_step[0] == 2


@pytest.mark.parametrize("method_id", ["sspms42", "sspms64"])
def test_sweep_startup_none_is_the_default_startup(seir0, seir_y0,
                                                   method_id):
    # a Runge-Kutta starter for SEIR; None used to fail for s > 1
    m = get_method(method_id)
    args = (seir0, m, PhiKind.PHI8, 0.1, np.array([0.2, 0.5]),
            np.array([seir_y0, seir_y0]), 20)
    checks = dict(lower=0.0, invariant_weights=np.ones(4))
    _assert_same_outcome(
        run_preservation_sweep(*args, startup=None, **checks),
        run_preservation_sweep(
            *args, startup=experiments.default_startup(seir0, m), **checks))


@pytest.mark.parametrize("dt", [20.0, 50.0, 200.0])
def test_sweep_weak_check_covers_the_startup_states(seir0, seir_y0, dt):
    # the untransformed ssprk104 starter overflows inside the startup; the
    # weak check fails there, where a recorded run's monitor finds it
    m = get_method("sspms64")
    startup = n.RungeKuttaStartup("ssprk104", PhiKind.IDENTITY)
    outcome = run_preservation_sweep(
        seir0, m, PhiKind.IDENTITY, 1.0, np.array([dt]), seir_y0[None], 40,
        startup=startup, weak_direction=-1, weak_component=2)
    traj = n.integrate(n.RunConfig(
        problem=seir0, method=m, phi=n.DenominatorSpec(PhiKind.IDENTITY),
        dt=dt, t_end=40 * dt, y0=seir_y0, startup=startup))
    report = n.check_weak_monotonicity(traj, 2, m.steps, "decrease")
    assert report.first_violation.step < m.steps
    assert outcome.first_weak_step[0] == report.first_violation.step


@st.composite
def _recorded_runs(draw):
    """One untransformed run with an untransformed Runge-Kutta starter, so
    that a one-element sweep steps it with the same h: logistic, or SEIR
    with or without influx, with bounds on every component, a windowed
    check and the linear invariant of its property set (the state itself
    for logistic)."""
    problem = draw(st.sampled_from([n.logistic_problem(2.0),
                                    n.seir_problem(0.0),
                                    n.seir_problem(0.4)]))
    m = get_method(draw(st.sampled_from(n.MULTISTEP_IDS)))
    v = draw(st.floats(0.05, 0.95))
    if problem.dimension == 1:
        y0 = np.array([2.5 * v])
        weights, drift, level = (1.0,), 0.0, float(y0[0])
    else:
        y0 = np.array([1.0 - v, 0.1 * v, v, 0.0])
        inv = [p for p in n.default_properties(problem, y0)
               if p.kind is n.PropertyKind.LINEAR_INVARIANT][0]
        weights, drift, level = inv.weights, inv.drift, inv.level
    lower, upper = draw(st.sampled_from([(0.0, None), (None, 2.0),
                                         (0.0, 1.0), (0.0, 2.0)]))
    return dict(problem=problem, method=m, y0=y0,
                dt=draw(st.floats(0.05, 50.0)),
                n_steps=draw(st.integers(m.steps, 40)),
                startup=n.RungeKuttaStartup(
                    STARTER_FOR_ORDER[m.design_order][0], PhiKind.IDENTITY),
                lower=lower, upper=upper,
                direction=draw(st.sampled_from([-1, 1])),
                component=draw(st.integers(0, problem.dimension - 1)),
                weights=weights, drift=drift, level=level)


@settings(derandomize=True, max_examples=200)
@given(run=_recorded_runs())
def test_one_element_sweep_monitors_equal_recorded_run_monitors(run):
    # the sweep's online monitors and qualprops share their predicates, so
    # they agree exactly: first bound step, first weak step, and the
    # invariant's largest deviation (inf once the run is not finite)
    problem, m, y0, dt = run["problem"], run["method"], run["y0"], run["dt"]
    sweep = dict(problem=problem, method=m, phi_kind=PhiKind.IDENTITY,
                 bounds=1.0, dts=np.array([dt]), y0s=y0[None],
                 n_steps=run["n_steps"], startup=run["startup"])
    checked = run_preservation_sweep(
        **sweep, lower=run["lower"], upper=run["upper"],
        weak_direction=run["direction"], weak_component=run["component"])
    # the invariant alone stops no element, so it is watched to the horizon
    invariant = run_preservation_sweep(
        **sweep, invariant_weights=np.array(run["weights"]),
        invariant_drift=run["drift"])
    traj = n.integrate(n.RunConfig(
        problem=problem, method=m, phi=n.DenominatorSpec(PhiKind.IDENTITY),
        dt=dt, t_end=run["n_steps"] * dt, y0=y0, startup=run["startup"]))
    assert invariant.final_states[0].tobytes() == traj.final_state.tobytes()

    def first_step(report):
        violation = report.first_violation
        return -1 if violation is None else violation.step

    bounds = n.check_bounds(traj, None, upper=run["upper"],
                            lower=run["lower"])
    weak = n.check_weak_monotonicity(
        traj, run["component"], m.steps,
        "increase" if run["direction"] > 0 else "decrease")
    inv = n.check_linear_invariant(traj, run["weights"], run["drift"],
                                   run["level"])
    assert checked.first_bound_step[0] == first_step(bounds)
    assert checked.first_weak_step[0] == first_step(weak)
    assert invariant.invariant_max_dev[0] == -inv.worst_margin


def _assert_same_outcome(got, want):
    for got_field, want_field in zip(_outcome_fields(got),
                                     _outcome_fields(want)):
        assert got_field.shape == want_field.shape
        assert np.array_equal(got_field, want_field, equal_nan=True)


def test_blocked_sweep_equals_one_block_logistic(logistic2, monkeypatch):
    # per-element checks, mixed horizons and a NaN start; oversized
    # thresholds make some elements fail and freeze early
    m = get_method("sspms43")
    y0s = np.array([[0.3], [1.2], [2.5], [np.nan], [0.5], [1.5], [0.2],
                    [0.8], [4.0], [1.9], [0.05]])
    B = len(y0s)
    dts = np.linspace(0.2, 2.5, B)
    bounds = np.linspace(0.1, 1.4, B)
    n_steps = np.array([30, 7, 45, 12, 2, 38, 25, 40, 9, 33, 1])
    lower = np.array([0.0, 0.0, 2.0, 0.0, -np.inf, -np.inf, 0.0, -np.inf,
                      2.0, 0.0, -np.inf])
    upper = np.array([2.0, 2.0, np.inf, 2.0, 1.5, 1.5, 2.0, np.inf,
                      np.inf, 2.0, np.inf])
    direction = np.array([1, 1, -1, 1, 0, 0, 1, 1, -1, 0, 1])

    def sweep():
        return run_preservation_sweep(
            logistic2, m, PhiKind.PHI7, bounds, dts, y0s, n_steps,
            lower=lower, upper=upper, weak_direction=direction)

    whole = sweep()
    assert whole.bound_violated.any() and whole.weak_violated.any()
    assert not whole.bound_violated.all()
    monkeypatch.setattr(experiments, "MAX_SWEEP_ELEMENTS", 4)
    _assert_same_outcome(sweep(), whole)


def test_blocked_sweep_equals_one_block_seir_drift(monkeypatch):
    # Runge-Kutta starter, an invariant with drift, and checks that fail
    # for some elements inside their horizon; the invariant keeps those
    # elements running to their horizons, some into non-finite states
    problem, calls = counting_rhs(n.seir_problem(0.4))
    m = get_method("sspms64")
    infected = np.linspace(0.05, 0.9, 10)
    y0s = np.stack([1.0 - infected, 0.0 * infected, infected,
                    0.0 * infected], axis=1)
    dts = np.linspace(0.05, 0.9, 10)[::-1]
    bounds = np.linspace(0.05, 2.0, 10)
    n_steps = np.array([40, 12, 60, 25, 8, 55, 30, 6, 48, 20])

    def sweep():
        return run_preservation_sweep(
            problem, m, PhiKind.PHI8, bounds, dts, y0s, n_steps,
            lower=0.0, weak_direction=-1, weak_component=0,
            invariant_weights=np.ones(4), invariant_drift=0.4)

    whole = sweep()
    one_block_calls = calls[0]
    failed = whole.bound_violated & (whole.first_bound_step < n_steps)
    assert failed.any() and not failed.all()
    finite = np.isfinite(whole.invariant_max_dev)
    assert finite.any() and not finite.all()
    monkeypatch.setattr(experiments, "MAX_SWEEP_ELEMENTS", 4 * 3)
    blocked = sweep()
    assert calls[0] - one_block_calls > one_block_calls  # four blocks ran
    _assert_same_outcome(blocked, whole)


def _batch_sizes(problem):
    """``problem`` with an rhs that records the batch size of each call."""
    sizes = []

    def rhs(u):
        sizes.append(u.shape[0])
        return problem.rhs(u)

    return dataclasses.replace(problem, rhs=rhs), sizes


def test_compacted_sweep_equals_uncompacted_logistic(logistic2, monkeypatch):
    # the blocked test's batch: mixed horizons, per-element bounds and
    # directions, a NaN start and elements that fail early
    problem, sizes = _batch_sizes(logistic2)
    m = get_method("sspms43")
    y0s = np.array([[0.3], [1.2], [2.5], [np.nan], [0.5], [1.5], [0.2],
                    [0.8], [4.0], [1.9], [0.05]])
    B = len(y0s)
    n_steps = np.array([30, 7, 45, 12, 2, 38, 25, 40, 9, 33, 1])
    lower = np.array([0.0, 0.0, 2.0, 0.0, -np.inf, -np.inf, 0.0, -np.inf,
                      2.0, 0.0, -np.inf])
    upper = np.array([2.0, 2.0, np.inf, 2.0, 1.5, 1.5, 2.0, np.inf,
                      np.inf, 2.0, np.inf])
    direction = np.array([1, 1, -1, 1, 0, 0, 1, 1, -1, 0, 1])

    def sweep():
        sizes.clear()
        return run_preservation_sweep(
            problem, m, PhiKind.PHI7, np.linspace(0.1, 1.4, B),
            np.linspace(0.2, 2.5, B), y0s, n_steps, lower=lower,
            upper=upper, weak_direction=direction)

    compacted = sweep()
    assert min(sizes) < B
    monkeypatch.setattr(experiments, "COMPACT_AT", 0.0)
    whole = sweep()
    assert set(sizes) == {B}
    assert whole.bound_violated.any() and whole.weak_violated.any()
    _assert_same_outcome(compacted, whole)


def test_compacted_sweep_equals_uncompacted_seir(seir0, monkeypatch):
    # Runge-Kutta starter, checks that stop some elements early and
    # horizons that stop others; compaction fires several times in the one
    # block, also when an invariant is monitored.  The block's arrays (its
    # ring's state and slope slots and the kernel's work arrays) shrink
    # with the block's states.
    problem, sizes = _batch_sizes(seir0)
    bind = experiments._step_kernel
    scratch_shapes = []

    def spy(method, h, m, work):
        kernel = bind(method, h, m, work)

        def step(rhs, states, slopes, fslots):
            scratch_shapes.append({states[0].shape,
                                   *(buf.shape for buf in
                                     [*states, *fslots, *work])})
            return kernel(rhs, states, slopes, fslots)
        return step

    monkeypatch.setattr(experiments, "_step_kernel", spy)
    m = get_method("sspms64")
    infected = np.linspace(0.05, 0.9, 12)
    y0s = np.stack([1.0 - infected, 0.0 * infected, infected,
                    0.0 * infected], axis=1)
    dts = np.linspace(0.05, 0.9, 12)[::-1]
    bounds = np.linspace(0.05, 2.0, 12)
    n_steps = np.array([40, 12, 60, 25, 8, 55, 30, 6, 48, 20, 70, 3])

    def sweep(**invariant):
        sizes.clear()
        return run_preservation_sweep(
            problem, m, PhiKind.PHI8, bounds, dts, y0s, n_steps, lower=0.0,
            weak_direction=-1, weak_component=0, **invariant)

    compacted = sweep()
    assert len(set(sizes)) >= 3  # the full block and two compactions
    assert all(len(shapes) == 1 for shapes in scratch_shapes)
    assert compacted.bound_violated.any() and compacted.weak_violated.any()
    conserved = sweep(invariant_weights=np.ones(4))
    assert len(set(sizes)) >= 3
    monkeypatch.setattr(experiments, "COMPACT_AT", 0.0)
    _assert_same_outcome(compacted, sweep())
    _assert_same_outcome(conserved, sweep(invariant_weights=np.ones(4)))


def _sweep_slice(problem, m, args, sel):
    """``run_preservation_sweep`` on the elements ``sel`` of a batch whose
    per-element arguments are ``args``."""
    per_element = {key: value[sel] for key, value in args.items()
                   if isinstance(value, np.ndarray)}
    rest = {key: value for key, value in args.items()
            if not isinstance(value, np.ndarray)}
    return run_preservation_sweep(
        problem, m, PhiKind.PHI5 if m.design_order == 2 else PhiKind.PHI8,
        per_element.pop("bounds"), per_element.pop("dts"),
        per_element.pop("y0s"), per_element.pop("n_steps"),
        **per_element, **rest)


@st.composite
def _sweep_batches(draw):
    """A batch of 1 to 8 elements, each with its own start (sometimes
    NaN), step, threshold, horizon (some below s - 1) and checks."""
    problem_name = draw(st.sampled_from(["logistic", "seir"]))
    m = get_method(draw(st.sampled_from(n.MULTISTEP_IDS)))
    B = draw(st.integers(1, 8))
    floats = st.floats(0.02, 2.5)
    dts = np.array(draw(st.lists(floats, min_size=B, max_size=B)))
    args = {"bounds": np.array(draw(st.lists(floats, min_size=B,
                                             max_size=B))),
            "dts": dts,
            "n_steps": np.array(draw(st.lists(st.integers(0, 40),
                                              min_size=B, max_size=B))),
            "lower": np.array(draw(st.lists(
                st.sampled_from([-np.inf, 0.0, 0.5]), min_size=B,
                max_size=B))),
            "upper": np.array(draw(st.lists(
                st.sampled_from([np.inf, 1.2, 2.0]), min_size=B,
                max_size=B))),
            "weak_direction": np.array(draw(st.lists(
                st.sampled_from([-1, 0, 1]), min_size=B, max_size=B)))}
    starts = st.floats(0.05, 0.95)
    if draw(st.booleans()):
        starts = st.one_of(starts, st.just(np.nan))
    values = np.array(draw(st.lists(starts, min_size=B, max_size=B)))
    if problem_name == "logistic":
        problem = n.logistic_problem(2.0)
        args["y0s"] = 2.5 * values[:, None]
    else:
        problem = n.seir_problem(draw(st.sampled_from([0.0, 0.3])))
        args["y0s"] = np.stack([1.0 - values, 0.1 * values, values,
                                0.0 * values], axis=1)
        # a NaN start has no Euler bound to take the starter's from
        rk, kind = STARTER_FOR_ORDER[m.design_order]
        args["startup"] = n.RungeKuttaStartup(rk, kind, bound=0.1)
        args["weak_component"] = draw(st.integers(0, 3))
        if draw(st.booleans()):
            args["invariant_weights"] = (1.0, 0.5, 2.0, 1.0)
            args["invariant_drift"] = problem.params["influx"]
    return problem, m, args


@given(batch=_sweep_batches(), compact_at=st.sampled_from([0.0, 0.5]))
def test_sweep_elements_equal_their_own_sweeps(batch, compact_at):
    # whatever shares a batch, and whenever the batch compacts, each
    # element's outcome is its own sweep's
    problem, m, args = batch
    B = args["dts"].size
    with mock.patch.object(experiments, "COMPACT_AT", compact_at):
        whole = _sweep_slice(problem, m, args, slice(None))
        parts = [(np.array([i]), _sweep_slice(problem, m, args,
                                              slice(i, i + 1)))
                 for i in range(B)]
    for at, part in parts:
        for got, want in zip(_outcome_fields(whole), _outcome_fields(part)):
            assert np.array_equal(got[at], want, equal_nan=True)


def _batch_startup(problem, m, y0s, dts):
    """u^0..u^(s-1) of a batch, as the batch startup writes them."""
    s, (B, dim) = m.steps, y0s.shape
    arrays = integrate_mod._block_arrays(
        2 * s + 3 + integrate_mod.stage_slots(m), B, dim)
    states = integrate_mod._startup_states(
        problem, m, integrate_mod.default_startup(problem, m), y0s, dts,
        (arrays[:s], arrays[s:]))
    return [u.copy() for u in states]


@pytest.mark.parametrize("problem_name", ["logistic", "seir"])
def test_horizon_inside_the_startup_ends_at_its_startup_state(problem_name):
    # logistic starts sspms64 from its exact solution, SEIR with ssprk104
    # steps; a horizon n < s - 1 = 5 ends at u^n, alone and in a batch
    # with longer runs (n = 30) that step on
    m = get_method("sspms64")
    n_steps = np.array([0, 1, 2, 5, 30, 3, 4, 30, 0])
    B = n_steps.size
    dts = np.linspace(0.1, 0.5, B)
    if problem_name == "logistic":
        problem = n.logistic_problem(2.0)
        y0s = np.linspace(0.3, 1.5, B)[:, None]
    else:
        problem = n.seir_problem(0.0)
        infected = np.linspace(0.05, 0.6, B)
        y0s = np.stack([1.0 - infected, 0.0 * infected, infected,
                        0.0 * infected], axis=1)
    bounds = n.ssp_threshold(m, n.fe_property_bound(problem, y0s))
    startup = _batch_startup(problem, m, y0s, dts)
    whole = run_preservation_sweep(problem, m, PhiKind.PHI8, bounds, dts,
                                   y0s, n_steps, lower=-1.0)
    assert not whole.bound_violated.any()
    for i in np.flatnonzero(n_steps < m.steps):
        alone = run_preservation_sweep(
            problem, m, PhiKind.PHI8, bounds[i:i + 1], dts[i:i + 1],
            y0s[i:i + 1], n_steps[i], lower=-1.0)
        want = startup[n_steps[i]][i].tobytes()
        assert whole.final_states[i].tobytes() == want
        assert alone.final_states[0].tobytes() == want
    assert not np.array_equal(whole.final_states[4], startup[-1][4])


@pytest.mark.parametrize("n_steps, shown", [
    (-1, "-1"), (-10 ** 6, "-1000000"), (2.5, "2.5"), (2.9, "2.9"),
    ([3.7], "3.7"), (np.nan, "nan"), (np.inf, "inf"), ([4, -2], "-2")])
def test_sweep_refuses_bad_horizons(logistic2, n_steps, shown):
    B = np.size(n_steps)
    with pytest.raises(ConfigurationError,
                       match=rf"n_steps .*\(got {re.escape(shown)}\)"):
        run_preservation_sweep(logistic2, get_method("sspms42"),
                               PhiKind.PHI5, 0.3, np.full(B, 0.2),
                               np.full((B, 1), 0.5), n_steps)


@pytest.mark.parametrize("whole", [7.0, np.float64(7), [7.0, 7.0]])
def test_sweep_takes_whole_number_horizons(logistic2, whole):
    def sweep(n_steps):
        return run_preservation_sweep(
            logistic2, get_method("sspms42"), PhiKind.PHI5, 0.3,
            np.array([0.2, 0.4]), np.full((2, 1), 0.5), n_steps, lower=0.0)

    _assert_same_outcome(sweep(whole), sweep(7))


@pytest.mark.parametrize("weights", [(1.0, 1.0, 1.0, 1.0),
                                     (0.5, 2.0, 1.5, 0.25)])
@pytest.mark.parametrize("drift", [0.0, 0.3])
def test_one_element_sweep_invariant_equals_batch(weights, drift):
    # a one-row matrix product rounds some of these deviations differently
    # from a many-row one (12 to 18 of the 40), so the invariant's sum must
    # not be a matrix product
    problem = n.seir_problem(drift)
    m = get_method("sspms64")
    infected = np.linspace(0.02, 0.95, 40)
    y0s = np.stack([1.0 - infected, 0.3 * infected, infected,
                    0.1 * infected], axis=1)
    dts = np.geomspace(0.01, 2.0, 40)
    bounds = n.ssp_threshold(m, n.fe_property_bound(problem, y0s))
    checks = dict(invariant_weights=np.array(weights),
                  invariant_drift=drift)
    whole = run_preservation_sweep(problem, m, PhiKind.PHI8, bounds, dts,
                                   y0s, 100, **checks)
    for i in range(len(dts)):
        one = run_preservation_sweep(
            problem, m, PhiKind.PHI8, bounds[i:i + 1], dts[i:i + 1],
            y0s[i:i + 1], 100, **checks)
        for got, want in zip(_outcome_fields(whole), _outcome_fields(one)):
            assert np.array_equal(got[i:i + 1], want), i


def test_seir_block_stays_component_major(seir0, monkeypatch):
    # the states, slopes and work arrays of a SEIR block, and the slots
    # new states and slopes go into, are Fortran-ordered after the
    # Runge-Kutta startup and after compactions
    bind = experiments._step_kernel
    seen = []

    def spy(method, h, m, work):
        kernel = bind(method, h, m, work)

        def step(rhs, states, slopes, fslots):
            arrays = [*states, *work, *fslots,
                      *(f for f in slopes if f is not None)]
            seen.append((states[0].shape[0],
                         all(a.flags.f_contiguous for a in arrays)))
            return kernel(rhs, states, slopes, fslots)
        return step

    monkeypatch.setattr(experiments, "_step_kernel", spy)
    infected = np.linspace(0.05, 0.9, 12)
    y0s = np.stack([1.0 - infected, 0.0 * infected, infected,
                    0.0 * infected], axis=1)
    run_preservation_sweep(
        seir0, get_method("sspms64"), PhiKind.PHI8, np.linspace(0.05, 2, 12),
        np.linspace(0.05, 0.9, 12)[::-1], y0s,
        np.array([40, 12, 60, 25, 8, 55, 30, 6, 48, 20, 70, 3]), lower=0.0,
        invariant_weights=np.ones(4))
    assert len({size for size, _ in seen}) >= 3  # two compactions
    assert all(ordered for _, ordered in seen)


def _two_block_sweep(problem):
    """A SEIR sweep of 40 elements, in two blocks when a block holds 20:
    it starts through ssprk104 (sspms64's default starter), checks a
    bound and the invariant, and compacts as its horizons pass."""
    infected = np.linspace(0.05, 0.9, 40)
    y0s = np.stack([1.0 - infected, 0.0 * infected, infected,
                    0.0 * infected], axis=1)
    return run_preservation_sweep(
        problem, get_method("sspms64"), PhiKind.PHI8,
        np.linspace(0.05, 2.0, 40), np.geomspace(0.05, 0.9, 40)[::-1], y0s,
        6 + np.arange(40) % 37, lower=0.0, invariant_weights=np.ones(4))


def test_block_arrays_start_on_cache_lines(seir0, monkeypatch):
    # every array a block's step writes into (its ring's state and slope
    # slots and the kernel's work arrays) starts on a 64-byte boundary,
    # after startup and after compactions
    bind = experiments._step_kernel
    seen = []

    def spy(method, h, m, work):
        kernel = bind(method, h, m, work)

        def step(rhs, states, slopes, fslots):
            seen.append((states[0].shape[0],
                         {a.ctypes.data % 64 for a in
                          [*states, *fslots, *work]}))
            return kernel(rhs, states, slopes, fslots)
        return step

    monkeypatch.setattr(experiments, "_step_kernel", spy)
    monkeypatch.setattr(experiments, "MAX_SWEEP_ELEMENTS", 20 * 4)
    _two_block_sweep(seir0)
    assert len({size for size, _ in seen}) >= 4  # two blocks that compact
    assert all(offsets == {0} for _, offsets in seen)


def test_alignment_shows_in_no_sweep_result(seir0, monkeypatch):
    # the same sweep with every array of its blocks 8 bytes past a cache
    # line gives every outcome field byte for byte
    monkeypatch.setattr(experiments, "MAX_SWEEP_ELEMENTS", 20 * 4)
    aligned = _two_block_sweep(seir0)
    block_arrays = experiments._block_arrays
    offsets = set()

    def shifted(count, b, m):
        arrays = [a[1:, 0].reshape(m, b).T
                  for a in block_arrays(count, b * m + 1, 1)]
        offsets.update(a.ctypes.data % 64 for a in arrays)
        return arrays

    monkeypatch.setattr(experiments, "_block_arrays", shifted)
    moved = _two_block_sweep(seir0)
    assert offsets == {8}
    for field in dataclasses.fields(aligned):
        assert (getattr(moved, field.name).tobytes()
                == getattr(aligned, field.name).tobytes()), field.name


def test_starter_with_more_stages_than_free_arrays_equals_single_runs(
        seir0, monkeypatch):
    # a two-step method leaves its ssprk104 starter five of the eight
    # arrays it needs (the scratch pair, its input's slope and five stage
    # slots), so the startup makes three more; each element still equals
    # its single run (phi3 rounds alike on arrays and floats)
    method = multistep_method("SSPMS(2,1)", 2, {1: Fraction(3, 4),
                                                 2: Fraction(1, 4)},
                              {1: Fraction(5, 4)}, design_order=1)
    starter = n.RungeKuttaStartup("ssprk104", PhiKind.PHI3)
    made = []
    integrate_mod = sys.modules["nslmm.integrate"]
    block_arrays = integrate_mod._block_arrays

    def counting(count, b, m):
        made.append(count)
        return block_arrays(count, b, m)

    monkeypatch.setattr(integrate_mod, "_block_arrays", counting)
    infected = np.linspace(0.05, 0.9, 5)
    y0s = np.stack([1.0 - infected, 0.0 * infected, infected,
                    0.0 * infected], axis=1)
    bounds, dts = np.linspace(0.05, 0.5, 5), np.geomspace(0.05, 1.0, 5)
    outcome = run_preservation_sweep(seir0, method, PhiKind.PHI3, bounds,
                                     dts, y0s, 30, startup=starter)
    assert made == [3]
    for i in range(5):
        traj = n.integrate(n.RunConfig(
            problem=seir0, method=method,
            phi=n.DenominatorSpec(PhiKind.PHI3, bound=bounds[i]),
            dt=dts[i], t_end=30 * dts[i], y0=y0s[i], startup=starter,
            record=n.RecordMode.FINAL_STATE_ONLY))
        assert traj.final_state.tobytes() == \
            outcome.final_states[i].tobytes(), i


def test_seir_conservation_sweep_is_one_public_call(monkeypatch):
    # nine elements in blocks of at most four run as three blocks of three,
    # not 4 + 4 + 1, within the one public call
    m = get_method("sspms64")
    order = [0, 1, 2, 4, 5, 6, 7, 8, 3]
    infected = np.linspace(0.1, 0.9, 9)[order]
    y0s = np.stack([1.0 - infected, 0.0 * infected, infected,
                    0.0 * infected], axis=1)
    dts = np.geomspace(0.05, 2.0, 9)[order]
    whole = seir_conservation_sweep(m, PhiKind.PHI8, y0s, dts, n_steps=50)
    sizes = []
    original = experiments.run_preservation_sweep

    def counting(*args, **kwargs):
        sizes.append(len(args[4]))
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_preservation_sweep", counting)
    monkeypatch.setattr(experiments, "MAX_SWEEP_ELEMENTS", 4 * 4)
    blocked = seir_conservation_sweep(m, PhiKind.PHI8, y0s, dts, n_steps=50)
    assert sizes == [9]
    assert np.array_equal(blocked, whole)


@pytest.mark.parametrize("path", ["integrate", "sweep"])
def test_no_default_starter_is_a_configuration_error(seir0, seir_y0, path):
    m = dataclasses.replace(get_method("sspms42"), design_order=5)
    with pytest.raises(ConfigurationError,
                       match="no default starter for order 5"):
        if path == "integrate":
            n.integrate(n.RunConfig(
                problem=seir0, method=m,
                phi=n.DenominatorSpec(PhiKind.PHI5, bound=0.1), dt=0.5,
                t_end=5.0, y0=seir_y0))
        else:
            run_preservation_sweep(seir0, m, PhiKind.PHI5, np.array([0.1]),
                                   np.array([0.5]), seir_y0[None, :], 10)


@pytest.mark.parametrize("path", ["integrate", "sweep"])
def test_nan_start_with_runge_kutta_starter_is_a_configuration_error(
        seir0, path):
    # the starter's threshold needs the Euler bound at y0, and a NaN state
    # has none; the batched path used to take a bound of 1.0 there
    m = get_method("sspms42")
    y0 = np.array([0.8, np.nan, 0.2, 0.0])
    with pytest.raises(ConfigurationError, match="non-finite"):
        if path == "integrate":
            n.integrate(n.RunConfig(
                problem=seir0, method=m,
                phi=n.DenominatorSpec(PhiKind.PHI5, bound=0.1), dt=0.5,
                t_end=5.0, y0=y0))
        else:
            run_preservation_sweep(
                seir0, m, PhiKind.PHI5, np.array([0.1, 0.1]),
                np.array([0.5, 0.5]), np.array([[0.8, 0.0, 0.2, 0.0], y0]),
                10)


def test_nan_start_with_explicit_starter_bound_runs_and_violates(seir0):
    m = get_method("sspms42")
    starter = n.RungeKuttaStartup("ssprk22", PhiKind.PHI5, bound=0.2)
    y0s = np.array([[0.8, 0.0, 0.2, 0.0], [0.8, np.nan, 0.2, 0.0]])
    outcome = run_preservation_sweep(
        seir0, m, PhiKind.PHI5, np.array([0.1, 0.1]), np.array([0.5, 0.5]),
        y0s, 10, startup=starter, lower=0.0, weak_direction=-1)
    assert list(outcome.bound_violated) == [False, True]
    assert list(outcome.weak_violated) == [False, True]
    traj = n.integrate(n.RunConfig(
        problem=seir0, method=m,
        phi=n.DenominatorSpec(PhiKind.PHI5, bound=0.1), dt=0.5, t_end=5.0,
        y0=y0s[0], startup=starter,
        record=n.RecordMode.FINAL_STATE_ONLY))
    assert (outcome.final_states[0] == traj.final_state).all()


@pytest.mark.parametrize("bound", [-0.2, np.nan, np.inf])
@pytest.mark.parametrize("path", ["integrate", "sweep"])
def test_bad_explicit_starter_bound_is_rejected(seir0, seir_y0, path, bound):
    m = get_method("sspms42")
    starter = n.RungeKuttaStartup("ssprk22", PhiKind.PHI5, bound=bound)
    with pytest.raises(ValueError, match="positive finite bound"):
        if path == "integrate":
            n.integrate(n.RunConfig(
                problem=seir0, method=m,
                phi=n.DenominatorSpec(PhiKind.PHI5, bound=0.1), dt=0.5,
                t_end=5.0, y0=seir_y0, startup=starter))
        else:
            run_preservation_sweep(seir0, m, PhiKind.PHI5, np.array([0.1]),
                                   np.array([0.5]), seir_y0[None, :], 10,
                                   startup=starter)


@pytest.mark.parametrize("component", [-1, 4, 9])
def test_sweep_rejects_weak_component_out_of_range(seir0, seir_y0, component):
    with pytest.raises(ConfigurationError, match="weak_component"):
        run_preservation_sweep(
            seir0, get_method("sspms42"), PhiKind.PHI5, np.array([0.1]),
            np.array([0.5]), seir_y0[None, :], 10, weak_direction=-1,
            weak_component=component)


def _three_element_sweep(seir0, seir_y0, **kwargs):
    args = {"bounds": np.full(3, 0.1), "dts": np.full(3, 0.5),
            "n_steps": np.full(3, 10), **kwargs}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run_preservation_sweep(
            seir0, get_method("sspms42"), PhiKind.PHI5, args["bounds"],
            args["dts"], np.tile(seir_y0, (3, 1)), args["n_steps"],
            lower=0.0, invariant_weights=np.ones(4))


@pytest.mark.parametrize("name, value", [
    ("dts", np.full(2, 0.5)), ("dts", 0.5), ("dts", np.full((3, 1), 0.5)),
    ("bounds", np.full(2, 0.1)), ("n_steps", np.full(4, 10)),
    ("n_steps", np.full((3, 1), 10))])
def test_sweep_rejects_inputs_not_of_the_batch_shape(seir0, seir_y0, name,
                                                      value):
    # a 2-long dts used to fail in a numpy broadcast
    with pytest.raises(ConfigurationError, match=f"{name} has shape"):
        _three_element_sweep(seir0, seir_y0, **{name: value})


@pytest.mark.parametrize("problem, y0s", [
    (n.logistic_problem(2.0), np.ones((2, 2))),
    (n.logistic_problem(2.0), np.ones(2)),
    (n.seir_problem(), np.ones((2, 3)))],
    ids=["logistic-2x2", "logistic-1d", "seir-2x3"])
def test_sweep_rejects_states_not_of_the_problem_shape(problem, y0s):
    # a (2, 2) logistic batch used to fail in a numpy broadcast inside the
    # first admission, a 1-D one in an unpack
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"y0s has shape {y0s.shape}")):
        run_preservation_sweep(problem, get_method("sspms42"), PhiKind.PHI5,
                               0.1, np.full(y0s.shape[0], 0.5), y0s, 10,
                               lower=0.0)


@pytest.mark.parametrize("problem, y0_states, labels, match", [
    (n.logistic_problem(2.0), np.ones((2, 2)), None, "y0_states"),
    (n.seir_problem(), np.ones((1, 3)), None, "y0_states"),
    (n.logistic_problem(2.0), np.ones(2), None, "y0_states"),
    (n.logistic_problem(2.0), np.ones((2, 1)), [0.5], "labels"),
    (n.logistic_problem(2.0), np.ones((2, 1)), [[0.5], [1.0]], "labels"),
    (n.logistic_problem(2.0), np.ones((2, 1)), [0.5, 1.0, 2.0], "labels")],
    ids=["logistic-2x2", "seir-1x3", "logistic-1d", "short-labels",
         "column-labels", "extra-labels"])
def test_sharpness_rejects_states_or_labels_not_of_the_row_shape(
        problem, y0_states, labels, match):
    # these used to fail in a broadcast, an IndexError or a TypeError, or
    # (extra labels) drop the extra values silently
    with pytest.raises(ConfigurationError, match=f"{match} has shape"):
        sharpness_bisection(problem, get_method("sspms42"), PhiKind.PHI5,
                            y0_states, np.array([0.5, 1.0]), 5.0,
                            BOUNDEDNESS, labels=labels)


@pytest.mark.parametrize("dt", [np.inf, np.nan, -0.1, 0.0, 1e308])
def test_sweep_rejects_steps_not_positive_and_finite(seir0, seir_y0, dt):
    # dt=inf used to give NaN outcomes and numpy warnings, dt=-0.1 a bare
    # ValueError; 10 steps of 1e308 make a horizon that overflows
    with pytest.raises(ConfigurationError, match="dts must be positive"):
        _three_element_sweep(seir0, seir_y0,
                             dts=np.array([0.5, dt, 0.25]))


@pytest.mark.parametrize("bound", [np.inf, np.nan, -0.1, 0.0])
def test_sweep_rejects_thresholds_not_positive_and_finite(logistic2, bound):
    # bounds=inf used to step with h = 0 under phi4 and report no violation
    with pytest.raises(ConfigurationError, match="bounds must be positive"):
        run_preservation_sweep(
            logistic2, get_method("sspms42"), PhiKind.PHI4,
            np.array([bound]), np.array([0.5]), np.array([[1.0]]), 10,
            lower=0.0, upper=2.0)


def test_sweep_rejects_invariant_weights_not_of_the_state_length(seir0,
                                                                 seir_y0):
    with pytest.raises(ConfigurationError, match="invariant_weights"):
        run_preservation_sweep(
            seir0, get_method("sspms42"), PhiKind.PHI5, np.array([0.1]),
            np.array([0.5]), seir_y0[None, :], 10,
            invariant_weights=np.ones(3))


def test_sweep_takes_one_bound_and_horizon_for_the_batch(seir0, seir_y0):
    one = _three_element_sweep(seir0, seir_y0, bounds=0.1, n_steps=10)
    _assert_same_outcome(one, _three_element_sweep(seir0, seir_y0))


@pytest.mark.parametrize("t_end, tol", [
    (-5.0, 1e-4), (0.0, 1e-4), (np.nan, 1e-4), (np.inf, 1e-4),
    (5.0, np.nan), (5.0, -1e-4)])
def test_sharpness_rejects_bad_horizon_or_tolerance(logistic2, t_end, tol):
    with pytest.raises(ConfigurationError):
        sharpness_bisection(logistic2, get_method("sspms42"), PhiKind.PHI5,
                            np.array([[1.0]]), np.array([0.5, 1.0]), t_end,
                            BOUNDEDNESS, tol=tol)


@pytest.mark.parametrize("scale", [(0.0, 1.0), (10.0, 1e-4), (1.0, 1.0),
                                   (-1.0, 1.0), (1e-4, np.inf),
                                   (np.nan, 10.0)])
def test_sharpness_rejects_bad_interval_scale(logistic2, scale):
    # 0 < lower < upper, both finite, or no bisection is made
    with pytest.raises(ConfigurationError, match="interval_scale"):
        sharpness_bisection(logistic2, get_method("sspms42"), PhiKind.PHI5,
                            np.array([[1.0]]), np.array([0.5, 1.0]), 5.0,
                            BOUNDEDNESS, interval_scale=scale)


def test_sweep_refuses_batches_over_the_size_limit(seir0):
    # broadcast views allocate nothing: a billion-element batch costs only
    # its refusal, which comes before any full-size array is made
    n_elements = 10 ** 9
    y0s = np.broadcast_to(np.array([0.8, 0.0, 0.2, 0.0]), (n_elements, 4))
    dts = np.broadcast_to(0.1, (n_elements,))
    counted, calls = counting_rhs(seir0)
    assert sweep_bytes(n_elements, 4) > integrate_mod.MAX_RECORD_BYTES
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError, match="MiB limit"):
            run_preservation_sweep(counted, get_method("sspms42"),
                                   PhiKind.PHI5, 0.1, dts, y0s, 10,
                                   lower=0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert calls[0] == 0


def test_sweep_size_limit_is_the_sweeps_size(seir0, seir_y0, monkeypatch):
    y0s = np.broadcast_to(seir_y0, (3, 4))
    dts = np.array([0.1, 0.2, 0.3])
    m = get_method("sspms42")
    monkeypatch.setattr(integrate_mod, "MAX_RECORD_BYTES", sweep_bytes(3, 4))
    run_preservation_sweep(seir0, m, PhiKind.PHI5, 0.1, dts, y0s, 10)
    monkeypatch.setattr(integrate_mod, "MAX_RECORD_BYTES",
                        sweep_bytes(3, 4) - 1)
    with pytest.raises(ConfigurationError, match="MiB limit"):
        run_preservation_sweep(seir0, m, PhiKind.PHI5, 0.1, dts, y0s, 10)


def test_sweep_work_limit_is_its_elements_rhs_evaluations(seir0, seir_y0,
                                                          monkeypatch):
    # every element counts to the longest horizon, as a block steps in
    # lockstep to its last active step
    counted, calls = counting_rhs(seir0)
    y0s = np.broadcast_to(seir_y0, (3, 4))
    dts = np.array([0.1, 0.2, 0.3])
    n_steps = np.array([10, 30, 20])
    m = get_method("sspms42")
    monkeypatch.setattr(integrate_mod, "MAX_WORK", 3 * 30 * 4)
    run_preservation_sweep(counted, m, PhiKind.PHI5, 0.1, dts, y0s, n_steps)
    calls[0] = 0
    monkeypatch.setattr(integrate_mod, "MAX_WORK", 3 * 30 * 4 - 1)
    with pytest.raises(ConfigurationError, match="rhs evaluations"):
        run_preservation_sweep(counted, m, PhiKind.PHI5, 0.1, dts, y0s,
                               n_steps)
    assert calls[0] == 0


def test_sharpness_work_limit_counts_every_level(logistic2, monkeypatch):
    # two rows of three step sizes up to 10 steps, at the two range ends
    # and at most four bisection levels
    counted, calls = counting_rhs(logistic2)

    def bisect():
        return sharpness_bisection(
            counted, get_method("sspms42"), PhiKind.PHI5,
            np.array([[0.5], [1.0]]), np.array([0.5, 1.0, 2.0]), 5.0,
            BOUNDEDNESS, max_iter=4)

    monkeypatch.setattr(integrate_mod, "MAX_WORK", 2 * (2 + 4) * 3 * 10)
    assert len(bisect().rows) == 2
    calls[0] = 0
    monkeypatch.setattr(integrate_mod, "MAX_WORK", 2 * (2 + 4) * 3 * 10 - 1)
    with pytest.raises(ConfigurationError, match="rhs evaluations"):
        bisect()
    assert calls[0] == 0


@pytest.mark.parametrize("dt", [1e-300, 5e-324])
def test_sharpness_that_cannot_finish_is_refused(logistic2, dt):
    # 1e300 steps, or a horizon whose step count overflows a float
    with pytest.raises(ConfigurationError, match="rhs evaluations"):
        sharpness_bisection(logistic2, get_method("sspms42"), PhiKind.PHI5,
                            np.array([[0.5]]), np.array([dt, 0.5]), 5.0,
                            BOUNDEDNESS)


def _sweep_peak(problem, n_elements, checks):
    y0 = [0.5] if problem.dimension == 1 else [0.8, 0.0, 0.2, 0.0]
    y0s = np.repeat(np.array([y0]), n_elements, axis=0)
    dts = np.linspace(0.01, 0.5, n_elements)
    bounds = np.full(n_elements, 0.3)
    tracemalloc.start()
    try:
        run_preservation_sweep(problem, get_method("sspms42"), PhiKind.PHI5,
                               bounds, dts, y0s, 6, **checks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("problem_name", ["logistic", "seir"])
def test_sweep_bytes_matches_a_sweeps_growth_per_element(problem_name):
    # blocks hold a bounded number of elements, so what a sweep's peak
    # gains per element is what the guard models
    problem = n.make_problem(problem_name)
    checks = {"lower": 0.0, "upper": 2.0, "weak_direction": -1}
    if problem_name == "seir":
        checks["invariant_weights"] = np.ones(4)
    small, large = 50_000, 150_000
    growth = (_sweep_peak(problem, large, checks)
              - _sweep_peak(problem, small, checks))
    model = sweep_bytes(large - small, problem.dimension)
    assert 0.8 <= growth / model <= 1.0


def test_sharpness_refuses_grids_over_the_size_limit(logistic2,
                                                     monkeypatch):
    monkeypatch.setattr(integrate_mod, "MAX_RECORD_BYTES",
                        experiments.sharpness_bytes(2, 3))
    with pytest.raises(ConfigurationError, match="MiB limit"):
        sharpness_bisection(logistic2, get_method("sspms42"), PhiKind.PHI5,
                            np.array([[0.5], [1.0]]), np.array([0.5, 1, 2, 3]),
                            5.0, BOUNDEDNESS)
    report = sharpness_bisection(
        logistic2, get_method("sspms42"), PhiKind.PHI5,
        np.array([[0.5], [1.0]]), np.array([0.5, 1, 2]), 5.0, BOUNDEDNESS)
    assert len(report.rows) == 2


def test_sharpness_needs_the_problems_checks():
    flat = OdeProblem(name="flat", dimension=1, params={},
                      rhs=lambda u: 0.0 * u,
                      exact=lambda t, y0: np.asarray(y0, float) + 0.0 * t,
                      bound_rule=lambda y0: np.ones(np.shape(y0)[:-1]))
    with pytest.raises(ConfigurationError, match="no sharpness property set"):
        sharpness_bisection(flat, get_method("sspms42"), PhiKind.PHI5,
                            np.array([[1.0]]), np.array([0.5]), 5.0,
                            BOUNDEDNESS)


@pytest.mark.parametrize("prop", [BOUNDEDNESS, WEAK_MONOTONICITY])
def test_sharpness_logistic_rows_below_zero_check_their_own_set(logistic2,
                                                                prop):
    # bounded above by y0 and decreasing, for every step size: before the
    # blow-up at ln(1 - c/y0)/c every row holds to the top of its range;
    # past it (y0 = -1 at T = 1) the states go non-finite
    m = get_method("sspms42")
    dts = np.geomspace(0.01, 0.1, 5)
    y0s = np.array([[-1.0], [-0.01]])
    top = float(np.finfo(float).max)
    report = sharpness_bisection(logistic2, m, PhiKind.PHI5, y0s, dts, 0.1,
                                 prop)
    assert [(r.empirical_bound, r.status) for r in report.rows] == [
        (top, "at-range-top")] * 2
    report = sharpness_bisection(logistic2, m, PhiKind.PHI5, y0s, dts, 1.0,
                                 prop)
    assert [r.status for r in report.rows] == ["below-range", "at-range-top"]


def test_sharpness_seir_weak_check_on_recovered_is_an_increase(seir0):
    # R only grows; checked as a decrease, every row was below range
    m = get_method("sspms42")
    labels = np.array([0.1, 0.3, 0.5])
    report = sharpness_bisection(seir0, m, PhiKind.PHI5,
                                 seir0.sharpness_states(labels),
                                 np.geomspace(0.5, 3.0, 5), 20.0,
                                 WEAK_MONOTONICITY, labels=labels,
                                 weak_component=3, tol=1e-3)
    for row in report.rows:
        assert row.status in ("ok", "at-range-top")
        assert row.empirical_bound >= row.sufficient_bound - 1e-3


@pytest.mark.parametrize("influx, component", [
    (0.0, 1), (0.0, 2), (0.1, 0), (0.0, 4)])
def test_sharpness_refuses_a_component_without_a_weak_check(influx,
                                                            component):
    # E and I are not monotone, S decreases only without influx
    problem = n.seir_problem(influx)
    with pytest.raises(ConfigurationError,
                       match=f"weak_component {component}"):
        sharpness_bisection(problem, get_method("sspms42"), PhiKind.PHI5,
                            problem.sharpness_states(np.array([0.2])),
                            np.array([0.5, 1.0]), 5.0, WEAK_MONOTONICITY,
                            weak_component=component)


def test_logistic_preservation_grid_small():
    m = get_method("sspms42")
    outcome = logistic_preservation_grid(
        2.0, np.array([0.3, 1.0, 1.9]), np.array([0.7, 5.0, 80.0]),
        m, PhiKind.PHI5, n_steps=300)
    assert not outcome.bound_violated.any()
    assert not outcome.weak_violated.any()


def test_logistic_preservation_grid_checks_each_rows_property_set():
    # above c a row is bounded by [c, y0] and decreases, below 0 it is
    # bounded above by y0 and decreases; the old fixed checks ([0, c] and
    # an increase) failed both.  Eight steps of at most 0.05 end before
    # the row below 0 blows up, at ln(5)/2.
    m = get_method("sspms42")
    outcome = logistic_preservation_grid(
        2.0, np.array([-0.5, 0.5, 2.0, 3.0]), np.array([0.02, 0.05]),
        m, PhiKind.PHI5, n_steps=8)
    assert not outcome.bound_violated.any()
    assert not outcome.weak_violated.any()


def test_seir_conservation_sweep_small(seir_y0):
    m = get_method("sspms64")
    devs = seir_conservation_sweep(
        m, PhiKind.PHI8, np.tile(seir_y0, (4, 1)),
        np.array([0.25, 1.0, 7.0, 40.0]), n_steps=200)
    assert devs.shape == (4,)
    assert devs.max() <= 1e-12 * 200


# ---------------------------------------------------------------------------
# settled sweep blocks
# ---------------------------------------------------------------------------


def _settled_and_stepped(problem, sweep, monkeypatch):
    """The outcome and ``rhs`` calls of ``sweep(problem)`` as it runs, and
    with the settled-block stop off: no ring ever repeats bit for bit."""
    counted, calls = counting_rhs(problem)
    settled = sweep(counted)
    settled_calls = calls[0]
    with monkeypatch.context() as patch:
        patch.setattr(experiments, "_same_rows",
                      lambda a, b: np.zeros(a.shape[0], dtype=bool))
        stepped = sweep(counted)
    return settled, settled_calls, stepped, calls[0] - settled_calls


def _assert_same_bytes(got, want):
    for got_field, want_field in zip(_outcome_fields(got),
                                     _outcome_fields(want)):
        assert got_field.dtype == want_field.dtype
        assert got_field.shape == want_field.shape
        assert got_field.tobytes() == want_field.tobytes()


def test_settled_block_stop_keeps_non_finite_and_signed_zero_starts(
        logistic2, monkeypatch):
    # a NaN ring repeats bit for bit, payload and all; a -0.0 start whose
    # closed-form startup states are +0.0 is no repeat until the ring is
    # +0.0 throughout.  The NaN element has no check to fail, so it runs
    # to the longest horizon.
    m = get_method("sspms42")
    y0s = np.array([[np.nan], [-0.0], [0.0], [0.5], [-0.3], [2.5]])
    dts = np.array([0.3, 0.3, 0.7, 0.2, 0.4, 1.1])
    n_steps = np.array([400, 41, 9, 400, 35, 57])

    def sweep(problem):
        return run_preservation_sweep(
            problem, m, PhiKind.PHI5, np.full(6, 0.1), dts, y0s, n_steps,
            lower=np.array([-np.inf, 0.0, 0.0, 0.0, -np.inf, 2.0]),
            upper=np.array([np.inf, 2.0, 2.0, 2.0, 0.5, np.inf]),
            weak_direction=np.array([0, 1, 1, 1, -1, -1]))

    settled, settled_calls, stepped, stepped_calls = _settled_and_stepped(
        logistic2, sweep, monkeypatch)
    _assert_same_bytes(settled, stepped)
    assert np.isnan(settled.final_states[0, 0])
    assert settled_calls < stepped_calls


def test_settled_block_stops_before_its_longest_horizon(logistic2):
    # one sspms42 run from 0.5 settles on a bit-for-bit fixed point within
    # about 80 steps; without the stop it would make one rhs call per step
    # to its horizon
    m = get_method("sspms42")
    problem, calls = counting_rhs(logistic2)
    run_preservation_sweep(problem, m, PhiKind.PHI5, np.array([0.4]),
                           np.array([0.3]), np.array([[0.5]]), 2000,
                           lower=0.0, upper=2.0)
    assert calls[0] < 100 < slope_evaluations(m, 2000)


@pytest.mark.parametrize("influx, stops", [(0.0, True), (0.1, False)])
def test_settled_block_stop_waits_for_a_fixed_invariant_target(
        monkeypatch, influx, stops):
    # with drift, the invariant's target moves at every step, so even a
    # repeating ring has later deviations to record; every ring is taken
    # for a repeat here
    problem, calls = counting_rhs(n.seir_problem(influx))
    m = get_method("sspms64")
    infected = np.array([0.2, 0.5, 0.05])
    y0s = np.stack([1.0 - infected, 0.0 * infected, infected,
                    0.0 * infected], axis=1)
    monkeypatch.setattr(experiments, "_same_rows",
                        lambda a, b: np.ones(a.shape[0], dtype=bool))
    run_preservation_sweep(
        problem, m, PhiKind.PHI8, np.full(3, 0.2), np.array([0.1, 0.3, 0.2]),
        y0s, np.array([50, 80, 65]), invariant_weights=np.ones(4),
        invariant_drift=influx)
    starter = (m.steps - 1) * integrate_mod.rhs_calls(get_method("ssprk104"))
    stepped = m.steps if stops else 80
    assert calls[0] - starter == slope_evaluations(m, stepped)


def _settling_pool(problem):
    """A logistic sspms42 bisection pool of two groups of three elements
    each, from 0.5 with dt 0.25 to 0.35 and horizons of 2000 steps, bounded
    to [0, 2]: group 0 at threshold 0.4 settles on its fixed point within
    about 100 steps, group 1 at 1e-5 creeps and never settles."""
    m = get_method("sspms42")
    pool = experiments._SweepPool(problem, m,
                                  integrate_mod.default_startup(problem, m),
                                  check_bounds=True, check_weak=False)
    thresholds = np.repeat([0.4, 1e-5], 3)
    dts = np.tile([0.25, 0.3, 0.35], 2)

    def take(a, b):
        return {"phis": experiments.phi_value(
                    PhiKind.PHI5, thresholds[a:b], dts[a:b]),
                "dts": dts[a:b], "y0s": np.full((b - a, 1), 0.5),
                "n_steps": np.full(b - a, 2000),
                "direction": np.zeros(b - a, dtype=int),
                "group": np.repeat([0, 1], 3)[a:b],
                **experiments._bound_inputs(np.zeros(b - a),
                                            np.full(b - a, 2.0))}

    pool.admit(6, 3, take)
    return pool


def test_settled_group_is_decided_before_its_horizon(logistic2,
                                                     monkeypatch):
    problem, calls = counting_rhs(logistic2)

    def run():
        decided = {}

        def on_decided(groups, held):
            for g, h in zip(groups.tolist(), held.tolist()):
                decided[g] = (h, calls[0])
            return False

        calls[0] = 0
        _settling_pool(problem).run(on_decided)
        return decided

    decided = run()
    horizon = slope_evaluations(get_method("sspms42"), 2000)
    # both hold; the settling group is decided long before its horizon,
    # the creeping one at it
    assert decided[0][0] and decided[1][0]
    assert decided[0][1] < 200 < horizon <= decided[1][1]
    # with the settle compare never matching, every element steps to its
    # horizon, and both groups still hold
    monkeypatch.setattr(experiments, "_same_rows",
                        lambda a, b: np.zeros(a.shape[0], dtype=bool))
    decided = run()
    assert decided[0][0] and decided[1][0]
    assert decided[0][1] >= horizon


# ---------------------------------------------------------------------------
# transform benchmark
# ---------------------------------------------------------------------------


def test_phi_benchmark_schema_and_guardrails():
    with pytest.raises(ValueError):
        phi_benchmark(n_evals=10_000)
    report = phi_benchmark([PhiKind.PHI3, PhiKind.IDENTITY],
                           n_evals=10 ** 6, reps=2)
    assert [r.phi for r in report.rows] == ["phi3", "identity"]
    assert all(r.evals == 10 ** 6 for r in report.rows)
    assert all(r.seconds > 0 for r in report.rows)
    lines = report.to_csv().splitlines()
    assert lines[0] == "phi,evals,seconds"
    assert len(lines) == 3


def test_phi_benchmark_interleaves_repetitions_across_kinds(monkeypatch):
    calls = []

    def record(kind, bound, x, p=None):
        calls.append(kind)
        return x

    monkeypatch.setattr(experiments, "phi_value", record)
    kinds = [PhiKind.PHI1, PhiKind.PHI3, PhiKind.IDENTITY]
    report = phi_benchmark(kinds, n_evals=10 ** 6, reps=3)
    assert calls == kinds * 3
    assert [r.phi for r in report.rows] == ["phi1", "phi3", "identity"]


def _bench_ratios(rounds: int = 12) -> dict:
    """Per kind, the median over ``rounds`` short benchmark calls of its
    time over phi3's in the same call.  Each call goes once round the
    kinds, so phi2 and phi3 run back to back: a slow spell of the host
    slows both sides of most ratios alike, where the fastest of separate
    calls compares moments that spell may have missed."""
    ratios = {}
    for _ in range(rounds):
        times = {row.phi: row.seconds
                 for row in phi_benchmark(n_evals=10 ** 6, reps=1).rows}
        for kind, seconds in times.items():
            ratios.setdefault(kind, []).append(seconds / times["phi3"])
    return {kind: statistics.median(r) for kind, r in ratios.items()}


def test_phi_benchmark_exponentials_cost_more_than_plain_arithmetic():
    # the robust slice of the timing ordering on vectorized hardware
    t = _bench_ratios()
    assert t["identity"] < min(v for k, v in t.items() if k != "identity")
    assert t["phi1"] > 1.5 * t["phi3"]
    assert t["phi2"] > 1.5 * t["phi3"]


@pytest.mark.xfail(
    strict=False,
    reason="under vectorized evaluation the cost is dominated by array "
           "memory traffic, so arctan/pow kinds can outweigh the "
           "exponential ones; the full scalar-evaluation ordering is not "
           "reproducible at this scale")
def test_phi_benchmark_full_ordering():
    t = _bench_ratios()
    algebraic = ["phi3", "phi4", "phi5", "phi6", "phi7", "phi8"]
    for slow in ("phi1", "phi2"):
        for fast in algebraic:
            assert t[slow] > t[fast], (slow, fast)
    spread = [t[k] for k in algebraic]
    assert max(spread) <= 2.5 * min(spread)


# ---------------------------------------------------------------------------
# bisection pools
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cap, steps, admissions, compactions", [
    (None, 685, 8, 13), (2000, 977, 18, 8)])
def test_bisection_pool_schedule(logistic2, monkeypatch, cap, steps,
                                 admissions, compactions):
    # the benchmark's bisection shape (10 rows of 100 step sizes), alone in
    # the pool and with tested thresholds queued 20 groups at a time: the
    # pool steps, admits and compacts where it did when every passed
    # horizon was an event, and makes far fewer events than steps
    if cap is not None:
        monkeypatch.setattr(experiments, "MAX_SWEEP_ELEMENTS", cap)
    sizes = []
    block_arrays = experiments._block_arrays

    def counting(count, b, m):
        sizes.append(b)
        return block_arrays(count, b, m)

    monkeypatch.setattr(experiments, "_block_arrays", counting)
    report = sharpness_bisection(
        logistic2, get_method("sspms42"), PhiKind.PHI5,
        np.linspace(0.25, 5.0, 10)[:, None], np.geomspace(0.5, 3.0, 100),
        100.0, BOUNDEDNESS, tol=1e-4)
    pool = report.config["pool"]
    assert {key: pool[key] for key in ("steps", "admissions",
                                       "compactions")} == {
        "steps": steps, "admissions": admissions, "compactions": compactions}
    assert len(sizes) == admissions + compactions
    assert pool["events"] < steps / 4


def _seir_block():
    # one block of the benchmark's SEIR sweep: 20 infected fractions x 200
    # step sizes, 200 steps, every element held to its horizon by the
    # invariant it watches
    infected, dts = np.meshgrid(np.linspace(0.001, 0.999, 20),
                                np.geomspace(0.01, 3.0, 200), indexing="ij")
    infected = infected.ravel()
    zeros = 0.0 * infected
    seir_conservation_sweep(
        get_method("sspms64"), PhiKind.PHI8,
        np.stack([1.0 - infected, zeros, infected, zeros], axis=1),
        dts.ravel(), n_steps=200)


def _logistic_grid(method_id):
    # elements that fail every check, pass their horizons and settle
    outcome = logistic_preservation_grid(
        2.0, np.linspace(-0.5, 3.0, 20), np.geomspace(0.01, 5.0, 100),
        get_method(method_id), PhiKind.PHI5, n_steps=400)
    assert outcome.bound_violated.any() and outcome.weak_violated.any()


def _compacting_sweep():
    # every other element stops at 12 steps, so the block compacts to the
    # rest, of which some fail their checks before their 300th step
    y0s = np.repeat(np.linspace(0.1, 3.0, 20), 30)[:, None]
    dts = np.tile(np.geomspace(0.01, 5.0, 30), 20)
    run_preservation_sweep(
        n.logistic_problem(2.0), get_method("sspms42"), PhiKind.PHI5,
        np.full(600, 0.4), dts, y0s, np.where(np.arange(600) % 2, 300, 12),
        lower=0.0, upper=2.0, weak_direction=-1)


@pytest.mark.parametrize("sweep, counts", [
    (_seir_block, (195, 1, 0, 2)),
    (lambda: _logistic_grid("sspms42"), (397, 1, 0, 173)),
    (lambda: _logistic_grid("sspms64"), (395, 1, 0, 117)),
    (_compacting_sweep, (297, 1, 1, 58))],
    ids=["seir-block", "grid-sspms42", "grid-sspms64", "compacting"])
def test_sweep_pool_schedule(monkeypatch, sweep, counts):
    # each sweep is one block, run by one pool: its lockstep steps,
    # admissions, compactions and events
    runs = []
    run = experiments._SweepPool.run

    def counting(pool, *args):
        run(pool, *args)
        runs.append(tuple(pool.counts[key] for key in (
            "steps", "admissions", "compactions", "events")))

    monkeypatch.setattr(experiments._SweepPool, "run", counting)
    sweep()
    assert runs == [counts]


def _bisection_pool(problem, phis, dts, y0s, n_steps, groups, upper):
    """A grouped sspms42 pool without results, as a bisection makes, of
    hand-made elements that all join at its start: per element its
    transformed step, step size, initial value, horizon, group and upper
    bound (a lower bound of 0)."""
    m = get_method("sspms42")
    pool = experiments._SweepPool(problem, m,
                                  integrate_mod.default_startup(problem, m),
                                  check_bounds=True, check_weak=False)
    columns = [np.asarray(c) for c in (phis, dts, y0s, n_steps, groups,
                                       upper)]

    def take(a, b):
        phis, dts, y0s, n_steps, groups, upper = (c[a:b] for c in columns)
        return {"phis": phis, "dts": dts, "y0s": y0s[:, None],
                "n_steps": n_steps, "direction": np.zeros(b - a, dtype=int),
                "group": groups,
                **experiments._bound_inputs(np.zeros(b - a), upper)}

    pool.admit(columns[0].size, columns[0].size, take)
    return pool


def _verdicts(pool) -> list:
    """The (group, held) pairs a pool's run decides, in order."""
    decided = []

    def on_decided(groups, held):
        decided.extend(zip(groups.tolist(), held.tolist()))
        return False

    pool.run(on_decided)
    return decided


def test_bisection_pool_reads_no_verdict_past_a_horizon():
    # one group of four runs of u' = 1 from 0 at unit steps, whose state
    # at step k is k: one with the horizon given, bounded above by
    # leaves - 0.5, beside three of 20 steps that stay bounded.  At a
    # horizon of 5 steps the pool makes no event (three of the four
    # elements still count), so the short run steps on past it, watched
    # until the next event
    drift = OdeProblem(name="drift", dimension=1, params={},
                       rhs=lambda u: u * 0.0 + 1.0,
                       exact=lambda t, y0: y0 + np.asarray(t)[..., None])

    def verdicts(horizon, leaves):
        ones = np.ones(4)
        return _verdicts(_bisection_pool(
            drift, ones, ones, np.zeros(4), [horizon, 20, 20, 20],
            np.zeros(4, dtype=int), [leaves - 0.5, 1e9, 1e9, 1e9]))

    # leaving its bounds at step 8, past its horizon, fails nothing
    assert verdicts(5, 8) == [(0, True)]
    # leaving them at its horizon, or at step 8 within a longer one, fails
    # the group
    assert verdicts(5, 5) == [(0, False)]
    assert verdicts(20, 8) == [(0, False)]


def test_run_past_its_horizon_does_not_settle(logistic2, monkeypatch):
    # logistic sspms42 runs from 0.5 at dt 0.25 bounded to [0, 2]: at
    # threshold 0.4 a run repeats its ring from about step 90 on, at 1e-5
    # it creeps.  Group 0 is one repeating run with a horizon of 40 steps
    # and three creeping ones of 2000, group 1 three creeping runs of 150
    dts = np.full(7, 0.25)
    phis = experiments.phi_value(PhiKind.PHI5, np.array([0.4] + [1e-5] * 6),
                                 dts)

    problem, calls = counting_rhs(logistic2)

    def pool(n_steps):
        return _bisection_pool(problem, phis, dts, np.full(7, 0.5), n_steps,
                               np.repeat([0, 1], [4, 3]), np.full(7, 2.0))

    # with a horizon of 2000 steps (and its creepers cut short), the
    # repeating run settles and decides group 0 before group 1, and the
    # pool ends after 150 steps, one rhs call each
    assert _verdicts(pool([2000, 40, 40, 40] + [150] * 3)) == [
        (0, True), (1, True)]
    assert calls[0] < 200
    sizes = []
    block_arrays = experiments._block_arrays

    def counting(count, b, m):
        sizes.append(b)
        return block_arrays(count, b, m)

    monkeypatch.setattr(experiments, "_block_arrays", counting)
    # once group 1 is decided, three of the seven elements still evolve,
    # and the pool compacts to them: the run past its horizon has not
    # settled, where a settled row would count as a fourth
    assert _verdicts(pool([40] + [2000] * 3 + [150] * 3)) == [
        (1, True), (0, True)]
    assert sizes == [7, 3]


def _schedule(active, last, n_settled=0, head=0, admitted=False,
              capacity=100, run_due=experiments._NEVER):
    """``experiments._schedule`` on hand-made rows."""
    active = np.array(active, dtype=bool)
    return experiments._schedule(
        active, np.array(last, dtype=np.int64), np.count_nonzero(active),
        n_settled, head, admitted, capacity, run_due)


def test_schedule_admits_what_the_listener_admitted_once_it_fits():
    # eight rows, all evolving: no compaction is due
    on, far = [True] * 8, [50] * 8
    assert _schedule(on, far, head=2, admitted=True, capacity=10)[0] == (
        "admit")
    # a head that does not fit beside the eight waits, and so does one the
    # listener did not admit at this event
    assert _schedule(on, far, head=3, admitted=True, capacity=10)[0] == (
        "step")
    assert _schedule(on, far, head=2, capacity=10)[0] == "step"


def test_schedule_finishes_once_nothing_evolves_and_nothing_queues():
    assert _schedule([False] * 4, [3] * 4) == ("finish", None)
    # settled rows do not evolve
    never = experiments._NEVER
    assert _schedule([True, True, False], [never, never, 3],
                     n_settled=2) == ("finish", None)
    # with elements queued, they join
    assert _schedule([False] * 4, [3] * 4, head=5) == ("admit", None)


def test_schedule_compacts_at_compact_at():
    never = experiments._NEVER
    # four of eight rows still active: at most COMPACT_AT of the pool
    assert _schedule([True] * 4 + [False] * 4, [50] * 8)[0] == "compact"
    assert _schedule([True] * 5 + [False] * 3, [50] * 8)[0] == "step"
    # six active, two of them settled: with nothing queued the settled
    # rows count, and the pool steps on; with elements queued they are
    # room, and the pool admits
    rows, last = [True] * 6 + [False] * 2, [50] * 4 + [never] * 2 + [3] * 2
    assert _schedule(rows, last, n_settled=2)[0] == "step"
    assert _schedule(rows, last, n_settled=2, head=9)[0] == "admit"


def test_schedule_next_due_step_is_the_next_decision_or_compaction():
    never = experiments._NEVER
    rows = [True] * 7 + [False]
    last = [9, 3, 7, 11, 5, 15, 13, 1]
    # the step after the horizon at which passed horizons bring the seven
    # counted rows to COMPACT_AT of the eight (three passed, the third at
    # 7), or after the next decision by horizon if that comes first: a
    # sweep's next horizon (3), a group's before the compaction horizon
    # (5); one after it (10) does not delay it
    assert _schedule(rows, last) == ("step", 8)
    assert _schedule(rows, last, run_due=3) == ("step", 4)
    assert _schedule(rows, last, run_due=5) == ("step", 6)
    assert _schedule(rows, last, run_due=10) == ("step", 8)
    # a settled row has no horizon; counted as room while elements queue,
    # it brings the bar nearer (two passed horizons, the second at 5)
    last[5] = never
    assert _schedule(rows, last, n_settled=1) == ("step", 8)
    assert _schedule(rows, last, n_settled=1, head=99) == ("step", 6)
    assert _schedule(rows, last, n_settled=1, head=99, run_due=3) == (
        "step", 4)
    assert _schedule(rows, last, n_settled=1, head=99, run_due=10) == (
        "step", 6)
