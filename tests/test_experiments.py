import math

import numpy as np
import pytest

import nslmm as n
from nslmm import (BOUNDEDNESS, WEAK_MONOTONICITY, ConfigurationError,
                   ErrorNorm, ExactReference, PhiKind, RK4Reference,
                   convergence_study, get_method, observed_order,
                   phi_benchmark, sharpness_bisection)
from nslmm import experiments
from nslmm.experiments import (_sharpness_checks, bisect_threshold,
                               logistic_preservation_grid,
                               run_preservation_sweep,
                               seir_conservation_sweep)
from nslmm.problems import OdeProblem, logistic_fe_bounds


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


def test_convergence_thread_pool_matches_serial(logistic2, monkeypatch):
    m = get_method("sspms64")
    dts = [0.1 * 2.0 ** (-k) for k in range(4)]
    serial = convergence_study(logistic2, m, PhiKind.PHI8, dts, 1.0, [1.0],
                               ExactReference()).to_csv()
    monkeypatch.setenv("NSLMM_THREADS", "3")
    threaded = convergence_study(logistic2, m, PhiKind.PHI8, dts, 1.0, [1.0],
                                 ExactReference()).to_csv()
    assert serial == threaded


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


def _row_by_row(problem, method, kind, y0s, dts, t_end, prop,
                interval_scale=(1e-4, 10.0), tol=1e-4, max_iter=60,
                weak_component=0):
    """Oracle: ``bisect_threshold`` per row over single-row sweeps."""
    n_steps = np.ceil(t_end / dts - 1e-9).astype(int)
    results = []
    for y0 in y0s:
        sufficient = (n.effective_ssp_coefficient(method)
                      * n.fe_property_bound(problem, y0))
        checks = _sharpness_checks(problem, y0, prop, weak_component)

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


@pytest.mark.parametrize("cap,largest", [(1, 12), (2 * 12 + 1, 2 * 12)])
def test_lockstep_sharpness_chunked_sweeps(logistic2, monkeypatch, cap,
                                           largest):
    # a cap below one row's dt grid still sweeps one row at a time; a cap
    # of two rows splits the six rows into three chunks
    m = get_method("sspms42")
    dts = np.geomspace(0.5, 3.0, 12)
    whole = sharpness_bisection(logistic2, m, PhiKind.PHI5, LOGISTIC_Y0S,
                                dts, 30.0, WEAK_MONOTONICITY, tol=1e-3)
    sizes = []
    original = experiments.run_preservation_sweep

    def counting(*args, **kwargs):
        sizes.append(len(args[4]))
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_preservation_sweep", counting)
    monkeypatch.setattr(experiments, "MAX_SWEEP_ELEMENTS", cap)
    chunked = sharpness_bisection(logistic2, m, PhiKind.PHI5, LOGISTIC_Y0S,
                                  dts, 30.0, WEAK_MONOTONICITY, tol=1e-3)
    assert chunked.to_csv() == whole.to_csv()
    assert max(sizes) == largest
    _assert_matches_oracle(chunked, _row_by_row(
        logistic2, m, PhiKind.PHI5, LOGISTIC_Y0S, dts, 30.0,
        WEAK_MONOTONICITY, tol=1e-3))


def test_lockstep_sharpness_sweeps_once_per_iteration(logistic2, monkeypatch):
    m = get_method("sspms42")
    dts = np.geomspace(0.5, 3.0, 12)
    calls = []
    original = experiments.run_preservation_sweep

    def counting(*args, **kwargs):
        calls.append(len(args[4]))
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_preservation_sweep", counting)
    report = sharpness_bisection(logistic2, m, PhiKind.PHI5, LOGISTIC_Y0S,
                                 dts, 30.0, BOUNDEDNESS, tol=1e-3)
    # lower ends, upper ends, then one sweep per halving of the widest
    # bracket (ten times the sufficient threshold at most)
    widest = 10.0 * max(r.sufficient_bound for r in report.rows)
    assert len(calls) <= 2 + math.ceil(math.log2(widest / 1e-3))
    assert calls[0] == LOGISTIC_Y0S.shape[0] * dts.size


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
    assert outcome.first_bound_step[0] == 0
    assert outcome.first_weak_step[0] == m.steps


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


def test_logistic_preservation_grid_small():
    m = get_method("sspms42")
    outcome = logistic_preservation_grid(
        2.0, np.array([0.3, 1.0, 1.9]), np.array([0.7, 5.0, 80.0]),
        m, PhiKind.PHI5, n_steps=300)
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


def _bench_times():
    report = phi_benchmark(n_evals=4 * 10 ** 6, reps=3)
    return {row.phi: row.seconds for row in report.rows}


def test_phi_benchmark_exponentials_cost_more_than_plain_arithmetic():
    # the robust slice of the timing ordering on vectorized hardware
    t = _bench_times()
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
    t = _bench_times()
    algebraic = ["phi3", "phi4", "phi5", "phi6", "phi7", "phi8"]
    for slow in ("phi1", "phi2"):
        for fast in algebraic:
            assert t[slow] > t[fast], (slow, fast)
    spread = [t[k] for k in algebraic]
    assert max(spread) <= 2.5 * min(spread)
