import json

import numpy as np
import pytest

from nslmm import (BOUNDEDNESS, WEAK_MONOTONICITY, ConfigurationError,
                   DenominatorSpec, PhiKind, QualitativeProperty, RunConfig,
                   Trajectory, check_bounds, check_linear_invariant,
                   check_property, check_weak_monotonicity,
                   default_properties, fe_property_bound, get_method,
                   integrate, logistic_problem, make_phi_for_method,
                   seir_problem)
from nslmm.problems import LINEAR_INVARIANCE, PropertyKind
from nslmm.qualprops import sweep_checks


def _traj(values, dt=1.0):
    states = np.asarray(values, dtype=float)
    if states.ndim == 1:
        states = states[:, None]
    return Trajectory(t0=0.0, dt=dt, states=states, provenance={})


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_bounds_hold_on_contained_series():
    report = check_bounds(_traj([0.5, 1.0, 1.5]), 0, lower=0.0, upper=2.0)
    assert report.holds
    assert report.first_violation is None
    assert report.worst_margin == pytest.approx(0.5)


def test_boundary_attainment_is_not_a_violation():
    report = check_bounds(_traj([2.0, 2.0, 2.0]), 0, upper=2.0)
    assert report.holds
    assert report.worst_margin == 0.0


def test_bound_violation_reported_with_location():
    report = check_bounds(_traj([1.0, 2.5, 1.0, 3.0]), 0, upper=2.0)
    assert not report.holds
    assert report.first_violation.step == 1
    assert report.first_violation.value == 2.5
    assert report.first_violation.bound == 2.0
    assert report.worst_margin == pytest.approx(-1.0)


def test_round_off_at_the_bound_is_tolerated():
    report = check_bounds(_traj([2.0 + 1e-13]), 0, upper=2.0)
    assert report.holds


def test_bounds_all_components():
    states = np.array([[0.5, 0.5], [0.2, -0.3]])
    report = check_bounds(_traj(states), None, lower=0.0)
    assert not report.holds
    assert report.first_violation.step == 1
    assert report.first_violation.component == 1


def test_bounds_argument_errors():
    with pytest.raises(ValueError):
        check_bounds(_traj([1.0]), 0)
    with pytest.raises(ValueError):
        check_bounds(_traj([1.0]), 5, upper=1.0)
    empty = Trajectory(t0=0.0, dt=1.0, states=np.empty((0, 1)), provenance={})
    with pytest.raises(ValueError):
        check_bounds(empty, 0, upper=1.0)


# ---------------------------------------------------------------------------
# windowed monotonicity
# ---------------------------------------------------------------------------


def test_increasing_series_satisfies_windowed_increase():
    report = check_weak_monotonicity(_traj([1, 2, 3, 4, 5, 6]), 0, 4,
                                     "increase")
    assert report.holds


def test_windowed_increase_violation_example():
    # [1, 2, 3, 4, 0.5] with window 4: 0.5 < min{1,2,3,4} = 1 at index 4
    report = check_weak_monotonicity(_traj([1, 2, 3, 4, 0.5]), 0, 4,
                                     "increase")
    assert not report.holds
    assert report.first_violation.step == 4
    assert report.first_violation.value == 0.5
    assert report.first_violation.bound == 1.0


def test_windowed_property_weaker_than_classical():
    # dips above the window minimum violate classical (window 1) but not
    # windowed monotonicity
    series = [1.0, 2.0, 3.0, 4.0, 3.5, 4.5]
    weak = check_weak_monotonicity(_traj(series), 0, 4, "increase")
    strict = check_weak_monotonicity(_traj(series), 0, 1, "increase")
    assert weak.holds
    assert not strict.holds
    assert strict.first_violation.step == 4


def test_windowed_decrease():
    report = check_weak_monotonicity(_traj([5, 4, 3, 2, 4.5]), 0, 4,
                                     "decrease")
    assert report.holds
    report = check_weak_monotonicity(_traj([5, 4, 3, 2, 5.5]), 0, 4,
                                     "decrease")
    assert not report.holds


def test_window_longer_than_trajectory_rejected():
    with pytest.raises(ValueError):
        check_weak_monotonicity(_traj([1, 2, 3]), 0, 4, "increase")
    with pytest.raises(ValueError):
        check_weak_monotonicity(_traj([1, 2, 3]), 0, 2, "sideways")


def test_transformed_run_keeps_windowed_decrease_where_strict_fails(logistic2):
    # four-step second-order run from above the capacity with a big step:
    # the windowed decrease holds even though plain decrease does not
    m = get_method("sspms42")
    phi = make_phi_for_method(m, fe_property_bound(logistic2, [3.0]),
                              PhiKind.PHI5)
    traj = integrate(RunConfig(problem=logistic2, method=m, phi=phi, dt=0.5,
                               t_end=15.0, y0=[3.0]))
    weak = check_weak_monotonicity(traj, 0, 4, "decrease")
    strict = check_weak_monotonicity(traj, 0, 1, "decrease")
    assert weak.holds
    assert not strict.holds


# ---------------------------------------------------------------------------
# linear invariants
# ---------------------------------------------------------------------------


def test_linear_invariant_exact_series():
    states = np.tile([0.25, 0.25, 0.25, 0.25], (101, 1))
    report = check_linear_invariant(_traj(states), np.ones(4), 0.0, 1.0)
    assert report.holds
    assert report.worst_margin == 0.0


def test_linear_invariant_with_drift():
    t = np.arange(6, dtype=float)
    states = np.stack([0.5 + 0.1 * t, 0.5 * np.ones(6)], axis=1)
    report = check_linear_invariant(_traj(states, dt=1.0), np.ones(2),
                                    0.1, 1.0)
    assert report.holds


def test_linear_invariant_violation():
    states = np.array([[0.5, 0.5], [0.5, 0.6]])
    report = check_linear_invariant(_traj(states), np.ones(2), 0.0, 1.0)
    assert not report.holds
    assert report.first_violation.step == 1
    assert report.worst_margin == pytest.approx(-0.1)


def test_linear_invariant_weight_length():
    with pytest.raises(ValueError):
        check_linear_invariant(_traj([[1.0, 2.0]]), np.ones(3), 0.0, 3.0)


def test_linear_invariant_sums_each_state_left_to_right():
    # a state's deviation is its own fixed-order sum, whatever the length
    # of the trajectory around it: numpy's matrix product rounds
    # differently with the row count
    rng = np.random.default_rng(5)
    for _ in range(50):
        x, w = rng.uniform(0.0, 1.0, 4), rng.uniform(-2.0, 2.0, 4)
        want = -abs(((x[0] * w[0] + x[1] * w[1]) + x[2] * w[2]) + x[3] * w[3])
        for rows in (1, 4, 100, 2001):
            report = check_linear_invariant(_traj(np.tile(x, (rows, 1))), w,
                                            drift=0.0, m0=0.0)
            assert report.worst_margin == want, (x, w, rows)


def test_single_euler_step_conserves_the_sum(seir0, seir_y0):
    from nslmm import forward_euler_step
    out = forward_euler_step(seir0, seir_y0, 0.1)
    assert float(out.sum()) == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# non-finite states
# ---------------------------------------------------------------------------


def _three_checks(traj, window=2):
    level = float(traj.states[0, 0])
    return (check_bounds(traj, 0, lower=0.0, upper=2.0),
            check_weak_monotonicity(traj, 0, window, "increase"),
            check_linear_invariant(traj, [1.0], 0.0, level))


def test_nan_row_violates_every_monitor():
    # every check holds on the finite rows
    traj = _traj([0.5, 0.5, np.nan, 0.5, 0.5, 0.5])
    for report in _three_checks(traj):
        assert not report.holds
        assert report.first_violation.step == 2
        assert np.isnan(report.first_violation.value)
        assert report.worst_margin == -np.inf


def test_infinite_value_violates_a_one_sided_bound():
    report = check_bounds(_traj([0.5, np.inf, 1.0]), 0, lower=0.0)
    assert not report.holds
    assert report.first_violation.step == 1
    assert report.worst_margin == -np.inf


def test_non_finite_component_fails_a_check_on_another_component():
    # component 1 stays finite and inside every check; the state of step 2
    # is not finite, so each check on component 1 fails there and names
    # the first non-finite component
    states = np.array([[0.5, 0.5], [0.6, 0.6], [-np.inf, 0.7], [np.nan, 0.8],
                       [np.nan, 0.9]])
    traj = _traj(states)
    for report in (check_bounds(traj, 1, upper=1.0),
                   check_weak_monotonicity(traj, 1, 2, "increase")):
        assert not report.holds
        assert report.first_violation.step == 2
        assert report.first_violation.component == 0
        assert report.first_violation.value == -np.inf
        assert report.worst_margin == -np.inf
    # a zero weight does not hide the state either
    report = check_linear_invariant(traj, [0.0, 1.0], 0.1, 0.5)
    assert report.first_violation.step == 2
    assert report.worst_margin == -np.inf


def test_nan_start_violates_every_monitor():
    # ``integrate`` refuses a NaN start, so the all-NaN trajectory a
    # six-step run from NaN would give is built directly
    traj = _traj([np.nan] * 31, dt=0.5)
    for report in _three_checks(traj, window=6):
        assert not report.holds
        assert report.first_violation.step == 0
        assert report.worst_margin == -np.inf


def test_run_to_minus_infinity_fails_every_monitor(logistic2):
    # the untransformed two-step-order method at dt = 3 leaves [0, 2] and
    # overflows to -inf
    m = get_method("sspms42")
    with np.errstate(over="ignore", invalid="ignore"):
        traj = integrate(RunConfig(
            problem=logistic2, method=m, phi=DenominatorSpec(PhiKind.IDENTITY),
            dt=3.0, t_end=60.0, y0=[0.5]))
    assert np.isneginf(traj.final_state[0])
    for report in _three_checks(traj, window=m.steps):
        assert not report.holds
        assert report.worst_margin == -np.inf


# ---------------------------------------------------------------------------
# dispatch, purity, export
# ---------------------------------------------------------------------------


def test_check_property_dispatch():
    traj = _traj([0.1, 0.2, 0.3, 0.4, 0.5])
    prop = QualitativeProperty(PropertyKind.BOUND_ABOVE, 0, 1.0)
    assert check_property(traj, prop).holds
    prop = QualitativeProperty(PropertyKind.WEAK_MONOTONE_INCREASE, 0)
    assert check_property(traj, prop, window=4).holds
    with pytest.raises(ValueError):
        check_property(traj, prop)  # window missing


def test_monitors_are_pure(logistic2):
    m = get_method("sspms42")
    phi = make_phi_for_method(m, 0.5, PhiKind.PHI5)
    traj = integrate(RunConfig(problem=logistic2, method=m, phi=phi, dt=0.1,
                               t_end=2.0, y0=[1.0]))
    before = traj.states.copy()
    r1 = check_bounds(traj, 0, lower=0.0, upper=2.0)
    r2 = check_bounds(traj, 0, lower=0.0, upper=2.0)
    assert np.array_equal(traj.states, before)
    assert r1 == r2


def test_report_json_schema():
    report = check_bounds(_traj([1.0, 2.5]), 0, upper=2.0)
    payload = json.loads(json.dumps(report.to_dict()))
    assert set(payload) == {"property", "holds", "first_violation",
                            "worst_margin"}
    assert payload["holds"] is False
    assert set(payload["first_violation"]) == {"n", "k", "value", "bound"}
    held = check_bounds(_traj([1.0]), 0, upper=2.0).to_dict()
    assert held["first_violation"] is None


def test_holds_iff_no_first_violation():
    for values, upper in ([[1.0, 1.5], 2.0], [[1.0, 2.5], 2.0]):
        report = check_bounds(_traj(values), 0, upper=upper)
        assert report.holds == (report.first_violation is None)


# ---------------------------------------------------------------------------
# property sets as sweep checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("y0, bounds, direction", [
    (1.0, (0.0, 2.0), +1), (2.0, (0.0, 2.0), +1), (3.0, (2.0, 3.0), -1),
    (-0.5, (-np.inf, -0.5), -1)])
def test_sweep_checks_of_the_logistic_set(y0, bounds, direction):
    props = default_properties(logistic_problem(2.0), [y0])
    assert sweep_checks(props, 1, BOUNDEDNESS) == dict(
        zip(("lower", "upper"), bounds))
    assert sweep_checks(props, 1, WEAK_MONOTONICITY) == {
        "weak_direction": direction}
    with pytest.raises(ConfigurationError, match="weak_component 5"):
        sweep_checks(props, 1, WEAK_MONOTONICITY, 5)
    with pytest.raises(ConfigurationError, match="no linear-invariance"):
        sweep_checks(props, 1, LINEAR_INVARIANCE)


def test_sweep_checks_of_the_seir_set():
    y0 = [0.7, 0.1, 0.2, 0.0]
    props = default_properties(seir_problem(0.0), y0)
    assert sweep_checks(props, 4, BOUNDEDNESS) == {"lower": 0.0,
                                                   "upper": 1.0}
    assert sweep_checks(props, 4, WEAK_MONOTONICITY, 0) == {
        "weak_direction": -1}
    assert sweep_checks(props, 4, WEAK_MONOTONICITY, 3) == {
        "weak_direction": +1}
    for component in (1, 2):
        with pytest.raises(ConfigurationError,
                           match=f"weak_component {component}"):
            sweep_checks(props, 4, WEAK_MONOTONICITY, component)
    assert sweep_checks(props, 4, LINEAR_INVARIANCE) == {
        "invariant_weights": (1.0,) * 4, "invariant_drift": 0.0}
    influx = default_properties(seir_problem(0.1), y0)
    assert sweep_checks(influx, 4, BOUNDEDNESS) == {"lower": 0.0,
                                                    "upper": np.inf}
    assert sweep_checks(influx, 4, LINEAR_INVARIANCE)[
        "invariant_drift"] == 0.1


def test_sweep_checks_refuse_what_a_sweep_cannot_check():
    # a sweep bounds every component alike; a bound on one component of
    # several is refused, not dropped
    one = [QualitativeProperty(PropertyKind.BOUND_BELOW, 2, 0.0)]
    with pytest.raises(ConfigurationError, match="component 2"):
        sweep_checks(one, 4, BOUNDEDNESS)
    assert sweep_checks(one, 1, BOUNDEDNESS) == {"lower": 0.0,
                                                 "upper": np.inf}
    with pytest.raises(ConfigurationError, match="no boundedness"):
        sweep_checks([], 1, BOUNDEDNESS)
    with pytest.raises(ConfigurationError, match="no linear-invariance"):
        sweep_checks([QualitativeProperty(PropertyKind.LINEAR_INVARIANT)],
                     1, LINEAR_INVARIANCE)
    with pytest.raises(ValueError, match="unknown property class"):
        sweep_checks([], 1, "positivity")
