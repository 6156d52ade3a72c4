import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nslmm import (UNCONDITIONAL_BOUND, ConfigurationError, RunConfig,
                   UnsupportedError, check_property, default_properties,
                   eval_rhs, exact_solution, fe_property_bound,
                   forward_euler_step, get_method, integrate,
                   logistic_problem, make_phi_for_method, make_problem,
                   seir_problem)
from nslmm.problems import OdeProblem, PropertyKind, logistic_fe_bounds

from conftest import ORDER_MATCHED_PHI


def test_logistic_rhs_values(logistic2):
    assert eval_rhs(logistic2, [1.0]) == pytest.approx([1.0])
    assert eval_rhs(logistic2, [2.0]) == pytest.approx([0.0], abs=0.0)


def test_seir_rhs_hand_value(seir0, seir_y0):
    # S' = -5*0.8*0.2, E' = +0.8, I' = E - I = -0.2, R' = I = 0.2
    out = eval_rhs(seir0, seir_y0)
    assert out == pytest.approx([-0.8, 0.8, -0.2, 0.2], rel=1e-15)


def _seir_rhs_by_last_axis(u, influx):
    """The SEIR right-hand side written through ``u[..., k]``, as the
    problem computed it before it unpacked the transpose."""
    s, e, i = u[..., 0], u[..., 1], u[..., 2]
    infection = 5.0 * s * i
    out = np.empty(np.shape(u))
    out[..., 0] = influx - infection
    out[..., 1] = infection - e
    out[..., 2] = e - i
    out[..., 3] = i
    return out


def _awkward_seir_states(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    special = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
               2.2250738585072014e-308, 1e308, -1e-300]
    rows = [rng.uniform(-2.0, 2.0, 4) for _ in range(200)]
    for k, v in enumerate(special):
        for col in range(4):
            row = rng.uniform(0.0, 1.0, 4)
            row[col] = v
            row[(col + 1 + k) % 4] = special[(k + col) % len(special)]
            rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize("influx", [0.0, 0.3])
def test_seir_rhs_one_state_equals_its_batch_row_bitwise(influx):
    rhs = make_problem("seir", {"influx": influx}).rhs
    states = _awkward_seir_states(7)
    with np.errstate(all="ignore"):
        batch = rhs(states)
        oracle = _seir_rhs_by_last_axis(states, influx)
        singles = [rhs(row.copy()) for row in states]
    assert batch.dtype == np.float64 and batch.shape == states.shape
    assert batch.tobytes() == oracle.tobytes()
    for k, single in enumerate(singles):
        assert single.dtype == np.float64 and single.shape == (4,)
        assert single.tobytes() == batch[k].tobytes(), (k, states[k])


def test_rhs_dimension_mismatch(seir0):
    with pytest.raises(ValueError):
        eval_rhs(seir0, [1.0, 2.0])


def test_rhs_determinism(seir0, seir_y0):
    a = eval_rhs(seir0, seir_y0)
    b = eval_rhs(seir0, seir_y0)
    assert np.array_equal(a, b)


def test_exact_solution_logistic(logistic2):
    assert exact_solution(logistic2, 0.0, [1.0]) == pytest.approx([1.0])
    assert exact_solution(logistic2, 3.7, [2.0]) == pytest.approx([2.0])
    # c e^c y0 / (y0 (e^c - 1) + c) at t=1, pinned independently
    assert exact_solution(logistic2, 1.0, [1.0])[0] == pytest.approx(
        1.7615941559557649, rel=1e-15)


def test_exact_solution_unavailable(seir0, seir_y0):
    with pytest.raises(UnsupportedError):
        exact_solution(seir0, 1.0, seir_y0)


def test_exact_solution_stable_for_long_times():
    prob = logistic_problem(500.0)
    val = exact_solution(prob, 500.0, [1.0])[0]
    assert np.isfinite(val)
    assert val == pytest.approx(500.0, rel=1e-12)


def test_exact_solution_satisfies_the_ode(logistic2):
    # central difference in t against the right-hand side at 20 points
    h = 1e-5
    rng = np.random.default_rng(11)
    for _ in range(20):
        y0 = np.array([rng.uniform(0.05, 3.5)])
        t = rng.uniform(0.1, 3.0)
        deriv = (exact_solution(logistic2, t + h, y0)
                 - exact_solution(logistic2, t - h, y0)) / (2 * h)
        rhs = eval_rhs(logistic2, exact_solution(logistic2, t, y0))
        assert deriv == pytest.approx(rhs, rel=1e-6)


def test_fe_property_bound_logistic(logistic2):
    assert fe_property_bound(logistic2, [1.0]) == pytest.approx(0.5)
    prob = logistic_problem(500.0)
    assert fe_property_bound(prob, [1000.0]) == pytest.approx(1e-3)
    assert fe_property_bound(logistic2, [-1.0]) == UNCONDITIONAL_BOUND
    assert fe_property_bound(logistic2, [0.0]) == pytest.approx(0.5)


def test_fe_property_bound_seir(seir0, seir_y0):
    assert fe_property_bound(seir0, seir_y0) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        fe_property_bound(seir0, [0.5, -0.1, 0.3, 0.3])


@pytest.mark.parametrize("problem_name, y0", [
    ("logistic", [np.nan]), ("logistic", [np.inf]), ("logistic", [-np.inf]),
    ("seir", [0.8, np.nan, 0.2, 0.0]), ("seir", [np.inf, 0.0, 0.2, 0.0])])
def test_fe_property_bound_rejects_non_finite_state(problem_name, y0):
    # logistic used to return 1/c for NaN (min() drops the comparison) and
    # SEIR returned NaN
    with pytest.raises(ConfigurationError, match="non-finite"):
        fe_property_bound(make_problem(problem_name), y0)


@pytest.mark.parametrize("problem_name", ["logistic", "seir"])
def test_fe_property_bound_batch_equals_rows(problem_name):
    problem = make_problem(problem_name)
    rng = np.random.default_rng(3)
    if problem_name == "logistic":
        y0s = np.concatenate([rng.uniform(-3.0, 50.0, 40),
                              [0.0, -1.0, 2.0, 1e-300]])[:, None]
    else:
        y0s = rng.uniform(0.0, 1.0, (40, 4)) * rng.choice([1e-3, 1.0, 1e3],
                                                         (40, 1))
        y0s[0] = 0.0
    batch = fe_property_bound(problem, y0s)
    assert batch.shape == (len(y0s),)
    rows = [fe_property_bound(problem, y0) for y0 in y0s]
    assert all(type(b) is float for b in rows)
    assert (batch == np.array(rows)).all()


def test_fe_property_bound_batch_rejects_any_bad_row(seir0):
    y0s = np.array([[0.8, 0.0, 0.2, 0.0], [0.8, np.nan, 0.2, 0.0]])
    with pytest.raises(ConfigurationError, match=r"\[0\.8, nan, 0\.2, 0\.0\]"):
        fe_property_bound(seir0, y0s)
    with pytest.raises(ValueError, match="nonnegative"):
        fe_property_bound(seir0, np.abs(y0s[:1]) - [0.0, 0.1, 0.0, 0.0])


def test_logistic_fe_bounds_vectorized():
    out = logistic_fe_bounds(2.0, np.array([1.0, 1000.0, -3.0, 0.0]))
    assert out[0] == pytest.approx(0.5)
    assert out[1] == pytest.approx(1e-3)
    assert out[2] == UNCONDITIONAL_BOUND
    assert out[3] == pytest.approx(0.5)


def test_forward_euler_examples(logistic2, seir0, seir_y0):
    assert forward_euler_step(logistic2, [1.0], 0.25) == pytest.approx([1.25])
    assert forward_euler_step(logistic2, [2.0], 13.7) == pytest.approx([2.0])
    out = forward_euler_step(seir0, seir_y0, 0.1)
    assert out == pytest.approx([0.72, 0.08, 0.18, 0.02], rel=1e-15)
    with pytest.raises(ValueError):
        forward_euler_step(logistic2, [1.0], 0.0)


@given(y=st.floats(min_value=1e-6, max_value=2.0 - 1e-6),
       frac=st.floats(min_value=1e-6, max_value=1.0))
def test_fe_invariance_below_capacity(y, frac):
    # dt <= min(1/c, 1/y): the step stays in [0, c] and does not decrease
    prob = logistic_problem(2.0)
    dt = frac * fe_property_bound(prob, [y])
    out = forward_euler_step(prob, [y], dt)[0]
    assert y <= out <= 2.0 + 1e-12


@given(y=st.floats(min_value=2.0 + 1e-9, max_value=50.0),
       frac=st.floats(min_value=1e-6, max_value=1.0))
def test_fe_invariance_above_capacity(y, frac):
    prob = logistic_problem(2.0)
    dt = frac * fe_property_bound(prob, [y])
    out = forward_euler_step(prob, [y], dt)[0]
    assert 2.0 - 1e-12 <= out <= y + 1e-12


def test_fe_invariance_random_sweep_logistic():
    rng = np.random.default_rng(5)
    prob = logistic_problem(2.0)
    ys = rng.uniform(0.0, 2.0, size=1000)
    fracs = rng.uniform(0.0, 1.0, size=1000)
    dts = fracs * logistic_fe_bounds(2.0, ys)
    out = ys + dts * ys * (2.0 - ys)
    assert np.all(out >= ys - 1e-14)
    assert np.all(out <= 2.0 + 1e-12)


def test_fe_invariance_seir(seir0):
    rng = np.random.default_rng(9)
    for _ in range(200):
        y0 = rng.uniform(0.0, 1.0, size=4)
        dt = rng.uniform(0.0, 1.0) * fe_property_bound(seir0, y0)
        if dt == 0:
            continue
        out = forward_euler_step(seir0, y0, dt)
        assert np.all(out >= -1e-14)
        assert np.sum(out) == pytest.approx(np.sum(y0), rel=1e-14)


def test_make_problem_registry():
    prob = make_problem("logistic", {"c": 3.0})
    assert prob.params["c"] == 3.0
    prob = make_problem("seir", {"influx": 0.1})
    assert prob.params["influx"] == 0.1
    assert not prob.bound_proven
    assert make_problem("seir").bound_proven
    with pytest.raises(ValueError):
        make_problem("lorenz")
    with pytest.raises(ValueError):
        make_problem("logistic", {"c": -1.0})
    with pytest.raises(ValueError):
        make_problem("seir", {"influx": -0.5})


def test_make_problem_rejects_unknown_logistic_parameters():
    with pytest.raises(ValueError,
                       match=r"unknown logistic parameters: \['d'\]"):
        make_problem("logistic", {"c": 2.0, "d": 3.0})


def test_problem_structure_survives_replace(logistic2, seir0):
    labels = np.array([0.25, 0.5])
    for problem in (logistic2, seir0):
        copy = dataclasses.replace(problem, rhs=problem.rhs)
        y0 = problem.sharpness_states(labels)[0]
        assert default_properties(copy, y0) == default_properties(problem, y0)
    assert logistic2.sharpness_states(labels).tolist() == [[0.25], [0.5]]
    assert seir0.sharpness_states(labels).tolist() == [
        [0.75, 0.0, 0.25, 0.0], [0.5, 0.0, 0.5, 0.0]]


def test_custom_problem_states_no_properties():
    flat = OdeProblem(name="flat", dimension=1, params={},
                      rhs=lambda u: 0.0 * u)
    assert default_properties(flat, [1.0]) == []


def test_default_properties_logistic(logistic2):
    props = default_properties(logistic2, [1.0])
    kinds = {p.kind for p in props}
    assert PropertyKind.BOUND_ABOVE in kinds
    assert PropertyKind.WEAK_MONOTONE_INCREASE in kinds
    props = default_properties(logistic2, [3.0])
    kinds = {p.kind for p in props}
    assert PropertyKind.WEAK_MONOTONE_DECREASE in kinds


def test_default_properties_seir(seir0, seir_y0):
    props = default_properties(seir0, seir_y0)
    inv = [p for p in props if p.kind is PropertyKind.LINEAR_INVARIANT]
    assert len(inv) == 1
    assert inv[0].level == pytest.approx(1.0)
    assert inv[0].weights == (1.0, 1.0, 1.0, 1.0)


def test_seir_property_set_states_each_entry_once(seir_y0):
    # one bound below for every component; the bound above and the
    # decrease of S only without influx; R grows either way
    def entries(influx):
        return {(p.kind, p.component, p.level) for p in default_properties(
            seir_problem(influx), seir_y0)
            if p.kind is not PropertyKind.LINEAR_INVARIANT}

    assert entries(0.0) == {
        (PropertyKind.BOUND_BELOW, None, 0.0),
        (PropertyKind.BOUND_ABOVE, None, 1.0),
        (PropertyKind.WEAK_MONOTONE_DECREASE, 0, 0.0),
        (PropertyKind.WEAK_MONOTONE_INCREASE, 3, 0.0)}
    assert entries(0.1) == {
        (PropertyKind.BOUND_BELOW, None, 0.0),
        (PropertyKind.WEAK_MONOTONE_INCREASE, 3, 0.0)}


@pytest.mark.parametrize("method_id", ["sspms42", "sspms43", "sspms64"])
@pytest.mark.parametrize("problem, y0, t_end, dts", [
    # y0 < 0 blows up at ln(1 - c/y0)/c = ln(5)/2; the horizon ends before
    (logistic_problem(2.0), [-0.5], 0.5, [0.0625, 0.05, 0.01]),
    (logistic_problem(2.0), [1.0], 20.0, [2.5, 0.5, 0.1]),
    (logistic_problem(2.0), [3.0], 20.0, [2.5, 0.5, 0.1]),
    (seir_problem(0.0), [0.8, 0.0, 0.2, 0.0], 20.0, [2.5, 0.5, 0.1]),
    (seir_problem(0.1), [0.8, 0.0, 0.2, 0.0], 20.0, [2.5, 0.5, 0.1])],
    ids=["logistic-below-0", "logistic-1", "logistic-3", "seir",
         "seir-influx"])
def test_property_set_holds_at_the_sufficient_threshold(problem, y0, t_end,
                                                        dts, method_id):
    # every entry of the set, windowed checks over the method's s steps,
    # on runs with the matched transform at the sufficient threshold.  A
    # drifting invariant is left out: the transformed steps and the
    # starter's own transform advance the sum by the influx times their
    # transformed steps, while the monitor's target line grows with n * dt
    m = get_method(method_id)
    phi = make_phi_for_method(m, fe_property_bound(problem, y0),
                              ORDER_MATCHED_PHI[m.design_order])
    props = [p for p in default_properties(problem, y0) if p.drift == 0.0]
    assert len(props) >= 2
    for dt in dts:
        traj = integrate(RunConfig(problem=problem, method=m, phi=phi,
                                   dt=dt, t_end=t_end, y0=y0))
        for prop in props:
            report = check_property(traj, prop, m.steps)
            assert report.holds, (dt, prop, report.first_violation)
