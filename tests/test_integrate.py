import sys
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, strategies as st

import nslmm.integrate  # noqa: F401  (the submodule, looked up below)
from nslmm import (MULTISTEP_IDS, ConfigurationError, DenominatorSpec,
                   ExactStartup, MultistepMethod, PhiKind, RecordMode,
                   RunConfig, RungeKuttaStartup, eval_phi, exact_solution,
                   forward_euler_step, get_method, integrate,
                   logistic_problem, make_phi_for_method, make_problem,
                   nslmm_step, nsrk_step, reference_solution, seir_problem)
from nslmm.denominator import CATALOG_KINDS, phi_value
from nslmm.integrate import STARTER_FOR_ORDER, Trajectory, record_bytes
from nslmm.methods import effective_ssp_coefficient
from nslmm.problems import OdeProblem, fe_property_bound

from conftest import ORDER_MATCHED_PHI, counting_rhs, slope_evaluations

# "nslmm.integrate" the module, not the same-named driver function that
# nslmm/__init__ re-exports
integrate_mod = sys.modules["nslmm.integrate"]


def _config(problem, method, phi, dt, t_end, y0, **kw):
    return RunConfig(problem=problem, method=method, phi=phi, dt=dt,
                     t_end=t_end, y0=y0, **kw)


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------


def test_nslmm_step_equilibrium(logistic2):
    m = get_method("sspms42")
    phi = DenominatorSpec(PhiKind.IDENTITY)
    out = nslmm_step(m, phi, logistic2, [[2.0]] * 4, 0.3)
    assert out == pytest.approx([2.0], rel=1e-15)


def test_nslmm_step_pinned_value(logistic2):
    # SSPMS(4,2) with phi5, threshold 1/3, history newest-first
    # [1.2, 1.1, 1.05, 1.0], dt = 0.1:
    #   (8/9)*1.2 + phi5(0.1)*(4/3)*1.2*(2-1.2) + (1/9)*1.0
    # pinned by a 40-digit independent evaluation
    m = get_method("sspms42")
    phi = DenominatorSpec(PhiKind.PHI5, bound=1 / 3)
    history = [[1.2], [1.1], [1.05], [1.0]]
    out = nslmm_step(m, phi, logistic2, history, 0.1)
    assert out[0] == pytest.approx(1.3020711590904566, rel=1e-14)


def test_nslmm_step_history_length(logistic2):
    m = get_method("sspms42")
    with pytest.raises(ValueError):
        nslmm_step(m, DenominatorSpec(PhiKind.IDENTITY), logistic2,
                   [[1.0]] * 3, 0.1)


def _convex_combination_oracle(method, phi, problem, history, dt):
    """alpha-weighted Euler substeps with effective steps phi(dt)*beta/alpha."""
    h = float(eval_phi(phi, dt))
    acc = np.zeros(problem.dimension)
    for j, a, b in method.terms:
        u = np.asarray(history[j - 1], dtype=float)
        if b == 0.0:
            acc = acc + a * u
        else:
            acc = acc + a * forward_euler_step(problem, u, h * b / a)
    return acc


@given(values=st.lists(st.floats(min_value=0.05, max_value=1.9),
                       min_size=6, max_size=6),
       dt=st.floats(min_value=1e-4, max_value=50.0))
def test_convex_combination_identity(logistic2, values, dt):
    m = get_method("sspms64")
    phi = make_phi_for_method(m, 0.5, PhiKind.PHI8)
    history = [[v] for v in values]
    direct = nslmm_step(m, phi, logistic2, history, dt)
    oracle = _convex_combination_oracle(m, phi, logistic2, history, dt)
    scale = max(1.0, float(np.max(np.abs(direct))))
    assert np.max(np.abs(direct - oracle)) <= 1e-14 * scale


def test_nsrk_step_equilibrium(logistic2):
    rk = get_method("ssprk22")
    out = nsrk_step(rk, DenominatorSpec(PhiKind.IDENTITY), logistic2, [2.0], 0.9)
    assert out == pytest.approx([2.0], abs=1e-15)


def test_nsrk_step_pinned_value(logistic2):
    # u1 = 1.5, result = 0.5*1 + 0.5*(1.5 + 0.5*1.5*0.5) = 1.4375
    rk = get_method("ssprk22")
    out = nsrk_step(rk, DenominatorSpec(PhiKind.IDENTITY), logistic2, [1.0], 0.5)
    assert out[0] == pytest.approx(1.4375, rel=1e-15)


def test_rk33_phi7_phi8_agree_to_fourth_order(logistic2):
    # both transforms equal dt + O(dt^4), so single-step results differ by
    # O(dt^4): the log-log slope of the difference is about 4
    rk = get_method("ssprk33")
    diffs, dts = [], []
    for k in range(0, 7):
        dt = 0.1 * 2.0 ** (-k)
        a = nsrk_step(rk, DenominatorSpec(PhiKind.PHI7, bound=0.5),
                      logistic2, [1.0], dt)
        b = nsrk_step(rk, DenominatorSpec(PhiKind.PHI8, bound=0.5),
                      logistic2, [1.0], dt)
        diffs.append(abs(a[0] - b[0]))
        dts.append(dt)
    slope = np.polyfit(np.log(dts), np.log(diffs), 1)[0]
    assert slope == pytest.approx(4.0, abs=0.2)


# ---------------------------------------------------------------------------
# in-place batch kernels
# ---------------------------------------------------------------------------

#: the multistep methods and the Runge-Kutta methods that start them
KERNEL_IDS = ["sspms42", "sspms43", "sspms64", "ssprk22", "ssprk33",
              "ssprk104"]


def _kernel_steps(method, rhs, start, h, n, scratch=None) -> list:
    """The states ``n`` steps of ``method``'s kernel return, from the
    newest-first states ``start`` (one for a Runge-Kutta method), with a
    float ``h`` or a per-element (B, m) array."""
    out = []
    if isinstance(method, MultistepMethod):
        s = method.steps
        states = deque(start, maxlen=s)
        slopes = deque([None] * s, maxlen=s)
        scaled = integrate_mod._scaled_terms(method.terms, h)
        for _ in range(n):
            new = integrate_mod._ms_step(scaled, rhs, states, slopes, scratch)
            states.appendleft(new)
            slopes.appendleft(None)
            out.append(new)
        return out
    stages = integrate_mod._scaled_stages(method.float_stages, h)
    u = start[0]
    for _ in range(n):
        u = integrate_mod._rk_step(stages, rhs, u, scratch)
        out.append(u)
    return out


def _kernel_case(method_id, m, B=5):
    """A method, an rhs of dimension m, newest-first batch start states of
    shape (B, m), per-element step sizes (B,), their (B, m) array, and a
    step count that runs every state through a multistep ring twice."""
    method = get_method(method_id)
    problem = logistic_problem(2.0) if m == 1 else seir_problem(0.0)
    rng = np.random.default_rng(sum(map(ord, method_id)) + m)
    count = method.steps if isinstance(method, MultistepMethod) else 1
    start = [rng.uniform(0.05, 0.95, (B, m)) for _ in range(count)]
    h = rng.uniform(0.01, 0.3, B)
    s = method.steps if count > 1 else method.stage_count
    return (method, problem.rhs, start, h, np.repeat(h[:, None], m, axis=1),
            2 * s + 1)


@pytest.mark.parametrize("m", [1, 4])
@pytest.mark.parametrize("method_id", KERNEL_IDS)
def test_in_place_batch_kernel_equals_single_state_bitwise(method_id, m):
    method, rhs, start, h, h_batch, n = _kernel_case(method_id, m)
    scratch = (np.empty(h_batch.shape), np.empty(h_batch.shape))
    batch = _kernel_steps(method, rhs, start, h_batch, n, scratch)
    for i in range(h.size):
        # as a single run steps it: a float for m = 1, else a list
        single = _kernel_steps(
            method, rhs, [integrate_mod._single_state(u[i]) for u in start],
            float(h[i]), n)
        for k in range(n):
            assert type(single[k]) is (float if m == 1 else list)
            assert (batch[k][i] == np.reshape(single[k], m)).all(), (i, k)


@pytest.mark.parametrize("m", [1, 4])
@pytest.mark.parametrize("method_id", KERNEL_IDS)
def test_in_place_batch_kernel_returns_fresh_states(method_id, m):
    # every state a step returns is its own array: it is unchanged by the
    # 2s steps after it, and no scratch array is ever returned
    method, rhs, start, _h, h_batch, n = _kernel_case(method_id, m)
    scratch = (np.empty(h_batch.shape), np.empty(h_batch.shape))
    start_before = [u.copy() for u in start]
    got = _kernel_steps(method, rhs, start, h_batch, n, scratch)
    want = _kernel_steps(method, rhs, start, h_batch, n)
    for k, (new, ref) in enumerate(zip(got, want)):
        assert not any(np.shares_memory(new, buf) for buf in scratch), k
        assert not any(np.shares_memory(new, other)
                       for other in got[k + 1:] + start), k
        assert (new == ref).all(), k
    for u, before in zip(start, start_before):
        assert (u == before).all()


# ---------------------------------------------------------------------------
# single runs against Python-float coefficients
# ---------------------------------------------------------------------------

def _float_ms_step(method, rhs, history, h: float) -> np.ndarray:
    """One multistep step with float alpha_j and h*beta_j, newest-first
    ``history``, in the kernel's order of operations."""
    acc = None
    for j, a, b in method.terms:
        u = history[j - 1]
        contrib = a * u
        if b != 0.0:
            contrib = contrib + (h * b) * rhs(u)
        acc = contrib if acc is None else acc + contrib
    return acc


def _float_rk_step(stages, rhs, u, h: float) -> np.ndarray:
    values = [u]
    for stage in stages:
        acc = None
        for src, a, b in stage:
            contrib = a * values[src]
            if b != 0.0:
                contrib = contrib + (h * b) * rhs(values[src])
            acc = contrib if acc is None else acc + contrib
        values.append(acc)
    return values[-1]


def _float_run(problem, method, phi, dt, n, y0) -> list:
    """Every state of an ``n``-step run under the default startup, stepped
    with Python-float coefficients."""
    rhs, y0 = problem.rhs, np.asarray(y0, dtype=float)
    h = float(eval_phi(phi, dt))
    if not isinstance(method, MultistepMethod):
        states = [y0]
        for _ in range(n):
            states.append(_float_rk_step(method.float_stages, rhs,
                                         states[-1], h))
        return states
    s = method.steps
    if problem.exact is not None:
        states = [y0] + [exact_solution(problem, i * dt, y0)
                         for i in range(1, s)]
    else:
        rk_id, kind = STARTER_FOR_ORDER[method.design_order]
        rk = get_method(rk_id)
        bound = effective_ssp_coefficient(rk) * fe_property_bound(problem, y0)
        h0 = float(phi_value(kind, bound, dt))
        states = [y0]
        for _ in range(1, s):
            states.append(_float_rk_step(rk.float_stages, rhs, states[-1],
                                         h0))
    for _ in range(s - 1, n):
        states.append(_float_ms_step(method, rhs, states[::-1][:s], h))
    return states


@pytest.mark.parametrize("problem_name", ["logistic", "seir"])
@pytest.mark.parametrize("method_id", KERNEL_IDS)
def test_integrate_equals_float_coefficient_stepping_bitwise(problem_name,
                                                             method_id):
    # the batch-versus-single differential tests cannot see a change that
    # moves both paths at once; this oracle keeps the float arithmetic
    problem = (logistic_problem(2.0) if problem_name == "logistic"
               else seir_problem(0.0))
    y0 = [0.7] if problem_name == "logistic" else [0.75, 0.05, 0.2, 0.0]
    method = get_method(method_id)
    phi = make_phi_for_method(method, 0.15,
                              ORDER_MATCHED_PHI[method.design_order])
    want = np.array(_float_run(problem, method, phi, 0.1, 60, y0))
    traj = integrate(_config(problem, method, phi, 0.1, 6.0, y0))
    assert traj.states.tobytes() == want.tobytes()
    final = integrate(_config(problem, method, phi, 0.1, 6.0, y0,
                              record=RecordMode.FINAL_STATE_ONLY))
    assert final.final_state.tobytes() == want[-1].tobytes()


@pytest.mark.parametrize("problem_name", ["logistic", "seir"])
@pytest.mark.parametrize("method_id", KERNEL_IDS)
def test_single_steps_equal_float_coefficient_steps_bitwise(problem_name,
                                                            method_id):
    problem = (logistic_problem(2.0) if problem_name == "logistic"
               else seir_problem(0.0))
    m = problem.dimension
    method = get_method(method_id)
    phi = make_phi_for_method(method, 0.15,
                              ORDER_MATCHED_PHI[method.design_order])
    h = float(eval_phi(phi, 0.07))
    rng = np.random.default_rng(len(method_id) + m)
    if isinstance(method, MultistepMethod):
        history = [rng.uniform(0.05, 0.95, m) for _ in range(method.steps)]
        got = nslmm_step(method, phi, problem, history, 0.07)
        want = _float_ms_step(method, problem.rhs, history, h)
    else:
        u = rng.uniform(0.05, 0.95, m)
        got = nsrk_step(method, phi, problem, u, 0.07)
        want = _float_rk_step(method.float_stages, problem.rhs, u, h)
    assert got.shape == (m,)
    assert got.tobytes() == want.tobytes()


def _array_step_chain(problem, method, phi, dt, n, y0) -> np.ndarray:
    """Every state of an ``n``-step run under the default startup, chained
    through ``nslmm_step``/``nsrk_step`` on (m,) arrays."""
    u0 = np.asarray(y0, dtype=float)
    if isinstance(method, MultistepMethod):
        s = method.steps
        states = [u0] + [exact_solution(problem, i * dt, u0)
                         for i in range(1, s)]
        for _ in range(s - 1, n):
            states.append(nslmm_step(method, phi, problem,
                                     states[::-1][:s], dt))
    else:
        states = [u0]
        for _ in range(n):
            states.append(nsrk_step(method, phi, problem, states[-1], dt))
    return np.array(states)


@given(method_id=st.sampled_from(KERNEL_IDS),
       kind=st.sampled_from(list(CATALOG_KINDS) + [PhiKind.IDENTITY]),
       c=st.floats(min_value=0.5, max_value=4.0),
       y0=st.floats(min_value=-1.0, max_value=5.0),
       b_fe=st.floats(min_value=0.05, max_value=2.0),
       dt=st.floats(min_value=1e-3, max_value=50.0),
       n=st.integers(min_value=6, max_value=40))
def test_one_component_run_equals_array_steps_bitwise(method_id, kind, c, y0,
                                                      b_fe, dt, n):
    # a one-component run steps a Python float; a chain of single steps and
    # the kernel-free float-coefficient oracle, both on (1,) arrays, are the
    # same arithmetic in numpy, so the same bits, also where a large dt
    # overflows the run to inf or NaN
    problem = logistic_problem(c)
    method = get_method(method_id)
    phi = make_phi_for_method(method, b_fe, kind)
    with np.errstate(all="ignore"):
        want = np.array(_float_run(problem, method, phi, dt, n, [y0]))
        chain = _array_step_chain(problem, method, phi, dt, n, [y0])
        traj = integrate(_config(problem, method, phi, dt, n * dt, [y0]))
        final = integrate(_config(problem, method, phi, dt, n * dt, [y0],
                                  record=RecordMode.FINAL_STATE_ONLY))
    assert traj.states.shape == (n + 1, 1)
    assert traj.states.tobytes() == want.tobytes()
    assert chain.tobytes() == want.tobytes()
    assert final.states.shape == (1, 1)
    assert final.final_state.tobytes() == want[-1].tobytes()


@given(method_id=st.sampled_from(KERNEL_IDS),
       kind=st.sampled_from(list(CATALOG_KINDS) + [PhiKind.IDENTITY]),
       influx=st.sampled_from([0.0, 0.4]),
       y0=st.lists(st.floats(min_value=0.0, max_value=1.0),
                   min_size=4, max_size=4),
       b_fe=st.floats(min_value=0.05, max_value=2.0),
       dt=st.floats(min_value=1e-3, max_value=50.0),
       n=st.integers(min_value=6, max_value=40))
def test_several_component_run_equals_float_coefficient_stepping_bitwise(
        method_id, kind, influx, y0, b_fe, dt, n):
    # a SEIR run steps a list of Python floats; the oracle steps (4,)
    # arrays without the kernels, so the same bits, also where a large dt
    # overflows the run to inf or NaN
    problem = seir_problem(influx)
    method = get_method(method_id)
    phi = make_phi_for_method(method, b_fe, kind)
    with np.errstate(all="ignore"):
        want = np.array(_float_run(problem, method, phi, dt, n, y0))
        traj = integrate(_config(problem, method, phi, dt, n * dt, y0))
        final = integrate(_config(problem, method, phi, dt, n * dt, y0,
                                  record=RecordMode.FINAL_STATE_ONLY))
    assert traj.states.shape == (n + 1, 4)
    assert traj.states.tobytes() == want.tobytes()
    assert final.states.shape == (1, 4)
    assert final.final_state.tobytes() == want[-1].tobytes()


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------


def test_equilibrium_trajectory_is_constant(logistic2):
    # constant in exact arithmetic; the decimal coefficient set of the
    # six-step method sums to 1 only to ~2e-15, so round-off accumulates
    for mid in ("sspms64", "ssprk104"):
        m = get_method(mid)
        phi = make_phi_for_method(m, 0.5, PhiKind.PHI8)
        traj = integrate(_config(logistic2, m, phi, 0.25, 5.0, [2.0]))
        assert np.max(np.abs(traj.states - 2.0)) <= 1e-12


def test_zero_rhs_reproduces_the_weighted_history_sum(logistic2):
    # with f == 0 one step is exactly the alpha-weighted history sum
    m = get_method("sspms64")
    flat = OdeProblem(name="flat", dimension=1, params={},
                      rhs=lambda u: np.zeros_like(u))
    rng = np.random.default_rng(1)
    history = [rng.uniform(-2, 2, size=1) for _ in range(6)]
    out = nslmm_step(m, DenominatorSpec(PhiKind.PHI8, bound=0.4), flat,
                     history, 0.5)
    expect = sum(a * history[j - 1] for j, a, _b in m.terms)
    assert np.array_equal(out, expect)


def test_zero_rhs_constant_history_stays_constant():
    flat = OdeProblem(name="flat", dimension=2, params={},
                      rhs=lambda u: np.zeros_like(u),
                      exact=lambda t, y0: np.asarray(y0, float),
                      bound_rule=lambda y0: 1.0)
    y0 = np.array([0.3, -1.7])
    m = get_method("sspms64")
    phi = DenominatorSpec(PhiKind.PHI8, bound=0.4)
    traj = integrate(_config(flat, m, phi, 0.5, 20.0, y0,
                             startup=ExactStartup()))
    # constant up to the ~2e-15 coefficient-sum defect per step
    assert np.max(np.abs(traj.states - y0)) <= 40 * 5e-15


def test_integrate_determinism_bitwise(logistic2):
    m = get_method("sspms64")
    phi = make_phi_for_method(m, 0.5, PhiKind.PHI8)
    cfg = _config(logistic2, m, phi, 0.0125, 1.0, [1.0])
    a = integrate(cfg)
    b = integrate(cfg)
    assert np.array_equal(a.states, b.states)
    assert a.to_csv() == b.to_csv()


def test_identity_and_patched_transform_agree_bitwise(logistic2, monkeypatch):
    # the standard method is the identity-transform special case of the same
    # code path: forcing phi8 to evaluate as the identity must reproduce the
    # identity run bit for bit
    m = get_method("sspms64")
    cfg_id = _config(logistic2, m, DenominatorSpec(PhiKind.IDENTITY),
                     0.0125, 1.0, [1.0])
    ref = integrate(cfg_id)
    monkeypatch.setattr(integrate_mod, "eval_phi", lambda spec, x: x)
    cfg_ns = _config(logistic2, m, DenominatorSpec(PhiKind.PHI8, bound=0.08),
                     0.0125, 1.0, [1.0])
    patched = integrate(cfg_ns)
    assert np.array_equal(ref.states, patched.states)


@pytest.mark.parametrize("method_id", MULTISTEP_IDS)
def test_run_makes_one_rhs_call_per_step(logistic2, method_id):
    # after the closed-form startup, each step evaluates the slope of one
    # new state; the slopes it reads of older states are cached
    problem, calls = counting_rhs(logistic2)
    m = get_method(method_id)
    n_steps = 50
    integrate(_config(problem, m, make_phi_for_method(m, 0.5, PhiKind.PHI8),
                      0.02, n_steps * 0.02, [0.4]))
    assert calls[0] == slope_evaluations(m, n_steps)


def test_misaligned_grid_rejected(logistic2):
    m = get_method("sspms64")
    phi = make_phi_for_method(m, 0.5, PhiKind.PHI8)
    with pytest.raises(ConfigurationError):
        integrate(_config(logistic2, m, phi, 0.7, 1.0, [1.0]))


def test_exact_startup_requires_closed_form(seir0, seir_y0):
    m = get_method("sspms64")
    phi = make_phi_for_method(m, 0.2, PhiKind.PHI8)
    with pytest.raises(ConfigurationError):
        integrate(_config(seir0, m, phi, 0.1, 1.0, seir_y0,
                          startup=ExactStartup()))


def test_default_startup_policies(logistic2, seir0, seir_y0):
    m = get_method("sspms64")
    phi_l = make_phi_for_method(m, 0.5, PhiKind.PHI8)
    traj = integrate(_config(logistic2, m, phi_l, 0.1, 1.0, [1.0]))
    assert traj.provenance["startup"] == "ExactStartup"
    phi_s = make_phi_for_method(m, 0.2, PhiKind.PHI8)
    traj = integrate(_config(seir0, m, phi_s, 0.1, 1.0, seir_y0))
    assert traj.provenance["startup"] == "RungeKuttaStartup"


def test_startup_states_match_exact_solution(logistic2):
    m = get_method("sspms64")
    phi = make_phi_for_method(m, 0.5, PhiKind.PHI8)
    traj = integrate(_config(logistic2, m, phi, 0.1, 1.0, [1.0]))
    for i in range(6):
        expect = exact_solution(logistic2, 0.1 * i, [1.0])
        assert traj.states[i] == pytest.approx(expect, rel=1e-15)


def test_record_modes(logistic2):
    m = get_method("sspms42")
    phi = make_phi_for_method(m, 0.5, PhiKind.PHI5)
    full = integrate(_config(logistic2, m, phi, 0.1, 1.0, [1.0]))
    assert full.states.shape == (11, 1)
    assert full.times[0] == 0.0
    assert full.times[-1] == pytest.approx(1.0)
    final = integrate(_config(logistic2, m, phi, 0.1, 1.0, [1.0],
                              record=RecordMode.FINAL_STATE_ONLY))
    assert final.states.shape == (1, 1)
    assert final.first_index == 10
    assert final.times[0] == pytest.approx(1.0)
    assert final.final_state == pytest.approx(full.final_state, rel=1e-15)


def test_trajectory_csv_roundtrip(logistic2):
    m = get_method("sspms42")
    phi = make_phi_for_method(m, 0.5, PhiKind.PHI5)
    traj = integrate(_config(logistic2, m, phi, 0.25, 2.0, [1.0]))
    text = traj.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "t,u1"
    parsed = np.array([[float(v) for v in line.split(",")]
                       for line in lines[1:]])
    assert np.array_equal(parsed[:, 1], traj.states[:, 0])
    assert np.array_equal(parsed[:, 0], np.asarray(traj.times))


def _csv_by_float_repr(traj) -> str:
    """``Trajectory.to_csv`` as it printed each value with
    ``repr(float(v))``."""
    m = traj.states.shape[1]
    lines = ["t," + ",".join(f"u{k + 1}" for k in range(m))]
    for t, row in zip(traj.times, traj.states):
        lines.append(",".join([repr(float(t))]
                              + [repr(float(v)) for v in row]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("t0, dt, first_index", [
    (0.0, 0.1, 0), (-0.0, 5e-324, 0), (1e308, 1e308, 3), (-2.5, 1 / 3, 7)])
def test_trajectory_csv_equals_per_value_float_repr(t0, dt, first_index):
    states = np.array([[-0.0, 5e-324, 1e308, np.nan],
                       [np.inf, -np.inf, -5e-324, 0.1 + 0.2],
                       [1 / 3, -1e-300, 2.0 ** 60, -0.0]])
    traj = Trajectory(t0=t0, dt=dt, states=states, provenance={},
                      first_index=first_index)
    with np.errstate(over="ignore"):
        assert traj.to_csv() == _csv_by_float_repr(traj)


def test_rk_startup_policy_explicit(seir0, seir_y0):
    m = get_method("sspms42")
    phi = make_phi_for_method(m, 0.2, PhiKind.PHI5)
    traj = integrate(_config(
        seir0, m, phi, 0.05, 1.0, seir_y0,
        startup=RungeKuttaStartup(rk="ssprk22", phi_kind=PhiKind.PHI5)))
    # startup preserves the component sum exactly up to round-off
    sums = traj.states[:4].sum(axis=1)
    assert sums == pytest.approx(np.ones(4), rel=1e-14)


def test_oversized_full_record_is_refused_before_stepping(logistic2):
    # 1e12 steps: the record alone would take about 130 TiB
    counted, calls = counting_rhs(logistic2)
    m = get_method("sspms42")
    phi = make_phi_for_method(m, 0.5, PhiKind.PHI5)
    with pytest.raises(ConfigurationError, match="full record"):
        integrate(_config(counted, m, phi, 1e-12, 1.0, [0.5]))
    assert calls[0] == 0


@pytest.mark.parametrize("method_id", ["sspms64", "ssprk33"])
def test_record_limit_is_the_records_size(seir0, seir_y0, monkeypatch,
                                          method_id):
    m = get_method(method_id)
    phi = make_phi_for_method(m, 0.2, PhiKind.PHI7)
    config = _config(seir0, m, phi, 0.1, 5.0, seir_y0)
    need = record_bytes(51, 4)
    monkeypatch.setattr(integrate_mod, "MAX_RECORD_BYTES", need)
    assert integrate(config).states.shape == (51, 4)
    monkeypatch.setattr(integrate_mod, "MAX_RECORD_BYTES", need - 1)
    with pytest.raises(ConfigurationError, match="full record"):
        integrate(config)
    final = integrate(_config(seir0, m, phi, 0.1, 5.0, seir_y0,
                              record=RecordMode.FINAL_STATE_ONLY))
    assert final.states.shape == (1, 4)


@pytest.mark.parametrize("problem_name, y0", [
    ("logistic", [0.5]), ("seir", [0.8, 0.0, 0.2, 0.0])])
def test_record_bytes_matches_a_runs_peak_memory(problem_name, y0):
    # the guard's estimate is what a full run really holds at its peak
    problem = make_problem(problem_name)
    m = get_method("sspms64")
    config = _config(problem, m, make_phi_for_method(m, 0.2, PhiKind.PHI8),
                     0.005, 20.0, y0)
    integrate(config)
    tracemalloc.start()
    try:
        integrate(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.9 <= peak / record_bytes(4001, len(y0)) <= 1.25


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("startup", ["exact", "runge-kutta", "none"])
def test_non_finite_y0_is_rejected_whatever_the_startup(logistic2, seir0,
                                                        startup, bad):
    # the closed-form and explicit-bound starters never ask for an Euler
    # bound at y0, and a one-step method has no starter: these runs used to
    # return non-finite trajectories
    if startup == "exact":
        method, problem, y0, policy = (get_method("sspms42"), logistic2,
                                       [bad], ExactStartup())
    elif startup == "runge-kutta":
        method, problem, y0, policy = (
            get_method("sspms42"), seir0, [0.8, bad, 0.2, 0.0],
            RungeKuttaStartup("ssprk22", PhiKind.PHI5, bound=0.2))
    else:
        method, problem, y0, policy = (get_method("ssprk22"), logistic2,
                                       [bad], None)
    phi = DenominatorSpec(PhiKind.PHI5, bound=0.5)
    with pytest.raises(ConfigurationError, match="non-finite"):
        integrate(_config(problem, method, phi, 0.5, 5.0, y0,
                          startup=policy))


# ---------------------------------------------------------------------------
# reference solver
# ---------------------------------------------------------------------------


def test_reference_matches_exact_solution(logistic2):
    ref = reference_solution(logistic2, [1.0], 1.0, 1e-5)
    exact = exact_solution(logistic2, 1.0, [1.0])
    assert abs(ref[0] - exact[0]) <= 1e-12


def test_reference_fixed_point():
    prob = seir_problem(0.0)
    y0 = np.array([0.6, 0.0, 0.0, 0.4])
    ref = reference_solution(prob, y0, 5.0, 1e-2)
    assert np.array_equal(ref, y0)


def test_reference_richardson_self_consistency(seir0, seir_y0):
    a = reference_solution(seir0, seir_y0, 5.0, 1e-3)
    b = reference_solution(seir0, seir_y0, 5.0, 5e-4)
    assert np.max(np.abs(a - b)) <= 1e-10


def _rk4_float_loop(problem, y0, n: int, dt: float) -> np.ndarray:
    """The classical RK4 loop with float coefficients."""
    rhs, u = problem.rhs, np.asarray(y0, dtype=float)
    for _ in range(n):
        k1 = rhs(u)
        k2 = rhs(u + (0.5 * dt) * k1)
        k3 = rhs(u + (0.5 * dt) * k2)
        k4 = rhs(u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u


@pytest.mark.parametrize("problem_name, y0, dt", [
    ("logistic", [0.3], 1e-2), ("logistic", [3.0], 0.125),
    ("seir", [0.8, 0.0, 0.2, 0.0], 1e-2), ("seir", [0.5, 0.1, 0.3, 0.1], 0.3)])
def test_reference_equals_float_rk4_loop_bitwise(problem_name, y0, dt):
    problem = make_problem(problem_name)
    got = reference_solution(problem, y0, 100 * dt, dt)
    assert got.tobytes() == _rk4_float_loop(problem, y0, 100, dt).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_reference_rejects_a_non_finite_y0_before_any_step(seir0, bad):
    counted, calls = counting_rhs(seir0)
    with pytest.raises(ConfigurationError, match="non-finite"):
        reference_solution(counted, [0.8, bad, 0.2, 0.0], 5.0, 1e-4)
    assert calls[0] == 0


def test_reference_misaligned_rejected(logistic2):
    with pytest.raises(ConfigurationError):
        reference_solution(logistic2, [1.0], 1.0, 0.3)


# ---------------------------------------------------------------------------
# step-halving sanity
# ---------------------------------------------------------------------------

#: accumulated round-off reaches a few 1e-14 over hundreds of staged steps;
#: ratios against errors below this floor are meaningless
ROUNDOFF_FLOOR = 1e-13


@pytest.mark.parametrize("method_id", sorted(["sspms42", "sspms43", "sspms64",
                                              "ssprk22", "ssprk33", "ssprk104"]))
def test_step_halving_error_ratios(logistic2, method_id):
    method = get_method(method_id)
    p = method.design_order
    phi = make_phi_for_method(method, 0.5, ORDER_MATCHED_PHI[p])
    exact = exact_solution(logistic2, 1.0, [1.0])
    errors = []
    for k in range(8):
        traj = integrate(_config(logistic2, method, phi, 0.05 * 2.0 ** (-k),
                                 1.0, [1.0],
                                 record=RecordMode.FINAL_STATE_ONLY))
        errors.append(abs(float(traj.final_state[0] - exact[0])))
    for k in range(7):
        if errors[k + 1] < ROUNDOFF_FLOOR:
            break
        assert errors[k] / errors[k + 1] >= 2.0 ** (p - 0.5), (k, errors)
