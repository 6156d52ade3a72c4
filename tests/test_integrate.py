import dataclasses
import functools
import linecache
import math
import re
import sys
import traceback
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nslmm.integrate  # noqa: F401  (the submodule, looked up below)
from nslmm import (CATALOG, ConfigurationError, DenominatorSpec, ExactStartup,
                   PhiKind, RecordMode, RunConfig, RungeKuttaStartup,
                   eval_phi, exact_solution, forward_euler_step, get_method,
                   integrate, logistic_problem, make_phi_for_method,
                   make_problem, nslmm_step, nsrk_step, reference_solution,
                   seir_problem)
from nslmm import cli
from nslmm.denominator import CATALOG_KINDS, phi_value
from nslmm.experiments import run_preservation_sweep
from nslmm.integrate import (MAX_WORK, STARTER_FOR_ORDER, Trajectory,
                             _run_steps, record_bytes, rhs_calls, rhs_work)
from nslmm.methods import effective_ssp_coefficient
from nslmm.problems import OdeProblem, fe_property_bound, inline_slope

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


@pytest.mark.parametrize("last", [[0.8, 0.0, 0.2], [0.8, 0.0, 0.2, 0.0, 5.0]])
def test_single_steps_refuse_states_of_another_size(seir0, seir_y0, last):
    # the kernel is built for the problem's dimension; a shorter state
    # would fail inside it and a longer one lose its extra components
    phi = DenominatorSpec(PhiKind.IDENTITY)
    with pytest.raises(ValueError, match="problem needs 4"):
        nslmm_step(get_method("sspms42"), phi, seir0,
                   [seir_y0] * 3 + [last], 0.1)
    with pytest.raises(ValueError, match="problem needs 4"):
        nsrk_step(get_method("ssprk33"), phi, seir0, last, 0.1)


def _convex_combination_oracle(method, phi, problem, history, dt):
    """alpha-weighted Euler substeps with effective steps phi(dt)*beta/alpha."""
    h = float(eval_phi(phi, dt))
    acc = np.zeros(problem.dimension)
    (stage,) = method.float_stages
    for src, a, b in stage:
        u = np.asarray(history[src], dtype=float)
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
    float ``h`` or a per-element (B, m) array.  With ``scratch``, a batch
    steps through the batch form of the generated kernel, with the pair
    and ``stage_slots`` more arrays as its work arrays and a fresh array
    for each new state and slope; without, through its single-run form,
    for a list of m floats or a bare state (a float, or a whole array,
    each operation applied to all of it)."""
    m = len(start[0]) if type(start[0]) is list else 1
    s = method.steps
    states = deque(start, maxlen=s)
    slopes = deque([None] * s, maxlen=s)
    if scratch is None:
        kernel = integrate_mod._step_kernel(method, h, m)
    else:
        def fresh():
            return np.empty_like(scratch[0])

        work = [*scratch, *(fresh() for _ in
                            range(integrate_mod.stage_slots(method)))]
        batch = integrate_mod._step_kernel(method, h, m, work)

        def kernel(rhs, states, slopes):
            return batch(rhs, [*states, fresh()], slopes,
                         [fresh() for _ in range(s)])
    out = []
    for _ in range(n):
        new = kernel(rhs, states, slopes)
        states.appendleft(new)
        slopes.appendleft(None)
        out.append(new)
    return out


def _kernel_case(method_id, m, B=5):
    """A method, an rhs of dimension m, newest-first batch start states of
    shape (B, m), per-element step sizes (B,), their (B, m) array, and a
    step count that runs every state through a multistep ring twice."""
    method = get_method(method_id)
    problem = logistic_problem(2.0) if m == 1 else seir_problem(0.0)
    rng = np.random.default_rng(sum(map(ord, method_id)) + m)
    start = [rng.uniform(0.05, 0.95, (B, m)) for _ in range(method.steps)]
    h = rng.uniform(0.01, 0.3, B)
    s = method.steps if method.steps > 1 else len(method.stages)
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


@pytest.mark.parametrize("method_id", ["ssprk22", "ssprk33", "ssprk104"])
def test_batch_stage_kernels_drop_what_no_later_stage_reads(method_id):
    # a ten-stage batch step keeps its stage values and slopes in a few
    # slots: whenever a stage calls rhs, a stage value made before, and its
    # slope, still hold their bits when this stage or a later one reads
    # them; the slots of the others are free, and taken again
    method = get_method(method_id)
    stages = method.float_stages
    last_read = {src: k for k, stage in enumerate(stages)
                 for src, _a, _b in stage}
    first_slope = {}
    for k, stage in enumerate(stages):
        for src, _a, b in stage:
            if b != 0.0:
                first_slope.setdefault(src, k)
    calls = list(first_slope)  # the source each rhs call evaluates
    seir = seir_problem(0.0).rhs
    made, seen = [], []

    def rhs(u, out):
        src = calls[len(made)]
        seen.append((first_slope[src],
                     [(made_src, _same_bits(value, kept),
                       _same_bits(slope, kept_slope))
                      for made_src, value, kept, slope, kept_slope in made]))
        f = seir(u, out)
        made.append((src, u, u.copy(), f, f.copy()))
        return f

    batch = np.full((3, 4), 0.25, order="F")
    scratch = (np.empty_like(batch), np.empty_like(batch))
    _kernel_steps(method, rhs, [batch], np.full((3, 4), 0.1, order="F"), 1,
                  scratch)
    assert len(made) == len(calls)
    held = set()
    for k, values in seen:
        # source 0, the step's input state, is the caller's ring's
        for src, value, slope in values[1:]:
            if last_read[src] >= k:
                assert value and slope, (k, src)
            held.add(last_read[src] >= k)
    # every stage value and slope is in a slot, and the slots are reused
    slots = {id(a) for _src, value, _v, slope, _f in made[1:]
             for a in (value, slope)}
    assert len(slots) == integrate_mod.stage_slots(method) == {
        "ssprk22": 2, "ssprk33": 3, "ssprk104": 5}[method_id]
    # ssprk22 makes no stage value before its last stage; ssprk33's last
    # stage reads the input and its second stage value alone
    assert held == {"ssprk22": set(), "ssprk33": {False},
                    "ssprk104": {False, True}}[method_id]


# ---------------------------------------------------------------------------
# single runs against Python-float coefficients
# ---------------------------------------------------------------------------

def _float_step(method, rhs, states, h: float) -> np.ndarray:
    """One step with float a and h*b from the ring ``states``, newest
    first, in the kernel's order of operations: source i reads ring state
    i for i < s, else the value of stage i - s + 1."""
    values = list(states)
    for stage in method.float_stages:
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
    s = method.steps
    states = [y0]
    if problem.exact is not None:
        states += [exact_solution(problem, i * dt, y0) for i in range(1, s)]
    elif s > 1:
        rk_id, kind = STARTER_FOR_ORDER[method.design_order]
        rk = get_method(rk_id)
        bound = effective_ssp_coefficient(rk) * fe_property_bound(problem, y0)
        h0 = float(phi_value(kind, bound, dt))
        for _ in range(1, s):
            states.append(_float_step(rk, rhs, states[-1:], h0))
    for _ in range(s - 1, n):
        states.append(_float_step(method, rhs, states[::-1][:s], h))
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
    history = [rng.uniform(0.05, 0.95, m) for _ in range(method.steps)]
    if method.steps > 1:
        got = nslmm_step(method, phi, problem, history, 0.07)
    else:
        got = nsrk_step(method, phi, problem, history[0], 0.07)
    want = _float_step(method, problem.rhs, history, h)
    assert got.shape == (m,)
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# generated single-run kernels against the float oracles
# ---------------------------------------------------------------------------

#: a state component: an ordinary value, or inf, NaN or a signed zero
_COMPONENT = st.one_of(
    st.floats(min_value=-2.0, max_value=2.0),
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0]))


def _same_bits(got, want) -> bool:
    """Bitwise equality of two states of floats, NaN positions counting as
    equal whatever their payloads."""
    got = np.asarray(got, dtype=float).ravel()
    want = np.asarray(want, dtype=float).ravel()
    nan = np.isnan(got)
    return (got.shape == want.shape and (nan == np.isnan(want)).all()
            and (got[~nan].view(np.int64) == want[~nan].view(np.int64)).all())


def _kernel_rhs(m):
    return (logistic_problem(2.0) if m == 1 else seir_problem(0.0)).rhs


@pytest.mark.parametrize("m", [1, 4])
@pytest.mark.parametrize("method_id", sorted(CATALOG))
@settings(derandomize=True)
@given(h=st.floats(min_value=0.0, max_value=2.0), data=st.data())
def test_generated_kernels_equal_float_oracles_bitwise(method_id, m, h, data):
    # non-finite and signed-zero components go through the same IEEE
    # operations in both, so they keep their bits too; in batch form each
    # row has its own states and step size
    method = get_method(method_id)
    rhs = _kernel_rhs(m)
    count = method.steps
    rows = [[np.array(data.draw(st.lists(_COMPONENT, min_size=m,
                                         max_size=m)))
             for _ in range(count)] for _ in range(3)]
    hs = [h] + data.draw(st.lists(st.floats(min_value=0.0, max_value=2.0),
                                  min_size=2, max_size=2))
    states = rows[0]
    batch = [np.asfortranarray([row[k] for row in rows])
             for k in range(count)]
    h_batch = integrate_mod._component_major(hs, m)
    scratch = (np.empty((3, m), order="F"), np.empty((3, m), order="F"))
    with np.errstate(all="ignore"):
        got = _kernel_steps(method, rhs,
                            [integrate_mod._single_state(u) for u in states],
                            h, 1)[0]
        want = _float_step(method, rhs, states, h)
        got_batch = _kernel_steps(method, rhs, batch, h_batch, 1, scratch)[0]
        want_rows = [_float_step(method, rhs, row, row_h)
                     for row, row_h in zip(rows, hs)]
    assert type(got) is (float if m == 1 else list)
    assert _same_bits(got, want), (got, want)
    assert got_batch.shape == (3, m) and got_batch.flags.f_contiguous
    for i, want_row in enumerate(want_rows):
        assert _same_bits(got_batch[i], want_row), (i, got_batch, want_row)


def _rk4_oracle(rhs, u, dt):
    """One classical RK4 step of an (m,) array."""
    half, sixth = 0.5 * dt, dt / 6.0
    k1 = rhs(u)
    k2 = rhs(u + half * k1)
    k3 = rhs(u + half * k2)
    k4 = rhs(u + dt * k3)
    return u + sixth * (((k1 + 2.0 * k2) + 2.0 * k3) + k4)


@pytest.mark.parametrize("m", [1, 4])
@settings(derandomize=True)
@given(dt=st.floats(min_value=0.0, max_value=2.0),
       u=st.lists(_COMPONENT, min_size=4, max_size=4))
def test_generated_rk4_kernel_equals_float_oracle_bitwise(m, dt, u):
    rhs = _kernel_rhs(m)
    u = np.array(u[:m])
    kernel = integrate_mod._rk4_factory(m)(0.5 * dt, dt, dt / 6.0, 2.0)
    with np.errstate(all="ignore"):
        got = kernel(rhs, integrate_mod._single_state(u))
        want = _rk4_oracle(rhs, u, dt)
    assert type(got) is (float if m == 1 else list)
    assert _same_bits(got, want), (got, want)


def test_reference_solution_equals_rk4_oracle_bitwise(seir0, seir_y0):
    want = seir_y0
    for _ in range(50):
        want = _rk4_oracle(seir0.rhs, want, 0.1)
    got = reference_solution(seir0, seir_y0, 5.0, 0.1)
    assert got.tobytes() == want.tobytes()


def _compacting_sweep(problem, method, y0, dt) -> list:
    """The batch sizes of the ``rhs`` calls of a sweep of 12 copies of
    ``y0`` whose horizons end apart, so that its one block compacts."""
    sizes = []

    def rhs(u):
        sizes.append(u.shape[0])
        return problem.rhs(u)

    run_preservation_sweep(
        dataclasses.replace(problem, rhs=rhs), method, PhiKind.PHI8,
        np.full(12, 0.15), np.full(12, dt), np.repeat([y0], 12, axis=0),
        np.arange(6, 54, 4))
    return sizes


@pytest.mark.parametrize("method_id,y0", [
    ("sspms64", [0.75, 0.05, 0.2, 0.0]), ("ssprk104", [0.75, 0.05, 0.2, 0.0]),
    ("sspms43", [0.7])])
def test_a_second_run_of_one_shape_builds_no_kernel(method_id, y0):
    # the factories are cached per term pattern and state size: another
    # step size only passes other coefficients, and a sweep's compaction
    # only other coefficients and scratch
    problem = seir_problem(0.0) if len(y0) > 1 else logistic_problem(2.0)
    method = get_method(method_id)
    phi = make_phi_for_method(method, 0.15,
                              ORDER_MATCHED_PHI[method.design_order])
    multistep = method.steps > 1
    integrate(_config(problem, method, phi, 0.1, 2.0, y0))
    reference_solution(problem, y0, 2.0, 0.1)
    if multistep:
        _compacting_sweep(problem, method, y0, 0.1)
    kernels = integrate_mod._kernel_factory.cache_info()
    rk4 = integrate_mod._rk4_factory.cache_info()
    integrate(_config(problem, method, phi, 0.05, 2.0, y0))
    reference_solution(problem, y0, 2.0, 0.05)
    if multistep:
        assert len(set(_compacting_sweep(problem, method, y0, 0.05))) >= 3
    assert integrate_mod._kernel_factory.cache_info().misses == kernels.misses
    assert integrate_mod._kernel_factory.cache_info().hits > kernels.hits
    assert integrate_mod._rk4_factory.cache_info().misses == rk4.misses


def test_generated_kernels_show_their_lines_in_tracebacks(seir0, seir_y0):
    # a kernel's frame names its term pattern and state size, and its
    # source line is readable, as cProfile and tracebacks print them.
    # The ssprk104 starter makes 50 calls over five steps; the first
    # multistep step then evaluates the slopes at j = 1, 4, 5 in turn.
    calls = [0]

    def rhs(u):
        calls[0] += 1
        if calls[0] == 52:
            raise ZeroDivisionError("slope")
        return seir0.rhs(u)

    problem = dataclasses.replace(seir0, rhs=rhs)
    method = get_method("sspms64")
    phi = make_phi_for_method(method, 0.15, PhiKind.PHI8)
    with pytest.raises(ZeroDivisionError) as info:
        integrate(_config(problem, method, phi, 0.1, 2.0, seir_y0))
    frames = [f for f in traceback.extract_tb(info.tb)
              if f.filename.startswith("<nslmm")]
    assert [f.filename for f in frames] == [
        "<nslmm kernel j=1,4,5,6 f=1,4,5 m=4>"]
    assert frames[0].line == "f1 = slopes[3] = rhs(u1)"
    calls[0] = 50
    with pytest.raises(ZeroDivisionError) as info:
        reference_solution(problem, seir_y0, 1.0, 0.1)
    frames = [f for f in traceback.extract_tb(info.tb)
              if f.filename.startswith("<nslmm")]
    assert [f.filename for f in frames] == ["<nslmm rk4 kernel m=4>"]
    assert frames[0].line.startswith(
        "k2_0, k2_1, k2_2, k2_3 = rhs([u_0 + half*k1_0, ")
    # a sweep's batch kernels, starter stages and multistep step alike
    for count, name, line in [
            (3, "<nslmm batch kernel j=1;v1;v2;v3;1,v4;v5;v6;v7;v8;1,v4,v9"
                " f=1;v1;v2;v3;v4;v5;v6;v7;v8;v4,v9>", "g2 = rhs(v2, w0)"),
            (52, "<nslmm batch kernel j=1,4,5,6 f=1,4,5>",
             "f1 = slopes[3] = rhs(u1, fslots[3])")]:
        calls[0] = 52 - count
        with pytest.raises(ZeroDivisionError) as info:
            run_preservation_sweep(problem, method, PhiKind.PHI8, [0.15],
                                   [0.1], [seir_y0], 20)
        frames = [f for f in traceback.extract_tb(info.tb)
                  if f.filename.startswith("<nslmm")]
        assert [(f.filename, f.line) for f in frames] == [(name, line)]


def test_generated_kernel_sources_hold_no_coefficient(seir0, seir_y0):
    # only identifiers and integer indices: no float literal in any source
    for method_id in sorted(CATALOG):
        method = get_method(method_id)
        integrate(_config(seir0, method, DenominatorSpec(PhiKind.IDENTITY),
                          0.1, 1.0, seir_y0))
    reference_solution(seir0, seir_y0, 1.0, 0.1)
    names = [name for name in linecache.cache
             if name.startswith("<nslmm")]
    assert names
    for name in names:
        source = "".join(linecache.cache[name][2])
        assert not re.search(r"\d\.|\.\d|\de", source), name


# ---------------------------------------------------------------------------
# slope source written into the kernels against calls of rhs
# ---------------------------------------------------------------------------

def _wrapped(problem):
    """``problem`` with its ``rhs`` wrapped as a tracer wraps it
    (``functools.wraps``, which copies the function's attributes), and the
    list of the wrapper's calls."""
    calls = []
    rhs = problem.rhs

    @functools.wraps(rhs)
    def traced(*args, **kwargs):
        calls.append(args[0])
        return rhs(*args, **kwargs)

    return dataclasses.replace(problem, rhs=traced), calls


#: a logistic initial value below 0, inside [0, c] or above c, as a
#: fraction of c
_LOGISTIC_Y0 = st.one_of(st.floats(min_value=-1.0, max_value=-0.01),
                         st.floats(min_value=0.0, max_value=1.0),
                         st.floats(min_value=1.01, max_value=3.0))


@settings(max_examples=40)
@given(method_id=st.sampled_from(sorted(CATALOG)),
       seir=st.booleans(),
       c=st.floats(min_value=0.5, max_value=4.0),
       y0=_LOGISTIC_Y0,
       influx=st.sampled_from([0.0, 0.3]),
       infected=st.floats(min_value=0.01, max_value=0.9),
       dt=st.sampled_from([0.01, 0.05, 0.2, 1.0]),
       starter=st.booleans(),
       n=st.integers(min_value=6, max_value=24))
def test_inlined_slope_equals_calling_rhs_bitwise(method_id, seir, c, y0,
                                                  influx, infected, dt,
                                                  starter, n):
    # a built-in problem's runs write its slope source into the kernels;
    # the same problem with its rhs wrapped calls rhs once per slope.  Both
    # make the same operations in the same order, so the same bits, in the
    # runs with their startups, the single steps and the RK4 reference
    if seir:
        problem = seir_problem(influx)
        u0 = [1.0 - infected, 0.0, infected, 0.0]
    else:
        problem = logistic_problem(c)
        u0 = [y0 * c]
    method = get_method(method_id)
    phi = make_phi_for_method(method, fe_property_bound(problem, u0),
                              ORDER_MATCHED_PHI[method.design_order])
    startup = None
    if starter and method.steps > 1:
        startup = RungeKuttaStartup(*STARTER_FOR_ORDER[method.design_order])
    history = [np.array(u0) * (1.0 + 0.01 * k) for k in range(method.steps)]
    calling, calls = _wrapped(problem)
    assert inline_slope(problem) is problem.slope
    assert inline_slope(calling) is None

    def outputs(p):
        runs = [integrate(_config(p, method, phi, dt, n * dt, u0,
                                  startup=startup, record=record)).states
                for record in RecordMode]
        if method.steps > 1:
            step = nslmm_step(method, phi, p, history, dt)
        else:
            step = nsrk_step(method, phi, p, history[0], dt)
        return runs + [step, reference_solution(p, u0, n * dt, dt)]

    with np.errstate(all="ignore"):
        inlined = outputs(problem)
        called = outputs(calling)
    assert calls
    for got, want in zip(inlined, called):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("method_id,seir", [
    ("sspms64", True), ("sspms43", False), ("ssprk104", True),
    ("ssprk33", False)])
def test_a_wrapped_rhs_sees_every_slope_evaluation(method_id, seir):
    # a wrapper made with functools.wraps carries the attributes of the
    # rhs it wraps, but is not that rhs, so runs call it: once per slope
    # that ``rhs_calls`` counts, the starter's included, four per RK4
    # reference step, as a traced run counts them
    problem = seir_problem(0.0) if seir else logistic_problem(2.0)
    y0 = [0.8, 0.0, 0.2, 0.0] if seir else [0.4]
    method = get_method(method_id)
    phi = make_phi_for_method(method, 0.1, PhiKind.PHI8)
    problem.rhs.marker = "built from the slope source"
    try:
        wrapped, calls = _wrapped(problem)
    finally:
        del problem.rhs.marker
    assert wrapped.rhs.marker == "built from the slope source"
    assert wrapped.rhs.__wrapped__ is problem.rhs
    n = 30
    integrate(_config(wrapped, method, phi, 0.05, n * 0.05, y0))
    s = method.steps
    if s == 1:
        want = n * rhs_calls(method)
    else:
        starter = 0
        if seir:
            rk = get_method(STARTER_FOR_ORDER[method.design_order][0])
            starter = (s - 1) * rhs_calls(rk)
        want = starter + slope_evaluations(method, n)
    assert len(calls) == want
    calls.clear()
    reference_solution(wrapped, y0, 1.0, 0.05)
    assert len(calls) == 4 * 20
    calls.clear()
    history = [np.array(y0)] * s
    if s > 1:
        # a lone step has no slope ring to take slopes from
        nslmm_step(method, phi, wrapped, history, 0.05)
        (stage,) = method.float_stages
        assert len(calls) == sum(b != 0.0 for _src, _a, b in stage)
    else:
        nsrk_step(method, phi, wrapped, history[0], 0.05)
        assert len(calls) == rhs_calls(method)
    # the problem as built calls nothing: its slope is in the kernels
    calls.clear()
    integrate(_config(problem, method, phi, 0.05, n * 0.05, y0))
    reference_solution(problem, y0, 1.0, 0.05)
    assert calls == []


def _array_step_chain(problem, method, phi, dt, n, y0) -> np.ndarray:
    """Every state of an ``n``-step run under the default startup, chained
    through ``nslmm_step``/``nsrk_step`` on (m,) arrays."""
    u0 = np.asarray(y0, dtype=float)
    if method.steps > 1:
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
    expect = sum(a * history[src] for src, a, _b in m.float_stages[0])
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


@pytest.mark.parametrize("method_id", KERNEL_IDS)
def test_run_makes_one_rhs_call_per_step(logistic2, method_id):
    # after the closed-form startup, each multistep step evaluates the
    # slope of one new state; the slopes it reads of older states are
    # cached.  A Runge-Kutta step evaluates one slope per source that a
    # term reads with a slope, each once however many stages read it.
    problem, calls = counting_rhs(logistic2)
    m = get_method(method_id)
    n_steps = 50
    integrate(_config(problem, m, make_phi_for_method(m, 0.5, PhiKind.PHI8),
                      0.02, n_steps * 0.02, [0.4]))
    per_step = {"ssprk22": 2, "ssprk33": 3, "ssprk104": 10}
    assert calls[0] == (n_steps * per_step[method_id]
                        if method_id in per_step
                        else slope_evaluations(m, n_steps))


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


@pytest.mark.parametrize("m", [1, 4])
def test_trajectory_csv_chunks_equal_per_value_float_repr(tmp_path, m):
    # more rows than one chunk, with the special values spread over the
    # chunk boundaries; ``solve`` streams the same chunks to its output
    rows = 2 * integrate_mod.CSV_CHUNK_ROWS + 1
    specials = [-0.0, 5e-324, -5e-324, np.nan, np.inf, -np.inf, 1e308, 0.1]
    rng = np.random.default_rng(7)
    states = rng.standard_normal((rows, m))
    for i, a in enumerate(range(0, rows, integrate_mod.CSV_CHUNK_ROWS // 4)):
        for r in (a - 1, a, a + 1):
            if 0 <= r < rows:
                states[r, i % m] = specials[(r + i) % len(specials)]
    traj = Trajectory(t0=-0.0, dt=1 / 3, states=states, provenance={},
                      first_index=5)
    want = _csv_by_float_repr(traj)
    assert traj.to_csv() == want
    assert [len(c.splitlines()) for c in traj.csv_chunks()] == [
        1, integrate_mod.CSV_CHUNK_ROWS, integrate_mod.CSV_CHUNK_ROWS, 1]
    out = tmp_path / "x.csv"
    cli._write_output(traj.csv_chunks(), str(out))
    assert out.read_text() == want


def test_solve_streams_the_csv_of_its_run(capsys, seir0, seir_y0):
    # 1201 rows that overflow to inf and NaN, written to stdout in chunks
    m = get_method("sspms64")
    with np.errstate(over="ignore", invalid="ignore"):
        want = _csv_by_float_repr(integrate(_config(
            seir0, m, DenominatorSpec(PhiKind.IDENTITY), 5.0, 6000.0,
            seir_y0)))
    assert "nan" in want and "inf" in want
    code = cli.main(["solve", "--problem", "seir", "--y0", "0.8,0,0.2,0",
                     "--method", "sspms64", "--standard", "--dt", "5",
                     "--t-end", "6000"])
    assert code == 0
    assert capsys.readouterr().out == want


def test_rk_startup_policy_explicit(seir0, seir_y0):
    m = get_method("sspms42")
    phi = make_phi_for_method(m, 0.2, PhiKind.PHI5)
    traj = integrate(_config(
        seir0, m, phi, 0.05, 1.0, seir_y0,
        startup=RungeKuttaStartup(rk="ssprk22", phi_kind=PhiKind.PHI5)))
    # startup preserves the component sum exactly up to round-off
    sums = traj.states[:4].sum(axis=1)
    assert sums == pytest.approx(np.ones(4), rel=1e-14)


@pytest.mark.parametrize("starter", ["sspms43", get_method("sspms43")])
def test_multistep_starter_is_refused(seir0, seir_y0, starter):
    m = get_method("sspms42")
    phi = make_phi_for_method(m, 0.2, PhiKind.PHI5)
    with pytest.raises(ConfigurationError, match="not a one-step method"):
        integrate(_config(seir0, m, phi, 0.05, 1.0, seir_y0,
                          startup=RungeKuttaStartup(rk=starter)))


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


@pytest.mark.parametrize("method_id", list(CATALOG))
def test_rhs_calls_are_a_steps_rhs_calls(logistic2, method_id):
    # the work estimate's count: a Runge-Kutta step's calls exactly, and a
    # multistep run's one per step, which its closed-form startup states
    # add at most s - 1 to
    counted, calls = counting_rhs(logistic2)
    m = get_method(method_id)
    phi = make_phi_for_method(m, 0.2, PhiKind.PHI5)
    integrate(_config(counted, m, phi, 0.1, 5.0, [0.5],
                      record=RecordMode.FINAL_STATE_ONLY))
    if m.steps > 1:
        assert rhs_calls(m) == 1
        assert calls[0] == slope_evaluations(m, 50)
    else:
        assert calls[0] == 50 * rhs_calls(m)


@pytest.mark.parametrize("method_id", ["sspms64", "ssprk33"])
def test_work_limit_is_the_runs_rhs_evaluations(seir0, seir_y0, monkeypatch,
                                                method_id):
    counted, calls = counting_rhs(seir0)
    m = get_method(method_id)
    phi = make_phi_for_method(m, 0.2, PhiKind.PHI7)
    config = _config(counted, m, phi, 0.1, 5.0, seir_y0,
                     record=RecordMode.FINAL_STATE_ONLY)
    need = rhs_work(50, rhs_calls(m), 4)
    monkeypatch.setattr(integrate_mod, "MAX_WORK", need)
    integrate(config)
    assert calls[0] > 0
    calls[0] = 0
    monkeypatch.setattr(integrate_mod, "MAX_WORK", need - 1)
    with pytest.raises(ConfigurationError, match="rhs evaluations"):
        integrate(config)
    assert calls[0] == 0


def test_work_limit_takes_a_run_just_under_it_without_stepping():
    # a one-component multistep run makes one rhs evaluation per step, so
    # 2**43 - 1 steps are just under the limit and 2**43 + 1 just over it;
    # neither is stepped
    assert MAX_WORK == 2 ** 43
    m = get_method("sspms64")
    dt = 2.0 ** -43
    assert _run_steps(m, 0.0, 1.0 - dt, dt, 1) == MAX_WORK - 1
    with pytest.raises(ConfigurationError, match="rhs evaluations"):
        _run_steps(m, 0.0, 1.0 + dt, dt, 1)


@pytest.mark.parametrize("record", list(RecordMode))
def test_run_that_cannot_finish_is_refused_before_stepping(logistic2,
                                                           record):
    counted, calls = counting_rhs(logistic2)
    m = get_method("sspms42")
    phi = make_phi_for_method(m, 0.5, PhiKind.PHI5)
    with pytest.raises(ConfigurationError, match="rhs evaluations"):
        integrate(_config(counted, m, phi, 1e-20, 1.0, [0.5],
                          record=record))
    assert calls[0] == 0


def test_reference_that_cannot_finish_is_refused_before_stepping(seir0,
                                                                 seir_y0):
    counted, calls = counting_rhs(seir0)
    with pytest.raises(ConfigurationError, match="RK4 reference of 1e"):
        reference_solution(counted, seir_y0, 1.0, 1e-30)
    assert calls[0] == 0


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


@pytest.mark.parametrize("problem_name, y0", [
    ("logistic", "0.5"), ("seir", "0.8,0,0.2,0")])
def test_solve_command_peak_memory_is_the_records(tmp_path, problem_name, y0):
    # the CSV is written in chunks, so writing it holds far less than the
    # run's record, which ``require_size`` bounds
    argv = ["solve", "--problem", problem_name, "--y0", y0,
            "--method", "sspms64", "--phi", "phi8", "--dt", "0.005",
            "--t-end", "20", "--out", str(tmp_path / "x.csv")]
    assert cli.main(argv) == 0
    tracemalloc.start()
    try:
        code = cli.main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 1.25 * record_bytes(4001, y0.count(",") + 1)


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
