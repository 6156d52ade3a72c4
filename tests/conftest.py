import dataclasses

import hypothesis
import numpy as np
import pytest

import nslmm as n

hypothesis.settings.register_profile(
    "numeric", max_examples=60, deadline=None)
hypothesis.settings.load_profile("numeric")


@pytest.fixture(scope="session")
def logistic2():
    return n.logistic_problem(2.0)


@pytest.fixture(scope="session")
def logistic500():
    return n.logistic_problem(500.0)


@pytest.fixture(scope="session")
def seir0():
    return n.seir_problem(0.0)


@pytest.fixture(scope="session")
def seir_y0():
    return np.array([0.8, 0.0, 0.2, 0.0])


#: matching-order transform for each design order, as used throughout
ORDER_MATCHED_PHI = {
    2: n.PhiKind.PHI5,
    3: n.PhiKind.PHI7,
    4: n.PhiKind.PHI8,
}


def counting_rhs(problem):
    """``problem`` with an rhs that counts its calls in ``calls[0]``."""
    calls = [0]

    def rhs(u):
        calls[0] += 1
        return problem.rhs(u)

    return dataclasses.replace(problem, rhs=rhs), calls


def slope_evaluations(method, n_steps: int) -> int:
    """``rhs`` calls a multistep run of ``n_steps`` makes after its startup
    when every state's slope is evaluated once: the distinct states
    u^(n+1-j), beta_j != 0, that steps s-1 .. n_steps-1 read.  That is one
    per step plus at most s - 1 startup states."""
    needed = {k + 1 - j for k in range(method.steps - 1, n_steps)
              for j, _a, b in method.terms if b != 0.0}
    steps = n_steps - method.steps + 1
    assert steps <= len(needed) <= steps + method.steps - 1
    return len(needed)
