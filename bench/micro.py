"""Micro-timings of single public calls, each a median over a fixed number
of samples.  A sample times a fixed batch of back-to-back calls, so one
sample is well above the clock's resolution; the reported figure is per
call (or per element for the batched calls)."""

from __future__ import annotations

import importlib
import statistics
import time

import numpy as np

from nslmm import problems
from nslmm.denominator import DenominatorSpec, PhiKind, phi_value
from nslmm.methods import get_method

SAMPLES = 41


def _median_per_call(fn, calls: int) -> float:
    fn()
    times = []
    for _ in range(SAMPLES):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - start) / calls)
    return statistics.median(times)


def measure(seed: int) -> dict:
    """name -> (value, unit, samples)."""
    integrate = importlib.import_module("nslmm.integrate")
    rng = np.random.default_rng(seed)
    seir = problems.seir_problem(0.0)
    state = np.array([0.7, 0.05, 0.2, 0.05]) + rng.uniform(0, 0.01, 4)
    batch_n = 20000
    batch = np.tile(state, (batch_n, 1))
    method = get_method("sspms64")
    rk = get_method("ssprk104")
    phi = DenominatorSpec(PhiKind.PHI8, bound=0.05)
    history = [state + 0.001 * k for k in range(method.steps)]
    xs = rng.uniform(0.0, 3.0, 100000)

    def both_phis():
        phi_value(PhiKind.PHI5, 0.1, xs)
        phi_value(PhiKind.PHI8, 0.1, xs)

    out = {}
    out["problems.rhs.us_per_call"] = (
        1e6 * _median_per_call(lambda: seir.rhs(state), 500), "us")
    out["problems.rhs.ns_per_elem"] = (
        1e9 * _median_per_call(lambda: seir.rhs(batch), 5) / batch_n, "ns")
    out["denominator.phi_value.ns_per_elem"] = (
        1e9 * _median_per_call(both_phis, 3) / (2 * xs.size), "ns")
    out["integrate.nslmm_step.us"] = (
        1e6 * _median_per_call(
            lambda: integrate.nslmm_step(method, phi, seir, history, 0.1),
            100), "us")
    out["integrate.nsrk_step.us"] = (
        1e6 * _median_per_call(
            lambda: integrate.nsrk_step(rk, phi, seir, state, 0.1), 50),
        "us")
    return {name: (value, unit, SAMPLES) for name, (value, unit)
            in out.items()}
