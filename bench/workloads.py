"""The benchmark's three workloads: input generation from a seed, the timed
job, and the output checks that run after it.

Each workload builds its inputs once per run from ``--seed``; every job of
the run then repeats the same work on those inputs, so per-job counts are
exact.  Checks come in two kinds: seed-independent guarantees that hold on
any seed (the preservation theory, convergence orders), and comparison
against the outputs recorded in ``golden.json`` for the seeds listed there.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import time

import numpy as np

from nslmm import cli, experiments, problems
from nslmm.denominator import PhiKind, make_phi_for_method
from nslmm.experiments import BOUNDEDNESS
from nslmm.integrate import RecordMode, RunConfig, integrate
from nslmm.methods import get_method

#: relative tolerance on recorded convergence errors, absolute on orders
ERROR_RTOL = 0.01
ORDER_ATOL = 0.02
#: SEIR observed orders on the grid used here, for any seed
SEIR_ORDER_RANGE = (3.9, 4.05)
#: largest allowed drift of the SEIR component sum in the sweep
INVARIANT_TOL = 1e-10


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stratified(rng, lo: float, hi: float, n: int) -> np.ndarray:
    """n sorted values, one drawn inside each of n equal cells of [lo, hi]."""
    width = (hi - lo) / n
    return lo + (np.arange(n) + rng.uniform(0.05, 0.95, n)) * width


def reference_kernel(shape: tuple, reps: int):
    """A fixed numpy loop that uses nothing of nslmm: ``reps`` rounds of
    four elementwise operations on an array of ``shape``.  Its wall time,
    taken next to every job, measures how fast the host runs at that
    moment, and the job's time divided by it cancels the host's speed
    changes while every change in the program still shows in full."""
    base = np.linspace(0.1, 1.0, math.prod(shape)).reshape(shape)

    def kernel():
        x = base
        for _ in range(reps):
            x = np.maximum(x * 0.999 + 0.001 * base, 0.0)
        return x

    return kernel


def _read_table(path) -> list[list[float | None]]:
    with open(path) as fh:
        lines = fh.read().splitlines()[1:]
    return [[float(v) if v else None for v in line.split(",")]
            for line in lines]


class Workload:
    """Interface of a workload; ``prepare`` and ``check`` run untimed."""

    name = ""
    #: reference kernel array shape and rounds, near the array sizes the
    #: workload's numpy calls see, and about 20 ms long
    REF_SHAPE = (4,)
    REF_REPS = 4000
    #: a stage ends at the first stage point after this many seconds
    STAGE_S = 0.2

    def __init__(self):
        self.between = None
        self.stage_end = 0.0

    def reference(self):
        return reference_kernel(self.REF_SHAPE, self.REF_REPS)

    @contextlib.contextmanager
    def staged(self, between):
        """Let ``stage_point`` end stages by calling ``between``."""
        self.between = between
        self.stage_end = time.perf_counter() + self.STAGE_S
        try:
            yield
        finally:
            self.between = None

    def stage_point(self) -> None:
        """A place inside the program where a stage may end: it does once
        the stage has run ``STAGE_S``.  Calls that take about a second are
        longer than the host keeps one speed."""
        if self.between and time.perf_counter() >= self.stage_end:
            self.between()
            self.stage_end = time.perf_counter() + self.STAGE_S

    def make_inputs(self, seed: int) -> dict:
        raise NotImplementedError

    def prepare(self, inputs: dict, golden: dict | None):
        """What ``check`` compares against, built once per run."""
        return golden

    def run(self, inputs: dict, workdir, between=None):
        """One job; a job made of stages calls ``between`` (when given)
        after each stage but the last, itself or through ``stage_point``."""
        raise NotImplementedError

    def record(self, output) -> dict:
        """The seed-specific outputs kept in golden.json."""
        raise NotImplementedError

    def check(self, inputs: dict, output, expected) -> list:
        raise NotImplementedError

    def output_bytes(self, output) -> int:
        return 0


class Scalar(Workload):
    """Three CLI commands run in-process: a SEIR ``solve`` with property
    checks, a SEIR convergence table against an RK4 reference, and the
    logistic c=2 exact-reference table."""

    name = "scalar"
    SOLVE_STEPS = 2000

    def make_inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        i0 = float(rng.uniform(0.1, 0.3))
        y_log = float(rng.uniform(0.5, 1.5))
        t_solve = float(rng.uniform(15.0, 25.0))
        seir_y0 = f"{1.0 - i0!r},0,{i0!r},0"
        commands = {
            "solve": ["solve", "--problem", "seir", "--y0", seir_y0,
                      "--method", "sspms64", "--phi", "phi8",
                      "--dt", repr(t_solve / self.SOLVE_STEPS),
                      "--t-end", repr(t_solve),
                      "--check", "bound-below:0", "--check", "sum"],
            "seir_conv": ["convergence", "--problem", "seir", "--y0", seir_y0,
                          "--method", "sspms64", "--phi", "phi8",
                          "--startup", "nsrk:ssprk104:phi8",
                          "--dt-base", "0.0125", "--halvings", "3",
                          "--t-end", "2", "--reference", "rk4:1e-3"],
            "logistic_conv": ["convergence", "--problem", "logistic",
                              "--params", "c=2", "--y0", repr(y_log),
                              "--method", "sspms64", "--phi", "phi8",
                              "--dt-base", "0.1", "--halvings", "7",
                              "--t-end", "1", "--reference", "exact"],
        }
        return {"commands": commands}

    def run(self, inputs: dict, workdir, between=None) -> dict:
        result = {}
        for label, argv in inputs["commands"].items():
            if result and between:
                between()
            path = workdir / f"{label}.csv"
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(argv + ["--out", str(path)])
            result[label] = (code, err.getvalue(), path)
        return result

    def output_bytes(self, output: dict) -> int:
        return sum(path.stat().st_size for _, _, path in output.values())

    def summary(self, output: dict) -> dict:
        return {label: _read_table(output[label][2])
                for label in ("seir_conv", "logistic_conv")}

    def record(self, output: dict) -> dict:
        return self.summary(output)

    def check(self, inputs: dict, output: dict, golden: dict | None) -> list:
        bad = []
        for label, (code, err, path) in output.items():
            if code != 0:
                bad.append(f"{label}: exit {code}: {err.strip()}")
        if bad:
            return bad
        reports = [json.loads(line) for line in
                   output["solve"][1].splitlines() if line]
        if len(reports) != 2 or not all(r.get("holds") is True
                                        for r in reports):
            bad.append(f"solve checks do not all hold: {reports}")
        with open(output["solve"][2]) as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != self.SOLVE_STEPS + 1:
            bad.append(f"solve wrote {rows} states")
        tables = self.summary(output)
        lo, hi = SEIR_ORDER_RANGE
        orders = [row[2] for row in tables["seir_conv"][1:]]
        if not all(o is not None and lo <= o <= hi for o in orders):
            bad.append(f"seir orders {orders} outside [{lo}, {hi}]")
        if golden is not None:
            for label, table in tables.items():
                want = golden[label]
                if len(table) != len(want):
                    bad.append(f"{label}: {len(table)} rows, "
                               f"recorded {len(want)}")
                    continue
                for (dt, err, order), (_, err0, order0) in zip(table, want):
                    if not math.isclose(err, err0, rel_tol=ERROR_RTOL):
                        bad.append(f"{label} dt={dt}: error {err!r}, "
                                   f"recorded {err0!r}")
                    if (order is None) != (order0 is None) or (
                            order is not None
                            and abs(order - order0) > ORDER_ATOL):
                        bad.append(f"{label} dt={dt}: order {order!r}, "
                                   f"recorded {order0!r}")
        return bad


class Sharpness(Workload):
    """Threshold-sharpness bisection on logistic c=2 with sspms42/phi5 and
    the boundedness property: the README sweep with fewer rows."""

    name = "sharpness"
    REF_SHAPE = (100,)
    N_Y0 = 10
    N_DT = 100
    T_END = 100.0
    TOL = 1e-4

    def __init__(self):
        super().__init__()
        self.staging = False

    def prepare(self, inputs: dict, golden: dict | None):
        """Make the end of each sweep inside ``sharpness_bisection`` a
        stage point."""
        if self.staging:
            return golden
        original = experiments.run_preservation_sweep

        def staging(*args, **kwargs):
            outcome = original(*args, **kwargs)
            self.stage_point()
            return outcome

        staging.__wrapped__ = original
        experiments.run_preservation_sweep = staging
        self.staging = True
        return golden

    def make_inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        labels = _stratified(rng, 0.001, 5.0, self.N_Y0)
        # log-spaced dt grid on [0.5, 3]; interior points jittered by less
        # than half a cell, so the grid stays sorted and its ends (which fix
        # the step counts) stay put
        log_dt = np.linspace(math.log(0.5), math.log(3.0), self.N_DT)
        cell = log_dt[1] - log_dt[0]
        log_dt[1:-1] += rng.uniform(-0.4, 0.4, self.N_DT - 2) * cell
        return {"labels": labels, "states": labels[:, None],
                "dt_grid": np.exp(log_dt), "method": get_method("sspms42")}

    def run(self, inputs: dict, workdir, between=None) -> tuple:
        with self.staged(between):
            report = experiments.sharpness_bisection(
                problems.logistic_problem(2.0), inputs["method"],
                PhiKind.PHI5, inputs["states"], inputs["dt_grid"],
                self.T_END, BOUNDEDNESS, labels=inputs["labels"],
                tol=self.TOL)
        return report, report.to_csv()

    def record(self, output: tuple) -> dict:
        return {"csv_sha256": _sha256(output[1].encode())}

    def check(self, inputs: dict, output: tuple, golden: dict | None) -> list:
        report, csv = output
        bad = []
        if len(report.rows) != self.N_Y0:
            bad.append(f"{len(report.rows)} rows")
        for row in report.rows:
            if row.status not in ("ok", "at-range-top"):
                bad.append(f"y0={row.y0_label!r}: status {row.status}")
            # the theory guarantees the property at the sufficient bound, so
            # bisection ends with a midpoint at most tol/2 below it
            elif not row.empirical_bound >= row.sufficient_bound - self.TOL / 2:
                bad.append(f"y0={row.y0_label!r}: empirical "
                           f"{row.empirical_bound!r} below sufficient "
                           f"{row.sufficient_bound!r}")
        if golden is not None and _sha256(csv.encode()) != golden["csv_sha256"]:
            bad.append("CSV differs from the recorded one")
        return bad


class Sweep(Workload):
    """SEIR conservation sweep over (infected fraction x dt) with
    sspms64/phi8 and the batched Runge-Kutta starter."""

    name = "sweep"
    REF_SHAPE = (20000, 4)
    REF_REPS = 80
    N_I0 = 100
    N_DT = 200
    N_STEPS = 200
    #: batch elements re-run through the scalar ``integrate`` path
    DIFFERENTIAL_SAMPLE = 4

    def __init__(self):
        super().__init__()
        self.outcomes = []
        self.capturing = False

    def make_inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        i0 = _stratified(rng, 0.001, 0.999, self.N_I0)
        dts = np.exp(_stratified(rng, math.log(0.01), math.log(3.0),
                                 self.N_DT))
        infected, dt = np.meshgrid(i0, dts, indexing="ij")
        infected = infected.ravel()
        zeros = np.zeros_like(infected)
        y0s = np.stack([1.0 - infected, zeros, infected, zeros], axis=1)
        sample = rng.choice(y0s.shape[0], self.DIFFERENTIAL_SAMPLE,
                            replace=False)
        return {"y0s": y0s, "dts": dt.ravel(), "sample": np.sort(sample),
                "method": get_method("sspms64")}

    def prepare(self, inputs: dict, golden: dict | None) -> dict:
        """Keep the ``SweepOutcome`` of every sweep (its final states are
        checked, and ``seir_conservation_sweep`` returns only deviations),
        and run the sampled elements through the scalar path.  The end of
        each call to the SEIR problem's ``rhs`` is a stage point."""
        if not self.capturing:
            original = experiments.run_preservation_sweep

            def capturing(*args, **kwargs):
                outcome = original(*args, **kwargs)
                self.outcomes.append(outcome)
                return outcome

            capturing.__wrapped__ = original
            experiments.run_preservation_sweep = capturing

            factory = problems.seir_problem

            def staging_factory(*args, **kwargs):
                problem = factory(*args, **kwargs)
                rhs = problem.rhs

                def staging_rhs(*rhs_args, **rhs_kwargs):
                    slope = rhs(*rhs_args, **rhs_kwargs)
                    self.stage_point()
                    return slope

                return dataclasses.replace(problem, rhs=staging_rhs)

            staging_factory.__wrapped__ = factory
            problems.seir_problem = staging_factory
            self.capturing = True
        return {"golden": golden, "scalar_finals": self.scalar_finals(inputs)}

    def run(self, inputs: dict, workdir, between=None) -> tuple:
        self.outcomes.clear()
        with self.staged(between):
            dev = experiments.seir_conservation_sweep(
                inputs["method"], PhiKind.PHI8, inputs["y0s"],
                inputs["dts"], n_steps=self.N_STEPS)
        return dev, self.outcomes[-1].final_states

    def scalar_finals(self, inputs: dict) -> np.ndarray:
        """Final states of the sampled elements from single scalar runs."""
        problem = problems.seir_problem(0.0)
        method = inputs["method"]
        finals = []
        for i in inputs["sample"]:
            y0 = inputs["y0s"][i]
            dt = float(inputs["dts"][i])
            phi = make_phi_for_method(
                method, problems.fe_property_bound(problem, y0), PhiKind.PHI8)
            traj = integrate(RunConfig(
                problem=problem, method=method, phi=phi, dt=dt,
                t_end=self.N_STEPS * dt, y0=y0,
                record=RecordMode.FINAL_STATE_ONLY))
            finals.append(traj.final_state)
        return np.array(finals)

    def record(self, output: tuple) -> dict:
        return {"final_sha256": _sha256(output[1].tobytes())}

    def check(self, inputs: dict, output: tuple, expected: dict) -> list:
        dev, finals = output
        golden = expected["golden"]
        bad = []
        worst = float(np.max(dev))
        if not worst <= INVARIANT_TOL:
            bad.append(f"invariant deviation {worst!r} > {INVARIANT_TOL}")
        if not np.all(np.isfinite(finals)):
            bad.append("non-finite final states")
        diff = np.max(np.abs(finals[inputs["sample"]]
                             - expected["scalar_finals"]))
        if not diff <= 1e-12:
            bad.append(f"batch and scalar runs differ by {diff!r}")
        if golden is not None and _sha256(finals.tobytes()) != golden["final_sha256"]:
            bad.append("final states differ from the recorded ones")
        return bad


WORKLOADS = {w.name: w for w in (Scalar, Sharpness, Sweep)}
