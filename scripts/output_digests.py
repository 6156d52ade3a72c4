#!/usr/bin/env python3
"""Digests of the program's outputs, to check that a change left them
byte for byte as they were.

Prints one ``sha256 exit label`` line for the stdout and one for the
stderr of every ``nslmm`` command in README.md's ``sh`` blocks except
``bench`` (whose output is timings), each run in-process through
``nslmm.cli.main`` with an ``--out FILE`` sent to stdout instead, one
line for each CSV that ``run_convergence_tables.py --quick`` writes, and
one for each CSV that ``run_sharpness.py --n-y0 6 --n-dt 10`` writes for
each of its settings (with that script's exit code), all in-process; the
``seir`` setting starts its sweeps with batched Runge-Kutta steps.  Then
one line for the whole ``SweepOutcome`` (every field's bytes, final
states included) of a small ``logistic_preservation_grid``, of a small
``seir_conservation_sweep`` without and with influx, whose own result is
the deviations alone, and of a SEIR ``run_preservation_sweep`` of two
blocks that compact (so that a block's arrays are made again, and reused
from step to step, under the same check); their exit is 0.  Then one
``[SharpnessReport]`` line, over every row with its status, for each of
a logistic bisection whose rows end below range, at its top and inside
it, a SEIR weak-monotonicity bisection, and two logistic
weak-monotonicity bisections together (two horizons) whose rows below zero
have ranges that reach the largest float.  Then one ``[inlined kernels]``
line for the single-run step kernels of every catalog method and the RK4
reference kernel with the logistic and the SEIR slope source written in,
as ``linecache`` holds their names and sources.  Last, one ``[kernels]``
line for every catalog method's ``float_stages`` and the sources of its
generated step kernels that call ``rhs``: the single-run form at m = 1
and m = 4 and the batch form.  It takes a few
seconds.  Diffing the output of two trees shows which outputs moved:

    PYTHONPATH=src python scripts/output_digests.py > digests.txt
"""

import contextlib
import dataclasses
import hashlib
import io
import linecache
import re
import shlex
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np

import run_convergence_tables
import run_sharpness
from nslmm import (BOUNDEDNESS, CATALOG, WEAK_MONOTONICITY, PhiKind, cli,
                   experiments, get_method)
from nslmm.denominator import ssp_threshold
from nslmm.integrate import _rk4_factory, _step_kernel, stage_slots
from nslmm.problems import (fe_property_bound, inline_slope,
                            logistic_problem, seir_problem)

ROOT = Path(__file__).resolve().parents[1]


def readme_commands():
    """The argument vectors of README.md's ``nslmm`` commands but bench."""
    text = (ROOT / "README.md").read_text()
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["nslmm"] and argv[1] != "bench":
                yield [("-" if prev == "--out" else arg)
                       for prev, arg in zip([None] + argv[1:], argv[1:])]


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process ``nslmm`` run; every
    run shows its warnings as a fresh process would."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("default")
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sweep_outcomes():
    """(label, ``SweepOutcome``) of sweeps: a logistic grid whose elements
    settle, cycle or fail, SEIR batches whose invariant has a fixed and a
    moving target, and a SEIR batch of two blocks that compact."""
    outcomes = []
    sweep = experiments.run_preservation_sweep

    def keep(*args, **kwargs):
        outcomes.append(sweep(*args, **kwargs))
        return outcomes[-1]

    with mock.patch.object(experiments, "run_preservation_sweep", keep):
        experiments.logistic_preservation_grid(
            2.0, np.linspace(0.1, 4.0, 6), np.geomspace(0.5, 3.0, 10),
            get_method("sspms42"), PhiKind.PHI5, n_steps=200)
        yield ("logistic_preservation_grid c=2 sspms42 phi5", outcomes[-1])
        infected = np.linspace(0.01, 0.9, 6)
        y0s = np.repeat(np.stack([1.0 - infected, 0.0 * infected, infected,
                                  0.0 * infected], axis=1), 10, axis=0)
        dts = np.tile(np.geomspace(0.01, 3.0, 10), 6)
        for influx in (0.0, 0.1):
            experiments.seir_conservation_sweep(
                get_method("sspms64"), PhiKind.PHI8, y0s, dts, n_steps=200,
                influx=influx)
            yield (f"seir_conservation_sweep influx={influx} sspms64 phi8",
                   outcomes[-1])
    # two blocks of 2500 elements whose horizons end apart, so that each
    # compacts and the next reuses nothing of the one before
    infected = np.linspace(0.01, 0.9, 5000)
    y0s = np.stack([1.0 - infected, 0.0 * infected, infected,
                    0.0 * infected], axis=1)
    problem = seir_problem(0.0)
    method = get_method("sspms64")
    dts = np.geomspace(0.01, 3.0, 5000)[::-1]
    yield ("run_preservation_sweep seir sspms64 phi8 B=5000 horizons 6-69",
           experiments.run_preservation_sweep(
               problem, method, PhiKind.PHI8,
               ssp_threshold(method, fe_property_bound(problem, y0s)), dts,
               y0s, 6 + np.arange(5000) % 64, lower=0.0,
               invariant_weights=np.ones(4)))


def sharpness_reports():
    """(label, ``SharpnessRow`` tuple) of bisections that every status
    and both checked property classes show in: logistic rows of which the
    narrow range puts some below range, one at its top and the others in
    it, a SEIR weak-monotonicity bisection started by Runge-Kutta steps,
    and logistic weak-monotonicity bisections over two horizons whose rows
    below zero have an unconditional sufficient threshold, so that their
    ranges reach the largest float."""
    logistic = logistic_problem(2.0)
    y0s = np.array([[0.3], [1.0], [1.9], [2.0], [2.5], [4.0]])
    yield ("sharpness_bisection logistic c=2 sspms64 phi8 boundedness "
           "interval_scale=(1.1, 1.5)",
           experiments.sharpness_bisection(
               logistic, get_method("sspms64"), PhiKind.PHI8,
               y0s, np.geomspace(0.5, 3.0, 12), 30.0, BOUNDEDNESS,
               interval_scale=(1.1, 1.5), tol=1e-3).rows)
    problem = seir_problem(0.0)
    labels = np.array([0.01, 0.2, 0.6, 0.95])
    yield ("sharpness_bisection seir sspms43 phi7 weak-monotonicity",
           experiments.sharpness_bisection(
               problem, get_method("sspms43"), PhiKind.PHI7,
               problem.sharpness_states(labels), np.geomspace(0.5, 3.0, 8),
               20.0, WEAK_MONOTONICITY, labels=labels, tol=1e-3).rows)
    # rows below range, at the top of a range that reaches the largest
    # float, and inside a range
    yield ("sharpness_bisection logistic c=2 sspms64 phi8 weak-monotonicity "
           "y0 -1, -0.01, 0.5 t_end 1 and 5",
           sum((experiments.sharpness_bisection(
                    logistic, get_method("sspms64"), PhiKind.PHI8,
                    np.array([[-1.0], [-0.01], [0.5]]),
                    np.geomspace(0.05, 3.0, 8), t_end, WEAK_MONOTONICITY,
                    tol=1e-3).rows for t_end in (1.0, 5.0)), ()))


def kernel_digest() -> str:
    """sha256 of each catalog method's float stage view and its generated
    kernels' names and sources, in catalog order."""
    h = hashlib.sha256()
    for method in CATALOG.values():
        h.update(repr(method.float_stages).encode())
        work = [np.empty((1, 4)) for _ in range(2 + stage_slots(method))]
        for kernel in (_step_kernel(method, 0.1, 1),
                       _step_kernel(method, 0.1, 4),
                       _step_kernel(method, np.full((1, 4), 0.1), 4, work)):
            name = kernel.__code__.co_filename
            h.update(name.encode())
            h.update("".join(linecache.cache[name][2]).encode())
    return h.hexdigest()


def inlined_kernel_digest() -> str:
    """sha256 of the names and sources of the single-run kernels with a
    built-in problem's slope source written in: every catalog method's,
    then the RK4 reference's, for logistic and then SEIR."""
    h = hashlib.sha256()
    for problem in (logistic_problem(2.0), seir_problem(0.0)):
        slope = inline_slope(problem)
        codes = [_step_kernel(method, 0.1, problem.dimension,
                              slope=slope).__code__
                 for method in CATALOG.values()]
        codes.append(_rk4_factory(problem.dimension, slope.source).__code__)
        for code in codes:
            h.update(code.co_filename.encode())
            h.update("".join(linecache.cache[code.co_filename][2]).encode())
    return h.hexdigest()


def main() -> int:
    lines = []
    for argv in readme_commands():
        code, out, err = run_cli(argv)
        label = "nslmm " + shlex.join(argv)
        lines.append(f"{digest(out)} {code} {label} [stdout]")
        lines.append(f"{digest(err)} {code} {label} [stderr]")
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            code = run_convergence_tables.main(["--quick", "--out-dir", tmp])
        for path in sorted(Path(tmp).iterdir()):
            lines.append(f"{digest(path.read_text())} {code} "
                         f"run_convergence_tables.py --quick {path.name}")
    for setting in sorted(run_sharpness.SETTINGS):
        argv = ["--setting", setting, "--n-y0", "6", "--n-dt", "10"]
        with tempfile.TemporaryDirectory() as tmp:
            with contextlib.redirect_stdout(io.StringIO()):
                code = run_sharpness.main(argv + ["--out-dir", tmp])
            for path in sorted(Path(tmp).iterdir()):
                lines.append(f"{digest(path.read_text())} {code} "
                             f"run_sharpness.py {shlex.join(argv)} "
                             f"{path.name}")
    for label, outcome in sweep_outcomes():
        data = b"".join(getattr(outcome, field.name).tobytes()
                        for field in dataclasses.fields(outcome))
        lines.append(f"{hashlib.sha256(data).hexdigest()} 0 {label} "
                     "[SweepOutcome]")
    for label, rows in sharpness_reports():
        # every row's fields, its status included, as repr writes them
        lines.append(f"{digest(repr(rows))} 0 {label} [SharpnessReport]")
    lines.append(f"{inlined_kernel_digest()} 0 catalog kernels with slope "
                 "sources [inlined kernels]")
    lines.append(f"{kernel_digest()} 0 catalog kernels [kernels]")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
