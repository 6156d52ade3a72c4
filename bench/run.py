#!/usr/bin/env python3
"""Layered benchmark of nslmm.

    python3 bench/run.py --workload scalar|sharpness|sweep|all \\
        --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: jobs run back to back in
this single-threaded process, on inputs generated once from ``--seed``.
Every job's outputs are checked after it, outside the timed region; a job
that raises or fails a check counts as failed.

Every job runs between two runs of a fixed reference kernel that uses
nothing of nslmm (``workloads.reference_kernel``), and so does every stage
of a job that has stages (see ``Workload.run``).  A shared virtual machine
changes speed by up to 2x within seconds, because of other tenants.  A
stage's wall time divided by the geometric mean of the kernel times at its
two ends cancels most of that, while every change in the program still
shows in full; a job's time in ``ref`` is the sum over its stages.

``--trace 0`` reports the end-to-end metrics: the median and tail job time
in units of the reference kernel (``ref``), set-up time (median over fresh
processes, from spawn until imports are done and inputs are built) and peak
resident memory; the wall-time median and tail are printed beside them.
``--trace 1`` reports the per-layer metrics instead: it times untraced
jobs, then micro-timings of single public calls, then jobs with span
wrappers installed around the public functions of every nslmm layer, and
writes the spans to ``.bench_out/``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The program under test is imported from ``src/`` of the
checkout this file sits in, never from elsewhere.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("scalar", "sharpness", "sweep")

#: fresh processes spawned per run to time set-up
SETUP_PROBES = 9
#: share of a traced run's time spent on untraced jobs (the base of
#: trace.overhead_frac); micro-timings follow, traced jobs take the rest
UNTRACED_SHARE = 0.35
#: jobs beyond the tail percentile
TAIL_BEYOND = 10


def pin_environment() -> None:
    """Single-threaded numerics and the default worker count, set before
    numpy is imported and inherited by the set-up probes."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("NSLMM_THREADS", None)


def import_program():
    """Import nslmm from this checkout's ``src/``; None when it is absent."""
    if not (SRC / "nslmm" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import nslmm
    if not Path(nslmm.__file__).resolve().is_relative_to(SRC.resolve()):
        return None
    return nslmm


def load_golden(workload: str, seed: int) -> dict | None:
    with open(BENCH / "golden.json") as fh:
        return json.load(fh)["workloads"][workload].get(str(seed))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def time_setup(workload: str, seed: int) -> float:
    """Seconds from spawn until a fresh process has imported everything and
    built its inputs."""
    start = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {line!r}")
    return elapsed


class NoJobSucceeded(Exception):
    pass


class Meter:
    """Wall time of one job, split into stages with the reference kernel
    timed at both ends of each; the kernel's own time is in no stage."""

    def __init__(self, reference):
        self.reference = reference
        self.wall = 0.0       # seconds
        self.relative = 0.0   # the sum of stage time over kernel time
        self.kernel_s = []

    def _time_reference(self) -> float:
        start = time.perf_counter()
        self.reference()
        elapsed = time.perf_counter() - start
        self.kernel_s.append(elapsed)
        return elapsed

    def start(self) -> None:
        self._ref = self._time_reference()
        self._mark = time.perf_counter()

    def split(self) -> None:
        """End the current stage and start the next."""
        elapsed = time.perf_counter() - self._mark
        ref = self._time_reference()
        self.wall += elapsed
        self.relative += elapsed / math.sqrt(self._ref * ref)
        self._ref = ref
        self._mark = time.perf_counter()


class Loop:
    """Closed loop of checked jobs; keeps wall times and failures."""

    def __init__(self, workload, inputs, expected, workdir):
        self.workload = workload
        self.inputs = inputs
        self.expected = expected
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.first_problem = None
        self.reference = workload.reference()
        self.reference()
        self.kernel_s = []
        #: split jobs into stages; a traced job is always one stage
        self.stages = True

    def job(self, rec=None) -> tuple[float, float] | None:
        """One timed job, then its checks; (wall time in s, time in ref),
        None if the job failed.  With a span recorder ``rec``, the job runs
        inside a root span and is one stage, so that the kernel stays out
        of its spans."""
        self.attempted += 1
        meter = Meter(self.reference)
        split = meter.split if self.stages and rec is None else None
        try:
            meter.start()
            with rec.job_span() if rec else contextlib.nullcontext():
                output = self.workload.run(self.inputs, self.workdir, split)
            meter.split()
            self.kernel_s += meter.kernel_s
            if rec:
                rec.count("cli.output_bytes",
                          self.workload.output_bytes(output))
            problems = self.workload.check(self.inputs, output,
                                           self.expected)
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            self.failed += 1
            if self.first_problem is None:
                self.first_problem = problems
            return None
        return meter.wall, meter.relative

    def run_until(self, deadline: float, rec=None) -> list[tuple]:
        """Jobs back to back until the ``time.perf_counter`` deadline; at
        least one."""
        times = []
        while True:
            timed = self.job(rec)
            if timed is not None:
                times.append(timed)
            if time.perf_counter() >= deadline:
                return times


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND jobs beyond it; the maximum when there are too few jobs."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced job
# ---------------------------------------------------------------------------

#: name -> unit; the order is the order of the report
LAYER_UNITS = {
    "problems.rhs.calls": "count",
    "problems.rhs.self_s": "s",
    "problems.rhs.us_per_call": "us",
    "problems.rhs.ns_per_elem": "ns",
    "denominator.phi_value.calls": "count",
    "denominator.phi_value.ns_per_elem": "ns",
    "integrate.integrate.calls": "count",
    "integrate.integrate.self_s": "s",
    "integrate.us_per_step": "us",
    "integrate.steps": "count",
    "integrate.reference_solution.self_s": "s",
    "integrate.nslmm_step.us": "us",
    "integrate.nsrk_step.us": "us",
    "qualprops.check.self_s": "s",
    "qualprops.check.ns_per_state": "ns",
    "experiments.convergence_study.self_s": "s",
    "experiments.run_preservation_sweep.calls": "count",
    "experiments.run_preservation_sweep.self_s": "s",
    "experiments.sweep.elem_steps": "count",
    "experiments.sweep.ns_per_elem_step": "ns",
    "experiments.sweep.useful_frac": "ratio",
    "experiments.sharpness_bisection.row_s": "s",
    "experiments.bisect.evals_per_row": "count",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_frac": "ratio",
    "trace.uncovered_frac": "ratio",
    "job.wall_s_p50": "s",
}
COUNT_METRICS = tuple(name for name, unit in LAYER_UNITS.items()
                      if unit in ("count", "bytes"))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(job: dict) -> dict:
    calls, total, own = job["calls"], job["total_s"], job["self_s"]
    cnt = job["counters"]
    rps = "experiments.run_preservation_sweep"
    rows = cnt.get("experiments.sharpness_bisection.rows", 0)
    elem_steps = cnt.get("experiments.sweep.elem_steps", 0)
    return {
        "problems.rhs.calls": calls["problems.rhs"],
        "problems.rhs.self_s": own["problems.rhs"],
        "denominator.phi_value.calls": calls["denominator.phi_value"],
        "integrate.integrate.calls": calls["integrate.integrate"],
        "integrate.integrate.self_s": own["integrate.integrate"],
        "integrate.us_per_step": 1e6 * _ratio(
            total["integrate.integrate"],
            cnt.get("integrate.integrate.steps", 0)),
        "integrate.steps": cnt.get("integrate.steps", 0),
        "integrate.reference_solution.self_s":
            own["integrate.reference_solution"],
        "qualprops.check.self_s": own["qualprops.check"],
        "qualprops.check.ns_per_state": 1e9 * _ratio(
            own["qualprops.check"], cnt.get("qualprops.check.states", 0)),
        "experiments.convergence_study.self_s":
            own["experiments.convergence_study"],
        f"{rps}.calls": calls[rps],
        f"{rps}.self_s": own[rps],
        "experiments.sweep.elem_steps": elem_steps,
        "experiments.sweep.ns_per_elem_step":
            1e9 * _ratio(total[rps], elem_steps),
        "experiments.sweep.useful_frac": _ratio(
            cnt.get("experiments.sweep.useful_elem_steps", 0), elem_steps),
        "experiments.sharpness_bisection.row_s":
            _ratio(total["experiments.sharpness_bisection"], rows),
        "experiments.bisect.evals_per_row": _ratio(calls[rps], rows),
        "cli.main.self_s": own["cli.main"],
        "cli.output_bytes": cnt.get("cli.output_bytes", 0),
        "trace.uncovered_frac": _ratio(own["job"], job["wall_s"]),
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def untraced_run(name, loop, args, lines) -> dict:
    loop.job()   # warm-up: caches and lazy set-up, checked but not timed
    # set-up probes are spread over the run, between jobs, so that they
    # sample the same machine conditions as the jobs do
    setup, times = [], []
    start = time.perf_counter()
    for i in range(1, SETUP_PROBES + 1):
        setup.append(time_setup(name, args.seed))
        times += loop.run_until(start + i * args.seconds / SETUP_PROBES)
    if not times:
        raise NoJobSucceeded
    walls = [wall for wall, _ in times]
    relative = [rel for _, rel in times]
    tail_value, tail_pct = tail(relative)
    metrics = {
        "job_ref_p50": (statistics.median(relative), "ref"),
        "job_ref_tail": (tail_value, "ref"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    beyond = len(times) - round(tail_pct * len(times) / 100)
    lines.append(f"job_ref_tail is p{tail_pct:.1f} of {len(times)} jobs "
                 f"({beyond} beyond it); setup_s is the median of "
                 f"{len(setup)} spawns")
    lines.append(f"wall time: job_s_p50 {statistics.median(walls):.6g} s, "
                 f"job_s_tail {tail(walls)[0]:.6g} s, reference kernel "
                 f"median {statistics.median(loop.kernel_s):.6g} s")
    lines.append(f"failed_frac {_ratio(loop.failed, loop.attempted):.4g} "
                 f"({loop.failed}/{loop.attempted})")
    return metrics


def traced_run(name, loop, args, lines) -> dict:
    import micro
    import spans

    # untraced jobs here are one stage like the traced ones, so that
    # trace.overhead_frac compares like with like
    loop.stages = False
    start = time.perf_counter()
    loop.job()   # warm-up
    untraced = loop.run_until(start + UNTRACED_SHARE * args.seconds)
    micro_timings = micro.measure(args.seed)

    rec = spans.Recorder()
    spans.install(rec)
    traced = loop.run_until(start + args.seconds, rec)
    if not untraced or not traced:
        raise NoJobSucceeded

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{name}-seed{args.seed}.jsonl"
    rec.dump(trace_path)
    per_job = [layer_metrics(job) for job_id, job in
               sorted(rec.per_job().items()) if job_id is not None]
    metrics = {}
    for metric in LAYER_UNITS:
        if metric in micro_timings:
            value, unit, samples = micro_timings[metric]
            lines.append(f"{metric} is the median of {samples} samples")
        elif metric == "trace.overhead_frac":
            value = (statistics.median(rel for _, rel in traced)
                     / statistics.median(rel for _, rel in untraced) - 1.0)
        elif metric == "job.wall_s_p50":
            value = statistics.median(wall for wall, _ in untraced)
        else:
            values = [job[metric] for job in per_job]
            if metric in COUNT_METRICS:
                if len(set(values)) > 1:
                    lines.append(f"warning: {metric} differs between "
                                 f"jobs: {sorted(set(values))}")
                value = statistics.median_low(values)
            else:
                value = statistics.median(values)
        metrics[metric] = (value, LAYER_UNITS[metric])
    lines.append(f"{len(traced)} traced jobs against {len(untraced)} "
                 f"untraced; spans in {trace_path.relative_to(ROOT)}")
    return metrics


def run_workload(args) -> int:
    import workloads

    name = args.workload
    workload = workloads.WORKLOADS[name]()
    inputs = workload.make_inputs(args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    golden = load_golden(name, args.seed)
    lines = [f"workload {name}, seed {args.seed}: " + (
        "checked against the outputs recorded for this seed" if golden
        else "no outputs recorded for this seed; seed-independent checks "
             "only")]
    expected = workload.prepare(inputs, golden)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    loop = Loop(workload, inputs, expected, workdir)
    measure = traced_run if args.trace else untraced_run
    try:
        metrics = measure(name, loop, args, lines)
    except NoJobSucceeded:
        metrics = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if loop.first_problem:
        lines.append("first failed check: " + "; ".join(loop.first_problem))
    for line in lines:
        print(line)
    if metrics is None:
        sys.stderr.write(f"error: all {loop.attempted} jobs failed\n")
        return 1
    for metric, (value, unit) in metrics.items():
        print(f"{name:10s} {metric:45s} {value:14.6g} {unit}")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, one after the other."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}")
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    if import_program() is None:
        sys.stderr.write(f"error: no nslmm package under {SRC}\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
