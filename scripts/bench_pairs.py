#!/usr/bin/env python3
"""Alternating benchmark runs of two checkouts, written as one
``BENCH_*.json`` entry of the performance record.

    python scripts/bench_pairs.py --parent DIR --change DIR \\
        --pairs scalar:0:10 --pairs scalar:7:10 --pairs sharpness:0:3 \\
        --out BENCH_<parent commit>.json

A pair is one ``bench/run.py --workload W --seed S --trace 0`` run in each
checkout, of the run length that ``bench/run.py`` sets, one process at a time, with the side that runs first
alternating from pair to pair; ``--pairs W:S:N`` asks for N pairs of
workload W on seed S.  For every (workload, seed) and every end-to-end
metric that the change's ``BENCHMARK.json`` names, and the job's wall-time
median ``job_s_p50`` (a workload whose reference kernel runs in a heap
that the program shapes can read differently in ``ref``), the file holds
each side's median, quartiles and runs, and the pairs the change won in
the metric's better direction (a tie counts for neither side).  Beside them:
the machine (CPU, vCPU count, Python and numpy versions), each checkout's
``git describe``, and per-step timings of single runs from
``PROBE_ROUNDS`` alternating rounds in fresh processes (``--probe``),
recorded as the metrics are: each side's rounds, their median and
quartiles, and the rounds the change won.
The file is named after the parent commit: it records the change made on
top of it, which cannot name its own commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


#: the wall-time median that ``bench/run.py`` prints beside ``job_ref_p50``
WALL = re.compile(r"^wall time: job_s_p50 (\S+) s", re.M)


def parse_result(stdout: str) -> dict:
    """The result of one ``bench/run.py`` run from its standard output,
    whose last line is one JSON object: ``correct``, ``attempted``,
    ``failed`` and each metric's value, and the job's wall-time median
    ``job_s_p50`` from the lines before it."""
    result = json.loads(stdout.strip().splitlines()[-1])
    metrics = {name: entry["value"]
               for name, entry in result["metrics"].items()}
    wall = WALL.search(stdout)
    if wall:
        metrics["job_s_p50"] = float(wall.group(1))
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def quartiles(values: list) -> dict:
    """Median and quartiles of ``values`` (inclusive method, so that the
    quartiles of a few runs lie between them)."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(values: dict, better: str) -> dict:
    """One metric's entry from ``values``, each side's runs pair by pair:
    each side's median, quartiles and runs, and the pairs the change won
    in the ``better`` direction ("lower" or "higher"; a tie counts for
    neither side)."""
    sign = 1 if better == "lower" else -1
    return {"better": better,
            "wins": sum(sign * (c - p) < 0 for p, c in
                        zip(values["parent"], values["change"])),
            **{side: {**quartiles(values[side]), "runs": values[side]}
               for side in SIDES}}


def summarize(runs: list, metrics: list) -> dict:
    """workload -> seed -> metric -> each side's median, quartiles and
    runs, and the pairs the change won, from ``runs`` (dicts with
    ``workload``, ``seed``, ``pair``, ``side`` and a ``parse_result``
    ``result``) and ``metrics`` (dicts with ``name`` and ``better``)."""
    groups: dict = {}
    for run in runs:
        key = (run["workload"], str(run["seed"]))
        groups.setdefault(key, {}).setdefault(run["pair"], {})[
            run["side"]] = run["result"]
    out: dict = {}
    for (workload, seed), pairs in sorted(groups.items()):
        done = [pair for _, pair in sorted(pairs.items())
                if all(side in pair for side in SIDES)]
        entry = {"pairs": len(done),
                 "correct": all(pair[side]["correct"] for pair in done
                                for side in SIDES),
                 "failed_jobs": {side: sum(pair[side]["failed"]
                                           for pair in done)
                                 for side in SIDES}}
        for metric in metrics:
            name = metric["name"]
            entry[name] = compare(
                {side: [pair[side]["metrics"][name] for pair in done]
                 for side in SIDES}, metric["better"])
        out.setdefault(workload, {})[seed] = entry
    return out


def summarize_probes(probes: dict) -> dict:
    """probe figure -> its ``compare`` entry (lower is better), from
    ``probes``, each side's ``probe`` results round by round; the rounds
    pair up in order."""
    return {name: compare({side: [p[name] for p in probes[side]]
                           for side in SIDES}, "lower")
            for name in probes["parent"][0]}


def bench_run(checkout: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(checkout / "bench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True)
    return parse_result(proc.stdout)


#: single runs the probe times, per step: (problem, method, y0, dt)
PROBE_RUNS = {
    "seir sspms64": ("seir", "sspms64", [0.8, 0.0, 0.2, 0.0], 0.01),
    "seir ssprk104": ("seir", "ssprk104", [0.8, 0.0, 0.2, 0.0], 0.01),
    "logistic sspms64": ("logistic", "sspms64", [0.5], 0.001),
}
PROBE_STEPS = 2000
#: alternating rounds of probes, one fresh process per side and round
PROBE_ROUNDS = 3


def probe() -> dict:
    """Microseconds per step of 2000-step final-state runs, of the SEIR
    RK4 reference, and per call of the benchmark's ``nslmm_step`` and
    ``nsrk_step`` calls, each the fastest of seven timings, from the
    ``nslmm`` on ``sys.path``."""
    import numpy as np
    from nslmm import (DenominatorSpec, PhiKind, RecordMode, RunConfig,
                       get_method, integrate, make_phi_for_method,
                       make_problem, nslmm_step, nsrk_step,
                       reference_solution)

    def fastest(fn, per: int) -> float:
        fn()
        times = []
        for _ in range(7):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return 1e6 * min(times) / per

    out = {}
    for label, (name, method_id, y0, dt) in PROBE_RUNS.items():
        method = get_method(method_id)
        config = RunConfig(
            problem=make_problem(name), method=method,
            phi=make_phi_for_method(method, 0.15, PhiKind.PHI8), dt=dt,
            t_end=PROBE_STEPS * dt, y0=y0,
            record=RecordMode.FINAL_STATE_ONLY)
        out[f"{label} us/step"] = fastest(lambda: integrate(config),
                                          PROBE_STEPS)
    seir = make_problem("seir")
    y0 = PROBE_RUNS["seir sspms64"][2]
    out["seir rk4 reference us/step"] = fastest(
        lambda: reference_solution(seir, y0, PROBE_STEPS * 0.01, 0.01),
        PROBE_STEPS)
    # the calls of the benchmark's micro-timings (bench/micro.py)
    state = (np.array([0.7, 0.05, 0.2, 0.05])
             + np.random.default_rng(0).uniform(0, 0.01, 4))
    method, rk = get_method("sspms64"), get_method("ssprk104")
    phi = DenominatorSpec(PhiKind.PHI8, bound=0.05)
    history = [state + 0.001 * k for k in range(method.steps)]
    out["nslmm_step us"] = fastest(
        lambda: [nslmm_step(method, phi, seir, history, 0.1)
                 for _ in range(100)], 100)
    out["nsrk_step us"] = fastest(
        lambda: [nsrk_step(rk, phi, seir, state, 0.1) for _ in range(50)],
        50)
    return out


def probe_run(checkout: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe"],
        stdout=subprocess.PIPE, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(checkout / "src")})
    return json.loads(proc.stdout)


def machine() -> dict:
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "vcpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "system": platform.platform()}


def describe(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(checkout), "describe",
                           "--always", "--dirty"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or None


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, help="checkout of the parent")
    ap.add_argument("--change", type=Path, help="checkout of the change")
    ap.add_argument("--pairs", action="append", default=[],
                    metavar="WORKLOAD:SEED:N")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.probe and not (args.parent and args.change and args.out):
        ap.error("--parent, --change and --out are required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe:
        print(json.dumps(probe()))
        return 0
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    with open(checkouts["change"] / "BENCHMARK.json") as fh:
        metrics = json.load(fh)["end_to_end"]
    metrics.append({"name": "job_s_p50", "better": "lower"})
    runs = []
    for spec in args.pairs:
        workload, seed, count = spec.split(":")
        for pair in range(int(count)):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                result = bench_run(checkouts[side], workload, int(seed))
                runs.append({"workload": workload, "seed": int(seed),
                             "pair": pair, "side": side, "result": result})
                print(f"{workload} seed {seed} pair {pair} {side}: "
                      f"job_ref_p50 {result['metrics']['job_ref_p50']:.4g}",
                      file=sys.stderr, flush=True)
    probes = {side: [] for side in SIDES}
    for round_ in range(PROBE_ROUNDS):
        for side in (SIDES if round_ % 2 == 0 else SIDES[::-1]):
            probes[side].append(probe_run(checkouts[side]))
    record = {
        "parent": describe(checkouts["parent"]),
        "change": describe(checkouts["change"]),
        "machine": machine(),
        "command": ("bench/run.py --workload W --seed S --trace 0, one "
                    "process per run, parent and change alternating"),
        "end_to_end": summarize(runs, metrics),
        "per_step_us": {
            "how": (f"{PROBE_ROUNDS} alternating rounds, each the fastest "
                    "of 7 timings in a fresh process"),
            **summarize_probes(probes)},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
