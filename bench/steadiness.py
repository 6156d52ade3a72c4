#!/usr/bin/env python3
"""Run the benchmark once per seed on each workload and report, for each
end-to-end metric, the median and the spread of its values: the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median, next to the metric's bound from BENCHMARK.json.

    python3 bench/steadiness.py --workloads scalar,sweep --seeds 1-10 \\
        [--traced-seed 1] [--baseline bench/BASELINE.json]

``--traced-seed`` adds one traced run per workload.  ``--baseline`` writes
the machine description, the summary and every run's result to a file.
Exits 1 when a spread other than that of ``setup_s`` exceeds its bound or
a run has failed jobs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        if kind != "Instruction":
            sizes[f"L{level}"] = (index / "size").read_text().strip()
    return sizes


def machine() -> dict:
    """What the numbers were measured on."""
    import mpmath
    import numpy
    model = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "caches": _cache_sizes(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "mpmath": mpmath.__version__,
            "commit": commit,
            "NSLMM_THREADS": "unset (run.py removes it: 1 worker)"}


def run_once(spec, name: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        spec["command"] + ["--workload", name, "--seed", str(seed),
                           "--seconds", repr(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["notes"] = [line for line in lines[:-1]
                       if not line.startswith(name + " ")]
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--traced-seed", type=int, default=None)
    ap.add_argument("--baseline", default=None)
    args = ap.parse_args(argv)
    first, last = (int(v) for v in args.seeds.split("-"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs, summary, traced = {}, {}, {}
    steady = True
    for name in args.workloads.split(","):
        results = runs[name] = []
        for seed in range(first, last + 1):
            result = run_once(spec, name, seed, args.seconds, 0)
            results.append(result)
            if not result["correct"]:
                steady = False
                print(f"{name} seed {seed}: {result['failed']} failed jobs")
        summary[name] = {}
        for metric, bound in bounds.items():
            stats = spread([r["metrics"][metric]["value"] for r in results])
            summary[name][metric] = stats
            flag = "" if stats["spread"] < bound / 3 else "  <- >= bound/3"
            if metric != "setup_s" and stats["spread"] >= bound:
                steady = False
            print(f"{name:10s} {metric:12s} median {stats['median']:10.6g} "
                  f"q1 {stats['q1']:10.6g} q3 {stats['q3']:10.6g} "
                  f"spread {stats['spread']:7.4f} bound {bound}{flag}",
                  flush=True)
        if args.traced_seed is not None:
            traced[name] = run_once(spec, name, args.traced_seed,
                                    args.seconds, 1)
            steady &= traced[name]["correct"]
    if args.baseline:
        baseline = {
            "machine": machine(),
            "load": "closed loop, one client, jobs back to back in one "
                    "single-threaded process",
            "note": "the sweep working set (a ring of 6 states of "
                    "2e4 x 4 float64, about 3.8 MB) fits in L3, so the "
                    "benchmark makes no memory-bandwidth claim",
            "seeds": [first, last],
            "run_seconds": args.seconds,
            "summary": summary,
            "traced": traced,
            "runs": runs,
        }
        Path(args.baseline).write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
