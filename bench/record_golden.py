#!/usr/bin/env python3
"""Record the seed-specific outputs that run.py checks jobs against.

    python3 bench/record_golden.py --seeds 0-99 [--commit HASH]

Runs one job of every workload per seed and writes ``bench/golden.json``.
Re-record only at a commit whose outputs are known to be right: the file is
what later commits are held to.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-99", help="first-last, inclusive")
    ap.add_argument("--commit", default=None,
                    help="commit the outputs were recorded at")
    args = ap.parse_args(argv)
    first, last = (int(v) for v in args.seeds.split("-"))
    run.pin_environment()
    if run.import_program() is None:
        sys.stderr.write(f"error: no nslmm package under {run.SRC}\n")
        return 2
    import workloads

    recorded = {}
    run.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="golden-", dir=run.OUT))
    try:
        for name in run.WORKLOAD_NAMES:
            workload = workloads.WORKLOADS[name]()
            entries = recorded[name] = {}
            for seed in range(first, last + 1):
                inputs = workload.make_inputs(seed)
                expected = workload.prepare(inputs, None)
                output = workload.run(inputs, workdir)
                problems = workload.check(inputs, output, expected)
                if problems:
                    sys.stderr.write(f"{name} seed {seed}: {problems}\n")
                    return 1
                entries[str(seed)] = workload.record(output)
            print(f"{name}: seeds {first}-{last} recorded")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.BENCH / "golden.json", "w") as fh:
        json.dump({"commit": args.commit, "workloads": recorded}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
