#!/usr/bin/env python3
"""Empirical threshold sweeps: how far beyond the sufficient transform
threshold the preserved properties actually survive.

For each initial value in a grid, bisects on the threshold and records the
largest value at which the property holds for every step size in a test
grid.  One CSV per (method, property) pair.  Default sweep sizes are
desk-scale (100 x 100); --full switches to 1000 initial values and 1000
linearly spaced step sizes.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

import nslmm as n
from nslmm import BOUNDEDNESS, WEAK_MONOTONICITY, PhiKind, sharpness_bisection

CONFIGS = [("sspms42", PhiKind.PHI5), ("sspms43", PhiKind.PHI7),
           ("sspms64", PhiKind.PHI8)]

SETTINGS = {
    "logistic-c2": dict(problem=("logistic", {"c": 2.0}),
                        y0_range=(1e-3, 5.0), dt_range=(0.5, 3.0),
                        t_end=100.0),
    "logistic-c500": dict(problem=("logistic", {"c": 500.0}),
                          y0_range=(1e-3, 1250.0), dt_range=(1 / 500, 6 / 500),
                          t_end=10.0),
    "seir": dict(problem=("seir", {}), y0_range=(0.001, 0.999),
                 dt_range=(0.5, 3.0), t_end=100.0),
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--setting", choices=sorted(SETTINGS), default="logistic-c2")
    ap.add_argument("--out-dir", default="results")
    ap.add_argument("--n-y0", type=int, default=100)
    ap.add_argument("--n-dt", type=int, default=100)
    ap.add_argument("--full", action="store_true",
                    help="1000 x 1000 grids with linear dt spacing")
    args = ap.parse_args(argv)
    cfg = SETTINGS[args.setting]
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    n_y0 = 1000 if args.full else args.n_y0
    n_dt = 1000 if args.full else args.n_dt
    name, params = cfg["problem"]
    problem = n.make_problem(name, params)
    labels = np.linspace(*cfg["y0_range"], n_y0)
    states = problem.sharpness_states(labels)
    if args.full:
        dt_grid = np.linspace(*cfg["dt_range"], n_dt)
    else:
        dt_grid = np.geomspace(*cfg["dt_range"], n_dt)

    for method_id, kind in CONFIGS:
        method = n.get_method(method_id)
        for prop in (BOUNDEDNESS, WEAK_MONOTONICITY):
            report = sharpness_bisection(problem, method, kind, states,
                                         dt_grid, cfg["t_end"], prop,
                                         labels=labels)
            path = out / f"sharpness_{args.setting}_{method_id}_{prop}.csv"
            path.write_text(report.to_csv())
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
