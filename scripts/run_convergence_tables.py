#!/usr/bin/env python3
"""Full-scale convergence study grids for both model problems.

Writes one CSV per study into the output directory:

  logistic_c2_transforms.csv    six-step order-4 method, all eight transforms
  logistic_c2_methods.csv       all six methods (order-4 transform)
  logistic_c500_transforms.csv  stiff variant of the first study
  logistic_c500_methods.csv     stiff variant of the second study
  seir_transforms.csv           epidemic system, all eight transforms
  seir_methods.csv              epidemic system, all six methods

Columns: dt, then error/order pairs per configuration.  Multistep runs
start with the default startup: the exact solution for logistic, the
matching-order Runge-Kutta starter for SEIR.  --quick shrinks the step-size
grids for a fast smoke run.
"""

import argparse
import sys
from pathlib import Path

import nslmm as n
from nslmm import ExactReference, PhiKind, RK4Reference, convergence_study

TRANSFORMS = list(n.CATALOG_KINDS)
METHOD_PAIRS = [
    ("sspms42", PhiKind.PHI8), ("sspms43", PhiKind.PHI8),
    ("sspms43", PhiKind.PHI7), ("sspms64", PhiKind.PHI8),
    ("ssprk22", PhiKind.PHI8), ("ssprk33", PhiKind.PHI8),
    ("ssprk33", PhiKind.PHI7), ("ssprk104", PhiKind.PHI8),
]


def merged_csv(reports, labels):
    dts = [row.dt for row in reports[0].rows]
    header = ["dt"]
    for label in labels:
        header += [f"{label}_error", f"{label}_order"]
    lines = [",".join(header)]
    for i, dt in enumerate(dts):
        cells = [repr(dt)]
        for rep in reports:
            row = rep.rows[i]
            cells.append(repr(row.error))
            cells.append("" if row.order is None else repr(row.order))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def transform_study(problem, method_id, dts, t_end, y0, reference):
    method = n.get_method(method_id)
    reports, labels = [], []
    for kind in TRANSFORMS:
        reports.append(convergence_study(
            problem, method, kind, dts, t_end, y0, reference))
        labels.append(kind.value)
    return merged_csv(reports, labels)


def method_study(problem, dts, t_end, y0, reference):
    reports, labels = [], []
    for method_id, kind in METHOD_PAIRS:
        method = n.get_method(method_id)
        reports.append(convergence_study(
            problem, method, kind, dts, t_end, y0, reference))
        labels.append(f"{method_id}_{kind.value}")
    return merged_csv(reports, labels)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="results")
    ap.add_argument("--quick", action="store_true",
                    help="fewer halvings for a smoke run")
    args = ap.parse_args(argv)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    k_phi = 4 if args.quick else 10
    k_meth = 4 if args.quick else 9
    logistic2 = n.logistic_problem(2.0)
    logistic500 = n.logistic_problem(500.0)
    seir = n.seir_problem(0.0)
    seir_y0 = [0.8, 0.0, 0.2, 0.0]
    seir_ref = RK4Reference(5e-4 if args.quick else 1e-4)

    jobs = [
        ("logistic_c2_transforms.csv", lambda: transform_study(
            logistic2, "sspms64", [0.1 * 2.0 ** -k for k in range(k_phi)],
            1.0, [1.0], ExactReference())),
        ("logistic_c2_methods.csv", lambda: method_study(
            logistic2, [0.05 * 2.0 ** -k for k in range(k_meth)],
            1.0, [1.0], ExactReference())),
        ("logistic_c500_transforms.csv", lambda: transform_study(
            logistic500, "sspms64", [2e-4 * 2.0 ** -k for k in range(k_phi)],
            1.0 / 500.0, [1000.0], ExactReference())),
        ("logistic_c500_methods.csv", lambda: method_study(
            logistic500, [2e-4 * 2.0 ** -k for k in range(k_meth)],
            1.0 / 500.0, [1000.0], ExactReference())),
        ("seir_transforms.csv", lambda: transform_study(
            seir, "sspms64", [0.1 * 2.0 ** -k for k in range(k_phi)],
            5.0, seir_y0, seir_ref)),
        ("seir_methods.csv", lambda: method_study(
            seir, [0.05 * 2.0 ** -k for k in range(k_meth)],
            1.0, seir_y0, seir_ref)),
    ]
    for name, job in jobs:
        path = out / name
        path.write_text(job())
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
