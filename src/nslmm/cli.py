"""Command-line front end.

Subcommands: ``solve`` (one integration plus optional property checks),
``convergence`` (error/order table), ``sharpness`` (empirical threshold
sweep), ``bench`` (transform timing), ``list`` (catalog), ``verify-phi``
(order/threshold certification).  CSV goes to --out or stdout; property and
certification reports go to stderr as JSON lines.

Exit codes: 0 success, 1 a property check failed under --strict, 2 bad
configuration.  Long flag sets can be stored one per line in a file and
passed as ``@file`` (use the --flag=value form there).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

import numpy as np

from . import qualprops
from .denominator import (CATALOG_KINDS, DenominatorSpec, PhiKind,
                          SamplingPlan, make_phi_for_method,
                          parse_phi_label, verify_phi_conditions)
from .errors import ConfigurationError, UnsupportedError
from .experiments import (BOUNDEDNESS, WEAK_MONOTONICITY, ErrorNorm,
                          ExactReference, RK4Reference, convergence_study,
                          phi_benchmark, sharpness_bisection)
from .integrate import (ExactStartup, RecordMode, RunConfig,
                        RungeKuttaStartup, integrate)
from .methods import (CATALOG, MultistepMethod, effective_ssp_coefficient,
                      get_method, ssp_coefficient, validate_method)
from .problems import fe_property_bound, make_problem


def _parse_params(text: str | None) -> dict:
    params = {}
    if text:
        for item in text.split(","):
            if not item:
                continue
            if "=" not in item:
                raise ConfigurationError(f"bad parameter assignment {item!r}")
            key, value = item.split("=", 1)
            params[key.strip()] = float(value)
    return params


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError:
        raise ConfigurationError(f"bad vector {text!r}") from None


def _parse_startup(text: str):
    if text == "exact":
        return ExactStartup()
    if text.startswith("nsrk:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigurationError(
                "startup must be 'exact' or 'nsrk:<rk-id>:<phi>'")
        kind, p = parse_phi_label(parts[2])
        return RungeKuttaStartup(rk=parts[1], phi_kind=kind, p=p)
    raise ConfigurationError(f"unknown startup {text!r}")


def _parse_grid(text: str, default_spacing: str = "lin") -> np.ndarray:
    """lo:hi:n[:lin|:log] or a comma list of values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (3, 4):
            raise ConfigurationError(f"bad grid {text!r}")
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        spacing = parts[3] if len(parts) == 4 else default_spacing
        if spacing == "log":
            return np.geomspace(lo, hi, n)
        if spacing == "lin":
            return np.linspace(lo, hi, n)
        raise ConfigurationError(f"unknown spacing {spacing!r}")
    return _parse_vector(text)


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _parse_check(token: str, problem, method, y0) -> tuple:
    """One --check token -> (label, callable(traj) -> PropertyReport)."""
    window = method.steps if isinstance(method, MultistepMethod) else 1
    parts = token.split(":")
    name = parts[0]
    if name in ("bound-below", "bound-above"):
        if len(parts) < 2:
            raise ConfigurationError(f"{name} needs a level, e.g. {name}:2")
        level = float(parts[1])
        component = int(parts[2]) if len(parts) > 2 else None
        key = "lower" if name == "bound-below" else "upper"
        return token, lambda traj: qualprops.check_bounds(
            traj, component, **{key: level})
    if name in ("weakmon-inc", "weakmon-dec"):
        component = int(parts[1]) if len(parts) > 1 else 0
        direction = "increase" if name == "weakmon-inc" else "decrease"
        return token, lambda traj: qualprops.check_weak_monotonicity(
            traj, component, window, direction)
    if name in ("mon-inc", "mon-dec"):
        component = int(parts[1]) if len(parts) > 1 else 0
        direction = "increase" if name == "mon-inc" else "decrease"
        return token, lambda traj: qualprops.check_classical_monotonicity(
            traj, component, direction)
    if name == "sum":
        level = float(np.sum(y0))
        drift = float(problem.params.get("influx", 0.0))
        weights = np.ones(problem.dimension)
        return token, lambda traj: qualprops.check_linear_invariant(
            traj, weights, drift, level)
    raise ConfigurationError(f"unknown check {token!r}")


def _resolve_phi_spec(args, method, problem, y0) -> DenominatorSpec:
    if args.standard:
        return DenominatorSpec(PhiKind.IDENTITY)
    kind, p = parse_phi_label(args.phi)
    if kind is PhiKind.IDENTITY:
        return DenominatorSpec(PhiKind.IDENTITY)
    if args.bound is not None:
        return DenominatorSpec(kind, bound=args.bound, p=p)
    b_fe = args.b_fe if args.b_fe is not None else fe_property_bound(problem, y0)
    return make_phi_for_method(method, b_fe, kind, p)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_solve(args) -> int:
    problem = make_problem(args.problem, _parse_params(args.params))
    method = get_method(args.method)
    y0 = _parse_vector(args.y0)
    phi = _resolve_phi_spec(args, method, problem, y0)
    startup = _parse_startup(args.startup) if args.startup else None
    record = (RecordMode.FINAL_STATE_ONLY if args.final_only
              else RecordMode.FULL_TRAJECTORY)
    config = RunConfig(problem=problem, method=method, phi=phi, dt=args.dt,
                       t_end=args.t_end, y0=y0, t0=args.t0, startup=startup,
                       record=record)
    traj = integrate(config)
    _write_output(traj.to_csv(), args.out)

    all_hold = True
    for token in args.check or []:
        label, runner = _parse_check(token, problem, method, y0)
        report = runner(traj)
        all_hold &= report.holds
        sys.stderr.write(json.dumps(report.to_dict(), sort_keys=True) + "\n")
    if not problem.bound_proven:
        sys.stderr.write(json.dumps(
            {"note": "Euler property bound unproven for these parameters"})
            + "\n")
    if args.strict and not all_hold:
        return 1
    return 0


def _cmd_convergence(args) -> int:
    problem = make_problem(args.problem, _parse_params(args.params))
    method = get_method(args.method)
    y0 = _parse_vector(args.y0)
    if args.dt_list:
        dts = [float(v) for v in args.dt_list.split(",")]
    else:
        if args.dt_base is None:
            raise ConfigurationError("need --dt-list or --dt-base/--halvings")
        dts = [args.dt_base * 2.0 ** (-k) for k in range(args.halvings + 1)]
    if args.reference == "exact":
        reference = ExactReference()
    elif args.reference.startswith("rk4:"):
        reference = RK4Reference(float(args.reference.split(":", 1)[1]))
    else:
        raise ConfigurationError("--reference must be exact or rk4:<dt_ref>")
    norm = ErrorNorm(args.norm) if args.norm else None
    if args.standard:
        phi = DenominatorSpec(PhiKind.IDENTITY)
    else:
        kind, p = parse_phi_label(args.phi)
        if args.bound is not None and kind is not PhiKind.IDENTITY:
            phi = DenominatorSpec(kind, bound=args.bound, p=p)
        else:
            phi = kind
    startup = _parse_startup(args.startup) if args.startup else None
    report = convergence_study(problem, method, phi, dts, args.t_end, y0,
                               reference, norm=norm, b_fe=args.b_fe,
                               startup=startup, t0=args.t0)
    _write_output(report.to_csv(), args.out)
    return 0


def _cmd_sharpness(args) -> int:
    problem = make_problem(args.problem, _parse_params(args.params))
    method = get_method(args.method)
    if not isinstance(method, MultistepMethod):
        raise ConfigurationError("sharpness sweeps need a multistep method")
    kind, _p = parse_phi_label(args.phi)
    if kind in (PhiKind.IDENTITY, PhiKind.GENERAL_P):
        raise ConfigurationError("sharpness sweeps use the cataloged kinds")
    y0_grid = _parse_grid(args.y0_grid)
    dt_spacing = "lin" if args.linear_dt else "log"
    dt_grid = _parse_grid(args.dt_grid, default_spacing=dt_spacing)
    if problem.name == "logistic":
        states = y0_grid[:, None]
        labels = y0_grid
    else:
        states = np.stack([1.0 - y0_grid, np.zeros_like(y0_grid),
                           y0_grid, np.zeros_like(y0_grid)], axis=1)
        labels = y0_grid
    report = sharpness_bisection(
        problem, method, kind, states, dt_grid, args.t_end, args.property,
        labels=labels, tol=args.tol, weak_component=args.weak_component)
    _write_output(report.to_csv(), args.out)
    return 0


def _cmd_bench(args) -> int:
    if args.kinds:
        kinds = [parse_phi_label(label)[0] for label in args.kinds.split(",")]
    else:
        kinds = None
    report = phi_benchmark(kinds, n_evals=args.n_evals, x=args.x,
                           bound=args.bound, reps=args.reps)
    _write_output(report.to_csv(), args.out)
    return 0


def _fmt_coeff(value) -> str:
    return str(value) if value is not None else "-"


def _cmd_list(args) -> int:
    lines = ["methods:"]
    for key, method in CATALOG.items():
        stated = _fmt_coeff(method.stated_ssp_coeff)
        computed = _fmt_coeff(ssp_coefficient(method))
        if isinstance(method, MultistepMethod):
            shape = f"s={method.steps}"
        else:
            shape = f"stages={method.stage_count}"
        lines.append(
            f"  {key}: {method.name} {shape} p={method.design_order} "
            f"C_stated={stated} C_computed={computed} "
            f"C_effective={effective_ssp_coefficient(method)!r} "
            f"valid={validate_method(method).passed}")
    lines.append("transforms:")
    for kind in CATALOG_KINDS:
        spec = DenominatorSpec(kind, bound=1.0)
        lines.append(f"  {kind.value}: enabled order {spec.enabled_order}")
    lines.append("  phi-general:<p>: enabled order p (p >= 5)")
    lines.append("  identity: untransformed step (standard method)")
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_verify_phi(args) -> int:
    kind, p = parse_phi_label(args.phi)
    if kind is PhiKind.IDENTITY:
        spec = DenominatorSpec(PhiKind.IDENTITY)
    else:
        spec = DenominatorSpec(kind, bound=args.bound, p=p)
    order = args.p if args.p is not None else (
        4 if kind is PhiKind.IDENTITY else int(spec.enabled_order))
    plan = SamplingPlan(k_min=args.k_min, k_max=args.k_max)
    report = verify_phi_conditions(spec, order, plan)
    sys.stderr.write(json.dumps(report.to_dict(), sort_keys=True) + "\n")
    if args.strict and not report.passed:
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _add_common_problem_flags(sub) -> None:
    sub.add_argument("--problem", required=True, help="logistic or seir")
    sub.add_argument("--params", default=None,
                     help="comma list k=v, e.g. c=2 or influx=0.1")
    sub.add_argument("--y0", required=True, help="comma list, e.g. 0.8,0,0.2,0")
    sub.add_argument("--method", required=True,
                     help="sspms42|sspms43|sspms64|ssprk22|ssprk33|ssprk104")
    sub.add_argument("--phi", default="phi8",
                     help="phi1..phi8, phi-general:<p> or identity")
    sub.add_argument("--standard", action="store_true",
                     help="use the untransformed step (identity)")
    sub.add_argument("--b-fe", type=float, default=None,
                     help="override the Euler property bound")
    sub.add_argument("--bound", type=float, default=None,
                     help="set the transform threshold directly")
    sub.add_argument("--t0", type=float, default=0.0)
    sub.add_argument("--t-end", type=float, required=True)
    sub.add_argument("--startup", default=None,
                     help="exact or nsrk:<rk-id>:<phi>")
    sub.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nslmm",
        description="Property-preserving ODE integration with transformed "
                    "SSP multistep methods.",
        fromfile_prefix_chars="@")
    subparsers = parser.add_subparsers(dest="command", required=True)

    solve = subparsers.add_parser("solve", help="run one integration")
    _add_common_problem_flags(solve)
    solve.add_argument("--dt", type=float, required=True)
    solve.add_argument("--check", action="append", default=None,
                       help="property check, e.g. bound-below:2, "
                            "weakmon-inc, sum (repeatable)")
    solve.add_argument("--strict", action="store_true",
                       help="exit 1 when a check fails")
    solve.add_argument("--final-only", action="store_true",
                       help="record only the final state")

    conv = subparsers.add_parser("convergence", help="error/order table")
    _add_common_problem_flags(conv)
    conv.add_argument("--dt-list", default=None, help="comma list of steps")
    conv.add_argument("--dt-base", type=float, default=None)
    conv.add_argument("--halvings", type=int, default=0)
    conv.add_argument("--reference", required=True,
                      help="exact or rk4:<dt_ref>")
    conv.add_argument("--norm", choices=[n.value for n in ErrorNorm],
                      default=None)

    sharp = subparsers.add_parser("sharpness", help="empirical threshold sweep")
    sharp.add_argument("--problem", required=True)
    sharp.add_argument("--params", default=None)
    sharp.add_argument("--method", required=True)
    sharp.add_argument("--phi", default="phi8")
    sharp.add_argument("--y0-grid", required=True,
                       help="lo:hi:n[:lin|:log] or comma list "
                            "(seir: grid of initial infected)")
    sharp.add_argument("--dt-grid", default="0.5:3:100:log")
    sharp.add_argument("--t-end", type=float, default=100.0)
    sharp.add_argument("--property", default=BOUNDEDNESS,
                       choices=[BOUNDEDNESS, WEAK_MONOTONICITY])
    sharp.add_argument("--tol", type=float, default=1e-4)
    sharp.add_argument("--weak-component", type=int, default=0)
    sharp.add_argument("--linear-dt", action="store_true",
                       help="linearly spaced dt grid")
    sharp.add_argument("--out", default=None)

    bench = subparsers.add_parser("bench", help="transform timing table")
    bench.add_argument("--kinds", default=None, help="comma list of labels")
    bench.add_argument("--n-evals", type=int, default=10 ** 7)
    bench.add_argument("--x", type=float, default=0.1)
    bench.add_argument("--bound", type=float, default=0.1)
    bench.add_argument("--reps", type=int, default=5)
    bench.add_argument("--out", default=None)

    lst = subparsers.add_parser("list", help="print the catalogs")
    lst.add_argument("--out", default=None)

    verify = subparsers.add_parser("verify-phi",
                                   help="certify a transform's order")
    verify.add_argument("--phi", required=True)
    verify.add_argument("--bound", type=float, default=1.0)
    verify.add_argument("--p", type=int, default=None,
                        help="order to certify (default: the enabled order)")
    verify.add_argument("--k-min", type=int, default=4)
    verify.add_argument("--k-max", type=int, default=18)
    verify.add_argument("--strict", action="store_true")

    return parser


_DISPATCH = {
    "solve": _cmd_solve,
    "convergence": _cmd_convergence,
    "sharpness": _cmd_sharpness,
    "bench": _cmd_bench,
    "list": _cmd_list,
    "verify-phi": _cmd_verify_phi,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code else 0
    try:
        return _DISPATCH[args.command](args)
    except (ConfigurationError, UnsupportedError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
