"""Command-line front end.

Subcommands: ``solve`` (one integration plus optional property checks),
``convergence`` (error/order table), ``sharpness`` (empirical threshold
sweep), ``bench`` (transform timing), ``list`` (catalog), ``verify-phi``
(order/threshold certification).  CSV goes to --out or stdout; property and
certification reports go to stderr as JSON lines.  ``solve`` writes its
trajectory in blocks of rows (``Trajectory.csv_chunks``), the same bytes
as ``Trajectory.to_csv`` without holding the whole text; the output is
opened only once the run has succeeded, so a refused run leaves an
existing file as it was.

Exit codes: 0 success, 1 a property check failed under --strict, 2 bad
configuration (an ``--out`` that cannot be opened included).  Long flag
sets can be stored one per line in a file and passed as ``@file`` (use
the --flag=value form there); such a file is read on every call.

``main`` parses with one parser per process, built at its first call, not
at import: building it (about 65 ``add_argument`` calls) takes about 2 ms,
a noticeable share of a short command run in-process many times.
``build_parser`` returns a fresh parser on each call.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Iterable, Sequence

import numpy as np

from . import qualprops
from .denominator import (CATALOG_KINDS, MAX_ORDER, DenominatorSpec,
                          PhiKind, make_phi_for_method, parse_phi_label,
                          verify_phi_conditions)
from .errors import ConfigurationError, UnsupportedError
from .experiments import (BOUNDEDNESS, WEAK_MONOTONICITY, ErrorNorm,
                          ExactReference, RK4Reference, convergence_study,
                          phi_benchmark, sharpness_bisection,
                          sharpness_bytes)
from .integrate import (ExactStartup, RecordMode, RunConfig,
                        RungeKuttaStartup, _run_steps, integrate,
                        require_size)
from .methods import (CATALOG, effective_ssp_coefficient, get_method,
                      ssp_coefficient, validate_method)
from .problems import (PropertyKind, QualitativeProperty, default_properties,
                       fe_property_bound, make_problem)


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise ConfigurationError(f"{what} must be finite (got {value!r})")
    return value


def _parse_params(text: str | None) -> dict:
    params = {}
    if text:
        for item in text.split(","):
            if not item:
                continue
            if "=" not in item:
                raise ConfigurationError(f"bad parameter assignment {item!r}")
            key, value = item.split("=", 1)
            params[key.strip()] = _finite(float(value),
                                          f"parameter {key.strip()}")
    return params


def _parse_vector(text: str) -> np.ndarray:
    try:
        values = np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError:
        raise ConfigurationError(f"bad vector {text!r}") from None
    if not np.isfinite(values).all():
        raise ConfigurationError(f"vector {text!r} must be finite")
    return values


def _parse_startup(text: str):
    if text == "exact":
        return ExactStartup()
    if text.startswith("nsrk:"):
        # a phi label may hold a colon of its own: phi-general:<p>
        parts = text.split(":", 2)
        if len(parts) != 3:
            raise ConfigurationError(
                "startup must be 'exact' or 'nsrk:<rk-id>:<phi>'")
        kind, p = parse_phi_label(parts[2])
        return RungeKuttaStartup(rk=parts[1], phi_kind=kind, p=p)
    raise ConfigurationError(f"unknown startup {text!r}")


def _parse_grid(text: str, point_bytes: int,
                default_spacing: str = "lin") -> np.ndarray:
    """lo:hi:n[:lin|:log] or a comma list of values.  A lo:hi:n grid whose
    points would take more than ``MAX_RECORD_BYTES`` at ``point_bytes``
    each is refused before it is built."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (3, 4):
            raise ConfigurationError(f"bad grid {text!r}")
        lo = _finite(float(parts[0]), f"grid start in {text!r}")
        hi = _finite(float(parts[1]), f"grid end in {text!r}")
        n = int(parts[2])
        if n < 1:
            raise ConfigurationError(f"grid {text!r} needs at least one point")
        require_size(n * point_bytes, f"grid {text!r}")
        spacing = parts[3] if len(parts) == 4 else default_spacing
        if spacing == "log":
            return np.geomspace(lo, hi, n)
        if spacing == "lin":
            return np.linspace(lo, hi, n)
        raise ConfigurationError(f"unknown spacing {spacing!r}")
    return _parse_vector(text)


def _write_output(chunks: Iterable[str], path: str | None) -> None:
    """Write the pieces of a command's text to ``path`` (stdout for None
    or ``-``); a path that cannot be opened is a configuration error."""
    if path is None or path == "-":
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader has gone (``nslmm solve ... | head``): drop the
            # rest, as one write of the whole text did, and carry on
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return
    try:
        fh = open(path, "w")
    except OSError as exc:
        raise ConfigurationError(f"cannot write --out: {exc}") from None
    with fh:
        fh.writelines(chunks)


def _parse_check(token: str, problem, method,
                 y0) -> tuple[QualitativeProperty, int]:
    """One --check token -> the property it checks and the window of a
    windowed monotonicity check (1 for the classical ``mon-*``)."""
    window = method.steps
    parts = token.split(":")
    name = parts[0]

    def component_at(i: int, default):
        if len(parts) <= i:
            return default
        component = int(parts[i])
        if not 0 <= component < problem.dimension:
            raise ConfigurationError(
                f"{token}: component {component} is not an index of a state "
                f"of length {problem.dimension}")
        return component

    if name in ("bound-below", "bound-above"):
        if len(parts) < 2:
            raise ConfigurationError(f"{name} needs a level, e.g. {name}:2")
        level = _finite(float(parts[1]), f"{name} level")
        return (QualitativeProperty(PropertyKind(name), component_at(2, None),
                                    level), window)
    if name in ("weakmon-inc", "weakmon-dec", "mon-inc", "mon-dec"):
        kind = (PropertyKind.WEAK_MONOTONE_INCREASE if name.endswith("-inc")
                else PropertyKind.WEAK_MONOTONE_DECREASE)
        return (QualitativeProperty(kind, component_at(1, 0)),
                window if name.startswith("weakmon") else 1)
    if name == "sum":
        invariants = [prop for prop in default_properties(problem, y0)
                      if prop.kind is PropertyKind.LINEAR_INVARIANT]
        if not invariants:
            raise ConfigurationError(
                f"{token}: {problem.name} has no linear invariant")
        return invariants[0], window
    raise ConfigurationError(f"unknown check {token!r}")


def _resolve_phi_spec(args, method, problem, y0) -> DenominatorSpec:
    b_fe = None if args.b_fe is None else _finite(args.b_fe, "--b-fe")
    if args.standard:
        return DenominatorSpec(PhiKind.IDENTITY)
    kind, p = parse_phi_label(args.phi)
    if kind is PhiKind.IDENTITY:
        return DenominatorSpec(PhiKind.IDENTITY)
    if args.bound is not None:
        return DenominatorSpec(kind, bound=args.bound, p=p)
    if b_fe is None:
        b_fe = fe_property_bound(problem, y0)
    return make_phi_for_method(method, b_fe, kind, p)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_solve(args) -> int:
    problem = make_problem(args.problem, _parse_params(args.params))
    method = get_method(args.method)
    y0 = _parse_vector(args.y0)
    phi = _resolve_phi_spec(args, method, problem, y0)
    checks = [_parse_check(token, problem, method, y0)
              for token in args.check or []]
    startup = _parse_startup(args.startup) if args.startup else None
    record = (RecordMode.FINAL_STATE_ONLY if args.final_only
              else RecordMode.FULL_TRAJECTORY)
    config = RunConfig(problem=problem, method=method, phi=phi, dt=args.dt,
                       t_end=args.t_end, y0=y0, t0=args.t0, startup=startup,
                       record=record)
    traj = integrate(config)
    _write_output(traj.csv_chunks(), args.out)

    all_hold = True
    for prop, window in checks:
        report = qualprops.check_property(traj, prop, window)
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
        if args.halvings < 0:
            raise ConfigurationError(
                f"--halvings must be >= 0 (got {args.halvings})")
        # the finest step makes the most steps: check it before the list
        finest = args.dt_base * 2.0 ** -args.halvings
        try:
            _run_steps(method, args.t0, args.t_end, finest, problem.dimension)
        except ConfigurationError as exc:
            raise ConfigurationError(
                f"--dt-base {args.dt_base!r} --halvings {args.halvings} "
                f"give a finest dt of {finest!r}: {exc}") from None
        dts = [args.dt_base * 2.0 ** (-k) for k in range(args.halvings + 1)]
    if args.reference == "exact":
        reference = ExactReference()
    elif args.reference.startswith("rk4:"):
        reference = RK4Reference(float(args.reference.split(":", 1)[1]))
    else:
        raise ConfigurationError("--reference must be exact or rk4:<dt_ref>")
    norm = ErrorNorm(args.norm) if args.norm else None
    phi = _resolve_phi_spec(args, method, problem, y0)
    startup = _parse_startup(args.startup) if args.startup else None
    report = convergence_study(problem, method, phi, dts, args.t_end, y0,
                               reference, norm=norm, startup=startup,
                               t0=args.t0)
    _write_output([report.to_csv()], args.out)
    return 0


def _cmd_sharpness(args) -> int:
    problem = make_problem(args.problem, _parse_params(args.params))
    method = get_method(args.method)
    if method.steps == 1:
        raise ConfigurationError("sharpness sweeps need a multistep method")
    kind, _p = parse_phi_label(args.phi)
    if kind in (PhiKind.IDENTITY, PhiKind.GENERAL_P):
        raise ConfigurationError("sharpness sweeps use the cataloged kinds")
    # each grid alone must fit; sharpness_bisection sizes the two together
    y0_grid = _parse_grid(args.y0_grid, sharpness_bytes(1, 0))
    dt_spacing = "lin" if args.linear_dt else "log"
    dt_grid = _parse_grid(args.dt_grid, sharpness_bytes(0, 1),
                          default_spacing=dt_spacing)
    report = sharpness_bisection(
        problem, method, kind, problem.sharpness_states(y0_grid), dt_grid,
        args.t_end, args.property, labels=y0_grid, tol=args.tol,
        weak_component=args.weak_component)
    _write_output([report.to_csv()], args.out)
    return 0


def _cmd_bench(args) -> int:
    if args.kinds:
        kinds = [parse_phi_label(label) for label in args.kinds.split(",")]
    else:
        kinds = None
    report = phi_benchmark(kinds, n_evals=args.n_evals, x=args.x,
                           bound=args.bound, reps=args.reps)
    _write_output([report.to_csv()], args.out)
    return 0


def _fmt_coeff(value) -> str:
    return str(value) if value is not None else "-"


def _cmd_list(args) -> int:
    lines = ["methods:"]
    for key, method in CATALOG.items():
        stated = _fmt_coeff(method.stated_ssp_coeff)
        computed = _fmt_coeff(ssp_coefficient(method))
        shape = (f"s={method.steps}" if method.steps > 1
                 else f"stages={len(method.stages)}")
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
    _write_output(["\n".join(lines) + "\n"], args.out)
    return 0


def _cmd_verify_phi(args) -> int:
    kind, p = parse_phi_label(args.phi)
    if kind is PhiKind.IDENTITY:
        spec = DenominatorSpec(PhiKind.IDENTITY)
    else:
        spec = DenominatorSpec(kind, bound=args.bound, p=p)
    order = args.p if args.p is not None else (
        4 if kind is PhiKind.IDENTITY else int(spec.enabled_order))
    report = verify_phi_conditions(spec, order)
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

    verify = subparsers.add_parser(
        "verify-phi", help="certify a transform's order",
        description="Read the order of phi(x) = x + O(x^(order+1)) off the "
        "Taylor coefficients at 0 of phi(x) - x (mpmath, 60 digits, up to "
        f"degree q + 1 for enabled order q <= {MAX_ORDER}) and check "
        "0 < phi <= bound on 128 log-spaced x from bound*2^-18 to "
        "100*bound.  The report is one JSON line on stderr.")
    verify.add_argument("--phi", required=True,
                        help="phi1..phi8, phi-general:<p> or identity")
    verify.add_argument("--bound", type=float, default=1.0,
                        help="the threshold B (ignored for identity)")
    verify.add_argument("--p", type=int, default=None,
                        help="order to certify (default: the enabled order; "
                        "4 for identity)")
    verify.add_argument("--strict", action="store_true",
                        help="exit 1 when the certificate fails")

    return parser


_DISPATCH = {
    "solve": _cmd_solve,
    "convergence": _cmd_convergence,
    "sharpness": _cmd_sharpness,
    "bench": _cmd_bench,
    "list": _cmd_list,
    "verify-phi": _cmd_verify_phi,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses: built at its first call, then reused."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
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
