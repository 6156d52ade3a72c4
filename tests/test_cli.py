import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nslmm import (ExactReference, PhiKind, cli, convergence_study,
                   experiments, fe_property_bound, get_method,
                   logistic_problem, make_phi_for_method)
from nslmm.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

FIG3_ARGS = ["solve", "--problem", "logistic", "--params", "c=2",
             "--y0", "3", "--method", "sspms64", "--phi", "phi8",
             "--dt", "0.5", "--t-end", "15"]


def test_solve_property_held(capsys):
    code, out, err = run_cli(capsys, *FIG3_ARGS, "--check", "bound-below:2")
    assert code == 0
    assert out.startswith("t,u1\n")
    report = json.loads(err.strip().splitlines()[0])
    assert report["holds"] is True


def test_solve_standard_strict_violation(capsys):
    code, out, err = run_cli(capsys, *FIG3_ARGS, "--standard", "--strict",
                             "--check", "bound-below:2")
    assert code == 1
    report = json.loads(err.strip().splitlines()[0])
    assert report["holds"] is False
    assert report["first_violation"]["n"] > 0


def test_solve_check_on_a_finite_component_of_a_non_finite_state(capsys):
    # the untransformed SEIR run ends in -inf and inf; component 2 stays
    # far below the bound, yet the last state violates it
    code, out, err = run_cli(
        capsys, "solve", "--problem", "seir", "--y0", "0.8,0,0.2,0",
        "--method", "sspms42", "--standard", "--dt", "1", "--t-end", "19",
        "--check", "bound-above:1e300:2", "--strict")
    assert out.strip().splitlines()[-1].startswith("19.0,-inf,inf,")
    assert code == 1
    report = json.loads(err.strip().splitlines()[0])
    assert report["holds"] is False
    assert report["first_violation"] == {"n": 19, "k": 0, "value": -math.inf,
                                         "bound": 1e300}
    assert report["worst_margin"] == -math.inf


def test_solve_violation_without_strict_exits_zero(capsys):
    code, _out, err = run_cli(capsys, *FIG3_ARGS, "--standard",
                              "--check", "bound-below:2")
    assert code == 0
    assert json.loads(err.strip().splitlines()[0])["holds"] is False


def test_solve_misaligned_grid_exit_2(capsys):
    code, _out, err = run_cli(
        capsys, "solve", "--problem", "logistic", "--params", "c=2",
        "--y0", "1", "--method", "sspms64", "--phi", "phi8",
        "--dt", "0.7", "--t-end", "1")
    assert code == 2
    assert "error:" in err


def test_solve_infinite_t_end_exit_2(capsys):
    code, out, err = run_cli(
        capsys, "solve", "--problem", "logistic", "--params", "c=2",
        "--y0", "1", "--method", "sspms64", "--phi", "phi8",
        "--dt", "0.5", "--t-end", "inf")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert err.count("\n") == 1


def _assert_one_line_finite_error(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "must be finite" in err
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_solve_nan_start_exit_2(capsys):
    # this run used to report both checks as held, with a NaN margin
    _assert_one_line_finite_error(*run_cli(
        capsys, "solve", "--problem", "logistic", "--params", "c=2",
        "--y0", "nan", "--method", "sspms64", "--dt", "0.5", "--t-end", "15",
        "--check", "bound-below:2", "--check", "weakmon-dec", "--strict"))


@pytest.mark.parametrize("flag, value", [
    ("--y0", "1,inf"), ("--params", "c=nan"), ("--check", "bound-below:inf"),
    ("--b-fe", "nan"), ("--b-fe", "inf")])
def test_solve_non_finite_input_exit_2(capsys, flag, value):
    # a repeated flag overrides the earlier value; --check adds one
    _assert_one_line_finite_error(*run_cli(capsys, *FIG3_ARGS, flag, value))


def test_solve_oversized_record_exit_2(capsys):
    # 1e12 steps: refused before any state is recorded
    _one_error_line_no_warning(
        capsys, "solve", "--problem", "logistic", "--params", "c=2",
        "--y0", "0.5", "--method", "sspms42", "--phi", "phi5",
        "--dt", "1e-12", "--t-end", "1")


def test_solve_unknown_flag_exit_2(capsys):
    code, _out, _err = run_cli(capsys, *FIG3_ARGS, "--frobnicate")
    assert code == 2


def test_solve_checks_weakmon_and_sum(capsys):
    code, _out, err = run_cli(
        capsys, "solve", "--problem", "seir", "--y0", "0.8,0,0.2,0",
        "--method", "sspms64", "--phi", "phi8", "--dt", "0.5",
        "--t-end", "10", "--strict",
        "--check", "bound-below:0", "--check", "sum")
    assert code == 0
    reports = [json.loads(line) for line in err.strip().splitlines()]
    assert all(r["holds"] for r in reports)


@pytest.mark.parametrize("checks", [
    ["--check", "bound-below:0"],
    ["--check", "bound-below:0", "--check", "sum"]])
def test_solve_overflowing_run_writes_only_json_to_stderr(capsys, checks):
    # an untransformed method that leaves the property region overflows to
    # inf and NaN; the reports say so, and numpy prints no warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "solve", "--problem", "seir", "--y0", "0.8,0,0.2,0",
            "--method", "sspms64", "--standard", "--dt", "5",
            "--t-end", "1000", *checks)
    assert code == 0, err
    assert "nan" in out and "inf" in out
    reports = [json.loads(line) for line in err.splitlines()]
    assert len(reports) == len(checks) // 2
    assert not any(r["holds"] for r in reports)


def test_solve_sum_reads_the_problems_invariant(capsys):
    # with influx the invariant drifts at the influx rate from the initial
    # component sum
    code, _out, err = run_cli(
        capsys, "solve", "--problem", "seir", "--params", "influx=0.3",
        "--y0", "0.5,0.25,0.125,0.125", "--method", "sspms42", "--phi", "phi5",
        "--dt", "0.25", "--t-end", "5", "--check", "sum")
    assert code == 0
    report = json.loads(err.splitlines()[0])
    assert report["property"] == {"kind": "linear-invariant",
                                  "weights": [1.0] * 4, "drift": 0.3,
                                  "level": 1.0}


def test_solve_sum_without_invariant_exit_2(capsys):
    # logistic has no linear invariant; the check used to test a made-up
    # one and report holds: false
    code, out, err = run_cli(
        capsys, "solve", "--problem", "logistic", "--params", "c=2",
        "--y0", "1", "--method", "sspms42", "--dt", "0.5", "--t-end", "5",
        "--check", "sum")
    assert code == 2
    assert out == ""
    assert err == "error: sum: logistic has no linear invariant\n"


def test_solve_output_file_deterministic(tmp_path, capsys):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    for path in (p1, p2):
        code, _, _ = run_cli(capsys, *FIG3_ARGS, "--out", str(path))
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_flags_file(tmp_path, capsys):
    flags = tmp_path / "run.args"
    flags.write_text("\n".join([
        "solve", "--problem=logistic", "--params=c=2", "--y0=1",
        "--method=sspms42", "--phi=phi5", "--dt=0.1", "--t-end=1"]) + "\n")
    code, out, _err = run_cli(capsys, f"@{flags}")
    assert code == 0
    assert out.startswith("t,u1\n")


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------


def test_convergence_halvings_rows(capsys):
    code, out, _err = run_cli(
        capsys, "convergence", "--problem", "logistic", "--params", "c=2",
        "--y0", "1", "--method", "sspms64", "--phi", "phi8",
        "--dt-base", "0.1", "--halvings", "2", "--t-end", "1",
        "--reference", "exact")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "dt,error,order"
    assert len(lines) == 4
    assert lines[1].endswith(",")


def test_convergence_zero_halvings_single_row(capsys):
    code, out, _err = run_cli(
        capsys, "convergence", "--problem", "logistic", "--params", "c=2",
        "--y0", "1", "--method", "ssprk22", "--phi", "phi5",
        "--dt-base", "0.05", "--halvings", "0", "--t-end", "1",
        "--reference", "exact")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].endswith(",")


def test_convergence_seir_rk4_reference(capsys):
    code, out, _err = run_cli(
        capsys, "convergence", "--problem", "seir", "--y0", "0.8,0,0.2,0",
        "--method", "ssprk104", "--phi", "phi8", "--dt-list", "0.1,0.05",
        "--t-end", "1", "--reference", "rk4:1e-3")
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_convergence_general_family_without_bound(capsys):
    # the threshold comes from the method and the Euler bound, as in solve
    code, out, err = run_cli(
        capsys, "convergence", "--problem", "logistic", "--params", "c=2",
        "--y0", "0.5", "--method", "sspms64", "--phi", "phi-general:6",
        "--dt-base", "0.1", "--halvings", "2", "--t-end", "1",
        "--reference", "exact")
    assert code == 0, err
    problem = logistic_problem(2.0)
    method = get_method("sspms64")
    spec = make_phi_for_method(method, fe_property_bound(problem, [0.5]),
                               PhiKind.GENERAL_P, 6)
    report = convergence_study(problem, method, spec, [0.1, 0.05, 0.025],
                               1.0, [0.5], ExactReference())
    assert out == report.to_csv()


#: runs whose threshold C * B_FE overflows: ssprk104 has C = 6 and the
#: logistic Euler bound at y0 < 0 is unconditional (the largest float); the
#: exact solution from -0.5 blows up at t = ln(5)/2
OVERFLOWING_THRESHOLD = [
    ["convergence", "--method", "ssprk104", "--dt-base", "0.1",
     "--halvings", "2", "--reference", "exact"],
    ["solve", "--method", "sspms42", "--startup", "nsrk:ssprk104:phi8",
     "--dt", "0.1"],
    ["solve", "--method", "ssprk104", "--dt", "0.1"],
]


@pytest.mark.parametrize("argv", OVERFLOWING_THRESHOLD)
def test_overflowing_threshold_runs(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv, "--problem", "logistic",
                                 "--params", "c=2", "--y0=-0.5",
                                 "--t-end", "0.5")
    assert code == 0, err
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert rows and all(math.isfinite(float(v)) for row in rows
                        for v in row if v)


def test_convergence_missing_grid_exit_2(capsys):
    code, _out, err = run_cli(
        capsys, "convergence", "--problem", "logistic", "--y0", "1",
        "--method", "sspms64", "--t-end", "1", "--reference", "exact")
    assert code == 2
    assert "error:" in err


def _one_error_line_no_warning(capsys, *argv):
    """Run the CLI with every warning an error; it must exit 2 with one
    ``error:`` line and nothing on stdout."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 2, err
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err


#: a negative step with an RK4 reference that takes many seconds, and one
#: whose reference overflows with numpy warnings
BAD_STEP_CONVERGENCE = [
    ["--problem", "seir", "--y0", "0.8,0,0.2,0", "--method", "sspms64",
     "--dt-base", "-1", "--reference", "rk4:1e-5", "--t-end", "5"],
    ["--problem", "logistic", "--y0", "-1", "--method", "sspms64",
     "--standard", "--dt-base", "-1", "--reference", "rk4:0.01",
     "--t-end", "5"],
]


@pytest.mark.parametrize("argv", BAD_STEP_CONVERGENCE)
def test_convergence_bad_step_exit_2_without_warning(capsys, argv):
    _one_error_line_no_warning(capsys, "convergence", *argv)


@pytest.mark.parametrize("argv", BAD_STEP_CONVERGENCE)
def test_convergence_bad_step_never_reaches_the_reference(capsys,
                                                          monkeypatch, argv):
    def unreachable(*args, **kwargs):
        raise AssertionError("reference computed before the steps' checks")

    monkeypatch.setattr(experiments, "reference_solution", unreachable)
    _one_error_line_no_warning(capsys, "convergence", *argv)


# ---------------------------------------------------------------------------
# list / verify-phi / sharpness / bench
# ---------------------------------------------------------------------------


def test_list_catalog(capsys):
    code, out, _err = run_cli(capsys, "list")
    assert code == 0
    for mid in ("sspms42", "sspms43", "sspms64",
                "ssprk22", "ssprk33", "ssprk104"):
        assert mid in out
    assert "C_stated=2/3" in out
    # the three-step coefficient set: stated and computed coincide at 1/3
    ms43 = [line for line in out.splitlines() if "sspms43" in line][0]
    assert "C_stated=1/3" in ms43
    assert "C_computed=1/3" in ms43
    assert "phi8: enabled order 4" in out


def test_verify_phi_pass_and_fail(capsys):
    code, _out, err = run_cli(capsys, "verify-phi", "--phi", "phi8",
                              "--p", "4")
    assert code == 0
    report = json.loads(err.strip().splitlines()[-1])
    assert report["passed"] is True
    assert report["order"] == 4 and "slope" not in report
    code, _out, err = run_cli(capsys, "verify-phi", "--phi", "phi8",
                              "--p", "5", "--strict")
    assert code == 1


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@pytest.mark.parametrize("p", ["12", "20", "40"])
def test_verify_phi_high_power_prints_valid_json(capsys, p):
    # the report stays valid JSON: no NaN or Infinity
    code, _out, err = run_cli(capsys, "verify-phi", "--phi",
                              f"phi-general:{p}", "--strict")
    assert code == 0, err
    report = json.loads(err.strip().splitlines()[-1],
                        parse_constant=_reject_constant)
    assert report["order"] == int(p)
    assert report["leading_coefficient"] == pytest.approx(-1 / int(p))


def test_verify_phi_identity_reports_null_order(capsys):
    # the identity's residual vanishes: no order and no coefficient, as
    # JSON null rather than Infinity
    code, _out, err = run_cli(capsys, "verify-phi", "--phi", "identity",
                              "--strict")
    assert code == 0, err
    report = json.loads(err.strip().splitlines()[-1],
                        parse_constant=_reject_constant)
    assert report["order"] is None and report["leading_coefficient"] is None
    assert report["order_ok"] is True


def test_verify_phi_order_beyond_the_cap_exit_2(capsys):
    _one_error_line_no_warning(capsys, "verify-phi", "--phi",
                               "phi-general:100000")


@pytest.mark.parametrize("bound", ["1e-305", "1e307"])
def test_verify_phi_bound_outside_the_span_grid_exit_2(capsys, bound):
    # the span grid from bound * 2^-18 to 100 * bound would reach the
    # subnormal floats, or inf
    _one_error_line_no_warning(capsys, "verify-phi", "--phi", "phi8",
                               "--bound", bound)


def test_sharpness_cli_smoke(capsys):
    code, out, _err = run_cli(
        capsys, "sharpness", "--problem", "logistic", "--params", "c=2",
        "--method", "sspms42", "--phi", "phi5", "--y0-grid", "0.5,1.5",
        "--dt-grid", "0.5:3:8:lin", "--t-end", "20", "--tol", "1e-2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "y0,sufficient_bound,empirical_bound,property"
    assert len(lines) == 3


def test_sharpness_unconditional_row_without_warning(capsys):
    # hi = 10 * C * (largest float) must not overflow; the row is
    # below-range at its lower end
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "sharpness", "--problem", "logistic", "--params", "c=2",
            "--method", "sspms42", "--phi", "phi5", "--y0-grid=-1,0.5",
            "--dt-grid", "0.5:3:3:log", "--t-end", "5")
    assert code == 0 and err == ""
    assert out.splitlines()[1] == "-1.0,1.1984620899082103e+308,nan,boundedness"


SHARPNESS_ARGS = ["sharpness", "--problem", "logistic", "--params", "c=2",
                  "--method", "sspms42", "--phi", "phi5", "--t-end", "10"]


@pytest.mark.parametrize("y0_grid, dt_grid", [
    ("nan:1:3", "0.5:3:5:log"), ("0.1:1:3", "0.5:inf:4:lin"),
    ("-inf:1:3", "0.5:3:5:log")])
def test_sharpness_non_finite_grid_end_exit_2(capsys, y0_grid, dt_grid):
    # these used to exit 0 with NaN rows or rows censored at ten times the
    # bound
    _assert_one_line_finite_error(*run_cli(
        capsys, *SHARPNESS_ARGS, f"--y0-grid={y0_grid}",
        f"--dt-grid={dt_grid}"))


@pytest.mark.parametrize("y0_grid, dt_grid", [
    ("0.1:1:0", "0.5:3:5:log"), ("0.1:1:3", "0.5:3:-2:log")])
def test_sharpness_empty_grid_exit_2(capsys, y0_grid, dt_grid):
    # an empty y0 grid used to write a header-only CSV
    code, out, err = run_cli(capsys, *SHARPNESS_ARGS, f"--y0-grid={y0_grid}",
                             f"--dt-grid={dt_grid}")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "at least one point" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("y0_grid, dt_grid", [
    ("0.001:5:1000000000000", "0.5:3:3:log"),
    ("0.001:5:3", "0.5:3:1000000000000:log")])
def test_sharpness_oversized_grid_exit_2(capsys, y0_grid, dt_grid):
    # numpy refuses a grid of 1e12 points without allocating it; that
    # used to end in an _ArrayMemoryError traceback
    code, out, err = run_cli(capsys, *SHARPNESS_ARGS, f"--y0-grid={y0_grid}",
                             f"--dt-grid={dt_grid}")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "MiB limit" in err
    assert err.count("\n") == 1


def test_bench_cli_smoke(capsys):
    code, out, _err = run_cli(capsys, "bench", "--kinds", "phi3,identity",
                              "--n-evals", "1000000", "--reps", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "phi,evals,seconds"
    assert len(lines) == 3


@pytest.mark.parametrize("argv,message", [
    (["--x", "nan"], "x must be finite"),
    (["--x=inf"], "x must be finite"),
    (["--x=-inf"], "x must be finite"),
    (["--reps", "0"], "reps must be at least 1"),
    (["--x", "1e308", "--kinds", "identity", "--reps", "2"],
     "overflow the benchmark accumulator")])
def test_bench_bad_input_exit_2(capsys, monkeypatch, argv, message):
    # these used to end in a traceback and exit 1, or in exit 2 with a
    # message about an empty median
    timed = []

    def record(kind, bound, x, p=None):
        timed.append(kind)
        return x

    monkeypatch.setattr(experiments, "phi_value", record)
    code, out, err = run_cli(capsys, "bench", "--n-evals", "1000000", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err
    assert err.count("\n") == 1
    # refused before the first timed repetition
    assert timed == []


def test_bench_times_the_general_power_asked_for(capsys, monkeypatch):
    powers = []

    def record(kind, bound, x, p=None):
        powers.append(p)
        return x

    monkeypatch.setattr(experiments, "phi_value", record)
    code, out, _err = run_cli(capsys, "bench", "--kinds", "phi-general:7",
                              "--n-evals", "1000000", "--reps", "1")
    assert code == 0
    assert out.splitlines()[1].startswith("phi-general:7,1000000,")
    assert powers == [7]


def test_solve_general_family_starter(capsys):
    # the starter's phi label holds a colon of its own
    args = ["solve", "--problem", "seir", "--y0", "0.8,0,0.2,0",
            "--method", "sspms64", "--dt", "0.5", "--t-end", "5"]
    code, out, err = run_cli(capsys, *args,
                             "--startup", "nsrk:ssprk104:phi-general:5")
    assert code == 0 and err == ""
    assert len(out.strip().splitlines()) == 12
    code, out, err = run_cli(capsys, *args,
                             "--startup", "nsrk:ssprk22:phi-general:3")
    assert code == 2 and out == ""
    assert err == "error: general family requires integer p >= 5\n"


# ---------------------------------------------------------------------------
# parser hygiene
# ---------------------------------------------------------------------------


def _documented_flags(help_text):
    return set(re.findall(r"(--[a-z][a-z0-9-]*)", help_text))


def test_help_names_exactly_the_accepted_flags(capsys):
    parser = build_parser()
    sub_actions = next(a for a in parser._actions
                       if hasattr(a, "choices") and a.choices)
    for name, sub in sub_actions.choices.items():
        accepted = set()
        for action in sub._actions:
            accepted.update(o for o in action.option_strings
                            if o.startswith("--"))
        documented = _documented_flags(sub.format_help())
        assert documented == accepted, name


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["solve", "--help"]) == 0
    capsys.readouterr()


#: the ``src`` directory that holds the package, for subprocess runs
_SRC = str(Path(cli.__file__).resolve().parents[1])


def _calls(capsys, argvs, rewrite):
    """(exit code, stdout, stderr) of ``main`` on each argument vector in
    turn; ``rewrite(i)`` runs before the i-th call."""
    results = []
    for i, argv in enumerate(argvs):
        rewrite(i)
        results.append(run_cli(capsys, *argv))
    return results


def test_reused_parser_answers_each_call_as_a_first_call(capsys, tmp_path,
                                                         monkeypatch):
    # the parser ``main`` keeps must carry nothing from one call to the
    # next: --check lists, argparse errors, help and @file contents
    flags = tmp_path / "run.args"
    flag_sets = [["--y0=1"], ["--y0=3", "--check=bound-below:2"]]

    def rewrite(i):
        flags.write_text("\n".join(["solve", "--problem=logistic",
                                    "--params=c=2", "--method=sspms42",
                                    "--phi=phi5", "--dt=0.5", "--t-end=2"]
                                   + flag_sets[i % 2]) + "\n")

    argvs = [FIG3_ARGS + ["--check", "bound-below:2", "--check", "mon-inc"],
             FIG3_ARGS,
             FIG3_ARGS + ["--standard", "--strict", "--check", "bound-below:2"],
             ["solve", "--problem", "logistic"],
             ["--help"],
             ["solve", "--help"],
             FIG3_ARGS + ["--check", "weakmon-dec"],
             [f"@{flags}"],
             [f"@{flags}"]]
    main(["list"])
    capsys.readouterr()
    reused = _calls(capsys, argvs, rewrite)
    monkeypatch.setattr(cli, "_parser", build_parser)
    fresh = _calls(capsys, argvs, rewrite)
    assert [code for code, _out, _err in fresh] == [0, 0, 1, 2, 0, 0, 0, 0, 0]
    assert fresh[0][2].count("\n") == 2 and fresh[1][2] == ""
    assert fresh[7][2].count("\n") == 1 and fresh[8][2] == ""
    assert reused == fresh


def test_importing_the_cli_builds_no_parser():
    # a parser built at import would fail on the broken constructor
    probe = ("import argparse\n"
             "argparse.ArgumentParser.__init__ = None\n"
             "import nslmm.cli as cli\n"
             "assert cli._parser.cache_info().currsize == 0\n")
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": _SRC})
    assert result.returncode == 0, result.stderr


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------


def test_reader_closing_stdout_early_is_not_an_error():
    # ``nslmm solve ... | head -1``: 20001 rows, far more than a pipe
    # holds, so the streamed write meets the closed pipe
    with subprocess.Popen(
            [sys.executable, "-m", "nslmm.cli", "solve", "--problem", "seir",
             "--y0", "0.8,0,0.2,0", "--method", "sspms64", "--phi", "phi8",
             "--dt", "0.001", "--t-end", "20", "--check", "sum", "--strict"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": _SRC}) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert first == b"t,u1,u2,u3,u4\n"
    assert code == 0
    assert [json.loads(line)["holds"] for line in err.splitlines()] == [True]


_CONVERGENCE_ARGS = ["convergence", "--problem", "logistic", "--params",
                     "c=2", "--y0", "1", "--method", "sspms42", "--phi",
                     "phi5", "--dt-base", "0.1", "--t-end", "1",
                     "--reference", "exact"]


@pytest.mark.parametrize("argv", [FIG3_ARGS, _CONVERGENCE_ARGS, ["list"]])
@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_out_exit_2_with_one_line(capsys, tmp_path, argv, where):
    # used to end in an OSError traceback and exit 1, the --strict code
    out = (tmp_path / "missing" / "x.csv" if where == "missing-dir"
           else tmp_path)
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: cannot write --out: ")
    assert err.count("\n") == 1


def test_refused_run_leaves_an_existing_out_file(capsys, tmp_path):
    out = tmp_path / "x.csv"
    out.write_text("kept\n")
    code, _stdout, err = run_cli(capsys, *FIG3_ARGS[:-4], "--dt", "0.7",
                                 "--t-end", "1", "--out", str(out))
    assert code == 2 and err.startswith("error:")
    assert out.read_text() == "kept\n"


# ---------------------------------------------------------------------------
# bad sharpness inputs and parameters
# ---------------------------------------------------------------------------

SMALL_SHARPNESS = ["sharpness", "--method", "sspms42", "--phi", "phi5",
                   "--y0-grid", "0.1:0.5:2", "--dt-grid", "0.5:3:3:log"]


@pytest.mark.parametrize("flag, value", [
    ("--t-end", "-5"), ("--t-end", "nan"), ("--t-end", "inf"),
    ("--t-end", "0"), ("--tol", "nan"), ("--tol", "-1e-4")])
def test_sharpness_bad_horizon_or_tolerance_exit_2(capsys, flag, value):
    # a horizon of no steps used to report every row at the top of its
    # search range, ten times the sufficient bound
    argv = SMALL_SHARPNESS + ["--problem", "logistic", "--params", "c=2",
                              "--t-end", "5"]
    code, out, err = run_cli(capsys, *argv, f"{flag}={value}")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("component", ["9", "4", "-1"])
def test_sharpness_weak_component_out_of_range_exit_2(capsys, component):
    # component 9 of a SEIR state used to end in an IndexError traceback
    code, out, err = run_cli(
        capsys, *SMALL_SHARPNESS, "--problem", "seir", "--t-end", "5",
        "--property", "weak-monotonicity", f"--weak-component={component}")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "weak_component" in err


@pytest.mark.parametrize("problem, params, component", [
    ("seir", "influx=0", "1"), ("seir", "influx=0", "2"),
    ("seir", "influx=0.1", "0"), ("logistic", "c=2", "5")])
def test_sharpness_component_without_a_weak_check_exit_2(
        capsys, problem, params, component):
    # E and I are not monotone, S decreases only without influx, and a
    # logistic state has one component; each used to print a table
    code, out, err = run_cli(
        capsys, *SMALL_SHARPNESS, "--problem", problem, "--params", params,
        "--t-end", "5", "--property", "weak-monotonicity",
        f"--weak-component={component}")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"weak_component {component}" in err


@pytest.mark.parametrize("prop", ["boundedness", "weak-monotonicity"])
def test_sharpness_logistic_rows_below_zero_hold_to_the_top(capsys, prop):
    # bounded above by y0 and decreasing: every row holds at the top of its
    # range (checked against [0, c] and an increase, every row was nan)
    code, out, err = run_cli(
        capsys, "sharpness", "--problem", "logistic", "--params", "c=2",
        "--method", "sspms42", "--phi", "phi5", "--y0-grid=-1,-0.01",
        "--dt-grid", "0.01:0.1:5:log", "--t-end", "0.1", "--property", prop)
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [row[2] for row in rows] == ["1.7976931348623157e+308"] * 2


def test_sharpness_seir_recovered_weak_check_exit_0(capsys):
    # R grows; checked as a decrease, every row was nan (below range)
    code, out, err = run_cli(
        capsys, *SMALL_SHARPNESS, "--problem", "seir", "--t-end", "5",
        "--property", "weak-monotonicity", "--weak-component=3")
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 2 and "nan" not in [row[2] for row in rows]


def test_sharpness_zero_step_exit_2(capsys):
    # a zero step gave an unbounded step count and exit 0
    code, out, err = run_cli(
        capsys, *SMALL_SHARPNESS[:-2], "--dt-grid=0:1:2:lin", "--problem",
        "seir", "--t-end", "5")
    assert code == 2
    assert out == ""
    assert "positive finite steps" in err


@pytest.mark.parametrize("check", ["weakmon-inc:9", "mon-dec:1",
                                   "bound-below:0:-1"])
def test_solve_check_component_out_of_range_exit_2(capsys, check):
    # weakmon-inc:9 used to end in an IndexError traceback
    code, out, err = run_cli(capsys, *FIG3_ARGS, "--check", check)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "not an index" in err
    assert err.count("\n") == 1


def test_solve_unknown_logistic_parameter_exit_2(capsys):
    # d=3 used to be ignored silently
    code, out, err = run_cli(
        capsys, "solve", "--problem", "logistic", "--params", "c=2,d=3",
        "--y0", "1", "--method", "sspms42", "--dt", "0.5", "--t-end", "5")
    assert code == 2
    assert out == ""
    assert "unknown logistic parameters: ['d']" in err


# ---------------------------------------------------------------------------
# argument fuzzing
# ---------------------------------------------------------------------------

_BAD_NUMBERS = ["nan", "inf", "-inf", "-1", "0"]

#: per slot: (valid values, faulty values); None leaves an optional flag
#: out and True sets a switch
_SOLVE_SLOTS = {
    "--method": (["sspms42", "sspms43", "sspms64", "ssprk22", "ssprk104"],
                 ["bogus"]),
    "--phi": ([None, "phi5", "phi7", "phi8", "identity", "phi-general:5"],
              ["phiX", "phi-general:3", "phi-general:x"]),
    "--b-fe": ([None, "0.5"], _BAD_NUMBERS),
    "--bound": ([None, "0.3"], _BAD_NUMBERS),
    "--dt": (["0.5", "0.25"], _BAD_NUMBERS + ["0.3"]),
    "--t-end": (["5", "2.5"], _BAD_NUMBERS),
    "--check": ([None, "bound-below:0", "bound-above:2:0", "weakmon-inc",
                 "weakmon-dec:0", "mon-inc:0", "sum"],
                ["weakmon-inc:9", "weakmon-dec:-1", "bound-below:0:9",
                 "mon-inc:9", "bound-above:nan", "bound-below", "bogus"]),
    "--strict": ([None, True], []),
    "--final-only": ([None, True], []),
    "--standard": ([None, True], []),
}
_PROBLEM_SLOTS = {
    "logistic": {
        "--params": ([None, "c=2", "c=500"],
                     [f"c={v}" for v in _BAD_NUMBERS] + ["c=2,d=3", "c"]),
        "--y0": (["1", "3", "0", "-1"], ["nan", "inf", "1,2"]),
        "--startup": ([None, "exact", "nsrk:ssprk22:phi5"],
                      ["nsrk:sspms42:phi5", "nsrk:ssprk22", "bogus"]),
    },
    "seir": {
        "--params": ([None, "influx=0", "influx=0.1"],
                     ["influx=-1", "influx=nan", "c=2"]),
        "--y0": (["0.8,0,0.2,0", "0.5,0.1,0.3,0.1", "0,0,0,0"],
                 ["0.8,nan,0.2,0", "-0.1,0,1.1,0", "1,2", "1"]),
        "--startup": ([None, "nsrk:ssprk22:phi5", "nsrk:ssprk104:phi8",
                       "nsrk:ssprk104:phi-general:5"],
                      ["exact", "nsrk:ssprk22:phi-general:3"]),
    },
}
_SHARPNESS_SLOTS = {
    "--method": (["sspms42", "sspms43", "sspms64"], ["ssprk22", "bogus"]),
    "--phi": ([None, "phi5", "phi7", "phi8"],
              ["identity", "phi-general:5", "phiX"]),
    "--y0-grid": (["0.1:0.5:2", "0.3"],
                  ["nan:1:2", "0.1:0.5:0", "0.1,nan", "0.1:0.5"]),
    "--dt-grid": (["0.5:3:3:log", "0.5:3:2:lin"],
                  ["0:1:2:lin", "-1:1:2:lin", "0.5:inf:2", "0.5:3:0",
                   "0.5:3:3:cubic"]),
    "--linear-dt": ([None, True], []),
    "--t-end": (["5", "2"], _BAD_NUMBERS),
    "--property": ([None, "boundedness", "weak-monotonicity"], ["bogus"]),
    "--weak-component": ([None, "0", "2"], ["9", "4", "-1"]),
    "--tol": ([None, "1e-2", "0.05"], ["nan", "-1"]),
    "--params": ([None], ["c=nan", "influx=-1", "c=2,d=3"]),
}
_CONVERGENCE_SLOTS = {
    "--method": (["sspms42", "sspms64", "ssprk22", "ssprk104"], ["bogus"]),
    "--phi": ([None, "phi5", "phi8", "identity", "phi-general:5"],
              ["phiX", "phi-general:3"]),
    "--standard": ([None, True], []),
    "--b-fe": ([None, "0.5"], _BAD_NUMBERS),
    "--bound": ([None, "0.3"], _BAD_NUMBERS),
    "--t0": ([None, "0"], ["nan", "inf"]),
    "--t-end": (["1", "0.5"], _BAD_NUMBERS),
    "--dt-list": ([None, "0.1,0.05"],
                  ["0.05,0.1", "0.1,0.1", "0.1,nan", "0.1,x", "0.3,0.1"]),
    "--dt-base": (["0.1", "0.05"], _BAD_NUMBERS),
    "--halvings": ([None, "0", "2"], ["-1"]),
    "--reference": (["exact", "rk4:0.01"],
                    ["rk4:0", "rk4:nan", "rk4:-0.01", "rk4:0.3", "rk4:x",
                     "bogus"]),
    "--norm": ([None, "abs", "max", "euclidean"], ["bogus"]),
}
_VERIFY_PHI_SLOTS = {
    "--phi": (["phi1", "phi5", "phi8", "phi-general:6", "identity"],
              ["phiX", "phi-general:3", "phi-general:x"]),
    "--bound": ([None, "1", "0.1"], _BAD_NUMBERS + ["1e-305", "1e307"]),
    "--p": ([None, "1", "4", "9"], ["0", "-1", "x"]),
    "--strict": ([None, True], []),
}


@st.composite
def _argv(draw, command, slots):
    """An argument vector with one or two slots drawn from the faulty
    values and the others from the valid ones."""
    argv = [command]
    if command != "verify-phi":
        problem = draw(st.sampled_from(sorted(_PROBLEM_SLOTS)))
        argv.append(f"--problem={problem}")
        if command != "sharpness":
            slots = {**slots, **_PROBLEM_SLOTS[problem]}
    faulty = draw(st.sets(st.sampled_from(
        sorted(k for k, (_good, bad) in slots.items() if bad)),
        min_size=1, max_size=2))
    for name, (good, bad) in slots.items():
        value = draw(st.sampled_from(bad if name in faulty else good))
        if value is True:
            argv.append(name)
        elif value is not None:
            argv.append(f"{name}={value}")
    return argv


@settings(max_examples=120, deadline=None, derandomize=True)
@given(argv=st.one_of(_argv("solve", _SOLVE_SLOTS),
                      _argv("sharpness", _SHARPNESS_SLOTS),
                      _argv("convergence", _CONVERGENCE_SLOTS),
                      _argv("verify-phi", _VERIFY_PHI_SLOTS)))
def test_cli_fuzz_exits_cleanly(argv):
    # every argument vector ends in an exit code, never in an exception;
    # exit 1 is a failed --strict check, exit 2 one error line
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert code != 1 or "--strict" in argv, argv
    if code == 2:
        err = err.getvalue()
        assert err.startswith("error:") or "usage:" in err, argv
