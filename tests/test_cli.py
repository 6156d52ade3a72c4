import json
import re

import pytest

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


def test_convergence_missing_grid_exit_2(capsys):
    code, _out, err = run_cli(
        capsys, "convergence", "--problem", "logistic", "--y0", "1",
        "--method", "sspms64", "--t-end", "1", "--reference", "exact")
    assert code == 2
    assert "error:" in err


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
    assert report["slope"] == pytest.approx(5.0, abs=0.05)
    code, _out, err = run_cli(capsys, "verify-phi", "--phi", "phi8",
                              "--p", "5", "--strict")
    assert code == 1


def test_sharpness_cli_smoke(capsys):
    code, out, _err = run_cli(
        capsys, "sharpness", "--problem", "logistic", "--params", "c=2",
        "--method", "sspms42", "--phi", "phi5", "--y0-grid", "0.5,1.5",
        "--dt-grid", "0.5:3:8:lin", "--t-end", "20", "--tol", "1e-2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "y0,sufficient_bound,empirical_bound,property"
    assert len(lines) == 3


def test_bench_cli_smoke(capsys):
    code, out, _err = run_cli(capsys, "bench", "--kinds", "phi3,identity",
                              "--n-evals", "1000000", "--reps", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "phi,evals,seconds"
    assert len(lines) == 3


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
