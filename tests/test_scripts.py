"""Smoke runs of the experiment scripts at their smallest sizes, and the
benchmark pairs summary and the code line count on canned input."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, out_dir, *args):
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), "--out-dir",
         str(out_dir), *args],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    return sorted(p.name for p in out_dir.iterdir())


def _header(path):
    return path.read_text().splitlines()[0]


def test_sharpness_script_writes_one_csv_per_method_and_property(tmp_path):
    names = _run_script("run_sharpness.py", tmp_path, "--setting", "seir",
                        "--n-y0", "3", "--n-dt", "5")
    assert names == sorted(
        f"sharpness_seir_{method}_{prop}.csv"
        for method in ("sspms42", "sspms43", "sspms64")
        for prop in ("boundedness", "weak-monotonicity"))
    for name in names:
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "y0,sufficient_bound,empirical_bound,property"
        assert len(lines) == 4


def test_convergence_script_quick_writes_six_tables(tmp_path):
    names = _run_script("run_convergence_tables.py", tmp_path, "--quick")
    assert names == sorted(
        f"{problem}_{study}.csv"
        for problem in ("logistic_c2", "logistic_c500", "seir")
        for study in ("transforms", "methods"))
    for name in names:
        assert _header(tmp_path / name).startswith("dt,")


def test_output_digests_prints_one_line_per_output():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_digests.py")],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    lines = result.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64} [0-2] \S.*", line)
               for line in lines), lines
    # stdout and stderr of the README commands but bench, then six
    # convergence CSVs, six sharpness CSVs for each of three settings,
    # four sweep outcomes, two sharpness reports, the catalog's kernels
    # with the slope sources written in and the catalog's kernels
    labels = [line.split(" ", 2)[2] for line in lines]
    assert labels[0].startswith("nslmm solve ")
    assert not any(label.startswith("nslmm bench") for label in labels)
    assert sum(label.endswith(" [stdout]") for label in labels) == \
        sum(label.endswith(" [stderr]") for label in labels) >= 6
    assert sum(label.endswith(".csv") for label in labels) == 6 + 18
    assert sum(label.endswith(" [SweepOutcome]") for label in labels) == 4
    assert sum(label.endswith(" [SharpnessReport]")
               for label in labels) == 2
    assert labels[-2:] == [
        "catalog kernels with slope sources [inlined kernels]",
        "catalog kernels [kernels]"]
    assert len(labels) == 2 * sum(label.endswith(" [stdout]")
                                  for label in labels) + 6 + 18 + 4 + 2 + 2
    assert sum(label.startswith("run_sharpness.py --setting seir ")
               for label in labels) == 6
    assert "nslmm verify-phi --phi phi8 --p 4 [stderr]" in labels


def _script(name):
    """The module of ``scripts/<name>.py``."""
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(ROOT / "scripts"))


def _bench_pairs():
    return _script("bench_pairs")


def _result_line(correct, failed, p50, rss):
    return json.dumps({
        "correct": correct, "attempted": 10, "failed": failed,
        "metrics": {"job_ref_p50": {"value": p50, "unit": "ref"},
                    "peak_rss_mb": {"value": rss, "unit": "MB"}}})


def test_bench_pairs_summarizes_canned_results():
    bench_pairs = _bench_pairs()
    stdout = ("workload scalar, seed 0: checked\n"
              "wall time: job_s_p50 0.0215 s, job_s_tail 0.03 s, reference "
              "kernel median 0.0081 s\n"
              "scalar     job_ref_p50      2.5 ref\n"
              + _result_line(True, 0, 2.5, 40.0) + "\n")
    assert bench_pairs.parse_result(stdout) == {
        "correct": True, "attempted": 10, "failed": 0,
        "metrics": {"job_ref_p50": 2.5, "peak_rss_mb": 40.0,
                    "job_s_p50": 0.0215}}
    # four pairs: the change is faster in three and ties in one; its
    # memory is higher in two, lower in one and tied in one
    parent = [(2.8, 40.0), (2.7, 40.0), (2.9, 41.0), (2.6, 40.0)]
    change = [(2.4, 40.5), (2.7, 40.0), (2.5, 40.2), (2.3, 40.4)]
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        for side, (p50, rss) in (("parent", p), ("change", c)):
            runs.append({"workload": "scalar", "seed": 0, "pair": pair,
                         "side": side, "result": bench_pairs.parse_result(
                             _result_line(True, 0, p50, rss))})
    # a pair with one side missing counts for nothing
    runs.append({"workload": "scalar", "seed": 0, "pair": 4,
                 "side": "parent",
                 "result": bench_pairs.parse_result(
                     _result_line(False, 2, 9.0, 99.0))})
    metrics = [{"name": "job_ref_p50", "better": "lower"},
               {"name": "peak_rss_mb", "better": "higher"}]
    entry = bench_pairs.summarize(runs, metrics)["scalar"]["0"]
    assert entry["pairs"] == 4 and entry["correct"] is True
    assert entry["failed_jobs"] == {"parent": 0, "change": 0}
    p50 = entry["job_ref_p50"]
    assert p50["wins"] == 3
    assert p50["parent"]["runs"] == [2.8, 2.7, 2.9, 2.6]
    assert p50["parent"]["median"] == 2.75
    assert p50["parent"]["q1"] == pytest.approx(2.675)
    assert p50["parent"]["q3"] == pytest.approx(2.825)
    assert p50["change"]["median"] == 2.45
    # "higher" is better here: the change wins the pairs it reads higher
    assert entry["peak_rss_mb"]["wins"] == 2
    assert bench_pairs.quartiles([1.5]) == {"median": 1.5, "q1": 1.5,
                                            "q3": 1.5}


def test_bench_pairs_records_every_probe_round():
    bench_pairs = _bench_pairs()
    # three rounds: the change is faster in two rounds of the first figure
    # (0.9 < 1.0 and 1.0 < 1.7), and in one of the second, whose first
    # round is a tie
    probes = {"parent": [{"a us/step": 1.0, "b us": 20.0},
                         {"a us/step": 1.2, "b us": 22.0},
                         {"a us/step": 1.7, "b us": 21.0}],
              "change": [{"a us/step": 0.9, "b us": 20.0},
                         {"a us/step": 1.3, "b us": 19.0},
                         {"a us/step": 1.0, "b us": 25.0}]}
    summary = bench_pairs.summarize_probes(probes)
    assert list(summary) == ["a us/step", "b us"]
    a, b = summary["a us/step"], summary["b us"]
    assert a["better"] == "lower" and a["wins"] == 2 and b["wins"] == 1
    assert a["parent"]["runs"] == [1.0, 1.2, 1.7]
    assert a["parent"]["median"] == 1.2
    assert a["parent"]["q1"] == pytest.approx(1.1)
    assert a["parent"]["q3"] == pytest.approx(1.45)
    assert a["change"]["median"] == 1.0
    assert b["change"] == {"median": 20.0, "q1": 19.5, "q3": 22.5,
                           "runs": [20.0, 19.0, 25.0]}


CANNED_SOURCE = '''"""A module docstring
over two lines."""

import os  # a comment beside code


# a comment line
@decorator
def f(x):
    """A function docstring."""
    s = """a string
that is code"""
    return x


class C:
    \'\'\'A class docstring.\'\'\'

    def g(self):

        return 1
'''


def test_code_lines_skips_blank_comment_and_docstring_lines(tmp_path):
    code_lines = _script("code_lines")
    # import; decorator, def, the string's two lines, return; class, def,
    # return
    assert code_lines.count(CANNED_SOURCE) == (9, [("f", 5), ("C", 3)])
    path = tmp_path / "canned.py"
    path.write_text(CANNED_SOURCE)
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "code_lines.py"), str(path)],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"9 {path}\n  5 f\n  3 C\n"
