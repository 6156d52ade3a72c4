"""Smoke runs of the experiment scripts at their smallest sizes."""

import os
import re
import subprocess
import sys
from pathlib import Path

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
    # four sweep outcomes, two sharpness reports and the catalog's kernels
    labels = [line.split(" ", 2)[2] for line in lines]
    assert labels[0].startswith("nslmm solve ")
    assert not any(label.startswith("nslmm bench") for label in labels)
    assert sum(label.endswith(" [stdout]") for label in labels) == \
        sum(label.endswith(" [stderr]") for label in labels) >= 6
    assert sum(label.endswith(".csv") for label in labels) == 6 + 18
    assert sum(label.endswith(" [SweepOutcome]") for label in labels) == 4
    assert sum(label.endswith(" [SharpnessReport]")
               for label in labels) == 2
    assert labels[-1] == "catalog kernels [kernels]"
    assert len(labels) == 2 * sum(label.endswith(" [stdout]")
                                  for label in labels) + 6 + 18 + 4 + 2 + 1
    assert sum(label.startswith("run_sharpness.py --setting seir ")
               for label in labels) == 6
    assert "nslmm verify-phi --phi phi8 --p 4 [stderr]" in labels
