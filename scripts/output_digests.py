#!/usr/bin/env python3
"""Digests of the program's outputs, to check that a change left them
byte for byte as they were.

Prints one ``sha256 exit label`` line for the stdout and one for the
stderr of every ``nslmm`` command in README.md's ``sh`` blocks except
``bench`` (whose output is timings), each run in-process through
``nslmm.cli.main`` with an ``--out FILE`` sent to stdout instead, and one
line for each CSV that ``run_convergence_tables.py --quick`` writes (with
that script's exit code).  Diffing the output of two trees shows which
outputs moved:

    PYTHONPATH=src python scripts/output_digests.py > digests.txt
"""

import contextlib
import hashlib
import io
import re
import shlex
import sys
import tempfile
import warnings
from pathlib import Path

import run_convergence_tables
from nslmm import cli

ROOT = Path(__file__).resolve().parents[1]


def readme_commands():
    """The argument vectors of README.md's ``nslmm`` commands but bench."""
    text = (ROOT / "README.md").read_text()
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["nslmm"] and argv[1] != "bench":
                yield [("-" if prev == "--out" else arg)
                       for prev, arg in zip([None] + argv[1:], argv[1:])]


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process ``nslmm`` run; every
    run shows its warnings as a fresh process would."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("default")
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    lines = []
    for argv in readme_commands():
        code, out, err = run_cli(argv)
        label = "nslmm " + shlex.join(argv)
        lines.append(f"{digest(out)} {code} {label} [stdout]")
        lines.append(f"{digest(err)} {code} {label} [stderr]")
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            code = run_convergence_tables.main(["--quick", "--out-dir", tmp])
        for path in sorted(Path(tmp).iterdir()):
            lines.append(f"{digest(path.read_text())} {code} "
                         f"run_convergence_tables.py --quick {path.name}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
