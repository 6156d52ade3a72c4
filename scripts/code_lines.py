#!/usr/bin/env python3
"""Code lines of the ``nslmm`` modules, per module and per top-level
function and class, so that a size claim does not move with comments.

A code line holds a token of code: blank lines, comment lines and the
lines of docstrings (a module's, class's or function's first statement
when it is a string) do not count.  A line with code and a comment counts,
and so does every line of a string that is not a docstring.

    python scripts/code_lines.py                 # every module of src/nslmm
    python scripts/code_lines.py src/nslmm/experiments.py

prints ``<code lines> <path>`` for each module, then one indented
``<code lines> <name>`` line per top-level function and class (decorators
included), in source order.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: tokens that are no code by themselves
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_starts(tree: ast.AST) -> set:
    """The first lines of the docstrings in ``tree``."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add(first.lineno)
    return starts


def code_lines(source: str) -> set:
    """The numbers of the lines of ``source`` that hold code."""
    docstrings = docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in LAYOUT or (tok.type == tokenize.STRING
                                  and tok.start[0] in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines


def count(source: str) -> tuple:
    """(code lines of ``source``, [(name, code lines)] per top-level
    function and class)."""
    lines = code_lines(source)
    parts = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            start = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            parts.append((node.name, sum(start <= line <= node.end_lineno
                                         for line in lines)))
    return len(lines), parts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("paths", nargs="*", type=Path)
    args = ap.parse_args(argv)
    paths = args.paths or sorted((ROOT / "src" / "nslmm").glob("*.py"))
    for path in paths:
        total, parts = count(path.read_text())
        print(f"{total} {path}")
        for name, n in parts:
            print(f"  {n} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
