"""Generated source: compiling it so that tracebacks show its lines, and
the state of a single run as source.

The step kernels of ``integrate`` and the single-run slopes of the
built-in problems (``problems.SlopeSource``) are Python source written at
first use and compiled here.
"""

from __future__ import annotations

import linecache

import numpy as np


def compile_factory(filename: str, source: str):
    """The function ``factory`` that ``source`` defines, compiled under
    ``filename``, with the source's lines kept in ``linecache`` so that
    tracebacks and profiles inside it show real lines.  The source may
    call numpy's ``multiply``."""
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    namespace: dict = {"multiply": np.multiply}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["factory"]


def state_list(values) -> str:
    """Source of a state whose components' sources are ``values``: for one
    component the bare float, else a list."""
    return values[0] if len(values) == 1 else "[" + ", ".join(values) + "]"


def state_source(m: int, component) -> str:
    """Source of a state of m components, ``component(c)`` the source of
    the component that the index suffix c selects: for m = 1 the bare
    float (no suffix), else a list of m components."""
    return state_list([component("" if m == 1 else f"[{k}]")
                       for k in range(m)])
