"""Outside-in span tracer for the traced benchmark run.

The tracer wraps public functions of the flexoct modules from outside the
program.  A wrapped call records a span: its name, start, end, the index of
the enclosing span and the benchmark case it ran under.  A function is
replaced in every flexoct module namespace that bound it (``flexion`` binds
``all_dihedrals`` from ``octahedron``, for example), so calls are caught
however they are looked up.  ``numpy.linalg`` solvers are wrapped too, and
each of their spans is named after the module of the span that encloses it,
so a ``lstsq`` call made by the corrector is counted as ``flexion.lstsq``.

Spans stay in memory until ``write`` saves them at the end of a run.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import defaultdict

import numpy as np

# public functions wrapped in the traced run, by module
TRACED = {
    "linkage": ("opposite_dihedral_line",),
    "octahedron": ("all_dihedrals", "dihedral_angle", "facet_normal",
                   "coplanarity_measure"),
    "builders": ("build_type1", "build_type1_mirror", "build_type2",
                 "build_type3_flat"),
    "flexion": ("flex_path", "rigidity_matrix", "flex_dimension"),
    "verifiers": ("mannheim_point", "hexagon_traces", "opposite_dihedral_trace",
                  "dihedral_cos_line_fit"),
    "cli": ("run", "read_obj", "export_frames"),
}
LINALG = ("lstsq", "svd", "solve")


class Tracer:
    """Records spans of wrapped calls; ``install`` patches, ``remove`` restores."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, case]
        self.case = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.case])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str | None = None, op: str | None = None):
        """Wrap fn in a span named ``name``, or, for a numpy solver ``op``,
        named after the module of the enclosing span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None:
                owner = self.spans[self._stack[-1]][0].split(".")[0] if self._stack else "bench"
                idx = self._enter(f"{owner}.{op}")
            else:
                idx = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)
        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "flexoct" or k.startswith("flexoct."))]
        for short, names in TRACED.items():
            owner = sys.modules[f"flexoct.{short}"]
            for name in names:
                original = getattr(owner, name)
                wrapper = self.wrap(original, name=f"{short}.{name}")
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        for op in LINALG:
            original = getattr(np.linalg, op)
            self._patched.append((np.linalg, op, original))
            setattr(np.linalg, op, self.wrap(original, op=op))

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start,end,parent,case\n")
            for name, start, end, parent, case in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{case}\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c0, c1 in sorted(children.get(idx, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


def totals(spans: list[list]) -> dict[str, tuple[int, float]]:
    """Calls and summed self time per span name."""
    acc: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for span, own in zip(spans, self_times(spans)):
        entry = acc[span[0]]
        entry[0] += 1
        entry[1] += own
    return {name: (calls, own) for name, (calls, own) in acc.items()}
