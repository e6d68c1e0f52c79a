"""Span tracer that wraps twodarcy's public functions from outside the package.

Each traced call records a span: its name, start, end, the index of the
span that was open when it started (its parent) and the id of the pass it
belongs to.  Spans stay in memory until the run ends.  A span's self time
is its duration minus the durations of its direct children, so the self
times of one pass add up to the time its top-level spans cover.

A function is wrapped at every name its callers look it up by (for example
``analysis.solve`` as well as ``solver.solve``), so nested calls nest as
spans.  ``quadrature`` rules are cached and ``manufactured`` closed forms
run inside their callers; their time is charged to the caller's span.
"""

from __future__ import annotations

import functools
import json
import os
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name).  A dotted attribute is a method.
SITES = (
    ("cli", "main", "cli.main"),
    ("cli", "_dump_fields", "cli.dump_fields"),
    ("cli", "write_unstructured_grid", "output.vtk"),
    ("analysis", "convergence_study", "analysis.study"),
    ("analysis", "error_norms", "analysis.error_norms"),
    ("analysis", "interface_flux_residuals", "analysis.interface_residuals"),
    ("analysis", "write_csv", "analysis.write_csv"),
    ("mesh", "build_cartesian_mesh", "mesh.build"),
    ("analysis", "build_cartesian_mesh", "mesh.build"),
    ("cli", "build_cartesian_mesh", "mesh.build"),
    ("spaces", "build_dof_layout", "spaces.layout"),
    ("analysis", "build_dof_layout", "spaces.layout"),
    ("cli", "build_dof_layout", "spaces.layout"),
    ("assembly", "assemble_system", "assembly.system"),
    ("analysis", "assemble_system", "assembly.system"),
    ("cli", "assemble_system", "assembly.system"),
    ("assembly", "assemble_A", "assembly.A"),
    ("assembly", "assemble_B", "assembly.B"),
    ("assembly", "assemble_C", "assembly.C"),
    ("assembly", "assemble_rhs", "assembly.rhs"),
    ("assembly", "CoefficientSet.validate", "assembly.validate"),
    ("solver", "solve", "solver.solve"),
    ("analysis", "solve", "solver.solve"),
    ("cli", "solve", "solver.solve"),
)

# Per-layer time metric -> the spans whose self time it sums.
SELF_TIME_METRICS = {
    "mesh.build_s": ("mesh.build",),
    "spaces.layout_s": ("spaces.layout",),
    "assembly.system_s": ("assembly.system",),
    "assembly.A_s": ("assembly.A",),
    "assembly.B_s": ("assembly.B",),
    "assembly.C_s": ("assembly.C",),
    "assembly.rhs_s": ("assembly.rhs",),
    "assembly.validate_s": ("assembly.validate",),
    "solver.solve_s": ("solver.solve",),
    "analysis.study_s": ("analysis.study",),
    "analysis.error_norms_s": ("analysis.error_norms",),
    "analysis.interface_residuals_s": ("analysis.interface_residuals",),
    "analysis.write_csv_s": ("analysis.write_csv",),
    "cli.main_s": ("cli.main", "cli.dump_fields"),
    "output.vtk_s": ("output.vtk",),
}

CALL_METRICS = {
    "mesh.calls": "mesh.build",
    "solver.calls": "solver.solve",
    "analysis.error_norms_calls": "analysis.error_norms",
}


def _count_mesh(counts, args, result):
    counts["mesh.triangles"] += result.n_triangles
    counts["mesh.interface_edges"] += len(result.interface_edges)


def _count_layout(counts, args, result):
    counts["spaces.dofs"] += result.size


def _count_system(counts, args, result):
    counts["assembly.matrix_nnz"] += (
        result.A.nnz + result.B.nnz + result.Bt.nnz + result.C.nnz
    )


def _count_solve(counts, args, result):
    counts["solver.residual_max"] = max(counts["solver.residual_max"], result.residual)


def _count_vtk(counts, args, result):
    counts["output.vtk_bytes"] += os.path.getsize(args[0])


# Counters read the call's arguments and result after its span has ended.
COUNTERS = {
    "mesh.build": _count_mesh,
    "spaces.layout": _count_layout,
    "assembly.system": _count_system,
    "solver.solve": _count_solve,
    "output.vtk": _count_vtk,
}

COUNT_METRICS = (
    "mesh.triangles",
    "mesh.interface_edges",
    "spaces.dofs",
    "assembly.matrix_nnz",
    "solver.residual_max",
    "output.vtk_bytes",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "error")

    def __init__(self, name, start, parent, run):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.error = None

    def as_dict(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Install span wrappers around the package for one traced pass at a time."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[Span] = []
        self.counts: dict[int, defaultdict] = {}
        self._stack: list[int] = []
        self._originals: list = []
        self._run = -1

    def _owner(self, module, attr):
        owner = self.modules[module]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, leaf

    def install(self, run: int) -> None:
        """Wrap every site; spans opened until ``uninstall`` carry ``run``."""
        if self._originals:
            raise RuntimeError("tracer is already installed")
        self._run = run
        self.counts[run] = defaultdict(int)
        for module, attr, name in SITES:
            owner, leaf = self._owner(module, attr)
            original = getattr(owner, leaf)
            self._originals.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._originals):
            setattr(owner, leaf, original)
        self._originals.clear()

    def _wrap(self, original, name):
        counter = COUNTERS.get(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, perf_counter(), parent, self._run)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = original(*args, **kwargs)
            except Exception as err:
                span.error = type(err).__name__
                raise
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(self.counts[span.run], args, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]

    def layer_metrics(self, run: int) -> dict:
        """Self times, call counts and counters of the spans of one pass."""
        self_time = defaultdict(float)
        calls = defaultdict(int)
        errors = defaultdict(int)
        for span, own in zip(self.spans, self.self_times()):
            if span.run == run:
                self_time[span.name] += own
                calls[span.name] += 1
                errors[span.name] += span.error is not None
        metrics = {
            metric: sum(self_time[name] for name in names)
            for metric, names in SELF_TIME_METRICS.items()
        }
        metrics.update({metric: calls[name] for metric, name in CALL_METRICS.items()})
        metrics["solver.errors"] = errors["solver.solve"]
        counts = self.counts[run]
        metrics.update({metric: counts[metric] for metric in COUNT_METRICS})
        return metrics

    def write(self, path) -> None:
        """Write every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fp:
            for span in self.spans:
                fp.write(json.dumps(span.as_dict()) + "\n")
