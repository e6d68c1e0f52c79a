"""Minimal legacy-VTK (ASCII, version 3.0) unstructured-grid writer."""

from __future__ import annotations

import os

import numpy as np

VTK_TRIANGLE = 5
_VECTOR = "%.9e %.9e 0.0\n"  # (x, y) padded with z = 0


def _lines(fmt, rows) -> str:
    """The one-line format ``fmt`` applied to every row of ``rows``, as one string."""
    return (fmt * len(rows)) % tuple(rows.ravel().tolist())


def _scalars(name, data) -> str:
    values = np.asarray(data, dtype=float).ravel()
    return f"SCALARS {name} double 1\nLOOKUP_TABLE default\n" + _lines("%.9e\n", values)


def write_unstructured_grid(
    path,
    points,
    cells,
    *,
    title="twodarcy output",
    cell_scalars=None,
    cell_vectors=None,
    point_scalars=None,
):
    """Write triangles with optional scalar/vector data attached to cells or points.

    ``cell_scalars``/``point_scalars`` map names to (n,) arrays and
    ``cell_vectors`` maps names to (n, 2) arrays (padded with z = 0).
    Output is byte-deterministic for identical inputs.
    """
    points = np.asarray(points, dtype=float)
    cells = np.asarray(cells, dtype=np.int64)
    directory = os.path.dirname(os.fspath(path))
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="ascii") as fp:
        fp.write(f"# vtk DataFile Version 3.0\n{title}\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        fp.write(f"POINTS {len(points)} double\n" + _lines(_VECTOR, points))
        fp.write(f"CELLS {len(cells)} {4 * len(cells)}\n" + _lines("3 %d %d %d\n", cells))
        fp.write(f"CELL_TYPES {len(cells)}\n" + f"{VTK_TRIANGLE}\n" * len(cells))
        if cell_scalars or cell_vectors:
            fp.write(f"CELL_DATA {len(cells)}\n")
            for name, data in (cell_scalars or {}).items():
                fp.write(_scalars(name, data))
            for name, data in (cell_vectors or {}).items():
                fp.write(f"VECTORS {name} double\n" + _lines(_VECTOR, np.asarray(data, dtype=float)))
        if point_scalars:
            fp.write(f"POINT_DATA {len(points)}\n")
            for name, data in point_scalars.items():
                fp.write(_scalars(name, data))
