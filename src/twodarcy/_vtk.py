"""Minimal legacy-VTK (binary, version 3.0) unstructured-grid writer."""

from __future__ import annotations

import numpy as np

VTK_TRIANGLE = 5


def _xyz(rows):
    """(n, 2) rows padded with z = 0."""
    return np.column_stack([rows, np.zeros(len(rows))])


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
    ``cell_vectors`` maps names to (n, 2) arrays (padded with z = 0). Each
    array is stored exactly, as big-endian bytes (``>f8`` values, ``>i4``
    ids) after its keyword line. Raises ``ValueError``, before opening the
    file, when a cell id does not fit VTK's 32-bit ``int``.
    """
    cells = np.asarray(cells, dtype=np.int64)
    if cells.size and (cells.min() < 0 or cells.max() >= 2**31):
        raise ValueError("cell vertex ids must lie in [0, 2**31), the range of VTK's 32-bit int")
    n = len(cells)
    with open(path, "wb") as fp:

        def section(keywords, values, dtype=">f8"):
            fp.write(keywords.encode("ascii") + values.astype(dtype).tobytes() + b"\n")

        section(f"# vtk DataFile Version 3.0\n{title}\nBINARY\nDATASET UNSTRUCTURED_GRID\n"
                f"POINTS {len(points)} double\n", _xyz(points))
        section(f"CELLS {n} {4 * n}\n", np.column_stack([np.full(n, 3), cells]), ">i4")
        section(f"CELL_TYPES {n}\n", np.full(n, VTK_TRIANGLE), ">i4")
        for block, count, scalars, vectors in (("CELL_DATA", n, cell_scalars, cell_vectors),
                                               ("POINT_DATA", len(points), point_scalars, None)):
            if scalars or vectors:
                fp.write(f"{block} {count}\n".encode("ascii"))
                for name, data in (scalars or {}).items():
                    section(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n", np.ravel(data))
                for name, data in (vectors or {}).items():
                    section(f"VECTORS {name} double\n", _xyz(data))
