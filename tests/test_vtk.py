import numpy as np

from twodarcy._vtk import VTK_TRIANGLE, write_unstructured_grid


def _reference_writer(path, points, cells, *, title="twodarcy output",
                      cell_scalars=None, cell_vectors=None, point_scalars=None):
    """The line-at-a-time writer the section writer must match byte for byte."""
    points = np.asarray(points, dtype=float)
    cells = np.asarray(cells, dtype=np.int64)

    def values(fp, data):
        for v in np.asarray(data, dtype=float).ravel():
            fp.write(f"{v:.9e}\n")

    with open(path, "w", encoding="ascii") as fp:
        fp.write("# vtk DataFile Version 3.0\n")
        fp.write(f"{title}\n")
        fp.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        fp.write(f"POINTS {len(points)} double\n")
        for x, y in points:
            fp.write(f"{x:.9e} {y:.9e} 0.0\n")
        fp.write(f"CELLS {len(cells)} {4 * len(cells)}\n")
        for a, b, c in cells:
            fp.write(f"3 {a} {b} {c}\n")
        fp.write(f"CELL_TYPES {len(cells)}\n")
        for _ in range(len(cells)):
            fp.write(f"{VTK_TRIANGLE}\n")
        if cell_scalars or cell_vectors:
            fp.write(f"CELL_DATA {len(cells)}\n")
            for name, data in (cell_scalars or {}).items():
                fp.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                values(fp, data)
            for name, data in (cell_vectors or {}).items():
                fp.write(f"VECTORS {name} double\n")
                for vx, vy in np.asarray(data, dtype=float):
                    fp.write(f"{vx:.9e} {vy:.9e} 0.0\n")
        if point_scalars:
            fp.write(f"POINT_DATA {len(points)}\n")
            for name, data in point_scalars.items():
                fp.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                values(fp, data)


def test_section_writer_matches_line_writer(tmp_path):
    rng = np.random.default_rng(5)
    points = rng.standard_normal((40, 2)) * 10.0 ** rng.integers(-300, 300, (40, 1))
    points[:4] = [[-0.0, 0.0], [np.nan, np.inf], [-np.inf, 1e-320], [1.0, -1.0]]
    cells = rng.integers(0, 2**40, (25, 3))
    cell_scalars = {"region": rng.integers(1, 3, 25), "p1": rng.standard_normal(25)}
    kwargs = dict(
        title="check",
        cell_scalars=cell_scalars,
        cell_vectors={"u1": rng.standard_normal((25, 2))},
        point_scalars={"p2": rng.standard_normal((40, 1))},
    )
    write_unstructured_grid(tmp_path / "new.vtk", points, cells, **kwargs)
    _reference_writer(tmp_path / "ref.vtk", points, cells, **kwargs)
    assert (tmp_path / "new.vtk").read_bytes() == (tmp_path / "ref.vtk").read_bytes()

    write_unstructured_grid(tmp_path / "bare.vtk", points[:0], cells[:0])
    _reference_writer(tmp_path / "bare_ref.vtk", points[:0], cells[:0])
    assert (tmp_path / "bare.vtk").read_bytes() == (tmp_path / "bare_ref.vtk").read_bytes()
