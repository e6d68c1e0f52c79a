import numpy as np
import pytest

from twodarcy._vtk import VTK_TRIANGLE, write_unstructured_grid

from oracles import read_vtk

HEADER = [b"# vtk DataFile Version 3.0", b"check", b"BINARY", b"DATASET UNSTRUCTURED_GRID"]


def as_f8_bytes(values):
    """The big-endian float64 bytes of ``values``, to compare arrays bitwise (nan included)."""
    return np.asarray(values, dtype=float).astype(">f8").tobytes()


def padded(rows):
    return np.column_stack([rows, np.zeros(len(rows))])


def test_writer_round_trips_every_array_bitwise(tmp_path):
    rng = np.random.default_rng(5)
    points = rng.standard_normal((40, 2)) * 10.0 ** rng.integers(-300, 300, (40, 1))
    points[:4] = [[-0.0, 0.0], [np.nan, np.inf], [-np.inf, 1e-320], [1.0, -1.0]]
    cells = rng.integers(0, 2**31, (25, 3))
    cells[0] = [0, 2**31 - 1, 7]
    region = rng.integers(1, 3, 25)
    p1 = rng.standard_normal(25)
    p1[:3] = [np.nan, -0.0, 1e-320]
    u1 = rng.standard_normal((25, 2))
    u1[0] = [np.inf, -np.inf]
    p2 = rng.standard_normal((40, 1))
    write_unstructured_grid(tmp_path / "grid.vtk", points, cells, title="check",
                            cell_scalars={"region": region, "p1": p1},
                            cell_vectors={"u1": u1}, point_scalars={"p2": p2})
    lines, arrays = read_vtk(tmp_path / "grid.vtk")

    assert lines == HEADER + [
        b"POINTS 40 double", b"CELLS 25 100", b"CELL_TYPES 25", b"CELL_DATA 25",
        b"SCALARS region double 1", b"LOOKUP_TABLE default",
        b"SCALARS p1 double 1", b"LOOKUP_TABLE default",
        b"VECTORS u1 double", b"POINT_DATA 40",
        b"SCALARS p2 double 1", b"LOOKUP_TABLE default",
    ]
    assert arrays["points"].tobytes() == as_f8_bytes(padded(points))
    assert arrays["cells"].tolist() == np.column_stack([np.full(25, 3), cells]).tolist()
    assert arrays["cell_types"].ravel().tolist() == [VTK_TRIANGLE] * 25
    assert arrays["CELL_DATA", "region"].tobytes() == as_f8_bytes(region)
    assert arrays["CELL_DATA", "p1"].tobytes() == as_f8_bytes(p1)
    assert arrays["CELL_DATA", "u1"].tobytes() == as_f8_bytes(padded(u1))
    assert arrays["POINT_DATA", "p2"].tobytes() == as_f8_bytes(p2)


def test_writer_writes_an_empty_mesh(tmp_path):
    write_unstructured_grid(tmp_path / "bare.vtk", np.zeros((0, 2)), np.zeros((0, 3), int),
                            title="check")
    lines, arrays = read_vtk(tmp_path / "bare.vtk")
    assert lines == HEADER + [b"POINTS 0 double", b"CELLS 0 0", b"CELL_TYPES 0"]
    assert arrays["points"].shape == (0, 3)
    assert arrays["cells"].shape == (0, 4)
    assert arrays["cell_types"].size == 0


@pytest.mark.parametrize("bad_id", [2**31, -1])
def test_writer_rejects_ids_outside_vtk_int(bad_id, tmp_path):
    cells = np.array([[0, 1, 2], [1, 2, bad_id]])
    with pytest.raises(ValueError, match="32-bit int"):
        write_unstructured_grid(tmp_path / "big.vtk", np.zeros((3, 2)), cells)
    assert not (tmp_path / "big.vtk").exists()
