"""A level's mesh, layouts and geometric operators are built once while a caller holds them.

They are shared by every problem on that level, so their arrays are
read-only, and nothing they cache refers back to the mesh: a level is freed
with its last reference, without the garbage collector.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from twodarcy import mesh as mesh_module
from twodarcy.assembly import assemble_B, assemble_system, p1_stiffness_omega2
from twodarcy.manufactured import example1, example2, example3, example4
from twodarcy.mesh import build_cartesian_mesh
from twodarcy.solver import solve
from twodarcy.spaces import build_dof_layout

GEOMETRY = ("areas", "centroids", "hat_gradients", "tri_edge_signs", "interface_slot", "interface_signs",
            "interface_lengths", "interface_normals")


def test_a_held_level_is_shared():
    m = build_cartesian_mesh(8)
    assert build_cartesian_mesh(8) is m
    assert build_cartesian_mesh(np.int64(8)) is m
    assert build_cartesian_mesh(4) is not m
    layout = build_dof_layout(m)
    assert build_dof_layout(m) is layout
    assert build_dof_layout(m, pin_vertex=np.int64(layout.pinned_vertex + 1)) is not layout
    first, second = assemble_system(m, layout, example1()), assemble_system(m, layout, example4())
    assert second.K is first.K and second.B is first.B and second.Bt is first.Bt
    assert np.shares_memory(first.Bt.data, first.B.data)  # the transpose adds no memory
    assert second.C is not first.C


def test_a_dropped_level_is_freed_without_the_garbage_collector(monkeypatch):
    builds = []
    finish = mesh_module._finish_mesh
    monkeypatch.setattr(mesh_module, "_finish_mesh", lambda *args: builds.append(1) or finish(*args))
    gc.collect()  # free any level-6 mesh an earlier test left in a cycle
    gc.disable()
    try:
        m = build_cartesian_mesh(6)
        layout = build_dof_layout(m)
        system = assemble_system(m, layout, example1())
        sol = solve(system)
        ref = weakref.ref(m)
        del m, layout, system, sol
        assert ref() is None
        assert build_cartesian_mesh(6) is not None
        assert len(builds) == 2
    finally:
        gc.enable()


def test_shared_arrays_are_read_only():
    m = build_cartesian_mesh(4)
    layout = build_dof_layout(m)
    system = assemble_system(m, layout, example1())
    arrays = {f.name: getattr(m, f.name) for f in dataclasses.fields(m)
              if isinstance(getattr(m, f.name), np.ndarray)}
    arrays.update({name: getattr(m, name) for name in GEOMETRY})
    arrays.update({f"layout.{f.name}": getattr(layout, f.name) for f in dataclasses.fields(layout)
                   if isinstance(getattr(layout, f.name), np.ndarray)})
    arrays["K.data"] = system.K.data
    arrays["B.data"] = system.B.data
    assert len(arrays) == 11 + len(GEOMETRY) + 10 + 2
    for array in arrays.values():
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 0
    for shared, field in ((m, "vertices"), (layout, "pinned_vertex")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(shared, field, getattr(shared, field))


def test_kept_arrays_and_tuples_of_arrays_are_read_only():
    # Kept values without a __dict__ of their own are frozen too.
    m = dataclasses.replace(build_cartesian_mesh(2))
    array = mesh_module._kept(m, "array", lambda: np.zeros(3))
    pair = mesh_module._kept(m, "pair", lambda: (np.zeros(2), np.ones(2)))
    for kept in (array, *pair):
        with pytest.raises(ValueError, match="read-only"):
            kept[0] = 1.0


@dataclasses.dataclass(frozen=True)
class _Held:
    array: np.ndarray
    matrix: sp.csr_matrix
    pair: tuple


def test_kept_objects_are_frozen_whole():
    # Every array a kept object reaches is read-only, however deep: a field, the arrays of a sparse
    # field and the items of a tuple field.
    m = dataclasses.replace(build_cartesian_mesh(2))
    held = mesh_module._kept(m, "held", lambda: _Held(np.zeros(2), sp.csr_matrix(np.eye(2)), (np.ones(2),)))
    arrays = [held.array, held.matrix.data, held.matrix.indices, held.matrix.indptr, held.pair[0]]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_kept_region2_interior_is_read_only():
    # One kept object reduces both regions onto the cross: the region-2 interior elimination and the
    # region-1 multipliers.  Every field of either is an array but the cross stiffness; no factor is
    # kept, as psi and the cross are factored per solve.  ``_kept`` freezes the whole pair, the
    # stiffness's arrays included.
    m = build_cartesian_mesh(4)
    solve(assemble_system(m, build_dof_layout(m), example4()))
    interior, multipliers = vars(m)["_kept"]["cross reduction"]
    fields = [getattr(part, f.name) for part in (interior, multipliers) for f in dataclasses.fields(part)]
    stiffness = interior.stiffness
    arrays = [field for field in fields if field is not stiffness]
    assert all(isinstance(array, np.ndarray) for array in arrays)
    assert sp.isspmatrix_csr(stiffness)
    assert interior.cross.shape == (4 * 4 + 1,) and stiffness.shape == (4 * 4 + 1,) * 2
    for array in arrays + [stiffness.data, stiffness.indices, stiffness.indptr]:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 0


def _fields(m, case):
    sol = solve(assemble_system(m, build_dof_layout(m), case))
    return [sol.u1, sol.p2, sol.phi, sol.u2, sol.p1]


def test_held_and_rebuilt_meshes_give_equal_solutions():
    cases = [example1(), example2(), example3(), example4()]
    gc.collect()
    rebuilt = []
    for case in cases:
        m = build_cartesian_mesh(8)
        assert "_kept" not in vars(m)  # a fresh mesh, nothing cached on it
        rebuilt.append(_fields(m, case))
        del m
    held = build_cartesian_mesh(8)
    for case, fresh in zip(cases, rebuilt):
        for shared, expected in zip(_fields(held, case), fresh):
            assert np.array_equal(shared, expected), case.name


def test_a_replaced_mesh_gets_fresh_operators():
    m = build_cartesian_mesh(4)
    layout = build_dof_layout(m)
    cached = assemble_system(m, layout, example1())
    inner = np.all((np.abs(m.vertices) < 1.0) & (m.vertices != 0.0), axis=1)  # off the cross
    rng = np.random.default_rng(3)
    moved = dataclasses.replace(
        m, vertices=m.vertices + inner[:, None] * rng.uniform(-0.2, 0.2, m.vertices.shape) / 4)
    system = assemble_system(moved, layout, example1())
    k = p1_stiffness_omega2(moved, layout)
    assert (system.K != k).nnz == 0
    assert (system.B != assemble_B(moved, layout, k)).nnz == 0
    assert (cached.K != k).nnz > 0
