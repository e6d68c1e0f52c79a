"""Triangle geometry and element matrices from coordinate planes equal their references bit for bit.

The package reads each triangle's corners as (3, t) x and y planes and
keeps the floating-point operations of the (t, 3, 2) corner-copy formulas
in tests/oracles.py, in the same order, so solutions and CSVs do not move.
Bits are compared with signed zeros, on registry meshes, moved copies and
the clockwise copy that assembly refuses.
"""

import math

import numpy as np
import pytest

from twodarcy.analysis import error_norms, u1_cell_values
from twodarcy.assembly import _p1_local_stiffness, assemble_system, rt0_local_mass
from twodarcy.manufactured import example1, example4
from twodarcy.mesh import build_cartesian_mesh
from twodarcy.solver import solve
from twodarcy.spaces import _p1_gradients, build_dof_layout, potential_to_velocity, rt0_basis

from oracles import (
    edge_lengths, edge_normals, moved_copy, reflected_copy, stacked_areas, stacked_centroids,
    stacked_hat_gradients, stacked_p1_gradients, stacked_p1_local_stiffness, stacked_rt0_basis,
    stacked_rt0_local_mass, stacked_u1_cell_values,
)

SOLVABLE = (
    [pytest.param(lambda k=k: build_cartesian_mesh(k), id=f"level{k}") for k in (1, 2, 8, 32)]
    + [pytest.param(lambda k=k, s=s: moved_copy(build_cartesian_mesh(k), s), id=f"moved{k}")
       for k, s in ((2, 3), (8, 5), (32, 7))]
)
MESHES = SOLVABLE + [pytest.param(lambda: reflected_copy(8), id="reflected8")]


def assert_same_bits(got, expected):
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


@pytest.mark.parametrize("make", MESHES)
def test_geometry_matches_corner_copies(make):
    m = make()
    assert_same_bits(m.areas, stacked_areas(m))
    assert_same_bits(m.centroids, stacked_centroids(m))
    assert_same_bits(m.hat_gradients, stacked_hat_gradients(m))
    e = m.interface_edges
    assert_same_bits(m.interface_lengths, edge_lengths(m)[e])
    assert_same_bits(m.interface_normals, m.interface_signs[:, None] * edge_normals(m)[e])


def test_clockwise_copy_geometry_computes_with_negative_areas():
    m = reflected_copy(8)
    assert np.all(m.areas < 0.0)
    assert np.all(np.isfinite(m.hat_gradients)) and np.all(np.isfinite(m.centroids))


@pytest.mark.parametrize("make", MESHES)
def test_element_kernels_match_corner_copies(make):
    m = make()
    rng = np.random.default_rng(m.n_triangles)
    every = np.arange(m.n_triangles)
    region1 = np.flatnonzero(m.tri_region == 1)
    assert_same_bits(_p1_local_stiffness(m, every), stacked_p1_local_stiffness(m, every))
    assert_same_bits(rt0_local_mass(m, region1), stacked_rt0_local_mass(m, region1))
    points = rng.uniform(-1.0, 1.0, (len(region1), 3, 2))
    assert_same_bits(rt0_basis(m, region1, points), stacked_rt0_basis(m, region1, points))
    nodal = rng.standard_normal((m.n_triangles, 3))
    # Rows whose three x products are all -0: summed onto zero, as einsum does, they give +0.
    gx = stacked_hat_gradients(m)[::5, :, 0]
    nodal[::5] = np.where(np.signbit(gx), 0.0, -0.0)
    assert_same_bits(_p1_gradients(m, every, nodal.T), stacked_p1_gradients(m, every, nodal))


@pytest.mark.parametrize("make", MESHES)
def test_potential_velocity_matches_corner_copies(make):
    m = make()
    layout = build_dof_layout(m)
    phi = np.random.default_rng(1).standard_normal(layout.n_phi)
    nodal = np.zeros(m.n_vertices)
    free = layout.vert_to_phi >= 0
    nodal[free] = phi[layout.vert_to_phi[free]]
    tris = layout.u2_triangles
    assert_same_bits(potential_to_velocity(phi, m, layout), stacked_p1_gradients(m, tris, nodal[m.triangles[tris]]))


@pytest.mark.parametrize("case", [example1(), example4()], ids=["example1", "example4"])
@pytest.mark.parametrize("make", SOLVABLE)
def test_cell_values_and_region2_errors_match_corner_copies(make, case):
    m = make()
    sol = solve(assemble_system(m, build_dof_layout(m), case))
    assert_same_bits(u1_cell_values(sol, m), stacked_u1_cell_values(sol, m))

    # The region-2 pressure columns from the corner-copy mean and gradient.
    tris = sol.layout.u2_triangles
    areas, c, q = stacked_areas(m)[tris], stacked_centroids(m)[tris], m.tri_quadrant[tris]
    nodal = sol.p2[sol.layout.vert_to_p2[m.triangles[tris]]]
    e_p2 = math.sqrt(float(areas @ (nodal.mean(axis=1) - case.p(c[:, 0], c[:, 1], q)) ** 2))
    e_semi = math.sqrt(float(areas @ ((stacked_p1_gradients(m, tris, nodal)
                                       - case.grad_p(c[:, 0], c[:, 1], q)) ** 2).sum(axis=-1)))
    report = error_norms(sol, case, m)
    assert report.e_p2_l2 == e_p2
    assert report.e_p2_h1 == math.hypot(e_p2, e_semi)
