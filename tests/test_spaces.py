import numpy as np
import pytest

from twodarcy.assembly import assemble_B, p1_stiffness_omega2
from twodarcy.mesh import EdgeKind, build_cartesian_mesh
from twodarcy.quadrature import segment_rule
from twodarcy.spaces import build_dof_layout, potential_to_velocity, rt0_basis

from oracles import edge_normals, integrate_on_segment, p1_eval


def test_dof_counts_level1():
    layout = build_dof_layout(build_cartesian_mesh(1))
    assert (layout.n_u1, layout.n_p2, layout.n_phi, layout.n_p1) == (10, 7, 6, 4)
    assert layout.size == 27


def test_dof_counts_level2():
    layout = build_dof_layout(build_cartesian_mesh(2))
    assert layout.n_p1 == 16
    assert layout.n_u1 == 32
    assert layout.n_p2 == 17
    assert layout.n_phi == 16


def test_dof_counts_level32():
    layout = build_dof_layout(build_cartesian_mesh(32))
    assert layout.n_p1 == 4096
    assert layout.n_p2 == 2 * 33**2 - 1 == 2177


def test_pinned_vertex_is_smallest_region2_vertex():
    m = build_cartesian_mesh(2)
    layout = build_dof_layout(m)
    assert layout.pinned_vertex == layout.p2_vertices[0]
    np.testing.assert_allclose(m.vertices[layout.pinned_vertex], [0.0, -1.0])
    with pytest.raises(ValueError):
        build_dof_layout(m, pin_vertex=0)  # corner (-1,-1) is region-1 only


@pytest.mark.parametrize("pin", [-3, 9, 2.0, True])
def test_pin_vertex_out_of_range_is_rejected(pin):
    # level 1 has 9 vertices; -3 would index region-2 vertex 6 from the end,
    # 2.0 and True would index vertex 2 and vertex 1 if they were accepted
    with pytest.raises(ValueError, match="pin vertex"):
        build_dof_layout(build_cartesian_mesh(1), pin_vertex=pin)


def test_numpy_integer_pin_vertex_is_accepted():
    layout = build_dof_layout(build_cartesian_mesh(1), pin_vertex=np.int64(2))
    assert layout.pinned_vertex == 2 and type(layout.pinned_vertex) is int
    assert layout.vert_to_phi[2] == -1


def test_rt0_duality_on_edges():
    m = build_cartesian_mesh(2)
    rule = segment_rule(3)
    normals = edge_normals(m)
    for t in np.flatnonzero(m.tri_region == 1)[:4]:
        for i in range(3):
            e_i = m.tri_edges[t, i]
            for j in range(3):
                e_j = m.tri_edges[t, j]
                seg = m.vertices[m.edges[e_j]]
                n = normals[e_j]
                flux = integrate_on_segment(
                    lambda x, y: rt0_basis(m, [t], np.stack([x, y], axis=-1)[None])[0, i] @ n,
                    seg,
                    rule,
                )
                assert abs(flux - (1.0 if i == j else 0.0)) <= 1e-13


def test_rt0_div_value():
    m = build_cartesian_mesh(2)
    layout = build_dof_layout(m)
    tris = layout.p1_triangles
    # the basis is linear, so central differences give its divergence exactly
    # up to rounding
    step = 1e-3
    c = m.centroids[tris][:, None, :]
    div = sum(
        (rt0_basis(m, tris, c + d)[:, :, 0, k] - rt0_basis(m, tris, c - d)[:, :, 0, k]) / (2 * step)
        for k, d in enumerate(step * np.eye(2))
    )
    # flux-normalized basis: divergence is +-1/|K|
    np.testing.assert_allclose(np.abs(div) * m.areas[tris][:, None], 1.0, rtol=1e-12)
    # and it is the p1 row of B (integral of the divergence) over the area
    d_block = assemble_B(m, layout, p1_stiffness_omega2(m, layout))[layout.n_phi:, : layout.n_u1].toarray()
    rows = layout.tri_to_p1[tris][:, None]
    cols = layout.edge_to_u1[m.tri_edges[tris]]
    np.testing.assert_allclose(div, d_block[rows, cols] / m.areas[tris][:, None], rtol=1e-12)


def test_rt0_interelement_normal_continuity():
    m = build_cartesian_mesh(3)
    layout = build_dof_layout(m)
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(layout.n_u1)

    def u_at(t, x):
        vals = np.zeros(2)
        for i in range(3):
            c = coeffs[layout.edge_to_u1[m.tri_edges[t, i]]]
            vals += c * rt0_basis(m, [t], x[None, None])[0, i, 0]
        return vals

    interior = np.flatnonzero(np.asarray(m.edge_kind) == EdgeKind.INTERIOR_1)
    normals = edge_normals(m)
    for e in interior:
        t0, t1 = m.edge_tris[e]
        mid = m.vertices[m.edges[e]].mean(axis=0)
        n = normals[e]
        jump = (u_at(t0, mid) - u_at(t1, mid)) @ n
        assert abs(jump) <= 1e-12


def test_p1_hats_delta_and_partition():
    m = build_cartesian_mesh(2)
    t = 5
    tri = m.vertices[m.triangles[t]]
    for i in range(3):
        for j in range(3):
            assert abs(p1_eval(m, t, i, tri[j]) - (1.0 if i == j else 0.0)) <= 1e-13
    x = tri.mean(axis=0)
    total = sum(p1_eval(m, t, i, x) for i in range(3))
    assert abs(total - 1.0) <= 1e-13
    grad_sum = m.hat_gradients[t].sum(axis=0)
    np.testing.assert_allclose(grad_sum, [0.0, 0.0], atol=1e-13)


def test_p1_grad_magnitudes_on_right_triangle():
    m = build_cartesian_mesh(2)
    h = 1 / m.level_inv
    norms = sorted(np.linalg.norm(m.hat_gradients[0], axis=1))
    np.testing.assert_allclose(norms, [1 / h, 1 / h, np.sqrt(2) / h], rtol=1e-12)


def test_hat_gradient_table_matches_pointwise():
    m = build_cartesian_mesh(2)
    table = m.hat_gradients
    step = 1e-3
    for t in (0, 7, 12):
        c = m.centroids[t]
        for i in range(3):
            # hats are linear, so forward differences of p1_eval are exact up to rounding
            diff = [p1_eval(m, t, i, c + d) - p1_eval(m, t, i, c) for d in step * np.eye(2)]
            np.testing.assert_allclose(table[t, i], np.array(diff) / step, atol=1e-9)


def test_potential_to_velocity_linear_fields():
    m = build_cartesian_mesh(2)
    layout = build_dof_layout(m)

    def nodal_field(f):
        vals = f(m.vertices[:, 0], m.vertices[:, 1])
        pin = vals[layout.pinned_vertex]
        phi = np.zeros(layout.n_phi)
        mask = layout.vert_to_phi >= 0
        phi[layout.vert_to_phi[mask]] = vals[mask] - pin
        return phi

    zero = potential_to_velocity(np.zeros(layout.n_phi), m, layout)
    np.testing.assert_allclose(zero, 0.0)
    ux = potential_to_velocity(nodal_field(lambda x, y: x), m, layout)
    np.testing.assert_allclose(ux, np.tile([1.0, 0.0], (len(ux), 1)), atol=1e-13)
    uxy = potential_to_velocity(nodal_field(lambda x, y: x + y), m, layout)
    np.testing.assert_allclose(uxy, np.tile([1.0, 1.0], (len(uxy), 1)), atol=1e-13)


def test_potential_to_velocity_length_check():
    m = build_cartesian_mesh(1)
    layout = build_dof_layout(m)
    with pytest.raises(ValueError):
        potential_to_velocity(np.zeros(layout.n_phi + 1), m, layout)


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_gradient_kernel_is_trivial_after_pinning(level):
    # the map phi -> gradient field has full column rank
    m = build_cartesian_mesh(level)
    layout = build_dof_layout(m)
    columns = np.zeros((2 * len(layout.u2_triangles), layout.n_phi))
    for j in range(layout.n_phi):
        phi = np.zeros(layout.n_phi)
        phi[j] = 1.0
        columns[:, j] = potential_to_velocity(phi, m, layout).ravel()
    assert np.linalg.matrix_rank(columns, tol=1e-10) == layout.n_phi
