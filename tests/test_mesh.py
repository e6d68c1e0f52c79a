import dataclasses

import numpy as np
import pytest

from twodarcy import assembly
from twodarcy.assembly import assemble_system
from twodarcy.manufactured import example4
from twodarcy.mesh import (
    REGION_OF_QUADRANT,
    EdgeKind,
    _connectivity,
    build_cartesian_mesh,
    quadrants_of,
)
from twodarcy.spaces import build_dof_layout

from oracles import (
    _SAMPLES, assert_orientation_matches_geometry, moved_copy, reflected_copy, two_interface_edge_mesh,
    validate_consistency,
)


def test_level1_counts():
    m = build_cartesian_mesh(1)
    assert m.n_vertices == 9
    assert m.n_triangles == 8
    assert m.n_edges == 16
    assert len(m.interface_edges) == 4
    assert (m.tri_region == 1).sum() == 4
    assert (m.tri_region == 2).sum() == 4


def test_level2_counts():
    m = build_cartesian_mesh(2)
    assert m.n_vertices == 25
    assert m.n_triangles == 32
    assert len(m.interface_edges) == 8
    np.testing.assert_allclose(m.edge_lengths[m.interface_edges], 0.5)


@pytest.mark.parametrize("level", [1, 2, 3, 4, 8, pytest.param(np.int64(6), id="int64")])
def test_count_identities_and_area(level):
    m = build_cartesian_mesh(level)
    assert m.n_triangles == 2 * (2 * level) ** 2
    assert len(m.interface_edges) == 4 * level
    assert abs(m.areas.sum() - 4.0) <= 1e-12
    assert np.all(m.areas > 0)


def _collapsed(level):
    """A copy with the vertex (1/4, 1/4) moved onto (1/2, 1/4): two triangles have zero area."""
    m = build_cartesian_mesh(level)
    vertices = m.vertices.copy()
    vertices[(vertices == [0.25, 0.25]).all(axis=1)] = [0.5, 0.25]
    return dataclasses.replace(m, vertices=vertices)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: reflected_copy(4), id="reflected4"),
    pytest.param(lambda: reflected_copy(8), id="reflected8"),
    pytest.param(lambda: moved_copy(build_cartesian_mesh(4), 3, 0.75), id="folded"),
    pytest.param(lambda: _collapsed(4), id="collapsed"),
])
def test_clockwise_or_degenerate_mesh_is_rejected_before_assembly(make, monkeypatch):
    # Such a mesh would assemble and solve, and only the error norms would fail.
    def no_assembly(*args, **kwargs):
        raise AssertionError("assembly started")

    m = make()
    assert m.areas.min() <= 0.0
    monkeypatch.setattr(assembly, "rt0_local_mass", no_assembly)
    for _ in range(2):  # a failed check is not kept
        with pytest.raises(ValueError, match="clockwise or have zero area"):
            assemble_system(m, build_dof_layout(m), example4())


def test_orientation_is_checked_once_per_mesh():
    # A mesh that passes keeps the result, like its layouts and operators.
    m = moved_copy(build_cartesian_mesh(4))
    assemble_system(m, build_dof_layout(m), example4())
    assert "counterclockwise" in vars(m)["_kept"]


def test_rejects_nonpositive_level():
    with pytest.raises(ValueError):
        build_cartesian_mesh(0)
    with pytest.raises(ValueError):
        build_cartesian_mesh(-3)


@pytest.mark.parametrize("level", [True, 2.0, 2.5, "2"])
def test_rejects_non_integer_level(level):
    # a bool is an int, but True is not a level
    with pytest.raises(ValueError, match="positive integer"):
        build_cartesian_mesh(level)


def test_origin_is_a_single_vertex():
    m = build_cartesian_mesh(2)
    at_origin = np.flatnonzero(
        (m.vertices[:, 0] == 0.0) & (m.vertices[:, 1] == 0.0)
    )
    assert len(at_origin) == 1


def test_interface_edges_lie_on_axes():
    m = build_cartesian_mesh(3)
    for pos, e in enumerate(m.interface_edges):
        seg = m.vertices[m.edges[e]]
        on_x_axis = np.all(seg[:, 1] == 0.0)
        on_y_axis = np.all(seg[:, 0] == 0.0)
        assert on_x_axis or on_y_axis
    # and no other edge lies on the axes
    for e in range(m.n_edges):
        seg = m.vertices[m.edges[e]]
        if np.all(seg[:, 1] == 0.0) or np.all(seg[:, 0] == 0.0):
            assert m.edge_kind[e] == EdgeKind.INTERFACE


def test_interface_normal_convention():
    m = build_cartesian_mesh(2)
    for pos, e in enumerate(m.interface_edges):
        mid = m.vertices[m.edges[e]].mean(axis=0)
        n = m.interface_normals[pos]
        if mid[1] == 0.0 and mid[0] > 0:
            np.testing.assert_allclose(n, [0.0, -1.0])
        elif mid[1] == 0.0 and mid[0] < 0:
            np.testing.assert_allclose(n, [0.0, 1.0])
        elif mid[0] == 0.0 and mid[1] > 0:
            np.testing.assert_allclose(n, [-1.0, 0.0])
        else:
            np.testing.assert_allclose(n, [1.0, 0.0])
        # normal points into region 2
        towards = m.centroids[m.interface_tri2[pos]] - mid
        assert float(n @ towards) > 0
        assert m.tri_region[m.interface_tri1[pos]] == 1
        assert m.tri_region[m.interface_tri2[pos]] == 2


def test_a_rotated_copy_derives_its_own_signs_and_normals():
    m = build_cartesian_mesh(2)
    rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])  # row vectors turn by +90 degrees
    turned = dataclasses.replace(m, vertices=m.vertices @ rotation)
    n = turned.interface_normals
    across = turned.centroids[turned.interface_tri2] - turned.centroids[turned.interface_tri1]
    assert np.all(np.einsum("id,id->i", n, across) > 0)
    np.testing.assert_allclose(n, m.interface_normals @ rotation, atol=1e-15)
    assert_orientation_matches_geometry(turned)
    np.testing.assert_array_equal(turned.tri_edge_signs, m.tri_edge_signs)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: build_cartesian_mesh(1), id="level1"),
    pytest.param(lambda: build_cartesian_mesh(3), id="level3"),
    pytest.param(lambda: build_cartesian_mesh(8), id="level8"),
    pytest.param(lambda: moved_copy(build_cartesian_mesh(4)), id="moved4"),
    pytest.param(lambda: moved_copy(build_cartesian_mesh(8), seed=7), id="moved8"),
    pytest.param(lambda: two_interface_edge_mesh(4), id="two_interface_edges4"),
])
def test_orientation_follows_the_vertex_order(make):
    # The signs come from the counterclockwise vertex order alone; the
    # geometric reference reads the normals, midpoints and centroids.
    assert_orientation_matches_geometry(make())


def test_edge_kinds_partition():
    m = build_cartesian_mesh(2)
    kinds = m.edge_kind
    assert np.all((kinds >= 0) & (kinds <= 4))
    boundary = np.flatnonzero(m.edge_tris[:, 1] < 0)
    assert set(kinds[boundary]) <= {EdgeKind.BOUNDARY_1, EdgeKind.BOUNDARY_2}
    interior = np.flatnonzero(m.edge_tris[:, 1] >= 0)
    for e in interior:
        t0, t1 = m.edge_tris[e]
        if m.tri_region[t0] != m.tri_region[t1]:
            assert kinds[e] == EdgeKind.INTERFACE
        else:
            expected = EdgeKind.INTERIOR_1 if m.tri_region[t0] == 1 else EdgeKind.INTERIOR_2
            assert kinds[e] == expected


def _parent_of(point, coarse):
    bary_ok = []
    for t in range(coarse.n_triangles):
        tri = coarse.vertices[coarse.triangles[t]]
        def cross2(u, v):
            return u[0] * v[1] - u[1] * v[0]

        a = cross2(tri[1] - point, tri[2] - point)
        b = cross2(tri[2] - point, tri[0] - point)
        c = cross2(tri[0] - point, tri[1] - point)
        if min(a, b, c) >= -1e-12:
            bary_ok.append(t)
    return bary_ok


def test_refine_is_monotone():
    coarse = build_cartesian_mesh(1)
    fine = build_cartesian_mesh(2 * coarse.level_inv)
    assert fine.level_inv == 2
    assert fine.n_triangles == 32
    parents = {}
    for t in range(fine.n_triangles):
        containing = _parent_of(fine.centroids[t], coarse)
        assert len(containing) == 1
        parents.setdefault(containing[0], []).append(t)
    assert len(parents) == coarse.n_triangles
    assert all(len(children) == 4 for children in parents.values())


def test_validate_ok_on_built_meshes():
    for level in (1, 2, 5):
        report = validate_consistency(build_cartesian_mesh(level))
        assert report.ok
        assert report.violations == []


def test_validate_flags_flipped_tag():
    m = build_cartesian_mesh(2)
    region = m.tri_region.copy()
    region[3] = 3 - region[3]
    bad = dataclasses.replace(m, tri_region=region)
    report = validate_consistency(bad)
    assert not report.ok
    assert [t for t, _ in report.violations] == [3]
    assert report.violations[0][1] == "region tag mismatch"


def test_validate_flags_translated_mesh():
    m = build_cartesian_mesh(2)
    shifted = dataclasses.replace(m, vertices=m.vertices + [0.5 / m.level_inv, 0.0])
    report = validate_consistency(shifted)
    assert not report.ok
    reasons = {reason for _, reason in report.violations}
    assert "straddles the interface" in reasons


@pytest.mark.parametrize("level", [1, 3, 8])
def test_tags_follow_the_quadrant_layout(level):
    m = build_cartesian_mesh(level)
    c = m.centroids
    np.testing.assert_array_equal(m.tri_quadrant, quadrants_of(c[:, 0], c[:, 1]))
    np.testing.assert_array_equal(m.tri_region, REGION_OF_QUADRANT[m.tri_quadrant])
    # Q1 and Q3 form region 1, Q2 and Q4 region 2
    np.testing.assert_array_equal(REGION_OF_QUADRANT[1:], [1, 2, 1, 2])


def dict_loop_connectivity(triangles):
    """Reference edge numbering: a dict over sorted vertex pairs, by first appearance."""
    nt = len(triangles)
    edge_ids = {}
    edges = []
    edge_tris = []
    tri_edges = np.empty((nt, 3), dtype=np.int64)
    for t in range(nt):
        v = triangles[t]
        for i in range(3):
            a, b = int(v[(i + 1) % 3]), int(v[(i + 2) % 3])
            key = (a, b) if a < b else (b, a)
            e = edge_ids.get(key)
            if e is None:
                e = len(edges)
                edge_ids[key] = e
                edges.append(key)
                edge_tris.append([t, -1])
            else:
                edge_tris[e][1] = t
            tri_edges[t, i] = e
    return (
        np.asarray(edges, dtype=np.int64),
        np.asarray(edge_tris, dtype=np.int64),
        tri_edges,
    )


def _assert_same_connectivity(triangles):
    got = _connectivity(triangles)
    expected = dict_loop_connectivity(triangles)
    for name, g, e in zip(("edges", "edge_tris", "tri_edges"), got, expected):
        assert g.dtype == e.dtype, name
        np.testing.assert_array_equal(g, e, err_msg=name)


@pytest.mark.parametrize("level", [1, 2, 3, 8])
def test_connectivity_matches_dict_loop(level):
    _assert_same_connectivity(build_cartesian_mesh(level).triangles)


def test_connectivity_matches_dict_loop_on_permuted_triangles():
    triangles = build_cartesian_mesh(3).triangles
    rng = np.random.default_rng(20170)
    shuffled = triangles[rng.permutation(len(triangles))]
    rotated = np.roll(shuffled, rng.integers(1, 3), axis=1)
    _assert_same_connectivity(shuffled)
    _assert_same_connectivity(rotated)


def per_triangle_violations(m, tol=1e-12):
    """Reference consistency check, one triangle at a time."""
    pts = np.einsum("si,tid->tsd", _SAMPLES, m.vertices[m.triangles])
    prod = pts[:, :, 0] * pts[:, :, 1]
    region = np.where(prod > tol, 1, np.where(prod < -tol, 2, 0))
    violations = []
    for t in range(m.n_triangles):
        r = region[t][region[t] != 0]
        if r.size == 0:
            violations.append((t, "degenerate sampling on the interface"))
            continue
        if np.any(r != r[0]):
            violations.append((t, "straddles the interface"))
        elif r[0] != m.tri_region[t]:
            violations.append((t, "region tag mismatch"))
    return violations


def test_validate_matches_per_triangle_loop():
    m = build_cartesian_mesh(4)
    region = m.tri_region.copy()
    region[[5, 40, 77]] = 3 - region[[5, 40, 77]]
    cases = [
        dataclasses.replace(m, tri_region=region),
        dataclasses.replace(m, vertices=m.vertices + [0.5 / m.level_inv, 0.0]),
        dataclasses.replace(m, vertices=m.vertices + [1 / (3 * m.level_inv), -1 / (5 * m.level_inv)]),
        # collapse every vertex onto the x-axis: all samples lie on the cross
        dataclasses.replace(m, vertices=m.vertices * [1.0, 0.0]),
    ]
    for bad in cases:
        report = validate_consistency(bad)
        expected = per_triangle_violations(bad)
        assert report.violations == expected
        assert report.ok == (not expected)
        assert all(type(t) is int for t, _ in report.violations)
    reasons = {r for bad in cases for _, r in validate_consistency(bad).violations}
    assert reasons == {
        "degenerate sampling on the interface", "straddles the interface", "region tag mismatch",
    }
