"""Batched interface quadrature against per-edge reference loops.

The reference loops below integrate the interface terms one edge at a
time, the way the assembly did before it was batched.  They live here
only, as an oracle for the array code in ``assemble_A``, ``assemble_rhs``
and ``interface_flux_residuals``.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from twodarcy.analysis import interface_flux_residuals
from twodarcy.assembly import (
    LINE_RULE,
    _edge_points,
    assemble_A,
    assemble_rhs,
    assemble_system,
    rt0_local_mass,
)
from twodarcy.mesh import build_cartesian_mesh
from twodarcy.quadrature import segment_rule
from twodarcy.solver import solve
from twodarcy.spaces import build_dof_layout

from oracles import case_id, flux_scatter, variant_cases

CASES = variant_cases()
CASE_IDS = [case_id(c) for c in CASES]
RTOL = 1e-13
TRACE_RULE = segment_rule(2)  # exact for the P1 trace mass


def _edge_geometry(m, pos):
    """Edge id, segment, length and the sign that turns its global normal towards region 2, and that normal."""
    e = m.interface_edges[pos]
    seg = m.vertices[m.edges[e]]
    dx, dy = seg[1] - seg[0]
    length = float(np.hypot(dx, dy))
    normal = np.array([dy, -dx]) / length
    towards_2 = float(np.dot(normal, m.centroids[m.interface_tri2[pos]] - seg.mean(axis=0)))
    return e, seg, length, (1.0 if towards_2 > 0 else -1.0), normal


def _segment_points(seg, rule):
    return seg[0] + np.outer(rule.points, seg[1] - seg[0])


def reference_A(m, layout, coeffs):
    rows, cols, vals = [], [], []
    s_rows, s_cols, s_vals = [], [], []
    hat = np.column_stack([1.0 - TRACE_RULE.points, TRACE_RULE.points])
    line_hat = np.column_stack([1.0 - LINE_RULE.points, LINE_RULE.points])
    for pos in range(len(m.interface_edges)):
        e, seg, length, s_e, _ = _edge_geometry(m, pos)
        p2 = layout.vert_to_p2[m.edges[e]]
        local = coeffs.beta * length * np.einsum("q,qi,qj->ij", TRACE_RULE.weights, hat, hat)
        for i in range(2):
            for j in range(2):
                rows.append(p2[i])
                cols.append(p2[j])
                vals.append(local[i, j])
        couple = s_e * (LINE_RULE.weights @ line_hat)
        for j in range(2):
            s_rows.append(layout.edge_to_u1[e])
            s_cols.append(p2[j])
            s_vals.append(couple[j])
    m_beta = sp.coo_matrix((vals, (rows, cols)), shape=(layout.n_p2, layout.n_p2))
    s = sp.coo_matrix((s_vals, (s_rows, s_cols)), shape=(layout.n_u1, layout.n_p2))
    m_a = flux_scatter(m, layout, rt0_local_mass(m, layout.p1_triangles, coeffs.a1))
    return sp.bmat([[m_a, s], [-s.T, m_beta]], format="csr")


def reference_rhs(m, layout, case):
    def zero(x, y):
        return np.zeros_like(np.asarray(x, dtype=float))

    f1, f2 = assemble_rhs(m, layout, dataclasses.replace(case, f_stress=zero, f_n=zero))
    line_hat = np.column_stack([1.0 - LINE_RULE.points, LINE_RULE.points])
    for pos in range(len(m.interface_edges)):
        e, seg, length, s_e, _ = _edge_geometry(m, pos)
        x = _segment_points(seg, LINE_RULE)
        stress = np.asarray(case.f_stress(x[:, 0], x[:, 1]), dtype=float)
        flux = np.asarray(case.f_n(x[:, 0], x[:, 1]), dtype=float)
        f1[layout.edge_to_u1[e]] += s_e * float(LINE_RULE.weights @ stress)
        p2 = layout.vert_to_p2[m.edges[e]]
        f1[layout.offset_p2 + p2] -= length * (LINE_RULE.weights * flux) @ line_hat
    return f1, f2


def reference_flux_residuals(sol, case, m):
    layout = sol.layout
    hat = np.column_stack([1.0 - LINE_RULE.points, LINE_RULE.points])
    out = np.empty(len(m.interface_edges))
    for pos in range(len(m.interface_edges)):
        e, seg, length, s_e, normal = _edge_geometry(m, pos)
        n = s_e * normal
        u1n = s_e * sol.u1[layout.edge_to_u1[e]] / length
        u2n = float(sol.u2[layout.tri_to_u2[m.interface_tri2[pos]]] @ n)
        p2h = hat @ sol.p2[layout.vert_to_p2[m.edges[e]]]
        x = _segment_points(seg, LINE_RULE)
        f_n = np.asarray(case.f_n(x[:, 0], x[:, 1]), dtype=float)
        defect = u1n - u2n - case.beta * p2h - f_n
        out[pos] = length * float(LINE_RULE.weights @ defect)
    return out


def _assert_close(got, expected, scale):
    assert np.abs(got - expected).max() <= RTOL * scale


@pytest.mark.parametrize("level", [1, 4])
@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_assemble_A_matches_per_edge_loop(case, level):
    m = build_cartesian_mesh(level)
    layout = build_dof_layout(m)
    coeffs = dataclasses.replace(case, beta=0.5 + case.a2).coefficient_set()
    got = assemble_A(m, layout, coeffs, rt0_local_mass(m, layout.p1_triangles, coeffs.a1))
    expected = reference_A(m, layout, coeffs)
    assert abs(got - expected).max() <= RTOL * abs(expected).max()


@pytest.mark.parametrize("level", [1, 4])
@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_assemble_rhs_matches_per_edge_loop(case, level):
    m = build_cartesian_mesh(level)
    layout = build_dof_layout(m)
    f1, f2 = assemble_rhs(m, layout, case)
    r1, r2 = reference_rhs(m, layout, case)
    _assert_close(f1, r1, np.abs(r1).max())
    np.testing.assert_array_equal(f2, r2)


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_interface_flux_residuals_match_per_edge_loop(case):
    m = build_cartesian_mesh(4)
    layout = build_dof_layout(m)
    sol = solve(assemble_system(m, layout, case))
    got = interface_flux_residuals(sol, case, m)
    expected = reference_flux_residuals(sol, case, m)
    assert got.shape == expected.shape == (len(m.interface_edges),)
    # the defect cancels O(1) terms, so scale by the size of those terms
    h = 1 / m.level_inv
    scale = h * max(np.abs(sol.u1).max() / h, np.abs(sol.u2).max(), np.abs(sol.p2).max(), 1.0)
    _assert_close(got, expected, scale)


def test_interface_quadrature_orientation_matches_edge_normals():
    m = build_cartesian_mesh(3)
    x, s = _edge_points(m, m.interface_edges, LINE_RULE), m.interface_signs
    assert x.shape == (len(m.interface_edges), len(LINE_RULE.points), 2)
    for pos in range(len(m.interface_edges)):
        e, seg, _, s_e, _ = _edge_geometry(m, pos)
        np.testing.assert_array_equal(x[pos], _segment_points(seg, LINE_RULE))
        assert s[pos] == s_e
