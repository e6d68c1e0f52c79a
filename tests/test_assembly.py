import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given

from twodarcy import assembly
from twodarcy.assembly import (
    AdmissibilityError,
    CoefficientSet,
    assemble_A,
    assemble_B,
    assemble_C,
    assemble_rhs,
    assemble_system,
    p1_stiffness_omega2,
    rt0_local_mass,
)
from twodarcy.manufactured import example1, example3, example4
from twodarcy.mesh import EdgeKind, build_cartesian_mesh
from twodarcy.solver import solve
from twodarcy.spaces import build_dof_layout, rt0_basis

from oracles import (
    assemble_patch_system,
    case_id,
    check_moved_system,
    flux_scatter,
    full_matrix,
    interpolate_exact,
    linear_patch_case,
    moved_copy,
    moved_meshes,
    patch_potential,
    triangle_rule,
    variant_cases,
    with_coefficients,
)
from test_coefficients import coefficients, derandomized


def _vertex_index(m, x, y):
    hits = np.flatnonzero((m.vertices[:, 0] == x) & (m.vertices[:, 1] == y))
    assert len(hits) == 1
    return int(hits[0])


def test_rt0_mass_matches_symbolic_integration():
    sympy = pytest.importorskip("sympy")
    m = build_cartesian_mesh(1)
    layout = build_dof_layout(m)
    x, y, s, r = sympy.symbols("x y s r")
    exact = np.zeros((layout.n_u1, layout.n_u1))
    for t in layout.p1_triangles:
        tri = [[sympy.Rational(c) for c in v] for v in m.vertices[m.triangles[t]]]
        area = sympy.Rational(m.areas[t])
        # local edge i lies opposite vertex i
        basis = [
            [sympy.Integer(int(m.tri_edge_signs[t, i])) / (2 * area) * (z - p)
             for z, p in zip((x, y), tri[i])]
            for i in range(3)
        ]
        # integrate over the triangle through its affine map from the unit triangle
        to_tri = {z: tri[0][d] + s * (tri[1][d] - tri[0][d]) + r * (tri[2][d] - tri[0][d])
                  for d, z in enumerate((x, y))}
        dofs = layout.edge_to_u1[m.tri_edges[t]]
        for i in range(3):
            for j in range(i, 3):
                integrand = (basis[i][0] * basis[j][0] + basis[i][1] * basis[j][1]).subs(to_tri)
                val = float(sympy.integrate(sympy.expand(integrand * 2 * area), (r, 0, 1 - s), (s, 0, 1)))
                exact[dofs[i], dofs[j]] += val
                if j != i:
                    exact[dofs[j], dofs[i]] += val

    # the flux block of A, scattered as assemble_A does
    mass = flux_scatter(m, layout, rt0_local_mass(m, layout.p1_triangles)).toarray()
    # the whole matrix, hypotenuse rows and shared-edge sums included
    np.testing.assert_allclose(mass, exact, rtol=0.0, atol=1e-14)
    assert np.count_nonzero(exact) == np.count_nonzero(mass)


def test_rt0_local_mass_matches_quadrature_of_the_basis():
    # The closed form restates the basis of spaces.rt0_basis; integrate that
    # basis itself with the degree-2 rule (exact for the quadratic integrand)
    # on a level-4 mesh whose interior vertices are moved off the grid, so
    # every triangle is a general one and all sign patterns occur.
    m = build_cartesian_mesh(4)
    rng = np.random.default_rng(5)
    inner = np.all(np.abs(m.vertices) < 1.0, axis=1)
    moved = m.vertices + inner[:, None] * rng.uniform(-0.2, 0.2, m.vertices.shape) / m.level_inv
    m = dataclasses.replace(m, vertices=moved)
    tris = build_dof_layout(m).p1_triangles
    rule = triangle_rule(2)
    pts = np.einsum("qi,tid->tqd", rule.points, m.vertices[m.triangles[tris]])
    phi = rt0_basis(m, tris, pts)
    quad = 2.0 * m.areas[tris][:, None, None] * np.einsum("q,tiqd,tjqd->tij", rule.weights, phi, phi)
    assert len(np.unique(np.round(m.areas[tris], 14))) > len(tris) // 2
    got = 2.5 * rt0_local_mass(m, tris)
    np.testing.assert_allclose(got, 2.5 * quad, rtol=0.0, atol=1e-13 * abs(quad).max())


def test_trace_mass_block_values():
    m = build_cartesian_mesh(2)
    layout = build_dof_layout(m)
    coeffs = CoefficientSet(1.0, 1.0, 1.0)
    a = assemble_A(m, layout, coeffs)
    block = a[layout.n_u1:, layout.n_u1:]
    h = 1 / m.level_inv
    v_end = layout.vert_to_p2[_vertex_index(m, 1.0, 0.0)]
    v_mid = layout.vert_to_p2[_vertex_index(m, 0.5, 0.0)]
    # the endpoint vertex (1,0) belongs to a single interface edge
    assert abs(block[v_end, v_end] - 2 * h / 6) <= 1e-14
    assert abs(block[v_end, v_mid] - h / 6) <= 1e-14
    # (0.5, 0) belongs to two interface edges
    assert abs(block[v_mid, v_mid] - 2 * (2 * h / 6)) <= 1e-14


def test_interface_coupling_entries_are_half():
    m = build_cartesian_mesh(2)
    layout = build_dof_layout(m)
    a = assemble_A(m, layout, CoefficientSet(1.0, 1.0, 1.0))
    s = a[: layout.n_u1, layout.n_u1:].tocoo()
    assert s.nnz == 2 * len(m.interface_edges)
    np.testing.assert_allclose(np.abs(s.data), 0.5)
    # known sign: on (0,1) x {0} the stored normal equals the global edge
    # normal, so the coupling is +1/2
    for pos, e in enumerate(m.interface_edges):
        mid = m.vertices[m.edges[e]].mean(axis=0)
        if mid[1] == 0.0 and mid[0] > 0:
            row = layout.edge_to_u1[e]
            vals = np.asarray(a[row, layout.n_u1:].todense()).ravel()
            np.testing.assert_allclose(vals[np.nonzero(vals)], 0.5)


def test_A_skew_pair_and_beta_scaling():
    m = build_cartesian_mesh(2)
    layout = build_dof_layout(m)
    a = assemble_A(m, layout, CoefficientSet(1.0, 1.0, 1.0))
    n_u1 = layout.n_u1
    a12 = a[:n_u1, n_u1:]
    a21 = a[n_u1:, :n_u1]
    assert abs(a12 + a21.T).max() <= 1e-14
    a_beta = assemble_A(m, layout, CoefficientSet(1.0, 1.0, 2.5))
    diff = (a_beta - a)[n_u1:, n_u1:]
    base = a[n_u1:, n_u1:]
    assert abs(diff - 1.5 * base).max() <= 1e-14


def test_B_div_block_structure():
    m = build_cartesian_mesh(1)
    layout = build_dof_layout(m)
    b = assemble_B(m, layout, p1_stiffness_omega2(m, layout))
    d = b[layout.n_phi:, : layout.n_u1]
    assert d.shape == (4, 10)
    assert np.all(np.diff(d.tocsr().indptr) == 3)
    # interior region-1 edge columns sum to zero (flux continuity)
    sums = np.asarray(d.sum(axis=0)).ravel()
    for e in np.flatnonzero(np.asarray(m.edge_kind) == EdgeKind.INTERIOR_1):
        assert abs(sums[layout.edge_to_u1[e]]) == 0.0
    # constants lie in the kernel of the potential-row block
    g = b[: layout.n_phi, layout.n_u1:]
    np.testing.assert_allclose(np.asarray(g.sum(axis=1)).ravel(), 0.0, atol=1e-13)


def test_C_examples():
    m = build_cartesian_mesh(2)
    layout = build_dof_layout(m)
    k = p1_stiffness_omega2(m, layout)
    c1 = assemble_C(layout, CoefficientSet(1.0, 1.0, 1.0), k)
    c5 = assemble_C(layout, CoefficientSet(1.0, 5.0, 1.0), k)
    k1 = c1[: layout.n_phi, : layout.n_phi]
    assert abs(c5[: layout.n_phi, : layout.n_phi] - 5 * k1).max() <= 1e-13
    eigs = np.linalg.eigvalsh(k1.toarray())
    assert eigs.min() > 0  # positive definite after pinning
    # quadratic form with the nodal values of x: integral of a over region 2
    phi = np.zeros(layout.n_phi)
    mask = layout.vert_to_phi >= 0
    phi[layout.vert_to_phi[mask]] = m.vertices[mask, 0]
    value = phi @ (c5[: layout.n_phi, : layout.n_phi] @ phi)
    assert abs(value - 10.0) <= 1e-12


def test_rhs_examples():
    m = build_cartesian_mesh(2)
    layout = build_dof_layout(m)
    case = example1()
    f1, f2 = assemble_rhs(m, layout, case)
    # zero interface data: flux rows receive nothing
    np.testing.assert_allclose(f1[: layout.n_u1], 0.0, atol=1e-15)

    # F identically 1 (unit resistance) gives the triangle areas
    one_case = dataclasses.replace(case, lap_p=lambda x, y, q: np.full(np.shape(x), -1.0))
    _, f2_one = assemble_rhs(m, layout, one_case)
    np.testing.assert_allclose(f2_one[layout.n_phi:], 0.5 / m.level_inv**2, atol=1e-15)


def test_assemble_system_level1_shape_and_symmetry():
    m = build_cartesian_mesh(1)
    layout = build_dof_layout(m)
    system = assemble_system(m, layout, example1())
    k = full_matrix(system)
    assert k.shape == (27, 27)
    n_u1 = layout.n_u1
    assert abs(system.A[:n_u1, n_u1:] + system.A[n_u1:, :n_u1].T).max() <= 1e-14
    assert abs(system.C - system.C.T).max() <= 1e-14


def test_admissibility_checks():
    # assemble_system is the one place where the coefficients are checked
    m = build_cartesian_mesh(1)
    layout = build_dof_layout(m)
    with pytest.raises(AdmissibilityError):
        assemble_system(m, layout, dataclasses.replace(example1(), a2=-2.0))
    zero_beta = dataclasses.replace(example1(), beta=0.0)
    with pytest.raises(AdmissibilityError):
        assemble_system(m, layout, zero_beta)
    with pytest.raises(AdmissibilityError):
        assemble_system(m, layout, dataclasses.replace(example1(), beta=-1.0))


@pytest.mark.parametrize("beta", [np.nan, np.inf])
def test_admissibility_rejects_non_finite_beta(beta):
    m = build_cartesian_mesh(1)
    with pytest.raises(AdmissibilityError, match="finite"):
        assemble_system(m, build_dof_layout(m), dataclasses.replace(example1(), beta=beta))


@pytest.mark.parametrize("a1", [0.0, np.inf])
def test_assemble_system_validates_before_assembling(a1):
    m = build_cartesian_mesh(1)
    case = dataclasses.replace(example1(), a1=a1)
    with pytest.raises(AdmissibilityError, match="positive and finite"):
        assemble_system(m, build_dof_layout(m), case)


@derandomized
@given(coefficients)
def test_system_blocks_share_the_carried_matrices(coeffs):
    # The solver decouples the potential through psi = p2 + a2 phi, which
    # rests on these.
    case = with_coefficients(example1(), coeffs)
    ulp = np.finfo(float).eps
    for level in (2, 4):
        m = build_cartesian_mesh(level)
        layout = build_dof_layout(m)
        system = assemble_system(m, layout, case)
        k, phi, n_phi, n_u1 = system.K, layout.phi_to_p2, layout.n_phi, layout.n_u1
        assert abs(system.B[:n_phi, n_u1:] - k[phi]).max() == 0.0
        c = system.C[:n_phi, :n_phi]
        assert abs(c - coeffs.a2 * k[phi][:, phi]).max() <= 4 * ulp * abs(c).max()
        assert np.abs(k.sum(axis=1)).max() <= 1e-13 * abs(k).max()


@derandomized
@given(coefficients, moved_meshes)
@example(CoefficientSet(1.0, 1.0, 1.0), moved_copy(build_cartesian_mesh(4)))
def test_patch_case_residual(coeffs, moved):
    case = with_coefficients(linear_patch_case(), coeffs)
    uniform = build_cartesian_mesh(2)
    for m in (uniform, moved_copy(uniform), build_cartesian_mesh(4), moved):
        layout = build_dof_layout(m)
        system = assemble_patch_system(m, layout, case)
        if m is moved:
            check_moved_system(system, case)
        xhat = interpolate_exact(case, m, layout, patch_potential)
        rhs = system.rhs()
        residual = full_matrix(system) @ xhat - rhs
        assert np.abs(residual).max() <= 1e-10 * max(1.0, np.abs(rhs).max())
        sol = solve(system)
        x = np.concatenate([sol.u1, sol.p2, sol.phi, sol.p1])
        assert np.abs(x - xhat).max() <= 1e-10 * np.abs(xhat).max()


def test_assembly_merge_order_independent():
    m = build_cartesian_mesh(2)
    layout = build_dof_layout(m)
    a = assemble_A(m, layout, CoefficientSet(1.0, 5.0, 1.0)).tocoo()
    rng = np.random.default_rng(11)
    perm = rng.permutation(a.nnz)
    shuffled = sp.coo_matrix(
        (a.data[perm], (a.row[perm], a.col[perm])), shape=a.shape
    ).tocsr()
    reference = a.tocsr()
    scale = max(1.0, abs(reference).max())
    assert abs(shuffled - reference).max() / scale <= 1e-12


def test_example3_weighted_stiffness():
    m = build_cartesian_mesh(2)
    layout = build_dof_layout(m)
    case = example3()
    k = p1_stiffness_omega2(m, layout)
    c = assemble_C(layout, case.coefficient_set(), k)
    plain = k[layout.phi_to_p2][:, layout.phi_to_p2]
    assert abs(c[: layout.n_phi, : layout.n_phi] - 5.0 * plain).max() <= 1e-12


# ---------------------------------------------------------------------------
# Stored pattern: the blocks keep no zeros.

CASES = variant_cases()
CASE_IDS = [case_id(c) for c in CASES]


def _reference_scatter(parts, shape):
    """The scatter that stores every local entry of every part, zeros included."""
    vals, rows, cols = [], [], []
    for local, row_dofs, col_dofs in parts:
        r = np.repeat(row_dofs, col_dofs.shape[1], axis=1).ravel()
        c = np.tile(col_dofs, (1, row_dofs.shape[1])).ravel()
        keep = (r >= 0) & (c >= 0)
        vals.append(local.ravel()[keep])
        rows.append(r[keep])
        cols.append(c[keep])
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=shape
    ).tocsr()


def _blocks(system):
    return {"A": system.A, "B": system.B, "C": system.C, "matrix": full_matrix(system)}


def _reference_system(monkeypatch, m, layout, case):
    with monkeypatch.context() as patch:
        patch.setattr(assembly, "_scatter", _reference_scatter)
        return assemble_system(m, layout, case)


@pytest.mark.parametrize("level", [3, 4, 6])
@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_blocks_store_no_zeros(case, level, monkeypatch):
    m = build_cartesian_mesh(level)
    layout = build_dof_layout(m)
    blocks = _blocks(assemble_system(m, layout, case))
    reference = _blocks(_reference_system(monkeypatch, m, layout, case))
    for name, got in blocks.items():
        assert np.abs(got.data).min() > 1e-14, name  # no zero, no rounding residue
        ref = reference[name].tocsr()
        kept = got.tocoo()
        ref_kept = np.asarray(ref[kept.row, kept.col]).ravel()
        # scipy may sum a row's duplicates in another order once other entries
        # of the row are dropped, which moves a sum by at most one ulp here.
        np.testing.assert_allclose(kept.data, ref_kept, rtol=4 * np.finfo(float).eps, atol=0.0)
        # Every dropped entry was a sum of rounding residues of exact zeros.
        ref_coo = ref.tocoo()
        stored = np.asarray(got.astype(bool)[ref_coo.row, ref_coo.col]).ravel()
        assert np.all(np.abs(ref_coo.data[~stored]) <= 1e-14), name
    assert blocks["matrix"].nnz < reference["matrix"].nnz


def test_scatter_drops_residues_and_cancelled_sums():
    local = np.array([
        [[2.0, 1.0], [3e-16, 4.0]],     # 3e-16 is a residue next to 4
        [[-1.0, 9.0], [5.0, 9.0]],      # -1 cancels the 1 above; 9s sit on dof -1
    ])
    rows = np.array([[0, 1], [0, 1]])
    out = assembly._scatter([(local, rows, np.array([[0, 1], [1, -1]]))], (2, 2))
    np.testing.assert_array_equal(out.toarray(), [[2.0, 0.0], [0.0, 9.0]])
    assert out.nnz == 2 and np.all(out.data != 0.0)


def test_scatter_sums_parts_into_one_matrix():
    parts = [
        (np.array([[[1.0, 2.0]]]), np.array([[0]]), np.array([[0, 1]])),
        (np.array([[[4.0], [8.0]]]), np.array([[0, -1]]), np.array([[1]])),  # 8 sits on dof -1
    ]
    out = assembly._scatter(parts, (2, 2))
    np.testing.assert_array_equal(out.toarray(), [[1.0, 6.0], [0.0, 0.0]])
    assert out.nnz == 2


def test_non_finite_local_entries_are_kept():
    m = build_cartesian_mesh(2)
    layout = build_dof_layout(m)
    a = assemble_A(m, layout, CoefficientSet(np.nan, 1.0, 1.0))
    m_a = a[: layout.n_u1, : layout.n_u1]
    assert m_a.nnz > 0 and np.all(np.isnan(m_a.data))


def test_solve_matches_reference_matrix_at_level6(monkeypatch):
    from scipy.sparse.linalg import splu

    from twodarcy.solver import solve

    m = build_cartesian_mesh(6)
    layout = build_dof_layout(m)
    case = example4()
    ref = _reference_system(monkeypatch, m, layout, case)
    expected = splu(full_matrix(ref).tocsc()).solve(ref.rhs())
    sol = solve(assemble_system(m, layout, case))
    got = np.concatenate([sol.u1, sol.p2, sol.phi, sol.p1])
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
