import dataclasses
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given
from hypothesis import strategies as st

from twodarcy import solver
from twodarcy.analysis import convergence_study, error_norms
from twodarcy.assembly import (
    CoefficientSet, _p1_local_stiffness, assemble_A, assemble_system, p1_stiffness_omega2,
)
from twodarcy.manufactured import example1, example2, example3, example4
from twodarcy.mesh import EdgeKind, _region1_grids, _region2_grids, build_cartesian_mesh
from twodarcy.solver import (
    SolverError,
    _Region1Multipliers,
    _Region2Interior,
    _axis_schur,
    _factor,
    _hybrid_factorization,
    _interior_square,
    _local_saddle_inverse,
    check_wellposedness,
    solve,
)
from twodarcy.spaces import _numbering, build_dof_layout

from oracles import (
    check_moved_system, full_lu_solve, full_matrix, moved_copy, moved_meshes, two_interface_edge_mesh,
    variant_cases, with_coefficients,
)
from test_coefficients import coefficients, derandomized


def variant_id(case):
    """This module's test id of a case variant: ``example2`` (derived mode) or ``example2_paper_literal``."""
    return case.name + ("" if case.interface_mode == "derived" else f"_{case.interface_mode}")


def _solve_example1(level):
    m = build_cartesian_mesh(level)
    layout = build_dof_layout(m)
    case = example1()
    system = assemble_system(m, layout, case)
    return m, case, system, solve(system)


def test_zero_rhs_gives_zero_solution():
    m = build_cartesian_mesh(2)
    layout = build_dof_layout(m)
    system = assemble_system(m, layout, example1())
    system.F1 = np.zeros_like(system.F1)
    system.F2 = np.zeros_like(system.F2)
    sol = solve(system)
    for field in (sol.u1, sol.p2, sol.phi, sol.u2, sol.p1):
        np.testing.assert_allclose(field, 0.0, atol=1e-13)


@pytest.mark.parametrize("a1", [0.0, np.nan])
def test_inadmissible_flux_resistance_fails_honestly(a1):
    # a1 = 0 makes the local flux masses singular, a1 = nan poisons them.
    m = build_cartesian_mesh(1)
    system = assemble_system(m, build_dof_layout(m), example1())
    system = dataclasses.replace(system, flux_mass=system.flux_mass * a1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SolverError):
            solve(system)


def test_local_saddle_inverse_matches_dense_inverse():
    # General SPD blocks: the mesh's right triangles leave some cofactors unused.
    rng = np.random.default_rng(2)
    g = rng.standard_normal((60, 3, 3))
    mass = g @ g.transpose(0, 2, 1) + 0.1 * np.eye(3)
    s = rng.choice([-1.0, 1.0], size=(60, 3))
    saddle = np.zeros((60, 4, 4))
    saddle[:, :3, :3] = mass
    saddle[:, :3, 3] = -s
    saddle[:, 3, :3] = s
    expected = np.linalg.inv(saddle)
    got = _local_saddle_inverse(mass, s)
    assert np.abs(got - expected).max() <= 1e-10 * np.abs(expected).max()
    with pytest.raises(SolverError, match="singular local saddle"):
        _local_saddle_inverse(np.zeros((1, 3, 3)), s[-1:])


@pytest.mark.parametrize("a2", [0.0, np.inf, np.nan])
def test_inadmissible_potential_resistance_fails_honestly(a2):
    # psi = p2 + a2 phi needs a positive finite a2; the solve raises, with no warning.
    m = build_cartesian_mesh(1)
    system = assemble_system(m, build_dof_layout(m), example1())
    system = dataclasses.replace(system, coeffs=CoefficientSet(1.0, a2, 1.0))
    with pytest.raises(SolverError):
        solve(system)


def _same_vertex_copy(m):
    """A copy of the registry mesh ``m`` with equal vertex values, which keeps every unknown and SuperLU."""
    return dataclasses.replace(m, vertices=m.vertices.copy())


@pytest.mark.parametrize("message, expected", [
    ("SUPERLU_MALLOC fails for buf in mxCallocInt()", "factorization ran out of memory"),
    ("cLUWorkInit: malloc fails for local iworkptr[]", "factorization ran out of memory"),
    ("Not enough memory to perform factorization.", "factorization ran out of memory"),
    ("Factor is exactly singular", "singular factorization"),
])
def test_factorization_failure_is_named(message, expected, monkeypatch):
    # Only a copy of a mesh calls SuperLU.
    def failing_splu(*args, **kwargs):
        raise RuntimeError(message)

    m = _same_vertex_copy(build_cartesian_mesh(1))
    system = assemble_system(m, build_dof_layout(m), example1())
    monkeypatch.setattr(solver.spla, "splu", failing_splu)
    with pytest.raises(SolverError, match=f"^{expected}: ") as info:
        solve(system)
    assert str(info.value).endswith(message)


@pytest.mark.parametrize("storage, module, factorizer", [
    (sp.csr_matrix, solver.spla, "splu"), (np.array, solver.la, "lu_factor"),
], ids=["sparse", "dense"])
def test_factor_solves_and_names_failures(storage, module, factorizer, monkeypatch):
    # A non-symmetric matrix, so that a solve with its transpose fails.  lu_factor only warns on an
    # exactly singular matrix and raises ValueError on a non-finite one.
    rng = np.random.default_rng(6)
    matrix = rng.standard_normal((8, 8)) + 4.0 * np.eye(8)
    b = rng.standard_normal(8)
    expected = np.linalg.solve(matrix, b)
    assert np.abs(matrix - matrix.T).max() > 1.0
    assert np.abs(_factor(storage(matrix))(b) - expected).max() <= 1e-13 * np.abs(expected).max()
    singular = [np.array([[1.0, 2.0], [2.0, 4.0]])]
    non_finite = [np.array([[1.0, np.nan], [0.0, 1.0]])] if storage is np.array else []
    for failure in singular + non_finite:
        with pytest.raises(SolverError, match="^singular factorization: "):
            _factor(storage(failure))

    # A MemoryError of either factorizer, as numpy's "Unable to allocate ...", becomes a SolverError,
    # which the CLI reports as "solver failure at level k: ..." instead of a traceback.
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr(module, factorizer, out_of_memory)
    with pytest.raises(SolverError, match="^factorization ran out of memory: Unable to allocate$"):
        _factor(storage(np.eye(2)))


def test_dense_factor_overwrites_only_a_writeable_matrix():
    # A C-ordered matrix reaches LAPACK as its Fortran-ordered transpose: factored in place when
    # writeable, copied when read-only, like the kept cross stiffness psi's Laplacian is sliced from.
    matrix = np.random.default_rng(7).standard_normal((6, 6)) + 6.0 * np.eye(6)
    writeable = matrix.copy()
    _factor(writeable)
    assert not np.array_equal(writeable, matrix)
    frozen = matrix.copy()
    frozen.flags.writeable = False
    _factor(frozen)
    assert np.array_equal(frozen, matrix)


def _perturbed_factorization(perturb):
    """A ``_hybrid_factorization`` whose solve passes each result through ``perturb``."""
    def factorization(system):
        solve_full = _hybrid_factorization(system)
        return lambda b: perturb(solve_full(b))
    return factorization


def test_guard_rejects_a_fixed_solve_error(monkeypatch):
    # Refinement cannot remove an error that every solve adds again.
    m = build_cartesian_mesh(4)
    system = assemble_system(m, build_dof_layout(m), example4())
    exact = solve(system)
    x = np.concatenate([exact.u1, exact.p2, exact.phi, exact.p1])
    offset = 1e-6 * np.abs(x).max() * np.random.default_rng(4).uniform(-1.0, 1.0, x.shape)
    monkeypatch.setattr(solver, "_hybrid_factorization", _perturbed_factorization(lambda y: y + offset))
    with pytest.raises(SolverError, match="solver residual"):
        solve(system)


def test_guard_rejects_a_non_finite_solve(monkeypatch):
    m = build_cartesian_mesh(2)
    system = assemble_system(m, build_dof_layout(m), example1())
    monkeypatch.setattr(solver, "_hybrid_factorization",
                        _perturbed_factorization(lambda y: np.full_like(y, np.nan)))
    with pytest.raises(SolverError, match="non-finite"):
        solve(system)


def test_solve_builds_no_stacked_matrix(monkeypatch):
    def no_bmat(*args, **kwargs):
        raise AssertionError("solve stacked the saddle blocks")

    m = build_cartesian_mesh(4)
    system = assemble_system(m, build_dof_layout(m), example4())
    monkeypatch.setattr(sp, "bmat", no_bmat)
    assert solve(system).residual <= solver.RESIDUAL_TOL


def _vertex_at(m, point):
    return int(np.flatnonzero((m.vertices == point).all(axis=1))[0])


@pytest.mark.parametrize("mesh, pin", [
    (level, pin) for level in (1, 2, 3, 8, 32)
    for pin in [None, (0.0, 0.0), (-1.0, 1.0), (1.0, 0.0)] + [(0.25, -0.5), (-0.5, 0.25)] * (level in (8, 32))
] + [pytest.param(lambda: moved_copy(build_cartesian_mesh(8)), pin, id=f"moved8-{name}")
     for name, pin in (("None", None), ("interior", (0.25, -0.5)))])
def test_psi_solve_matches_splu(mesh, pin):
    # The default pin is (0, -1).  With only a potential load, phi = (psi0 + p2[pin] - p2[phi]) / a2.
    # A moved copy numbers its vertices like the registry mesh of its level, which names its pin.
    m = mesh() if callable(mesh) else build_cartesian_mesh(mesh)
    lo = build_dof_layout(m, None if pin is None else _vertex_at(build_cartesian_mesh(m.level_inv), pin))
    system = assemble_system(m, lo, example4())
    phi, p2_pin = lo.phi_to_p2, lo.vert_to_p2[lo.pinned_vertex]
    f_phi = np.random.default_rng(m.level_inv).standard_normal(lo.n_phi)
    b = np.zeros(lo.size)
    b[lo.offset_phi:lo.offset_p1] = f_phi
    x = _hybrid_factorization(system)(b)
    p2 = x[lo.offset_p2:lo.offset_phi]
    got = system.coeffs.a2 * x[lo.offset_phi:lo.offset_p1] + p2[phi] - p2[p2_pin]
    # SuperLU called apart from the solver, with the solver's symmetric-mode ordering.  At level 32 the
    # default COLAMD ordering is 7.5e-13 off a dense solve and the solver 5.6e-13: they differ by 1.3e-12.
    lu = spla.splu(system.K[phi][:, phi].tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                   options={"SymmetricMode": True})
    expected = lu.solve(f_phi)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("level", [1, 3, 8, 96])
def test_region2_stiffness_is_the_tensor_stencil(level):
    # The closed-form solve rests on this: off the origin, each region-2
    # square's stiffness is T (x) E + E (x) T.
    m = build_cartesian_mesh(level)
    lo = build_dof_layout(m)
    k = p1_stiffness_omega2(m, lo)
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(level + 1, level + 1)).tolil()
    t[0, 0] = t[-1, -1] = 1.0
    e = sp.diags(np.r_[0.5, np.ones(level - 1), 0.5])
    stencil = (sp.kron(t, e) + sp.kron(e, t)).tocsr()[1:]
    for grid in lo.vert_to_p2[_region2_grids(m)]:
        square = k[grid.ravel()[1:]][:, grid.ravel()]
        assert abs(square - stencil).max() <= 1e-13 * abs(square).max()


def _recorded_factorizations(monkeypatch):
    """The matrices ``solver._factor`` receives from now on: a sparse one as CSC, a copy of a dense one."""
    recorded = []
    factor = solver._factor
    monkeypatch.setattr(solver, "_factor", lambda matrix: recorded.append(
        matrix.tocsc() if sp.issparse(matrix) else matrix.copy()) or factor(matrix))
    return recorded


def _n_multipliers(m):
    return int(np.count_nonzero(m.edge_kind == EdgeKind.INTERIOR_1))


def test_laplacian_path_follows_mesh_identity(monkeypatch):
    # Only the registry mesh is known to be the uniform grid: both regions
    # are reduced onto the cross in closed form, and LAPACK factors the dense
    # cross matrix and psi's Laplacian on the cross but its first unknown;
    # SuperLU is never called.  Any copy, even one with the same vertex
    # values, has SuperLU factor [multipliers | p2] and the Laplacian on
    # every p2 unknown but the first, and no dense matrix.
    calls = []
    for module, name in ((solver.spla, "splu"), (solver.la, "lu_factor")):
        monkeypatch.setattr(module, name, lambda matrix, *args, name=name, factor=getattr(module, name), **kwargs:
                            calls.append((name, matrix.shape[0])) or factor(matrix, *args, **kwargs))
    m = build_cartesian_mesh(4)
    lo = build_dof_layout(m)
    copies = [("splu", _n_multipliers(m) + lo.n_p2), ("splu", lo.n_p2 - 1)]
    for mesh, sizes in ((m, [("lu_factor", 4 * 4 + 1), ("lu_factor", 4 * 4)]), (moved_copy(m), copies),
                        (_same_vertex_copy(m), copies)):
        calls.clear()
        assert solve(assemble_system(mesh, build_dof_layout(mesh), example4())).residual <= solver.RESIDUAL_TOL
        assert calls == sizes
    assert _region2_grids(dataclasses.replace(m, tri_region=m.tri_region.copy())) is None
    assert _region1_grids(dataclasses.replace(m, tri_region=m.tri_region.copy())) is None


@pytest.mark.parametrize("k", [1, 2, 4, 16])
def test_axis_schur_matches_splu(k):
    # At k = 1 the interior of a square is its one corner vertex.
    m = build_cartesian_mesh(k)
    lo = build_dof_layout(m)
    stiffness = p1_stiffness_omega2(m, lo)
    for grid in lo.vert_to_p2[_region2_grids(m)]:
        interior, axes = grid[1:, 1:].ravel(), np.concatenate([grid[1:, 0], grid[0, 1:]])
        coupling = stiffness[interior][:, axes].toarray()
        expected = coupling.T @ _factor(stiffness[interior][:, interior])(coupling)
        assert np.abs(_axis_schur(*_interior_square(k)) - expected).max() <= 1e-14 * np.abs(expected).max()


@pytest.mark.parametrize("k", [1, 2, 4, 16])
def test_region2_elimination_matches_splu(k):
    # condense and recover against a sparse LU of the interior block, I the
    # interiors of both squares and G the cross, on standard-normal loads.
    m = build_cartesian_mesh(k)
    lo = build_dof_layout(m)
    stiffness = p1_stiffness_omega2(m, lo)
    elimination = _Region2Interior.of(lo, _region2_grids(m), stiffness)
    inner, cross = elimination.interior.ravel(), elimination.cross
    lu = spla.splu(stiffness[inner][:, inner].tocsc())
    rng = np.random.default_rng(k)
    g, y = rng.standard_normal((2, lo.n_p2))

    condensed = g.copy()
    elimination.condense(condensed)
    expected = g.copy()
    expected[cross] -= stiffness[cross][:, inner] @ lu.solve(g[inner])
    assert np.abs(condensed - expected).max() <= 1e-13 * np.abs(expected).max()

    recovered = y.copy()
    elimination.recover(recovered, g)
    expected = y.copy()
    expected[inner] = lu.solve(g[inner] - stiffness[inner][:, cross] @ y[cross])
    assert np.abs(recovered - expected).max() <= 1e-13 * np.abs(expected).max()


def _check_interior_rows(system, monkeypatch):
    """In the unreduced hybrid matrix, each off-axis p2 row of a region-2 square is K / a2 exactly."""
    recorded = _recorded_factorizations(monkeypatch)
    # A copy with the registry's vertex values factors [multipliers | p2], the matrix before the reduction.
    m = system.mesh
    _hybrid_factorization(dataclasses.replace(system, mesh=_same_vertex_copy(m)))
    hybrid, n_h = recorded[0].tocsr(), _n_multipliers(m)
    interior = system.layout.vert_to_p2[_region2_grids(m)[:, 1:, 1:]].ravel()
    rows = hybrid[n_h + interior]
    assert rows[:, :n_h].nnz == 0
    assert (rows[:, n_h:] != system.K[interior] / system.coeffs.a2).nnz == 0


@pytest.mark.parametrize("level", [1, 2, 8])
@pytest.mark.parametrize("case", variant_cases(), ids=variant_id)
def test_interior_p2_rows_hold_only_the_stiffness(case, level, monkeypatch):
    # The reduction rests on this: off the cross, M_beta and the condensed
    # interface terms are zero, and no multiplier is reached.
    m = build_cartesian_mesh(level)
    _check_interior_rows(assemble_system(m, build_dof_layout(m), case), monkeypatch)


@derandomized
@given(coefficients)
def test_interior_p2_rows_hold_only_the_stiffness_over_coefficients(coeffs):
    with pytest.MonkeyPatch.context() as monkeypatch:
        m = build_cartesian_mesh(8)
        system = assemble_system(m, build_dof_layout(m), with_coefficients(example4(), coeffs))
        _check_interior_rows(system, monkeypatch)


@pytest.mark.parametrize("level", [4, 8, 16])
def test_reduced_pattern_is_independent_of_the_values(level, monkeypatch):
    # A kept fill-reducing ordering needs one pattern per level and pin for
    # each matrix SuperLU factors, on a copy: the hybrid one, where
    # eliminate_zeros and the rounding drop must not let the pattern depend
    # on the coefficients, and psi's.  The registry mesh factors two dense
    # matrices of fixed shapes.
    recorded = _recorded_factorizations(monkeypatch)
    m = build_cartesian_mesh(level)
    copy = _same_vertex_copy(m)
    layout = build_dof_layout(m)
    draws = 10.0 ** np.random.default_rng(level).uniform(-4.0, 4.0, (6, 3))
    for mesh, sizes in ((m, [4 * level + 1, 4 * level]), (copy, [_n_multipliers(m) + layout.n_p2, layout.n_p2 - 1])):
        recorded.clear()
        for make in (example1, example2, example3, example4):
            for a1, a2, beta in draws:
                case = with_coefficients(make(), CoefficientSet(a1, a2, beta))
                _hybrid_factorization(dataclasses.replace(assemble_system(m, layout, case), mesh=mesh))
        for first, size in enumerate(sizes):
            matrices = recorded[first::len(sizes)]
            assert len(matrices) == 4 * len(draws) and {r.shape for r in matrices} == {(size, size)}
            if mesh is m:
                assert all(isinstance(r, np.ndarray) for r in matrices)
            else:
                assert len({(r.indptr.tobytes(), r.indices.tobytes()) for r in matrices}) == 1


def _cr_stiffness(m, layout):
    """The unit Crouzeix-Raviart stiffness of the region-1 triangles on the multipliers, built apart.

    The CR basis function of the edge opposite vertex i is 1 - 2 lambda_i, so its local stiffness is
    4 times the P1 one, with ``tri_edges[t, i]`` opposite vertex i.
    """
    _, u1_to_h = _numbering(m.edge_kind[layout.u1_edges] == EdgeKind.INTERIOR_1)
    tris = layout.p1_triangles
    h = np.broadcast_to(u1_to_h[layout.edge_to_u1[m.tri_edges[tris]]][:, :, None], (len(tris), 3, 3))
    local = 4.0 * _p1_local_stiffness(m, tris)
    keep = (h >= 0) & (h.transpose(0, 2, 1) >= 0)
    n_h = _n_multipliers(m)
    return sp.csc_matrix((local[keep], (h[keep], h.transpose(0, 2, 1)[keep])), shape=(n_h, n_h)), u1_to_h


@pytest.mark.parametrize("k", [1, 2, 4, 16])
def test_region1_elimination_matches_splu(k, monkeypatch):
    # The closed form rests on this: the multiplier block of the hybrid
    # system, as a copy factors it, is -CR / a1, the rows next to the
    # interface included.  Then solve is CR^-1 and near_inverse is CR^-1
    # among the multipliers of the interface triangles, against a sparse LU
    # of that block, on standard-normal loads.  At k = 1 each square has one
    # diagonal and no leg.
    recorded = _recorded_factorizations(monkeypatch)
    m = build_cartesian_mesh(k)
    lo = build_dof_layout(m)
    a1 = 3.7
    system = assemble_system(m, lo, with_coefficients(example4(), CoefficientSet(a1, 1.3, 0.7)))
    _hybrid_factorization(dataclasses.replace(system, mesh=_same_vertex_copy(m)))
    n_h = _n_multipliers(m)
    block = (-a1 * recorded[0][:n_h, :n_h]).tocsc()
    cr, u1_to_h = _cr_stiffness(m, lo)
    assert abs(block - cr).max() <= 1e-14 * abs(cr).max()

    elimination = _Region1Multipliers.of(u1_to_h[lo.edge_to_u1[_region1_grids(m)]],
                                         m.tri_quadrant[m.interface_tri1])
    lu = spla.splu(block)
    r = np.random.default_rng(k).standard_normal(n_h)
    expected = lu.solve(r)
    assert np.abs(elimination.solve(r) - expected).max() <= 5e-14 * np.abs(expected).max()
    for near in elimination.near:
        unit = np.zeros((n_h, len(near)))
        unit[near, np.arange(len(near))] = 1.0
        expected = lu.solve(unit)[near]
        got = elimination.near_inverse[:-1, :-1]
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()
    assert not elimination.near_inverse[-1].any() and not elimination.near_inverse[:, -1].any()


def _assert_registry_matches_copy(system, tolerances=(1e-12,) * 5):
    """Every solution field on the registry mesh against a copy with the same vertex values, which keeps SuperLU."""
    m = system.mesh
    copy = _same_vertex_copy(m)
    registry, reference = solve(system), solve(dataclasses.replace(system, mesh=copy))
    for field, tol in zip(("u1", "p2", "phi", "u2", "p1"), tolerances):
        a, b = getattr(registry, field), getattr(reference, field)
        assert np.abs(a - b).max() <= tol * np.abs(b).max(), field


@derandomized
@given(coefficients, st.sampled_from([1, 2, 4, 8, 16, 32]), st.sampled_from([example1, example2, example3, example4]))
def test_registry_solve_matches_copies_over_coefficients(coeffs, level, make):
    # At level 32 the two paths differ by up to 4.6e-12 of u1 over these
    # draws, as the parent's did (region 2 alone in closed form: 4.9e-12).
    m = build_cartesian_mesh(level)
    system = assemble_system(m, build_dof_layout(m), with_coefficients(make(), coeffs))
    _assert_registry_matches_copy(system, (1e-12 if level <= 16 else 1e-11,) * 5)


@pytest.mark.parametrize("level", [1, 2, 4, 8, 16, 32])
@pytest.mark.parametrize("a1", [1e-12, 1e12])
def test_registry_solve_matches_copies_at_a1_corners(a1, level):
    # At a1 = 1e-12 the cross p2 values are ill-conditioned: p2, phi and u2
    # of the two paths differ by up to 4.3e-9 here, and by 1.5e-8 when only
    # region 2 was in closed form.  The fluxes and p1 still agree to 1e-12.
    m = build_cartesian_mesh(level)
    system = assemble_system(m, build_dof_layout(m), with_coefficients(example4(), CoefficientSet(a1, 1.0, 1.0)))
    _assert_registry_matches_copy(system, (1e-12, 1e-7, 1e-7, 1e-7, 1e-12) if a1 < 1.0 else (1e-12,) * 5)


def test_assembly_and_diagnostics_scatter_every_block(monkeypatch):
    def no_stacking(*args, **kwargs):
        raise AssertionError("a block was stacked instead of scattered")

    monkeypatch.setattr(sp, "bmat", no_stacking)
    monkeypatch.setattr(sp, "block_diag", no_stacking)
    m = build_cartesian_mesh(2)
    system = assemble_system(m, build_dof_layout(m), example2("paper_literal"))
    diag = check_wellposedness(system)
    assert min(diag.inf_sup, diag.kernel_coercivity, diag.c_definiteness) > 0.0


def _assert_matches_full_lu(system):
    sol = solve(system)
    x = np.concatenate([sol.u1, sol.p2, sol.phi, sol.p1])
    ref = full_lu_solve(system)
    assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("level", [1, 2, 4, 8, 32])
@pytest.mark.parametrize("case", variant_cases(), ids=variant_id)
def test_solve_matches_full_matrix_lu(case, level):
    # Both paths: the registry mesh eliminates the region-2 interior in
    # closed form, a copy keeps it.  No element matrix of a moved copy has an
    # exact zero, so every condensed entry is scattered there.  The level-1
    # copy moves no vertex: all of them are on the axes or the boundary.
    uniform = build_cartesian_mesh(level)
    for m in (uniform, moved_copy(uniform)) if level in (1, 2, 4, 8) else (uniform,):
        _assert_matches_full_lu(assemble_system(m, build_dof_layout(m), case))


def test_multipliers_are_the_pressure_trace(monkeypatch):
    # Each multiplier enters the flux rows of its two triangles with their
    # outward signs of its edge, so it approximates p there: the gap to p at
    # the edge midpoints shrinks with h.  The first solve of the closed-form
    # cross factor returns [multipliers | cross p2].
    solved = []
    factor = _Region1Multipliers.factor

    def recording(self, *args):
        solve_hybrid = factor(self, *args)
        return lambda g: solved.append(solve_hybrid(g)) or solved[-1]

    monkeypatch.setattr(_Region1Multipliers, "factor", recording)
    case, gaps = example1(), []
    for level in (8, 16, 32):
        m = build_cartesian_mesh(level)
        layout = build_dof_layout(m)
        solved.clear()
        solve(assemble_system(m, layout, case))
        edges = layout.u1_edges[m.edge_kind[layout.u1_edges] == EdgeKind.INTERIOR_1]
        mid = m.vertices[m.edges[edges]].mean(axis=1)
        gaps.append(np.abs(solved[0][:len(edges)] - case.p_at(mid[:, 0], mid[:, 1])).max())
    assert gaps[0] <= 4e-3
    assert gaps[1] <= gaps[0] / 2 and gaps[2] <= gaps[1] / 2, gaps


@pytest.mark.parametrize("level", [2, 4, 8])
@pytest.mark.parametrize("case", [example1(), example2("paper_literal"), example4()], ids=variant_id)
def test_solve_region1_triangle_with_two_interface_edges(case, level):
    m = two_interface_edge_mesh(level)
    on_interface = (m.edge_kind[m.tri_edges] == EdgeKind.INTERFACE).sum(axis=1)
    assert np.count_nonzero((on_interface == 2) & (m.tri_region == 1)) == 2
    system = assemble_system(m, build_dof_layout(m), case)
    assert solve(system).residual <= solver.RESIDUAL_TOL
    _assert_matches_full_lu(system)


@pytest.mark.parametrize("level", [8, 32])
@pytest.mark.parametrize("case", variant_cases(), ids=variant_id)
def test_blockwise_residual_matches_full_matrix(case, level):
    m = build_cartesian_mesh(level)
    system = assemble_system(m, build_dof_layout(m), case)
    sol = solve(system)
    x = np.concatenate([sol.u1, sol.p2, sol.phi, sol.p1])
    rhs = system.rhs()
    stacked = np.abs(full_matrix(system) @ x - rhs).max() / np.abs(rhs).max()
    assert sol.residual <= 1e-13 and stacked <= 1e-13
    assert abs(sol.residual - stacked) <= 1e-13


def test_solve_matches_full_matrix_lu_for_random_loads():
    # The manufactured cases load no interior region-1 flux row; random loads do.
    m = build_cartesian_mesh(4)
    system = assemble_system(m, build_dof_layout(m), example4())
    rng = np.random.default_rng(3)
    system.F1 = rng.standard_normal(system.F1.shape)
    system.F2 = rng.standard_normal(system.F2.shape)
    _assert_matches_full_lu(system)


def test_solve_matches_full_matrix_lu_with_interior_pin():
    # The pinned vertex keeps its own p2 row; off the interface it has no
    # beta-mass, so that row has a zero on the diagonal.
    m = build_cartesian_mesh(4)
    pin = int(np.flatnonzero((m.vertices == [0.25, -0.5]).all(axis=1))[0])
    assert build_dof_layout(m).vert_to_p2[pin] >= 0
    _assert_matches_full_lu(assemble_system(m, build_dof_layout(m, pin_vertex=pin), example4()))


@derandomized
@given(coefficients)
def test_solve_matches_full_matrix_lu_over_coefficients(coeffs):
    m = build_cartesian_mesh(4)
    _assert_matches_full_lu(
        assemble_system(m, build_dof_layout(m), with_coefficients(example4(), coeffs))
    )


@pytest.mark.parametrize("a2", [1e-3, 1e3])
@pytest.mark.parametrize("a1", [1e-3, 1e3])
@pytest.mark.parametrize("beta", [1e-3, 1e3])
def test_solve_matches_full_matrix_lu_at_coefficient_corners(a1, a2, beta):
    # phi = (psi - p2) / a2 cancels most when a2 is far from the other two.
    m = build_cartesian_mesh(4)
    case = with_coefficients(example4(), CoefficientSet(a1, a2, beta))
    _assert_matches_full_lu(assemble_system(m, build_dof_layout(m), case))


@pytest.mark.parametrize("a1", [1e7, 1e9, 1e12])
@pytest.mark.parametrize("make", [example1, example4], ids=["example1", "example4"])
def test_solve_strong_region1_resistance(make, a1):
    # Every condensed entry scales like 1/a1, the p2 entries too, so the
    # rounding of an element matrix is judged against one scale; M_beta and
    # K / a2 are scattered on their own and stay far above it.
    m = build_cartesian_mesh(16)
    base = make()
    case = with_coefficients(base, CoefficientSet(a1, base.a2, base.beta))
    system = assemble_system(m, build_dof_layout(m), case)
    sol = solve(system)
    assert sol.residual <= solver.RESIDUAL_TOL
    x = np.concatenate([sol.u1, sol.p2, sol.phi, sol.p1])
    ref = full_lu_solve(system)
    assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("a1, a2", [(1e6, 1.0), (1.0, 1e6), (1e-6, 1.0), (1.0, 1e-6)])
def test_coefficient_contrast_keeps_rates(a1, a2):
    case = with_coefficients(example4(), CoefficientSet(a1, a2, 1.0))
    rates = convergence_study(case, [4, 8, 16, 32]).rates[-1]
    for column, rate in rates.items():
        assert rate >= (1.95 if column in ("p1", "p2_l2") else 0.95), column


@derandomized
@given(coefficients, moved_meshes)
def test_solve_superposes_loads(coeffs, moved):
    case = with_coefficients(example4(), coeffs)
    for m in (build_cartesian_mesh(4), moved):
        system = assemble_system(m, build_dof_layout(m), case)
        if m is moved:
            check_moved_system(system, case)
        rng = np.random.default_rng(11)
        # Every load is random, the potential rows of F2 (where psi0 enters) too.
        f1a, f1b = rng.standard_normal((2, len(system.F1)))
        f2a, f2b = rng.standard_normal((2, len(system.F2)))

        def solution(f1, f2):
            sol = solve(dataclasses.replace(system, F1=f1, F2=f2))
            return np.concatenate([sol.u1, sol.p2, sol.phi, sol.p1])

        both = solution(f1a + f1b, f2a + f2b)
        parts = solution(f1a, f2a) + solution(f1b, f2b)
        assert np.abs(both - parts).max() <= 1e-10 * np.abs(both).max()


@pytest.mark.xfail(raises=SolverError, strict=True,
                   reason="the residual guard scales with the coefficient contrast, not the backward error")
def test_high_contrast_random_loads_are_accepted():
    # A backward-stable solve, with a componentwise backward error of 1.6e-16, but max|r| / max|b|
    # reads 5.6e-10 here, above RESIDUAL_TOL.  A scale-free guard turns this into a pass.
    m = build_cartesian_mesh(4)
    case = with_coefficients(example4(), CoefficientSet(1.0, 1e6, 1.0))
    system = assemble_system(m, build_dof_layout(m), case)
    rng = np.random.default_rng(0)
    system = dataclasses.replace(
        system, F1=rng.standard_normal(system.F1.shape), F2=rng.standard_normal(system.F2.shape)
    )
    assert solve(system).residual <= solver.RESIDUAL_TOL


@derandomized
@given(coefficients)
def test_unrefined_solve_matches_full_matrix_lu(coeffs):
    # The refinement step would hide a defect in the condensed solve that its
    # own correction undoes (e.g. a load term left out), so check one pass.
    m = build_cartesian_mesh(4)
    system = assemble_system(m, build_dof_layout(m), with_coefficients(example4(), coeffs))
    rng = np.random.default_rng(7)
    system = dataclasses.replace(
        system, F1=rng.standard_normal(system.F1.shape), F2=rng.standard_normal(system.F2.shape)
    )
    x = _hybrid_factorization(system)(system.rhs())
    ref = full_lu_solve(system)
    assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()


def test_residual_recorded_and_small():
    *_, sol = _solve_example1(4)
    assert sol.residual <= 1e-10


def test_example1_level2_velocity_error():
    m, case, _, sol = _solve_example1(2)
    report = error_norms(sol, case, m)
    assert abs(report.e_u1_l2 - 0.1409) / 0.1409 <= 0.25


@derandomized
@given(coefficients, moved_meshes)
@example(CoefficientSet(1.0, 1.0, 1.0), moved_copy(build_cartesian_mesh(4)))
def test_pin_independence(coeffs, moved):
    case = with_coefficients(example1(), coeffs)
    for m in (build_cartesian_mesh(2), moved):
        other_pin = int(build_dof_layout(m).p2_vertices[-1])
        system_a, system_b = (
            assemble_system(m, build_dof_layout(m, pin_vertex=pin), case) for pin in (None, other_pin)
        )
        if m is moved:
            check_moved_system(system_a, case)
            check_moved_system(system_b, case)
        sol_a, sol_b = solve(system_a), solve(system_b)
        for field in ("u1", "p2", "p1", "u2"):
            a, b = getattr(sol_a, field), getattr(sol_b, field)
            assert np.abs(a - b).max() <= 1e-10 * np.abs(a).max()
        # the raw potential shifts by a constant only
        nodal_a = np.zeros(m.n_vertices)
        nodal_b = np.zeros(m.n_vertices)
        la, lb = sol_a.layout, sol_b.layout
        nodal_a[la.vert_to_phi >= 0] = sol_a.phi[la.vert_to_phi[la.vert_to_phi >= 0]]
        nodal_b[lb.vert_to_phi >= 0] = sol_b.phi[lb.vert_to_phi[lb.vert_to_phi >= 0]]
        shift = nodal_a[la.p2_vertices] - nodal_b[la.p2_vertices]
        assert np.abs(shift - shift[0]).max() <= 1e-10 * np.abs(nodal_a).max()


@derandomized
@given(coefficients, moved_meshes)
def test_interface_balance(coeffs, moved):
    # The sum of the p2 rows: the rows of K sum to zero, each coupling row of
    # S sums to s_e, and the trace mass sums to beta |e| (p2_a + p2_b) / 2.
    for m in (build_cartesian_mesh(4), moved):
        layout = build_dof_layout(m)
        e = m.interface_edges
        for base in (example1(), example4()):
            case = with_coefficients(base, coeffs)
            system = assemble_system(m, layout, case)
            if m is moved:
                check_moved_system(system, case)
            sol = solve(system)
            flux = m.interface_signs * sol.u1[layout.edge_to_u1[e]]
            storage = coeffs.beta * m.interface_lengths * sol.p2[layout.vert_to_p2[m.edges[e]]].sum(axis=1) / 2
            load = system.F1[layout.offset_p2:]
            scale = max(np.abs(terms).max() for terms in (flux, storage, load))
            assert abs(flux.sum() - (storage.sum() - load.sum())) <= 1e-10 * scale


def test_linearity_in_the_data():
    m, case, system, sol = _solve_example1(2)
    lam = 3.7
    scaled = dataclasses.replace(
        case,
        lap_p=lambda x, y, q, _f=case.lap_p: lam * _f(x, y, q),
        f_stress=lambda x, y, _f=case.f_stress: lam * _f(x, y),
        f_n=lambda x, y, _f=case.f_n: lam * _f(x, y),
    )
    system2 = assemble_system(m, sol.layout, scaled)
    sol2 = solve(system2)
    for field in ("u1", "p2", "p1", "u2", "phi"):
        a, b = getattr(sol, field), getattr(sol2, field)
        scale = max(1.0, np.abs(b).max())
        assert np.abs(lam * a - b).max() / scale <= 1e-10


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_wellposedness_diagnostics_positive(level):
    m = build_cartesian_mesh(level)
    layout = build_dof_layout(m)
    system = assemble_system(m, layout, example1())
    diag = check_wellposedness(system)
    assert diag.inf_sup > 0
    assert diag.kernel_coercivity > 0
    assert diag.c_definiteness > 0


def test_wellposedness_levels_stable():
    values = []
    for level in (1, 2, 3, 4):
        m = build_cartesian_mesh(level)
        layout = build_dof_layout(m)
        system = assemble_system(m, layout, example1())
        values.append(check_wellposedness(system))
    inf_sups = [v.inf_sup for v in values]
    coercivities = [v.kernel_coercivity for v in values]
    for a, b in zip(inf_sups, inf_sups[1:]):
        assert 0.5 <= b / a <= 2.0
    for a, b in zip(coercivities, coercivities[1:]):
        assert 0.25 <= b / a <= 4.0


def test_beta_zero_collapses_kernel_coercivity():
    m = build_cartesian_mesh(2)
    layout = build_dof_layout(m)
    system = assemble_system(m, layout, example1())
    zero_beta = CoefficientSet(1.0, 1.0, 0.0)
    system = dataclasses.replace(
        system, A=assemble_A(m, layout, zero_beta, system.flux_mass), coeffs=zero_beta
    )
    diag = check_wellposedness(system)
    assert abs(diag.kernel_coercivity) <= 1e-10
    assert diag.inf_sup > 0


def test_infsup_independent_of_resistance_scale():
    m = build_cartesian_mesh(2)
    layout = build_dof_layout(m)
    base = assemble_system(m, layout, example1())
    scaled_case = dataclasses.replace(example1(), a1=10.0, a2=10.0)
    scaled = assemble_system(m, layout, scaled_case)
    assert abs(base.B - scaled.B).max() == 0.0
    d1 = check_wellposedness(base)
    d2 = check_wellposedness(scaled)
    assert abs(d1.inf_sup - d2.inf_sup) <= 1e-12


def test_dense_guard():
    m = build_cartesian_mesh(16)  # 3,777 unknowns, above DENSE_MAX_DIM
    layout = build_dof_layout(m)
    system = assemble_system(m, layout, example1())
    with pytest.raises(ValueError, match="dense guard"):
        check_wellposedness(system)
