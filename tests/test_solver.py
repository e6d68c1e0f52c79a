import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given

from twodarcy.analysis import error_norms
from twodarcy.assembly import CoefficientSet, assemble_system
from twodarcy.manufactured import derive_interface_data, example1, example2, example3, example4
from twodarcy.mesh import build_cartesian_mesh
from twodarcy.solver import (
    SolverError,
    _hybrid_factorization,
    _local_saddle_inverse,
    check_wellposedness,
    solve,
)
from twodarcy.spaces import build_dof_layout

from oracles import full_lu_solve, with_coefficients
from test_coefficients import coefficients, derandomized


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
    # a1 = 0 divides the region-1 source by zero, a1 = nan poisons it.
    m = build_cartesian_mesh(1)
    case = dataclasses.replace(example1(), a1=a1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        system = assemble_system(m, build_dof_layout(m), case, check=False)
        with pytest.raises(SolverError):
            solve(system)


def test_local_saddle_inverse_matches_dense_inverse():
    # General SPD blocks: the mesh's right triangles leave some cofactors unused.
    rng = np.random.default_rng(2)
    g = rng.standard_normal((60, 3, 3))
    mass = g @ g.transpose(0, 2, 1) + 0.1 * np.eye(3)
    s = rng.choice([-1.0, 1.0], size=(60, 3))
    # an interface slot: identity row and column, no divergence
    mass[:20, 0, :] = mass[:20, :, 0] = 0.0
    mass[:20, 0, 0] = 1.0
    s[:20, 0] = 0.0
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
    case = dataclasses.replace(example1(), a2=a2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        system = assemble_system(m, build_dof_layout(m), case, check=False)
    with pytest.raises(SolverError):
        solve(system)


CASE_VARIANTS = {
    "example1": example1,
    "example2": example2,
    "example2_paper_literal": lambda: example2("paper_literal"),
    "example3": example3,
    "example3_paper_literal": lambda: example3("paper_literal"),
    "example4": example4,
    "example4_constant_projection": lambda: example4("constant_projection"),
}


def _assert_matches_full_lu(system):
    sol = solve(system)
    x = np.concatenate([sol.u1, sol.p2, sol.phi, sol.p1])
    ref = full_lu_solve(system)
    assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("level", [1, 2, 4, 8, 32])
@pytest.mark.parametrize("variant", sorted(CASE_VARIANTS))
def test_solve_matches_full_matrix_lu(variant, level):
    m = build_cartesian_mesh(level)
    _assert_matches_full_lu(assemble_system(m, build_dof_layout(m), CASE_VARIANTS[variant]()))


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


@derandomized
@given(coefficients)
def test_solve_superposes_loads(coeffs):
    m = build_cartesian_mesh(4)
    system = assemble_system(m, build_dof_layout(m), with_coefficients(example4(), coeffs))
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
@given(coefficients)
@example(CoefficientSet(1.0, 1.0, 1.0))
def test_pin_independence(coeffs):
    case = with_coefficients(example1(), coeffs)
    m = build_cartesian_mesh(2)
    other_pin = int(build_dof_layout(m).p2_vertices[-1])
    sol_a, sol_b = (
        solve(assemble_system(m, build_dof_layout(m, pin_vertex=pin), case))
        for pin in (None, other_pin)
    )
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
    base = example1()
    f_stress, f_n = derive_interface_data(base, beta=0.0)
    degenerate = dataclasses.replace(base, beta=0.0, f_stress=f_stress, f_n=f_n)
    system = assemble_system(m, layout, degenerate, check=False)
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
    m = build_cartesian_mesh(8)
    layout = build_dof_layout(m)
    system = assemble_system(m, layout, example1())
    with pytest.raises(ValueError):
        check_wellposedness(system, max_dim=100)
