import dataclasses

import numpy as np
import pytest
from hypothesis import example, given

from twodarcy.analysis import error_norms
from twodarcy.assembly import CoefficientSet, assemble_system
from twodarcy.manufactured import derive_interface_data, example1
from twodarcy.mesh import build_cartesian_mesh
from twodarcy.solver import check_wellposedness, solve
from twodarcy.spaces import build_dof_layout

from oracles import with_coefficients
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
