import dataclasses
import math

import numpy as np
import pytest

from twodarcy import analysis
from twodarcy.analysis import (
    ConvergenceReport,
    convergence_study,
    error_norms,
    interface_flux_residuals,
    rate,
    write_csv,
)
from twodarcy.assembly import assemble_system
from twodarcy.manufactured import example1, example2, example3, example4
from twodarcy.mesh import build_cartesian_mesh, quadrants_of
from twodarcy.quadrature import triangle_rule
from twodarcy.solver import SolutionFields, solve
from twodarcy.spaces import build_dof_layout

from oracles import dual_residual_norm, interpolate_exact


def _fields_from_vector(x, system):
    return SolutionFields.from_vector(x, system, residual=0.0)


def test_rate_values():
    assert abs(rate(0.0261, 0.0091) - 1.5201) <= 2e-4
    assert rate(0.5, 0.5) == 0.0
    assert abs(rate(0.8, 0.2) - 2.0) <= 1e-14
    with pytest.raises(ValueError):
        rate(0.0, 1.0)
    with pytest.raises(ValueError):
        rate(1.0, -1.0)


def test_exact_discrete_fixture_has_zero_errors(patch_case):
    m = build_cartesian_mesh(2)
    layout = build_dof_layout(m)
    system = assemble_system(m, layout, patch_case)
    xhat = interpolate_exact(patch_case, m, layout)
    sol = _fields_from_vector(xhat, system)
    report = error_norms(sol, patch_case, m)
    for value in report.errors().values():
        assert value <= 1e-10


def test_interpolant_errors_sane_at_level4():
    # table values at level 4 for the first case; the interpolant must be
    # positive, finite and of the same order as the solver errors
    table = {"p1": 0.0091, "p2_l2": 0.0226, "p2_h1": 0.0887,
             "u1_l2": 0.0617, "u1_hdiv": 0.0617, "u2": 0.0857}
    case = example1()
    m = build_cartesian_mesh(4)
    layout = build_dof_layout(m)
    system = assemble_system(m, layout, case)
    sol = _fields_from_vector(interpolate_exact(case, m, layout), system)
    report = error_norms(sol, case, m)
    for column, value in report.errors().items():
        assert np.isfinite(value) and value > 0
        assert value <= 3.0 * table[column]


def test_example1_level8_h1_error():
    case = example1()
    m = build_cartesian_mesh(8)
    layout = build_dof_layout(m)
    sol = solve(assemble_system(m, layout, case))
    report = error_norms(sol, case, m)
    assert abs(report.e_p2_h1 - 0.0422) / 0.0422 <= 0.25


def test_report_invariants():
    case = example1()
    m = build_cartesian_mesh(4)
    layout = build_dof_layout(m)
    sol = solve(assemble_system(m, layout, case))
    report = error_norms(sol, case, m)
    assert report.e_u1_hdiv >= report.e_u1_l2
    assert report.e_p2_h1 >= report.e_p2_l2
    assert all(v >= 0 for v in report.errors().values())
    rel = report.relative()
    assert set(rel) == {"p1", "p2_l2", "p2_h1", "u1_l2", "u1_hdiv", "u2"}
    assert all(np.isfinite(v) and v > 0 for v in rel.values())


def test_norm_monotonicity_across_a_study():
    report = convergence_study(example1(), [1, 2, 4])
    for rep in report.reports:
        assert rep.e_u1_hdiv >= rep.e_u1_l2
        assert rep.e_p2_h1 >= rep.e_p2_l2
        assert all(v >= 0 for v in rep.errors().values())


def test_error_norms_rejects_wrong_mesh():
    case = example1()
    m = build_cartesian_mesh(2)
    layout = build_dof_layout(m)
    sol = solve(assemble_system(m, layout, case))
    other = build_cartesian_mesh(4)
    with pytest.raises(ValueError):
        error_norms(sol, case, other)


def test_convergence_study_levels_validated():
    case = example1()
    with pytest.raises(ValueError):
        convergence_study(case, [1, 3])
    with pytest.raises(ValueError):
        convergence_study(case, [4, 2])
    with pytest.raises(ValueError):
        convergence_study(case, [0, 1])


def test_convergence_study_shape_and_callback():
    case = example1()
    seen = []
    report = convergence_study(
        case, [1, 2, 4], on_level=lambda k, m, lo, sol: seen.append(k)
    )
    assert isinstance(report, ConvergenceReport)
    assert seen == [1, 2, 4]
    assert report.levels() == [1, 2, 4]
    assert report.rates[0] is None
    assert set(report.rates[1]) == {"p1", "p2_l2", "p2_h1", "u1_l2", "u1_hdiv", "u2"}


def test_csv_format_and_determinism(tmp_path):
    case = example1()
    report = convergence_study(case, [1, 2])
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    write_csv(report, path_a)
    write_csv(convergence_study(case, [1, 2]), path_b)
    text = path_a.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == (
        "h_inv,e_p1,r_p1,e_p2_L2,r_p2_L2,e_p2_H1,r_p2_H1,"
        "e_u1_L2,r_u1_L2,e_u1_Hdiv,r_u1_Hdiv,e_u2,r_u2"
    )
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[2] == "" and first[4] == ""  # empty rate cells
    assert len(first) == 13
    assert path_a.read_bytes() == path_b.read_bytes()


def test_quadrature_saturation_level8():
    case = example1()
    m = build_cartesian_mesh(8)
    layout = build_dof_layout(m)
    sol = solve(assemble_system(m, layout, case))
    low = error_norms(sol, case, m, degree=10)
    high = error_norms(sol, case, m, degree=20)
    for a, b in zip(
        list(low.errors().values()) + list(low.relative().values()),
        list(high.errors().values()) + list(high.relative().values()),
    ):
        assert abs(a - b) <= 1e-6 * max(abs(a), 1e-30)


def _triangle_rule_norms(case, m):
    """Exact-solution norms integrated triangle by triangle (degree-10 rule)."""
    rule = triangle_rule(10)

    def l2(field, region):
        tris = np.flatnonzero(m.tri_region == region)
        pts = np.einsum("qi,tid->tqd", rule.points, m.vertices[m.triangles[tris]])
        x, y = pts[..., 0], pts[..., 1]
        values = np.asarray(field(x, y, quadrants_of(x, y)), dtype=float) ** 2
        if values.ndim == 3:
            values = values.sum(axis=-1)
        return math.sqrt(float(2.0 * m.areas[tris] @ (values @ rule.weights)))

    return {
        "norm_p1": l2(case.p, 1),
        "norm_p2_l2": l2(case.p, 2),
        "norm_p2_h1": math.hypot(l2(case.p, 2), l2(case.grad_p, 2)),
        "norm_u1_l2": l2(case.u, 1),
        "norm_u1_hdiv": math.hypot(l2(case.u, 1), l2(case.F, 1)),
        "norm_u2": l2(case.u, 2),
    }


@pytest.mark.parametrize("case", [
    example1(),
    example2("derived"),
    example2("paper_literal"),
    example3("derived"),
    example3("paper_literal"),
    example4("derived"),
    example4("constant_projection"),
], ids=lambda c: f"{c.name}-{c.interface_mode}")
def test_exact_norms_match_triangle_rule_level8(case):
    m = build_cartesian_mesh(8)
    layout = build_dof_layout(m)
    report = error_norms(solve(assemble_system(m, layout, case)), case, m)
    for name, expected in _triangle_rule_norms(case, m).items():
        assert abs(getattr(report, name) - expected) <= 1e-9 * expected, name


def test_study_integrates_exact_norms_once():
    before = analysis._exact_norms.cache_info()
    convergence_study(example1(), [1, 2, 4])
    after = analysis._exact_norms.cache_info()
    assert after.misses - before.misses == 1
    assert after.hits - before.hits == 2


def test_exact_norms_follow_case_coefficients():
    base = example1()
    variant = dataclasses.replace(base, a2=5.0)
    m = build_cartesian_mesh(1)
    sol = solve(assemble_system(m, build_dof_layout(m), base))
    norm_u2 = error_norms(sol, base, m).norm_u2
    assert math.isclose(error_norms(sol, variant, m).norm_u2, norm_u2 / 5.0, rel_tol=1e-12)


def test_interface_flux_residuals_decrease():
    case = example1()
    norms = []
    for level in (4, 8, 16):
        m = build_cartesian_mesh(level)
        layout = build_dof_layout(m)
        sol = solve(assemble_system(m, layout, case))
        residuals = interface_flux_residuals(sol, case, m)
        norms.append(float(np.linalg.norm(residuals)))
    for coarse, fine in zip(norms, norms[1:]):
        assert fine <= 1.1 * coarse


def test_galerkin_consistency_residual_decreases():
    case = example1()
    values = []
    for level in (2, 4, 8):
        m = build_cartesian_mesh(level)
        layout = build_dof_layout(m)
        system = assemble_system(m, layout, case)
        xhat = interpolate_exact(case, m, layout)
        values.append(dual_residual_norm(system, xhat))
    assert values[1] < values[0]
    assert values[2] < values[1]


def test_example2_jump_is_visible():
    case = example2()
    m = build_cartesian_mesh(16)
    layout = build_dof_layout(m)
    sol = solve(assemble_system(m, layout, case))
    from twodarcy.quadrature import segment_rule

    rule = segment_rule(11)
    max_jump = 0.0
    max_stress = 0.0
    for pos, e in enumerate(m.interface_edges):
        seg = m.vertices[m.edges[e]]
        pts = seg[0] + np.outer(rule.points, seg[1] - seg[0])
        stress = np.abs(case.f_stress(pts[:, 0], pts[:, 1]))
        p2h = (1 - rule.points) * sol.p2[layout.vert_to_p2[m.edges[e, 0]]] \
            + rule.points * sol.p2[layout.vert_to_p2[m.edges[e, 1]]]
        p1h = sol.p1[layout.tri_to_p1[m.interface_tri1[pos]]]
        max_jump = max(max_jump, float(np.abs(p2h - p1h).max()))
        max_stress = max(max_stress, float(stress.max()))
    assert max_jump >= 0.8 * max_stress
