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
from twodarcy.cli import main
from twodarcy.manufactured import example1, example2, example4
from twodarcy.mesh import build_cartesian_mesh, quadrants_of
from twodarcy.solver import SolutionFields, solve
from twodarcy.spaces import build_dof_layout

from oracles import (
    case_id, dual_residual_norm, interpolate_exact, patch_potential, triangle_rule, variant_cases,
)


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
    xhat = interpolate_exact(patch_case, m, layout, patch_potential)
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
    rel = report.relative(analysis.exact_norms(case))
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


@pytest.mark.parametrize("other", ["level2", "level8", "one_edge_fewer"])
@pytest.mark.parametrize("helper", [
    error_norms, interface_flux_residuals, lambda sol, case, m: analysis.u1_cell_values(sol, m),
], ids=["error_norms", "interface_flux_residuals", "u1_cell_values"])
def test_analysis_helpers_reject_wrong_mesh(helper, other):
    case = example1()
    m = build_cartesian_mesh(4)
    sol = solve(assemble_system(m, build_dof_layout(m), case))
    wrong = {
        "level2": lambda: build_cartesian_mesh(2),
        "level8": lambda: build_cartesian_mesh(8),
        # same triangles, so only the edge count tells the meshes apart
        "one_edge_fewer": lambda: dataclasses.replace(m, edges=m.edges[:-1]),
    }[other]()
    with pytest.raises(ValueError, match="do not belong to this mesh"):
        helper(sol, case, wrong)


def test_convergence_study_levels_validated():
    case = example1()
    with pytest.raises(ValueError):
        convergence_study(case, [1, 3])
    with pytest.raises(ValueError):
        convergence_study(case, [4, 2])
    with pytest.raises(ValueError):
        convergence_study(case, [0, 1])


@pytest.mark.parametrize("levels", [[], (), np.array([], dtype=int)], ids=["list", "tuple", "array"])
def test_convergence_study_rejects_empty_levels(levels):
    # an empty study would return no report but one rate entry
    with pytest.raises(ValueError, match="must not be empty"):
        convergence_study(example1(), levels)


@pytest.mark.parametrize("levels", [[1, 2.5], [1.0, 2.0], ["1", "2"], [True, 2]],
                         ids=["fraction", "float", "str", "bool"])
def test_convergence_study_rejects_non_integer_levels(levels):
    # int() would truncate 2.5 to 2 and read True as 1
    with pytest.raises(ValueError, match="powers of 2"):
        convergence_study(example1(), levels)


def test_convergence_study_accepts_numpy_integer_levels():
    report = convergence_study(example1(), np.array([1, 2]))
    assert [r.level_inv for r in report.reports] == [1, 2]


def test_convergence_study_accepts_a_generator_of_levels():
    report = convergence_study(example1(), (k for k in (1, 2)))
    assert [r.level_inv for r in report.reports] == [1, 2]
    assert len(report.rates) == 2


def test_convergence_study_shape_and_callback():
    case = example1()
    seen = []
    report = convergence_study(
        case, [1, 2, 4], on_level=lambda k, m, lo, sol: seen.append(k)
    )
    assert isinstance(report, ConvergenceReport)
    assert seen == [1, 2, 4]
    assert [r.level_inv for r in report.reports] == [1, 2, 4]
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


def test_quadrature_saturation_level8(monkeypatch):
    case = example1()
    low = analysis.exact_norms(case)
    monkeypatch.setattr(analysis, "NORM_DEGREE", 2 * analysis.NORM_DEGREE)
    high = analysis.exact_norms(case)
    for key in low:
        assert abs(low[key] - high[key]) <= 1e-6 * low[key]


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
        "p1": l2(case.p, 1),
        "p2_l2": l2(case.p, 2),
        "p2_h1": math.hypot(l2(case.p, 2), l2(case.grad_p, 2)),
        "u1_l2": l2(case.u, 1),
        "u1_hdiv": math.hypot(l2(case.u, 1), l2(case.F, 1)),
        "u2": l2(case.u, 2),
    }


@pytest.mark.parametrize("case", variant_cases(), ids=case_id)
def test_exact_norms_match_triangle_rule_level8(case):
    norms = analysis.exact_norms(case)
    assert set(norms) == set(analysis.COLUMNS)
    for name, expected in _triangle_rule_norms(case, build_cartesian_mesh(8)).items():
        assert abs(norms[name] - expected) <= 1e-9 * expected, name


def test_exact_norms_are_integrated_only_for_the_relative_table(monkeypatch, capsys):
    calls = []
    exact_norms = analysis.exact_norms
    monkeypatch.setattr(analysis, "exact_norms", lambda *args: calls.append(1) or exact_norms(*args))
    convergence_study(example4(), [1, 2, 4])
    assert calls == []
    assert main(["--example", "4", "--interface-mode", "constant_projection",
                 "--max-level", "4"]) == 0
    assert "relative errors (percent):" in capsys.readouterr().out
    assert calls == [1]


def test_exact_norms_follow_case_coefficients():
    base = example1()
    variant = dataclasses.replace(base, a2=5.0)
    norm_u2 = analysis.exact_norms(base)["u2"]
    assert math.isclose(analysis.exact_norms(variant)["u2"], norm_u2 / 5.0, rel_tol=1e-12)


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
