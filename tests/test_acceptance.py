"""Acceptance suite: one test per criterion, each printing a PASS line.

Reference values are frozen from the published convergence tables; the
stated tolerances (15% velocities, 25% pressures) absorb the conventions
the source leaves open (cell-splitting diagonal, interface storage value).
Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import dataclasses
import time

import numpy as np
import pytest

import twodarcy as td
from twodarcy import analysis
from twodarcy.analysis import convergence_study, exact_norms, write_csv
from twodarcy.assembly import CoefficientSet, assemble_A, assemble_system
from twodarcy.mesh import build_cartesian_mesh
from twodarcy.solver import check_wellposedness, solve
from twodarcy.spaces import build_dof_layout

from oracles import finite_difference_check

LEVELS = [1, 2, 4, 8, 16, 32]

# --- frozen table values ---------------------------------------------------

EX1_PRESSURES = {  # level: (p1, p2 L2, p2 H1)
    8: (0.0026, 0.0062, 0.0422),
    16: (0.0007, 0.0016, 0.0209),
    32: (0.0002, 0.0004, 0.0104),
}
EX1_VELOCITIES = {  # level: (u1 L2, u1 Hdiv, u2)
    8: (0.0302, 0.0302, 0.0417),
    16: (0.0150, 0.0150, 0.0208),
    32: (0.0075, 0.0075, 0.0104),
}
EX2_TABLES = {  # level: (p1, p2 L2, p2 H1, u1 L2, u1 Hdiv, u2)
    4: (0.0091, 0.0226, 0.0889, 0.0617, 0.0617, 0.0860),
    8: (0.0026, 0.0062, 0.0423, 0.0302, 0.0302, 0.0418),
    16: (0.0007, 0.0016, 0.0209, 0.0150, 0.0150, 0.0208),
    32: (0.0002, 0.0004, 0.0104, 0.0075, 0.0075, 0.0104),
}
EX4_U1_HDIV_32 = 0.0287
EX4_CONST_REL_P1 = (0.9889, 0.5005, 0.2509)   # levels 8, 16, 32
EX4_CONST_REL_U2 = (44.9504, 22.6303, 11.3547)

COLS = ("p1", "p2_l2", "p2_h1", "u1_l2", "u1_hdiv", "u2")


@pytest.fixture(scope="module")
def ex1_study():
    t0 = time.perf_counter()
    report = convergence_study(td.example1(), LEVELS)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ex2_study():
    return convergence_study(td.example2(), LEVELS)


@pytest.fixture(scope="module")
def ex3_study():
    return convergence_study(td.example3(), LEVELS)


@pytest.fixture(scope="module")
def ex4_study():
    return convergence_study(td.example4(), LEVELS)


@pytest.fixture(scope="module")
def ex4_const_study():
    return convergence_study(
        td.example4(interface_mode="constant_projection"), LEVELS
    )


def _by_level(report):
    return {rep.level_inv: rep for rep in report.reports}


def _rates_by_level(report):
    return {
        rep.level_inv: rates
        for rep, rates in zip(report.reports, report.rates)
        if rates is not None
    }


def test_criterion_1_example1_velocities(ex1_study):
    report, elapsed = ex1_study
    rows = _by_level(report)
    worst = 0.0
    for level, (u1, u1h, u2) in EX1_VELOCITIES.items():
        rep = rows[level]
        for got, ref in ((rep.e_u1_l2, u1), (rep.e_u1_hdiv, u1h), (rep.e_u2, u2)):
            worst = max(worst, abs(got - ref) / ref)
    print(f"[criterion 1] velocity errors within {100*worst:.1f}% of the tables "
          f"(limit 15%); 6-level study took {elapsed:.1f}s (limit 60s)")
    assert worst <= 0.15
    assert elapsed <= 60.0


def test_criterion_2_example1_pressures(ex1_study):
    report, _ = ex1_study
    rows = _by_level(report)
    rates = _rates_by_level(report)
    last_two = [rates[16], rates[32]]
    for r in last_two:
        assert 1.8 <= r["p2_l2"] <= 2.2
        assert 0.95 <= r["p2_h1"] <= 1.1
        assert r["p1"] >= 1.5
    worst = 0.0
    for level, (p1, p2l2, p2h1) in EX1_PRESSURES.items():
        rep = rows[level]
        for got, ref in ((rep.e_p1, p1), (rep.e_p2_l2, p2l2), (rep.e_p2_h1, p2h1)):
            worst = max(worst, abs(got - ref) / ref)
    print(f"[criterion 2] pressure rates {last_two[0]['p2_l2']:.2f}/{last_two[1]['p2_l2']:.2f} (L2), "
          f"{last_two[1]['p2_h1']:.2f} (H1), {last_two[1]['p1']:.2f} (p1); "
          f"absolutes within {100*worst:.1f}% (limit 25%)")
    assert worst <= 0.25


def test_criterion_3_example2_tables_and_jump(ex2_study):
    rows = _by_level(ex2_study)
    worst = 0.0
    for level, refs in EX2_TABLES.items():
        errors = rows[level].errors()
        for col, ref in zip(COLS, refs):
            worst = max(worst, abs(errors[col] - ref) / ref)
    assert worst <= 0.25

    case = td.example2()
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
        max_stress = max(max_stress, float(np.abs(case.f_stress(pts[:, 0], pts[:, 1])).max()))
        p2h = (1 - rule.points) * sol.p2[layout.vert_to_p2[m.edges[e, 0]]] \
            + rule.points * sol.p2[layout.vert_to_p2[m.edges[e, 1]]]
        p1h = sol.p1[layout.tri_to_p1[m.interface_tri1[pos]]]
        max_jump = max(max_jump, float(np.abs(p2h - p1h).max()))
    print(f"[criterion 3] discontinuous-case errors within {100*worst:.1f}% "
          f"(limit 25%); pressure jump {max_jump:.4f} >= 0.8*{max_stress:.4f}")
    assert max_jump >= 0.8 * max_stress


def test_criterion_4_example3_rates(ex3_study):
    rates = _rates_by_level(ex3_study)
    last_two = [rates[16], rates[32]]
    for r in last_two:
        assert 0.9 <= r["u1_l2"] <= 1.1
        assert 0.9 <= r["u1_hdiv"] <= 1.1
        assert 0.9 <= r["u2"] <= 1.1
        assert r["p2_l2"] >= 1.8
    print(f"[criterion 4] resistance-jump rates: u1 {last_two[1]['u1_l2']:.3f}, "
          f"u2 {last_two[1]['u2']:.3f}, p2 L2 {last_two[1]['p2_l2']:.2f}")


def test_criterion_5_example4_derived(ex4_study):
    rows = _by_level(ex4_study)
    rates = _rates_by_level(ex4_study)
    got = rows[32].e_u1_hdiv
    rel = abs(got - EX4_U1_HDIV_32) / EX4_U1_HDIV_32
    assert rel <= 0.15
    assert 0.9 <= rates[32]["u1_hdiv"] <= 1.1
    assert rates[16]["p2_l2"] >= 1.8 and rates[32]["p2_l2"] >= 1.8
    print(f"[criterion 5] flux H(div) error {got:.4f} vs 0.0287 "
          f"({100*rel:.1f}%, limit 15%); rate {rates[32]['u1_hdiv']:.4f}")


def test_criterion_6_example4_constant_projection(ex4_const_study):
    rows = _by_level(ex4_const_study)
    # absolute errors stagnate: no convergence to the exact solution
    assert rows[32].e_p1 >= 0.9 * rows[8].e_p1
    assert rows[32].e_u2 >= 0.8 * rows[8].e_u2
    norms = exact_norms(td.example4(interface_mode="constant_projection"))
    rel = {k: rows[k].relative(norms) for k in (8, 16, 32)}
    p1_factors = (rel[8]["p1"] / rel[16]["p1"], rel[16]["p1"] / rel[32]["p1"])
    u2_factors = (rel[8]["u2"] / rel[16]["u2"], rel[16]["u2"] / rel[32]["u2"])
    print(f"[criterion 6] p1 percentage {rel[8]['p1']:.4f} -> {rel[16]['p1']:.4f} "
          f"-> {rel[32]['p1']:.4f} (published: {EX4_CONST_REL_P1}), "
          f"contraction {p1_factors[0]:.2f}/{p1_factors[1]:.2f}")
    print(f"[criterion 6] u2 percentage {rel[8]['u2']:.4f} -> {rel[16]['u2']:.4f} "
          f"-> {rel[32]['u2']:.4f} halves at {u2_factors[0]:.2f}/{u2_factors[1]:.2f} "
          f"(published column {EX4_CONST_REL_U2} follows an unreproducible "
          f"normalization; the halving trend is the checked property)")
    for f in p1_factors:
        assert 1.7 <= f <= 2.3
    for f in u2_factors:
        assert 1.5 <= f <= 2.5
    # the p1 percentages themselves reproduce the published ones
    for got, ref in zip((rel[8]["p1"], rel[16]["p1"], rel[32]["p1"]), EX4_CONST_REL_P1):
        assert abs(got - ref) / ref <= 0.25


def test_criterion_7a_wellposedness_diagnostics():
    values = []
    for level in (1, 2, 3, 4):
        m = build_cartesian_mesh(level)
        layout = build_dof_layout(m)
        system = assemble_system(m, layout, td.example1())
        diag = check_wellposedness(system)
        assert diag.inf_sup > 0
        assert diag.kernel_coercivity > 0
        assert diag.c_definiteness > 0
        values.append(diag)
    m = build_cartesian_mesh(2)
    layout = build_dof_layout(m)
    system = assemble_system(m, layout, td.example1())
    zero_beta = CoefficientSet(1.0, 1.0, 0.0)
    degenerate = dataclasses.replace(
        system, A=assemble_A(m, layout, zero_beta, system.flux_mass), coeffs=zero_beta
    )
    diag0 = check_wellposedness(degenerate)
    print(f"[criterion 7a] diagnostics positive at levels 1-4 "
          f"(inf-sup {values[-1].inf_sup:.3f}); beta=0 collapses coercivity "
          f"to {diag0.kernel_coercivity:.2e}")
    assert abs(diag0.kernel_coercivity) <= 1e-10


def test_criterion_7b_quadrature_saturation(monkeypatch):
    # Only the exact norms, the denominators of the relative errors, use a rule.
    case = td.example1()
    low = exact_norms(case)
    monkeypatch.setattr(analysis, "NORM_DEGREE", 2 * analysis.NORM_DEGREE)
    high = exact_norms(case)
    worst = max(abs(low[k] - high[k]) / low[k] for k in low)
    print(f"[criterion 7b] doubling the norm quadrature degree moves the exact norms "
          f"by {worst:.2e} (limit 1e-6)")
    assert worst < 1e-6


def test_criterion_7c_finite_difference_lockdown():
    worst = 0.0
    for case in (td.example1(), td.example2(), td.example3(), td.example4()):
        worst = max(worst, finite_difference_check(case))
    print(f"[criterion 7c] closed-form calculus vs central differences: "
          f"{worst:.2e} (limit 1e-6)")
    assert worst <= 1e-6


def test_criterion_7d_pin_independence():
    case = td.example1()
    m = build_cartesian_mesh(4)
    default = solve(assemble_system(m, build_dof_layout(m), case))
    other_layout = build_dof_layout(m, pin_vertex=int(build_dof_layout(m).p2_vertices[-1]))
    other = solve(assemble_system(m, other_layout, case))
    worst = max(
        np.abs(getattr(default, f) - getattr(other, f)).max()
        for f in ("u1", "p2", "p1", "u2")
    )
    print(f"[criterion 7d] pin change moves the fields by {worst:.2e} (limit 1e-9)")
    assert worst <= 1e-9


def test_criterion_7e_linear_scaling():
    case = td.example1()
    lam = 2.5
    scaled = dataclasses.replace(
        case,
        lap_p=lambda x, y, q, _f=case.lap_p: lam * _f(x, y, q),
        f_stress=lambda x, y, _f=case.f_stress: lam * _f(x, y),
        f_n=lambda x, y, _f=case.f_n: lam * _f(x, y),
    )
    m = build_cartesian_mesh(4)
    layout = build_dof_layout(m)
    sol = solve(assemble_system(m, layout, case))
    sol2 = solve(assemble_system(m, layout, scaled))
    worst = 0.0
    for f in ("u1", "p2", "p1", "u2", "phi"):
        a, b = getattr(sol, f), getattr(sol2, f)
        worst = max(worst, np.abs(lam * a - b).max() / max(1.0, np.abs(b).max()))
    print(f"[criterion 7e] data scaling is linear to {worst:.2e} (limit 1e-10)")
    assert worst <= 1e-10


def test_criterion_7f_dof_counts():
    layout1 = build_dof_layout(build_cartesian_mesh(1))
    counts1 = (layout1.n_u1, layout1.n_p2, layout1.n_phi, layout1.n_p1)
    assert counts1 == (10, 7, 6, 4)
    assert layout1.size == 27
    layout2 = build_dof_layout(build_cartesian_mesh(2))
    counts2 = (layout2.n_u1, layout2.n_p2, layout2.n_phi, layout2.n_p1)
    assert counts2 == (32, 17, 16, 16)
    print(f"[criterion 7f] dof counts level 1 {counts1} (total 27), "
          f"level 2 {counts2}")


def test_criterion_8_deterministic_csv(tmp_path, ex1_study):
    report, _ = ex1_study
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(report, a)
    write_csv(convergence_study(td.example1(), LEVELS), b)
    identical = a.read_bytes() == b.read_bytes()
    print(f"[criterion 8] repeated runs byte-identical: {identical}")
    assert identical
