import numpy as np
import pytest

from twodarcy.assembly import LINE_RULE, _edge_points
from twodarcy.manufactured import (
    _classify_interface,
    derive_interface_data,
    example1,
    example2,
    example3,
    example4,
)
from twodarcy.mesh import build_cartesian_mesh, quadrants_of

from oracles import finite_difference_check


def test_example1_point_value():
    case = example1()
    assert abs(case.p(0.5, 0.5, 1) - 0.0791015625) <= 1e-15


def test_example1_vanishes_on_interface():
    case = example1()
    x = np.linspace(-0.99, 0.99, 21)
    for q in (1, 2, 3, 4):
        np.testing.assert_allclose(case.p(x, np.zeros_like(x), q), 0.0, atol=1e-15)
        np.testing.assert_allclose(case.p(np.zeros_like(x), x, q), 0.0, atol=1e-15)


def test_example1_derived_interface_data_vanish():
    case = example1()
    x = np.linspace(-0.9, 0.9, 13)
    zeros = np.zeros_like(x)
    np.testing.assert_allclose(case.f_stress(x, zeros), 0.0, atol=1e-14)
    np.testing.assert_allclose(case.f_n(x, zeros), 0.0, atol=1e-14)
    np.testing.assert_allclose(case.f_n(zeros, x), 0.0, atol=1e-14)


def test_example2_derived_interface_values():
    case = example2()
    x = np.linspace(0.05, 0.95, 9)
    y0 = np.zeros_like(x)
    np.testing.assert_allclose(
        case.f_stress(x, y0), (x**2 - 2 * x) / 20.0, atol=1e-14
    )
    np.testing.assert_allclose(
        case.f_n(x, y0), 0.1 - (x**2 - 2 * x) / 20.0, atol=1e-14
    )
    # lower-left vertical sub-edge
    y = np.linspace(-0.95, -0.05, 9)
    x0 = np.zeros_like(y)
    np.testing.assert_allclose(
        case.f_stress(x0, y), (1.0 - (y + 1.0) ** 2) / 20.0, atol=1e-14
    )
    np.testing.assert_allclose(
        case.f_n(x0, y), -0.1 - (1.0 - (y + 1.0) ** 2) / 20.0, atol=1e-14
    )


def test_example2_beta_enters_derived_flux_data():
    case = example2(beta=2.0)
    x = np.linspace(0.05, 0.95, 5)
    y0 = np.zeros_like(x)
    np.testing.assert_allclose(
        case.f_n(x, y0), 0.1 - 2.0 * (x**2 - 2 * x) / 20.0, atol=1e-14
    )


def test_example2_perturbation_is_harmonic():
    base, pert = example1(), example2()
    x = np.array([0.3, 0.7])
    y = np.array([-0.5, -0.2])
    np.testing.assert_allclose(
        pert.lap_p(x, y, 4), base.lap_p(x, y, 4), atol=1e-14
    )


def test_example2_literal_formulas():
    case = example2(interface_mode="paper_literal")
    x = np.linspace(0.05, 0.95, 5)
    y0 = np.zeros_like(x)
    np.testing.assert_allclose(case.f_n(x, y0), (x - 4.0) / 20.0, atol=1e-14)
    np.testing.assert_allclose(
        case.f_stress(x, y0), ((x - 1.0) ** 2 - 1.0) / 20.0, atol=1e-14
    )
    y = np.linspace(-0.95, -0.05, 5)
    np.testing.assert_allclose(
        case.f_n(np.zeros_like(y), y), (4.0 - y) / 20.0, atol=1e-14
    )


def test_example3_interface_flux_signs():
    case = example3()
    x = np.linspace(0.05, 0.95, 9)
    y0 = np.zeros_like(x)
    expected = 0.8 * x * (x**2 - 1.0) ** 2
    np.testing.assert_allclose(case.f_n(x, y0), expected, atol=1e-14)
    np.testing.assert_allclose(case.f_stress(x, y0), 0.0, atol=1e-14)
    # on the left half of the horizontal interface the region-1 outer
    # normal flips, so the derived flux data change sign relative to the
    # literal single-formula variant
    xl = -x
    np.testing.assert_allclose(
        case.f_n(xl, y0), -0.8 * xl * (xl**2 - 1.0) ** 2, atol=1e-14
    )
    literal = example3(interface_mode="paper_literal")
    np.testing.assert_allclose(
        literal.f_n(xl, y0), 0.8 * xl * (xl**2 - 1.0) ** 2, atol=1e-14
    )


def test_example3_velocity_jump_ratio_across_vertical_interface():
    # the resistance ratio 1:5 shows up in the one-sided velocity limits on
    # {0} x (0,1); only the x-component is nonzero there
    case = example3()
    y = np.array([0.25, 0.5, 0.75])
    x0 = np.zeros_like(y)
    u_q1 = case.u(x0, y, 1)
    u_q2 = case.u(x0, y, 2)
    np.testing.assert_allclose(u_q1[..., 0] / u_q2[..., 0], 5.0, atol=1e-12)
    np.testing.assert_allclose(u_q1[..., 1], 0.0, atol=1e-14)
    np.testing.assert_allclose(u_q2[..., 1], 0.0, atol=1e-14)


def test_example4_interface_values():
    case = example4()
    y = np.linspace(-0.9, 0.9, 11)
    x0 = np.zeros_like(y)
    p_trace = np.sin(0.5 * np.pi * (y - 1.0)) ** 2
    np.testing.assert_allclose(case.p(x0, y, 2), p_trace, atol=1e-14)
    np.testing.assert_allclose(case.f_n(x0, y), -p_trace, atol=1e-13)
    np.testing.assert_allclose(case.f_stress(x0, y), 0.0, atol=1e-13)
    # normal derivative of p vanishes on the interface
    for q in (1, 2, 3, 4):
        g = case.grad_p(x0, y, q)
        np.testing.assert_allclose(g[..., 0], 0.0, atol=1e-13)


def test_example4_constant_projection_value():
    case = example4(interface_mode="constant_projection")
    x = np.linspace(-0.9, 0.9, 7)
    np.testing.assert_allclose(
        case.f_n(x, np.zeros_like(x)), -0.7071067811865476, atol=1e-16
    )


def test_invalid_modes_rejected():
    with pytest.raises(ValueError):
        example2(interface_mode="constant_projection")
    with pytest.raises(ValueError):
        example3(interface_mode="constant_projection")
    with pytest.raises(ValueError):
        example4(interface_mode="paper_literal")


def test_interface_classification_matches_the_mesh():
    m = build_cartesian_mesh(4)
    x = _edge_points(m, m.interface_edges, LINE_RULE)
    q1, q2, n = _classify_interface(x[..., 0], x[..., 1])
    per_point = x.shape[:2]
    np.testing.assert_array_equal(
        q1, np.broadcast_to(m.tri_quadrant[m.interface_tri1][:, None], per_point))
    np.testing.assert_array_equal(
        q2, np.broadcast_to(m.tri_quadrant[m.interface_tri2][:, None], per_point))
    np.testing.assert_array_equal(n, np.broadcast_to(m.interface_normals[:, None], n.shape))


def test_derive_rejects_points_off_interface():
    case = example1()
    f_stress, _ = derive_interface_data(case)
    with pytest.raises(ValueError):
        f_stress(np.array([0.5]), np.array([0.5]))


@pytest.mark.parametrize("factory", [example1, example2, example3, example4])
def test_boundary_compatibility(factory):
    case = factory()
    t = np.linspace(-1.0, 1.0, 101)
    ones = np.ones_like(t)
    # drained condition: p = 0 on the outer boundary of region 1
    for (x, y, q) in [(t, -ones, 3), (t, ones, 1), (-ones, t, 3), (ones, t, 1)]:
        np.testing.assert_allclose(case.p(x, y, q), 0.0, atol=1e-10)
    # no-flux condition: u.n = 0 on the outer boundary of region 2
    np.testing.assert_allclose(case.u(t, ones, 2)[..., 1], 0.0, atol=1e-10)
    np.testing.assert_allclose(case.u(-ones, t, 2)[..., 0], 0.0, atol=1e-10)
    np.testing.assert_allclose(case.u(t, -ones, 4)[..., 1], 0.0, atol=1e-10)
    np.testing.assert_allclose(case.u(ones, t, 4)[..., 0], 0.0, atol=1e-10)


@pytest.mark.parametrize(
    "factory",
    [example1, example2, example3, example4,
     lambda: example4(interface_mode="constant_projection")],
)
def test_finite_difference_check(factory):
    assert finite_difference_check(factory()) <= 1e-6


def test_finite_difference_check_constant_fixture(patch_case):
    assert finite_difference_check(patch_case) <= 1e-6


def test_quadrants_of():
    x = np.array([0.5, -0.5, -0.5, 0.5])
    y = np.array([0.5, 0.5, -0.5, -0.5])
    np.testing.assert_array_equal(quadrants_of(x, y), [1, 2, 3, 4])
