import math

import numpy as np
import pytest

from twodarcy.mesh import build_cartesian_mesh
from twodarcy.quadrature import segment_rule, triangle_rule

from oracles import integrate_on_segment, integrate_on_triangle


def reference_monomial(a, b):
    # int over the reference triangle of x^a y^b
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 7, 10, 20])
def test_triangle_rule_weight_sum(degree):
    rule = triangle_rule(degree)
    assert abs(rule.weights.sum() - 0.5) <= 1e-14
    assert rule.exact_degree >= degree


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 7, 10, 20])
def test_triangle_rule_monomial_exactness(degree):
    rule = triangle_rule(degree)
    x = rule.points[:, 1]
    y = rule.points[:, 2]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            approx = float(rule.weights @ (x**a * y**b))
            exact = reference_monomial(a, b)
            assert abs(approx - exact) <= 1e-12 * max(1.0, abs(exact))


def test_centroid_rule():
    rule = triangle_rule(1)
    assert rule.points.shape == (1, 3)
    np.testing.assert_allclose(rule.points[0], [1 / 3] * 3)
    assert rule.weights[0] == 0.5


def test_midpoint_rule_points():
    rule = triangle_rule(2)
    assert rule.points.shape == (3, 3)
    mids = {tuple(sorted(p)) for p in np.round(rule.points, 14)}
    assert mids == {(0.0, 0.5, 0.5)}
    np.testing.assert_allclose(rule.weights, [1 / 6] * 3)


def test_degree10_integrates_x5y5():
    rule = triangle_rule(10)
    x, y = rule.points[:, 1], rule.points[:, 2]
    value = float(rule.weights @ (x**5 * y**5))
    # closed form a! b! / (a+b+2)! = 1/33264
    assert abs(value - 1.0 / 33264.0) <= 1e-12


def test_triangle_rule_symmetric():
    rule = triangle_rule(10)
    pts = {tuple(np.round(p, 12)) for p in rule.points}
    for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1)]:
        permuted = {tuple(np.round(p[list(perm)], 12)) for p in rule.points}
        assert permuted == pts


def test_triangle_rule_rejects_unsupported_degree():
    with pytest.raises(ValueError):
        triangle_rule(0)
    with pytest.raises(ValueError):
        triangle_rule(26)


def test_segment_rule_midpoint():
    rule = segment_rule(1)
    np.testing.assert_allclose(rule.points, [0.5])
    np.testing.assert_allclose(rule.weights, [1.0])


def test_segment_rule_two_point_nodes():
    rule = segment_rule(3)
    expected = sorted([(3 - math.sqrt(3)) / 6, (3 + math.sqrt(3)) / 6])
    np.testing.assert_allclose(sorted(rule.points), expected, atol=1e-15)


def test_segment_rule_degree_11_t10():
    rule = segment_rule(11)
    assert len(rule.points) == 6
    assert abs(float(rule.weights @ rule.points**10) - 1.0 / 11.0) <= 1e-13


def test_segment_rule_weight_sum():
    for degree in (1, 3, 5, 11, 22):
        rule = segment_rule(degree)
        assert abs(rule.weights.sum() - 1.0) <= 1e-14


def test_segment_rule_rejects_unsupported_degree():
    with pytest.raises(ValueError):
        segment_rule(0)


def test_integrate_constant_gives_area():
    tri = np.array([[0.0, 0.0], [0.5, 0.1], [0.2, 0.9]])
    d1, d2 = tri[1] - tri[0], tri[2] - tri[0]
    area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
    got = integrate_on_triangle(lambda x, y: np.ones_like(x), tri, triangle_rule(2))
    assert abs(got - area) <= 1e-15


def test_integrate_interface_edge_length():
    m = build_cartesian_mesh(2)
    e = m.interface_edges[0]
    seg = m.vertices[m.edges[e]]
    got = integrate_on_segment(lambda x, y: np.ones_like(x), seg, segment_rule(3))
    assert abs(got - 0.5) <= 1e-15


def test_integrate_x_over_first_quadrant():
    # integral of x over (0,1)^2 equals 1/2 at any level
    for level in (1, 3):
        m = build_cartesian_mesh(level)
        total = 0.0
        for t in np.flatnonzero(m.tri_quadrant == 1):
            total += integrate_on_triangle(
                lambda x, y: x, m.vertices[m.triangles[t]], triangle_rule(2)
            )
        assert abs(total - 0.5) <= 1e-14


def test_degenerate_elements_rejected():
    flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        integrate_on_triangle(lambda x, y: x, flat, triangle_rule(1))
    with pytest.raises(ValueError):
        integrate_on_segment(lambda x, y: x, np.zeros((2, 2)), segment_rule(1))
