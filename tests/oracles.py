"""Reference implementations the tests compare the solve path against.

None of these runs in the package: pointwise quadrature on one element,
the hat functions, a sampled check that every triangle lies in the region
it is tagged with, an exactly representable patch case, a finite-difference
check of the closed-form calculus of a manufactured case, and the
exact-field interpolant with its residual in the discrete dual norm.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from twodarcy.assembly import LINE_RULE, _edge_points, _region_points
from twodarcy.manufactured import ManufacturedCase, derive_interface_data
from twodarcy.mesh import BipartiteMesh, quadrants_of
from twodarcy.quadrature import QuadRule, triangle_rule
from twodarcy.solver import x_norm_gram, y_norm_gram
from twodarcy.spaces import DofLayout


# -- quadrature on one physical element ---------------------------------------

def integrate_on_triangle(f, tri, rule: QuadRule) -> float:
    """Integrate the scalar field ``f(x, y)`` over a physical triangle.

    ``tri`` is a (3, 2) array of vertex coordinates; the affine map carries
    the Jacobian 2*area.
    """
    tri = np.asarray(tri, dtype=float)
    d1 = tri[1] - tri[0]
    d2 = tri[2] - tri[0]
    area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
    if area < 1e-300:
        raise ValueError("degenerate triangle")
    pts = rule.points @ tri
    return 2.0 * area * float(rule.weights @ np.asarray(f(pts[:, 0], pts[:, 1]), dtype=float))


def integrate_on_segment(f, seg, rule: QuadRule) -> float:
    """Integrate ``f(x, y)`` along a straight segment ((2, 2) endpoint array)."""
    seg = np.asarray(seg, dtype=float)
    d = seg[1] - seg[0]
    length = float(np.hypot(d[0], d[1]))
    if length < 1e-300:
        raise ValueError("degenerate segment")
    pts = seg[0] + np.outer(rule.points, d)
    return length * float(rule.weights @ np.asarray(f(pts[:, 0], pts[:, 1]), dtype=float))


# -- discrete spaces ------------------------------------------------------------

def p1_eval(m: BipartiteMesh, tri: int, local_vertex: int, x) -> np.ndarray:
    """Barycentric hat function of ``local_vertex`` at points x."""
    if not 0 <= local_vertex < 3:
        raise ValueError(f"invalid local vertex index: {local_vertex}")
    p = m.vertices[m.triangles[tri]]
    a = p[(local_vertex + 1) % 3]
    b = p[(local_vertex + 2) % 3]
    x = np.asarray(x, dtype=float)
    da = a - x
    db = b - x
    return (da[..., 0] * db[..., 1] - da[..., 1] * db[..., 0]) / (2.0 * m.areas[tri])


# -- mesh consistency -----------------------------------------------------------

@dataclass
class ConsistencyReport:
    ok: bool
    violations: list = field(default_factory=list)  # (triangle id, reason)


# Strictly interior barycentric sample points, including near-vertex ones so
# thin overlaps with the wrong region are caught.
_SAMPLES = np.array(
    [[1 / 3, 1 / 3, 1 / 3]]
    + [np.roll([0.6, 0.2, 0.2], i) for i in range(3)]
    + [np.roll([0.9, 0.05, 0.05], i) for i in range(3)]
)


def validate_consistency(m: BipartiteMesh, tol: float = 1e-12) -> ConsistencyReport:
    """Check that every triangle lies wholly inside the region it is tagged with.

    A triangle violates consistency when its centroid's region disagrees
    with its tag or when interior sample points fall on both sides of the
    interface cross.
    """
    pts = np.einsum("si,tid->tsd", _SAMPLES, m.vertices[m.triangles])
    prod = pts[:, :, 0] * pts[:, :, 1]
    region = np.where(prod > tol, 1, np.where(prod < -tol, 2, 0))  # 0: on the cross
    on_side = region != 0
    degenerate = ~on_side.any(axis=1)
    first = region[np.arange(len(region)), on_side.argmax(axis=1)]
    straddles = (on_side & (region != first[:, None])).any(axis=1)
    reason = np.select(  # the first condition that holds names the violation
        [degenerate, straddles, first != m.tri_region],
        ["degenerate sampling on the interface", "straddles the interface", "region tag mismatch"],
        "",
    )
    bad = np.flatnonzero(reason != "")
    violations = list(zip(bad.tolist(), reason[bad].tolist()))
    return ConsistencyReport(ok=not violations, violations=violations)


# -- manufactured cases ---------------------------------------------------------

def linear_patch_case(c0=0.3, cx=0.7, cy=-0.4):
    """Exactly representable fixture: linear pressure on region 2, zero flow.

    The pressure is c0 + cx*x + cy*y on region 2 and zero on region 1, the
    velocity is zero everywhere (the gravity term balances the gradient),
    and all data follow from the derived interface balance.  Every field
    lies in the discrete spaces, so a correct assembly reproduces it to
    machine precision.
    """

    def p(x, y, q):
        x = np.asarray(x, dtype=float)
        in2 = np.isin(np.asarray(q), (2, 4))
        return np.where(in2, c0 + cx * x + cy * np.asarray(y), 0.0)

    def grad_p(x, y, q):
        x = np.asarray(x, dtype=float)
        in2 = np.isin(np.asarray(q), (2, 4))
        gx = np.where(in2, cx, 0.0) * np.ones_like(x)
        gy = np.where(in2, cy, 0.0) * np.ones_like(x)
        return np.stack([gx, gy], axis=-1)

    def lap_p(x, y, q):
        return np.zeros_like(np.asarray(x, dtype=float))

    def g(x, y, q):
        # forces u = -(grad p + g)/a to vanish identically
        return -grad_p(x, y, q)

    def potential(x, y, q):
        return np.zeros_like(np.asarray(x, dtype=float))

    case = ManufacturedCase(
        name="linear_patch", a1=1.0, a2=1.0, beta=1.0, interface_mode="derived",
        p=p, grad_p=grad_p, lap_p=lap_p, g=g, potential=potential,
    )
    f_stress, f_n = derive_interface_data(case)
    return dataclasses.replace(case, f_stress=f_stress, f_n=f_n)


def with_coefficients(case: ManufacturedCase, coeffs) -> ManufacturedCase:
    """``case`` with the constants of ``coeffs`` and its interface data re-derived."""
    case = dataclasses.replace(case, a1=coeffs.a1, a2=coeffs.a2, beta=coeffs.beta)
    f_stress, f_n = derive_interface_data(case)
    return dataclasses.replace(case, f_stress=f_stress, f_n=f_n)


def finite_difference_check(case: ManufacturedCase, samples: int = 200,
                            step: float = 1e-5, seed: int = 7) -> float:
    """Worst relative discrepancy of the closed-form calculus at interior points.

    Gradients are checked against central differences of the pressure and
    the Laplacian against central differences of the closed-form gradient;
    the source field is checked against -lap(p)/a.  Denominators are
    floored at one.
    """
    rng = np.random.default_rng(seed)
    margin = 1e-3
    worst = 0.0
    per_quadrant = max(1, samples // 2)
    signs = {1: (1, 1), 2: (-1, 1), 3: (-1, -1), 4: (1, -1)}
    for q, (sx, sy) in signs.items():
        x = sx * rng.uniform(margin, 1.0 - margin, per_quadrant)
        y = sy * rng.uniform(margin, 1.0 - margin, per_quadrant)
        g = case.grad_p(x, y, q)
        fd_gx = (case.p(x + step, y, q) - case.p(x - step, y, q)) / (2 * step)
        fd_gy = (case.p(x, y + step, q) - case.p(x, y - step, q)) / (2 * step)
        lap = case.lap_p(x, y, q)
        fd_lap = (
            case.grad_p(x + step, y, q)[..., 0] - case.grad_p(x - step, y, q)[..., 0]
            + case.grad_p(x, y + step, q)[..., 1] - case.grad_p(x, y - step, q)[..., 1]
        ) / (2 * step)
        fd_f = -fd_lap / case.a_of_quadrant(q)
        for approx, exact in (
            (fd_gx, g[..., 0]),
            (fd_gy, g[..., 1]),
            (fd_lap, lap),
            (fd_f, case.F(x, y, q)),
        ):
            denom = np.maximum(np.abs(exact), 1.0)
            worst = max(worst, float(np.max(np.abs(approx - exact) / denom)))
    return worst


# -- exact-field interpolant ----------------------------------------------------

def _omega2_quadrants(x, y):
    """Region-2 quadrant whose closure contains each vertex."""
    on_v = np.abs(x) < 1e-14
    on_h = np.abs(y) < 1e-14
    return np.where(on_v, np.where(y > 0, 2, 4),
                    np.where(on_h, np.where(x < 0, 2, 4), quadrants_of(x, y)))


def interpolate_exact(case: ManufacturedCase, m: BipartiteMesh,
                      layout: DofLayout) -> np.ndarray:
    """Natural interpolant of the exact fields as a global dof vector.

    Edge dofs are exact integrated fluxes (region-1 one-sided values on the
    interface), the nodal pressure interpolates vertex values, the cell
    pressure takes cell means, and the potential is the nodal interpolant
    of the case's velocity potential shifted to vanish at the pinned
    vertex.
    """
    x = np.zeros(layout.size)

    # Flux of the region-1 side: interface edges take their region-1
    # neighbour's quadrant, every other edge its first triangle's.
    owner = m.edge_tris[:, 0].copy()
    owner[m.interface_edges] = m.interface_tri1
    edges = layout.u1_edges
    pts = _edge_points(m, edges, LINE_RULE)
    u = case.u(pts[..., 0], pts[..., 1], m.tri_quadrant[owner[edges]][:, None])
    un = np.einsum("eqd,ed->eq", u, m.edge_normals[edges])
    x[:layout.n_u1] = m.edge_lengths[edges] * (un @ LINE_RULE.weights)

    vx, vy = m.vertices[layout.p2_vertices].T
    quadrant = _omega2_quadrants(vx, vy)
    x[layout.offset_p2:layout.offset_phi] = case.p(vx, vy, quadrant)
    if case.potential is not None:
        potential = case.potential(vx, vy, quadrant)
    else:
        potential = -case.p(vx, vy, quadrant) / case.a2
    free = layout.p2_vertices != layout.pinned_vertex
    x[layout.offset_phi:layout.offset_p1] = (
        potential[free] - potential[layout.vert_to_p2[layout.pinned_vertex]]
    )

    # cell means of the exact pressure (its L2 projection onto constants)
    tris1 = layout.p1_triangles
    vol_rule = triangle_rule(10)
    pts = _region_points(m, tris1, vol_rule)
    q1 = m.tri_quadrant[tris1][:, None]
    x[layout.offset_p1:] = 2.0 * (case.p(pts[..., 0], pts[..., 1], q1) @ vol_rule.weights)
    return x


def dual_residual_norm(system, x: np.ndarray) -> float:
    """Residual of a candidate vector in the discrete dual norm."""
    r = system.matrix() @ x - system.rhs()
    gram = sp.block_diag([x_norm_gram(system), y_norm_gram(system)], format="csc")
    z = spla.spsolve(gram, r)
    return math.sqrt(abs(float(r @ z)))
