"""Reference implementations the tests compare the solve path against.

None of these runs in the package: the symmetric triangle rule and
pointwise quadrature on one element, the hat functions, the per-triangle
geometry and element matrices on (t, 3, 2) corner copies, the vectors,
lengths and normals of every edge, a sampled check
that every triangle lies in the region it is tagged with, the edge and
interface orientations from the geometry, a copy of a mesh with its
vertices off the axes and the boundary moved (and a strategy drawing
such copies), the copy reflected across y = x, a mesh with two interface
edges on one triangle, an exactly representable patch case with the
volume load that balances its pressure gradient, a finite-difference
check of the closed-form calculus of a manufactured case, the exact-field
interpolant with its residual in the discrete dual norm, the flux mass
matrix on its own, the whole unhybridized saddle matrix with its sparse
LU, and a reader of the binary legacy-VTK files the field dumps write.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import strategies as st

from twodarcy.assembly import LINE_RULE, _edge_points, _scatter, assemble_system
from twodarcy.manufactured import ManufacturedCase, derive_interface_data
from twodarcy.mesh import BipartiteMesh, _finish_mesh, build_cartesian_mesh, quadrants_of
from twodarcy.quadrature import QuadRule, _frozen, _gauss01
from twodarcy.solver import x_norm_gram, y_norm_gram
from twodarcy.spaces import DofLayout, build_dof_layout


# -- quadrature on the reference triangle and one physical element -------------

MAX_TRIANGLE_DEGREE = 25


@lru_cache(maxsize=None)
def triangle_rule(min_degree: int) -> QuadRule:
    """Symmetric rule on the reference triangle, exact to >= ``min_degree``.

    The reference triangle is {(x, y): x >= 0, y >= 0, x + y <= 1}; nodes
    are barycentric and the weights sum to its measure 1/2.  A
    Gauss-Legendre tensor rule is collapsed onto the triangle (the Jacobian
    of the collapse map raises the first coordinate's degree by one, which
    the node count accounts for) and symmetrized over the six barycentric
    permutations.
    """
    if not 1 <= min_degree <= MAX_TRIANGLE_DEGREE:
        raise ValueError(f"unsupported triangle rule degree: {min_degree}")
    d = min_degree
    u, wu = _gauss01((d + 3) // 2)
    v, wv = _gauss01((d + 2) // 2)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    x = uu.ravel()
    y = (vv * (1.0 - uu)).ravel()
    w = (np.outer(wu, wv) * (1.0 - uu)).ravel()
    bary = np.column_stack([1.0 - x - y, x, y])
    perms = list(permutations(range(3)))
    points = np.concatenate([bary[:, p] for p in perms], axis=0)
    weights = np.concatenate([w] * len(perms)) / len(perms)
    return _frozen(points, weights)


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


# -- geometry and element matrices on (t, 3, 2) corner copies -------------------
#
# The package computes these from (3, t) coordinate planes with the same
# floating-point operations in the same order, so the two must agree bit for
# bit (tests/test_planes.py).  Each reference derives what it needs from the
# vertices itself, not from the mesh's cached geometry.

def stacked_areas(m: BipartiteMesh) -> np.ndarray:
    p = m.vertices[m.triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def stacked_centroids(m: BipartiteMesh) -> np.ndarray:
    return m.vertices[m.triangles].mean(axis=1)


def stacked_hat_gradients(m: BipartiteMesh) -> np.ndarray:
    p = m.vertices[m.triangles]
    d = p[:, [2, 0, 1], :] - p[:, [1, 2, 0], :]
    perp = np.stack([-d[..., 1], d[..., 0]], axis=-1)
    return perp / (2.0 * stacked_areas(m))[:, None, None]


def edge_vectors(m: BipartiteMesh) -> np.ndarray:
    """(ne, 2) low-to-high vertex vectors of every edge (the package derives the interface edges' only)."""
    return m.vertices[m.edges[:, 1]] - m.vertices[m.edges[:, 0]]


def edge_lengths(m: BipartiteMesh) -> np.ndarray:
    vectors = edge_vectors(m)
    return np.hypot(vectors[:, 0], vectors[:, 1])


def edge_normals(m: BipartiteMesh) -> np.ndarray:
    """(ne, 2) global normals of every edge: the low-to-high tangent rotated by -90 degrees."""
    t = edge_vectors(m) / edge_lengths(m)[:, None]
    return np.column_stack([t[:, 1], -t[:, 0]])


def stacked_p1_local_stiffness(m: BipartiteMesh, tris) -> np.ndarray:
    grads = stacked_hat_gradients(m)[tris]
    return stacked_areas(m)[tris][:, None, None] * np.einsum("tid,tjd->tij", grads, grads)


def stacked_rt0_local_mass(m: BipartiteMesh, tris, a: float = 1.0) -> np.ndarray:
    d = stacked_centroids(m)[tris][:, None, :] - m.vertices[m.triangles[tris]]     # (t, 3, 2)
    dx, dy = d[..., 0], d[..., 1]
    spread = (dx * dx + dy * dy).sum(axis=1) / 12.0
    s = m.tri_edge_signs[tris].astype(float)
    scale = (a / 4.0) / stacked_areas(m)[tris]
    moments = dx[:, :, None] * dx[:, None, :] + dy[:, :, None] * dy[:, None, :]
    moments += spread[:, None, None]
    return (scale[:, None, None] * s[:, :, None] * s[:, None, :]) * moments


def stacked_rt0_basis(m: BipartiteMesh, tris, x) -> np.ndarray:
    scale = m.tri_edge_signs[tris] / (2.0 * stacked_areas(m)[tris])[:, None]
    return scale[:, :, None, None] * (x[:, None, :, :] - m.vertices[m.triangles[tris]][:, :, None, :])


def stacked_p1_gradients(m: BipartiteMesh, tris, nodal) -> np.ndarray:
    """(t, 2) gradients on ``tris`` of the P1 field with the (t, 3) corner values ``nodal``."""
    return np.einsum("ti,tid->td", nodal, stacked_hat_gradients(m)[tris])


def stacked_u1_cell_values(sol, m: BipartiteMesh) -> np.ndarray:
    tris = sol.layout.p1_triangles
    basis = stacked_rt0_basis(m, tris, stacked_centroids(m)[tris][:, None, :])[:, :, 0]
    return np.einsum("ti,tid->td", sol.u1[sol.layout.edge_to_u1[m.tri_edges[tris]]], basis)


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


def geometric_edge_signs(m: BipartiteMesh) -> np.ndarray:
    """(nt, 3) +1 where the global normal of a triangle's edge points away from its centroid, else -1."""
    midpoints = m.vertices[m.edges].mean(axis=1)
    out = np.einsum("tid,tid->ti", edge_normals(m)[m.tri_edges],
                    midpoints[m.tri_edges] - m.centroids[:, None, :])
    return np.where(out > 0, 1, -1)


def geometric_interface_normals(m: BipartiteMesh) -> np.ndarray:
    """(ni, 2) global normals of the interface edges, flipped towards the region-2 centroid."""
    e = m.interface_edges
    n = edge_normals(m)[e]
    towards_2 = np.einsum("id,id->i", n, m.centroids[m.interface_tri2] - m.vertices[m.edges[e]].mean(axis=1))
    return np.where(towards_2[:, None] > 0, n, -n)


def assert_orientation_matches_geometry(m: BipartiteMesh) -> None:
    """The mesh's edge signs, interface signs and interface normals equal the geometric ones."""
    np.testing.assert_array_equal(m.tri_edge_signs, geometric_edge_signs(m))
    normals = geometric_interface_normals(m)
    np.testing.assert_array_equal(m.interface_normals, normals)
    along = np.einsum("id,id->i", edge_normals(m)[m.interface_edges], normals)
    np.testing.assert_array_equal(m.interface_signs, np.where(along > 0, 1.0, -1.0))


def moved_copy(m: BipartiteMesh, seed=3, amplitude=0.25) -> BipartiteMesh:
    """Copy of ``m`` with the vertices off the axes and the outer boundary moved by up to ``amplitude * h``."""
    free = np.all((m.vertices != 0.0) & (np.abs(m.vertices) < 1.0), axis=1)
    step = np.random.default_rng(seed).uniform(-amplitude, amplitude, m.vertices.shape) / m.level_inv
    return dataclasses.replace(m, vertices=m.vertices + free[:, None] * step)


def reflected_copy(level: int) -> BipartiteMesh:
    """The level's mesh reflected across y = x: the regions stay, every triangle turns clockwise."""
    m = build_cartesian_mesh(level)
    return dataclasses.replace(m, vertices=m.vertices[:, ::-1].copy())


# Moved copies of the level-4 mesh, seeded, moved by up to a quarter of h.
moved_meshes = st.builds(
    lambda seed, amplitude: moved_copy(build_cartesian_mesh(4), seed, amplitude),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.0, max_value=0.25),
)


def check_moved_system(system, case) -> None:
    """A moved copy orients its edges like its geometry, and its ``system`` holds its own K and B.

    Those of the registry mesh of its level, assembled for ``case`` with
    the same pin, must not be reused for the copy.
    """
    m = system.mesh
    assert_orientation_matches_geometry(m)
    registry = build_cartesian_mesh(m.level_inv)
    kept = assemble_system(registry, build_dof_layout(registry, system.layout.pinned_vertex), case)
    assert system.K is not kept.K and system.B is not kept.B


def two_interface_edge_mesh(k):
    """Level-``k`` mesh with the two cells at the origin split along their other diagonal.

    The region-1 triangle of each at the origin, one in Q1 and one in Q3,
    then has both of its axis edges on the interface.
    """
    m = build_cartesian_mesh(k)
    n = 2 * k + 1
    triangles = m.triangles.copy()
    for ci in (k, k - 1):                               # cells (k, k) and (k - 1, k - 1)
        v00 = ci * n + ci
        v10, v01, v11 = v00 + 1, v00 + n, v00 + n + 1
        c = ci * 2 * k + ci
        triangles[2 * c], triangles[2 * c + 1] = (v00, v10, v01), (v10, v11, v01)
    return _finish_mesh(k, m.vertices, triangles, m.tri_region, m.tri_quadrant)


# -- manufactured cases ---------------------------------------------------------

@dataclass(frozen=True)
class StillCase(ManufacturedCase):
    """A case with a body force g = -grad p that balances the pressure gradient.

    Nothing flows: the velocity -(grad p + g)/a is zero everywhere.  The
    package assembles no body force; ``assemble_patch_system`` adds its load.
    """

    def u(self, x, y, q):
        return np.zeros_like(self.grad_p(x, y, q))


def linear_patch_case(c0=0.3, cx=0.7, cy=-0.4):
    """Exactly representable fixture: linear pressure on region 2, zero flow.

    The pressure is c0 + cx*x + cy*y on region 2 and zero on region 1, the
    velocity is zero everywhere (a ``StillCase``), and all data follow from
    the derived interface balance.  Every field lies in the discrete spaces,
    so a correct assembly with the body force's load
    (``assemble_patch_system``) reproduces it to machine precision.
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

    case = StillCase(
        name="linear_patch", a1=1.0, a2=1.0, beta=1.0, interface_mode="derived",
        p=p, grad_p=grad_p, lap_p=lap_p,
    )
    f_stress, f_n = derive_interface_data(case)
    return dataclasses.replace(case, f_stress=f_stress, f_n=f_n)


def assemble_patch_system(m: BipartiteMesh, layout: DofLayout, case: StillCase):
    """``assemble_system`` of a piecewise-linear ``StillCase`` with its body force's load.

    The body force g = -grad p is zero on region 1, where p is.  On region 2
    it loads the potential row of each vertex i of a triangle K with
    -(g, grad hat_i)_K = |K| grad p . grad hat_i, as grad p is constant on K.
    """
    system = assemble_system(m, layout, case)
    tris = layout.u2_triangles
    c = m.centroids[tris]
    grad_p = case.grad_p(c[:, 0], c[:, 1], m.tri_quadrant[tris])
    load = m.areas[tris][:, None] * np.einsum("td,tid->ti", grad_p, m.hat_gradients[tris])
    rows = layout.vert_to_phi[m.triangles[tris]]
    keep = rows >= 0
    np.add.at(system.F2, rows[keep], load[keep])
    return system


def patch_potential(x, y, q):
    """Velocity potential of ``linear_patch_case``: its velocity vanishes."""
    return np.zeros_like(np.asarray(x, dtype=float))


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
                      layout: DofLayout, potential=None) -> np.ndarray:
    """Natural interpolant of the exact fields as a global dof vector.

    Edge dofs are exact integrated fluxes (region-1 one-sided values on the
    interface), the nodal pressure interpolates vertex values, the cell
    pressure takes cell means, and the potential is the nodal interpolant
    of the velocity potential ``potential(x, y, quadrant)`` shifted to
    vanish at the pinned vertex.  ``None`` stands for -p/a2, the velocity
    potential of u = -grad p / a2 on region 2.
    """
    x = np.zeros(layout.size)

    # Flux of the region-1 side: interface edges take their region-1
    # neighbour's quadrant, every other edge its first triangle's.
    owner = m.edge_tris[:, 0].copy()
    owner[m.interface_edges] = m.interface_tri1
    edges = layout.u1_edges
    pts = _edge_points(m, edges, LINE_RULE)
    u = case.u(pts[..., 0], pts[..., 1], m.tri_quadrant[owner[edges]][:, None])
    un = np.einsum("eqd,ed->eq", u, edge_normals(m)[edges])
    x[:layout.n_u1] = edge_lengths(m)[edges] * (un @ LINE_RULE.weights)

    vx, vy = m.vertices[layout.p2_vertices].T
    quadrant = _omega2_quadrants(vx, vy)
    x[layout.offset_p2:layout.offset_phi] = case.p(vx, vy, quadrant)
    if potential is None:
        nodal = -case.p(vx, vy, quadrant) / case.a2
    else:
        nodal = potential(vx, vy, quadrant)
    free = layout.p2_vertices != layout.pinned_vertex
    x[layout.offset_phi:layout.offset_p1] = (
        nodal[free] - nodal[layout.vert_to_p2[layout.pinned_vertex]]
    )

    # cell means of the exact pressure (its L2 projection onto constants)
    tris1 = layout.p1_triangles
    vol_rule = triangle_rule(10)
    pts = np.einsum("qi,tid->tqd", vol_rule.points, m.vertices[m.triangles[tris1]])
    q1 = m.tri_quadrant[tris1][:, None]
    x[layout.offset_p1:] = 2.0 * (case.p(pts[..., 0], pts[..., 1], q1) @ vol_rule.weights)
    return x


def dual_residual_norm(system, x: np.ndarray) -> float:
    """Residual of a candidate vector in the discrete dual norm."""
    r = full_matrix(system) @ x - system.rhs()
    gram = sp.block_diag([x_norm_gram(system), y_norm_gram(system)], format="csc")
    z = spla.spsolve(gram, r)
    return math.sqrt(abs(float(r @ z)))


# -- the flux mass on its own --------------------------------------------------

def flux_scatter(m: BipartiteMesh, layout: DofLayout, local) -> sp.csr_matrix:
    """Sum (t, 3, 3) local matrices of ``layout.p1_triangles`` onto the u1 dofs.

    With the local masses ``rt0_local_mass`` this is the flux block of A,
    scattered as ``assemble_A`` scatters it.
    """
    dofs = layout.edge_to_u1[m.tri_edges[layout.p1_triangles]]
    return _scatter([(local, dofs, dofs)], (layout.n_u1, layout.n_u1))


# -- the whole saddle matrix and its direct solve -----------------------------

def full_matrix(system) -> sp.csr_matrix:
    """The stacked saddle matrix [[A, -B^T], [B, C]] of ``system``."""
    # All-CSR blocks take scipy's stacking fast path.
    return sp.bmat([[system.A, -system.Bt.tocsr()], [system.B, system.C]], format="csr")


def full_lu_solve(system) -> np.ndarray:
    """Solution vector [u1 | p2 | phi | p1] from SuperLU (COLAMD, partial pivoting)
    of the full, unhybridized ``full_matrix(system)``."""
    return spla.splu(full_matrix(system).tocsc()).solve(system.rhs())


# -- reading back the field dumps ----------------------------------------------

def read_vtk(path):
    """Decode a binary legacy-VTK 3.0 unstructured grid as the package writes it.

    Returns the keyword lines (bytes, in file order, the four header lines
    first) and the arrays: ``"points"`` (n, 3), ``"cells"`` (n, 4),
    ``"cell_types"`` (n, 1) and ``("CELL_DATA" | "POINT_DATA", name)``, (n, 1)
    for a scalar and (n, 3) for a vector. Each array is read from the
    big-endian bytes after its keyword line and must end with a newline.
    """
    raw = Path(path).read_bytes()
    pos, lines, arrays, block, count = 0, [], {}, None, 0

    def line():
        nonlocal pos
        end = raw.index(b"\n", pos)
        lines.append(raw[pos:end])
        pos = end + 1
        return lines[-1].decode("ascii").split()

    def array(key, dtype, rows, width=1):
        nonlocal pos
        arrays[key] = np.frombuffer(raw, dtype, rows * width, pos).reshape(rows, width)
        pos += arrays[key].nbytes + 1
        assert raw[pos - 1:pos] == b"\n", f"{key} does not end with a newline"

    for _ in range(4):
        line()
    while pos < len(raw):
        keyword, *words = line()
        if keyword == "POINTS":
            array("points", ">f8", int(words[0]), 3)
        elif keyword == "CELLS":
            assert int(words[1]) == 4 * int(words[0])
            array("cells", ">i4", int(words[0]), 4)
        elif keyword == "CELL_TYPES":
            array("cell_types", ">i4", int(words[0]))
        elif keyword in ("CELL_DATA", "POINT_DATA"):
            block, count = keyword, int(words[0])
        elif keyword == "SCALARS":
            assert words[1:] == ["double", "1"] and line() == ["LOOKUP_TABLE", "default"]
            array((block, words[0]), ">f8", count)
        elif keyword == "VECTORS":
            assert words[1:] == ["double"]
            array((block, words[0]), ">f8", count, 3)
        else:
            raise AssertionError(f"unknown keyword line {lines[-1]!r}")
    return lines, arrays
