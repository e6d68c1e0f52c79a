"""Sparse assembly of the saddle-point operators and load functionals.

The global system acts on [u1, p2, phi, p1] as

    [[A, -B^T], [B, C]] [x; y] = [F1; F2]

where A couples the region-1 flux with the region-2 pressure trace on the
interface, B carries the divergence and gradient pairings, and C is the
weighted potential stiffness.  Signs follow the expanded weak statements of
the two equations, with the interface convention that the normal points
from region 1 into region 2: the (p2-row, u1-column) coupling enters with a
minus sign and its transpose with a plus sign.

The unit P1 stiffness ``K`` of region 2 on the p2 dofs is assembled once:
the gradient pairing in B is its potential rows ``K[phi_to_p2]``, C is
``a2 * K[phi_to_p2][:, phi_to_p2]``, and the system carries it for the
solver.

The coefficients are three region constants: the flow resistances ``a1``
and ``a2`` of the two regions and the interface storage ``beta``.  Each
coefficient block is its constant times one geometric matrix: the RT0 mass
(in closed form, from the second moments of each triangle), the P1
stiffness and the P1 trace mass on the interface.  Volume sources are
integrated with the one-point centroid rule, the verification convention
for lowest-order elements on structured grids: it makes the discrete flux
divergence equal the centroid-sampled source exactly, so the cell-sampled
divergence error vanishes.  Interface line integrals and gravity-type
forcing use the 6-point Gauss and degree-10 rules.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import BipartiteMesh
from .quadrature import segment_rule, triangle_rule
from .spaces import DofLayout, rt0_basis

__all__ = [
    "AdmissibilityError",
    "CoefficientSet",
    "SaddleSystem",
    "assemble_A",
    "assemble_B",
    "assemble_C",
    "assemble_rhs",
    "assemble_system",
]

LOAD_RULE = triangle_rule(10)
LINE_RULE = segment_rule(11)  # 6-point Gauss
_LINE_HAT = np.column_stack([1.0 - LINE_RULE.points, LINE_RULE.points])


class AdmissibilityError(ValueError):
    """A coefficient set violates the positivity requirements."""


@dataclass(frozen=True)
class CoefficientSet:
    """Flow resistances ``a1``, ``a2`` of regions 1 and 2 and interface storage ``beta``.

    All three must be positive and finite.
    """

    a1: float
    a2: float
    beta: float

    def validate(self) -> None:
        if not (0.0 < self.a1 < np.inf and 0.0 < self.a2 < np.inf):
            raise AdmissibilityError("flow resistance a must be positive and finite")
        if not 0.0 < self.beta < np.inf:
            raise AdmissibilityError("interface storage beta must be positive and finite")


# ---------------------------------------------------------------------------
# Elementary matrices (also reused by the well-posedness diagnostics).


def _region_points(m, tris, rule):
    """(t, q, 2) points of a triangle ``rule`` on ``tris``."""
    return np.einsum("qi,tid->tqd", rule.points, m.vertices[m.triangles[tris]])


# A local entry this small next to the largest of its element matrix is the
# rounding residue of an exact zero (e.g. hypotenuse-leg RT0 mass entries).
_ROUNDING = 1e-12


def _scatter_entries(local, row_dofs, col_dofs):
    """(values, rows, cols) of the (t, r, c) local matrices on (t, r) row and (t, c) column dofs.

    Entries on a -1 dof are dropped, and so are local entries at most
    ``_ROUNDING`` times the largest of their element matrix: they count as
    zero.  Non-finite entries are kept, so a bad coefficient still reaches
    the solver.
    """
    rows = np.repeat(row_dofs, col_dofs.shape[1], axis=1).ravel()
    cols = np.tile(col_dofs, (1, row_dofs.shape[1])).ravel()
    mag = np.abs(local.reshape(len(local), -1))
    # Per-element maximum as a running maximum over the few local entries,
    # much cheaper than max(axis=1) over many short rows.
    scale = np.nan_to_num(functools.reduce(np.maximum, mag.T), nan=0.0, posinf=0.0)
    small = (mag <= _ROUNDING * scale[:, None]).ravel()
    keep = np.flatnonzero((rows >= 0) & (cols >= 0) & ~small)
    return local.ravel()[keep], rows[keep], cols[keep]


def _scatter(local, row_dofs, col_dofs, shape) -> sp.csr_matrix:
    """Sum the ``_scatter_entries`` of (t, r, c) local matrices into a CSR matrix.

    Duplicates are summed by scipy in an order that can change with the
    other entries of their row.  No zero is stored: sums that cancel are
    removed.
    """
    vals, rows, cols = _scatter_entries(local, row_dofs, col_dofs)
    out = sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
    out.eliminate_zeros()
    return out


def rt0_local_mass(m: BipartiteMesh, tris, a: float = 1.0) -> np.ndarray:
    """(t, 3, 3) flux-basis mass matrices of ``tris``, scaled by the resistance ``a``.

    With the basis ``s_i / (2|K|) (x - P_i)`` and ``c`` the centroid, the
    second moments of K give, exactly,
    ``M_ij = a s_i s_j / (4|K|) [(c - P_i).(c - P_j) + sum_k |P_k - c|^2 / 12]``.
    """
    d = m.centroids[tris][:, None, :] - m.vertices[m.triangles[tris]]     # (t, 3, 2)
    dx, dy = d[..., 0], d[..., 1]
    spread = (dx * dx + dy * dy).sum(axis=1) / 12.0
    s = m.tri_edge_signs[tris].astype(float)
    scale = (a / 4.0) / m.areas[tris]
    moments = dx[:, :, None] * dx[:, None, :] + dy[:, :, None] * dy[:, None, :]
    moments += spread[:, None, None]
    return (scale[:, None, None] * s[:, :, None] * s[:, None, :]) * moments


def _flux_scatter(m: BipartiteMesh, layout: DofLayout, local) -> sp.csr_matrix:
    """Sum (t, 3, 3) local matrices of ``layout.p1_triangles`` onto the u1 dofs."""
    dofs = layout.edge_to_u1[m.tri_edges[layout.p1_triangles]]
    return _scatter(local, dofs, dofs, (layout.n_u1, layout.n_u1))


def rt0_mass(m: BipartiteMesh, layout: DofLayout, a: float = 1.0) -> sp.csr_matrix:
    """Mass matrix of the flux basis over region 1, scaled by the resistance ``a``."""
    return _flux_scatter(m, layout, rt0_local_mass(m, layout.p1_triangles, a))


def rt0_divdiv(m: BipartiteMesh, layout: DofLayout) -> sp.csr_matrix:
    """Divergence-divergence matrix of the flux basis (H_div norm part)."""
    tris = layout.p1_triangles
    signs = m.tri_edge_signs[tris].astype(float)
    return _flux_scatter(m, layout, np.einsum("ti,tj->tij", signs, signs) / m.areas[tris][:, None, None])


_P1_MASS_REF = (np.full((3, 3), 1.0) + np.eye(3)) / 12.0
_P1_TRACE_MASS_REF = (np.full((2, 2), 1.0) + np.eye(2)) / 6.0


def p1_mass_omega2(m: BipartiteMesh, layout: DofLayout) -> sp.csr_matrix:
    """Plain nodal mass matrix over region 2."""
    tris = layout.u2_triangles
    local = m.areas[tris][:, None, None] * _P1_MASS_REF[None, :, :]
    dofs = layout.vert_to_p2[m.triangles[tris]]
    return _scatter(local, dofs, dofs, (layout.n_p2, layout.n_p2))


def p1_stiffness_omega2(m: BipartiteMesh, layout: DofLayout) -> sp.csr_matrix:
    """Nodal stiffness over region 2 on the p2 dofs.

    Its rows (and columns) ``layout.phi_to_p2`` are the potential stiffness.
    """
    tris = layout.u2_triangles
    grads = m.hat_gradients[tris]
    local = m.areas[tris][:, None, None] * np.einsum("tid,tjd->tij", grads, grads)
    dofs = layout.vert_to_p2[m.triangles[tris]]
    return _scatter(local, dofs, dofs, (layout.n_p2, layout.n_p2))


def _edge_points(m: BipartiteMesh, edges, rule) -> np.ndarray:
    """(n, q, 2) points of a segment ``rule`` on ``edges``, low to high vertex."""
    seg = m.vertices[m.edges[edges]]
    return seg[:, None, 0, :] + rule.points[None, :, None] * (seg[:, 1] - seg[:, 0])[:, None, :]


def _interface_signs(m: BipartiteMesh) -> np.ndarray:
    """+1 per interface edge whose global normal is the region-1 outer normal, else -1."""
    orient = np.einsum("id,id->i", m.edge_normals[m.interface_edges], m.interface_normals)
    return np.where(orient > 0, 1.0, -1.0)


# ---------------------------------------------------------------------------
# Operator blocks.


def assemble_A(
    m: BipartiteMesh,
    layout: DofLayout,
    coeffs: CoefficientSet,
    flux_mass: np.ndarray,
    check: bool = True,
) -> sp.csr_matrix:
    """Flux mass, interface trace mass and the skew interface coupling.

    ``flux_mass`` holds the local masses ``rt0_local_mass(m,
    layout.p1_triangles, coeffs.a1)``.
    """
    if check:
        coeffs.validate()
    n_u1, n_p2 = layout.n_u1, layout.n_p2
    m_a = _flux_scatter(m, layout, flux_mass)

    e = m.interface_edges
    p2 = layout.vert_to_p2[m.edges[e]]                       # (ni, 2)
    local = (coeffs.beta * m.edge_lengths[e])[:, None, None] * _P1_TRACE_MASS_REF
    m_beta = _scatter(local, p2, p2, (n_p2, n_p2))
    # Normal trace of the edge's own flux basis is +-1 / length, so the
    # coupling entries are +-1/2 independent of the mesh size.
    couple = _interface_signs(m)[:, None] * (LINE_RULE.weights @ _LINE_HAT)
    s = _scatter(couple[:, None, :], layout.edge_to_u1[e][:, None], p2, (n_u1, n_p2))
    return sp.bmat([[m_a, s], [-s.T, m_beta]], format="csr")


def assemble_B(m: BipartiteMesh, layout: DofLayout, k: sp.csr_matrix) -> sp.csr_matrix:
    """Divergence pairing with p1 and gradient pairing with the potential.

    ``k`` is the unit region-2 stiffness ``p1_stiffness_omega2(m, layout)``;
    the gradient pairing is its potential rows.
    """
    g = k[layout.phi_to_p2]                                  # (n_phi, n_p2)
    tris = layout.p1_triangles
    d = _scatter(
        m.tri_edge_signs[tris].astype(float)[:, None, :],    # integral of div = sign
        layout.tri_to_p1[tris][:, None],
        layout.edge_to_u1[m.tri_edges[tris]],
        (layout.n_p1, layout.n_u1),
    )
    return sp.bmat([[None, g], [d, None]], format="csr")


def assemble_C(layout: DofLayout, coeffs: CoefficientSet, k: sp.csr_matrix) -> sp.csr_matrix:
    """a2-weighted potential stiffness from the unit region-2 stiffness ``k``; the p1 block is zero."""
    phi = layout.phi_to_p2
    return sp.block_diag(
        [coeffs.a2 * k[phi][:, phi], sp.csr_matrix((layout.n_p1, layout.n_p1))], format="csr"
    )


def assemble_rhs(m: BipartiteMesh, layout: DofLayout, case) -> tuple[np.ndarray, np.ndarray]:
    """Load vectors over the [u1, p2] and [phi, p1] test blocks.

    ``case`` provides F, g and interface data as evaluable fields; the g
    terms are skipped when the case declares no gravity-type forcing.
    Volume sources are sampled at centroids (one-point rule).
    """
    f1 = np.zeros(layout.n_x)
    f2 = np.zeros(layout.n_y)

    # Region-2 volume source against the pressure hats (centroid rule:
    # |K|/3 * F(c) to each vertex).
    tris2 = layout.u2_triangles
    areas2 = m.areas[tris2]
    c2 = m.centroids[tris2]
    f_vals = np.asarray(case.F(c2[:, 0], c2[:, 1], m.tri_quadrant[tris2]), dtype=float)
    np.add.at(
        f1,
        layout.offset_p2 + layout.vert_to_p2[m.triangles[tris2]].ravel(),
        np.repeat(areas2 * f_vals / 3.0, 3),
    )

    # Region-1 volume source against the cell constants.
    tris1 = layout.p1_triangles
    areas1 = m.areas[tris1]
    c1 = m.centroids[tris1]
    f2[layout.n_phi + layout.tri_to_p1[tris1]] = areas1 * np.asarray(
        case.F(c1[:, 0], c1[:, 1], m.tri_quadrant[tris1]), dtype=float
    )

    if case.g is not None:
        # Load points lie strictly inside their triangle, so each takes its
        # triangle's quadrant.
        pts1 = _region_points(m, tris1, LOAD_RULE)
        g1 = case.g(pts1[..., 0], pts1[..., 1], m.tri_quadrant[tris1][:, None])
        phi = rt0_basis(m, tris1, pts1)
        vol = 2.0 * areas1[:, None] * np.einsum("q,tqd,tiqd->ti", LOAD_RULE.weights, g1, phi)
        np.add.at(f1, layout.edge_to_u1[m.tri_edges[tris1]].ravel(), -vol.ravel())

        pts2 = _region_points(m, tris2, LOAD_RULE)
        g2 = case.g(pts2[..., 0], pts2[..., 1], m.tri_quadrant[tris2][:, None])
        grads = m.hat_gradients[tris2]
        gmean = 2.0 * areas2[:, None] * np.einsum("q,tqd->td", LOAD_RULE.weights, g2)
        vol2 = np.einsum("td,tid->ti", gmean, grads)
        rows = layout.vert_to_phi[m.triangles[tris2]].ravel()
        vals = -vol2.ravel()
        keep = rows >= 0
        np.add.at(f2, rows[keep], vals[keep])

    e = m.interface_edges
    x = _edge_points(m, e, LINE_RULE)
    stress = np.asarray(case.f_stress(x[..., 0], x[..., 1]), dtype=float)
    flux = np.asarray(case.f_n(x[..., 0], x[..., 1]), dtype=float)
    f1[layout.edge_to_u1[e]] += _interface_signs(m) * (stress @ LINE_RULE.weights)
    load = (m.edge_lengths[e][:, None] * (LINE_RULE.weights * flux)) @ _LINE_HAT
    np.subtract.at(f1, layout.offset_p2 + layout.vert_to_p2[m.edges[e]].ravel(), load.ravel())

    return f1, f2


@dataclass
class SaddleSystem:
    """Assembled sparse blocks, load vectors, the coefficients and the originating layout.

    ``K`` is the unit P1 stiffness of region 2 on the p2 dofs, the one
    geometric matrix behind the potential rows of B and the stiffness in C.
    ``flux_mass`` holds the (t, 3, 3) a1-scaled RT0 local masses of
    ``layout.p1_triangles``, the element matrices of the flux block of A.
    """

    A: sp.csr_matrix
    B: sp.csr_matrix
    C: sp.csr_matrix
    K: sp.csr_matrix
    flux_mass: np.ndarray
    F1: np.ndarray
    F2: np.ndarray
    mesh: BipartiteMesh
    layout: DofLayout
    coeffs: CoefficientSet

    @property
    def Bt(self) -> sp.csc_matrix:
        return self.B.T

    def matrix(self) -> sp.csr_matrix:
        # All-CSR blocks take scipy's stacking fast path.
        return sp.bmat([[self.A, -self.Bt.tocsr()], [self.B, self.C]], format="csr")

    def rhs(self) -> np.ndarray:
        return np.concatenate([self.F1, self.F2])

    @property
    def size(self) -> int:
        return self.layout.size


def assemble_system(m: BipartiteMesh, layout: DofLayout, case, check: bool = True) -> SaddleSystem:
    """Compose the four blocks and the load vectors for one case."""
    coeffs = case.coefficient_set()
    if check:
        coeffs.validate()
    flux_mass = rt0_local_mass(m, layout.p1_triangles, coeffs.a1)
    a = assemble_A(m, layout, coeffs, flux_mass, check=False)
    k = p1_stiffness_omega2(m, layout)
    b = assemble_B(m, layout, k)
    c = assemble_C(layout, coeffs, k)
    f1, f2 = assemble_rhs(m, layout, case)
    return SaddleSystem(
        A=a, B=b, C=c, K=k, flux_mass=flux_mass, F1=f1, F2=f2,
        mesh=m, layout=layout, coeffs=coeffs,
    )
