"""Sparse assembly of the saddle-point operators and load functionals.

The global system acts on [u1, p2, phi, p1] as

    [[A, -B^T], [B, C]] [x; y] = [F1; F2]

where A couples the region-1 flux with the region-2 pressure trace on the
interface, B carries the divergence and gradient pairings, and C is the
weighted potential stiffness.  Signs follow the expanded weak statements of
the two equations, with the interface convention that the normal points
from region 1 into region 2: the (p2-row, u1-column) coupling enters with a
minus sign and its transpose with a plus sign.

The unit P1 stiffness ``K`` of region 2 on the p2 dofs is assembled once
per mesh: the gradient pairing in B is its potential rows
``K[phi_to_p2]``, C is ``a2 * K[phi_to_p2][:, phi_to_p2]``, and the system
carries it for the solver.

The coefficients are three region constants: the flow resistances ``a1``
and ``a2`` of the two regions and the interface storage ``beta``.  Each
coefficient block is its constant times one geometric matrix: the RT0 mass
(in closed form, from the second moments of each triangle), the P1
stiffness and the P1 trace mass on the interface.  Volume sources are
integrated with the one-point centroid rule, the verification convention
for lowest-order elements on structured grids: it makes the discrete flux
divergence equal the centroid-sampled source exactly, so the cell-sampled
divergence error vanishes.  Interface line integrals use the 6-point Gauss
rule.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import BipartiteMesh, _check_orientation, _kept, _planes
from .quadrature import segment_rule
from .spaces import DofLayout

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


def _scatter(parts, shape) -> sp.csr_matrix:
    """Sum the ``_scatter_entries`` of (local, row_dofs, col_dofs) parts into one CSR matrix.

    A part holds (t, r, c) local matrices on (t, r) row and (t, c) column
    dofs of the block; its rounding residues are judged within it.
    Duplicates are summed by scipy in an order that can change with the
    other entries of their row.  No zero is stored: sums that cancel are
    removed.
    """
    vals, rows, cols = map(np.concatenate, zip(*(_scatter_entries(*part) for part in parts)))
    out = sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
    out.eliminate_zeros()
    # scipy leaves a summed matrix on views of the unsummed arrays; hold only its entries.
    out.data, out.indices = out.data.copy(), out.indices.copy()
    return out


def _symmetric_local(n: int, entry) -> np.ndarray:
    """(n, 3, 3) symmetric local matrices whose (i, j) and (j, i) entries are ``entry(i, j)``, i <= j."""
    out = np.empty((n, 3, 3))
    for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
        out[:, i, j] = out[:, j, i] = entry(i, j)
    return out


def rt0_local_mass(m: BipartiteMesh, tris, a: float = 1.0) -> np.ndarray:
    """(t, 3, 3) flux-basis mass matrices of ``tris``, scaled by the resistance ``a``.

    With the basis ``s_i / (2|K|) (x - P_i)`` and ``c`` the centroid, the
    second moments of K give, exactly,
    ``M_ij = a s_i s_j / (4|K|) [(c - P_i).(c - P_j) + sum_k |P_k - c|^2 / 12]``.
    """
    x, y = _planes(m, m.triangles[tris])
    cx, cy = np.take(m.centroids.T, tris, axis=1)
    dx, dy = cx - x, cy - y                                                # (3, t) planes of c - P_i
    squares = dx * dx + dy * dy
    spread = (squares[0] + squares[1] + squares[2]) / 12.0
    s = np.take(m.tri_edge_signs.T, tris, axis=1).astype(float)
    scaled = (a / 4.0) / m.areas[tris] * s                                 # a s_i / (4|K|)
    return _symmetric_local(
        len(spread), lambda i, j: (scaled[i] * s[j]) * ((dx[i] * dx[j] + dy[i] * dy[j]) + spread))


_P1_TRACE_MASS_REF = (np.full((2, 2), 1.0) + np.eye(2)) / 6.0


def _p1_local_stiffness(m: BipartiteMesh, tris) -> np.ndarray:
    """(t, 3, 3) unit nodal stiffness matrices of ``tris``."""
    gx, gy = np.take(m.hat_gradients.T, tris, axis=2)                      # (3, t) planes
    area = m.areas[tris]
    # Each dot product is summed onto zero, so two -0 terms give +0.
    return _symmetric_local(len(area), lambda i, j: area * (0.0 + gx[i] * gx[j] + gy[i] * gy[j]))


def p1_stiffness_omega2(m: BipartiteMesh, layout: DofLayout) -> sp.csr_matrix:
    """Nodal stiffness over region 2 on the p2 dofs.

    Its rows (and columns) ``layout.phi_to_p2`` are the potential stiffness.
    """
    tris = layout.u2_triangles
    dofs = layout.vert_to_p2[m.triangles[tris]]
    return _scatter([(_p1_local_stiffness(m, tris), dofs, dofs)], (layout.n_p2, layout.n_p2))


def _edge_points(m: BipartiteMesh, edges, rule) -> np.ndarray:
    """(n, q, 2) points of a segment ``rule`` on ``edges``, low to high vertex."""
    seg = m.vertices[m.edges[edges]]
    return seg[:, None, 0, :] + rule.points[None, :, None] * (seg[:, 1] - seg[:, 0])[:, None, :]


def _interface_coupling(m: BipartiteMesh) -> np.ndarray:
    """(ni, 2) coupling S of each interface flux with the p2 values at its edge's ends, low to high vertex."""
    # Normal trace of the edge's own flux basis is +-1 / length, so the
    # coupling entries are +-1/2 independent of the mesh size.
    return m.interface_signs[:, None] * (LINE_RULE.weights @ _LINE_HAT)


# ---------------------------------------------------------------------------
# Operator blocks.


def assemble_A(m: BipartiteMesh, layout: DofLayout, coeffs: CoefficientSet,
               flux_mass: np.ndarray) -> sp.csr_matrix:
    """Flux mass, interface trace mass and the skew interface coupling.

    ``flux_mass`` holds the local masses ``rt0_local_mass(m,
    layout.p1_triangles, coeffs.a1)``.  The coefficients are not checked
    here: ``assemble_system`` validates them.
    """
    u1 = layout.edge_to_u1[m.tri_edges[layout.p1_triangles]]
    e = m.interface_edges
    e_u1 = layout.edge_to_u1[e][:, None]
    p2 = layout.offset_p2 + layout.vert_to_p2[m.edges[e]]   # (ni, 2) rows and columns of A
    trace = (coeffs.beta * m.edge_lengths[e])[:, None, None] * _P1_TRACE_MASS_REF
    couple = _interface_coupling(m)
    parts = [(flux_mass, u1, u1), (couple[:, None, :], e_u1, p2), (-couple[:, :, None], p2, e_u1),
             (trace, p2, p2)]
    return _scatter(parts, (layout.n_x, layout.n_x))


def assemble_B(m: BipartiteMesh, layout: DofLayout, k: sp.csr_matrix) -> sp.csr_matrix:
    """Divergence pairing with p1 and gradient pairing with the potential.

    ``k`` is the unit region-2 stiffness ``p1_stiffness_omega2(m, layout)``;
    the gradient pairing is its potential rows, moved past the u1 columns.
    """
    g = k[layout.phi_to_p2]                                  # (n_phi, n_p2)
    g = sp.csr_matrix((g.data, g.indices + layout.offset_p2, g.indptr), shape=(layout.n_phi, layout.n_x))
    tris = layout.p1_triangles
    d = _scatter(
        [(m.tri_edge_signs[tris].astype(float)[:, None, :],  # integral of div = sign
          layout.tri_to_p1[tris][:, None],
          layout.edge_to_u1[m.tri_edges[tris]])],
        (layout.n_p1, layout.n_x),
    )
    return sp.vstack([g, d], format="csr")


def assemble_C(layout: DofLayout, coeffs: CoefficientSet, k: sp.csr_matrix) -> sp.csr_matrix:
    """a2-weighted potential stiffness from the unit region-2 stiffness ``k``; the p1 block is zero."""
    phi = layout.phi_to_p2
    c = coeffs.a2 * k[phi][:, phi]
    c.resize((layout.n_y, layout.n_y))
    return c


def assemble_rhs(m: BipartiteMesh, layout: DofLayout, case) -> tuple[np.ndarray, np.ndarray]:
    """Load vectors over the [u1, p2] and [phi, p1] test blocks.

    ``case`` provides F and the interface data as evaluable fields.
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

    e = m.interface_edges
    x = _edge_points(m, e, LINE_RULE)
    stress = np.asarray(case.f_stress(x[..., 0], x[..., 1]), dtype=float)
    flux = np.asarray(case.f_n(x[..., 0], x[..., 1]), dtype=float)
    f1[layout.edge_to_u1[e]] += m.interface_signs * (stress @ LINE_RULE.weights)
    load = (m.edge_lengths[e][:, None] * (LINE_RULE.weights * flux)) @ _LINE_HAT
    np.subtract.at(f1, layout.offset_p2 + layout.vert_to_p2[m.edges[e]].ravel(), load.ravel())

    return f1, f2


@dataclass
class SaddleSystem:
    """Assembled sparse blocks, load vectors, the coefficients and the originating layout.

    ``Bt`` is B's transpose, kept with B and sharing its arrays.  ``K`` is
    the unit P1 stiffness of region 2 on the p2 dofs, the one geometric
    matrix behind the potential rows of B and the stiffness in C.
    ``flux_mass`` holds the (t, 3, 3) a1-scaled RT0 local masses of
    ``layout.p1_triangles``, the element matrices of the flux block of A.
    """

    A: sp.csr_matrix
    B: sp.csr_matrix
    Bt: sp.csc_matrix
    C: sp.csr_matrix
    K: sp.csr_matrix
    flux_mass: np.ndarray
    F1: np.ndarray
    F2: np.ndarray
    mesh: BipartiteMesh
    layout: DofLayout
    coeffs: CoefficientSet

    def rhs(self) -> np.ndarray:
        return np.concatenate([self.F1, self.F2])


def _unit_operators(m: BipartiteMesh, layout: DofLayout) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csc_matrix]:
    """``K``, ``B`` and ``B.T`` (which shares B's arrays): they depend on the mesh and the pin alone."""
    k = p1_stiffness_omega2(m, layout)
    b = assemble_B(m, layout, k)
    return k, b, b.T


def assemble_system(m: BipartiteMesh, layout: DofLayout, case) -> SaddleSystem:
    """Compose the four blocks and the load vectors for one case.

    Raises ``ValueError`` for a mesh with a clockwise or zero-area triangle.
    """
    _check_orientation(m)
    coeffs = case.coefficient_set()
    coeffs.validate()
    flux_mass = rt0_local_mass(m, layout.p1_triangles, coeffs.a1)
    a = assemble_A(m, layout, coeffs, flux_mass)
    k, b, bt = _kept(m, ("operators", layout.pinned_vertex), lambda: _unit_operators(m, layout))
    c = assemble_C(layout, coeffs, k)
    f1, f2 = assemble_rhs(m, layout, case)
    return SaddleSystem(
        A=a, B=b, Bt=bt, C=c, K=k, flux_mass=flux_mass, F1=f1, F2=f2,
        mesh=m, layout=layout, coeffs=coeffs,
    )
