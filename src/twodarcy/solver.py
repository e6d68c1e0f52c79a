"""Direct solution of the saddle-point system and well-posedness diagnostics.

``solve`` hybridizes region 1 (Arnold and Brezzi, M2AN 19, 1985; Boffi,
Brezzi and Fortin, *Mixed Finite Element Methods*, 2013, section 7.2):
the RT0 fluxes are broken per triangle, a multiplier on every interior
region-1 edge restores their continuity, and each triangle's fluxes and
cell pressure are eliminated locally.  The potential is decoupled: as a2
is a region constant, psi = p2 + a2 phi solves a region-2 Laplacian on
its own.  So SuperLU factors two systems with a positive diagonal, that
Laplacian and the condensed system of the multipliers, the interface
fluxes and p2, with a symmetric-mode minimum-degree ordering instead of
COLAMD with partial pivoting.  Their fill together is about a fifth of
that of the full saddle matrix at level 96.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (
    SaddleSystem,
    _scatter_entries,
    p1_mass_omega2,
    rt0_divdiv,
    rt0_mass,
)
from .mesh import EdgeKind
from .spaces import potential_to_velocity

__all__ = [
    "SolverError",
    "SolutionFields",
    "WellposednessDiagnostics",
    "solve",
    "check_wellposedness",
    "x_norm_gram",
    "y_norm_gram",
]

RESIDUAL_TOL = 1e-10


class SolverError(RuntimeError):
    """Factorization failed or the solver residual is above tolerance.

    ``level`` is the inverse mesh size of the failed solve when the error
    comes out of a convergence study, otherwise None.
    """

    level: int | None = None


@dataclass
class SolutionFields:
    """Solved coefficient fields.

    ``u1`` holds signed edge fluxes, ``p2`` nodal pressures on region 2,
    ``phi`` the raw pinned potential, ``u2`` its cellwise-constant gradient
    (indexed like ``layout.u2_triangles``) and ``p1`` cell pressures on
    region 1 (indexed like ``layout.p1_triangles``).
    """

    u1: np.ndarray
    p2: np.ndarray
    phi: np.ndarray
    u2: np.ndarray
    p1: np.ndarray
    residual: float
    layout: object

    @classmethod
    def from_vector(cls, x, system: SaddleSystem, residual: float) -> "SolutionFields":
        lo = system.layout
        phi = x[lo.offset_phi:lo.offset_phi + lo.n_phi]
        return cls(
            u1=x[lo.offset_u1:lo.offset_u1 + lo.n_u1].copy(),
            p2=x[lo.offset_p2:lo.offset_p2 + lo.n_p2].copy(),
            phi=phi.copy(),
            u2=potential_to_velocity(phi, system.mesh, lo),
            p1=x[lo.offset_p1:lo.offset_p1 + lo.n_p1].copy(),
            residual=residual,
            layout=lo,
        )


def _factor(matrix: sp.spmatrix):
    """SuperLU of a matrix with a zero-free diagonal: symmetric-mode minimum degree."""
    try:
        return spla.splu(
            matrix.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.1,
            options={"SymmetricMode": True},
        )
    except RuntimeError as err:
        raise SolverError(f"singular factorization: {err}") from err


def _local_saddle_inverse(mass: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(t, 4, 4) inverses of the local saddles [[M, -s], [s^T, 0]] for (t, 3, 3) SPD ``mass``.

    With Minv the cofactor inverse of M, w = Minv s and sigma = s^T w, the
    inverse is [[Minv - w w^T / sigma, w / sigma], [-w^T / sigma, 1 / sigma]].
    A zero determinant or sigma, or a non-finite M, leaves a non-finite entry.
    """
    # Entry planes (3, 3, t) and (3, t): elementwise arithmetic on contiguous rows.
    (a, b, c), (_, d, e), (_, _, f) = np.ascontiguousarray(mass.transpose(1, 2, 0))
    s = np.ascontiguousarray(s.T)
    with np.errstate(all="ignore"):
        minv = np.array([
            [d * f - e * e, c * e - b * f, b * e - c * d],
            [c * e - b * f, a * f - c * c, b * c - a * e],
            [b * e - c * d, b * c - a * e, a * d - b * b],
        ])
        minv /= a * minv[0, 0] + b * minv[0, 1] + c * minv[0, 2]
        w = (minv * s).sum(axis=1)
        sigma = (s * w).sum(axis=0)
        planes = np.empty((4, 4, len(sigma)))
        planes[:3, 3] = w / sigma
        planes[:3, :3] = minv - w[:, None] * planes[None, :3, 3]
        planes[3, :3] = -planes[:3, 3]
        planes[3, 3] = 1.0 / sigma
    inverse = np.ascontiguousarray(planes.transpose(2, 0, 1))
    if not np.isfinite(inverse).all():
        raise SolverError("singular local saddle: zero or non-finite determinant or Schur complement")
    return inverse


def _hybrid_factorization(system: SaddleSystem):
    """Factor the hybridized ``system`` once; return its solve.

    The returned function maps a right-hand side of the full [u1|p2|phi|p1]
    system to its solution.  Region-1 fluxes are broken per triangle, and
    their continuity across each ``INTERIOR_1`` edge e is imposed by a
    multiplier that enters the flux row of ``edge_tris[e, 0]`` as +1 and
    that of ``edge_tris[e, 1]`` as -1; the whole flux load of e stays on the
    first triangle.  Every triangle's broken fluxes and its cell pressure
    are eliminated through its 4x4 local saddle, in which an interface slot
    gets an identity row and column: interface fluxes stay global, as the
    coupling S ties them to p2.

    The potential is decoupled through psi = p2 + a2 phi (phi = 0 at the
    pin).  The potential rows read K[phi] (p2 + a2 phi) = F_phi with the unit
    region-2 stiffness K, whose rows sum to zero, so psi_phi = psi0 + p2[pin]
    with K_phiphi psi0 = F_phi.  Substituting phi = (psi - p2) / a2 into the
    p2 rows turns their potential coupling into K p2 / a2 and moves
    K[:, phi] psi0 / a2 to the load.  Two systems with a positive diagonal
    are factored: the Laplacian K_phiphi, and
    [multipliers and interface fluxes | p2] with the p2 block M_beta + K / a2.
    """
    m, lo = system.mesh, system.layout
    n_u1, n_p2 = lo.n_u1, lo.n_p2
    a2 = system.coeffs.a2
    if not 0.0 < a2 < np.inf:
        raise SolverError(f"flow resistance a2 = {a2} cannot decouple the potential")
    phi = lo.phi_to_p2
    pin = lo.vert_to_p2[lo.pinned_vertex]
    tris = lo.p1_triangles
    edges = m.tri_edges[tris]
    kind = m.edge_kind[edges]
    iface = kind == EdgeKind.INTERFACE
    first = m.edge_tris[edges, 0] == tris[:, None]
    own_load = first & ~iface
    sigma = np.where(kind == EdgeKind.INTERIOR_1, np.where(first, 1.0, -1.0), 0.0)

    # Hybrid dofs: the multipliers and interface fluxes, in u1 order.
    h_to_u1 = np.flatnonzero(m.edge_kind[lo.u1_edges] != EdgeKind.BOUNDARY_1)
    h_iface = m.edge_kind[lo.u1_edges[h_to_u1]] == EdgeKind.INTERFACE
    n_h = len(h_to_u1)
    n = n_h + n_p2
    u1_to_h = np.full(n_u1, -1, dtype=np.int64)
    u1_to_h[h_to_u1] = np.arange(n_h)
    u1_dofs = lo.edge_to_u1[edges]
    slot_h = u1_to_h[u1_dofs]                           # -1 on boundary slots
    valid = slot_h >= 0

    # Local saddle [[M, -s], [s^T, 0]] on the three fluxes and p1 of a triangle.
    signs = m.tri_edge_signs[tris].astype(float)
    saddle = np.zeros((len(tris), 4, 4))
    saddle[:, :3, :3] = system.flux_mass
    saddle[:, :3, 3] = -signs
    saddle[:, 3, :3] = signs
    couple = np.zeros((len(tris), 4, 3))   # local rows x hybrid slots
    reduce = np.zeros((len(tris), 3, 4))   # hybrid rows x local unknowns
    for i in range(3):
        couple[:, i, i] = reduce[:, i, i] = sigma[:, i]
        j = iface[:, i]
        couple[j, :, i] = saddle[j, :, i]
        reduce[j, i, :] = saddle[j, i, :]
        couple[j, i, i] = reduce[j, i, i] = 0.0
        saddle[j, i, :] = saddle[j, :, i] = 0.0
        saddle[j, i, i] = 1.0
    inverse = _local_saddle_inverse(saddle[:, :3, :3], saddle[:, 3, :3])
    weights = inverse @ couple

    # The [interface u1 | p2] rows and columns of A hold S, M_beta and the
    # flux mass of the interface slots; K / a2 and the condensed element
    # matrices are added to them.
    to_hybrid = np.full(lo.n_x, -1, dtype=np.int64)
    to_hybrid[h_to_u1[h_iface]] = np.flatnonzero(h_iface)
    to_hybrid[n_u1:] = np.arange(n_h, n)
    a_coo = system.A.tocoo()
    rows, cols = to_hybrid[a_coo.row], to_hybrid[a_coo.col]
    kept = (rows >= 0) & (cols >= 0)
    k = system.K.tocoo()
    vals, h_rows, h_cols = _scatter_entries(-(reduce @ weights), slot_h, slot_h)
    hybrid = sp.csc_matrix((
        np.concatenate([a_coo.data[kept], k.data / a2, vals]),
        (np.concatenate([rows[kept], k.row + n_h, h_rows]),
         np.concatenate([cols[kept], k.col + n_h, h_cols])),
    ), shape=(n, n))
    hybrid.eliminate_zeros()
    lu = _factor(hybrid)
    laplace = _factor(system.K[phi][:, phi])

    def solve_full(b):
        psi = np.zeros(n_p2)                            # psi0, 0 at the pin
        psi[phi] = laplace.solve(b[lo.offset_phi:lo.offset_p1])
        load = np.zeros((len(tris), 4))
        load[:, :3] = np.where(own_load, b[u1_dofs], 0.0)
        load[:, 3] = b[lo.offset_p1:]
        z = np.einsum("tij,tj->ti", inverse, load)
        g = np.empty(n)
        g[n_h:] = b[n_u1:lo.offset_phi] + (system.K @ psi) / a2
        g[:n_h] = np.where(h_iface, b[h_to_u1], 0.0) - np.bincount(
            slot_h[valid], np.einsum("tij,tj->ti", reduce, z)[valid], minlength=n_h
        )
        y = lu.solve(g)
        x_h, p2 = y[:n_h], y[n_h:]
        z -= np.einsum("tij,tj->ti", weights, np.where(valid, x_h[slot_h], 0.0))
        u1 = np.empty(n_u1)
        u1[u1_dofs[own_load]] = z[:, :3][own_load]
        u1[h_to_u1[h_iface]] = x_h[h_iface]
        return np.concatenate([u1, p2, (psi[phi] + p2[pin] - p2[phi]) / a2, z[:, 3]])

    return solve_full


def solve(system: SaddleSystem) -> SolutionFields:
    """Hybridized direct solve with one refinement step and a relative residual guard.

    Region 1 is hybridized and condensed element by element, and the
    potential is decoupled through psi = p2 + a2 phi (see
    ``_hybrid_factorization``); SuperLU factors the region-2 Laplacian of
    psi and the condensed [multipliers and interface fluxes | p2] system,
    both with a positive diagonal, with a symmetric-mode minimum-degree
    ordering.  One step of iterative refinement against the
    residual of the full ``system.matrix()`` follows, and the guard checks
    that residual relative to the largest load entry.
    """
    matrix = system.matrix()
    rhs = system.rhs()
    solve_full = _hybrid_factorization(system)
    x = solve_full(rhs)
    x += solve_full(rhs - matrix @ x)
    if not np.all(np.isfinite(x)):
        raise SolverError("factorization produced non-finite values")
    scale = max(float(np.abs(rhs).max()), 1e-30)
    residual = float(np.abs(matrix @ x - rhs).max()) / scale
    if residual > RESIDUAL_TOL:
        raise SolverError(f"solver residual {residual:.3e} above {RESIDUAL_TOL:.1e}")
    return SolutionFields.from_vector(x, system, residual)


@dataclass(frozen=True)
class WellposednessDiagnostics:
    """The three discrete Babuska-Brezzi quantities (all positive when sound)."""

    inf_sup: float            # smallest norm-scaled singular value of B
    kernel_coercivity: float  # min eigenvalue of sym(A) projected on ker(B)
    c_definiteness: float     # min norm-scaled eigenvalue of the potential block


def x_norm_gram(system: SaddleSystem) -> sp.csr_matrix:
    """Gram matrix of the [u1, p2] norm: H_div on region 1, full H1 on region 2."""
    m, lo = system.mesh, system.layout
    g_u1 = rt0_mass(m, lo) + rt0_divdiv(m, lo)
    g_p2 = p1_mass_omega2(m, lo) + system.K
    return sp.block_diag([g_u1, g_p2], format="csr")


def y_norm_gram(system: SaddleSystem) -> sp.csr_matrix:
    """Gram matrix of the [u2, p1] norm: gradient L2 and cell L2."""
    m, lo = system.mesh, system.layout
    phi = lo.phi_to_p2
    g_phi = system.K[phi][:, phi]
    g_p1 = sp.diags(m.areas[lo.p1_triangles])
    return sp.block_diag([g_phi, g_p1], format="csr")


def check_wellposedness(system: SaddleSystem, max_dim: int = 2000) -> WellposednessDiagnostics:
    """Dense eigenvalue diagnostics of the inf-sup and coercivity constants.

    Guarded to small systems; ``twodarcy --diagnostics`` runs it at coarse
    levels, and it is never part of the solve path.
    """
    if system.size > max_dim:
        raise ValueError(f"system size {system.size} exceeds the dense guard {max_dim}")
    n_u1 = system.layout.n_u1
    n_phi = system.layout.n_phi

    nx = x_norm_gram(system).toarray()
    ny = y_norm_gram(system).toarray()
    b = system.B.toarray()
    lx = la.cholesky(nx, lower=True)
    ly = la.cholesky(ny, lower=True)
    scaled = la.solve_triangular(ly, b, lower=True)
    scaled = la.solve_triangular(lx, scaled.T, lower=True).T
    inf_sup = float(la.svdvals(scaled).min())

    kernel = la.null_space(b)
    sym_a = system.A.toarray()
    sym_a = 0.5 * (sym_a + sym_a.T)
    projected = kernel.T @ sym_a @ kernel
    gram = kernel.T @ nx @ kernel
    coercivity = float(la.eigvalsh(projected, gram).min())

    k_a = system.C[:n_phi, :n_phi].toarray()
    g_phi = ny[:n_phi, :n_phi]
    c_definiteness = float(la.eigvalsh(k_a, g_phi).min())

    return WellposednessDiagnostics(
        inf_sup=inf_sup,
        kernel_coercivity=coercivity,
        c_definiteness=c_definiteness,
    )
