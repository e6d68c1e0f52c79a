"""Direct solution of the saddle-point system and well-posedness diagnostics.

``solve`` hybridizes region 1 (Arnold and Brezzi, M2AN 19, 1985; Boffi,
Brezzi and Fortin, *Mixed Finite Element Methods*, 2013, section 7.2):
the RT0 fluxes are broken per triangle, a multiplier on every interior
region-1 edge restores their continuity, and each triangle's fluxes and
cell pressure are eliminated locally.  The potential is decoupled: as a2
is a region constant, psi = p2 + a2 phi solves a region-2 Laplacian on
its own.  On a mesh that ``build_cartesian_mesh`` holds, that Laplacian is
the 5-point Neumann stencil on two unit squares and is solved in closed
form with cosine eigenvectors (Buzbee, Golub and Nielson, SIAM J. Numer.
Anal. 7, 1970); on any other mesh SuperLU factors it.  SuperLU factors the
condensed system of the multipliers and p2, with a zero-free diagonal
(negative on the multipliers, positive on p2), with a symmetric-mode
minimum-degree ordering instead of COLAMD with partial pivoting.  At
level 96 its fill is 2.1M, against 14.0M for the full saddle matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (
    SaddleSystem, _interface_coupling, _p1_local_stiffness, _scatter, _scatter_entries, rt0_local_mass,
)
from .mesh import EdgeKind, _region2_grids
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
DENSE_MAX_DIM = 2000  # largest system check_wellposedness factors densely


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
        u1, p2, phi, p1 = np.split(x.copy(), [lo.offset_p2, lo.offset_phi, lo.offset_p1])
        return cls(
            u1=u1, p2=p2, phi=phi, u2=potential_to_velocity(phi, system.mesh, lo), p1=p1,
            residual=residual, layout=lo,
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
        # SuperLU's allocation failures: "SUPERLU_MALLOC fails for ...",
        # "malloc fails ...", "Not enough memory to perform factorization.".
        if any(word in str(err).lower() for word in ("malloc", "memory")):
            raise SolverError(f"factorization ran out of memory: {err}") from err
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


def _cosine_laplacian(grids: np.ndarray, phi: np.ndarray, pin: int):
    """Closed-form solve of K_phiphi psi0 = F_phi on the two region-2 squares of a uniform mesh.

    ``grids`` holds the (2, k+1, k+1) p2 indices of Q2 and Q4, both starting
    at the origin.  On one square K is T (x) E + E (x) T, with T =
    tridiag(-1, [1, 2, ..., 2, 1], -1) and E = diag(1/2, 1, ..., 1, 1/2); the
    cosines V[i, a] = cos(pi i a / k) give T V = E V diag(lam) and V^T E V =
    diag(w), so a load F with zero sum is solved, up to a constant, by
    V [(V^T F V) / (w w^T (lam_a + lam_b))] V^T.  The load, extended by
    -sum(F_phi) on the pin row, is split at the origin so that each square's
    part sums to zero; Q2 is then shifted to Q4's origin value and the pin
    value is subtracted.
    """
    k = grids.shape[-1] - 1
    modes = np.arange(k + 1)
    cosines = np.cos(np.pi / k * (np.outer(modes, modes) % (2 * k)))    # symmetric: V = V^T
    lam = 2.0 - 2.0 * np.cos(np.pi / k * modes)
    w = np.full(k + 1, k / 2.0)
    w[[0, -1]] = k
    scale = np.outer(w, w) * (lam[:, None] + lam[None, :])
    scale[0, 0] = np.inf                                # the constant mode is free: set it to 0
    n_p2 = len(phi) + 1

    def solve_laplacian(f_phi):
        f = np.zeros(n_p2)
        f[phi] = f_phi
        f[pin] = -f_phi.sum()
        loads = f[grids]
        loads[0, 0, 0] = 0.0
        loads[0, 0, 0] = -loads[0].sum()
        loads[1, 0, 0] -= loads[0, 0, 0]
        x = cosines @ (cosines @ loads @ cosines / scale) @ cosines
        x[0] += x[1, 0, 0] - x[0, 0, 0]
        psi = np.empty(n_p2)
        psi[grids] = x
        return psi[phi] - psi[pin]

    return solve_laplacian


def _hybrid_factorization(system: SaddleSystem):
    """Factor the hybridized ``system`` once; return its solve.

    The returned function maps a right-hand side of the full [u1|p2|phi|p1]
    system to its solution.  Region-1 fluxes are broken per triangle, and
    their continuity across each ``INTERIOR_1`` edge e is imposed by a
    multiplier that enters the flux row of ``edge_tris[e, 0]`` as +1 and
    that of ``edge_tris[e, 1]`` as -1; the whole flux load of e stays on the
    first triangle.  Every triangle's three fluxes and its cell pressure
    are eliminated through its 4x4 local saddle, interface fluxes too: the
    coupling S ties an interface flux to the p2 values at its edge's ends.
    So a flux slot reaches at most two global columns, the multiplier of
    its edge or those two p2 values, and every condensed entry scales like
    1/a1.

    The potential is decoupled through psi = p2 + a2 phi (phi = 0 at the
    pin).  The potential rows read K[phi] (p2 + a2 phi) = F_phi with the unit
    region-2 stiffness K, whose rows sum to zero, so psi_phi = psi0 + p2[pin]
    with K_phiphi psi0 = F_phi.  Substituting phi = (psi - p2) / a2 into the
    p2 rows turns their potential coupling into K p2 / a2 and moves
    K[:, phi] psi0 / a2 to the load; as the columns of K sum to zero too,
    that is F_phi / a2 on the phi rows and -sum(F_phi) / a2 on the pin row,
    so psi0 only recovers phi.  On a mesh that ``build_cartesian_mesh``
    holds, K_phiphi psi0 = F_phi is solved in closed form on the two
    region-2 squares (``_cosine_laplacian``); on any other mesh SuperLU
    factors K_phiphi.  SuperLU factors [multipliers | p2], with a zero-free
    diagonal: with N the flux block of a local saddle inverse, a
    multiplier's diagonal is a sum of -N_ii, negative, and that of p2 adds
    the condensed S N S^T to M_beta + K / a2, positive.
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
    iface = m.edge_kind[edges] == EdgeKind.INTERFACE
    first = m.edge_tris[edges, 0] == tris[:, None]
    own = first | iface                                 # the triangle that loads and recovers a flux
    u1_dofs = lo.edge_to_u1[edges]

    # Hybrid dofs: the multipliers, in u1 order, then p2.
    multiplied = m.edge_kind[lo.u1_edges] == EdgeKind.INTERIOR_1
    n_h = int(multiplied.sum())
    n = n_h + n_p2
    u1_to_h = np.full(n_u1, -1, dtype=np.int64)
    u1_to_h[multiplied] = np.arange(n_h)

    # The two global columns of each flux slot, (t, 3, 2) with -1 for none,
    # and its couplings to them: +-1 to a multiplier, or S to the p2 values
    # at the ends of an interface edge.  The p2 rows of A read -S^T.
    cols = np.full((len(tris), 3, 2), -1, dtype=np.int64)
    cols[..., 0] = u1_to_h[u1_dofs]
    couple = np.zeros((len(tris), 3, 2))
    couple[..., 0] = np.where(cols[..., 0] >= 0, np.where(first, 1.0, -1.0), 0.0)
    e = m.interface_edges
    t1 = lo.tri_to_p1[m.interface_tri1]
    slot = (m.tri_edges[m.interface_tri1] == e[:, None]).argmax(axis=1)
    cols[t1, slot] = n_h + lo.vert_to_p2[m.edges[e]]
    couple[t1, slot] = _interface_coupling(m)
    reads = np.where(iface[..., None], -couple, couple)
    valid = cols >= 0

    inverse = _local_saddle_inverse(system.flux_mass, m.tri_edge_signs[tris].astype(float))
    flux_inverse = inverse[:, :3, :3]

    def condensed(t, c, d):
        """Condensed element matrices of triangles ``t``, slot column ``c`` by slot column ``d``."""
        local = -(reads[t, :, c, None] * flux_inverse[t] * couple[t, None, :, d])
        return local, cols[t, :, c], cols[t, :, d]

    # Only the triangles with an interface slot have second columns.
    side = np.flatnonzero(iface.any(axis=1))
    parts = [condensed(slice(None), 0, 0)] + [condensed(side, c, d) for c, d in ((0, 1), (1, 0), (1, 1))]
    vals, rows, h_cols = map(np.concatenate, zip(*(_scatter_entries(*part) for part in parts)))
    # The [p2 | p2] block of A is M_beta; K / a2 is added to it.
    a = system.A[n_u1:, n_u1:].tocoo()
    k = system.K.tocoo()
    hybrid = sp.csc_matrix((
        np.concatenate([a.data, k.data / a2, vals]),
        (np.concatenate([a.row + n_h, k.row + n_h, rows]),
         np.concatenate([a.col + n_h, k.col + n_h, h_cols])),
    ), shape=(n, n))
    hybrid.eliminate_zeros()
    lu = _factor(hybrid)
    grids = _region2_grids(m)
    laplacian = (_factor(system.K[phi][:, phi]).solve if grids is None
                 else _cosine_laplacian(lo.vert_to_p2[grids], phi, pin))

    def solve_full(b):
        f_phi = b[lo.offset_phi:lo.offset_p1]
        load = np.zeros((len(tris), 4))
        load[:, :3] = np.where(own, b[u1_dofs], 0.0)
        load[:, 3] = b[lo.offset_p1:]
        z = np.einsum("tij,tj->ti", inverse, load)
        g = np.zeros(n)
        g[n_h:] = b[n_u1:lo.offset_phi]
        g[n_h + phi] += f_phi / a2
        g[n_h + pin] -= f_phi.sum() / a2
        g -= np.bincount(cols[valid], (reads * z[:, :3, None])[valid], minlength=n)
        y = lu.solve(g)
        z -= np.einsum("tij,tj->ti", inverse[:, :, :3], (couple * y[cols]).sum(axis=-1))
        u1 = np.empty(n_u1)
        u1[u1_dofs[own]] = z[:, :3][own]
        p2 = y[n_h:]
        return np.concatenate([u1, p2, (laplacian(f_phi) + p2[pin] - p2[phi]) / a2, z[:, 3]])

    return solve_full


def solve(system: SaddleSystem) -> SolutionFields:
    """Hybridized direct solve with one refinement step and a relative residual guard.

    Region 1 is hybridized and condensed element by element, and the
    potential is decoupled through psi = p2 + a2 phi (see
    ``_hybrid_factorization``).  The region-2 Laplacian of psi is solved in
    closed form on a mesh that ``build_cartesian_mesh`` holds and factored
    by SuperLU on any other; SuperLU factors the condensed [multipliers |
    p2] system, with a zero-free diagonal (negative on the multipliers,
    positive on p2), with a symmetric-mode minimum-degree ordering.  One
    step of iterative refinement against the residual of the full saddle
    system, applied block by block, follows, and the guard checks that
    residual relative to the largest load entry.
    """
    n_x = system.layout.n_x
    A, B, Bt, C = system.A, system.B, system.Bt, system.C

    def apply(x):
        return np.concatenate([A @ x[:n_x] - Bt @ x[n_x:], B @ x[:n_x] + C @ x[n_x:]])

    rhs = system.rhs()
    solve_full = _hybrid_factorization(system)
    x = solve_full(rhs)
    x += solve_full(rhs - apply(x))
    if not np.all(np.isfinite(x)):
        raise SolverError("factorization produced non-finite values")
    scale = max(float(np.abs(rhs).max()), 1e-30)
    residual = float(np.abs(apply(x) - rhs).max()) / scale
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
    tris1, tris2 = lo.p1_triangles, lo.u2_triangles
    signs = m.tri_edge_signs[tris1].astype(float)
    g_u1 = rt0_local_mass(m, tris1) + np.einsum("ti,tj->tij", signs, signs) / m.areas[tris1][:, None, None]
    g_p2 = m.areas[tris2][:, None, None] * ((1.0 + np.eye(3)) / 12.0) + _p1_local_stiffness(m, tris2)
    u1 = lo.edge_to_u1[m.tri_edges[tris1]]
    p2 = lo.offset_p2 + lo.vert_to_p2[m.triangles[tris2]]
    return _scatter([(g_u1, u1, u1), (g_p2, p2, p2)], (lo.n_x, lo.n_x))


def y_norm_gram(system: SaddleSystem) -> sp.csr_matrix:
    """Gram matrix of the [u2, p1] norm: gradient L2 and cell L2."""
    m, lo = system.mesh, system.layout
    tris1, tris2 = lo.p1_triangles, lo.u2_triangles
    phi = lo.vert_to_phi[m.triangles[tris2]]
    p1 = lo.n_phi + lo.tri_to_p1[tris1][:, None]
    return _scatter([(_p1_local_stiffness(m, tris2), phi, phi), (m.areas[tris1][:, None, None], p1, p1)],
                    (lo.n_y, lo.n_y))


def check_wellposedness(system: SaddleSystem) -> WellposednessDiagnostics:
    """Dense eigenvalue diagnostics of the inf-sup and coercivity constants.

    Guarded to ``DENSE_MAX_DIM`` unknowns; ``twodarcy --diagnostics`` runs
    it at coarse levels, and it is never part of the solve path.
    """
    if system.layout.size > DENSE_MAX_DIM:
        raise ValueError(f"system size {system.layout.size} exceeds the dense guard {DENSE_MAX_DIM}")
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
