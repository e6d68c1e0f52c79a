"""Direct solution of the saddle-point system and well-posedness diagnostics.

``solve`` hybridizes region 1 (Arnold and Brezzi, M2AN 19, 1985; Boffi,
Brezzi and Fortin, *Mixed Finite Element Methods*, 2013, section 7.2):
the RT0 fluxes are broken per triangle, a multiplier (the pressure trace)
on every interior region-1 edge restores their continuity, and each
triangle's fluxes and cell pressure are eliminated locally.  The potential
is decoupled: as a2 is a region constant, psi = p2 + a2 phi solves a
region-2 Laplacian on its own.  On a mesh that ``build_cartesian_mesh``
holds, that Laplacian is the 5-point stencil on two unit squares, and off
the interface cross p2 meets only the same stencil, so the unknowns of
both off the cross are eliminated in closed form with quarter-wave sines,
one field at a time (the capacitance-matrix method of Buzbee, Dorr, George
and Golub, SIAM J. Numer. Anal. 8, 1971); on any other mesh every p2
unknown is kept.  Region 2 has one unit stiffness on the kept p2 unknowns.
SuperLU factors its slice without the first row and column for psi,
fixed at the first, and the condensed system of the multipliers and the
kept p2, which reads it too, with a zero-free diagonal (negative on the
multipliers, positive on p2), both with a symmetric-mode minimum-degree
ordering instead of COLAMD with partial pivoting.  At level 96 the latter
has 55,297 unknowns with a fill of 1.19M, against 14.0M for the full
saddle matrix.
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
from .mesh import EdgeKind, _kept, _region2_grids
from .spaces import _numbering, potential_to_velocity

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


def _interior_square(k: int):
    """The eigenpairs of K on the off-axis vertices of one region-2 square, and E_D's diagonal.

    On the vertices (a, b), a, b = 1..k, K is T_D (x) E_D + E_D (x) T_D with
    T_D = tridiag(-1, [2, ..., 2, 1], -1) and E_D = diag(1, ..., 1, 1/2):
    Dirichlet at the axes, Neumann at the outer sides.  Its eigenvectors are
    the quarter-wave sines V[i, c] = sin((2c - 1) pi i / (2k)), i, c = 1..k,
    with T_D V = E_D V diag(lam) and V^T E_D V = (k / 2) I, so that K^-1 F =
    V [(V^T F V) / scale] V^T with scale = (k / 2)^2 (lam_a + lam_b) (Buzbee,
    Golub and Nielson, SIAM J. Numer. Anal. 7, 1970).  Returns V, scale and
    the diagonal of E_D.
    """
    steps = np.arange(1, k + 1)
    odd = 2 * steps - 1
    vectors = np.sin(np.pi / (2 * k) * (np.outer(steps, odd) % (4 * k)))
    lam = 2.0 - 2.0 * np.cos(np.pi / (2 * k) * odd)
    edge = np.ones(k)
    edge[-1] = 0.5
    return vectors, k * k / 4.0 * (lam[:, None] + lam[None, :]), edge


def _axis_schur(vectors: np.ndarray, scale: np.ndarray, edge: np.ndarray) -> np.ndarray:
    """K_GI K_II^-1 K_IG of one region-2 square on its 2k off-origin axis vertices G, in closed form.

    G lists the vertices (a, 0), a = 1..k, then (0, b), b = 1..k; K_IG ties
    each to its off-axis neighbour, (a, 1) or (1, b), with weight -E_D[a, a]
    or -E_D[b, b] (``vectors``, ``scale`` and ``edge`` of ``_interior_square``).
    With U = E_D V, v the first row of V and R = 1 / scale, the (a, 0) block
    is U diag(R v^2) U^T, as is the (0, b) block, and the coupling between
    them is U (v v^T * R) U^T: a few dense products instead of a
    factorization (the capacitance matrix of Buzbee, Dorr, George and Golub,
    SIAM J. Numer. Anal. 8, 1971).
    """
    u = edge[:, None] * vectors
    first = vectors[0]
    inverse = 1.0 / scale
    along = (u * (inverse @ first**2)) @ u.T
    across = u @ (first[:, None] * inverse * first) @ u.T
    return np.block([[along, across], [across.T, along]])


@dataclass(frozen=True)
class _Region2Interior:
    """The off-axis unknowns of the two region-2 squares of a registry mesh, eliminated in closed form.

    Off the interface cross, a p2 row of the hybrid system holds only K / a2
    (M_beta and the condensed interface terms touch the cross alone), and the
    potential psi = p2 + a2 phi solves K psi = f, so the interior I of each
    square is removed by its Schur complement from both: the cross keeps the
    Steklov-Poincare stiffness K_GG - K_GI K_II^-1 K_IG, and y_I is
    recovered from y_G with a closed-form interior solve (``_interior_square``).
    SuperLU factors the cross stiffness for both.  ``condense`` and
    ``recover`` act on one field over all p2 unknowns at a time.
    """

    cross: np.ndarray     # (4k+1,) p2 indices on the cross, ascending: the p2 unknowns SuperLU keeps
    to_cross: np.ndarray  # (n_p2,) index of each p2 unknown in ``cross``, -1 off the cross
    interior: np.ndarray  # (2, k, k) p2 indices of the vertices (a, b), a, b = 1..k, of Q2 and Q4
    axes: np.ndarray      # (2, 2, k) p2 indices of (a, 0) and of (0, b), a, b = 1..k
    stiffness: sp.csr_matrix  # the unit stiffness of region 2 on ``cross``, interior eliminated
    vectors: np.ndarray   # (k, k) V, and the ``scale`` and E_D diagonal ``edge`` of ``_interior_square``
    scale: np.ndarray
    edge: np.ndarray

    @classmethod
    def of(cls, layout, grids: np.ndarray, k_unit: sp.csr_matrix) -> "_Region2Interior":
        """The elimination on the grids ``grids`` of ``_region2_grids``, with the unit stiffness ``k_unit``."""
        p2 = layout.vert_to_p2[grids]
        interior = p2[:, 1:, 1:]
        axes = np.stack([p2[:, 1:, 0], p2[:, 0, 1:]], axis=1)
        on_cross = np.ones(layout.n_p2, dtype=bool)
        on_cross[interior] = False
        cross, to_cross = _numbering(on_cross)
        k = interior.shape[-1]
        gamma = to_cross[axes.reshape(2, 2 * k)]
        vectors, scale, edge = _interior_square(k)
        k_gg = k_unit[cross][:, cross].tocoo()
        stiffness = sp.csr_matrix((
            np.concatenate([k_gg.data, -np.tile(_axis_schur(vectors, scale, edge).ravel(), 2)]),
            (np.concatenate([k_gg.row, np.repeat(gamma, 2 * k, axis=1).ravel()]),
             np.concatenate([k_gg.col, np.tile(gamma, 2 * k).ravel()])),
        ), shape=(len(cross), len(cross)))
        return cls(cross=cross, to_cross=to_cross, interior=interior, axes=axes, stiffness=stiffness,
                   vectors=vectors, scale=scale, edge=edge)

    def _solve(self, f: np.ndarray) -> np.ndarray:
        """K_II^-1 on a (2, k, k) load."""
        return self.vectors @ (self.vectors.T @ f @ self.vectors / self.scale) @ self.vectors.T

    def condense(self, g: np.ndarray) -> None:
        """Move the interior part of the load ``g`` onto the axes: g_G -= K_GI K_II^-1 g_I, in place."""
        x = self._solve(g[self.interior])
        g[self.axes[:, 0]] += self.edge * x[:, :, 0]
        g[self.axes[:, 1]] += self.edge * x[:, 0, :]

    def recover(self, y: np.ndarray, g: np.ndarray) -> None:
        """Fill the interior of the field ``y`` from its cross: y_I = K_II^-1 (g_I - K_IG y_G), in place."""
        load = g[self.interior]
        load[:, :, 0] += self.edge * y[self.axes[:, 0]]
        load[:, 0, :] += self.edge * y[self.axes[:, 1]]
        y[self.interior] = self._solve(load)


def _hybrid_factorization(system: SaddleSystem):
    """Factor the hybridized ``system`` once; return its solve.

    The returned function maps a right-hand side of the full [u1|p2|phi|p1]
    system to its solution.  Region-1 fluxes are broken per triangle, and
    their continuity across each ``INTERIOR_1`` edge e is imposed by a
    multiplier, the pressure trace on e: it enters the flux row of each of
    its triangles with that triangle's outward sign of e, and the whole flux
    load of e stays on the first triangle.  Every triangle's three fluxes
    and its cell pressure are eliminated through its 4x4 local saddle,
    interface fluxes too: the coupling S ties an interface flux to the p2
    values at its edge's ends.  So a flux slot reaches at most two global
    columns, the multiplier of its edge or those two p2 values, and every
    condensed entry scales like 1/a1.

    The potential is decoupled through psi = p2 + a2 phi (phi = 0 at the
    pin).  The potential rows read K[phi] (p2 + a2 phi) = F_phi with the unit
    region-2 stiffness K, whose rows sum to zero, so psi_phi = psi0 + p2[pin]
    with K_phiphi psi0 = F_phi.  Substituting phi = (psi - p2) / a2 into the
    p2 rows turns their potential coupling into K p2 / a2 and moves
    K[:, phi] psi0 / a2 to the load; as the columns of K sum to zero too,
    that is f / a2 with f the load F_phi extended by -sum(F_phi) on the pin
    row, so psi0 only recovers phi.  K psi = f fixes psi up to a constant,
    and any solution gives psi0 = psi[phi] - psi[pin]: psi is fixed to 0 at
    the first kept p2 unknown, whatever the pin.

    On a mesh that ``build_cartesian_mesh`` holds, a p2 row off the
    interface cross holds K / a2 alone, and K psi = f holds there too, so
    the interior of each region-2 square is eliminated in closed form from
    both (``_Region2Interior``): the p2 load and f are each condensed onto
    the axes, the cross carries the Steklov-Poincare stiffness
    (K_GG - K_GI K_II^-1 K_IG) / a2 for p2 and its unit form for psi, and
    the interior values of p2 and of psi are each recovered after the
    solves.  So the kept p2 unknowns are the 4k + 1 on the cross at level
    k, and on any other mesh all of them, with the unit stiffness K itself.
    SuperLU factors [multipliers | kept p2], which reads that one unit
    stiffness on the kept p2, and, for psi, its slice without the first row
    and column.  The former has a zero-free diagonal: with N the flux block
    of a local saddle inverse, a multiplier's diagonal is a sum of -N_ii,
    negative, and that of p2 adds the condensed S N S^T to M_beta plus the
    stiffness over a2, positive.
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
    # The triangle that loads and recovers a flux: the first one of its edge, or the region-1 side.
    own = (m.edge_tris[edges, 0] == tris[:, None]) | iface
    u1_dofs = lo.edge_to_u1[edges]

    # The p2 unknowns SuperLU keeps, and their unit region-2 stiffness.
    grids = _region2_grids(m)
    if grids is None:
        interior, kept, stiffness = None, np.arange(n_p2), system.K
        to_kept = kept
    else:
        interior = _kept(m, "region-2 interior", lambda: _Region2Interior.of(lo, grids, system.K))
        kept, to_kept, stiffness = interior.cross, interior.to_cross, interior.stiffness

    # Hybrid dofs: the multipliers, in u1 order, then the kept p2.
    multipliers, u1_to_h = _numbering(m.edge_kind[lo.u1_edges] == EdgeKind.INTERIOR_1)
    n_h = len(multipliers)
    n = n_h + len(kept)

    # The two global columns of each flux slot, (t, 3, 2) with -1 for none,
    # and its couplings to them: the triangle's outward sign of the edge to
    # a multiplier, or S to the p2 values at the ends of an interface edge.
    # The p2 rows of A read -S^T.
    cols = np.full((len(tris), 3, 2), -1, dtype=np.int64)
    cols[..., 0] = u1_to_h[u1_dofs]
    signs = m.tri_edge_signs[tris].astype(float)
    couple = np.zeros((len(tris), 3, 2))
    couple[..., 0] = np.where(cols[..., 0] >= 0, signs, 0.0)
    e = m.interface_edges
    t1 = lo.tri_to_p1[m.interface_tri1]
    cols[t1, m.interface_slot] = n_h + to_kept[lo.vert_to_p2[m.edges[e]]]
    couple[t1, m.interface_slot] = _interface_coupling(m)
    reads = np.where(iface[..., None], -couple, couple)
    valid = cols >= 0

    inverse = _local_saddle_inverse(system.flux_mass, signs)
    flux_inverse = inverse[:, :3, :3]

    def condensed(t, c, d):
        """Condensed element matrices of triangles ``t``, slot column ``c`` by slot column ``d``."""
        local = -(reads[t, :, c, None] * flux_inverse[t] * couple[t, None, :, d])
        return local, cols[t, :, c], cols[t, :, d]

    # Only the triangles with an interface slot have second columns.
    side = np.flatnonzero(iface.any(axis=1))
    parts = [condensed(slice(None), 0, 0)] + [condensed(side, c, d) for c, d in ((0, 1), (1, 0), (1, 1))]
    vals, rows, h_cols = map(np.concatenate, zip(*(_scatter_entries(*part) for part in parts)))
    # M_beta, the [p2 | p2] block of A, read off its CSR rows; the stiffness / a2 is added to it.
    a, start = system.A, system.A.indptr[n_u1]
    a_rows = np.repeat(np.arange(n_p2), np.diff(a.indptr[n_u1:]))
    a_cols = a.indices[start:] - n_u1
    on_p2 = a_cols >= 0
    k_entries = stiffness.tocoo()
    hybrid = sp.csc_matrix((
        np.concatenate([a.data[start:][on_p2], k_entries.data / a2, vals]),
        (np.concatenate([n_h + to_kept[a_rows[on_p2]], n_h + k_entries.row, rows]),
         np.concatenate([n_h + to_kept[a_cols[on_p2]], n_h + k_entries.col, h_cols])),
    ), shape=(n, n))
    hybrid.eliminate_zeros()
    lu = _factor(hybrid)
    # psi's Laplacian: the unit stiffness on the kept p2 unknowns but the first, where psi is 0.
    laplacian = _factor(stiffness[1:, 1:])
    # Index arrays of every solve, made after the factorizations so as not to raise their peak memory.
    valid_cols, owned_u1 = cols[valid], u1_dofs[own]

    def solve_full(b):
        f_phi = b[lo.offset_phi:lo.offset_p1]
        load = np.zeros((len(tris), 4))
        load[:, :3] = np.where(own, b[u1_dofs], 0.0)
        load[:, 3] = b[lo.offset_p1:]
        z = np.einsum("tij,tj->ti", inverse, load)
        # The psi load f, extended to the pin row, and the p2 load.
        f = np.zeros(n_p2)
        f[phi] = f_phi
        f[pin] = -f_phi.sum()
        load_p2 = b[n_u1:lo.offset_phi] + f / a2
        if interior is not None:
            interior.condense(load_p2)
            interior.condense(f)
        g = np.zeros(n)
        g[n_h:] = load_p2[kept]
        g -= np.bincount(valid_cols, (reads * z[:, :3, None])[valid], minlength=n)
        y = lu.solve(g)
        z -= np.einsum("tij,tj->ti", inverse[:, :, :3],
                       couple[..., 0] * y[cols[..., 0]] + couple[..., 1] * y[cols[..., 1]])
        u1 = np.empty(n_u1)
        u1[owned_u1] = z[:, :3][own]
        p2 = np.empty(n_p2)
        p2[kept] = y[n_h:]
        psi = np.zeros(n_p2)
        psi[kept[1:]] = laplacian.solve(f[kept[1:]])
        if interior is not None:
            interior.recover(p2, a2 * load_p2)
            interior.recover(psi, f)
        return np.concatenate([u1, p2, (psi[phi] - psi[pin] + p2[pin] - p2[phi]) / a2, z[:, 3]])

    return solve_full


def solve(system: SaddleSystem) -> SolutionFields:
    """Hybridized direct solve with one refinement step and a relative residual guard.

    Region 1 is hybridized and condensed element by element, and the
    potential is decoupled through psi = p2 + a2 phi (see
    ``_hybrid_factorization``).  On a mesh that ``build_cartesian_mesh``
    holds, the psi and p2 unknowns off the interface cross are eliminated in
    closed form; on any other mesh every p2 unknown is kept.  SuperLU
    factors psi's Laplacian on the kept p2, fixed at the first, and the
    condensed [multipliers | kept p2] system, which has a zero-free
    diagonal (negative on the multipliers, positive on p2), both with a
    symmetric-mode minimum-degree ordering.  One step of iterative
    refinement against the residual of the full saddle system, applied
    block by block, follows, and the guard checks that residual relative to
    the largest load entry.
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
