"""Direct solution of the saddle-point system and well-posedness diagnostics.

``solve`` hybridizes region 1 (Arnold and Brezzi, M2AN 19, 1985; Boffi,
Brezzi and Fortin, *Mixed Finite Element Methods*, 2013, section 7.2):
the RT0 fluxes are broken per triangle, a multiplier (the pressure trace)
on every interior region-1 edge restores their continuity, and each
triangle's fluxes and cell pressure are eliminated locally.  The potential
is decoupled: as a2 is a region constant, psi = p2 + a2 phi solves a
region-2 Laplacian on its own.

On a mesh that ``build_cartesian_mesh`` holds, both regions are reduced
onto the interface cross in closed form, by the capacitance-matrix method
of Buzbee, Dorr, George and Golub (SIAM J. Numer. Anal. 8, 1971).  Off the
cross, p2 and psi meet only the 5-point stencil on two unit squares,
eliminated with quarter-wave sines one field at a time.  The multiplier
block is -CR / a1, the Crouzeix-Raviart stiffness of the region-1
triangles: each cell's diagonal drops out, and the legs are eliminated with
sine modes.  The 4k + 1 cross p2 values at level k are left with one dense
Steklov-Poincare matrix: 385 unknowns at level 96.  On any other mesh every
unknown is kept, and the condensed system of the multipliers and p2 is
sparse (73,729 unknowns with a fill of 2.1M at level 96, against 14.0M for
the full saddle matrix), with a zero-free diagonal (negative on the
multipliers, positive on p2).  Region 2 has one unit stiffness on the kept
p2 unknowns, of the same storage, and its slice without the first row and
column is psi's Laplacian, fixed at the first.  ``_factor`` factors every
matrix: a dense one with ``scipy.linalg.lu_factor``, so no registry-mesh
solve calls SuperLU, and a sparse one with SuperLU and a symmetric-mode
minimum-degree ordering instead of COLAMD with partial pivoting.

Both hybrid systems are built from element parts alone: the local saddle
inverses of the kept unit flux masses times a1, the interface trace mass
and the region-2 stiffness.  ``solve`` reads the assembled blocks A, B^T,
B and C only for its residual.  On a registry mesh the local saddles of
the region-1 triangles fall into two classes, one per orientation, which
differ within a class only by the rounding of the geometry, so one local
saddle is inverted per orientation; on any other mesh one is inverted per
triangle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (
    AdmissibilityError, SaddleSystem, _interface_coupling, _interface_trace_mass, _p1_local_stiffness, _scatter,
    _unit_flux_mass,
)
from .mesh import EdgeKind, _kept, _region1_grids, _region2_grids
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


def _factor(matrix):
    """The solve of ``matrix``: SuperLU of a sparse one with a zero-free diagonal, LAPACK's LU of a dense one.

    SuperLU takes a symmetric-mode minimum-degree ordering.  A dense matrix
    is factored as its transpose, which is Fortran-ordered, so a writeable
    C-ordered ``matrix`` is overwritten instead of copied; a read-only one
    is copied.
    """
    try:
        if sp.issparse(matrix):
            return spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                             options={"SymmetricMode": True}).solve
        # lu_factor only warns on an exactly singular matrix.
        with warnings.catch_warnings():
            warnings.simplefilter("error", la.LinAlgWarning)
            lu = la.lu_factor(matrix.T, overwrite_a=matrix.flags.writeable)
        return lambda b: la.lu_solve(lu, b, trans=1, check_finite=False)
    except (MemoryError, RuntimeError, ValueError, la.LinAlgWarning) as err:
        # SuperLU's allocation failures are RuntimeErrors: "SUPERLU_MALLOC fails for ...",
        # "malloc fails ...", "Not enough memory to perform factorization.".
        if isinstance(err, MemoryError) or any(word in str(err).lower() for word in ("malloc", "memory")):
            raise SolverError(f"factorization ran out of memory: {err}") from err
        raise SolverError(f"singular factorization: {err}") from err


def _cofactor_inverse(mass: np.ndarray, a: float) -> np.ndarray:
    """(3, 3, t) entry planes of Minv = cof(M) / (a det M) for (t, 3, 3) symmetric ``mass``.

    The entry planes of ``mass`` are contiguous copies, freed on return.
    """
    (m11, m12, m13), (_, m22, m23), (_, _, m33) = np.ascontiguousarray(mass.transpose(1, 2, 0))
    minv = np.array([
        [m22 * m33 - m23 * m23, m13 * m23 - m12 * m33, m12 * m23 - m13 * m22],
        [m13 * m23 - m12 * m33, m11 * m33 - m13 * m13, m12 * m13 - m11 * m23],
        [m12 * m23 - m13 * m22, m12 * m13 - m11 * m23, m11 * m22 - m12 * m12],
    ])
    minv /= a * (m11 * minv[0, 0] + m12 * minv[0, 1] + m13 * minv[0, 2])
    return minv


def _local_saddle_inverse(mass: np.ndarray, s: np.ndarray, a: float) -> np.ndarray:
    """(t, 4, 4) inverses of the local saddles [[a M, -s], [s^T, 0]] for (t, 3, 3) SPD ``mass``.

    With Minv = cof(M) / (a det M), w = Minv s and sigma = s^T w, the inverse
    is [[Minv - w w^T / sigma, w / sigma], [-w^T / sigma, 1 / sigma]].  Zero
    or non-finite det M, sigma or ``a`` leaves a non-finite entry.
    """
    # Entry planes (3, 3, t) and (3, t): elementwise arithmetic on contiguous rows.
    s = np.ascontiguousarray(s.T)
    with np.errstate(all="ignore"):
        minv = _cofactor_inverse(mass, a)
        w = (minv * s).sum(axis=1)
        sigma = (s * w).sum(axis=0)
        # Filled in place, (t, 3) rows at a time: staged (4, 4, t) planes would hold two more copies.
        inverse = np.empty((len(sigma), 4, 4))
        ws = w / sigma
        inverse[:, :3, 3] = ws.T
        inverse[:, 3, :3] = -ws.T
        for i in range(3):
            inverse[:, i, :3] = (minv[i] - w[i] * ws).T
        inverse[:, 3, 3] = 1.0 / sigma
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
    The dense cross stiffness starts the cross matrix of p2 as stiffness / a2,
    and its slice is psi's Laplacian.  ``condense`` and ``recover`` act on one
    field over all p2 unknowns at a time.
    """

    cross: np.ndarray     # (4k+1,) p2 indices on the cross, ascending: the kept p2 unknowns
    to_cross: np.ndarray  # (n_p2,) index of each p2 unknown in ``cross``, -1 off the cross
    interior: np.ndarray  # (2, k, k) p2 indices of the vertices (a, b), a, b = 1..k, of Q2 and Q4
    axes: np.ndarray      # (2, 2, k) p2 indices of (a, 0) and of (0, b), a, b = 1..k
    stiffness: np.ndarray  # (4k+1, 4k+1) the unit stiffness of region 2 on ``cross``, interior eliminated
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
        stiffness = k_unit[cross][:, cross].toarray()
        schur = _axis_schur(vectors, scale, edge)
        for axis in gamma:
            stiffness[np.ix_(axis, axis)] -= schur
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


def _leg_modes(k: int):
    """The sine modes of the legs of one region-1 square at level k, and the inverse of each mode's block.

    On a unit right triangle the Crouzeix-Raviart stiffness is 4 on the
    diagonal's midpoint, 2 on each leg's and -2 between the diagonal and a
    leg, so in CR each cell's diagonal couples only to its own four legs and
    drops out: the legs keep L = CR_ll - CR_ld CR_dd^-1 CR_dl, 3 on the
    diagonal and -1/2 between any two legs of one cell.  The interior
    horizontal legs (i+1/2, j) take the modes sin(p pi (i+1/2) / k)
    sin(q pi j / k), the vertical legs (i, j+1/2) the transpose, and L pairs
    the two modes (p, q) alone, in the block [[3 - cos q', -2 c_p c_q],
    [-2 c_p c_q, 3 - cos p']] with p' = p pi / k and c_p = cos(p' / 2), of
    determinant 4 (2 - cos p' - cos q').  Mode k of a DST-I is zero and c_k
    = 0, so one (k, k) grid of modes holds both kinds.  Returns the
    orthonormal DST-I on the vertex lines 0..k (zero on 0 and k), the DST-II
    on the cell lines 0..k-1, and the entries hh, hv, vv of the inverse
    blocks, each (k, k) over (p, q).
    """
    steps = np.arange(k + 1)
    modes = np.arange(1, k + 1)
    norm = np.sqrt(2.0 / k)
    lines = norm * np.sin(np.pi / k * (np.outer(steps, modes) % (2 * k)))
    lines[[0, k]] = 0.0
    lines[:, -1] = 0.0
    cells = norm * np.sin(np.pi / (2 * k) * (np.outer(2 * steps[:-1] + 1, modes) % (4 * k)))
    cells[:, -1] /= np.sqrt(2.0)
    cos = np.cos(np.pi / k * modes)
    half = np.cos(np.pi / (2 * k) * modes)
    half[-1] = 0.0
    det = 4.0 * (2.0 - cos[:, None] - cos[None, :])
    return lines, cells, (3.0 - cos[:, None]) / det, 2.0 * np.outer(half, half) / det, (3.0 - cos[None, :]) / det


def _near_inverse(lines, cells, hh, hv, vv) -> np.ndarray:
    """CR^-1 of one region-1 square among the multipliers of its interface triangles, in closed form.

    The multipliers are, in order, the diagonals of the cells (i, 0), i =
    0..k-1, and (0, j), j = 1..k-1, the left legs of the cells (i, 0), i =
    1..k-1, and the lower legs of the cells (0, j), j = 1..k-1
    (``_leg_modes``).  With the diagonals eliminated, CR^-1 is 1/8 + (sum of
    L^-1 over the legs of both cells) / 16 between two diagonals, (sum over
    the diagonal's legs) / 4 between a diagonal and a leg, and L^-1 between
    legs.  The legs of the cells next to the interface lie on four lines,
    and a leg on a line takes the value along[a, p] fixed[q] in mode (p, q),
    or the transpose, so L^-1 between two lines is a few dense products over
    one mode index, as in ``_axis_schur``.
    """
    k = len(cells)
    inverse = {"hh": hh, "hv": hv, "vh": hv, "vv": vv}
    # (values along the line, the mode row of its fixed coordinate, 0 if it runs along x, leg kind)
    rows = [(lines, cells[0], 0, "v"),  # left legs of the cells (i, 0), i = 0..k
            (cells, lines[1], 0, "h"),  # lower legs of the cells (i, 1), i = 0..k-1
            (lines, cells[0], 1, "h"),  # lower legs of the cells (0, j), j = 0..k
            (cells, lines[1], 1, "v")]  # left legs of the cells (1, j), j = 0..k-1

    def block(one, two):
        (a, f, ax, s), (b, g, bx, t) = one, two
        m = inverse[s + t] if ax == 0 else inverse[s + t].T
        return (a * (m @ (f * g))) @ b.T if ax == bx else a @ (m * np.outer(g, f)) @ b.T

    # L^-1 is symmetric: the blocks below the diagonal are transposes.
    blocks = {(i, j): block(rows[i], rows[j]) for i in range(4) for j in range(i, 4)}
    legs = np.block([[blocks[i, j] if i <= j else blocks[j, i].T for j in range(4)] for i in range(4)])

    def combine(x):
        """The rows of ``near`` from the rows of the four lines."""
        a, b, c, d = np.split(x, [k + 1, 2 * k + 1, 3 * k + 2])
        return np.concatenate([(a[:-1] + a[1:] + b) / 4, (c[1:-1] + c[2:] + d[1:]) / 4, a[1:-1], c[1:-1]])

    near = np.ascontiguousarray(combine(combine(legs).T).T)
    diagonals = np.arange(2 * k - 1)
    near[diagonals, diagonals] += 0.125
    return near


@dataclass(frozen=True)
class _Region1Multipliers:
    """The multipliers of the two region-1 squares of a registry mesh, eliminated in closed form.

    Hybridized RT0 is nonconforming P1 (Arnold and Brezzi, M2AN 19, 1985):
    the multiplier block of the hybrid system is -CR / a1, with CR the unit
    Crouzeix-Raviart stiffness of the region-1 triangles on their interior
    edges, the rows next to the interface too.  The squares Q1 and Q3 share
    no multiplier, and in the frames of ``_region1_grids`` their CR is the
    same: ``solve`` applies CR^-1 by the sine modes of ``_leg_modes``, and
    ``near_inverse`` holds it among the multipliers that reach the cross.
    """

    diagonals: np.ndarray  # (2, k, k) multiplier of each cell's diagonal, by square
    lower: np.ndarray      # (2, k, k-1) of the lower legs of the cells (i, j), j = 1..k-1
    left: np.ndarray       # (2, k-1, k) of the left legs of the cells (i, j), i = 1..k-1
    lines: np.ndarray      # (k+1, k) and (k, k): the DST-I and DST-II of ``_leg_modes``
    cells: np.ndarray
    hh: np.ndarray         # (k, k) each: the inverse mode blocks
    hv: np.ndarray
    vv: np.ndarray
    near: np.ndarray       # (2, 4k-3) multipliers of the interface triangles (``_near_inverse``), by square
    to_near: np.ndarray    # (n_h,) index of each multiplier in ``near`` of its square, -1 elsewhere
    near_inverse: np.ndarray  # (4k-3, 4k-3) CR^-1 among ``near`` of one square
    edges: np.ndarray      # (2, 2k) the interface edges of each square, as indices of ``interface_edges``

    @classmethod
    def of(cls, grids: np.ndarray, quadrants: np.ndarray) -> "_Region1Multipliers":
        """The elimination on the multiplier ids ``grids`` of the edges of ``_region1_grids``.

        ``quadrants`` holds the quadrant of the region-1 triangle of each interface edge.
        """
        diagonals, lower, left = grids[0], grids[1][:, :, 1:], grids[2][:, 1:]
        modes = _leg_modes(diagonals.shape[-1])
        near = np.concatenate([diagonals[:, :, 0], diagonals[:, 0, 1:], left[:, :, 0], lower[:, 0]], axis=1)
        to_near = np.full(grids[0].size + lower.size + left.size, -1, dtype=np.int64)
        to_near[near] = np.arange(near.shape[1])
        edges = np.stack([np.flatnonzero(quadrants == 1), np.flatnonzero(quadrants == 3)])
        return cls(diagonals, lower, left, *modes, near=near, to_near=to_near,
                   near_inverse=_near_inverse(*modes), edges=edges)

    def solve(self, r: np.ndarray) -> np.ndarray:
        """CR^-1 r for a load ``r`` on every multiplier."""
        d = r[self.diagonals]
        lower = r[self.lower] + (d[:, :, 1:] + d[:, :, :-1]) / 4
        left = r[self.left] + (d[:, 1:] + d[:, :-1]) / 4
        lines = self.lines[1:-1]
        h = self.cells.T @ lower @ lines
        v = lines.T @ left @ self.cells
        lower = self.cells @ (self.hh * h + self.hv * v) @ lines.T
        left = lines @ (self.hv * h + self.vv * v) @ self.cells.T
        d[:, :, 1:] += 2 * lower
        d[:, :, :-1] += 2 * lower
        d[:, 1:] += 2 * left
        d[:, :-1] += 2 * left
        x = np.empty(len(r))
        x[self.diagonals] = d / 8
        x[self.lower] = lower
        x[self.left] = left
        return x

    def factor(self, a1: float, cross: np.ndarray, ids: np.ndarray, down: np.ndarray, up: np.ndarray,
               couple: np.ndarray, ends: np.ndarray):
        """The solve of a hybrid system with the multiplier block -CR / a1, by its Steklov-Poincare matrix on the cross.

        Interface edge e couples to the multipliers ``ids[e]`` of the other
        two slots of its region-1 triangle (-1 for none, with zero
        couplings) and to the cross p2 values ``ends[e]``: H_hp[ids[e, b],
        ends[e, d]] = down[e, b] couple[e, d], H_ph[ends[e, d], ids[e, b]] =
        couple[e, d] up[e, b], and ``cross`` holds H_pp.  With h the
        multipliers and p the cross, y_p solves the dense (H_pp + a1 H_ph
        CR^-1 H_hp) y_p = g_p + a1 H_ph CR^-1 g_h, and y_h = -a1 CR^-1 (g_h
        - H_hp y_p).  H_hp and H_ph reach only ``near``, so the dense matrix
        needs ``near_inverse`` alone: per square, Y = up^T CR^-1 down over
        its 2k edges, times a1 and the couplings, is added into ``cross`` in
        place at their ends, and ``cross`` is then factored in place.
        """
        n_h, n_c = len(self.to_near), len(cross)
        # A missing multiplier has zero couplings, so any slot serves it.
        slots = np.where(ids >= 0, self.to_near[ids], 0)
        for edges in self.edges:
            near, c, p = slots[edges], couple[edges], ends[edges]
            zd = (self.near_inverse[:, near] * down[edges]).sum(axis=2)
            y = (zd[near] * up[edges][:, :, None]).sum(axis=1)
            spread = (a1 * c)[:, :, None, None] * y[:, None, :, None] * c[None, None]
            np.add.at(cross.reshape(-1), (p[:, :, None, None] * n_c + p[None, None]).ravel(), spread.ravel())
        solve_cross = _factor(cross)
        ids = np.maximum(ids, 0)

        def solve(g):
            g_h = g[:n_h]
            reach = (up * self.solve(g_h)[ids]).sum(axis=1)
            y_p = solve_cross(g[n_h:] + a1 * np.bincount(ends.ravel(), (couple * reach[:, None]).ravel(), n_c))
            load = (couple * y_p[ends]).sum(axis=1)
            g_h = g_h - np.bincount(ids.ravel(), (down * load[:, None]).ravel(), n_h)
            return np.concatenate([-a1 * self.solve(g_h), y_p])

        return solve


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
    condensed entry scales like 1/a1.  On a registry mesh a triangle's
    local saddle is that of its orientation, the parity of its p1 index
    (``build_cartesian_mesh`` numbers the lower triangle of each cell even
    and the upper one odd), so the local saddles of the first two p1
    triangles are the only ones inverted, and each inverse acts on its half
    of the triangles with one matrix product.  On any other mesh every
    triangle's local saddle is inverted.

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
    k, with their dense stiffness, and on any other mesh all of them, with
    the sparse unit stiffness K itself.  ``_factor`` factors that one unit
    stiffness on the kept p2 without the first row and column, for psi.

    The hybrid system [multipliers | kept p2] reads that stiffness too.  On
    a registry mesh its multiplier block is -CR / a1, known in closed form,
    so only the triangles with an interface slot are condensed, and the
    multipliers are eliminated onto the cross (``_Region1Multipliers``):
    ``_factor`` factors the dense Steklov-Poincare matrix of the cross p2
    values, the multiplier load is condensed onto it and the multipliers are
    recovered after its solve.  The cross matrix starts as the stiffness
    over a2, and M_beta + S N_ss S^T of each interface edge and the
    multiplier Schur term of each region-1 square are added into it in
    place.  So every factorization on a registry mesh is dense.  On any
    other mesh the whole sparse hybrid system is scattered from its element
    matrices, the condensed ones, the M_beta of each interface edge and each
    stiffness entry over a2, and ``_factor`` hands it to SuperLU.  It has a
    zero-free diagonal: with N the flux block of a local saddle inverse, a
    multiplier's diagonal is a sum of -N_ii, negative, and that of p2 adds
    the condensed S N S^T to M_beta plus the stiffness over a2, positive.
    None of the assembled blocks A, B, B^T and C is read: only K, the unit
    flux masses kept on the mesh, the coefficients, the mesh and the layout.
    """
    m, lo = system.mesh, system.layout
    n_u1, n_p2 = lo.n_u1, lo.n_p2
    # ``coeffs`` can be replaced after ``assemble_system`` validated them: check them by the same rule.
    try:
        system.coeffs.validate()
    except AdmissibilityError as err:
        raise SolverError(f"inadmissible coefficients {system.coeffs}: {err}") from err
    a2 = system.coeffs.a2
    phi = lo.phi_to_p2
    pin = lo.vert_to_p2[lo.pinned_vertex]
    tris = lo.p1_triangles
    edges = m.tri_edges[tris]
    iface = m.edge_kind[edges] == EdgeKind.INTERFACE
    # The triangle that loads and recovers a flux: the first one of its edge, or the region-1 side.
    own = (m.edge_tris[edges, 0] == tris[:, None]) | iface
    u1_dofs = lo.edge_to_u1[edges]

    # Hybrid dofs: the multipliers, in u1 order, then the kept p2 unknowns,
    # with their unit region-2 stiffness.  A registry mesh keeps the cross alone.
    multipliers, u1_to_h = _numbering(m.edge_kind[lo.u1_edges] == EdgeKind.INTERIOR_1)
    n_h = len(multipliers)
    grids = _region2_grids(m)
    if grids is None:
        interior, region1, kept, stiffness = None, None, np.arange(n_p2), system.K
        to_kept = kept
    else:
        interior, region1 = _kept(m, "cross reduction", lambda: (
            _Region2Interior.of(lo, grids, system.K),
            _Region1Multipliers.of(u1_to_h[lo.edge_to_u1[_region1_grids(m)]], m.tri_quadrant[m.interface_tri1]),
        ))
        kept, to_kept, stiffness = interior.cross, interior.to_cross, interior.stiffness
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
    t1, s = lo.tri_to_p1[m.interface_tri1], m.interface_slot
    ends = to_kept[lo.vert_to_p2[m.edges[m.interface_edges]]]
    cols[t1, s] = n_h + ends
    couple[t1, s] = _interface_coupling(m)
    reads = np.where(iface[..., None], -couple, couple)
    valid = cols >= 0

    a1 = system.coeffs.a1
    # M_beta, the [p2 | p2] block of A, on the ends of each interface edge: kept p2 unknowns.
    trace_mass = _interface_trace_mass(m, system.coeffs.beta)

    if region1 is None:
        inverse = _local_saddle_inverse(_unit_flux_mass(m, lo), signs, a1)
        flux_inverse = inverse[:, :3, :3]

        def apply_local(x):
            """Each triangle's local saddle inverse, its first ``x.shape[1]`` columns, times its row of ``x``."""
            return np.einsum("tij,tj->ti", inverse[:, :, :x.shape[1]], x)

        def condensed(t, c, d):
            """Condensed element matrices of triangles ``t``, slot column ``c`` by slot column ``d``."""
            local = -(reads[t, :, c, None] * flux_inverse[t] * couple[t, None, :, d])
            return local, cols[t, :, c], cols[t, :, d]

        # Only the triangles with an interface slot have second columns; each
        # stiffness entry over a2 is a 1x1 element matrix.
        side = np.flatnonzero(iface.any(axis=1))
        k = stiffness.tocoo()
        parts = [condensed(slice(None), 0, 0), *(condensed(side, c, d) for c, d in ((0, 1), (1, 0), (1, 1))),
                 (trace_mass, n_h + ends, n_h + ends),
                 (k.data[:, None, None] / a2, n_h + k.row[:, None], n_h + k.col[:, None])]
        solve_hybrid = _factor(_scatter(parts, (n, n)))
    else:
        # A local saddle is that of its triangle's orientation, the parity of
        # its p1 index, as both triangles of a cell lie in one region: the
        # first two p1 triangles stand for the two classes.
        inverse = _local_saddle_inverse(_unit_flux_mass(m, lo)[:2], signs[:2], a1)
        flux_inverse = inverse[:, :3, :3]

        def apply_local(x):
            """``apply_local`` of a copy, by one matrix product per class over the (t/2, 2, n) view of ``x``."""
            pairs, z = x.reshape(-1, 2, x.shape[1]), np.empty((len(x) // 2, 2, 4))
            for c in range(2):
                np.matmul(pairs[:, c], inverse[c, :, :x.shape[1]].T, out=z[:, c])
            return z.reshape(-1, 4)

        # Each interface flux, in slot s of its triangle, couples through N,
        # the flux block of the local inverse, to the multipliers of the other
        # slots and, by S, to the p2 values at its ends, which also get S N_ss S^T.
        other = (s[:, None] + np.array([1, 2])) % 3
        t, n_c, orient = t1[:, None], len(kept), t1 % 2
        ids, sign, trace = cols[t, other, 0], couple[t, other, 0], couple[t1, s]
        block = trace_mass + trace[:, :, None] * flux_inverse[orient, s, s][:, None, None] * trace[:, None]
        cross = stiffness / a2
        # Added through the flat view: np.add.at over (rows, cols) is about twice as slow.
        np.add.at(cross.reshape(-1), (ends[:, :, None] * n_c + ends[:, None]).ravel(), block.ravel())
        solve_hybrid = region1.factor(
            a1, cross, ids, -sign * flux_inverse[orient[:, None], other, s[:, None]],
            flux_inverse[orient[:, None], s[:, None], other] * sign, trace, ends,
        )
    # psi's Laplacian: the unit stiffness on the kept p2 unknowns but the first, where psi is 0.
    solve_laplacian = _factor(stiffness[1:, 1:])
    # Index arrays of every solve, made after the factorizations so as not to raise their peak memory.
    valid_cols, owned_u1 = cols[valid], u1_dofs[own]

    def solve_full(b):
        f_phi = b[lo.offset_phi:lo.offset_p1]
        load = np.zeros((len(tris), 4))
        load[:, :3] = np.where(own, b[u1_dofs], 0.0)
        load[:, 3] = b[lo.offset_p1:]
        z = apply_local(load)
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
        y = solve_hybrid(g)
        z -= apply_local(couple[..., 0] * y[cols[..., 0]] + couple[..., 1] * y[cols[..., 1]])
        u1 = np.empty(n_u1)
        u1[owned_u1] = z[:, :3][own]
        p2 = np.empty(n_p2)
        p2[kept] = y[n_h:]
        psi = np.zeros(n_p2)
        psi[kept[1:]] = solve_laplacian(f[kept[1:]])
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
    holds, the multipliers and the psi and p2 unknowns off the interface
    cross are eliminated in closed form, and ``lu_factor`` factors the dense
    matrix of the cross p2 values and psi's dense Laplacian on the cross,
    fixed at its first value.  On any other mesh every unknown is kept, and
    SuperLU factors the condensed [multipliers | p2] system, which has a
    zero-free diagonal (negative on the multipliers, positive on p2), and
    psi's Laplacian on every p2 unknown but the first, with a symmetric-mode
    minimum-degree ordering.  One step of iterative refinement against the
    residual of the full saddle system, applied block by block, follows,
    and the guard checks that residual relative to the largest load entry.
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
    g_u1 = _unit_flux_mass(m, lo) + np.einsum("ti,tj->tij", signs, signs) / m.areas[tris1][:, None, None]
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
