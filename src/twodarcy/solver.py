"""Direct solution of the saddle-point system and well-posedness diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (
    SaddleSystem,
    p1_mass_omega2,
    p1_stiffness_omega2,
    rt0_divdiv,
    rt0_mass,
)
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


def solve(system: SaddleSystem) -> SolutionFields:
    """Sparse LU (partial pivoting) solve with a relative residual guard."""
    matrix = system.matrix().tocsc()
    rhs = system.rhs()
    try:
        lu = spla.splu(matrix)
    except RuntimeError as err:
        raise SolverError(f"singular factorization: {err}") from err
    x = lu.solve(rhs)
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
    g_p2 = p1_mass_omega2(m, lo) + p1_stiffness_omega2(m, lo)
    return sp.block_diag([g_u1, g_p2], format="csr")


def y_norm_gram(system: SaddleSystem) -> sp.csr_matrix:
    """Gram matrix of the [u2, p1] norm: gradient L2 and cell L2."""
    m, lo = system.mesh, system.layout
    g_phi = p1_stiffness_omega2(m, lo, rows_phi=True, cols_phi=True)
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
