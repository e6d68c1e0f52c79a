"""Error norms, convergence rates and study drivers.

Error columns are cell-sampled discrete norms: discrete and exact fields
are compared at element centroids and accumulated as
e^2 = sum_K |K| |err(c_K)|^2.  This is the verification convention for
lowest-order pairs on structured grids; the cellwise pressure and the flux
superconverge at centroids, which the plain L2 distance would hide.  The
divergence part of the H_div error compares the discrete flux divergence
with the centroid-sampled source; with the centroid-rule loads these agree
to solver tolerance, so the H_div column coincides with the L2 column.

Exact-solution norms (denominators of the relative errors) are continuous
L2/H1/H_div norms.  They do not depend on the mesh, so ``exact_norms``
integrates them once per case with a tensor Gauss rule on each unit
quadrant; only the relative table of the constant-flux study reads them.
Relative errors follow the h-scaled convention of that study:
100 * error * h / exact-norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import LINE_RULE, _LINE_HAT, _edge_points, assemble_system
from .manufactured import ManufacturedCase
from .mesh import REGION_OF_QUADRANT, BipartiteMesh, _is_integer, build_cartesian_mesh, quadrants_of
from .quadrature import segment_rule
from .solver import SolutionFields, SolverError, solve
from .spaces import _corner_sum, _p1_gradients, build_dof_layout, rt0_basis

__all__ = [
    "COLUMNS",
    "ErrorReport",
    "ConvergenceReport",
    "error_norms",
    "exact_norms",
    "rate",
    "convergence_study",
    "write_csv",
    "interface_flux_residuals",
    "u1_cell_values",
]

COLUMNS = ("p1", "p2_l2", "p2_h1", "u1_l2", "u1_hdiv", "u2")

CSV_HEADER = (
    "h_inv,e_p1,r_p1,e_p2_L2,r_p2_L2,e_p2_H1,r_p2_H1,"
    "e_u1_L2,r_u1_L2,e_u1_Hdiv,r_u1_Hdiv,e_u2,r_u2"
)


@dataclass(frozen=True)
class ErrorReport:
    """Error norms of one solve."""

    level_inv: int
    e_p1: float
    e_p2_l2: float
    e_p2_h1: float
    e_u1_l2: float
    e_u1_hdiv: float
    e_u2: float

    def errors(self) -> dict:
        return {c: getattr(self, f"e_{c}") for c in COLUMNS}

    def relative(self, norms: dict) -> dict:
        """Percentage errors, h-scaled against the exact ``norms`` (see ``exact_norms``)."""
        h = 1.0 / self.level_inv
        return {c: 100.0 * e * h / norms[c] for c, e in self.errors().items()}


def _check_mesh(sol: SolutionFields, m: BipartiteMesh) -> None:
    """Raise ValueError unless ``m`` has the triangles and edges of the solution's mesh."""
    layout = sol.layout
    if (len(layout.tri_to_p1) != m.n_triangles or len(layout.edge_to_u1) != m.n_edges
            or layout.n_p1 != len(sol.p1)):
        raise ValueError("solution fields do not belong to this mesh")


def u1_cell_values(sol: SolutionFields, m: BipartiteMesh) -> np.ndarray:
    """Flux field evaluated at the region-1 triangle centroids."""
    _check_mesh(sol, m)
    tris = sol.layout.p1_triangles
    basis = rt0_basis(m, tris, m.centroids[tris][:, None, :]).T[:, 0]      # (2, 3, t) planes
    return _corner_sum(sol.u1[sol.layout.edge_to_u1[m.tri_edges[tris].T]], basis)


# Lower-left corner of the unit square of each quadrant id.
_QUADRANT_CORNERS = {
    int(quadrants_of(ox + 0.5, oy + 0.5)): (ox, oy) for ox in (0.0, -1.0) for oy in (0.0, -1.0)
}


# The exact-norm rule integrates the square of a field of this per-direction degree exactly.
NORM_DEGREE = 10


def exact_norms(case: ManufacturedCase) -> dict:
    """Continuous exact-solution norms of ``case``, keyed like ``COLUMNS``.

    Each field is integrated over the quadrants of its region, one by one,
    with a tensor Gauss rule exact for per-direction degree
    ``2 * NORM_DEGREE`` (the square of a degree ``NORM_DEGREE`` field),
    evaluating the closed forms of that quadrant.
    """
    rule = segment_rule(2 * NORM_DEGREE)
    tx, ty = (t.ravel() for t in np.meshgrid(rule.points, rule.points, indexing="ij"))
    w = np.outer(rule.weights, rule.weights).ravel()

    def l2(field, region):
        total = 0.0
        for q in np.flatnonzero(REGION_OF_QUADRANT == region):
            ox, oy = _QUADRANT_CORNERS[q]
            values = np.asarray(field(ox + tx, oy + ty, q), dtype=float) ** 2
            total += float(w @ values.reshape(len(w), -1).sum(axis=1))
        return math.sqrt(total)

    norm_u1 = l2(case.u, 1)
    norm_p2 = l2(case.p, 2)
    return {
        "p1": l2(case.p, 1),
        "p2_l2": norm_p2,
        "p2_h1": math.hypot(norm_p2, l2(case.grad_p, 2)),
        "u1_l2": norm_u1,
        "u1_hdiv": math.hypot(norm_u1, l2(case.F, 1)),
        "u2": l2(case.u, 2),
    }


def error_norms(sol: SolutionFields, case: ManufacturedCase, m: BipartiteMesh) -> ErrorReport:
    """Cell-sampled error norms against the exact fields.

    The error columns are centroid-sampled discrete norms and carry no
    quadrature degree.
    """
    _check_mesh(sol, m)
    layout = sol.layout

    # Region 1: cell pressure, flux and its divergence at centroids.
    tris = layout.p1_triangles
    areas = m.areas[tris]
    c1 = m.centroids[tris]
    qc1 = m.tri_quadrant[tris]
    u1h_c = u1_cell_values(sol, m)
    div_h = (m.tri_edge_signs[tris] * sol.u1[layout.edge_to_u1[m.tri_edges[tris]]]).sum(axis=1) / areas

    e_p1 = math.sqrt(float(areas @ (sol.p1 - case.p(c1[:, 0], c1[:, 1], qc1)) ** 2))
    e_u1 = math.sqrt(float(
        areas @ ((u1h_c - case.u(c1[:, 0], c1[:, 1], qc1)) ** 2).sum(axis=-1)
    ))
    e_div = math.sqrt(float(areas @ (div_h - case.F(c1[:, 0], c1[:, 1], qc1)) ** 2))

    # Region 2: nodal pressure, its gradient and the potential velocity.
    tris2 = layout.u2_triangles
    areas2 = m.areas[tris2]
    c2 = m.centroids[tris2]
    qc2 = m.tri_quadrant[tris2]

    nodal = sol.p2[layout.vert_to_p2[m.triangles[tris2].T]]               # (3, t) corner values
    p2h_c = (nodal[0] + nodal[1] + nodal[2]) / 3.0
    g2h = _p1_gradients(m, tris2, nodal)

    e_p2 = math.sqrt(float(areas2 @ (p2h_c - case.p(c2[:, 0], c2[:, 1], qc2)) ** 2))
    e_semi = math.sqrt(float(
        areas2 @ ((g2h - case.grad_p(c2[:, 0], c2[:, 1], qc2)) ** 2).sum(axis=-1)
    ))
    e_u2 = math.sqrt(float(
        areas2 @ ((sol.u2 - case.u(c2[:, 0], c2[:, 1], qc2)) ** 2).sum(axis=-1)
    ))

    return ErrorReport(
        level_inv=m.level_inv,
        e_p1=e_p1,
        e_p2_l2=e_p2,
        e_p2_h1=math.hypot(e_p2, e_semi),
        e_u1_l2=e_u1,
        e_u1_hdiv=math.hypot(e_u1, e_div),
        e_u2=e_u2,
    )


def rate(e_coarse: float, e_fine: float) -> float:
    """Observed order between two consecutive mesh halvings."""
    if e_coarse <= 0.0 or e_fine <= 0.0:
        raise ValueError("rates need strictly positive errors")
    return (math.log(e_coarse) - math.log(e_fine)) / math.log(2.0)


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-level error reports and the successive rates between them."""

    reports: tuple
    rates: tuple  # first entry None, then {column: rate}


def convergence_study(case: ManufacturedCase, levels, on_level=None) -> ConvergenceReport:
    """Full mesh -> assemble -> solve -> norms pipeline over a level sweep.

    ``levels`` is a non-empty iterable of strictly increasing powers of
    two, each an ``int`` or numpy integer (not a bool).  ``on_level`` is an
    optional callback ``(level, mesh, layout, solution)`` invoked after
    each solve (used for field dumps).
    """
    levels = list(levels)
    if not levels:
        raise ValueError("levels must not be empty")
    for k in levels:
        if not _is_integer(k) or k < 1 or (k & (k - 1)) != 0:
            raise ValueError(f"levels must be powers of 2, got {k!r}")
    levels = [int(k) for k in levels]
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")

    reports = []
    for k in levels:
        m = build_cartesian_mesh(k)
        layout = build_dof_layout(m)
        system = assemble_system(m, layout, case)
        try:
            sol = solve(system)
        except SolverError as err:
            err.level = k
            raise
        reports.append(error_norms(sol, case, m))
        if on_level is not None:
            on_level(k, m, layout, sol)

    rates: list = [None]
    for prev, curr in zip(reports, reports[1:]):
        ep, ec = prev.errors(), curr.errors()
        rates.append({c: rate(ep[c], ec[c]) for c in COLUMNS})
    return ConvergenceReport(reports=tuple(reports), rates=tuple(rates))


def write_csv(report: ConvergenceReport, path) -> None:
    """One row per level: errors and successive rates, 6 significant digits."""
    lines = [CSV_HEADER]
    for rep, rates in zip(report.reports, report.rates):
        cells = [str(rep.level_inv)]
        errors = rep.errors()
        for col in COLUMNS:
            cells.append(f"{errors[col]:.6g}")
            cells.append("" if rates is None else f"{rates[col]:.6g}")
        lines.append(",".join(cells))
    with open(path, "w", encoding="ascii") as fp:
        fp.write("\n".join(lines) + "\n")


def interface_flux_residuals(sol: SolutionFields, case: ManufacturedCase,
                             m: BipartiteMesh) -> np.ndarray:
    """Weak normal-flux balance defect, integrated per interface edge."""
    _check_mesh(sol, m)
    layout = sol.layout
    e = m.interface_edges
    length = m.interface_lengths
    n = m.interface_normals
    x = _edge_points(m, e, LINE_RULE)
    u1n = m.interface_signs * sol.u1[layout.edge_to_u1[e]] / length
    u2n = np.einsum("id,id->i", sol.u2[layout.tri_to_u2[m.interface_tri2]], n)
    p2h = sol.p2[layout.vert_to_p2[m.edges[e]]] @ _LINE_HAT.T
    f_n = np.asarray(case.f_n(x[..., 0], x[..., 1]), dtype=float)
    defect = (u1n - u2n)[:, None] - case.beta * p2h - f_n
    return length * (defect @ LINE_RULE.weights)
