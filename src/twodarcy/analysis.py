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
L2/H1/H_div norms.  They do not depend on the mesh, so they are integrated
once per (case, degree) with a tensor Gauss rule on each unit quadrant and
cached.  Relative errors follow the h-scaled convention of the
constant-flux study: 100 * error * h / exact-norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .assembly import LINE_RULE, _LINE_HAT, _edge_points, _interface_signs, assemble_system
from .manufactured import ManufacturedCase
from .mesh import REGION_OF_QUADRANT, BipartiteMesh, build_cartesian_mesh, quadrants_of
from .quadrature import segment_rule
from .solver import SolutionFields, SolverError, solve
from .spaces import DofLayout, build_dof_layout

__all__ = [
    "COLUMNS",
    "ErrorReport",
    "ConvergenceReport",
    "error_norms",
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
    """Error norms of one solve plus the matching exact-solution norms."""

    level_inv: int
    e_p1: float
    e_p2_l2: float
    e_p2_h1: float
    e_u1_l2: float
    e_u1_hdiv: float
    e_u2: float
    norm_p1: float
    norm_p2_l2: float
    norm_p2_h1: float
    norm_u1_l2: float
    norm_u1_hdiv: float
    norm_u2: float

    def errors(self) -> dict:
        return {
            "p1": self.e_p1,
            "p2_l2": self.e_p2_l2,
            "p2_h1": self.e_p2_h1,
            "u1_l2": self.e_u1_l2,
            "u1_hdiv": self.e_u1_hdiv,
            "u2": self.e_u2,
        }

    def relative(self) -> dict:
        """Percentage errors, h-scaled against the exact norms."""
        h = 1.0 / self.level_inv
        norms = {
            "p1": self.norm_p1,
            "p2_l2": self.norm_p2_l2,
            "p2_h1": self.norm_p2_h1,
            "u1_l2": self.norm_u1_l2,
            "u1_hdiv": self.norm_u1_hdiv,
            "u2": self.norm_u2,
        }
        return {k: 100.0 * e * h / norms[k] for k, e in self.errors().items()}


def _rt0_coefficients(sol: SolutionFields, m: BipartiteMesh, layout: DofLayout):
    tris = layout.p1_triangles
    signs = m.tri_edge_signs[tris].astype(float)
    return signs * sol.u1[layout.edge_to_u1[m.tri_edges[tris]]]


def u1_cell_values(sol: SolutionFields, m: BipartiteMesh) -> np.ndarray:
    """Flux field evaluated at the region-1 triangle centroids."""
    layout = sol.layout
    tris = layout.p1_triangles
    svec = _rt0_coefficients(sol, m, layout)
    sp_ = np.einsum("ti,tid->td", svec, m.vertices[m.triangles[tris]])
    return (svec.sum(axis=1)[:, None] * m.centroids[tris] - sp_) / (2.0 * m.areas[tris][:, None])


# Lower-left corner of the unit square of each quadrant id.
_QUADRANT_CORNERS = {
    int(quadrants_of(ox + 0.5, oy + 0.5)): (ox, oy) for ox in (0.0, -1.0) for oy in (0.0, -1.0)
}


@lru_cache(maxsize=64)
def _exact_norms(case: ManufacturedCase, degree: int) -> MappingProxyType:
    """Continuous exact-solution norms, keyed on the case's fields and ``degree``.

    The key is the whole case (dataclass equality), not its name, so
    variants of one example with other coefficients get their own entry.
    Each field is integrated over the quadrants of its region, one by one,
    with a tensor Gauss rule exact for per-direction degree ``2 * degree``
    (the square of a degree ``degree`` field), evaluating the closed forms
    of that quadrant.
    """
    rule = segment_rule(2 * degree)
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
    return MappingProxyType({
        "norm_p1": l2(case.p, 1),
        "norm_p2_l2": norm_p2,
        "norm_p2_h1": math.hypot(norm_p2, l2(case.grad_p, 2)),
        "norm_u1_l2": norm_u1,
        "norm_u1_hdiv": math.hypot(norm_u1, l2(case.F, 1)),
        "norm_u2": l2(case.u, 2),
    })


def error_norms(sol: SolutionFields, case: ManufacturedCase, m: BipartiteMesh,
                degree: int = 10) -> ErrorReport:
    """Cell-sampled error norms against the exact fields.

    ``degree`` controls only the rule used for the exact-solution norms;
    the error columns themselves are centroid-sampled discrete norms and
    carry no quadrature degree.  The exact norms do not depend on the mesh:
    they are computed once per (case, degree) with a per-quadrant Gauss
    rule and reused at every level.
    """
    layout = sol.layout
    if len(layout.tri_to_p1) != m.n_triangles or layout.n_p1 != len(sol.p1):
        raise ValueError("solution fields do not belong to this mesh")

    # Region 1: cell pressure, flux and its divergence at centroids.
    tris = layout.p1_triangles
    areas = m.areas[tris]
    c1 = m.centroids[tris]
    qc1 = m.tri_quadrant[tris]
    u1h_c = u1_cell_values(sol, m)
    div_h = _rt0_coefficients(sol, m, layout).sum(axis=1) / areas

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

    nodal = sol.p2[layout.vert_to_p2[m.triangles[tris2]]]
    p2h_c = nodal.mean(axis=1)
    grads = m.hat_gradients[tris2]
    g2h = np.einsum("ti,tid->td", nodal, grads)

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
        **_exact_norms(case, degree),
    )


def rate(e_coarse: float, e_fine: float) -> float:
    """Observed order between two consecutive mesh halvings."""
    if e_coarse <= 0.0 or e_fine <= 0.0:
        raise ValueError("rates need strictly positive errors")
    return (math.log(e_coarse) - math.log(e_fine)) / math.log(2.0)


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-level error reports and the successive rates between them."""

    case_name: str
    reports: tuple
    rates: tuple  # first entry None, then {column: rate}

    def levels(self):
        return [r.level_inv for r in self.reports]


def convergence_study(case: ManufacturedCase, levels, degree: int = 10,
                      on_level=None) -> ConvergenceReport:
    """Full mesh -> assemble -> solve -> norms pipeline over a level sweep.

    ``levels`` must be strictly increasing powers of two.  ``on_level`` is
    an optional callback ``(level, mesh, layout, solution)`` invoked after
    each solve (used for field dumps).
    """
    levels = [int(k) for k in levels]
    for k in levels:
        if k < 1 or (k & (k - 1)) != 0:
            raise ValueError(f"levels must be powers of 2, got {k}")
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
        reports.append(error_norms(sol, case, m, degree=degree))
        if on_level is not None:
            on_level(k, m, layout, sol)

    rates: list = [None]
    for prev, curr in zip(reports, reports[1:]):
        ep, ec = prev.errors(), curr.errors()
        rates.append({c: rate(ep[c], ec[c]) for c in COLUMNS})
    return ConvergenceReport(case_name=case.name, reports=tuple(reports), rates=tuple(rates))


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
    layout = sol.layout
    e = m.interface_edges
    length = m.edge_lengths[e]
    n = m.interface_normals
    x = _edge_points(m, e, LINE_RULE)
    u1n = _interface_signs(m) * sol.u1[layout.edge_to_u1[e]] / length
    u2n = np.einsum("id,id->i", sol.u2[layout.tri_to_u2[m.interface_tri2]], n)
    p2h = sol.p2[layout.vert_to_p2[m.edges[e]]] @ _LINE_HAT.T
    f_n = np.asarray(case.f_n(x[..., 0], x[..., 1]), dtype=float)
    defect = (u1n - u2n)[:, None] - case.beta * p2h - f_n
    return length * (defect @ LINE_RULE.weights)
