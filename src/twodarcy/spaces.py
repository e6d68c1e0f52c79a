"""Discrete fields and their degree-of-freedom bookkeeping.

Four fields live on a bipartite mesh: lowest-order Raviart-Thomas edge
fluxes on region 1, continuous piecewise-linear pressure on region 2, its
gradient parameterized by a pinned scalar potential, and cellwise-constant
pressure on region 1.  The global unknown vector is ordered
[u1 | p2 | phi | p1].

Raviart-Thomas degrees of freedom are signed integrated normal fluxes
along the global edge normal (low-to-high vertex tangent rotated by -90
degrees).  On a triangle K the basis member of the edge e opposite vertex
P is  phi_e(x) = sigma / (2|K|) * (x - P)  with  div phi_e = sigma / |K|
and constant normal trace of magnitude 1/|e|, where sigma = +-1 records
whether the global edge normal leaves K.  No degree of freedom is
eliminated for boundary conditions; the outer-boundary conditions are
natural in this formulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import BipartiteMesh, EdgeKind, _is_integer, _kept, _planes

__all__ = [
    "DofLayout",
    "build_dof_layout",
    "rt0_basis",
    "potential_to_velocity",
]


@dataclass(frozen=True)
class DofLayout:
    """Block index maps for the four unknown fields of one mesh; kept on the mesh, so frozen whole."""

    u1_edges: np.ndarray      # edge ids carrying flux dofs, ascending
    edge_to_u1: np.ndarray    # (ne,) block-local index or -1
    p2_vertices: np.ndarray   # region-2 vertex ids, ascending
    vert_to_p2: np.ndarray    # (nv,) block-local index or -1
    pinned_vertex: int        # region-2 vertex whose potential value is 0
    vert_to_phi: np.ndarray   # (nv,) block-local index or -1
    phi_to_p2: np.ndarray     # (n_phi,) p2-block index of each potential dof: every p2 dof but the pin
    p1_triangles: np.ndarray  # region-1 triangle ids, ascending
    tri_to_p1: np.ndarray     # (nt,) block-local index or -1
    u2_triangles: np.ndarray  # region-2 triangle ids, ascending
    tri_to_u2: np.ndarray     # (nt,) block-local index or -1

    @property
    def n_u1(self) -> int:
        return len(self.u1_edges)

    @property
    def n_p2(self) -> int:
        return len(self.p2_vertices)

    @property
    def n_phi(self) -> int:
        return self.n_p2 - 1

    @property
    def n_p1(self) -> int:
        return len(self.p1_triangles)

    @property
    def n_x(self) -> int:
        return self.n_u1 + self.n_p2

    @property
    def n_y(self) -> int:
        return self.n_phi + self.n_p1

    @property
    def size(self) -> int:
        return self.n_x + self.n_y

    # Offsets of the blocks in the global vector [u1 | p2 | phi | p1]; u1 starts at 0.
    @property
    def offset_p2(self) -> int:
        return self.n_u1

    @property
    def offset_phi(self) -> int:
        return self.n_x

    @property
    def offset_p1(self) -> int:
        return self.n_x + self.n_phi


def build_dof_layout(m: BipartiteMesh, pin_vertex: int | None = None) -> DofLayout:
    """Deterministic entity-order numbering of all four blocks.

    The potential is pinned to zero at the smallest-index region-2 vertex
    unless ``pin_vertex`` overrides it; any region-2 vertex yields the same
    gradient field.  An override must be an ``int`` or numpy integer (not a
    bool).  The layout of each pin is built once and kept on ``m``.
    """
    if pin_vertex is not None and not _is_integer(pin_vertex):
        raise ValueError(f"pin vertex {pin_vertex} is not a region-2 vertex")
    pin = None if pin_vertex is None else int(pin_vertex)
    return _kept(m, ("layout", pin), lambda: _new_dof_layout(m, pin))


def _numbering(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ids where ``mask`` holds, ascending, and the (len(mask),) index of each among them, else -1."""
    ids = np.flatnonzero(mask)
    index = np.full(len(mask), -1, dtype=np.int64)
    index[ids] = np.arange(len(ids))
    return ids, index


def _new_dof_layout(m: BipartiteMesh, pin_vertex: int | None) -> DofLayout:
    u1_kinds = (EdgeKind.INTERIOR_1, EdgeKind.BOUNDARY_1, EdgeKind.INTERFACE)
    u1_edges, edge_to_u1 = _numbering(np.isin(m.edge_kind, u1_kinds))
    in_region2 = np.zeros(m.n_vertices, dtype=bool)
    in_region2[m.triangles[m.tri_region == 2]] = True
    p2_vertices, vert_to_p2 = _numbering(in_region2)

    if pin_vertex is None:
        pin_vertex = int(p2_vertices[0])
    elif not (0 <= pin_vertex < m.n_vertices and vert_to_p2[pin_vertex] >= 0):
        raise ValueError(f"pin vertex {pin_vertex} is not a region-2 vertex")
    in_region2[pin_vertex] = False  # now the potential's vertices: region 2 but the pin
    phi_vertices, vert_to_phi = _numbering(in_region2)
    p1_triangles, tri_to_p1 = _numbering(m.tri_region == 1)
    u2_triangles, tri_to_u2 = _numbering(m.tri_region == 2)

    return DofLayout(
        u1_edges=u1_edges,
        edge_to_u1=edge_to_u1,
        p2_vertices=p2_vertices,
        vert_to_p2=vert_to_p2,
        pinned_vertex=int(pin_vertex),
        vert_to_phi=vert_to_phi,
        phi_to_p2=vert_to_p2[phi_vertices],
        p1_triangles=p1_triangles,
        tri_to_p1=tri_to_p1,
        u2_triangles=u2_triangles,
        tri_to_u2=tri_to_u2,
    )


def rt0_basis(m: BipartiteMesh, tris, x) -> np.ndarray:
    """(t, 3, q, 2) flux-normalized basis of every edge of ``tris`` at the (t, q, 2) points x.

    Held as (2, q, 3, t) planes: the transpose of the result is contiguous.
    """
    corners = np.array(_planes(m, m.triangles[tris]))                        # (2, 3, t)
    scale = np.take(m.tri_edge_signs.T, tris, axis=1) / (2.0 * m.areas[tris])
    return (scale * (x.T[:, :, None, :] - corners[:, None])).T


def _corner_sum(weights, planes) -> np.ndarray:
    """(t, 2) sum over the three corners of the (3, t) ``weights`` times the (2, 3, t) x and y ``planes``.

    Each sum runs in corner order onto zero, as ``einsum("ti,tid->td")`` does.
    """
    return (0.0 + weights[0] * planes[:, 0] + weights[1] * planes[:, 1] + weights[2] * planes[:, 2]).T


def _p1_gradients(m: BipartiteMesh, tris, values) -> np.ndarray:
    """(t, 2) gradients on ``tris`` of the P1 field with the (3, t) corner ``values``."""
    return _corner_sum(values, np.take(m.hat_gradients.T, tris, axis=2))


def potential_to_velocity(phi, m: BipartiteMesh, layout: DofLayout) -> np.ndarray:
    """Cellwise-constant gradient field on region 2 from potential dofs.

    The pinned vertex carries the implicit value 0; the result is indexed
    like ``layout.u2_triangles``.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (layout.n_phi,):
        raise ValueError(f"potential vector must have length {layout.n_phi}")
    nodal = np.zeros(m.n_vertices)
    free = layout.vert_to_phi >= 0
    nodal[free] = phi[layout.vert_to_phi[free]]
    tris = layout.u2_triangles
    return _p1_gradients(m, tris, nodal[m.triangles[tris].T])
