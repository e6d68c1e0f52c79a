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

from .mesh import BipartiteMesh, EdgeKind

__all__ = [
    "DofLayout",
    "build_dof_layout",
    "rt0_basis",
    "potential_to_velocity",
]


@dataclass
class DofLayout:
    """Block index maps for the four unknown fields of one mesh."""

    u1_edges: np.ndarray      # edge ids carrying flux dofs, ascending
    edge_to_u1: np.ndarray    # (ne,) block-local index or -1
    p2_vertices: np.ndarray   # region-2 vertex ids, ascending
    vert_to_p2: np.ndarray    # (nv,) block-local index or -1
    pinned_vertex: int        # region-2 vertex whose potential value is 0
    vert_to_phi: np.ndarray   # (nv,) block-local index or -1
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
    def phi_to_p2(self) -> np.ndarray:
        """(n_phi,) p2-block index of each potential dof: every p2 dof but the pinned one."""
        return np.flatnonzero(self.p2_vertices != self.pinned_vertex)

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

    # Offsets of the blocks in the global vector [u1 | p2 | phi | p1].
    @property
    def offset_u1(self) -> int:
        return 0

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
    gradient field.
    """
    u1_kinds = (EdgeKind.INTERIOR_1, EdgeKind.BOUNDARY_1, EdgeKind.INTERFACE)
    u1_edges = np.flatnonzero(np.isin(m.edge_kind, u1_kinds))
    edge_to_u1 = np.full(m.n_edges, -1, dtype=np.int64)
    edge_to_u1[u1_edges] = np.arange(len(u1_edges))

    p2_vertices = np.unique(m.triangles[m.tri_region == 2])
    vert_to_p2 = np.full(m.n_vertices, -1, dtype=np.int64)
    vert_to_p2[p2_vertices] = np.arange(len(p2_vertices))

    if pin_vertex is None:
        pin_vertex = int(p2_vertices[0])
    elif not (0 <= pin_vertex < m.n_vertices and vert_to_p2[pin_vertex] >= 0):
        raise ValueError(f"pin vertex {pin_vertex} is not a region-2 vertex")
    phi_vertices = p2_vertices[p2_vertices != pin_vertex]
    vert_to_phi = np.full(m.n_vertices, -1, dtype=np.int64)
    vert_to_phi[phi_vertices] = np.arange(len(phi_vertices))

    p1_triangles = np.flatnonzero(m.tri_region == 1)
    tri_to_p1 = np.full(m.n_triangles, -1, dtype=np.int64)
    tri_to_p1[p1_triangles] = np.arange(len(p1_triangles))
    u2_triangles = np.flatnonzero(m.tri_region == 2)
    tri_to_u2 = np.full(m.n_triangles, -1, dtype=np.int64)
    tri_to_u2[u2_triangles] = np.arange(len(u2_triangles))

    return DofLayout(
        u1_edges=u1_edges,
        edge_to_u1=edge_to_u1,
        p2_vertices=p2_vertices,
        vert_to_p2=vert_to_p2,
        pinned_vertex=int(pin_vertex),
        vert_to_phi=vert_to_phi,
        p1_triangles=p1_triangles,
        tri_to_p1=tri_to_p1,
        u2_triangles=u2_triangles,
        tri_to_u2=tri_to_u2,
    )


def rt0_basis(m: BipartiteMesh, tris, x) -> np.ndarray:
    """(t, 3, q, 2) flux-normalized basis of every edge of ``tris`` at the (t, q, 2) points x."""
    scale = m.tri_edge_signs[tris] / (2.0 * m.areas[tris])[:, None]
    return scale[:, :, None, None] * (x[:, None, :, :] - m.vertices[m.triangles[tris]][:, :, None, :])


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
    grads = m.hat_gradients[layout.u2_triangles]
    vals = nodal[m.triangles[layout.u2_triangles]]
    return np.einsum("ti,tid->td", vals, grads)
