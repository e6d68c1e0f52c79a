"""Consistent Cartesian triangulations of the four-quadrant bipartite domain.

The domain is the square (-1, 1)^2 split by the coordinate axes into four
unit quadrants.  Quadrants Q1 = (0,1)^2 and Q3 = (-1,0)^2 form region 1,
Q2 = (-1,0)x(0,1) and Q4 = (0,1)x(-1,0) form region 2, and the interface is
the cross (-1,1) x {0} union {0} x (-1,1).  This module is the one home of
that layout: ``quadrants_of`` maps coordinate signs to quadrants and
``REGION_OF_QUADRANT`` maps quadrants to regions.

A level-k mesh cuts the square into (2k)^2 cells of side 1/k, each split
along its lower-left to upper-right diagonal.

Edges are stored with the lower vertex index first; their global normal
(tangent rotated by -90 degrees) fixes the flux orientation downstream.  As
triangles are counterclockwise, the vertex order alone tells where it points
out, and so which way the interface normals point: from region 1 into region 2.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np

__all__ = [
    "REGION_OF_QUADRANT",
    "EdgeKind",
    "BipartiteMesh",
    "build_cartesian_mesh",
    "quadrants_of",
]

# Region of each quadrant id 1..4 (index 0 is unused).
REGION_OF_QUADRANT = np.array([0, 1, 2, 1, 2])


def quadrants_of(x, y):
    """Quadrant ids (1..4) from the signs of x and y; a zero coordinate counts as negative."""
    return np.where(np.asarray(y) > 0, np.where(np.asarray(x) > 0, 1, 2),
                    np.where(np.asarray(x) > 0, 4, 3))


def _freeze(value):
    """Make every array that ``value`` reaches read-only, and return ``value``.

    An array is frozen; a tuple's items and an object's ``__dict__`` values
    are frozen in turn, so the ``data``, ``indices`` and ``indptr`` of a
    sparse matrix, held alone, in a tuple or as a field, are frozen too.
    """
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    else:
        for item in value if isinstance(value, tuple) else getattr(value, "__dict__", {}).values():
            _freeze(item)
    return value


def _kept(m, key, build):
    """``build()``, built once per ``key`` and kept on ``m`` frozen whole, as a mesh is shared (``_freeze``).

    What is kept must not refer back to ``m``, so that ``m`` dies with its last holder.
    """
    kept = vars(m).setdefault("_kept", {})
    if key not in kept:
        kept[key] = _freeze(build())
    return kept[key]


def _check_orientation(m) -> None:
    """Raise ``ValueError`` unless every triangle of ``m`` is counterclockwise with a positive area.

    Every orientation is derived from the vertex order, so a clockwise or
    degenerate triangle would assemble and solve into meaningless fields.
    A mesh that passes is not checked again.
    """
    def check():
        bad = np.flatnonzero(~(m.areas > 0.0))
        if len(bad):
            raise ValueError(
                f"{len(bad)} of {m.n_triangles} triangles are clockwise or have zero area (triangle "
                f"{bad[0]}: signed area {m.areas[bad[0]]:.3g}); triangles must be counterclockwise"
            )

    _kept(m, "counterclockwise", check)


def _planes(m, vertex_ids) -> tuple[np.ndarray, np.ndarray]:
    """x and y coordinates of the (n, c) ``vertex_ids`` as two contiguous (c, n) planes.

    Row j of a plane holds corner (or end) j of every item, so a per-item
    formula reads whole rows instead of strided columns of an (n, c, 2) copy.
    """
    ids = vertex_ids.T
    return m.vertices[:, 0][ids], m.vertices[:, 1][ids]


def _cached_array(method):
    """``cached_property`` of a read-only array: meshes are shared (see ``build_cartesian_mesh``)."""
    return cached_property(functools.wraps(method)(lambda self: _freeze(method(self))))


class EdgeKind(IntEnum):
    INTERIOR_1 = 0
    INTERIOR_2 = 1
    INTERFACE = 2
    BOUNDARY_1 = 3
    BOUNDARY_2 = 4


@dataclass(frozen=True)
class BipartiteMesh:
    """Triangulation of the two-region domain with tagged connectivity.

    The fields are the grid, its tags and its topology; the geometry (areas,
    normals, ...) is derived from the vertex positions and every orientation
    from the counterclockwise vertex order, on first use, and cached.
    Instances are immutable once built: fields cannot be rebound, and every
    array field and all cached derived geometry are read-only, as a mesh is
    shared by every caller of its level (see ``build_cartesian_mesh``).  To
    change one, copy first, e.g.
    ``dataclasses.replace(m, vertices=m.vertices.copy())``; the copy derives
    its own geometry and must keep its triangles counterclockwise.
    ``edge_tris`` uses -1 for the missing neighbour of boundary edges, and
    ``tri_edges[t, i]`` is the edge opposite local vertex i of triangle t.
    """

    level_inv: int
    vertices: np.ndarray        # (nv, 2) float
    triangles: np.ndarray       # (nt, 3) int, counterclockwise
    tri_region: np.ndarray      # (nt,) int, 1 or 2
    tri_quadrant: np.ndarray    # (nt,) int, 1..4 (component id)
    edges: np.ndarray           # (ne, 2) int, low index first
    edge_tris: np.ndarray       # (ne, 2) int
    edge_kind: np.ndarray       # (ne,) int8, EdgeKind values
    tri_edges: np.ndarray       # (nt, 3) int
    interface_edges: np.ndarray  # (ni,) edge ids
    interface_tri1: np.ndarray   # (ni,) region-1 neighbour
    interface_tri2: np.ndarray   # (ni,) region-2 neighbour

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @_cached_array
    def areas(self) -> np.ndarray:
        x, y = _planes(self, self.triangles)
        return 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0]))

    @_cached_array
    def centroids(self) -> np.ndarray:
        """(nt, 2) centroids, held as (2, nt) planes: ``centroids.T`` is contiguous."""
        x, y = _planes(self, self.triangles)
        return (np.array([x[0] + x[1] + x[2], y[0] + y[1] + y[2]]) / 3.0).T

    @_cached_array
    def hat_gradients(self) -> np.ndarray:
        """(nt, 3, 2) constant gradients of the hat functions of every triangle.

        Held as (2, 3, nt) planes: ``hat_gradients.T`` is contiguous.  Hat i
        has the edge from vertex i+1 to i+2 turned by +90 degrees, over 2|K|.
        """
        x, y = _planes(self, self.triangles)
        return (np.array([-(y[[2, 0, 1]] - y[[1, 2, 0]]), x[[2, 0, 1]] - x[[1, 2, 0]]]) / (2.0 * self.areas)).T

    @_cached_array
    def tri_edge_signs(self) -> np.ndarray:
        """(nt, 3) int8: +1 where the global normal of a triangle's edge points out of it, else -1.

        Counterclockwise, edge i runs from vertex i+1 to i+2: out when i+1 is the lower index.
        """
        return np.where(self.triangles[:, [1, 2, 0]] < self.triangles[:, [2, 0, 1]], 1, -1).astype(np.int8)

    @_cached_array
    def interface_slot(self) -> np.ndarray:
        """(ni,) local index of each interface edge in its region-1 triangle."""
        return np.nonzero(self.tri_edges[self.interface_tri1] == self.interface_edges[:, None])[1]

    @_cached_array
    def interface_signs(self) -> np.ndarray:
        """(ni,) +1.0 where an interface edge's global normal is its region-1 outer normal, else -1.0."""
        return self.tri_edge_signs[self.interface_tri1, self.interface_slot].astype(float)

    @_cached_array
    def interface_lengths(self) -> np.ndarray:
        """(ni,) lengths of the interface edges."""
        x, y = _planes(self, self.edges[self.interface_edges])
        return np.hypot(x[1] - x[0], y[1] - y[0])

    @_cached_array
    def interface_normals(self) -> np.ndarray:
        """(ni, 2) region-1 outer normals: the interface edges' global normals turned by the interface signs."""
        x, y = _planes(self, self.edges[self.interface_edges])
        tangent = (x[1] - x[0]) / self.interface_lengths, (y[1] - y[0]) / self.interface_lengths
        return self.interface_signs[:, None] * np.column_stack([tangent[1], -tangent[0]])


def _connectivity(triangles: np.ndarray):
    """Edge table, edge->triangle adjacency and triangle->edge map.

    Edges are numbered in order of first appearance over the local edges
    (t, 0), (t, 1), (t, 2), t = 0, 1, ...; column 0 of ``edge_tris`` is the
    first triangle that sees the edge.
    """
    nt = len(triangles)
    a = triangles[:, [1, 2, 0]].ravel()
    b = triangles[:, [2, 0, 1]].ravel()
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    keys = lo * (int(triangles.max()) + 1) + hi
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    local_edge = rank[inverse]
    first = first[order]

    edges = np.column_stack([lo[first], hi[first]])
    edge_tris = np.full((len(first), 2), -1, dtype=np.int64)
    edge_tris[:, 0] = first // 3
    repeat = np.ones(3 * nt, dtype=bool)
    repeat[first] = False
    edge_tris[local_edge[repeat], 1] = np.flatnonzero(repeat) // 3
    return edges.astype(np.int64, copy=False), edge_tris, local_edge.reshape(nt, 3)


def _finish_mesh(level_inv, vertices, triangles, tri_region, tri_quadrant):
    edges, edge_tris, tri_edges = _connectivity(triangles)

    region_of = tri_region[edge_tris[:, 0]]
    other = edge_tris[:, 1]
    kind = np.where(region_of == 1, EdgeKind.INTERIOR_1, EdgeKind.INTERIOR_2).astype(np.int8)
    on_boundary = other < 0
    kind[on_boundary & (region_of == 1)] = EdgeKind.BOUNDARY_1
    kind[on_boundary & (region_of == 2)] = EdgeKind.BOUNDARY_2
    mixed = ~on_boundary & (tri_region[edge_tris[:, 0]] != tri_region[np.where(other < 0, 0, other)])
    kind[mixed] = EdgeKind.INTERFACE

    iface = np.flatnonzero(kind == EdgeKind.INTERFACE)
    t0 = edge_tris[iface, 0]
    t1 = edge_tris[iface, 1]
    first_is_1 = tri_region[t0] == 1
    return _freeze(BipartiteMesh(
        level_inv=level_inv,
        vertices=vertices,
        triangles=triangles,
        tri_region=tri_region,
        tri_quadrant=tri_quadrant,
        edges=edges,
        edge_tris=edge_tris,
        edge_kind=kind,
        tri_edges=tri_edges,
        interface_edges=iface,
        interface_tri1=np.where(first_is_1, t0, t1),
        interface_tri2=np.where(first_is_1, t1, t0),
    ))


def _is_integer(value) -> bool:
    """True for an ``int`` or numpy integer that is not a bool (levels, vertex ids)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# Level -> the mesh of that level while some caller still holds it.
_LIVE_MESHES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def build_cartesian_mesh(level_inv: int) -> BipartiteMesh:
    """Uniform mesh of (2k)^2 square cells of side 1/k, split into triangles.

    Cells are split along the lower-left to upper-right diagonal; cells in
    quadrants Q1 and Q3 are tagged region 1, the others region 2.  Vertex
    coordinates are (i - k)/k so the axes and the outer boundary are hit
    exactly for any k.  The mesh of a level is shared while a caller holds
    it; nothing it caches refers back to it, so it dies with its last holder.
    """
    if not _is_integer(level_inv) or level_inv < 1:
        raise ValueError("level_inv must be a positive integer")
    k = int(level_inv)
    held = _LIVE_MESHES.get(k)
    if held is not None:
        return held
    n = 2 * k + 1
    coords = (np.arange(n) - k) / float(k)
    X, Y = np.meshgrid(coords, coords, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    ci, cj = np.meshgrid(np.arange(2 * k), np.arange(2 * k), indexing="xy")
    ci = ci.ravel()
    cj = cj.ravel()
    v00 = cj * n + ci
    v10 = v00 + 1
    v01 = v00 + n
    v11 = v01 + 1
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    triangles = np.empty((2 * len(v00), 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper

    # Cell centres in units of 1/k: their signs pick the quadrant.
    tri_quadrant = np.repeat(quadrants_of(ci + 0.5 - k, cj + 0.5 - k), 2).astype(np.int8)
    tri_region = REGION_OF_QUADRANT[tri_quadrant].astype(np.int8)

    return _LIVE_MESHES.setdefault(k, _finish_mesh(k, vertices, triangles, tri_region, tri_quadrant))


def _region2_grids(m: BipartiteMesh) -> np.ndarray | None:
    """(2, k+1, k+1) vertex ids of the squares Q2 and Q4 of a registry mesh, else None.

    [0, a, b] is the vertex (-a/k, b/k) and [1, a, b] the vertex (a/k, -b/k):
    both grids start at the origin, the one vertex they share.  A copy may
    move vertices or retag triangles, so only the registered mesh qualifies.
    """
    if _LIVE_MESHES.get(m.level_inv) is not m:
        return None
    k = m.level_inv
    n = 2 * k + 1
    steps = np.arange(k + 1)
    a, b = steps[:, None], steps[None, :]
    origin = k * n + k
    return np.stack([origin - a + b * n, origin + a - b * n])
