"""Quadrature rules on the reference triangle and the unit segment.

The reference triangle is {(x, y): x >= 0, y >= 0, x + y <= 1} with measure
1/2; triangle nodes are stored as barycentric coordinates.  Segment rules
live on [0, 1] with weights summing to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

MAX_TRIANGLE_DEGREE = 25
MAX_SEGMENT_DEGREE = 61

__all__ = [
    "QuadRule",
    "triangle_rule",
    "segment_rule",
]


@dataclass(frozen=True)
class QuadRule:
    """Nodes and weights on a reference element.

    Triangle rules: ``points`` has shape (n, 3) in barycentric coordinates
    and the weights sum to 1/2.  Segment rules: ``points`` has shape (n,)
    on [0, 1] and the weights sum to 1.  Instances are cached and shared;
    the arrays are read-only.
    """

    points: np.ndarray
    weights: np.ndarray


def _frozen(points, weights):
    points = np.ascontiguousarray(points, dtype=float)
    weights = np.ascontiguousarray(weights, dtype=float)
    points.flags.writeable = False
    weights.flags.writeable = False
    return QuadRule(points, weights)


def _gauss01(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=None)
def triangle_rule(min_degree: int) -> QuadRule:
    """Symmetric rule on the reference triangle, exact to >= ``min_degree``.

    A Gauss-Legendre tensor rule is collapsed onto the triangle (the
    Jacobian of the collapse map raises the first coordinate's degree by
    one, which the node count accounts for) and symmetrized over the six
    barycentric permutations.
    """
    if not 1 <= min_degree <= MAX_TRIANGLE_DEGREE:
        raise ValueError(f"unsupported triangle rule degree: {min_degree}")
    d = min_degree
    u, wu = _gauss01((d + 3) // 2)
    v, wv = _gauss01((d + 2) // 2)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    x = uu.ravel()
    y = (vv * (1.0 - uu)).ravel()
    w = (np.outer(wu, wv) * (1.0 - uu)).ravel()
    bary = np.column_stack([1.0 - x - y, x, y])
    perms = list(permutations(range(3)))
    points = np.concatenate([bary[:, p] for p in perms], axis=0)
    weights = np.concatenate([w] * len(perms)) / len(perms)
    return _frozen(points, weights)


@lru_cache(maxsize=None)
def segment_rule(min_degree: int) -> QuadRule:
    """Gauss-Legendre rule on [0, 1] with 2n - 1 >= ``min_degree``."""
    if not 1 <= min_degree <= MAX_SEGMENT_DEGREE:
        raise ValueError(f"unsupported segment rule degree: {min_degree}")
    n = (min_degree + 2) // 2
    t, w = _gauss01(n)
    return _frozen(t, w)
