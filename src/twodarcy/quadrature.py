"""Gauss-Legendre quadrature rules on the unit segment [0, 1]."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mesh import _freeze

MAX_SEGMENT_DEGREE = 61

__all__ = [
    "QuadRule",
    "segment_rule",
]


@dataclass(frozen=True)
class QuadRule:
    """Nodes and weights on a reference element.

    Segment rules: ``points`` has shape (n,) on [0, 1] and the weights sum
    to 1.  A triangle rule (the tests build one) has (n, 3) barycentric
    ``points`` and weights summing to 1/2.  Instances are cached and shared;
    the arrays are read-only.
    """

    points: np.ndarray
    weights: np.ndarray


def _gauss01(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=None)
def segment_rule(min_degree: int) -> QuadRule:
    """Gauss-Legendre rule on [0, 1] with 2n - 1 >= ``min_degree``."""
    if not 1 <= min_degree <= MAX_SEGMENT_DEGREE:
        raise ValueError(f"unsupported segment rule degree: {min_degree}")
    return _freeze(QuadRule(*_gauss01((min_degree + 2) // 2)))
