"""Zonotopes ``{c + G @ lam : lam in [-1, 1]^p}`` and axis-aligned boxes.

A zonotope is stored as a center ``c`` (length ``d``) and a generator matrix
``G`` of shape (d, p) whose columns are the generators.  The exact volume of a
full-rank zonotope is

    vol = 2^d * sum over all d-subsets J of columns of sqrt(det(G_J^T G_J)),

i.e. the sum of the volumes of the parallelotopes spanned by every choice of
``d`` generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, RankDeficientError
from .numerics import as_matrix, as_vector, index_subsets

__all__ = ["Box", "Zonotope", "volume_exact", "interval_hull"]


@dataclass(frozen=True)
class Box:
    """Axis-aligned box ``[lower, upper]`` with ``lower <= upper`` elementwise."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = as_vector(self.lower, name="lower")
        upper = as_vector(self.upper, size=lower.shape[0], name="upper")
        if np.any(lower > upper):
            raise DimensionError("box lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def volume(self) -> float:
        return float(np.prod(self.upper - self.lower))


@dataclass(frozen=True)
class Zonotope:
    """Zonotope with center ``center`` and generator columns ``generators``."""

    center: np.ndarray
    generators: np.ndarray

    def __post_init__(self):
        center = as_vector(self.center, name="center")
        gens = as_matrix(self.generators, rows=center.shape[0], name="generators")
        if gens.shape[1] < 1:
            raise DimensionError("a zonotope needs at least one generator")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "generators", gens)

    @property
    def dim(self) -> int:
        """Ambient dimension d."""
        return self.center.shape[0]

    @property
    def n_generators(self) -> int:
        return self.generators.shape[1]


def volume_exact(zonotope: Zonotope) -> float:
    """Exact volume of a full-rank zonotope by exhaustive d-subset summation.

    Each size-d column subset J contributes 2^d * sqrt(det(G_J^T G_J)).  The
    subset matrices are square (d columns in dimension d), so the Gram-root
    equals |det(G_J)|, which is what is computed: it avoids squaring the
    rounding error through the Gram product.  Cost grows as C(p, d), so this
    is only meant for small instances and for cross-checking closed forms.

    Raises :class:`RankDeficientError` if there are fewer generators than
    dimensions (volume would be zero; such zonotopes are flat).
    """
    d, p = zonotope.dim, zonotope.n_generators
    if p < d:
        raise RankDeficientError(f"zonotope with {p} generators in dimension {d} is flat")
    g = zonotope.generators
    subsets = index_subsets(p, d)
    # (C, d, d) stack of chosen-column submatrices; batched determinants.
    chosen = g[:, subsets]           # (d, C, d)
    chosen = np.moveaxis(chosen, 1, 0)  # (C, d, d) with [k] = G[:, subsets[k]]
    dets = np.abs(np.linalg.det(chosen))
    return float(2.0 ** d * np.sum(dets))


def interval_hull(zonotope: Zonotope) -> Box:
    """Tightest axis-aligned box containing the zonotope.

    The half-width in each coordinate is the row sum of |G|.
    """
    radius = np.sum(np.abs(zonotope.generators), axis=1)
    return Box(zonotope.center - radius, zonotope.center + radius)
