"""Generator parameterizations with closed-form volumes and derivatives.

Two families are supported:

* **Upper-triangular, positive diagonal** (token ``"utpd"``): the generator
  matrix is square and upper triangular with strictly positive diagonal.  Its
  volume collapses to ``2^d * prod(diag(G))``, so the log-volume is linear in
  the logs of the diagonal entries.

* **Scaled fixed generators** (token ``"sfg"``): a fixed full-row-rank
  template ``G`` (d x p) is scaled columnwise by positive scalars ``gamma``.
  The volume is a multilinear polynomial with one nonnegative coefficient per
  size-d column subset::

      vol(gamma) = sum_J w_J * prod_{i in J} gamma_i,
      w_J = 2^d * sqrt(det(G_J^T G_J)),

  whose log is concave on ``gamma > 0``.

Free variables are packed as flat vectors: the ``p`` scale factors for the
scaled-template family, and the upper-triangle entries in row-major order
(G[0,0], G[0,1], ..., G[0,d-1], G[1,1], ...) for the triangular family.

Objective tokens: ``"ss"`` (sum of scales), ``"slgs"`` (sum of log scales),
``"lgv"`` (log volume).  The first two are heuristic surrogates defined for
the scaled-template family only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError, RankDeficientError, UnsupportedError
from .numerics import as_matrix, as_vector, index_subsets

__all__ = [
    "SubsetWeights",
    "sfg_precompute_weights",
    "SfgParameterization",
    "UtpdParameterization",
    "utpd_volume",
    "sfg_volume",
    "sfg_log_volume_grad_hess",
    "Objective",
    "make_objective",
    "OBJECTIVE_TOKENS",
]

OBJECTIVE_TOKENS = ("ss", "slgs", "lgv")


@dataclass(frozen=True)
class SubsetWeights:
    """Volume coefficients of a template, one per size-d column subset.

    ``subsets`` has shape (C(p, d), d) with rows in lexicographic order
    (0-based column indices); ``weights[k]`` is the parallelotope volume
    ``2^d * sqrt(det(G_J^T G_J))`` for ``J = subsets[k]``.
    """

    dim: int
    n_columns: int
    subsets: np.ndarray
    weights: np.ndarray

    @property
    def count(self) -> int:
        """Number of stored subsets, C(p, d)."""
        return self.weights.shape[0]


def sfg_precompute_weights(template) -> SubsetWeights:
    """Precompute all subset weights of a full-row-rank template (d x p).

    Each weight is 2^d times the Gram-determinant root of a size-d column
    subset; the subset matrices are square, so that equals the plain absolute
    determinant (degenerate subsets contribute weight 0).  Raises
    :class:`RankDeficientError` if ``p < d`` or the template does not have
    full row rank (all weights zero).
    """
    g = as_matrix(template, name="template")
    d, p = g.shape
    if p < d:
        raise RankDeficientError(f"template with {p} columns in dimension {d} cannot have full row rank")
    subsets = index_subsets(p, d)
    chosen = np.moveaxis(g[:, subsets], 1, 0)          # (C, d, d)
    weights = (2.0 ** d) * np.abs(np.linalg.det(chosen))
    if not np.any(weights > 0.0):
        raise RankDeficientError("template does not have full row rank")
    return SubsetWeights(dim=d, n_columns=p, subsets=subsets, weights=weights)


@dataclass(frozen=True)
class SfgParameterization:
    """Fixed template scaled columnwise: generators ``G @ diag(gamma)``.

    Free variables are the ``p`` positive scales ``gamma``; ``scale_floor``
    is the lower bound imposed on each scale when assembling constraint
    systems.
    """

    template: np.ndarray
    scale_floor: float = 1e-6
    weights: SubsetWeights = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tpl = as_matrix(self.template, name="template")
        if not 0.0 < self.scale_floor < np.inf:
            raise DomainError(f"scale_floor must be finite and positive, got {self.scale_floor}")
        object.__setattr__(self, "template", tpl)
        object.__setattr__(self, "weights", sfg_precompute_weights(tpl))

    kind = "sfg"

    @property
    def dim(self) -> int:
        return self.template.shape[0]

    @property
    def n_generators(self) -> int:
        return self.template.shape[1]

    @property
    def n_free(self) -> int:
        return self.template.shape[1]

    def validate_free(self, gamma) -> np.ndarray:
        gamma = as_vector(gamma, size=self.n_free, name="gamma")
        if np.any(gamma <= 0.0):
            raise DomainError("scales must be strictly positive")
        return gamma

    def effective_generators(self, gamma) -> np.ndarray:
        """Generator matrix ``G @ diag(gamma)``."""
        return self.template * self.validate_free(gamma)[np.newaxis, :]

    def volume(self, gamma) -> float:
        return sfg_volume(self, gamma)

    def log_volume_value(self, gamma) -> float:
        """Log volume without derivatives."""
        return _log_of_volume(sfg_volume(self, gamma))

    def log_volume(self, gamma):
        """Log volume with gradient and Hessian in the scales."""
        return sfg_log_volume_grad_hess(self, gamma)

    def initial_free(self) -> np.ndarray:
        """A strictly feasible default scale vector (well above the floor)."""
        return np.full(self.n_free, 10.0 * self.scale_floor)


def _sfg_terms(parameterization: SfgParameterization, gamma: np.ndarray):
    """Per-subset factors ``gamma[J]`` and volume terms ``w_J prod_{i in J}
    gamma_i`` of validated scales; the volume is the sum of the terms."""
    w = parameterization.weights
    factors = gamma[w.subsets]                # (C, d)
    return factors, w.weights * np.prod(factors, axis=1)


def _log_of_volume(volume: float) -> float:
    if volume <= 0.0:
        raise DomainError("volume is not positive at this point")
    return float(np.log(volume))


def sfg_volume(parameterization: SfgParameterization, gamma) -> float:
    """Volume of the scaled template: ``sum_J w_J prod_{i in J} gamma_i``."""
    _, terms = _sfg_terms(parameterization, parameterization.validate_free(gamma))
    return float(np.sum(terms))


def sfg_log_volume_grad_hess(parameterization: SfgParameterization, gamma):
    """Value, gradient and Hessian of ``log vol(gamma)``.

    With ``T_J = w_J prod_{i in J} gamma_i`` and ``V = sum_J T_J``:

    * ``dV/dgamma_k   = sum_{J containing k} T_J / gamma_k``
    * ``d2V/dk dl     = sum_{J containing both} T_J / (gamma_k gamma_l)`` for
      ``k != l`` and zero on the diagonal (V is multilinear),

    and the log transform gives ``H = HV/V - outer(g, g)`` with
    ``g = dV/V``.  One pass over the weight table.
    """
    factors, terms = _sfg_terms(parameterization, parameterization.validate_free(gamma))
    volume = float(np.sum(terms))
    value = _log_of_volume(volume)

    p = parameterization.n_free
    grad_v = np.zeros(p)
    hess_v = np.zeros((p, p))
    # Accumulate the derivative of every subset term individually; the cost is
    # one small dense update per term, so it scales with the C(p, d) term
    # count exactly like the volume formula itself.
    for idx, term, row in zip(parameterization.weights.subsets, terms, factors):
        per = term / row                      # dT/dgamma_k for k in the subset
        grad_v[idx] += per
        block = per[:, np.newaxis] / row[np.newaxis, :]
        np.fill_diagonal(block, 0.0)          # T is multilinear in gamma
        hess_v[np.ix_(idx, idx)] += block

    grad = grad_v / volume
    hess = hess_v / volume - np.outer(grad, grad)
    return value, grad, hess


@dataclass(frozen=True)
class UtpdParameterization:
    """Square upper-triangular generators with strictly positive diagonal.

    Free variables are the ``d (d + 1) / 2`` upper-triangle entries in
    row-major order; ``diag_floor`` is the lower bound imposed on the diagonal
    when assembling constraint systems.
    """

    dim: int
    diag_floor: float = 1e-6
    _tri: tuple = field(init=False, repr=False, compare=False)
    _diag_pos: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionError(f"dimension must be >= 1, got {self.dim}")
        if not 0.0 < self.diag_floor < np.inf:
            raise DomainError(f"diag_floor must be finite and positive, got {self.diag_floor}")
        rows, cols = np.triu_indices(self.dim)
        object.__setattr__(self, "_tri", (rows, cols))
        object.__setattr__(self, "_diag_pos", np.flatnonzero(rows == cols))

    kind = "utpd"

    @property
    def n_generators(self) -> int:
        return self.dim

    @property
    def n_free(self) -> int:
        return self.dim * (self.dim + 1) // 2

    def triangle_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Row/column index arrays of the packed entries (row-major order)."""
        return self._tri

    def diag_positions(self) -> np.ndarray:
        """Positions of the diagonal entries inside the packed vector."""
        return self._diag_pos

    def pack(self, matrix) -> np.ndarray:
        """Flatten an upper-triangular matrix into the free-variable vector."""
        g = as_matrix(matrix, rows=self.dim, cols=self.dim, name="generators")
        if np.any(np.tril(g, k=-1) != 0.0):
            raise DimensionError("matrix has nonzero entries below the diagonal")
        rows, cols = self.triangle_indices()
        return g[rows, cols].copy()

    def unpack(self, free) -> np.ndarray:
        """Rebuild the upper-triangular matrix from the packed vector."""
        free = as_vector(free, size=self.n_free, name="free variables")
        g = np.zeros((self.dim, self.dim))
        rows, cols = self.triangle_indices()
        g[rows, cols] = free
        return g

    def validate_free(self, free) -> np.ndarray:
        free = as_vector(free, size=self.n_free, name="free variables")
        if np.any(free[self.diag_positions()] <= 0.0):
            raise DomainError("diagonal entries must be strictly positive")
        return free

    def effective_generators(self, free) -> np.ndarray:
        return self.unpack(self.validate_free(free))

    def volume(self, free) -> float:
        """Volume ``2^d * prod_i G[i, i]``."""
        return float(2.0 ** self.dim * np.prod(self.validate_free(free)[self._diag_pos]))

    def log_volume_value(self, free) -> float:
        """Log volume ``d log 2 + sum_i log G[i, i]`` without derivatives."""
        return self._log_volume(self.validate_free(free)[self._diag_pos])

    def log_volume(self, free):
        """Log volume with gradient and Hessian in the packed entries."""
        diag = self.validate_free(free)[self._diag_pos]
        grad = np.zeros(self.n_free)
        grad[self._diag_pos] = 1.0 / diag
        hess = np.zeros((self.n_free, self.n_free))
        hess[self._diag_pos, self._diag_pos] = -1.0 / diag**2
        return self._log_volume(diag), grad, hess

    def _log_volume(self, diag: np.ndarray) -> float:
        return self.dim * np.log(2.0) + float(np.sum(np.log(diag)))

    def initial_free(self) -> np.ndarray:
        """A strictly feasible default: ``10 * diag_floor`` times the identity."""
        return self.pack(10.0 * self.diag_floor * np.eye(self.dim))


def utpd_volume(generators) -> float:
    """Volume ``2^d * prod(diag(G))`` of an upper-triangular generator matrix.

    Requires ``G`` square upper triangular with strictly positive diagonal.
    """
    g = as_matrix(generators, name="generators")
    param = UtpdParameterization(g.shape[0])
    return param.volume(param.pack(g))


@dataclass(frozen=True)
class Objective:
    """Concave objective over the free variables of a parameterization.

    It owns the kind/parameterization pairing: construction raises
    :class:`UnsupportedError` for a kind outside ``OBJECTIVE_TOKENS`` and for
    the scale heuristics (``ss``, ``slgs``) on anything but the
    scaled-template family; ``lgv`` works for both.
    """

    kind: str
    parameterization: SfgParameterization | UtpdParameterization

    def __post_init__(self):
        if self.kind not in OBJECTIVE_TOKENS:
            raise UnsupportedError(f"unknown objective kind {self.kind!r}; expected one of {OBJECTIVE_TOKENS}")
        if self.kind != "lgv" and self.parameterization.kind != "sfg":
            raise UnsupportedError(f"objective {self.kind!r} requires the scaled-template parameterization")

    def value(self, free) -> float:
        """Objective value only (cheaper than :meth:`value_grad_hess`)."""
        if self.kind == "lgv":
            return self.parameterization.log_volume_value(free)
        return self._scale_value(self.parameterization.validate_free(free))

    def value_grad_hess(self, free):
        """Objective value, gradient and dense Hessian over the free variables."""
        if self.kind == "lgv":
            return self.parameterization.log_volume(free)
        gamma = self.parameterization.validate_free(free)
        if self.kind == "ss":
            grad, curvature = np.ones_like(gamma), np.zeros_like(gamma)
        else:
            grad, curvature = 1.0 / gamma, -1.0 / gamma**2
        return self._scale_value(gamma), grad, np.diag(curvature)

    def _scale_value(self, gamma: np.ndarray) -> float:
        """``ss`` is the sum of the scales, ``slgs`` the sum of their logs."""
        return float(np.sum(gamma if self.kind == "ss" else np.log(gamma)))


def make_objective(kind: str, parameterization) -> Objective:
    """Build an objective; :class:`Objective` checks the pairing."""
    return Objective(kind=kind, parameterization=parameterization)
