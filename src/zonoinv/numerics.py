"""Dense linear-algebra and combinatorics helpers used throughout the package.

All routines operate on plain ``numpy`` arrays of ``float64``.  The validation
helpers :func:`as_matrix` and :func:`as_vector` are the single entry point for
turning user-supplied data into arrays: they coerce dtype, check shape, and
reject non-finite entries; :func:`is_finite_positive` checks a scalar setting.
"""

from __future__ import annotations

import numbers
from itertools import combinations

import numpy as np

from .errors import DimensionError

__all__ = [
    "as_matrix",
    "as_vector",
    "is_finite_positive",
    "MAX_CHAIN_ENTRIES",
    "power_chain",
    "index_subsets",
    "block_expm",
]


def is_finite_positive(value) -> bool:
    """True for a finite real number above zero that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and 0.0 < value < np.inf


def as_matrix(values, *, rows: int | None = None, cols: int | None = None, name: str = "matrix") -> np.ndarray:
    """Coerce ``values`` to a 2-D float array with finite entries.

    Optional ``rows``/``cols`` pin the expected shape.  Raises
    :class:`DimensionError` on any violation.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if rows is not None and arr.shape[0] != rows:
        raise DimensionError(f"{name} must have {rows} rows, got {arr.shape[0]}")
    if cols is not None and arr.shape[1] != cols:
        raise DimensionError(f"{name} must have {cols} columns, got {arr.shape[1]}")
    if not np.all(np.isfinite(arr)):
        raise DimensionError(f"{name} contains non-finite entries")
    return arr


def as_vector(values, *, size: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce ``values`` to a 1-D float array with finite entries."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise DimensionError(f"{name} must be 1-dimensional, got ndim={arr.ndim}")
    if size is not None and arr.shape[0] != size:
        raise DimensionError(f"{name} must have length {size}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise DimensionError(f"{name} contains non-finite entries")
    return arr


# Largest power chain built, in float64 entries (128 MiB): (T + 1) d^2 for
# horizon T and dimension d.
MAX_CHAIN_ENTRIES = 2**24


def power_chain(matrix, horizon: int) -> np.ndarray:
    """Return the stack ``[I, A, A^2, ..., A^horizon]`` of shape (horizon+1, d, d).

    Computed by repeated multiplication: element ``t`` equals element ``t-1``
    times ``A``.  Raises :class:`DimensionError` for a negative horizon or
    a stack of more than :data:`MAX_CHAIN_ENTRIES` entries.
    """
    a = as_matrix(matrix, name="matrix")
    d = a.shape[0]
    if a.shape[1] != d:
        raise DimensionError(f"power_chain requires a square matrix, got {a.shape}")
    if horizon < 0:
        raise DimensionError(f"horizon must be nonnegative, got {horizon}")
    if (horizon + 1) * d * d > MAX_CHAIN_ENTRIES:
        raise DimensionError(f"horizon {horizon} needs more than {MAX_CHAIN_ENTRIES} power-chain entries at d = {d}")
    chain = np.empty((horizon + 1, d, d))
    chain[0] = np.eye(d)
    for t in range(1, horizon + 1):
        chain[t] = chain[t - 1] @ a
    return chain


def index_subsets(p: int, k: int) -> np.ndarray:
    """All size-``k`` subsets of ``{0, ..., p-1}`` in lexicographic order.

    Returns an integer array of shape (C(p, k), k) whose rows are strictly
    increasing 0-based column indices.
    """
    if k < 0 or p < 0 or k > p:
        raise DimensionError(f"invalid subset parameters p={p}, k={k}")
    rows = list(combinations(range(p), k))
    return np.array(rows, dtype=np.intp).reshape(len(rows), k)


def block_expm(blocks: list[np.ndarray], basis, dt: float) -> np.ndarray:
    """Matrix exponential ``Q expm(dt * L) Q^{-1}`` for block-diagonal ``L``.

    ``blocks`` is a list of 1x1 blocks ``[[a]]`` (real eigenvalue) and 2x2
    blocks ``[[a, b], [-b, a]]`` (complex conjugate pair a +- b*i), whose
    exponentials have the closed forms ``exp(a dt)`` and
    ``exp(a dt) * [[cos(b dt), sin(b dt)], [-sin(b dt), cos(b dt)]]``.
    ``basis`` is the (invertible) matrix Q of eigenvectors.  Raises
    ``numpy.linalg.LinAlgError`` if the basis is singular.
    """
    q = as_matrix(basis, name="basis")
    d = q.shape[0]
    if q.shape[1] != d:
        raise DimensionError(f"basis must be square, got {q.shape}")
    exp_l = np.zeros((d, d))
    pos = 0
    for raw in blocks:
        blk = np.atleast_2d(np.asarray(raw, dtype=float))
        if blk.shape == (1, 1):
            exp_l[pos, pos] = np.exp(dt * blk[0, 0])
            pos += 1
        elif blk.shape == (2, 2):
            a, b = blk[0, 0], blk[0, 1]
            if not (blk[1, 1] == a and blk[1, 0] == -b):
                raise DimensionError("2x2 blocks must have the form [[a, b], [-b, a]]")
            scale = np.exp(dt * a)
            c, s = np.cos(dt * b), np.sin(dt * b)
            exp_l[pos:pos + 2, pos:pos + 2] = scale * np.array([[c, s], [-s, c]])
            pos += 2
        else:
            raise DimensionError(f"blocks must be 1x1 or 2x2, got shape {blk.shape}")
    if pos != d:
        raise DimensionError(f"block sizes sum to {pos}, expected {d}")
    # Q expm(dt L) Q^{-1}, without forming the inverse explicitly.
    return np.linalg.solve(q.T, (q @ exp_l).T).T
