"""Independent checking routines: slow, simple, and written to be obviously
correct rather than fast.

Everything here deliberately avoids the main code paths so it can serve as a
cross-check in tests:

* ``facet_normals`` / ``h_representation`` build an exact halfspace
  description of a zonotope from (d-1)-subsets of generators (low dimension
  only) without touching the volume code.
* ``mc_volume`` estimates volume by rejection sampling inside the interval
  hull using halfspace membership, and reports a standard error.
* ``simulate_invariance`` propagates explicit points of the zonotope through
  the dynamics and measures box violations directly.
* ``finite_diff_gradient`` / ``finite_diff_hessian`` are plain central
  differences for validating analytic derivatives.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import DimensionError, DomainError, UnsupportedError
from .invariance import AffineSystem
from .zonotope import Box, Zonotope, interval_hull

__all__ = [
    "facet_normals",
    "h_representation",
    "mc_volume",
    "sign_vertices",
    "simulate_invariance",
    "finite_diff_gradient",
    "finite_diff_hessian",
]

_MAX_EXACT_DIM = 4


def _normal_to_subset(generators: np.ndarray, subset: tuple[int, ...]) -> np.ndarray | None:
    """Unit vector orthogonal to d-1 generator columns, or None if they are
    linearly dependent (the subset then spans no facet direction)."""
    d = generators.shape[0]
    columns = generators[:, list(subset)]
    # Null space of columns^T: the last right-singular vector(s).
    _, singular, vt = np.linalg.svd(columns.T, full_matrices=True)
    rank = int(np.sum(singular > 1e-12 * (singular[0] if singular.size else 1.0)))
    if rank < d - 1:
        return None
    normal = vt[-1]
    norm = np.linalg.norm(normal)
    if norm == 0.0:
        return None
    return normal / norm


def facet_normals(zonotope: Zonotope) -> np.ndarray:
    """All candidate facet normals (one per independent (d-1)-subset of
    generators, deduplicated up to sign).  Exact but combinatorial; limited
    to dimension <= 4."""
    d = zonotope.dim
    if d > _MAX_EXACT_DIM:
        raise UnsupportedError(f"exact facet enumeration supports dim <= {_MAX_EXACT_DIM}, got {d}")
    if d == 1:
        return np.array([[1.0]])
    normals: list[np.ndarray] = []
    for subset in itertools.combinations(range(zonotope.n_generators), d - 1):
        normal = _normal_to_subset(zonotope.generators, subset)
        if normal is None:
            continue
        # Canonical sign: first nonzero entry positive.
        nonzero = np.flatnonzero(np.abs(normal) > 1e-12)
        if nonzero.size == 0:
            continue
        if normal[nonzero[0]] < 0.0:
            normal = -normal
        if any(np.allclose(normal, seen, atol=1e-10) for seen in normals):
            continue
        normals.append(normal)
    if not normals:
        raise DimensionError("zonotope has no facet directions (rank-deficient generators)")
    return np.array(normals)


def h_representation(zonotope: Zonotope) -> tuple[np.ndarray, np.ndarray]:
    """Halfspace form (N, h) with x in Z  iff  |N (x - c)| <= h rowwise.

    The support of a zonotope in direction n is n.c + sum_i |n.g_i|, so each
    facet normal contributes offset sum_i |n.g_i| about the center.
    """
    normals = facet_normals(zonotope)
    offsets = np.abs(normals @ zonotope.generators).sum(axis=1)
    return normals, offsets


def mc_volume(zonotope: Zonotope, n_samples: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo volume estimate with its standard error.

    Samples uniformly in the interval hull of the zonotope and counts
    halfspace membership; the estimate is hit-rate times hull volume, and the
    standard error follows the binomial variance of the hit count.  Uses a
    counter-based generator so the estimate is a pure function of (zonotope,
    n_samples, seed).
    """
    if n_samples < 1:
        raise DimensionError(f"n_samples must be >= 1, got {n_samples}")
    hull = interval_hull(zonotope)
    hull_volume = hull.volume()
    rng = np.random.Generator(np.random.Philox(seed))
    normals, offsets = h_representation(zonotope)
    hits = 0
    remaining = n_samples
    batch_cap = 262_144
    while remaining > 0:
        batch = min(remaining, batch_cap)
        points = rng.uniform(hull.lower, hull.upper, size=(batch, zonotope.dim))
        projections = np.abs((points - zonotope.center) @ normals.T)
        hits += int(np.all(projections <= offsets, axis=1).sum())
        remaining -= batch
    if hits == 0:
        raise DomainError("no sample hit the zonotope; it is degenerate at this sampling scale")
    rate = hits / n_samples
    estimate = float(rate * hull_volume)
    stderr = float(hull_volume * np.sqrt(max(rate * (1.0 - rate), 0.0) / n_samples))
    return estimate, stderr


def sign_vertices(n_generators: int) -> np.ndarray:
    """All 2^p sign vectors in {-1, +1}^p (rows), in lexicographic order."""
    if n_generators > 20:
        raise UnsupportedError(f"2^{n_generators} sign vertices is too many to enumerate")
    grid = np.array(list(itertools.product((-1.0, 1.0), repeat=n_generators)))
    return grid.reshape(-1, max(n_generators, 1))


def simulate_invariance(
    system: AffineSystem,
    box: Box,
    horizon: int,
    zonotope: Zonotope,
    n_points: int = 4096,
    seed: int = 0,
) -> tuple[float, int, int]:
    """Directly simulate points of the zonotope through the dynamics and
    report the worst box violation.

    Returns ``(max_violation, time_step, coordinate)`` where the violation is
    how far the worst point exits the box (0.0 if none does) and the step and
    coordinate locate it (0-based; (0, 0) when there is no violation).  When
    2^p is small enough, all sign vertices are used — these are the extreme
    points, so the check is then exhaustive for the linear dynamics; otherwise
    random sign vectors (dense in the cube) are sampled.
    """
    p = zonotope.n_generators
    if p <= 12 and 2**p <= n_points:
        signs = sign_vertices(p)
    elif p <= 12:
        rng = np.random.Generator(np.random.Philox(seed))
        signs = rng.integers(0, 2, size=(n_points, p)).astype(float) * 2.0 - 1.0
    else:
        # Too many vertices to enumerate: half random sign vertices (extreme
        # points), half uniform interior samples.
        rng = np.random.Generator(np.random.Philox(seed))
        half = n_points // 2
        vertex_part = rng.integers(0, 2, size=(half, p)).astype(float) * 2.0 - 1.0
        interior_part = rng.uniform(-1.0, 1.0, size=(n_points - half, p))
        signs = np.vstack([vertex_part, interior_part])
    points = zonotope.center + signs @ zonotope.generators.T
    worst = 0.0
    worst_time = 0
    worst_coord = 0
    current = points
    for t in range(horizon + 1):
        low_violation = box.lower - current
        high_violation = current - box.upper
        violation = np.maximum(low_violation, high_violation)
        peak = float(violation.max())
        if peak > worst:
            worst = peak
            flat = int(np.argmax(violation))
            worst_time = t
            worst_coord = flat % zonotope.dim
        if t < horizon:
            current = current @ system.A.T + system.w
    return worst, worst_time, worst_coord


def finite_diff_gradient(fn, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        forward = x.copy()
        backward = x.copy()
        forward[i] += step
        backward[i] -= step
        grad[i] = (fn(forward) - fn(backward)) / (2.0 * step)
    return grad


def finite_diff_hessian(fn, x: np.ndarray, step: float = 1e-4) -> np.ndarray:
    """Central-difference Hessian of a scalar function (symmetric stencil)."""
    x = np.asarray(x, dtype=float)
    n = x.size
    hess = np.zeros((n, n))
    f0 = fn(x)
    for i in range(n):
        for j in range(i, n):
            if i == j:
                plus = x.copy()
                minus = x.copy()
                plus[i] += step
                minus[i] -= step
                hess[i, i] = (fn(plus) - 2.0 * f0 + fn(minus)) / step**2
            else:
                pp = x.copy()
                pm = x.copy()
                mp = x.copy()
                mm = x.copy()
                pp[[i, j]] += step
                mm[[i, j]] -= step
                pm[i] += step
                pm[j] -= step
                mp[i] -= step
                mp[j] += step
                hess[i, j] = hess[j, i] = (fn(pp) - fn(pm) - fn(mp) + fn(mm)) / (4.0 * step**2)
    return hess
