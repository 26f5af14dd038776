"""Independent reference implementations used only by the test suite.

Each routine here is a brute-force or first-principles computation written
without touching the package's code paths, trading speed for obviousness:

* ``taylor_expm``: matrix exponential by summing the power series.
* ``lp_vertex_optimum``: linear-program optimum by enumerating basic points
  (every n-subset of constraint rows), feasible for tiny systems only.
* ``brute_force_zonotope_volume_2d``: shoelace area of the convex hull of all
  sign vertices (planar only).
* ``membership``: which points lie in a zonotope, by the halfspace form of
  the package's own independent oracle ``zonoinv.oracle.h_representation``.
* ``center_trajectory_feasible``: whether some center trajectory stays in
  the box, by an LP solved with HiGHS.
* ``reach_set``: center and generators of a zonotope after t steps of the
  dynamics, by stepping them one at a time.
* ``sfg_optimality_gap``: a Frank-Wolfe bound on how far a scaled-template
  solution is below the optimum, by one LP over every time step solved
  with HiGHS.
* ``random_utpd_matrix`` / ``random_full_rank_template``: simple generators
  for test instances.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linprog

from zonoinv.errors import DimensionError
from zonoinv.oracle import h_representation
from zonoinv.zonotope import Zonotope, volume_exact


def taylor_expm(matrix: np.ndarray, terms: int = 60) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    out = np.eye(m.shape[0])
    power = np.eye(m.shape[0])
    for k in range(1, terms):
        power = power @ m / k
        out = out + power
    return out


def lp_vertex_optimum(c: np.ndarray, a_matrix: np.ndarray, b: np.ndarray, tol: float = 1e-9):
    """Maximize ``c . z`` over ``A z <= b`` by enumerating basic points.

    Every vertex of the (assumed bounded, full-dimensional) polyhedron solves
    some nonsingular n-row subsystem at equality, so checking all of them
    finds the optimum.  Returns ``(best_value, best_point)``.
    """
    c = np.asarray(c, dtype=float)
    a_matrix = np.asarray(a_matrix, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a_matrix.shape
    best_value, best_point = -np.inf, None
    for rows in itertools.combinations(range(m), n):
        square = a_matrix[list(rows)]
        if abs(np.linalg.det(square)) < 1e-12:
            continue
        point = np.linalg.solve(square, b[list(rows)])
        if np.all(a_matrix @ point <= b + tol):
            value = float(c @ point)
            if value > best_value:
                best_value, best_point = value, point
    if best_point is None:
        raise ValueError("no feasible basic point found (unbounded or empty?)")
    return best_value, best_point


def membership(zonotope: Zonotope, points: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Boolean mask of which points (rows) lie in the zonotope, via the exact
    halfspace description."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != zonotope.dim:
        raise DimensionError(
            f"points have {points.shape[1]} coordinates, zonotope has dim {zonotope.dim}"
        )
    normals, offsets = h_representation(zonotope)
    projections = np.abs((points - zonotope.center) @ normals.T)
    return np.all(projections <= offsets + tol, axis=1)


def center_trajectory_feasible(a_matrix, w, lower, upper, horizon: int) -> bool:
    """Does some c satisfy ``lower <= A^t c + drift(t) <= upper`` for every
    t = 0..horizon, with ``drift(t) = sum_{s<t} A^(t-1-s) w``?

    Builds the rows by stepping the trajectory one t at a time and asks
    HiGHS for any feasible point (zero objective)."""
    a_matrix = np.asarray(a_matrix, dtype=float)
    w, lower, upper = (np.asarray(v, dtype=float) for v in (w, lower, upper))
    d = w.size
    power, drift = np.eye(d), np.zeros(d)
    rows, rhs = [], []
    for _ in range(horizon + 1):
        rows += [power, -power]
        rhs += [upper - drift, drift - lower]
        power, drift = a_matrix @ power, a_matrix @ drift + w
    res = linprog(np.zeros(d), A_ub=np.vstack(rows), b_ub=np.concatenate(rhs), bounds=[(None, None)] * d,
                  method="highs")
    if res.status not in (0, 2):
        raise RuntimeError(f"center-trajectory LP failed: {res.message}")
    return res.status == 0


def reach_set(a_matrix, w, center, generators, t: int):
    """``(c_t, G_t)`` of the reach set at time t, from ``c_{s+1} = A c_s + w``
    and ``G_{s+1} = A G_s``."""
    a_matrix = np.asarray(a_matrix, dtype=float)
    w, c, g = (np.asarray(v, dtype=float) for v in (w, center, generators))
    for _ in range(t):
        c, g = a_matrix @ c + w, a_matrix @ g
    return c, g


def _scale_gradient(kind: str, template: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Gradient in the scales of ``ss`` (sum), ``slgs`` (sum of logs) or
    ``lgv`` (log volume).  The volume is multilinear in the scales, so
    ``dV/dgamma_k = (V(gamma) - V(gamma with gamma_k = 0)) / gamma_k``."""
    if kind == "ss":
        return np.ones_like(gamma)
    if kind == "slgs":
        return 1.0 / gamma
    d = template.shape[0]

    def volume(scales):
        return volume_exact(Zonotope(np.zeros(d), template * scales))

    full = volume(gamma)
    without = [volume(np.where(np.arange(gamma.size) == k, 0.0, gamma)) for k in range(gamma.size)]
    return (full - np.array(without)) / (gamma * full)


def sfg_optimality_gap(a_matrix, w, lower, upper, horizon: int, template, scale_floor: float,
                       kind: str, gamma) -> float:
    """Frank-Wolfe gap ``max grad^T gamma' - grad^T gamma`` over every
    feasible ``(c, gamma')``, with ``grad`` the objective's gradient at
    ``gamma``.

    The objective is concave in the scales, so the gap bounds
    ``f(opt) - f(gamma)`` from above.  The feasible set is built by stepping
    the dynamics one t at a time: for t = 0..horizon, ``+-A^t c +
    |A^t G| gamma'`` stays within ``upper - drift(t)`` and
    ``drift(t) - lower``, and every scale is at least ``scale_floor``; no
    row is left out.  One LP, solved with HiGHS."""
    a_matrix, template = np.asarray(a_matrix, dtype=float), np.asarray(template, dtype=float)
    w, lower, upper, gamma = (np.asarray(v, dtype=float) for v in (w, lower, upper, gamma))
    d, p = template.shape
    power, drift = np.eye(d), np.zeros(d)
    rows, rhs = [], []
    for _ in range(horizon + 1):
        spread = np.abs(power @ template)
        rows += [np.hstack([power, spread]), np.hstack([-power, spread])]
        rhs += [upper - drift, drift - lower]
        power, drift = a_matrix @ power, a_matrix @ drift + w
    grad = _scale_gradient(kind, template, gamma)
    res = linprog(np.concatenate([np.zeros(d), -grad]), A_ub=np.vstack(rows), b_ub=np.concatenate(rhs),
                  bounds=[(None, None)] * d + [(scale_floor, None)] * p, method="highs")
    if res.status != 0:
        raise RuntimeError(f"Frank-Wolfe LP failed: {res.message}")
    return -float(res.fun) - float(grad @ gamma)


def brute_force_zonotope_volume_2d(center: np.ndarray, generators: np.ndarray) -> float:
    """Area of a planar zonotope: shoelace formula over the convex hull of all
    sign vertices (hull by angular sort around the centroid)."""
    generators = np.asarray(generators, dtype=float)
    p = generators.shape[1]
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=p)))
    points = signs @ generators.T
    hull = _convex_hull_2d(points)
    x, y = hull[:, 0], hull[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _convex_hull_2d(points: np.ndarray) -> np.ndarray:
    pts = np.unique(np.round(points, 12), axis=0)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

    def cross2(a, b):
        return a[0] * b[1] - a[1] * b[0]

    def half(seq):
        out = []
        for q in seq:
            while len(out) >= 2 and cross2(out[-1] - out[-2], q - out[-2]) <= 0:
                out.pop()
            out.append(q)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def random_utpd_matrix(rng: np.random.Generator, d: int) -> np.ndarray:
    """Random upper-triangular matrix with strictly positive diagonal."""
    g = rng.uniform(-2.0, 2.0, size=(d, d))
    g = np.triu(g)
    g[np.diag_indices(d)] = rng.uniform(0.1, 3.0, size=d)
    return g


def random_full_rank_template(rng: np.random.Generator, d: int, p: int) -> np.ndarray:
    """Random d x p template guaranteed full row rank (identity block first)."""
    extra = rng.standard_normal((d, p - d)) if p > d else np.zeros((d, 0))
    template = np.hstack([np.eye(d), extra])
    perm = rng.permutation(p)
    return template[:, perm]


def manual_stats(values) -> dict:
    """Reference aggregate statistics, written independently of the package
    (numpy percentile with the same default interpolation)."""
    arr = np.asarray(values, dtype=float)
    return {
        "mean": float(np.mean(arr)),
        "median": float(np.median(arr)),
        "q1": float(np.percentile(arr, 25)),
        "q3": float(np.percentile(arr, 75)),
        "min": float(np.min(arr)),
        "max": float(np.max(arr)),
    }


def comb(p: int, d: int) -> int:
    return math.comb(p, d)
