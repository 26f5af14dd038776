"""Correctness gate for benchmark solves.

The gate's references share no code with the barrier solver: the expected
status of an off-box equilibrium and the ``sfg+ss`` optimum come from LPs
built here from the raw ``A``, ``w``, box and template and solved by HiGHS,
and every optimum is re-checked by point simulation (``oracle``) and by the
exact subset-sum volume (``zonotope.volume_exact``).  The gate runs outside
every timed span.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from zonoinv import oracle
from zonoinv.solver import INFEASIBLE, OPTIMAL
from zonoinv.zonotope import volume_exact

SIMULATION_TOL = 1e-7
VOLUME_RTOL = 1e-9
LP_RTOL = 1e-6


def _trajectory_terms(problem):
    """``A^t`` and the drift ``sum_{s<t} A^(t-1-s) w`` for t = 0..T."""
    a, w = problem.system.A, problem.system.w
    d = a.shape[0]
    powers, drifts = [np.eye(d)], [np.zeros(d)]
    for _ in range(problem.horizon):
        powers.append(a @ powers[-1])
        drifts.append(a @ drifts[-1] + w)
    return powers, drifts


def _smallest_generators(problem) -> np.ndarray:
    """Generators of the smallest zonotope the parameterization admits."""
    param = problem.parameterization
    if param.kind == "sfg":
        return param.scale_floor * np.asarray(param.template)
    return param.diag_floor * np.eye(param.dim)


def center_margin(problem) -> float:
    """Largest box margin ``s`` a center trajectory can keep, by LP.

    Maximizes ``s`` over ``(c, s)`` such that for t = 0..T the reach set of
    the smallest admissible zonotope centered at ``c`` stays ``s`` inside
    the box.  The problem has a strictly feasible point iff ``s > 0``.
    """
    powers, drifts = _trajectory_terms(problem)
    g_min = _smallest_generators(problem)
    lo, up = problem.box.lower, problem.box.upper
    d = lo.size
    rows, rhs = [], []
    for p_t, drift in zip(powers, drifts):
        radius = np.abs(p_t @ g_min).sum(axis=1)
        ones = np.ones((d, 1))
        rows.append(np.hstack([p_t, ones]))
        rhs.append(up - drift - radius)
        rows.append(np.hstack([-p_t, ones]))
        rhs.append(drift - radius - lo)
    cost = np.zeros(d + 1)
    cost[-1] = -1.0
    bounds = [(None, None)] * d + [(None, 1.0)]
    res = linprog(cost, A_ub=np.vstack(rows), b_ub=np.concatenate(rhs), bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"center-trajectory LP failed: {res.message}")
    return -float(res.fun)


def sum_of_scales_optimum(problem) -> float:
    """``max sum(gamma)`` of an ``sfg`` problem, as an LP over ``(c, gamma)``."""
    powers, drifts = _trajectory_terms(problem)
    param = problem.parameterization
    template = np.asarray(param.template)
    lo, up = problem.box.lower, problem.box.upper
    d, p = template.shape
    rows, rhs = [], []
    for p_t, drift in zip(powers, drifts):
        spread = np.abs(p_t @ template)
        rows.append(np.hstack([p_t, spread]))
        rhs.append(up - drift)
        rows.append(np.hstack([-p_t, spread]))
        rhs.append(drift - lo)
    cost = np.concatenate([np.zeros(d), -np.ones(p)])
    bounds = [(None, None)] * d + [(param.scale_floor, None)] * p
    res = linprog(cost, A_ub=np.vstack(rows), b_ub=np.concatenate(rhs), bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"sum-of-scales LP failed: {res.message}")
    return -float(res.fun)


def expected_status(case) -> str:
    """``optimal`` unless the equilibrium lies outside the box and no center
    trajectory can stay inside it."""
    if case.drift == "outside" and center_margin(case.problem) <= 0.0:
        return INFEASIBLE
    return OPTIMAL


class Gate:
    """Checks solves and keeps every failure."""

    def __init__(self):
        self.failures: list[str] = []

    def problems(self, case, result) -> list[str]:
        """Every way one solve is wrong; empty when it passes."""
        expected = expected_status(case)
        if result.status != expected:
            return [f"status {result.status} ({result.message}), expected {expected}"]
        if result.status != OPTIMAL:
            return []
        found = []
        problem = case.problem
        if not result.certificate_ok:
            found.append("optimal result without a reach-set certificate")
        violation, t, k = oracle.simulate_invariance(problem.system, problem.box, problem.horizon, result.zonotope)
        if violation > SIMULATION_TOL:
            found.append(f"simulated point leaves the box by {violation:.3e} at t={t}, coordinate {k}")
        exact = volume_exact(result.zonotope)
        if abs(exact - result.volume) > VOLUME_RTOL * abs(exact):
            found.append(f"volume {result.volume!r} but exact subset sum gives {exact!r}")
        if case.method == "sfg+ss":
            reference = sum_of_scales_optimum(problem)
            if abs(result.objective_value - reference) > LP_RTOL * abs(reference):
                found.append(f"sum of scales {result.objective_value!r} but HiGHS optimum is {reference!r}")
        return found

    def check(self, case, result, error: str | None) -> bool:
        """Record the failures of one solve; True when it passed."""
        label = f"{case.method} cell {case.cell} trial {case.trial} drift {case.drift}"
        found = [f"raised {error}"] if error is not None else self.problems(case, result)
        self.failures.extend(f"{label}: {text}" for text in found)
        return not found
