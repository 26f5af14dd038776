"""Workload definitions and the seeded instances each one solves.

Every instance is an ordinary ``InvarianceProblem``: ``sysgen.make_trial``
builds it from ``TrialSpec(d, p, trial, seed)`` exactly as
``experiment._run_one`` does, and drifted trials replace the zero offset with
``w = (I - A) x*`` so that the dynamics have their equilibrium at ``x*``.
The same seed always gives the same instances, in the same order.

Import this module only after the BLAS thread count has been pinned.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from zonoinv import sysgen
from zonoinv.experiment import METHODS, parse_method
from zonoinv.invariance import AffineSystem, InvarianceProblem

# Drift pattern by trial index: two plain trials, then one with the
# equilibrium inside the box and one with it outside.
DRIFT_PATTERN = ("none", "none", "inside", "outside")


@dataclass(frozen=True)
class Workload:
    """A closed-loop workload: one solve at a time, groups in a fixed order.

    A group is one trial index over every cell and method, so any prefix of
    whole groups has the workload's mix.  ``trials`` is the size of the
    instance pool; the timed loop cycles through it when it runs out.
    """

    name: str
    cells: tuple
    methods: tuple
    drift: bool
    trials: int
    min_groups: int


# Why each workload exists is recorded in BENCHMARK.json and the README:
# small_mixed is the experiment batch (per-solve fixed costs, phase 1's
# auxiliary solve); sfg_terms stresses the C(p, d) subset derivatives and
# bypasses the Schur elimination; utpd_lifted does the opposite.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("small_mixed", ((3, 3), (3, 6), (3, 8)), METHODS, True, 48, 2),
        Workload("sfg_terms", ((10, 14),), ("sfg+lgv",), False, 16, 3),
        Workload("utpd_lifted", ((10, 14),), ("utpd+lgv",), False, 16, 3),
    )
}


@dataclass(frozen=True)
class Case:
    """One instance of a workload, with what the correctness gate needs."""

    problem: InvarianceProblem
    method: str
    cell: tuple
    trial: int
    drift: str


def _equilibrium(seed: int, d: int, p: int, trial: int, drift: str) -> np.ndarray | None:
    """Seeded equilibrium ``x*``: inside ``[-0.8, 0.8]^d``, or with one
    coordinate pushed to 1.5-3 times the box half-width on either side."""
    if drift == "none":
        return None
    rng = np.random.default_rng((seed, d, p, trial))
    x_star = rng.uniform(-0.8, 0.8, size=d)
    if drift == "outside":
        k = int(rng.integers(d))
        x_star[k] = rng.choice((-1.0, 1.0)) * rng.uniform(1.5, 3.0)
    return x_star


def build(workload: Workload, seed: int) -> list[list[Case]]:
    """All instances of a workload, as groups in solve order."""
    groups = []
    for trial in range(workload.trials):
        drift = DRIFT_PATTERN[trial % len(DRIFT_PATTERN)] if workload.drift else "none"
        group = []
        for d, p in workload.cells:
            spec = sysgen.TrialSpec(d, p, trial, seed)
            x_star = _equilibrium(seed, d, p, trial, drift)
            for method in workload.methods:
                kind, objective = parse_method(method)
                problem = sysgen.make_trial(spec, kind, objective)
                if x_star is not None:
                    a = problem.system.A
                    w = (np.eye(d) - a) @ x_star
                    problem = dataclasses.replace(problem, system=AffineSystem(a, w))
                group.append(Case(problem, method, (d, p), trial, drift))
        groups.append(group)
    return groups


def warmup_problems(workload: Workload, seed: int) -> list[InvarianceProblem]:
    """One small (3, 6) instance per method of the workload.

    The warm-up runs every code path the timed solves take (lazy imports,
    first BLAS/LAPACK calls, the Schur path for ``utpd``) without making
    set-up time a second measurement of a multi-second solve.
    """
    spec = sysgen.TrialSpec(3, 6, 0, seed)
    return [sysgen.make_trial(spec, *parse_method(method)) for method in workload.methods]
