"""Maximum-volume invariant zonotopes for discrete-time affine dynamics in a box.

The package finds a zonotope ``<c | G>`` whose every trajectory under
``x(t+1) = A x(t) + w`` stays inside a box for a finite horizon, maximizing
the zonotope's volume (or a cheaper surrogate) over one of two log-concave
parameterizations:

* scaled fixed generators ("sfg"): directions fixed by a template, per-column
  positive scales free;
* upper-triangular positive-diagonal square generators ("utpd"): all triangle
  entries free.

Entry points: :func:`solve_invariance` for one problem, the ``zonoinv``
command line for files and benchmark grids, and :mod:`zonoinv.oracle` for
independent verification.
"""

from .errors import (
    DimensionError,
    DomainError,
    RankDeficientError,
    SchemaError,
    UnsupportedError,
    ZonoinvError,
)
from .invariance import (
    AffineSystem,
    InvarianceProblem,
    assemble,
    certificate_violation,
    check_invariance_certificate,
    warm_start_point,
)
from .parameterizations import (
    Objective,
    SfgParameterization,
    UtpdParameterization,
    make_objective,
    sfg_log_volume_grad_hess,
    sfg_precompute_weights,
    sfg_volume,
    utpd_volume,
)
from .solver import (
    INFEASIBLE,
    MAX_ITERATIONS,
    NUMERICAL_FAILURE,
    OPTIMAL,
    Phase1Stopped,
    SolveResult,
    SolverOptions,
    maximize,
    phase1_feasible_point,
    solve_invariance,
)
from .sysgen import TrialSpec, derive_trial_seed, make_trial, random_stable_A, template_generators
from .zonotope import Box, Zonotope, interval_hull, volume_exact

__version__ = "1.0.0"

__all__ = [
    "AffineSystem",
    "Box",
    "DimensionError",
    "DomainError",
    "INFEASIBLE",
    "InvarianceProblem",
    "MAX_ITERATIONS",
    "NUMERICAL_FAILURE",
    "OPTIMAL",
    "Objective",
    "Phase1Stopped",
    "RankDeficientError",
    "SchemaError",
    "SfgParameterization",
    "SolveResult",
    "SolverOptions",
    "TrialSpec",
    "UnsupportedError",
    "UtpdParameterization",
    "Zonotope",
    "ZonoinvError",
    "assemble",
    "certificate_violation",
    "check_invariance_certificate",
    "derive_trial_seed",
    "interval_hull",
    "make_objective",
    "make_trial",
    "maximize",
    "phase1_feasible_point",
    "random_stable_A",
    "sfg_log_volume_grad_hess",
    "sfg_precompute_weights",
    "sfg_volume",
    "solve_invariance",
    "template_generators",
    "utpd_volume",
    "volume_exact",
    "warm_start_point",
]
