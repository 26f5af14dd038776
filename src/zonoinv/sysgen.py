"""Random benchmark instances: stable dynamics, templates, and trial seeds.

A trial is identified by (dimension d, generator count p, trial index) plus a
master seed; its RNG seed is a pure function of those four numbers, so any
trial can be regenerated in isolation and all methods sharing a trial see the
same dynamics and template.

Dynamics are produced in continuous time with eigenvalues placed directly —
real parts uniform in [-2, -0.1] (so every mode decays), imaginary parts
uniform in [0, 2] for complex pairs chosen with probability 0.5 per remaining
2-slot — in a uniformly random orthonormal basis, then discretized exactly by
the closed-form block exponential with time step ``dt``.  Because the basis
is orthogonal and the blocks are normal, the discrete matrix is normal with
spectral radius at most ``exp(-0.1 dt) < 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .invariance import AffineSystem, InvarianceProblem
from .numerics import block_expm, is_finite_positive
from .parameterizations import SfgParameterization, UtpdParameterization
from .zonotope import Box

__all__ = [
    "TrialSpec",
    "derive_trial_seed",
    "trial_rng",
    "random_stable_A",
    "template_generators",
    "make_trial",
]

DEFAULT_DT = 0.2
DEFAULT_HORIZON = 30


@dataclass(frozen=True)
class TrialSpec:
    """One benchmark instance: grid cell (dim, n_generators) and trial index."""

    dim: int
    n_generators: int
    trial: int
    master_seed: int
    dt: float = DEFAULT_DT
    horizon: int = DEFAULT_HORIZON

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionError(f"dim must be >= 1, got {self.dim}")
        if self.n_generators < self.dim:
            raise DimensionError(
                f"n_generators must be >= dim, got {self.n_generators} < {self.dim}"
            )
        if self.trial < 0:
            raise DimensionError(f"trial must be nonnegative, got {self.trial}")
        if not is_finite_positive(self.dt):
            raise DimensionError(f"dt must be a finite positive number, got {self.dt}")
        if self.horizon < 0:
            raise DimensionError(f"horizon must be nonnegative, got {self.horizon}")


def derive_trial_seed(master_seed: int, dim: int, n_generators: int, trial: int) -> int:
    """Deterministic per-trial seed, a pure function of its four arguments."""
    seq = np.random.SeedSequence((int(master_seed), int(dim), int(n_generators), int(trial)))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def trial_rng(spec: TrialSpec) -> np.random.Generator:
    return np.random.default_rng(derive_trial_seed(spec.master_seed, spec.dim, spec.n_generators, spec.trial))


def random_stable_A(dim: int, dt: float, rng: np.random.Generator) -> np.ndarray:
    """Random stable discrete-time matrix (spectral radius < 1).

    Walks the ``dim`` eigenvalue slots: with two or more remaining, a complex
    pair is drawn with probability 0.5 (real part uniform [-2, -0.1],
    imaginary part uniform [0, 2]); otherwise a real eigenvalue uniform in
    [-2, -0.1].  The basis is a uniformly random orthogonal matrix (QR of a
    standard Gaussian with the R-diagonal sign fix).
    """
    if dim < 1:
        raise DimensionError(f"dim must be >= 1, got {dim}")
    blocks: list[np.ndarray] = []
    pos = 0
    while pos < dim:
        if dim - pos >= 2 and rng.random() < 0.5:
            real = rng.uniform(-2.0, -0.1)
            imag = rng.uniform(0.0, 2.0)
            blocks.append(np.array([[real, imag], [-imag, real]]))
            pos += 2
        else:
            blocks.append(np.array([[rng.uniform(-2.0, -0.1)]]))
            pos += 1
    gauss = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(gauss)
    q = q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)[np.newaxis, :]
    return block_expm(blocks, q, dt)


def template_generators(dim: int, n_generators: int, rng: np.random.Generator) -> np.ndarray:
    """Template with the identity as the first ``dim`` columns and uniformly
    random unit vectors for the rest (full row rank by construction)."""
    if n_generators < dim:
        raise DimensionError(f"need at least {dim} generators, got {n_generators}")
    extra = n_generators - dim
    columns = [np.eye(dim)]
    if extra:
        raw = rng.standard_normal((dim, extra))
        columns.append(raw / np.linalg.norm(raw, axis=0, keepdims=True))
    return np.hstack(columns)


def make_trial(spec: TrialSpec, kind: str = "sfg", objective: str = "lgv") -> InvarianceProblem:
    """Build the invariance problem of a trial for one method.

    All methods of a trial share the dynamics and (for the scaled-template
    family) the template, because the RNG depends only on the trial identity.
    The state box is ``[-1, 1]^d`` and the disturbance offset is zero.  The
    triangular family ignores ``n_generators`` (it always uses d generators)
    but keeps the same dynamics draw.
    """
    rng = trial_rng(spec)
    a_matrix = random_stable_A(spec.dim, spec.dt, rng)
    template = template_generators(spec.dim, spec.n_generators, rng)
    if kind == "sfg":
        parameterization = SfgParameterization(template)
    elif kind == "utpd":
        parameterization = UtpdParameterization(spec.dim)
    else:
        raise DimensionError(f"unknown parameterization kind {kind!r}")
    system = AffineSystem(a_matrix, np.zeros(spec.dim))
    box = Box(-np.ones(spec.dim), np.ones(spec.dim))
    return InvarianceProblem(system, box, spec.horizon, parameterization, objective)
