"""Invariance constraints for affine dynamics, assembled as linear inequalities.

For the dynamics ``x(t+1) = A x(t) + w`` and a state box ``X = [lo, up]``, a
zonotope ``Z = <c | G>`` is checked through its reach sets: with
``drift(t) = sum_{s<t} A^s w``, the reach set at time ``t`` has center
``A^t c + drift(t)`` and generators ``A^t G``, and it lies inside ``X`` iff

    A^t c + drift(t) - |A^t G| 1 >= lo      and
    A^t c + drift(t) + |A^t G| 1 <= up,

where ``|.|`` is the elementwise absolute value and ``|A^t G| 1`` the vector
of row sums.  Requiring this for ``t = 0..T`` yields finitely many
conditions; both parameterizations turn them into linear inequalities
``C z <= b``:

* scaled templates: ``|A^t G diag(gamma)| 1 = |A^t G| gamma`` for
  ``gamma > 0``, so the rows are linear in ``(c, gamma)`` directly;
* triangular generators: the absolute values are lifted exactly with
  auxiliary variables ``M_t >= +- A^t G`` (elementwise); at ``t = 0`` the
  diagonal entries have known positive sign, so only the off-diagonal
  entries get auxiliaries.

Most of those rows are implied by earlier ones.  Since ``R_t = A^k R_{t-k}
+ drift(k)``, once the box maps into itself in k steps (``A^k X + drift(k)
subset X``), every reach set at ``t >= k`` lies in the box as soon as the one
at ``t - k`` does, so by induction the rows of ``t = 0..k-1`` imply all
others (the finite determination of maximal output admissible sets,
Gilbert & Tan, IEEE TAC 36(9), 1991).  :func:`implied_horizon` finds that k
and :func:`assemble` builds only the rows it keeps; the feasible set in
``(c, gamma)`` or ``(c, G)`` is unchanged.  Certificates still check every
``t = 0..T``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse

from .errors import DimensionError, UnsupportedError
from .numerics import as_matrix, as_vector, power_chain
from .parameterizations import SfgParameterization, UtpdParameterization, make_objective
from .zonotope import Box, Zonotope, affine_image

__all__ = [
    "AffineSystem",
    "InvarianceProblem",
    "VariableLayout",
    "LinearInequalitySystem",
    "reach_zonotope",
    "implied_horizon",
    "assemble",
    "assemble_sfg",
    "assemble_utpd",
    "warm_start_point",
    "certificate_violation",
    "check_invariance_certificate",
]


@dataclass(frozen=True)
class AffineSystem:
    """Discrete-time dynamics ``x(t+1) = A x(t) + w``."""

    A: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.A, name="A")
        if a.shape[0] != a.shape[1]:
            raise DimensionError(f"A must be square, got {a.shape}")
        w = as_vector(self.w, size=a.shape[0], name="w")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "w", w)

    @property
    def dim(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class InvarianceProblem:
    """Maximize a volume objective over zonotopes invariant for ``system`` in ``box``."""

    system: AffineSystem
    box: Box
    horizon: int
    parameterization: SfgParameterization | UtpdParameterization
    objective: str

    def __post_init__(self):
        d = self.system.dim
        if self.box.dim != d:
            raise DimensionError(f"box dimension {self.box.dim} does not match system dimension {d}")
        pdim = self.parameterization.dim
        if pdim != d:
            raise DimensionError(f"parameterization dimension {pdim} does not match system dimension {d}")
        if self.horizon < 0:
            raise DimensionError(f"horizon must be nonnegative, got {self.horizon}")
        make_objective(self.objective, self.parameterization)  # validates the pairing

    @property
    def dim(self) -> int:
        return self.system.dim


def _drift_table(system: AffineSystem, horizon: int) -> np.ndarray:
    """Accumulated offsets ``drift(t) = sum_{s<t} A^{t-1-s} w`` for t = 0..horizon,
    shape (horizon+1, d); ``drift(0)`` is zero."""
    if horizon < 0:
        raise DimensionError(f"horizon must be nonnegative, got {horizon}")
    drifts = np.zeros((horizon + 1, system.dim))
    for t in range(1, horizon + 1):
        drifts[t] = system.A @ drifts[t - 1] + system.w
    return drifts


def reach_zonotope(system: AffineSystem, zonotope: Zonotope, t: int) -> Zonotope:
    """Reach set at time ``t``: center ``A^t c + drift(t)``, generators ``A^t G``."""
    if zonotope.dim != system.dim:
        raise DimensionError("zonotope dimension does not match system dimension")
    powers = power_chain(system.A, t)
    return affine_image(zonotope, powers[t], _drift_table(system, t)[t])


@dataclass(frozen=True)
class VariableLayout:
    """Where each variable group lives inside the stacked vector ``z``.

    ``center`` and ``free`` always exist; the triangular parameterization adds
    ``aux0`` (off-diagonal absolute values at t = 0) and ``lifted`` (the
    ``M_t`` blocks for t >= 1).  ``horizon`` is the last time step with rows
    in the system: the problem's horizon for :func:`assemble_sfg` and
    :func:`assemble_utpd`, its :func:`implied_horizon` for :func:`assemble`.

    ``elim_blocks`` lists, for the Newton solver, one group of lifted
    variables per (t, state row i): the d entries ``M_t[i, :]``.
    ``block_rows`` is aligned with it and names the only rows of ``C`` that
    touch the group, as a (d + 1, 2) array.  Row pair j < d holds the two
    aux rows of ``M_t[i, j]`` (coefficient -1 on that entry and on no other
    entry of the group); pair d holds the lower and upper box rows of (t, i)
    (coefficient +1 on every entry of the group).  So the group's barrier
    Hessian is diagonal plus rank one, and groups share no row.
    """

    kind: str
    dim: int
    n_generators: int
    horizon: int
    n: int
    m: int
    center: slice
    free: slice
    aux0: slice | None = None
    lifted: slice | None = None
    elim_blocks: tuple = ()
    block_rows: tuple = ()
    parameterization: object = None

    def decode(self, z) -> dict:
        """Split a solution vector into named parts including the zonotope."""
        z = as_vector(z, size=self.n, name="z")
        param = self.parameterization
        c = z[self.center].copy()
        free = z[self.free].copy()
        out = {"center": c, "free": free, "generators": param.effective_generators(free)}
        if self.kind == "sfg":
            out["gamma"] = free
        if self.aux0 is not None:
            out["aux0"] = z[self.aux0].copy()
        if self.lifted is not None:
            out["lifted"] = z[self.lifted].reshape(self.horizon, self.dim, self.dim).copy()
        return out

    def encode(self, center, free, aux0=None, lifted=None) -> np.ndarray:
        """Inverse of :meth:`decode` (lossless round trip)."""
        z = np.zeros(self.n)
        z[self.center] = as_vector(center, size=self.dim, name="center")
        z[self.free] = as_vector(free, size=self.free.stop - self.free.start, name="free")
        if self.aux0 is not None:
            if aux0 is None:
                raise DimensionError("this layout requires aux0 values")
            z[self.aux0] = as_vector(aux0, size=self.aux0.stop - self.aux0.start, name="aux0")
        if self.lifted is not None:
            if lifted is None:
                raise DimensionError("this layout requires lifted values")
            lifted = np.asarray(lifted, dtype=float)
            z[self.lifted] = lifted.reshape(-1)
        return z


@dataclass(frozen=True)
class LinearInequalitySystem:
    """Linear inequalities ``C z <= b`` with a variable layout.

    ``C`` is stored sparse (CSR) with the column indices of every row sorted;
    ``layout`` says which variables each column holds and, for the lifted
    triangular systems, which rows touch each elimination block.
    """

    C: scipy.sparse.csr_matrix
    b: np.ndarray
    layout: VariableLayout

    @property
    def shape(self) -> tuple[int, int]:
        return self.C.shape

    def slacks(self, z) -> np.ndarray:
        return self.b - self.C @ np.asarray(z, dtype=float)


def implied_horizon(problem: InvarianceProblem) -> int:
    """Smallest horizon whose reach-set rows imply those of every t <= T.

    With m and h the box midpoint and half-widths, the box maps into itself
    in k steps when ``|A^k| h + |A^k m + drift(k) - m| <= h - margin`` in
    every row, for ``margin = 1e-9 max(h)``.  Returns k - 1 for the smallest
    such k >= 1, or T when no k <= T qualifies.  The offset ``A^k m +
    drift(k) - m`` is summed as ``sum_{s<k} A^s (A m + w - m)``, which is
    exact algebra and keeps a far-off midpoint from cancelling.
    """
    box, system = problem.box, problem.system
    mid, half = box.midpoint, 0.5 * (box.upper - box.lower)
    powers = power_chain(system.A, problem.horizon)
    offsets = np.cumsum(powers[:-1] @ (system.A @ mid + system.w - mid), axis=0)   # k = 1..T
    excess = np.abs(powers[1:]) @ half + np.abs(offsets) - half + 1e-9 * np.max(half)
    fits = np.all(excess <= 0.0, axis=1)
    return int(np.argmax(fits)) if fits.any() else problem.horizon


def assemble(problem: InvarianceProblem) -> LinearInequalitySystem:
    """Assemble the constraint system for either parameterization over the
    :func:`implied_horizon` of ``problem``; its layout records that horizon.
    The system has the same feasible set as the one over ``problem.horizon``."""
    kept = replace(problem, horizon=implied_horizon(problem))
    if problem.parameterization.kind == "sfg":
        return assemble_sfg(kept)
    if problem.parameterization.kind == "utpd":
        return assemble_utpd(kept)
    raise UnsupportedError(f"unknown parameterization kind {problem.parameterization.kind!r}")


def assemble_sfg(problem: InvarianceProblem) -> LinearInequalitySystem:
    """Rows, for t = 0..T: d "lower" rows ``-A^t c + |A^t G| gamma <= drift - lo``
    then d "upper" rows ``A^t c + |A^t G| gamma <= up - drift``; finally the p
    scale-floor rows ``-gamma <= -scale_floor``.  n = d + p, m = 2d(T+1) + p.
    """
    param = problem.parameterization
    if param.kind != "sfg":
        raise UnsupportedError("assemble_sfg requires the scaled-template parameterization")
    d, p, T = problem.dim, param.n_generators, problem.horizon
    n = d + p
    m = 2 * d * (T + 1) + p
    powers = power_chain(problem.system.A, T)
    drifts = _drift_table(problem.system, T)
    lo, up = problem.box.lower, problem.box.upper

    floor_base = 2 * d * (T + 1)
    c_mat = np.zeros((m, n))
    b = np.zeros(m)
    reach = c_mat[:floor_base].reshape(T + 1, 2, d, n)      # [t, lower/upper, i, :]
    reach[:, 0, :, :d] = -powers
    reach[:, 1, :, :d] = powers
    reach[:, :, :, d:] = np.abs(powers @ param.template)[:, np.newaxis]   # |A^t G|
    reach_b = b[:floor_base].reshape(T + 1, 2, d)
    reach_b[:, 0] = drifts - lo
    reach_b[:, 1] = up - drifts
    c_mat[floor_base + np.arange(p), d + np.arange(p)] = -1.0
    b[floor_base:] = -param.scale_floor

    layout = VariableLayout(
        kind="sfg", dim=d, n_generators=p, horizon=T, n=n, m=m,
        center=slice(0, d), free=slice(d, d + p), parameterization=param,
    )
    return LinearInequalitySystem(scipy.sparse.csr_matrix(c_mat), b, layout)


def assemble_utpd(problem: InvarianceProblem) -> LinearInequalitySystem:
    """Exact lifting of the triangular-parameterization constraints.

    Variables: center c (d), packed triangle g (d(d+1)/2), off-diagonal
    auxiliaries at t = 0 (d(d-1)/2, since the diagonal has known sign), and
    for each t = 1..T a full auxiliary matrix ``M_t`` (d^2) with
    ``M_t >= +-(A^t G)`` elementwise.  Row order: d diagonal-floor rows;
    t = 0 lower/upper box rows; t = 0 off-diagonal aux rows (pairs +,-);
    then per t >= 1 the 2 d^2 aux rows of ``M_t[i, j]`` in row-major order
    (pairs +,-) followed by the 2d box rows (lower then upper).

    Each row family is one broadcast of (row, column, value) over its index
    grid; the columns of ``G[k, j]`` and ``aux0[i, j]`` come from two packed
    position tables.  The CSR conversion sorts every row by column, so the
    order of the families does not change ``C``.
    """
    param = problem.parameterization
    if param.kind != "utpd":
        raise UnsupportedError("assemble_utpd requires the triangular parameterization")
    d, T = problem.dim, problem.horizon
    n_g = d * (d + 1) // 2
    n_aux0 = d * (d - 1) // 2
    aux0_off = d + n_g
    m_off = aux0_off + n_aux0      # M_1 starts here; M_t block is d*d wide
    n = m_off + T * d * d
    m = 3 * d + d * (d - 1) + T * (2 * d * d + 2 * d)
    powers = power_chain(problem.system.A, T)
    drifts = _drift_table(problem.system, T)
    lo, up = problem.box.lower, problem.box.upper

    idx = np.arange(d)
    g_pos = np.zeros((d, d), dtype=np.intp)              # column of G[k, j], k <= j
    k_tri, j_tri = np.triu_indices(d)
    g_pos[k_tri, j_tri] = d + np.arange(n_g)
    aux0_pos = np.zeros((d, d), dtype=np.intp)           # column of aux0[i, j], i < j
    i_off, j_off = np.triu_indices(d, 1)
    aux0_pos[i_off, j_off] = aux0_off + np.arange(n_aux0)
    diag_cols = g_pos[idx, idx]
    pm = np.array([1.0, -1.0])                           # signs of an aux pair (+, -)

    # t = 0: box rows [i, lower/upper] and off-diagonal aux pairs [q, +/-].
    box0 = d + idx[:, np.newaxis] + np.array([0, d])
    aux0_rows = 3 * d + 2 * np.arange(n_aux0)[:, np.newaxis] + np.array([0, 1])
    # t >= 1: block_rows[t-1, i] holds the aux pairs of M_t[i, :] and the box
    # pair of (t, i); m_cols[t-1, i, j] is the column of M_t[i, j].
    aux_base = 3 * d + d * (d - 1) + np.arange(T) * (2 * d * d + 2 * d)
    block_rows = np.empty((T, d, d + 1, 2), dtype=np.intp)
    block_rows[:, :, :d] = (aux_base[:, np.newaxis, np.newaxis, np.newaxis]
                            + 2 * (d * idx[:, np.newaxis, np.newaxis] + idx[:, np.newaxis]) + np.array([0, 1]))
    block_rows[:, :, d] = aux_base[:, np.newaxis, np.newaxis] + 2 * d * d + idx[:, np.newaxis] + np.array([0, d])
    m_cols = m_off + np.arange(T * d * d, dtype=np.intp).reshape(T, d, d)
    box_t = block_rows[:, :, d, np.newaxis, :]           # (T, d, 1, 2)
    lifted_powers = powers[1:, :, :, np.newaxis]         # (T, d, d, 1): A^t[i, k]

    families = [  # (rows, columns, values), broadcast against each other
        (idx, diag_cols, -1.0),                                   # -G[i, i] <= -diag_floor
        (box0, idx[:, np.newaxis], -pm),                          # t = 0 box rows: -+c
        (box0, diag_cols[:, np.newaxis], 1.0),                    #   + G[i, i] (known sign)
        (box0[i_off], aux0_pos[i_off, j_off, np.newaxis], 1.0),   #   + aux0[i, j], j > i
        (aux0_rows, g_pos[i_off, j_off, np.newaxis], pm),         # +-G[i, j] - aux0[i, j] <= 0
        (aux0_rows, aux0_pos[i_off, j_off, np.newaxis], -1.0),
        (block_rows[:, :, j_tri], g_pos[k_tri, j_tri, np.newaxis],  # +-(A^t G)[i, j], k <= j
         lifted_powers[:, :, k_tri] * pm),
        (block_rows[:, :, :d], m_cols[..., np.newaxis], -1.0),    #   - M_t[i, j] <= 0
        (box_t, idx[:, np.newaxis], lifted_powers * -pm),         # t >= 1 box rows: -+A^t c
        (box_t, m_cols[..., np.newaxis], 1.0),                    #   + sum_j M_t[i, j]
    ]
    triples = [[a.ravel() for a in np.broadcast_arrays(*family)] for family in families]
    rows, cols, vals = (np.concatenate(part) for part in zip(*triples))
    c_mat = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(m, n)).tocsr()

    b = np.zeros(m)                                      # aux rows stay zero
    b[:d] = -param.diag_floor
    b[box0[:, 0]], b[box0[:, 1]] = drifts[0] - lo, up - drifts[0]
    b[block_rows[:, :, d, 0]], b[block_rows[:, :, d, 1]] = drifts[1:] - lo, up - drifts[1:]

    layout = VariableLayout(
        kind="utpd", dim=d, n_generators=d, horizon=T, n=n, m=m,
        center=slice(0, d), free=slice(d, aux0_off), aux0=slice(aux0_off, m_off),
        lifted=slice(m_off, n) if T else None,
        elim_blocks=tuple(m_cols.reshape(T * d, d)), block_rows=tuple(block_rows.reshape(T * d, d + 1, 2)),
        parameterization=param,
    )
    return LinearInequalitySystem(c_mat, b, layout)


def warm_start_point(problem: InvarianceProblem, layout: VariableLayout) -> np.ndarray:
    """Candidate interior point: box midpoint, tiny scales, padded auxiliaries.

    The lifted auxiliaries cover ``layout.horizon``, the horizon the system
    was assembled over, which may be shorter than ``problem.horizon``.  Not
    guaranteed feasible (e.g. for large drift); callers must check the
    slacks and fall back to the auxiliary phase-1 problem if needed.
    """
    param = problem.parameterization
    mid = problem.box.midpoint
    free0 = param.initial_free()
    if layout.kind == "sfg":
        return layout.encode(mid, free0)
    d, T = problem.dim, layout.horizon
    pad = 10.0 * param.diag_floor
    g0 = param.unpack(free0)
    aux0 = np.full(d * (d - 1) // 2, pad)
    powers = power_chain(problem.system.A, T)
    lifted = np.abs(powers[1:] @ g0) + pad if T else None
    return layout.encode(mid, free0, aux0=aux0, lifted=lifted)


def certificate_violation(system: AffineSystem, box: Box, horizon: int, zonotope: Zonotope) -> float:
    """Largest box violation of any reach set over t = 0..horizon (0 if none).

    Evaluates ``A^t c + drift(t) -+ |A^t G| 1`` directly against the box; the
    returned value is ``max(0, max violation)`` over all times/coordinates.
    """
    if zonotope.dim != system.dim or box.dim != system.dim:
        raise DimensionError("system, box and zonotope dimensions must agree")
    powers = power_chain(system.A, horizon)
    centers = powers @ zonotope.center + _drift_table(system, horizon)      # (T + 1, d)
    radii = np.sum(np.abs(powers @ zonotope.generators), axis=2)
    worst = max(float(np.max(box.lower - (centers - radii))), float(np.max((centers + radii) - box.upper)))
    return max(worst, 0.0)


def check_invariance_certificate(
    system: AffineSystem, box: Box, horizon: int, zonotope: Zonotope, tol: float = 1e-9
) -> bool:
    """True iff every reach set over t = 0..horizon lies in the box within ``tol``."""
    return certificate_violation(system, box, horizon, zonotope) <= tol
