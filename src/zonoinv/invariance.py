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
  auxiliary variables ``M_t >= +- A^t G`` (elementwise), at every ``t``
  alike (``A^0 = I``).

Most of those rows are implied by earlier ones.  Since ``R_t = A^k R_{t-k}
+ drift(k)``, once row i of the box maps into itself in k_i steps (row i of
``A^{k_i} X + drift(k_i)`` lies in ``[lo_i, up_i]``), row i of every reach
set at ``t >= k_i`` lies in the box as soon as the whole reach set at
``t - k_i`` does.  So by induction on t the rows (t, i) with ``t < k_i``
imply all others (the finite determination of maximal output admissible
sets, Gilbert & Tan, IEEE TAC 36(9), 1991, applied per row).
:func:`presolve` finds the k_i and :func:`assemble` builds only the
rows it keeps; the feasible set in ``(c, gamma)`` or ``(c, G)`` is
unchanged.  Certificates still check every ``t = 0..T``.

The same intervals, read the other way round, show when no zonotope is
invariant at all: every zonotope contains its center, and when row i of
``A^k X + drift(k)`` misses ``[lo_i, up_i]`` no center in the box stays in
it for k steps.  :func:`presolve` returns both answers from one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import DimensionError, UnsupportedError
from .numerics import as_matrix, as_vector, power_chain
from .parameterizations import SfgParameterization, UtpdParameterization, make_objective
from .zonotope import Box, Zonotope

__all__ = [
    "CERTIFICATE_TOL",
    "AffineSystem",
    "InvarianceProblem",
    "VariableLayout",
    "LinearInequalitySystem",
    "presolve",
    "assemble",
    "assemble_sfg",
    "assemble_utpd",
    "warm_start_point",
    "certificate_violation",
    "check_invariance_certificate",
]


@dataclass(frozen=True)
class AffineSystem:
    """Discrete-time dynamics ``x(t+1) = A x(t) + w``; ``w`` defaults to zero.

    Each message of a failed check starts with the field's name.
    """

    A: np.ndarray
    w: np.ndarray | None = None

    def __post_init__(self):
        a = as_matrix(self.A, name="A")
        if a.shape[0] != a.shape[1]:
            raise DimensionError(f"A must be square, got {a.shape}")
        w = np.zeros(a.shape[0]) if self.w is None else as_vector(self.w, size=a.shape[0], name="w")
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


@dataclass(frozen=True)
class VariableLayout:
    """Where each variable group lives inside the stacked vector ``z``.

    ``center`` and ``free`` always exist; the triangular parameterization
    adds ``lifted`` (the kept rows ``M_t[i, :]``, t = 0 included).
    ``row_steps[i]`` is the number of time steps t = 0, 1, ... whose rows
    for state row i are in the system: T + 1 for :func:`assemble_sfg` and
    :func:`assemble_utpd` by default, :func:`presolve` for :func:`assemble`.
    ``horizon``, the last time step with any row, is ``max(row_steps) - 1``.

    ``elim_blocks`` lists, for the Newton solver, one group of lifted
    variables per kept (t, state row i): the d entries ``M_t[i, :]``.
    ``block_rows`` is aligned with it and names the only rows of ``C`` that
    touch the group, as a (d + 1, 2) array.  Row pair j < d holds the two
    aux rows of ``M_t[i, j]`` (coefficient -1 on that entry and on no other
    entry of the group); pair d holds the lower and upper box rows of (t, i)
    (coefficient +1 on every entry of the group).  So the group's barrier
    Hessian is diagonal plus rank one, and groups share no row.  The d
    diagonal-floor rows are the only rows outside every group.

    ``block_support`` and ``block_coef`` hold what those rows have on the
    other columns.  ``block_support`` has shape (d + 1, w): row j < d lists
    the columns of ``G[k, j]``, k <= j, that aux pair j touches, row d the
    columns of c that the box pair touches, each padded with -1 (w = d for
    :func:`assemble_utpd`).  ``block_coef`` has shape (d + 1, 2, B, w) for
    B blocks: ``block_coef[g, h, b, s]`` is the entry of row h of pair g of
    block b on column ``block_support[g, s]``, zero on padding.  Both are
    None in a scaled-template layout.
    """

    kind: str
    dim: int
    n_generators: int
    row_steps: tuple
    n: int
    m: int
    center: slice
    free: slice
    lifted: slice | None = None
    elim_blocks: tuple = ()
    block_rows: tuple = ()
    block_support: np.ndarray | None = None
    block_coef: np.ndarray | None = None
    parameterization: object = None

    @property
    def horizon(self) -> int:
        return max(self.row_steps) - 1

    def decode(self, z) -> dict:
        """Split a solution vector into named parts including the zonotope.

        ``lifted`` is a (horizon + 1, d, d) array whose dropped rows
        ``M_t[i, :]`` (``t >= row_steps[i]``) are zero."""
        z = as_vector(z, size=self.n, name="z")
        param = self.parameterization
        c = z[self.center].copy()
        free = z[self.free].copy()
        out = {"center": c, "free": free, "generators": param.effective_generators(free)}
        if self.lifted is not None:
            lifted = np.zeros((self.horizon + 1, self.dim, self.dim))
            lifted[_kept_rows(self.row_steps)] = z[self.lifted].reshape(-1, self.dim)
            out["lifted"] = lifted
        return out

    def encode(self, center, free, lifted=None) -> np.ndarray:
        """Inverse of :meth:`decode` (lossless round trip); ``lifted`` is a
        (horizon + 1, d, d) array, of which only the kept rows are written."""
        z = np.zeros(self.n)
        z[self.center] = as_vector(center, size=self.dim, name="center")
        z[self.free] = as_vector(free, size=self.free.stop - self.free.start, name="free")
        if self.lifted is not None:
            if lifted is None:
                raise DimensionError("this layout requires lifted values")
            lifted = np.asarray(lifted, dtype=float)
            shape = (self.horizon + 1, self.dim, self.dim)
            if lifted.shape != shape:
                raise DimensionError(f"lifted must have shape {shape}, got {lifted.shape}")
            z[self.lifted] = lifted[_kept_rows(self.row_steps)].ravel()
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


def _kept_rows(steps) -> np.ndarray:
    """Mask of the reach-set rows in a system, shape (max(steps), d): row
    (t, i) is kept iff ``t < steps[i]``."""
    steps = np.asarray(steps)
    return np.arange(steps.max())[:, np.newaxis] < steps


def _row_steps(problem: InvarianceProblem, steps) -> np.ndarray:
    """``steps`` checked against ``problem``; None keeps every t <= T."""
    if steps is None:
        return np.full(problem.dim, problem.horizon + 1, dtype=np.intp)
    steps = np.asarray(steps, dtype=np.intp)
    if steps.shape != (problem.dim,) or steps.min() < 1 or steps.max() > problem.horizon + 1:
        raise DimensionError(f"row steps must be {problem.dim} integers in 1..{problem.horizon + 1}, got {steps}")
    return steps


def presolve(
    problem: InvarianceProblem, powers: np.ndarray | None = None
) -> tuple[np.ndarray, tuple[int, int] | None]:
    """The reach-set presolve of a solve: the row steps k_i, and the first
    (t, i) at which the center of every candidate zonotope has left the box,
    or None.  k_i is the number of time steps whose rows of state row i are
    kept: the smallest k >= 1 such that row i of the box maps into itself in
    k steps, or T + 1 when no k <= T qualifies.  The rows (t, i) with
    ``t < k_i`` imply those of every t <= T (see the module docstring).

    Let m and h be the box midpoint and half-widths, ``off(k) = A^k m +
    drift(k) - m`` and ``spread(k) = |A^k| h``.  From a center in the box,
    row i of the center at time k lies in ``m_i + off_i(k) +- spread_i(k)``,
    and row i of the whole box maps to the same interval.  Row i of the box
    maps into itself in k steps when ``|off_i(k)| + spread_i(k) <= h_i -
    margin``; the interval misses the box when ``|off_i(k)| > spread_i(k) +
    h_i + margin``, for ``margin = 1e-9 max(h)``.  Every invariant zonotope
    contains its center, so in that case the problem is infeasible; the
    first such k <= T (then the first row i) is returned as (t, i).  The
    margin scales with the box, so neither answer depends on its units.
    The offset is summed as ``sum_{s<k} A^s (A m + w - m)``, which is exact
    algebra and keeps a far-off midpoint from cancelling.  ``powers``, when
    given, is ``power_chain(A, T)``.
    """
    box, system, T = problem.box, problem.system, problem.horizon
    powers = power_chain(system.A, T) if powers is None else powers
    mid, half = box.midpoint, 0.5 * (box.upper - box.lower)
    margin = 1e-9 * np.max(half)
    offsets = np.abs(np.cumsum(powers[:T] @ (system.A @ mid + system.w - mid), axis=0))   # k = 1..T
    spread = np.abs(powers[1:T + 1]) @ half
    fits = np.vstack([spread + offsets - half + margin <= 0.0, np.ones((1, problem.dim), dtype=bool)])   # then T + 1
    leaves = np.argwhere(offsets - spread - half - margin > 0.0)   # row-major: first k, then first i
    exit_row = (int(leaves[0, 0]) + 1, int(leaves[0, 1])) if leaves.size else None
    return np.argmax(fits, axis=0) + 1, exit_row


def assemble(
    problem: InvarianceProblem, powers: np.ndarray | None = None, steps=None
) -> LinearInequalitySystem:
    """Assemble the constraint system for either parameterization over the
    rows that the row steps of :func:`presolve` keep; its layout records
    them.  The system has the same feasible set as the one over every
    t <= T.  ``powers``, when given, is ``power_chain(A, T)``, and
    ``steps``, when given, the row steps of :func:`presolve`."""
    powers = power_chain(problem.system.A, problem.horizon) if powers is None else powers
    steps = presolve(problem, powers)[0] if steps is None else steps
    if problem.parameterization.kind == "sfg":
        return assemble_sfg(problem, steps, powers)
    if problem.parameterization.kind == "utpd":
        return assemble_utpd(problem, steps, powers)
    raise UnsupportedError(f"unknown parameterization kind {problem.parameterization.kind!r}")


def assemble_sfg(problem: InvarianceProblem, steps=None, powers: np.ndarray | None = None) -> LinearInequalitySystem:
    """Rows, for t = 0..T: d "lower" rows ``-A^t c + |A^t G| gamma <= drift - lo``
    then d "upper" rows ``A^t c + |A^t G| gamma <= up - drift``; finally the p
    scale-floor rows ``-gamma <= -scale_floor``.  Of the reach-set rows only
    those of state row i at t < ``steps[i]`` are kept (every t <= T by
    default), in the same order.  n = d + p, m = 2 sum(steps) + p.
    ``powers``, when given, is a power chain at least that long.
    """
    param = problem.parameterization
    if param.kind != "sfg":
        raise UnsupportedError("assemble_sfg requires the scaled-template parameterization")
    steps = _row_steps(problem, steps)
    d, p, horizon = problem.dim, param.n_generators, int(steps.max()) - 1
    n = d + p
    powers = power_chain(problem.system.A, horizon) if powers is None else powers[:horizon + 1]
    drifts = _drift_table(problem.system, horizon)

    reach = np.empty((horizon + 1, 2, d, n))                # [t, lower/upper, i, :]
    reach[:, 0, :, :d] = -powers
    reach[:, 1, :, :d] = powers
    reach[:, :, :, d:] = np.abs(powers @ param.template)[:, np.newaxis]   # |A^t G|
    reach_b = np.stack([drifts - problem.box.lower, problem.box.upper - drifts], axis=1)
    kept = np.broadcast_to(_kept_rows(steps)[:, np.newaxis], reach_b.shape)
    floor = np.hstack([np.zeros((p, d)), -np.eye(p)])
    c_mat = np.vstack([reach[kept], floor])
    b = np.concatenate([reach_b[kept], np.full(p, -param.scale_floor)])

    layout = VariableLayout(
        kind="sfg", dim=d, n_generators=p, row_steps=tuple(steps.tolist()), n=n, m=b.size,
        center=slice(0, d), free=slice(d, d + p), parameterization=param,
    )
    return LinearInequalitySystem(scipy.sparse.csr_matrix(c_mat), b, layout)


def assemble_utpd(problem: InvarianceProblem, steps=None, powers: np.ndarray | None = None) -> LinearInequalitySystem:
    """Exact lifting of the triangular-parameterization constraints.

    Variables: center c (d), packed triangle g (d(d+1)/2), and for each kept
    (t, i) the row ``M_t[i, :]`` (d) of an auxiliary matrix with
    ``M_t >= +-(A^t G)`` elementwise, ``A^0 = I``.  State row i is kept at
    t < ``steps[i]`` (every t <= T by default); ``powers``, when given, is a
    power chain at least that long.  Row order: d diagonal-floor rows; then
    per t the 2d aux rows of each kept ``M_t[i, :]`` (pairs +,-, row-major)
    followed by the lower then the upper box rows of those (t, i).  Dropping
    (t, i) drops its d variables and 2d + 2 rows.  For B = sum(steps)
    blocks, n = d + d(d+1)/2 + B d and m = d + B (2d + 2).

    Each row family is one broadcast of (row, column, value) over its index
    grid; the columns of ``G[k, j]`` come from a packed position table.  The
    entries of the block rows outside their blocks are written from
    ``block_support`` and ``block_coef``, which the layout keeps for the
    Newton solver (see :class:`VariableLayout`).  The CSR conversion sorts
    every row by column, so the order of the families does not change ``C``.
    """
    param = problem.parameterization
    if param.kind != "utpd":
        raise UnsupportedError("assemble_utpd requires the triangular parameterization")
    steps = _row_steps(problem, steps)
    d, horizon = problem.dim, int(steps.max()) - 1
    t_blk, i_blk = np.nonzero(_kept_rows(steps))        # one block M_t[i, :] per kept (t, i)
    n_blocks = t_blk.size
    m_off = d + d * (d + 1) // 2   # the blocks start here, d columns each
    n = m_off + n_blocks * d
    m = d + n_blocks * (2 * d + 2)
    powers = power_chain(problem.system.A, horizon) if powers is None else powers[:horizon + 1]
    drifts = _drift_table(problem.system, horizon)
    lo, up = problem.box.lower, problem.box.upper

    idx = np.arange(d)
    g_pos = np.zeros((d, d), dtype=np.intp)              # column of G[k, j], k <= j
    k_tri, j_tri = np.triu_indices(d)
    g_pos[k_tri, j_tri] = np.arange(d, m_off)
    pm = np.array([1.0, -1.0])                           # signs of an aux pair (+, -)

    # block_rows[b] holds the aux pairs of block b's M_t[i, :] and the box
    # pair of its (t, i); m_cols[b, j] is the column of M_t[i, j].  Time t
    # holds count[t] blocks; block b is the rank[b]-th of its time.
    count = np.bincount(t_blk, minlength=horizon + 1)
    before = np.cumsum(count) - count                    # blocks of earlier times
    rank = np.arange(n_blocks) - before[t_blk]
    base = d + (2 * d + 2) * before[t_blk]
    width = count[t_blk]
    block_rows = np.empty((n_blocks, d + 1, 2), dtype=np.intp)
    block_rows[:, :d] = (base[:, np.newaxis, np.newaxis] + 2 * (d * rank[:, np.newaxis, np.newaxis]
                         + idx[:, np.newaxis]) + np.array([0, 1]))
    block_rows[:, d] = (base + 2 * d * width + rank)[:, np.newaxis] + width[:, np.newaxis] * np.array([0, 1])
    m_cols = m_off + np.arange(n_blocks * d, dtype=np.intp).reshape(n_blocks, d)
    box_t = block_rows[:, d, np.newaxis, :]              # (B, 1, 2)
    a_rows = powers[t_blk, i_blk]                        # (B, d): row i of A^t
    # What the block rows hold outside the blocks: aux pair j has
    # +-(A^t G)[i, j] = +-sum_{k<=j} (A^t)[i, k] G[k, j], the box pair -+(A^t c)_i.
    block_support = np.full((d + 1, d), -1, dtype=np.intp)
    block_support[j_tri, k_tri] = g_pos[k_tri, j_tri]
    block_support[d] = idx
    block_coef = np.zeros((d + 1, 2, n_blocks, d))
    block_coef[j_tri, :, :, k_tri] = pm[:, np.newaxis] * a_rows.T[k_tri, np.newaxis, :]
    block_coef[d] = -pm[:, np.newaxis, np.newaxis] * a_rows
    pair_rows, pair_cols = np.broadcast_arrays(block_rows.transpose(1, 2, 0)[..., np.newaxis],
                                               block_support[:, np.newaxis, np.newaxis])
    on = block_coef != 0.0                               # neither padding nor the zeros of A^t (A^0 = I)

    families = [  # (rows, columns, values), broadcast against each other
        (idx, g_pos[idx, idx], -1.0),                             # -G[i, i] <= -diag_floor
        (pair_rows[on], pair_cols[on], block_coef[on]),           # block rows, outside the blocks
        (block_rows[:, :d], m_cols[..., np.newaxis], -1.0),       # aux rows: - M_t[i, j] <= 0
        (box_t, m_cols[..., np.newaxis], 1.0),                    # box rows: + sum_j M_t[i, j]
    ]
    triples = [[a.ravel() for a in np.broadcast_arrays(*family)] for family in families]
    rows, cols, vals = (np.concatenate(part) for part in zip(*triples))
    c_mat = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(m, n)).tocsr()

    b = np.zeros(m)                                      # aux rows stay zero
    b[:d] = -param.diag_floor
    drift_blk = drifts[t_blk, i_blk]
    b[block_rows[:, d, 0]], b[block_rows[:, d, 1]] = drift_blk - lo[i_blk], up[i_blk] - drift_blk

    layout = VariableLayout(
        kind="utpd", dim=d, n_generators=d, row_steps=tuple(steps.tolist()), n=n, m=m,
        center=slice(0, d), free=slice(d, m_off), lifted=slice(m_off, n),
        elim_blocks=tuple(m_cols), block_rows=tuple(block_rows),
        block_support=block_support, block_coef=block_coef, parameterization=param,
    )
    return LinearInequalitySystem(c_mat, b, layout)


def warm_start_point(
    problem: InvarianceProblem, system: LinearInequalitySystem, powers: np.ndarray | None = None
) -> np.ndarray:
    """Interior point on the ray ``z0 + alpha z_dir`` for ``system``.

    ``z0`` is the box midpoint with tiny generators (``initial_free``) and
    the kept lifted rows at ``|A^t G|`` padded by ``10 diag_floor``.
    ``z_dir`` keeps the center and sets gamma = 1 (``sfg``), or G = diag(h)
    for the box half-widths h with the kept lifted rows at
    ``|A^t G| + 0.2 max(h)`` (``utpd``).
    Every row of ``C z <= b`` is affine in alpha; alpha is half the largest
    step before a rising row reaches its bound, so every slack stays at
    least half its value at ``z0``, and the point scales with the box.
    Returns ``z0`` itself when it is not strictly feasible (e.g. for large
    drift) or no row bounds the ray; callers must check the slacks and fall
    back to the auxiliary phase-1 problem if needed.  ``powers``, when
    given, is a power chain at least ``system.layout.horizon`` long.
    """
    layout = system.layout
    param = problem.parameterization
    box = problem.box
    d, mid, half = problem.dim, box.midpoint, 0.5 * (box.upper - box.lower)
    free0 = param.initial_free()
    if layout.kind == "sfg":
        z0 = layout.encode(mid, free0)
        z_dir = layout.encode(np.zeros(d), np.ones(layout.n_generators))
    else:
        horizon = layout.horizon
        powers = power_chain(problem.system.A, horizon) if powers is None else powers[:horizon + 1]
        pad, pad_dir = 10.0 * param.diag_floor, 0.2 * float(np.max(half))
        z0 = layout.encode(mid, free0, lifted=np.abs(powers @ param.unpack(free0)) + pad)
        z_dir = layout.encode(np.zeros(d), param.pack(np.diag(half)), lifted=np.abs(powers) * half + pad_dir)
    slacks, rate = system.slacks(z0), system.C @ z_dir
    rising = rate > 0.0
    if np.min(slacks) <= 0.0 or not rising.any():
        return z0
    return z0 + 0.5 * float(np.min(slacks[rising] / rate[rising])) * z_dir


# The largest box violation, absolute, that the reach-set certificate accepts.
CERTIFICATE_TOL = 1e-9


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
    system: AffineSystem, box: Box, horizon: int, zonotope: Zonotope, tol: float = CERTIFICATE_TOL
) -> bool:
    """True iff every reach set over t = 0..horizon lies in the box within ``tol``."""
    return certificate_violation(system, box, horizon, zonotope) <= tol
