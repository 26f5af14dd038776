"""Primal-dual interior-point solver for concave maximization over ``C z <= b``.

The method follows Waechter & Biegler (Math. Prog. 106, 2006, Sec. 2-3) on
``C z + s = b`` with slacks ``s > 0`` and duals ``lambda > 0``, and takes
Mehrotra's predictor-corrector step (Mehrotra, SIAM J. Optim. 2(4), 1992;
Nocedal & Wright, *Numerical Optimization*, Sec. 14.2, Alg. 14.3) inside
each barrier stage.  Every Newton step factors ``K = C^T diag(lambda / s) C
- hess f`` once and solves three kinds of right-hand side with it:

- the predictor ``K dz_a = grad f``, the affine step with no centering.  With
  ``q = (C dz_a) / s`` its slack step is ``-q s`` and its dual step
  ``lambda (q - 1)``; the complementarity ``mu_aff`` it reaches at its
  longest primal and dual steps to the boundary sets the target
  ``mu_t = min(mu_cur, max(mu, (mu_aff / mu_cur)^3 mu_cur))``, with
  ``mu_cur = s^T lambda / m``, never below the stage's ``mu``;
- the corrector ``K dz = grad f - C^T (mu_t / s + lambda q (q - 1))``, which
  adds the second-order term of the affine step;
- when the corrector is not a descent direction of ``phi_mu(z) = -f(z) - mu
  * sum(log(b - C z))``, the plain Newton step ``K dz = grad f - mu C^T (1 /
  s)``, whose right-hand side is minus the gradient of ``phi_mu``.

A backtracking (Armijo) line search on ``phi_mu``, with the step's
directional derivative, keeps the iterates strictly feasible, the slacks
are recomputed as ``b - C z``, and the duals take a fraction-to-boundary
step toward the step's target.  A stage ends when the scaled dual residual
and the complementarity error are within ``10 mu``; ``mu`` then falls
superlinearly, and the solve is optimal once ``s^T lambda`` and the scaled
dual residual are below ``gap_tol``.  The reported KKT residual, the
larger of ``max |grad f - C^T lambda|`` and ``max lambda_i s_i``, comes
from that last check's gradient, duals and slacks, so the final point is
differentiated once.  From the interior start of
:func:`~zonoinv.invariance.warm_start_point` a solve of the acceptance
batch takes 6-7 stages and 6-31 Newton steps, phase 1 included (the most at
(10,14) ``utpd+lgv``).

The operators of a solve are built once per :func:`maximize` call, in
:class:`_KKTSolver`: ``C``, its transpose and the block structure below, so
each Newton step is arithmetic on fixed arrays.  Every Newton system is
solved one way: eliminate the blocks of lifted variables, factor the Schur
complement on the "kept" variables by Cholesky (LAPACK ``potrf``) once per
step, and for each right-hand side substitute forward into it, solve
(``potrs``) and back-substitute into the blocks.  In the lifted triangular systems each
(time step, state row) block of d lifted variables touches only its
recorded rows (one aux-row pair per variable, one box-row pair shared by
all), so its Newton block is diagonal plus rank one and Sherman-Morrison
inverts it in O(d); the Schur complement onto the d + d(d+1)/2 kept
variables, the center and the packed triangle (plus phase 1's s), is
formed in closed form from the recorded rows.  A scaled-template system
has no blocks: every variable is kept, and the step is the dense solve.

An ``infeasible`` status comes from one of two places.  Before anything
is assembled, :func:`solve_invariance` runs the exact interval test of
:func:`~zonoinv.invariance.presolve`: when the center of every candidate
zonotope must leave the box, the solve ends after zero Newton steps and
its message names the time step and row.  What that test misses is left
to phase 1.  Phase 1 first tries a caller-provided warm-start point; if
some slack is below the strict-feasibility margin it maximizes ``-s``
subject to ``C z - s 1 <= b`` and ``s >= -1`` (only the sign of the optimum
matters) with the same loop.  It declares the problem infeasible only when
that solve is optimal and ``s`` is not clearly negative; when it stops
otherwise (time limit, iteration cap, numerical failure) its own status
and message are reported.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field, fields

import numpy as np
import scipy.sparse
from scipy.linalg.lapack import dpotrf as _potrf, dpotrs as _potrs

from .errors import DomainError, SchemaError, ZonoinvError
from .invariance import (
    InvarianceProblem,
    LinearInequalitySystem,
    VariableLayout,
    assemble,
    check_invariance_certificate,
    presolve,
    warm_start_point,
)
from .numerics import as_vector, is_finite_positive, power_chain
from .parameterizations import make_objective
from .zonotope import Zonotope

__all__ = [
    "OPTIMAL",
    "MAX_ITERATIONS",
    "INFEASIBLE",
    "NUMERICAL_FAILURE",
    "SolverOptions",
    "SolveResult",
    "maximize",
    "Phase1Stopped",
    "phase1_feasible_point",
    "solve_invariance",
]

OPTIMAL = "optimal"
MAX_ITERATIONS = "max_iterations"
INFEASIBLE = "infeasible"
NUMERICAL_FAILURE = "numerical_failure"
_KAPPA = 1e10  # the duals stay within this factor of mu / s


@dataclass(frozen=True)
class SolverOptions:
    """Interior-point knobs; every field has a working default.

    ``mu_factor`` bounds the per-stage reduction of the barrier weight:
    ``mu <- max(gap_tol / (10 m), min(mu_factor * mu, mu**1.5))`` for m
    constraint rows (Waechter & Biegler, Math. Prog. 106, 2006, eq. 7), so
    once ``mu < mu_factor**2`` the ``mu**1.5`` term takes over.  There is no
    absolute Newton-decrement tolerance: a stage ends on the relative dual
    residual and the complementarity error, and ``max_newton`` caps its
    Newton steps.  ``reg_floor`` sizes the shift of the one retried Cholesky
    factorization relative to the largest entry of ``C^T D C``; near
    ``mu = 1e-12`` round-off alone breaks definiteness, and a shift far
    above it (1e-10) damps the final steps until a stage runs out of them.

    ``time_limit`` (seconds, wall clock) is None by default because any
    time-dependent branching breaks bitwise determinism of the iterate
    sequence; set it only when a budget matters more than reproducibility.

    Construction checks every field, since options also arrive from files:
    each number must be finite and positive, ``max_newton`` an integer, and
    ``mu_factor`` and ``backtrack`` below 1.
    """

    mu0: float = 1.0
    mu_factor: float = 0.02
    gap_tol: float = 1e-8
    max_newton: int = 50
    backtrack: float = 0.5
    armijo: float = 1e-4
    reg_floor: float = 1e-13
    kkt_tol: float = 1e-4
    phase1_margin: float = 1e-6
    time_limit: float | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "max_newton":
                ok = isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1
                need = "an integer >= 1"
            else:
                ok = (value is None and f.name == "time_limit") or is_finite_positive(value)
                need = "a finite positive number"
            if not ok:
                raise SchemaError(f"options.{f.name} must be {need}, got {value!r}")
        for name in ("mu_factor", "backtrack"):
            if getattr(self, name) >= 1.0:
                raise SchemaError(f"options.{name} must lie in (0, 1), got {getattr(self, name)}")

    @classmethod
    def from_dict(cls, raw: dict) -> "SolverOptions":
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise SchemaError(f"options: unknown field(s) {sorted(unknown)}")
        return cls(**raw)


@dataclass
class SolveResult:
    """Outcome of one maximization.

    ``volume`` is filled by :func:`solve_invariance` (recomputed from the
    decoded zonotope via the closed-form volume) and present iff the status
    is ``optimal``.  ``stage_objectives`` records the objective at the end of
    each barrier stage, one entry per barrier weight, the last at the final
    iterate; it is nondecreasing up to round-off.  ``horizon_solved`` is the
    last time step with rows in the assembled system (``max k_i - 1`` for
    the per-row step counts of :func:`~zonoinv.invariance.presolve`),
    set by :func:`solve_invariance`.  ``message`` says why a solve is not
    ``optimal``.  For ``infeasible`` it is ``"no strictly feasible point: "``
    and the reason: the row i and time step k at which the presolve shows
    that the center must leave the box, or phase 1 finding no point with
    every slack above ``phase1_margin``.  A phase 1 that stops early
    reports its own status, and its message prefixed with ``"phase 1: "``.
    """

    status: str
    z: np.ndarray | None
    objective_value: float | None
    iterations: int
    wall_time: float
    volume: float | None = None
    kkt_residual: float | None = None
    stage_objectives: list = field(default_factory=list)
    zonotope: Zonotope | None = None
    certificate_ok: bool | None = None
    phase1_iterations: int = 0
    horizon_solved: int | None = None
    message: str = ""


class _KKTSolver:
    """Newton-system solver ``H delta = r`` for ``H = C^T diag(D) C - hess_f``.

    ``D = lambda / s`` (duals over slacks, both positive) is the row scaling
    of the primal-dual iteration, so ``H`` is positive definite at strictly
    feasible points (``C`` has full column rank by construction).

    One solver is built per :func:`maximize` call and holds every operator
    of the solve: ``C`` and its transpose ``CT`` for the products of each
    step (dense without elimination blocks, CSR with them), the rows
    outside every block on the kept columns as a dense ``C_0``, and the
    block structure below, so a Newton step is arithmetic on fixed arrays.

    :meth:`factor` forms ``H_kept = C_0^T D_0 C_0 - hess_f``, adds the
    Schur terms of the blocks and factors it, once per Newton step; the
    ``solve`` it returns takes any right-hand side through block forward
    substitution, the Cholesky solve and block back-substitution (Boyd &
    Vandenberghe, *Convex Optimization*, App. C.4: block elimination with
    the matrix inversion lemma).  So a Mehrotra step's predictor, corrector
    and fallback cost one factorization.  A system without blocks (``sfg``,
    and its phase 1) keeps every column and ``C_0`` is all of ``C``, so
    this is the dense solve.

    In the lifted triangular systems the variables of block b appear only
    in its recorded rows (``VariableLayout.block_rows``): pair j < d holds
    -1 on variable j, the last pair holds +1 on every variable.  So
    ``H_bb = diag(a) + beta 11^T``, with ``a_j`` the sum of D over pair j
    and ``beta`` the sum over the last pair, and Sherman-Morrison applies
    its inverse in O(d).  Variable j couples to the kept variables through
    ``c - g_j``, where ``g_j`` and ``c`` are the D-weighted sums of the kept
    coefficients of pair j and of the last pair.  Each pair touches a few
    kept columns (its support, from the layout's ``block_support`` and
    ``block_coef``), so the Schur terms, a small dense term per pair and the
    rank-one coupling between the pairs of each block, are formed in closed
    form and scattered in one ``bincount``; a solve's two substitutions are
    batched products with the couplings.  ``C_0`` holds the d
    diagonal-floor rows, which in phase 1 also hold s, and phase 1's bound
    row; of the block rows of ``C`` nothing is read.
    """

    def __init__(self, system: LinearInequalitySystem):
        layout = system.layout
        self.n = n = layout.n
        self.free = layout.free
        blk = layout.dim
        self.blocks = np.array(layout.elim_blocks, dtype=np.intp).reshape(-1, blk)   # (B, d)
        rows = np.array(layout.block_rows, dtype=np.intp).reshape(-1, blk + 1, 2)    # (B, d + 1, 2)
        self.n_blocks = n_blocks = len(self.blocks)
        # Dense BLAS without blocks; sparse algebra only pays off for the lifted systems.
        self.C = system.C if n_blocks else system.C.toarray()
        self.CT = self.C.T.tocsr() if n_blocks else self.C.T
        is_kept = np.ones(n, dtype=bool)
        is_kept[self.blocks] = False
        self.kept = np.flatnonzero(is_kept)
        n_keep = self.kept.size
        kept_pos = np.full(n, -1, dtype=np.intp)
        kept_pos[self.kept] = np.arange(n_keep)
        free_kept = kept_pos[layout.free]
        if np.any(free_kept < 0):
            raise ValueError("objective variables must not be eliminated")
        self.free_kept = slice(free_kept[0], free_kept[-1] + 1)    # free is contiguous among the kept
        outside = np.ones(system.shape[0], dtype=bool)
        outside[rows.ravel()] = False
        self.outside = np.flatnonzero(outside)
        c_0 = self.C[self.outside]
        # C-contiguous like a dense C: in another memory order BLAS takes another
        # kernel, and the sfg iterates would move at round-off.
        self.c_0 = np.ascontiguousarray((c_0.toarray() if n_blocks else c_0)[:, self.kept])
        if not n_blocks:
            return

        # Row pair g of every block: (d + 1, 2B), first rows then second rows.
        # Its kept coefficients are stored densely over the pair's support,
        # padded with the dummy column n_keep, blocks last: (d + 1, w, B), as
        # v + u on the first row and v - u on the second.  The aux and box
        # pairs bound the same expression from both sides, so v is zero
        # except on phase 1's s, which enters both rows.
        self.pair_rows = rows.transpose(1, 2, 0).reshape(blk + 1, 2 * n_blocks)
        support = np.where(layout.block_support >= 0, kept_pos[layout.block_support], n_keep)
        first, second = layout.block_coef.transpose(1, 0, 3, 2)
        self.coef_u = 0.5 * (first - second)
        coef_v = 0.5 * (first + second)
        self.coef_v = coef_v if coef_v.any() else None
        # Kept columns touched by the variable pairs, and the 0/1 matrix that
        # sums the padded support entries of the variable pairs onto them.
        var_pairs = support[:blk]
        self.cross = np.unique(var_pairs[var_pairs < n_keep])
        slots = np.searchsorted(self.cross, var_pairs).ravel()
        on = slots < self.cross.size
        self.cross_sum = scipy.sparse.csc_matrix(
            (np.ones(on.sum()), slots[on], np.append(0, np.cumsum(on))), shape=(self.cross.size, slots.size)
        )
        box = support[-1]
        # Flat targets in (n_keep + 1)^2 of the Schur terms, in the order
        # ``_factor`` concatenates their values.
        stride = n_keep + 1
        self.schur_flat = np.concatenate([
            (support[:, :, np.newaxis] * stride + support[:, np.newaxis, :]).ravel(),
            (self.cross[:, np.newaxis] * stride + np.append(self.cross, box)).ravel(),
            (self.cross[:, np.newaxis] + box * stride).ravel(),
        ])
        # Variable j of a block couples to the kept columns of its aux pair
        # and of the box pair: by kept position for the forward substitution,
        # by column of z (dummy n) for the back substitution.
        self.var_support = np.hstack([support[:blk], np.repeat(support[-1:], blk, axis=0)])
        self.var_columns = np.append(self.kept, n)[self.var_support]

    def factor(self, d_row: np.ndarray, neg_hess_free: np.ndarray, reg_floor: float):
        """Factor ``H`` once; returns ``solve(rhs)``, which returns ``H^-1 rhs``.

        Retries once with a diagonal shift of ``reg_floor * (1 + peak)``,
        ``peak`` the largest entry of ``C^T D C``, if the factorization fails,
        then raises :class:`numpy.linalg.LinAlgError`.
        """
        try:
            return self._factor(d_row, neg_hess_free, 0.0)
        except np.linalg.LinAlgError:
            # C^T D C is positive semidefinite: its largest entry is on the diagonal.
            squares = self.CT.power(2) if scipy.sparse.issparse(self.CT) else self.CT**2
            shift = reg_floor * (1.0 + float(np.max(squares @ d_row, initial=1.0)))
            return self._factor(d_row, neg_hess_free, shift)

    def _factor(self, d_row, neg_hess_free, shift):
        h = (self.c_0 * d_row[self.outside][:, np.newaxis]).T @ self.c_0
        h[self.free_kept, self.free_kept] += neg_hess_free
        if self.n_blocks:
            n_b, n_keep, n_cross = self.n_blocks, self.kept.size, self.cross.size
            d_pair = d_row[self.pair_rows]
            d_plus = d_pair[:, :n_b] + d_pair[:, n_b:]             # (d + 1, B)
            d_minus = d_pair[:, :n_b] - d_pair[:, n_b:]
            a = d_plus[:-1] + shift
            if not (a > 0.0).all():
                raise np.linalg.LinAlgError("elimination block is not positive definite")
            beta = d_plus[-1]
            ell = 1.0 / a
            ell_sum = ell.sum(axis=0)
            rho = 1.0 / (1.0 + beta * ell_sum)
            sigma = beta * rho
            lam = np.concatenate([ell, (ell_sum * rho)[np.newaxis]])
            # Pair g's D-weighted coefficient sum is D- u + D+ v (g_j for j < d,
            # then c), and its Schur term, the D-weighted Gram of its two rows
            # minus lam (D- u + D+ v)(...)^T, is (D+ - lam D-^2) u u^T plus, where
            # v is not zero, (1 - lam D+)(p v^T + v p^T) with p = D- u + D+ v / 2.
            pair_sum = self.coef_u * d_minus[:, np.newaxis, :]      # (d + 1, w, B)
            pair_terms = (self.coef_u * (d_plus - lam * d_minus**2)[:, np.newaxis, :]) @ self.coef_u.transpose(0, 2, 1)
            if self.coef_v is not None:
                half = self.coef_v * (0.5 * d_plus)[:, np.newaxis, :]
                shared = ((pair_sum + half) * (1.0 - lam * d_plus)[:, np.newaxis, :]) @ self.coef_v.transpose(0, 2, 1)
                pair_terms += shared + shared.transpose(0, 2, 1)
                pair_sum += 2.0 * half
            w = self.cross_sum @ (ell[:, np.newaxis, :] * pair_sum[:-1]).reshape(-1, n_b)   # (|cross|, B)
            cross_terms = w @ np.hstack([(sigma * w).T, (rho * pair_sum[-1]).T])
            values = np.concatenate([pair_terms.ravel(), cross_terms.ravel(), cross_terms[:, n_cross:].ravel()])
            h += np.bincount(self.schur_flat, values, minlength=(n_keep + 1) ** 2).reshape(n_keep + 1, -1)[:-1, :-1]
            # Minus the coupling of variable j to the kept columns, g_j - c, on var_support: (d, 2w, B).
            coupling = np.concatenate([pair_sum[:-1], np.broadcast_to(-pair_sum[-1], pair_sum[:-1].shape)], axis=1)
            ell_sigma = ell * sigma
        if shift:
            h[np.diag_indices_from(h)] += shift
        factor, info = _potrf(h, lower=True, clean=False)
        if info:
            raise np.linalg.LinAlgError(f"Cholesky factorization failed (LAPACK info {info})")
        if not self.n_blocks:
            return lambda rhs: _cholesky_solve(factor, rhs)

        def inverse(r):  # H_bb^-1 = diag(ell) - sigma ell ell^T, every block at once
            scaled = ell * r
            return scaled - ell_sigma * scaled.sum(axis=0)

        def solve(rhs):
            r_blocks = rhs[self.blocks.T]                         # (d, B)
            forward = (coupling @ inverse(r_blocks)[:, :, np.newaxis]).ravel()
            r_kept = rhs[self.kept] + np.bincount(self.var_support.ravel(), forward, minlength=n_keep + 1)[:n_keep]
            delta = np.zeros(self.n + 1)
            delta[self.kept] = _cholesky_solve(factor, r_kept)
            r_blocks += (delta[self.var_columns][:, np.newaxis, :] @ coupling)[:, 0]
            delta[self.blocks.T] = inverse(r_blocks)
            return delta[:-1]

        return solve


def _cholesky_solve(factor, rhs):
    solution, info = _potrs(factor, rhs, lower=True)
    if info:
        raise np.linalg.LinAlgError(f"Cholesky solve failed (LAPACK info {info})")
    return solution


def _step(b, objective, z, slacks, lam, mu, f_value, grad, hess_free, options, kkt):
    """One Mehrotra predictor-corrector step at barrier weight ``mu`` from
    ``z``, where the objective has value ``f_value``, full gradient ``grad``
    and free-block Hessian ``hess_free``; ``kkt`` holds ``C``, ``C^T`` and
    the free slice.  The predictor, the corrector and, when the corrector
    does not descend on ``phi_mu``, the plain Newton step share one
    factorization (see the module docstring).  Returns the new ``(z, b - C
    z, lam)``, or None when the line search finds no acceptable step."""
    inv_s = 1.0 / slacks
    d_row = lam * inv_s
    solve = kkt.factor(d_row, -hess_free, options.reg_floor)

    # Predictor: the affine step (mu = 0) and the complementarity it reaches
    # at its largest primal and dual steps to the boundary; q is the relative
    # slack decrease, so the slack step is -q s and the dual step lam (q - 1).
    q = (kkt.C @ solve(grad)) * inv_s
    alpha_p = 1.0 / max(1.0, q.max())
    alpha_d = 1.0 / max(1.0, 1.0 - q.min())
    s_lam = slacks * lam
    mu_cur = s_lam.sum() / slacks.size
    mu_aff = (s_lam * (1.0 - alpha_p * q) * (1.0 + alpha_d * (q - 1.0))).sum() / slacks.size
    # Mehrotra's centering target, never below the stage's mu, and the
    # corrector with the second-order term of the affine step.
    mu_target = min(mu_cur, max(mu, (mu_aff / mu_cur) ** 3 * mu_cur))
    target = mu_target * inv_s + lam * q * (q - 1.0)
    delta = solve(grad - kkt.CT @ target)
    step_dir = kkt.C @ delta  # the slack step is -step_dir
    slope = mu * (inv_s @ step_dir) - grad @ delta   # d phi_mu / d alpha at alpha = 0
    if not np.isfinite(slope):
        raise np.linalg.LinAlgError("Newton step is not finite")
    if slope >= 0.0:
        # Not a descent direction for phi_mu: take the plain Newton step at mu.
        target = mu * inv_s
        delta = solve(grad - kkt.CT @ target)
        step_dir = kkt.C @ delta
        slope = mu * (inv_s @ step_dir) - grad @ delta

    alpha = 0.99 / max(0.99, (step_dir * inv_s).max())
    phi_here = -f_value - mu * np.log(slacks).sum()
    while alpha >= 1e-16:
        z_new = z + alpha * delta
        s_new = slacks - alpha * step_dir
        if s_new.min() > 0.0:
            try:
                phi_new = -objective.value(z_new[kkt.free]) - mu * np.log(s_new).sum()
            except DomainError:
                phi_new = np.inf
            if phi_new <= phi_here + options.armijo * alpha * slope:
                break
        alpha *= options.backtrack
    else:
        return None

    # Dual step toward the target along the linearized complementarity, kept
    # positive by the fraction-to-boundary rule, then held within a factor
    # kappa of the primal estimate mu / s (Waechter & Biegler 2006, eq. 16).
    s_new = b - kkt.C @ z_new
    d_lam = target - lam + d_row * step_dir
    alpha_lam = 0.99 / max(0.99, -(d_lam / lam).min())
    lam = np.minimum(np.maximum(lam + alpha_lam * d_lam, mu / (_KAPPA * s_new)), _KAPPA * mu / s_new)
    return z_new, s_new, lam


def maximize(
    system: LinearInequalitySystem,
    objective,
    x0,
    options: SolverOptions | None = None,
    deadline: float | None = None,
) -> SolveResult:
    """Maximize a concave objective over ``C z <= b`` from a strictly feasible ``x0``.

    ``objective`` acts on the free variables ``z[system.layout.free]``, as an
    :class:`~zonoinv.parameterizations.Objective` does: ``value(free)``
    returns its value and ``value_grad_hess(free)`` its value, gradient and
    dense Hessian.  Every other variable has zero gradient and Hessian.
    A start point of the wrong length or with a non-finite entry raises
    :class:`~zonoinv.errors.DimensionError`.
    """
    options = options or SolverOptions()
    t0 = time.perf_counter()
    layout = system.layout
    z = as_vector(x0, size=layout.n, name="x0").copy()
    slacks = system.slacks(z)
    if np.min(slacks) <= 0.0:
        raise DomainError("x0 is not strictly feasible")

    kkt = _KKTSolver(system)
    free = layout.free
    mu = options.mu0
    mu_min = options.gap_tol / (10.0 * slacks.size)
    lam = mu / slacks
    stage_objectives: list[float] = []
    iterations = steps = 0
    status, message = None, ""
    while True:
        if deadline is not None and time.perf_counter() > deadline:
            status, message = MAX_ITERATIONS, "time limit reached"
            break
        f_value, grad_free, hess_free = objective.value_grad_hess(z[free])
        grad = np.zeros(layout.n)
        grad[free] = grad_free
        scale = 1.0 + float(np.abs(grad_free).max(initial=0.0))
        stationarity = float(np.abs(grad - kkt.CT @ lam).max())
        dual = stationarity / scale
        if float(slacks @ lam) < options.gap_tol and dual <= options.gap_tol:
            status = OPTIMAL
            break
        # A stage ends when its residuals are within 10 mu of the central
        # path, or after max_newton steps; mu then falls superlinearly
        # (Waechter & Biegler 2006, eq. 7) down to its floor.
        while mu > mu_min and (
            steps == options.max_newton
            or max(dual, float(np.abs(slacks * lam - mu).max())) <= 10.0 * mu
        ):
            stage_objectives.append(objective.value(z[free]))
            mu = max(mu_min, min(options.mu_factor * mu, mu**1.5))
            steps = 0
        if steps == options.max_newton:
            status, message = MAX_ITERATIONS, "final barrier stage did not converge"
            break
        try:
            point = _step(system.b, objective, z, slacks, lam, mu, f_value, grad, hess_free, options, kkt)
        except np.linalg.LinAlgError as exc:
            status, message = NUMERICAL_FAILURE, f"Newton system factorization failed: {exc}"
            break
        iterations += 1
        steps += 1
        if point is None:
            status, message = NUMERICAL_FAILURE, "line search stalled"
            break
        z, slacks, lam = point
    stage_objectives.append(objective.value(z[free]))

    result = SolveResult(
        status=status,
        z=z,
        objective_value=float(objective.value(z[free])),
        iterations=iterations,
        wall_time=time.perf_counter() - t0,
        stage_objectives=stage_objectives,
        message=message,
    )
    if status == OPTIMAL:
        # kkt_residual at (z, lam), from the loop's last gradient and slacks.
        residual = max(stationarity, float((lam * slacks).max()))
        result.kkt_residual = residual
        if residual > options.kkt_tol * scale:
            result.status = NUMERICAL_FAILURE
            result.message = f"KKT residual {residual:.3e} above tolerance"
    return result


def _phase1_system(system: LinearInequalitySystem) -> LinearInequalitySystem:
    """Auxiliary system over (z, s): ``C z - s 1 <= b`` and ``-s <= 1``.

    Every block row gains -1 on s, so each pair of the layout's
    ``block_support`` gains s in the slot after its valid entries."""
    m, n = system.shape
    layout = system.layout
    support, coef = layout.block_support, layout.block_coef
    if support is not None:
        pair, width = np.arange(support.shape[0]), np.count_nonzero(support >= 0, axis=1)
        support = np.hstack([support, np.full((pair.size, 1), -1)])
        support[pair, width] = n
        coef = np.concatenate([coef, np.zeros(coef.shape[:-1] + (1,))], axis=-1)
        coef[pair, :, :, width] = -1.0
    extra_col = scipy.sparse.csr_matrix(-np.ones((m, 1)))
    top = scipy.sparse.hstack([system.C, extra_col], format="csr")
    bound_row = scipy.sparse.csr_matrix(
        (np.array([-1.0]), (np.array([0]), np.array([n]))), shape=(1, n + 1)
    )
    c_aux = scipy.sparse.vstack([top, bound_row], format="csr")
    b_aux = np.concatenate([system.b, [1.0]])
    aux_layout = VariableLayout(
        kind="phase1", dim=layout.dim, n_generators=layout.n_generators,
        row_steps=layout.row_steps, n=n + 1, m=m + 1,
        center=slice(0, 0), free=slice(n, n + 1),
        elim_blocks=layout.elim_blocks, block_rows=layout.block_rows,
        block_support=support, block_coef=coef,
    )
    return LinearInequalitySystem(c_aux, b_aux, aux_layout)


class _MinusSlack:
    """Phase 1's objective ``-s`` on its one free variable s."""

    @staticmethod
    def value(free) -> float:
        return -float(free[0])

    @staticmethod
    def value_grad_hess(free):
        return -float(free[0]), np.array([-1.0]), np.zeros((1, 1))


class Phase1Stopped(ZonoinvError):
    """Phase 1 ended before it could decide feasibility: its auxiliary solve
    stopped with ``status`` (not ``optimal``) and ``message`` after
    ``iterations`` Newton steps, at a point that is not strictly feasible."""

    def __init__(self, status: str, message: str, iterations: int):
        super().__init__(f"phase 1 stopped: {status} ({message})")
        self.status, self.message, self.iterations = status, message, iterations


def phase1_feasible_point(
    system: LinearInequalitySystem,
    warm_start=None,
    options: SolverOptions | None = None,
    deadline: float | None = None,
):
    """Find a strictly feasible point with slack margin ``phase1_margin``.

    Returns ``(z, iterations)`` on success and ``(None, iterations)`` when the
    system is infeasible: the auxiliary solve reached ``optimal`` and no
    point has every slack above the margin.  Any other end of the auxiliary
    solve without such a point raises :class:`Phase1Stopped`.  A warm-start
    candidate short-circuits the auxiliary solve when its worst slack
    already clears the margin; one of the wrong length or with a non-finite
    entry raises :class:`~zonoinv.errors.DimensionError`.
    """
    options = options or SolverOptions()
    margin = options.phase1_margin
    n = system.shape[1]
    z0 = np.zeros(n)
    if warm_start is not None:
        z0 = as_vector(warm_start, size=n, name="warm_start")
        if float(np.min(system.slacks(z0))) > margin:
            return z0, 0

    aux = _phase1_system(system)
    worst = float(np.max(system.C @ z0 - system.b))
    s0 = max(worst + 1.0, -0.5)
    x0 = np.concatenate([z0, [s0]])

    result = maximize(aux, _MinusSlack, x0, options, deadline)
    if result.z[n] < -margin:   # every iterate is strictly feasible for the auxiliary system
        return result.z[:n].copy(), result.iterations
    if result.status != OPTIMAL:
        raise Phase1Stopped(result.status, result.message, result.iterations)
    return None, result.iterations


def solve_invariance(problem: InvarianceProblem, options: SolverOptions | None = None) -> SolveResult:
    """Presolve, assemble, find an interior point, maximize, decode, and certify.

    When the presolve (:func:`~zonoinv.invariance.presolve`) shows that the
    center of every candidate zonotope must leave the box, the solve is
    ``infeasible`` after zero Newton steps (see the module docstring).
    Otherwise the system holds only the rows that no earlier row implies
    (the row steps of the presolve); its last time step is
    recorded in ``horizon_solved``, and the certificate checks every step of
    ``problem.horizon``.  One power chain of ``A`` serves the presolve,
    assembly and the warm start.  The reported wall time covers phase 1 and
    the barrier solve (not the presolve, assembly or certification).
    ``volume`` is recomputed from the decoded zonotope with the closed-form
    volume of the parameterization.
    """
    options = options or SolverOptions()
    powers = power_chain(problem.system.A, problem.horizon)   # shared by the presolve, assembly and warm start
    steps, exit_row = presolve(problem, powers)
    if exit_row is not None:
        t, i = exit_row
        return SolveResult(
            status=INFEASIBLE, z=None, objective_value=None, iterations=0, wall_time=0.0,
            horizon_solved=int(steps.max()) - 1,
            message=f"no strictly feasible point: the center leaves the box in row {i} at t = {t}",
        )
    system = assemble(problem, powers, steps)
    layout = system.layout
    objective = make_objective(problem.objective, problem.parameterization)
    warm = warm_start_point(problem, system, powers)

    t0 = time.perf_counter()
    deadline = None if options.time_limit is None else t0 + options.time_limit
    try:
        z0, phase1_iters = phase1_feasible_point(system, warm, options, deadline)
    except Phase1Stopped as stop:
        z0, phase1_iters, status, message = None, stop.iterations, stop.status, f"phase 1: {stop.message}"
    else:
        status = INFEASIBLE
        message = f"no strictly feasible point: phase 1 finds no point with every slack above {options.phase1_margin:g}"
    if z0 is None:
        return SolveResult(
            status=status, z=None, objective_value=None,
            iterations=0, wall_time=time.perf_counter() - t0,
            phase1_iterations=phase1_iters, horizon_solved=layout.horizon,
            message=message,
        )
    result = maximize(system, objective, z0, options, deadline)
    result.wall_time = time.perf_counter() - t0
    result.phase1_iterations = phase1_iters
    result.horizon_solved = layout.horizon

    if result.status == OPTIMAL:
        parts = layout.decode(result.z)
        zono = Zonotope(parts["center"], parts["generators"])
        result.zonotope = zono
        result.volume = problem.parameterization.volume(parts["free"])
        result.certificate_ok = check_invariance_certificate(
            problem.system, problem.box, problem.horizon, zono
        )
    return result
