"""Tests for the barrier solver: analytic optima, LP cross-checks, phase 1,
status handling, and determinism."""

import dataclasses
import time
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import lp_vertex_optimum, sfg_optimality_gap
from zonoinv import solver
from zonoinv.errors import DimensionError, DomainError, SchemaError
from zonoinv.invariance import (
    AffineSystem,
    InvarianceProblem,
    assemble,
    assemble_sfg,
    assemble_utpd,
    presolve,
    warm_start_point,
)
from zonoinv.parameterizations import SfgParameterization, UtpdParameterization, make_objective
from zonoinv.solver import (
    INFEASIBLE,
    MAX_ITERATIONS,
    NUMERICAL_FAILURE,
    OPTIMAL,
    Phase1Stopped,
    SolverOptions,
    _KKTSolver,
    _phase1_system,
    _step,
    maximize,
    phase1_feasible_point,
    solve_invariance,
)
from zonoinv.sysgen import TrialSpec, make_trial
from zonoinv.zonotope import Box, volume_exact


def unit_box(d):
    return Box(-np.ones(d), np.ones(d))


def make_problem(a, w, box, horizon, param, objective):
    return InvarianceProblem(AffineSystem(a, w), box, horizon, param, objective)


class TestSolverOptions:
    def test_defaults_valid(self):
        opts = SolverOptions()
        assert opts.mu0 == 1.0 and opts.gap_tol == 1e-8

    def test_rejects_bad_mu_factor(self):
        with pytest.raises(SchemaError):
            SolverOptions(mu_factor=1.5)

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(SchemaError):
            SolverOptions(gap_tol=0.0)

    def test_rejects_non_finite_and_mistyped_fields(self):
        # Options also come from JSON files, which may hold strings, NaN,
        # fractions or booleans where numbers belong.
        for field, value in [
            ("time_limit", "abc"), ("time_limit", float("inf")), ("time_limit", 0.0),
            ("max_newton", 2.5), ("max_newton", True), ("max_newton", 0),
            ("mu0", float("nan")), ("gap_tol", float("inf")), ("armijo", "1e-4"),
            ("kkt_tol", None), ("backtrack", False), ("mu_factor", 0.0),
        ]:
            with pytest.raises(SchemaError, match=rf"options\.{field}"):
                SolverOptions(**{field: value})
        assert SolverOptions(time_limit=2, max_newton=np.int64(3), mu0=np.float64(2.0)).max_newton == 3

    def test_from_dict_rejects_unknown_field(self):
        with pytest.raises(SchemaError):
            SolverOptions.from_dict({"gap_tol": 1e-8, "turbo": True})

    def test_from_dict_roundtrip(self):
        opts = SolverOptions.from_dict({"mu0": 2.0, "max_newton": 30})
        assert opts.mu0 == 2.0 and opts.max_newton == 30


class TestAnalyticOptima:
    def test_scalar_contraction_fills_the_box(self):
        # A = 0.5, w = 0, box [-1, 1]: the largest invariant interval is the
        # box itself, so the optimal volume is 2 for both parameterizations.
        for param, objective in [
            (SfgParameterization([[1.0]]), "lgv"),
            (SfgParameterization([[1.0]]), "ss"),
            (UtpdParameterization(1), "lgv"),
        ]:
            problem = make_problem([[0.5]], [0.0], unit_box(1), 30, param, objective)
            result = solve_invariance(problem)
            assert result.status == OPTIMAL
            assert result.volume == pytest.approx(2.0, abs=1e-6)
            assert abs(result.zonotope.center[0]) < 1e-6

    def test_identity_dynamics_recovers_the_box(self):
        # A = I, w = 0: every subset of the box is invariant, so the maximal
        # zonotope is the box with volume 2^d.
        for d in (2, 3):
            problem = make_problem(
                np.eye(d), np.zeros(d), unit_box(d), 10, UtpdParameterization(d), "lgv"
            )
            result = solve_invariance(problem)
            assert result.status == OPTIMAL
            assert result.volume == pytest.approx(2.0**d, rel=1e-5)
            assert np.allclose(result.zonotope.center, 0.0, atol=1e-5)

    def test_asymmetric_box_centers_at_midpoint(self):
        # Horizon 0 imposes only containment in the box, so the optimum is
        # the box itself, centered at its midpoint.
        box = Box([0.0, -2.0], [4.0, 0.0])
        problem = make_problem(
            np.zeros((2, 2)), np.zeros(2), box, 0, UtpdParameterization(2), "lgv"
        )
        result = solve_invariance(problem)
        assert result.status == OPTIMAL
        assert result.volume == pytest.approx(8.0, rel=1e-5)
        assert np.allclose(result.zonotope.center, [2.0, -1.0], atol=1e-4)

    def test_objective_value_consistent_with_volume(self):
        problem = make_problem(
            [[0.6, 0.2], [0.0, 0.6]], [0.0, 0.0], unit_box(2), 20,
            SfgParameterization(np.hstack([np.eye(2), [[1.0], [1.0]]])), "lgv",
        )
        result = solve_invariance(problem)
        assert result.status == OPTIMAL
        assert result.objective_value == pytest.approx(np.log(result.volume), rel=1e-10)
        direct = volume_exact(result.zonotope)
        assert result.volume == pytest.approx(direct, rel=1e-10)


class TestLpCrossCheck:
    def test_scale_sum_against_vertex_enumeration(self):
        # The scale-sum objective is linear, so the barrier solver's optimum
        # must match brute-force vertex enumeration of the polytope.
        rng = np.random.default_rng(77)
        for _ in range(5):
            a = rng.standard_normal((2, 2))
            a *= 0.7 / np.max(np.abs(np.linalg.eigvals(a)))
            w = 0.05 * rng.standard_normal(2)
            param = SfgParameterization(rng.standard_normal((2, 2)), scale_floor=1e-6)
            problem = make_problem(a, w, unit_box(2), 3, param, "ss")
            system = assemble(problem)

            result = solve_invariance(problem)
            assert result.status == OPTIMAL

            c_vec = np.zeros(system.layout.n)
            c_vec[system.layout.free] = 1.0
            best, _ = lp_vertex_optimum(c_vec, system.C.toarray(), system.b)
            assert result.objective_value == pytest.approx(best, rel=1e-6, abs=1e-7)


class TestPhase1:
    def test_warm_start_short_circuits(self):
        problem = make_problem([[0.5]], [0.0], unit_box(1), 10, SfgParameterization([[1.0]]), "lgv")
        result = solve_invariance(problem)
        assert result.status == OPTIMAL
        assert result.phase1_iterations == 0

    def test_recovers_from_infeasible_warm_start(self):
        # Identity dynamics with positive offset on the box [0, 1]: the
        # trajectory from any point climbs by w each step, so the midpoint
        # candidate (center 0.5) leaves the box within the horizon, yet
        # centers close to the lower edge stay inside. Phase 1 must run and
        # find one.
        problem = make_problem(
            [[1.0]], [0.02], Box([0.0], [1.0]), 30, SfgParameterization([[1.0]], scale_floor=1e-8), "lgv"
        )
        system = assemble(problem)
        warm = warm_start_point(problem, system)
        assert float(np.min(system.slacks(warm))) < 0.0
        result = solve_invariance(problem)
        assert result.status == OPTIMAL
        assert result.phase1_iterations > 0
        # Drift over 30 steps is 0.6: feasible centers live in [g, 0.4 - g].
        c, g = result.zonotope.center[0], result.zonotope.generators[0, 0]
        assert g == pytest.approx(0.2, abs=1e-5)
        assert c == pytest.approx(0.2, abs=1e-4)

    def test_detects_infeasible_problem(self):
        # Fixed point w / (1 - a) = 4 lies far outside [-1, 1]; no invariant
        # set exists.
        problem = make_problem([[0.5]], [2.0], unit_box(1), 30, SfgParameterization([[1.0]]), "lgv")
        result = solve_invariance(problem)
        assert result.status == INFEASIBLE
        assert result.z is None and result.volume is None
        # The center of any zonotope in the box is at 0.5 c + 2 >= 1.5 at t = 1.
        assert result.message.startswith("no strictly feasible point: ")
        assert result.message.endswith("in row 0 at t = 1")

    def test_time_limit_in_phase1_is_not_infeasible(self):
        # The feasible instance of test_recovers_from_infeasible_warm_start:
        # its warm start fails and the presolve does not flag it, so phase 1
        # runs, and a phase 1 cut short by the clock decides nothing.
        problem = make_problem(
            [[1.0]], [0.02], Box([0.0], [1.0]), 30, SfgParameterization([[1.0]], scale_floor=1e-8), "lgv"
        )
        assert presolve(problem)[1] is None
        result = solve_invariance(problem, SolverOptions(time_limit=1e-9))
        assert result.status == MAX_ITERATIONS
        assert "time limit reached" in result.message
        assert result.z is None and result.iterations == 0

    def test_phase1_direct_call_stopped_raises(self):
        problem = make_problem(
            [[1.0]], [0.02], Box([0.0], [1.0]), 30, SfgParameterization([[1.0]], scale_floor=1e-8), "lgv"
        )
        system = assemble(problem)
        with pytest.raises(Phase1Stopped) as stopped:
            phase1_feasible_point(system, warm_start_point(problem, system), deadline=time.perf_counter() - 1.0)
        assert stopped.value.status == MAX_ITERATIONS
        assert stopped.value.message == "time limit reached"

    def test_phase1_direct_call_feasible(self):
        problem = make_problem([[0.8]], [0.0], unit_box(1), 5, SfgParameterization([[1.0]]), "lgv")
        system = assemble(problem)
        z, iters = phase1_feasible_point(system)
        assert z is not None
        assert float(np.min(system.slacks(z))) > 0.0

    def test_phase1_rejects_malformed_warm_start(self):
        problem = make_problem([[0.8]], [0.0], unit_box(1), 5, SfgParameterization([[1.0]]), "lgv")
        system = assemble(problem)
        with pytest.raises(DimensionError, match="warm_start must have length 2"):
            phase1_feasible_point(system, np.zeros(3))
        with pytest.raises(DimensionError, match="warm_start contains non-finite"):
            phase1_feasible_point(system, np.array([0.0, np.nan]))

    def test_phase1_direct_call_infeasible(self):
        problem = make_problem([[0.5]], [2.0], unit_box(1), 10, SfgParameterization([[1.0]]), "lgv")
        system = assemble(problem)
        z, iters = phase1_feasible_point(system)
        assert z is None
        assert iters > 0


class TestMaximize:
    def test_rejects_infeasible_start(self):
        problem = make_problem([[0.5]], [0.0], unit_box(1), 5, SfgParameterization([[1.0]]), "lgv")
        system = assemble(problem)
        objective = make_objective("lgv", problem.parameterization)
        bad = system.layout.encode([5.0], [1.0])
        with pytest.raises(DomainError):
            maximize(system, objective, bad)

    def test_rejects_malformed_start(self):
        # Checked before any arithmetic, so neither reads as a solver failure.
        problem = make_problem([[0.5]], [0.0], unit_box(1), 5, SfgParameterization([[1.0]]), "lgv")
        system = assemble(problem)
        objective = make_objective("lgv", problem.parameterization)
        start = warm_start_point(problem, system)
        with pytest.raises(DimensionError, match="x0 must have length 2"):
            maximize(system, objective, start[:1])
        with pytest.raises(DimensionError, match="x0 contains non-finite"):
            maximize(system, objective, np.array([np.nan, start[1]]))

    def test_stage_objectives_nondecreasing(self):
        problem = make_problem(
            [[0.7, 0.1], [0.0, 0.7]], [0.01, -0.01], unit_box(2), 15,
            SfgParameterization(np.hstack([np.eye(2), [[0.5], [0.5]]])), "lgv",
        )
        result = solve_invariance(problem)
        assert result.status == OPTIMAL
        stages = np.array(result.stage_objectives)
        # One entry per barrier weight of the schedule, down to its floor.
        options, mu = SolverOptions(), SolverOptions().mu0
        mu_min = options.gap_tol / (10.0 * assemble(problem).b.size)
        weights = [mu]
        while mu > mu_min:
            mu = max(mu_min, min(options.mu_factor * mu, mu**1.5))
            weights.append(mu)
        assert stages.size == len(weights) < result.iterations
        assert np.all(np.diff(stages) >= -1e-9)

    def test_kkt_residual_reported_small(self):
        problem = make_problem([[0.5]], [0.0], unit_box(1), 10, SfgParameterization([[1.0]]), "lgv")
        result = solve_invariance(problem)
        assert result.status == OPTIMAL
        assert result.kkt_residual is not None
        assert result.kkt_residual <= SolverOptions().kkt_tol

    @pytest.mark.parametrize("kind", ["sfg", "utpd"])
    def test_one_derivative_call_per_step_plus_the_final_check(self, kind):
        # The KKT residual of an optimal solve comes from the loop's own last
        # gradient, so the final point is not differentiated twice.
        problem = make_trial(TrialSpec(3, 6, 0, 20260815), kind, "lgv")
        system = assemble(problem)
        layout = system.layout
        inner = make_objective("lgv", problem.parameterization)
        calls = []

        def counted(x):
            calls.append(None)
            return inner.value_grad_hess(x)

        objective = SimpleNamespace(value=inner.value, value_grad_hess=counted)
        z0, _ = phase1_feasible_point(system, warm_start_point(problem, system))
        result = maximize(system, objective, z0)
        assert result.status == OPTIMAL and result.kkt_residual <= SolverOptions().kkt_tol
        assert len(calls) == result.iterations + 1

    def test_time_limit_reports_max_iterations(self):
        problem = make_problem(
            np.eye(3) * 0.9, np.zeros(3), unit_box(3), 20, UtpdParameterization(3), "lgv"
        )
        result = solve_invariance(problem, SolverOptions(time_limit=1e-9))
        assert result.status == MAX_ITERATIONS
        assert "time limit" in result.message

    def test_iterations_counted(self):
        problem = make_problem([[0.5]], [0.0], unit_box(1), 10, SfgParameterization([[1.0]]), "lgv")
        result = solve_invariance(problem)
        assert result.iterations > 0


def random_problem(d, horizon, seed, param):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    a *= 0.8 / np.max(np.abs(np.linalg.eigvals(a)))
    return make_problem(a, 0.05 * rng.standard_normal(d), unit_box(d), horizon, param, "lgv")


def lifted_system(d, horizon, seed, steps=None):
    # Every horizon step by default, so the lifted blocks stay.
    return assemble_utpd(random_problem(d, horizon, seed, UtpdParameterization(d)), steps)


def solver_for(system):
    return _KKTSolver(system)


def check_block_structure(system):
    """The dense ``C`` against the layout's record of its lifted blocks."""
    layout, c = system.layout, system.C.toarray()
    blocks = np.array(layout.elim_blocks)                 # (B, d)
    rows = np.array(layout.block_rows)                    # (B, d + 1, 2)
    n_blocks, d = blocks.shape
    # Block columns: -1 on the aux pair of each variable, +1 on the box pair,
    # and nothing in any other row, outside the blocks or in another block.
    expected = np.zeros((c.shape[0], n_blocks, d))
    b_idx, j_idx = np.arange(n_blocks)[:, np.newaxis, np.newaxis], np.arange(d)[:, np.newaxis]
    expected[rows[:, :d], b_idx, j_idx] = -1.0
    expected[rows[:, d, np.newaxis], b_idx, j_idx] = 1.0
    assert np.array_equal(c[:, blocks.ravel()], expected.reshape(c.shape[0], -1))
    # Kept columns of row h of pair g of block b: block_coef on block_support.
    support, coef = layout.block_support, layout.block_coef
    assert support.shape == (d + 1, coef.shape[-1]) and coef.shape[:3] == (d + 1, 2, n_blocks)
    assert not np.any(coef.transpose(1, 2, 0, 3)[:, :, support < 0])
    g, slot = np.nonzero(support >= 0)
    recorded = np.zeros((d + 1, 2, n_blocks, layout.n))
    recorded[g, :, :, support[g, slot]] = coef[g, :, :, slot]
    kept = np.setdiff1d(np.arange(layout.n), blocks)
    assert np.array_equal(c[rows.transpose(1, 2, 0)][..., kept], recorded[..., kept])
    assert np.all(system.C.data != 0.0)                   # the zeros of A^0 = I are not stored


class TestStructuredNewtonStep:
    """The closed-form block elimination against a dense solve of the full
    ``H = C^T diag(D) C - hess_f``, and the same step on systems without
    blocks, where it is the dense solve."""

    # Horizon 0 keeps only the blocks M_0[i, :].
    CASES = ((1, 1, None), (1, 4, None), (2, 0, None), (3, 0, None), (3, 1, None), (3, 5, None), (4, 3, None))

    def systems(self, cases=CASES):
        for d, horizon, steps in cases:
            main = lifted_system(d, horizon, 10 * d + horizon, steps)
            free = np.arange(main.layout.free.start, main.layout.free.stop)
            yield main, free
            yield _phase1_system(main), np.array([main.layout.n])

    @staticmethod
    def block_free_systems():
        for d, p, horizon in ((2, 3, 4), (3, 6, 8)):
            template = np.random.default_rng(p).standard_normal((d, p))
            main = assemble_sfg(random_problem(d, horizon, 10 * d + p, SfgParameterization(template)))
            yield main, np.arange(main.layout.free.start, main.layout.free.stop)
            yield _phase1_system(main), np.array([main.layout.n])

    @staticmethod
    def dense_matrix(system, d_row, neg_hess, free):
        c = system.C.toarray()
        h = (c * d_row[:, np.newaxis]).T @ c
        h[np.ix_(free, free)] += neg_hess
        return h

    def test_matches_dense_solve(self):
        self.check_against_dense([*self.systems(), *self.block_free_systems()], np.random.default_rng(3))

    # Per-row cuts: each time step holds a different number of blocks.
    CUT_CASES = ((3, 5, (2, 6, 4)), (4, 3, (4, 1, 2, 3)), (2, 4, (5, 1)))

    def test_matches_dense_solve_with_dropped_blocks(self):
        for system, _ in self.systems(self.CUT_CASES):
            layout = system.layout
            assert len(layout.elim_blocks) == sum(layout.row_steps) < (layout.horizon + 1) * layout.dim
        self.check_against_dense(self.systems(self.CUT_CASES), np.random.default_rng(5))

    def test_layout_records_the_block_structure(self):
        # The solver reads the block structure from the layout and only the
        # rows outside the blocks from C; the dense C must agree with it.
        for system, _ in [*self.systems(), *self.systems(self.CUT_CASES)]:
            check_block_structure(system)

    def test_schur_complement_keeps_only_the_center_and_generators(self):
        # The only rows outside the blocks are the d diagonal-floor rows (and
        # phase 1's bound on s), so every other column is eliminated.
        for system, free in [*self.systems(), *self.systems(self.CUT_CASES)]:
            d = system.layout.dim
            n_keep = d + d * (d + 1) // 2
            expected = np.append(np.arange(n_keep), free) if system.layout.kind == "phase1" else np.arange(n_keep)
            assert np.array_equal(solver_for(system).kept, expected)

    def test_block_free_systems_keep_every_column(self):
        for system, _ in self.block_free_systems():
            assert not system.layout.elim_blocks
            assert np.array_equal(solver_for(system).kept, np.arange(system.shape[1]))

    def check_against_dense(self, systems, rng):
        for system, free in systems:
            m, n = system.shape
            d_row = np.exp(rng.uniform(-4.0, 4.0, m))
            q = rng.standard_normal((free.size, free.size))
            neg_hess = 0.1 * q @ q.T
            solve = solver_for(system).factor(d_row, neg_hess, 1e-10)
            h = self.dense_matrix(system, d_row, neg_hess, free)
            # Two right-hand sides from the one factorization, as a Newton step uses it.
            for rhs in rng.standard_normal((2, n)):
                expected = np.linalg.solve(h, rhs)
                assert np.linalg.norm(solve(rhs) - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_shifted_retry_matches_dense_solve(self):
        # An indefinite objective term makes the first factorization fail;
        # the retry solves H + shift I with shift = reg_floor (1 + peak).
        rng = np.random.default_rng(4)
        reg_floor = 1.0
        for system, free in [*self.systems(), *self.block_free_systems()]:
            m, n = system.shape
            d_row = np.exp(rng.uniform(-2.0, 2.0, m))
            c = system.C.toarray()
            gram_diag = np.diag((c * d_row[:, np.newaxis]).T @ c)
            peak = float(np.max(gram_diag))
            # Below zero at a free coordinate, yet smaller than the shift.
            neg_hess = -(np.max(gram_diag[free]) + 0.5) * np.eye(free.size)
            h = self.dense_matrix(system, d_row, neg_hess, free)
            assert np.linalg.eigvalsh(h).min() < 0.0
            solve = solver_for(system).factor(d_row, neg_hess, reg_floor)
            shifted = h + reg_floor * (1.0 + peak) * np.eye(n)
            for rhs in rng.standard_normal((2, n)):
                expected = np.linalg.solve(shifted, rhs)
                assert np.linalg.norm(solve(rhs) - expected) <= 1e-10 * np.linalg.norm(expected)


class TestDenseFactorizationFailure:
    """Systems without elimination blocks: an indefinite Newton matrix is
    retried once with a diagonal shift, then reported."""

    @staticmethod
    def dense_system():
        problem = make_problem(
            [[0.6, 0.2], [0.0, 0.6]], [0.0, 0.0], unit_box(2), 5,
            SfgParameterization(np.hstack([np.eye(2), [[1.0], [1.0]]])), "lgv",
        )
        system = assemble(problem)
        return problem, system, np.arange(system.layout.free.start, system.layout.free.stop)

    def test_shifted_retry_then_linalg_error(self, monkeypatch):
        _, system, free = self.dense_system()
        m, n = system.shape
        attempts = []
        potrf = solver._potrf

        def counting_potrf(h, **kwargs):
            attempts.append(h.copy())
            return potrf(h, **kwargs)

        c = system.C.toarray()
        kkt = _KKTSolver(system)
        monkeypatch.setattr(solver, "_potrf", counting_potrf, raising=True)
        # reg_floor = 1: the shift is 1 + max diag(C^T C), far below 1e6.
        with pytest.raises(np.linalg.LinAlgError):
            kkt.factor(np.ones(m), -1e6 * np.eye(free.size), 1.0)
        assert len(attempts) == 2
        expected = 1.0 + np.max(np.sum(c**2, axis=0))
        assert np.allclose(np.diag(attempts[1] - attempts[0]), expected, rtol=1e-6, atol=0.0)

    def test_maximize_reports_numerical_failure(self):
        problem, system, free = self.dense_system()
        # A convex (not concave) objective makes H = C^T D C - hess_f indefinite.
        objective = SimpleNamespace(
            value=lambda x: 1e6 * float(x @ x),
            value_grad_hess=lambda x: (1e6 * float(x @ x), 2e6 * x, 2e6 * np.eye(x.size)),
        )
        result = maximize(system, objective, warm_start_point(problem, system))
        assert result.status == NUMERICAL_FAILURE
        assert result.message.startswith("Newton system factorization failed")


class TestStepSlacks:
    """``_step`` returns the slacks ``b - C z`` of its new point, so the
    barrier terms and the dual update never run on drifted slacks."""

    @pytest.mark.parametrize("kind", ["utpd", "sfg"])
    def test_step_slacks_match_exact(self, kind):
        problem = make_trial(TrialSpec(3, 6, 0, 20260815), kind, "lgv")
        assert problem.horizon == 30
        system = assemble_utpd(problem) if kind == "utpd" else assemble_sfg(problem)
        layout = system.layout
        assert bool(layout.elim_blocks) == (kind == "utpd")
        objective = make_objective("lgv", problem.parameterization)
        kkt = _KKTSolver(system)
        options = SolverOptions()
        z, _ = phase1_feasible_point(system, warm_start_point(problem, system), options)
        slacks = system.slacks(z)
        lam = options.mu0 / slacks
        for _ in range(10):
            f_value, grad_free, hess_free = objective.value_grad_hess(z[layout.free])
            grad = np.zeros(layout.n)
            grad[layout.free] = grad_free
            z, slacks, lam = _step(system.b, objective, z, slacks, lam, options.mu0,
                                   f_value, grad, hess_free, options, kkt)
            exact = system.b - system.C @ z
            assert np.all(np.abs(slacks - exact) <= 1e-12 * (1.0 + np.abs(system.b)))
            assert np.min(slacks) > 0.0 and np.min(lam) > 0.0


class TestMehrotraStep:
    """Each Newton step factors its matrix once and solves the predictor and
    the corrector from that factor; a corrector that is not a descent
    direction for the barrier function falls back to the plain Newton step
    from the same factor."""

    @pytest.mark.parametrize("kind", ["utpd", "sfg"])
    def test_one_factorization_and_two_solves_per_step(self, kind, monkeypatch):
        problem = make_trial(TrialSpec(3, 6, 0, 20260815), kind, "lgv")
        system = assemble(problem)
        z0, _ = phase1_feasible_point(system, warm_start_point(problem, system))
        counts = {"potrf": 0, "potrs": 0}

        def counted(name, routine):
            def call(*args, **kwargs):
                counts[name] += 1
                return routine(*args, **kwargs)
            return call

        monkeypatch.setattr(solver, "_potrf", counted("potrf", solver._potrf))
        monkeypatch.setattr(solver, "_potrs", counted("potrs", solver._potrs))
        result = maximize(system, make_objective("lgv", problem.parameterization), z0)
        assert result.status == OPTIMAL and result.iterations > 0
        assert counts == {"potrf": result.iterations, "potrs": 2 * result.iterations}

    def test_fallback_step_still_reaches_a_certified_optimum(self, monkeypatch):
        # A corrector solve that returns the zero direction has zero slope,
        # so every step takes the fallback, a third solve from its factor.
        factor = _KKTSolver.factor
        solves = []

        def zero_corrector(self, *args):
            solve = factor(self, *args)
            count = len(solves)

            def patched(rhs):
                solves.append(None)
                delta = solve(rhs)
                return np.zeros_like(delta) if len(solves) - count == 2 else delta

            return patched

        monkeypatch.setattr(_KKTSolver, "factor", zero_corrector)
        for kind in ("sfg", "utpd"):
            solves.clear()
            result = solve_invariance(make_trial(TrialSpec(3, 6, 1, 20260815), kind, "lgv"))
            assert result.status == OPTIMAL and result.certificate_ok is True
            assert len(solves) == 3 * (result.iterations + result.phase1_iterations) > 0


class TestFrankWolfeGap:
    """Every optimal scaled-template solve is within 1e-6 (1 + |f|) of the
    optimum: the Frank-Wolfe gap of ``oracles.sfg_optimality_gap``, an LP
    built from the raw dynamics, box and template over every time step,
    bounds ``f(opt) - f`` and shares no code with the assembly, the row cut
    or the solver."""

    @pytest.mark.parametrize("objective", ["ss", "slgs", "lgv"])
    def test_gap_of_the_3_6_and_3_8_trials(self, objective):
        for p in (6, 8):
            for trial in range(5):
                problem = make_trial(TrialSpec(3, p, trial, 20260815), "sfg", objective)
                result = solve_invariance(problem)
                assert result.status == OPTIMAL
                param = problem.parameterization
                gap = sfg_optimality_gap(
                    problem.system.A, problem.system.w, problem.box.lower, problem.box.upper, problem.horizon,
                    param.template, param.scale_floor, objective, result.z[assemble(problem).layout.free],
                )
                assert gap <= 1e-6 * (1.0 + abs(result.objective_value))


class TestBarrierSchedule:
    """The default schedule on the (3, 6) trial-0 instances of the
    acceptance seed: at most 12 Newton steps for ``sfg`` and 9 for ``utpd``,
    phase 1 included (a primal log-barrier loop needs about 64 here), and
    the optimum of the slow 5x-per-stage schedule."""

    BUDGET = {"sfg": 12, "utpd": 9}

    @pytest.mark.parametrize("kind", ["sfg", "utpd"])
    def test_long_steps_reach_the_same_optimum(self, kind):
        problem = make_trial(TrialSpec(3, 6, 0, 20260815), kind, "lgv")
        default = solve_invariance(problem)
        short = solve_invariance(problem, SolverOptions(mu_factor=0.2))
        assert default.status == short.status == OPTIMAL
        assert default.iterations + default.phase1_iterations <= self.BUDGET[kind]
        assert default.objective_value == pytest.approx(short.objective_value, rel=1e-8)


class TestNewtonStepBudget:
    """Newton steps are deterministic, so their count pins the interior start
    and the row cut: the (3, 6) trials 0-2 of the acceptance seed take 104
    steps over the four methods, phase 1 included (122 without Mehrotra's
    corrector, 265 from the midpoint start with tiny generators over every
    row up to the implied horizon)."""

    def test_summed_steps_of_the_3_6_cell(self):
        total = 0
        for trial in range(3):
            for kind, objective in [("sfg", "ss"), ("sfg", "slgs"), ("sfg", "lgv"), ("utpd", "lgv")]:
                result = solve_invariance(make_trial(TrialSpec(3, 6, trial, 20260815), kind, objective))
                assert result.status == OPTIMAL
                total += result.iterations + result.phase1_iterations
        assert total <= 104


class TestOptimalityResidual:
    """Every ``optimal`` solve carries a KKT residual, measured with the duals
    the loop tracked, far below the ``kkt_tol`` gate."""

    @pytest.mark.parametrize("cell", [(3, 6), (6, 10)])
    def test_kkt_residual_of_every_method(self, cell):
        for trial in range(3):
            for kind, objective in [("sfg", "ss"), ("sfg", "slgs"), ("sfg", "lgv"), ("utpd", "lgv")]:
                problem = make_trial(TrialSpec(*cell, trial, 20260815), kind, objective)
                result = solve_invariance(problem)
                assert result.status == OPTIMAL
                free = result.z[assemble(problem).layout.free]
                _, grad, _ = make_objective(objective, problem.parameterization).value_grad_hess(free)
                assert result.kkt_residual <= 1e-6 * (1.0 + np.max(np.abs(grad)))


class TestImpliedHorizon:
    """``solve_invariance`` assembles only the rows of the implied horizon;
    the answer is the one of the full-horizon system."""

    def test_time_one_is_kept(self):
        # A^2 = 0.2 I maps the unit box into itself, A = [[0, 2], [0.1, 0]]
        # does not, so times 0 and 1 stay.  Time 1 caps gamma_2 at 1/2: the
        # optimum is [-1, 1] x [-1/2, 1/2], where the box alone would give 4.
        problem = make_problem([[0.0, 2.0], [0.1, 0.0]], np.zeros(2), unit_box(2), 30,
                               SfgParameterization(np.eye(2)), "lgv")
        result = solve_invariance(problem)
        assert result.status == OPTIMAL and result.certificate_ok is True
        assert result.horizon_solved == 1
        assert result.volume == pytest.approx(2.0, abs=1e-6)

    @staticmethod
    def full_horizon_solve(problem):
        kind = problem.parameterization.kind
        system = assemble_utpd(problem) if kind == "utpd" else assemble_sfg(problem)
        assert system.layout.horizon == problem.horizon
        objective = make_objective(problem.objective, problem.parameterization)
        z0, _ = phase1_feasible_point(system, warm_start_point(problem, system))
        if z0 is None:
            return INFEASIBLE, None
        result = maximize(system, objective, z0)
        return result.status, result.objective_value

    @pytest.mark.parametrize("cell", [(3, 6), (6, 10)])
    def test_same_answer_as_the_full_horizon(self, cell):
        shortened = 0
        x_star = np.linspace(-0.4, 0.4, cell[0])  # the drifted copies' equilibrium, inside the box
        for trial in range(3):
            for kind, objective in [("sfg", "ss"), ("sfg", "slgs"), ("sfg", "lgv"), ("utpd", "lgv")]:
                plain = make_trial(TrialSpec(*cell, trial, 20260815), kind, objective)
                a = plain.system.A
                drifted = dataclasses.replace(plain, system=AffineSystem(a, (np.eye(cell[0]) - a) @ x_star))
                for problem in (plain, drifted):
                    result = solve_invariance(problem)
                    status, value = self.full_horizon_solve(problem)
                    assert result.status == status
                    if status == OPTIMAL:
                        assert result.certificate_ok is True
                        assert abs(result.objective_value - value) <= 1e-8 * (1.0 + abs(value))
                    shortened += result.horizon_solved < problem.horizon
        assert shortened > 0


class TestDeterminism:
    def test_repeated_solves_are_bitwise_identical(self):
        rng = np.random.default_rng(99)
        a = rng.standard_normal((3, 3))
        a *= 0.8 / np.max(np.abs(np.linalg.eigvals(a)))
        w = 0.02 * rng.standard_normal(3)
        template = np.hstack([np.eye(3), rng.standard_normal((3, 2))])
        problem = make_problem(a, w, unit_box(3), 20, SfgParameterization(template), "lgv")
        first = solve_invariance(problem)
        second = solve_invariance(problem)
        assert first.status == second.status == OPTIMAL
        assert np.array_equal(first.z, second.z)
        assert first.objective_value == second.objective_value
        assert first.volume == second.volume
        assert first.iterations == second.iterations

    def test_utpd_solves_are_bitwise_identical(self):
        rng = np.random.default_rng(101)
        a = rng.standard_normal((3, 3))
        a *= 0.8 / np.max(np.abs(np.linalg.eigvals(a)))
        problem = make_problem(a, np.zeros(3), unit_box(3), 10, UtpdParameterization(3), "lgv")
        first = solve_invariance(problem)
        second = solve_invariance(problem)
        assert first.status == second.status == OPTIMAL
        assert np.array_equal(first.z, second.z)


class TestCertificates:
    def test_solutions_are_certified(self):
        rng = np.random.default_rng(111)
        for _ in range(5):
            a = rng.standard_normal((2, 2))
            a *= 0.75 / np.max(np.abs(np.linalg.eigvals(a)))
            w = 0.05 * rng.standard_normal(2)
            template = np.hstack([np.eye(2), rng.standard_normal((2, 2))])
            problem = make_problem(a, w, unit_box(2), 15, SfgParameterization(template), "lgv")
            result = solve_invariance(problem)
            assert result.status == OPTIMAL
            assert result.certificate_ok is True
