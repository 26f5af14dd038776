"""Tests of the presolve's exact infeasibility test: hand values, a count pin
on the acceptance seed, and property tests against an independent LP."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import center_trajectory_feasible
from zonoinv.invariance import AffineSystem, InvarianceProblem, assemble_sfg, assemble_utpd, presolve, warm_start_point
from zonoinv.parameterizations import SfgParameterization, UtpdParameterization
from zonoinv.solver import INFEASIBLE, phase1_feasible_point, solve_invariance
from zonoinv.sysgen import TrialSpec, make_trial
from zonoinv.zonotope import Box

# Deterministic example streams, no example database on disk.
PROPERTY = settings(max_examples=60, derandomize=True, database=None, deadline=None)
METHODS = [("sfg", "ss"), ("sfg", "slgs"), ("sfg", "lgv"), ("utpd", "lgv")]


def problem(a, w, lower, upper, horizon, kind="sfg"):
    d = len(w)
    param = SfgParameterization(np.hstack([np.eye(d), np.ones((d, 1))])) if kind == "sfg" else UtpdParameterization(d)
    return InvarianceProblem(AffineSystem(a, w), Box(lower, upper), horizon, param, "lgv")


def exit_message(t, i):
    return f"no strictly feasible point: the center leaves the box in row {i} at t = {t}"


class TestHandValues:
    def test_scalar_flags_at_the_first_step(self):
        # From c in [-1, 1] the center at t = 1 is 0.5 c + 2 in [1.5, 2.5].
        p = problem([[0.5]], [2.0], [-1.0], [1.0], 30)
        assert presolve(p)[1] == (1, 0)
        result = solve_invariance(p)
        assert result.status == INFEASIBLE and result.message == exit_message(1, 0)
        assert result.iterations == result.phase1_iterations == 0

    def test_names_the_drifting_row(self):
        # Row 1 of the center is 0.9^k c_1 + 5 (1 - 0.9^k): it misses [-1, 1]
        # once 5 (1 - 0.9^k) > 0.9^k + 1, i.e. 0.9^k < 2/3, first at k = 4.
        p = problem(np.diag([0.5, 0.9]), [0.0, 0.5], [-1.0, -1.0], [1.0, 1.0], 30)
        steps, exit_row = presolve(p)
        assert exit_row == (4, 1)
        result = solve_invariance(p)
        assert result.message == exit_message(4, 1)
        assert result.horizon_solved == int(steps.max()) - 1 == 30

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_margin_scales_with_the_box(self, scale):
        # With T = 1 the center 0.5 c + w of c in the box [-1, 1] (times
        # scale) can stay in it iff w <= 1.5.  Past that by 1e-4 of the
        # half-width the test flags at every scale; at w = 1.5 the center
        # can only touch the box, which the test leaves to phase 1.
        assert presolve(problem([[0.5]], [1.5001 * scale], [-scale], [scale], 1))[1] == (1, 0)
        touching = problem([[0.5]], [1.5 * scale], [-scale], [scale], 1)
        assert presolve(touching)[1] is None
        result = solve_invariance(touching)
        assert result.status == INFEASIBLE and result.phase1_iterations > 0
        assert result.message == "no strictly feasible point: phase 1 finds no point with every slack above 1e-06"

    def test_feasible_and_short_horizons_are_not_flagged(self):
        # The same row stays in the box for k <= 3; no zonotope exists beyond.
        assert presolve(problem(np.diag([0.5, 0.9]), [0.0, 0.5], [-1.0, -1.0], [1.0, 1.0], 3))[1] is None
        assert presolve(problem([[0.5]], [2.0], [-1.0], [1.0], 0))[1] is None
        assert presolve(problem(0.5 * np.eye(2), np.zeros(2), [-1.0, -1.0], [1.0, 1.0], 30))[1] is None


class TestCountPin:
    """The (3, 6) trials 0-2 of the acceptance seed with the equilibrium
    moved to 2.0 on coordinate ``trial``: every method is infeasible after
    zero Newton steps, and phase 1 on the system over every t <= T agrees."""

    EXITS = {0: (4, 0), 1: (8, 1), 2: (7, 2)}

    @pytest.mark.parametrize("trial", [0, 1, 2])
    def test_drifted_outside_trials(self, trial):
        for kind, objective in METHODS:
            base = make_trial(TrialSpec(3, 6, trial, 20260815), kind, objective)
            a = base.system.A
            x_star = np.zeros(3)
            x_star[trial] = 2.0
            p = dataclasses.replace(base, system=AffineSystem(a, (np.eye(3) - a) @ x_star))
            result = solve_invariance(p)
            assert result.status == INFEASIBLE
            assert result.iterations == result.phase1_iterations == 0
            assert result.message == exit_message(*self.EXITS[trial])
            full = assemble_sfg(p) if kind == "sfg" else assemble_utpd(p)
            z, _ = phase1_feasible_point(full, warm_start_point(p, full))
            assert z is None


@st.composite
def drifted_instances(draw):
    """A random stable A (spectral radius 0.2-0.98), a random box, and the
    offset ``w = (I - A) x*`` for an equilibrium x* drawn in the box widened
    threefold about its midpoint, so that many instances are infeasible."""
    seed = draw(st.integers(0, 2**32 - 1))
    d = draw(st.integers(1, 4))
    horizon = draw(st.integers(0, 30))
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    a *= rng.uniform(0.2, 0.98) / np.max(np.abs(np.linalg.eigvals(a)))
    lower, upper = -rng.uniform(0.5, 2.0, d), rng.uniform(0.5, 2.0, d)
    mid, half = 0.5 * (lower + upper), 0.5 * (upper - lower)
    x_star = mid + 3.0 * half * rng.uniform(-1.0, 1.0, d)
    return a, (np.eye(d) - a) @ x_star, lower, upper, horizon, rng


class TestProperties:
    @PROPERTY
    @given(drifted_instances())
    def test_flagged_instances_are_lp_infeasible(self, instance):
        a, w, lower, upper, horizon, _ = instance
        _, exit_row = presolve(problem(a, w, lower, upper, horizon))
        if exit_row is None:
            return
        assert not center_trajectory_feasible(a, w, lower, upper, horizon)
        for kind in ("sfg", "utpd"):
            result = solve_invariance(problem(a, w, lower, upper, horizon, kind))
            assert result.status == INFEASIBLE and result.message == exit_message(*exit_row)
            assert result.iterations == result.phase1_iterations == 0

    @PROPERTY
    @given(drifted_instances(), st.floats(-6.0, 6.0))
    def test_unchanged_by_scaling(self, instance, log_scale):
        a, w, lower, upper, horizon, _ = instance
        s = 10.0**log_scale
        steps, exit_row = presolve(problem(a, w, lower, upper, horizon))
        scaled_steps, scaled_exit = presolve(problem(a, s * w, s * lower, s * upper, horizon))
        assert scaled_exit == exit_row
        assert scaled_steps.tolist() == steps.tolist()

    @PROPERTY
    @given(drifted_instances())
    def test_unchanged_by_translation(self, instance):
        # x -> x + v maps the dynamics to w + (I - A) v and the box to box + v.
        a, w, lower, upper, horizon, rng = instance
        v = 5.0 * (upper - lower) * rng.uniform(-1.0, 1.0, len(w))
        moved = problem(a, w + (np.eye(len(w)) - a) @ v, lower + v, upper + v, horizon)
        assert presolve(moved)[1] == presolve(problem(a, w, lower, upper, horizon))[1]

    @PROPERTY
    @given(drifted_instances())
    def test_permutation_permutes_the_row(self, instance):
        # The named row is the first, in row order, of the rows that leave
        # at the first such t; a row r leaves then iff moving r to the
        # front names (t, 0).
        a, w, lower, upper, horizon, rng = instance
        d = len(w)

        def exit_in_order(order):
            return presolve(problem(a[np.ix_(order, order)], w[order], lower[order], upper[order], horizon))[1]

        exit_row = exit_in_order(np.arange(d))
        perm = rng.permutation(d)
        if exit_row is None:
            assert exit_in_order(perm) is None
            return
        t = exit_row[0]
        leaving = [r for r in range(d) if exit_in_order(np.r_[r, np.delete(np.arange(d), r)]) == (t, 0)]
        assert exit_row == (t, min(leaving))
        position = np.argsort(perm)   # position of original row r in the permuted order
        assert exit_in_order(perm) == (t, int(min(position[leaving])))
