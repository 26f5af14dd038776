"""Tests for constraint assembly, certificates, and reach-set bookkeeping."""

import numpy as np
import pytest

from oracles import reach_set
from zonoinv.errors import DimensionError, UnsupportedError
from zonoinv.invariance import (
    AffineSystem,
    InvarianceProblem,
    _drift_table,
    assemble,
    assemble_sfg,
    assemble_utpd,
    certificate_violation,
    check_invariance_certificate,
    presolve,
    warm_start_point,
)
from zonoinv.numerics import power_chain
from zonoinv.parameterizations import SfgParameterization, UtpdParameterization
from zonoinv.zonotope import Box, Zonotope, interval_hull


def unit_box(d):
    return Box(-np.ones(d), np.ones(d))


def random_stable_system(rng, d, spectral_radius=0.8):
    a = rng.standard_normal((d, d))
    a *= spectral_radius / max(np.max(np.abs(np.linalg.eigvals(a))), 1e-12)
    w = 0.05 * rng.standard_normal(d)
    return AffineSystem(a, w)


class TestAffineSystem:
    def test_basic(self):
        sys_ = AffineSystem([[0.5, 0.1], [0.0, 0.5]], [0.1, -0.2])
        assert sys_.dim == 2
        assert sys_.A.shape == (2, 2)

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            AffineSystem(np.zeros((2, 3)), np.zeros(2))

    def test_rejects_mismatched_offset(self):
        with pytest.raises(DimensionError):
            AffineSystem(np.eye(2), np.zeros(3))


class TestDrift:
    def test_zero_at_time_zero(self):
        sys_ = AffineSystem(0.5 * np.eye(3), np.ones(3))
        assert np.array_equal(_drift_table(sys_, 0), np.zeros((1, 3)))

    def test_hand_values(self):
        # d(1) = w, d(2) = A w + w.
        a = np.array([[0.5, 0.2], [0.0, 0.3]])
        w = np.array([1.0, 2.0])
        sys_ = AffineSystem(a, w)
        drifts = _drift_table(sys_, 2)
        assert np.allclose(drifts[1], w)
        assert np.allclose(drifts[2], a @ w + w)

    def test_scalar_geometric_series(self):
        # For scalar a, drift(t) = w * (1 - a^t) / (1 - a).
        sys_ = AffineSystem([[0.5]], [3.0])
        drifts = _drift_table(sys_, 7)
        for t in range(8):
            expected = 3.0 * (1 - 0.5**t) / (1 - 0.5)
            assert drifts[t, 0] == pytest.approx(expected, rel=1e-14)

    def test_rejects_negative_time(self):
        sys_ = AffineSystem([[0.5]], [0.0])
        with pytest.raises(DimensionError):
            _drift_table(sys_, -1)


class TestReachZonotope:
    def test_matches_step_recursion(self):
        # The closed form the certificate evaluates, A^t c + drift(t) and
        # A^t G, against the reach set stepped one time step at a time.
        rng = np.random.default_rng(11)
        sys_ = random_stable_system(rng, 3)
        c, g = rng.standard_normal(3), rng.standard_normal((3, 4))
        powers, drifts = power_chain(sys_.A, 5), _drift_table(sys_, 5)
        for t in range(6):
            c_t, g_t = reach_set(sys_.A, sys_.w, c, g, t)
            assert np.allclose(powers[t] @ c + drifts[t], c_t, atol=1e-12)
            assert np.allclose(powers[t] @ g, g_t, atol=1e-12)


class TestProblemValidation:
    def test_rejects_box_mismatch(self):
        sys_ = AffineSystem(np.eye(2), np.zeros(2))
        with pytest.raises(DimensionError):
            InvarianceProblem(sys_, unit_box(3), 5, SfgParameterization(np.eye(2)), "lgv")

    def test_rejects_parameterization_mismatch(self):
        sys_ = AffineSystem(np.eye(2), np.zeros(2))
        with pytest.raises(DimensionError):
            InvarianceProblem(sys_, unit_box(2), 5, SfgParameterization(np.eye(3)), "lgv")

    def test_rejects_negative_horizon(self):
        sys_ = AffineSystem(np.eye(2), np.zeros(2))
        with pytest.raises(DimensionError):
            InvarianceProblem(sys_, unit_box(2), -1, SfgParameterization(np.eye(2)), "lgv")

    def test_rejects_bad_objective_pairing(self):
        sys_ = AffineSystem(np.eye(2), np.zeros(2))
        with pytest.raises(UnsupportedError):
            InvarianceProblem(sys_, unit_box(2), 5, UtpdParameterization(2), "ss")


class TestAssembleSfg:
    def test_shapes(self):
        # d = 3, p = 6, T = 30: n = 9, m = 2*3*31 + 6 = 192.
        rng = np.random.default_rng(0)
        sys_ = random_stable_system(rng, 3)
        param = SfgParameterization(np.hstack([np.eye(3), rng.standard_normal((3, 3))]))
        problem = InvarianceProblem(sys_, unit_box(3), 30, param, "lgv")
        system = assemble_sfg(problem)
        assert system.shape == (192, 9)
        assert system.layout.n == 9 and system.layout.m == 192
        assert system.layout.center == slice(0, 3)
        assert system.layout.free == slice(3, 9)
        assert system.layout.elim_blocks == ()

    def test_hand_rows_scalar(self):
        # d = 1, p = 1, T = 1, A = [[0.5]], w = [0.25], box [-1, 1],
        # template [[1]]. Rows: t=0 lower/upper, t=1 lower/upper, floor.
        sys_ = AffineSystem([[0.5]], [0.25])
        param = SfgParameterization([[1.0]], scale_floor=1e-6)
        problem = InvarianceProblem(sys_, unit_box(1), 1, param, "lgv")
        system = assemble_sfg(problem)
        dense = system.C.toarray()
        expected_c = np.array([
            [-1.0, 1.0],     # -c + |G| gamma <= 0 - (-1)
            [1.0, 1.0],      # +c + |G| gamma <= 1 - 0
            [-0.5, 0.5],     # t=1: -0.5 c + 0.5 gamma <= 0.25 + 1
            [0.5, 0.5],      # t=1: 0.5 c + 0.5 gamma <= 1 - 0.25
            [0.0, -1.0],     # -gamma <= -floor
        ])
        expected_b = np.array([1.0, 1.0, 1.25, 0.75, -1e-6])
        assert np.allclose(dense, expected_c, atol=1e-15)
        assert np.allclose(system.b, expected_b, atol=1e-15)

    def test_slacks_match_certificate(self):
        # A point is feasible for the assembled system exactly when the
        # zonotope it encodes has zero certificate violation.
        rng = np.random.default_rng(21)
        for _ in range(20):
            d, p, T = 2, 4, 8
            sys_ = random_stable_system(rng, d)
            template = rng.standard_normal((d, p))
            param = SfgParameterization(template, scale_floor=1e-9)
            problem = InvarianceProblem(sys_, unit_box(d), T, param, "lgv")
            system = assemble_sfg(problem)
            center = 0.3 * rng.standard_normal(d)
            gamma = rng.uniform(0.01, 0.6, p)
            z = system.layout.encode(center, gamma)
            viol = certificate_violation(sys_, problem.box, T, Zonotope(center, template @ np.diag(gamma)))
            slack_min = float(np.min(system.slacks(z)))
            if viol == 0.0:
                assert slack_min >= -1e-12
            else:
                assert slack_min == pytest.approx(-viol, rel=1e-9, abs=1e-12)

    def test_rejects_wrong_kind(self):
        sys_ = AffineSystem(np.eye(2), np.zeros(2))
        problem = InvarianceProblem(sys_, unit_box(2), 3, UtpdParameterization(2), "lgv")
        with pytest.raises(UnsupportedError):
            assemble_sfg(problem)


class TestAssembleUtpd:
    def test_shapes(self):
        # d = 3, T = 30, B = 31*3 blocks: n = 3 + 6 + 93*3 = 288,
        # m = 3 + 93*(6 + 2) = 747.
        rng = np.random.default_rng(5)
        sys_ = random_stable_system(rng, 3)
        problem = InvarianceProblem(sys_, unit_box(3), 30, UtpdParameterization(3), "lgv")
        system = assemble_utpd(problem)
        assert system.shape == (747, 288)
        layout = system.layout
        assert layout.center == slice(0, 3)
        assert layout.free == slice(3, 9)
        assert layout.lifted == slice(9, 288)
        assert len(layout.elim_blocks) == 31 * 3
        assert all(len(block) == 3 for block in layout.elim_blocks)

    def test_hand_rows_d2(self):
        # d = 2, T = 1, A = [[1/2, 1/4], [-1/8, 3/4]], w = (1/4, -1/2), box
        # [-1, 1]^2. Columns: c0 c1 | G00 G01 G11 | N00 N01 N10 N11 | M00 M01
        # M10 M11, with N = M_0 >= +-G and M = M_1 >= +-AG.
        sys_ = AffineSystem([[0.5, 0.25], [-0.125, 0.75]], [0.25, -0.5])
        param = UtpdParameterization(2, diag_floor=1e-6)
        system = assemble_utpd(InvarianceProblem(sys_, unit_box(2), 1, param, "lgv"))
        expected_c = np.array([
            [0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],              # -G00 <= -floor
            [0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0],              # -G11 <= -floor
            [0, 0, 1, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0],              # +G00 - N00
            [0, 0, -1, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0],             # -G00 - N00
            [0, 0, 0, 1, 0, 0, -1, 0, 0, 0, 0, 0, 0],              # +G01 - N01
            [0, 0, 0, -1, 0, 0, -1, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0],              # G10 = 0: -N10
            [0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 0, 0, 0, -1, 0, 0, 0, 0],              # +G11 - N11
            [0, 0, 0, 0, -1, 0, 0, 0, -1, 0, 0, 0, 0],
            [-1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0],              # t=0 lower: -c0 + N00 + N01
            [0, -1, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0],
            [1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0],               # t=0 upper
            [0, 1, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0],
            [0, 0, 0.5, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0],            # +(AG)00 - M00
            [0, 0, -0.5, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0],           # -(AG)00 - M00
            [0, 0, 0, 0.5, 0.25, 0, 0, 0, 0, 0, -1, 0, 0],         # (AG)01 = G01/2 + G11/4
            [0, 0, 0, -0.5, -0.25, 0, 0, 0, 0, 0, -1, 0, 0],
            [0, 0, -0.125, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0],         # (AG)10 = -G00/8
            [0, 0, 0.125, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0],
            [0, 0, 0, -0.125, 0.75, 0, 0, 0, 0, 0, 0, 0, -1],      # (AG)11 = -G01/8 + 3 G11/4
            [0, 0, 0, 0.125, -0.75, 0, 0, 0, 0, 0, 0, 0, -1],
            [-0.5, -0.25, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0],        # t=1 lower: -(Ac)0 + M00 + M01
            [0.125, -0.75, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1],
            [0.5, 0.25, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0],          # t=1 upper
            [-0.125, 0.75, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1],
        ])
        expected_b = np.array([-1e-6, -1e-6] + [0] * 8 + [1, 1, 1, 1] + [0] * 8 + [1.25, 0.5, 0.75, 1.5])
        assert np.array_equal(system.C.toarray(), expected_c)
        assert np.array_equal(system.b, expected_b)
        assert [block.tolist() for block in system.layout.elim_blocks] == [[5, 6], [7, 8], [9, 10], [11, 12]]
        assert [rows.tolist() for rows in system.layout.block_rows] == [
            [[2, 3], [4, 5], [10, 12]],
            [[6, 7], [8, 9], [11, 13]],
            [[14, 15], [16, 17], [22, 24]],
            [[18, 19], [20, 21], [23, 25]],
        ]

    def test_block_rows_are_the_only_rows_of_each_block(self):
        # Pair j < d holds -1 on entry j of M_t[i, :]; the last pair (the
        # box rows of (t, i)) holds +1 on every entry; no other row touches it.
        rng = np.random.default_rng(6)
        d, T = 3, 4
        problem = InvarianceProblem(random_stable_system(rng, d), unit_box(d), T, UtpdParameterization(d), "lgv")
        system = assemble_utpd(problem)
        dense = system.C.toarray()
        layout = system.layout
        assert len(layout.block_rows) == len(layout.elim_blocks) == (T + 1) * d
        for cols, rows in zip(layout.elim_blocks, layout.block_rows):
            assert rows.shape == (d + 1, 2)
            expected = np.zeros((system.shape[0], d))
            for j in range(d):
                expected[rows[j], j] = -1.0
            expected[rows[d]] = 1.0
            assert np.array_equal(dense[:, cols], expected)

    def test_horizon_zero_lifts_time_zero(self):
        # Only t = 0 is kept, and it is lifted like any other step: one block
        # M_0[i, :] per row i.  n = 2 + 3 + 2*2, m = 2 + 2*(4 + 2).
        sys_ = AffineSystem(0.5 * np.eye(2), np.zeros(2))
        problem = InvarianceProblem(sys_, unit_box(2), 0, UtpdParameterization(2), "lgv")
        system = assemble_utpd(problem)
        assert system.shape == (14, 9)
        assert system.layout.lifted == slice(5, 9)
        assert [block.tolist() for block in system.layout.elim_blocks] == [[5, 6], [7, 8]]
        # The box rows of (0, 0), then of (0, 1): lower rows 10, 11, upper 12, 13.
        assert [rows[-1].tolist() for rows in system.layout.block_rows] == [[10, 12], [11, 13]]

    def test_exact_lift_matches_certificate(self):
        # Encoding a triangular zonotope with exact absolute-value lifts is
        # feasible iff the certificate reports no violation; the worst slack
        # equals minus the violation otherwise.
        rng = np.random.default_rng(31)
        for _ in range(20):
            d, T = 3, 6
            sys_ = random_stable_system(rng, d)
            param = UtpdParameterization(d, diag_floor=1e-9)
            problem = InvarianceProblem(sys_, unit_box(d), T, param, "lgv")
            system = assemble_utpd(problem)
            g = np.triu(0.4 * rng.standard_normal((d, d)))
            np.fill_diagonal(g, rng.uniform(0.05, 0.5, d))
            center = 0.3 * rng.standard_normal(d)
            powers = np.stack([np.linalg.matrix_power(sys_.A, t) for t in range(T + 1)])
            z = system.layout.encode(center, param.pack(g), lifted=np.abs(powers @ g))
            viol = certificate_violation(sys_, problem.box, T, Zonotope(center, g))
            slack_min = float(np.min(system.slacks(z)))
            if viol == 0.0:
                assert slack_min >= -1e-12
            else:
                # Aux rows are tight (zero slack); only box rows can go negative.
                assert slack_min == pytest.approx(-viol, rel=1e-9, abs=1e-12)

    def test_decode_encode_roundtrip(self):
        rng = np.random.default_rng(41)
        sys_ = random_stable_system(rng, 3)
        problem = InvarianceProblem(sys_, unit_box(3), 4, UtpdParameterization(3), "lgv")
        layout = assemble_utpd(problem).layout
        z = rng.standard_normal(layout.n)
        diag = layout.free.start + problem.parameterization.diag_positions()
        z[diag] = rng.uniform(0.5, 2.0, 3)
        parts = layout.decode(z)
        back = layout.encode(parts["center"], parts["free"], lifted=parts["lifted"])
        assert np.array_equal(back, z)

    def test_decode_generators_are_triangular(self):
        sys_ = AffineSystem(0.5 * np.eye(2), np.zeros(2))
        problem = InvarianceProblem(sys_, unit_box(2), 2, UtpdParameterization(2), "lgv")
        layout = assemble_utpd(problem).layout
        z = layout.encode([0.1, -0.2], [2.0, 3.0, 4.0], lifted=np.ones((3, 2, 2)))
        parts = layout.decode(z)
        assert np.array_equal(parts["generators"], [[2.0, 3.0], [0.0, 4.0]])
        assert np.array_equal(parts["center"], [0.1, -0.2])

    def test_assemble_dispatch(self):
        rng = np.random.default_rng(7)
        sys_ = random_stable_system(rng, 2)
        p_sfg = InvarianceProblem(sys_, unit_box(2), 3, SfgParameterization(np.eye(2)), "lgv")
        p_utpd = InvarianceProblem(sys_, unit_box(2), 3, UtpdParameterization(2), "lgv")
        assert assemble(p_sfg).layout.kind == "sfg"
        assert assemble(p_utpd).layout.kind == "utpd"


class TestImpliedHorizon:
    @staticmethod
    def problem(a, w, box, horizon):
        d = len(w)
        return InvarianceProblem(AffineSystem(a, w), box, horizon, SfgParameterization(np.eye(d)), "lgv")

    def test_hand_values(self):
        # 0.5 I maps the box into itself in one step: only t = 0 is kept.
        assert presolve(self.problem(0.5 * np.eye(2), np.zeros(2), unit_box(2), 30))[0].tolist() == [1, 1]
        # Row 1 of A = [[0, 2], [0.1, 0]] maps into the box in one step, row 0
        # only in two (A^2 = 0.2 I): row 0 keeps t = 0 and t = 1.
        assert presolve(self.problem([[0.0, 2.0], [0.1, 0.0]], np.zeros(2), unit_box(2), 30))[0].tolist() == [2, 1]
        # The identity with a drift never maps [0, 1] into itself.
        assert presolve(self.problem([[1.0]], [0.02], Box([0.0], [1.0]), 30))[0].tolist() == [31]
        assert presolve(self.problem(0.5 * np.eye(2), np.zeros(2), unit_box(2), 0))[0].tolist() == [1, 1]
        # diag(0.5, 1) with a drift on row 1: row 0 keeps t = 0 only, row 1 every t.
        steps = presolve(self.problem(np.diag([0.5, 1.0]), [0.0, 0.02], unit_box(2), 30))[0]
        assert steps.tolist() == [1, 31]

    def test_unit_free(self):
        # The box m +- s with the equilibrium at m: the answer depends on A only.
        rng = np.random.default_rng(8)
        for _ in range(5):
            a = random_stable_system(rng, 3).A
            mid = rng.uniform(-2.0, 2.0, 3)
            values = {
                tuple(presolve(self.problem(a, (np.eye(3) - a) @ mid, Box(mid - s, mid + s), 30))[0].tolist())
                for s in (1e-6, 1.0, 1e6)
            }
            assert len(values) == 1

    @pytest.mark.parametrize("kind", ["sfg", "utpd"])
    def test_feasible_for_the_kept_rows_means_certified(self, kind):
        # Points strictly feasible for assemble(problem), each pushed to
        # 1 - 1e-6 of the boundary along a random direction, pass the
        # full-horizon certificate.  Lifted auxiliaries are the exact absolute
        # values, padded by 1e-9 relative (plus 1e-12) so their rows are
        # strict too.  At spectral radius 0.9 the kept horizons run up to 13-15,
        # most draws keep different step counts for different state rows, and
        # keeping one time step fewer in one row fails this test for both kinds.
        rng = np.random.default_rng(61)
        d, p, T = 3, 5, 30
        shortened = per_row = 0
        for _ in range(20):
            sys_ = random_stable_system(rng, d, spectral_radius=0.9)
            if kind == "sfg":
                param = SfgParameterization(rng.standard_normal((d, p)), scale_floor=1e-9)
            else:
                param = UtpdParameterization(d, diag_floor=1e-9)
            problem = InvarianceProblem(sys_, unit_box(d), T, param, "lgv")
            system = assemble(problem)
            layout = system.layout
            shortened += layout.horizon < T
            per_row += len(set(layout.row_steps)) > 1
            powers = np.stack([np.linalg.matrix_power(sys_.A, t) for t in range(layout.horizon + 1)])
            for _ in range(10):
                center = 0.1 * rng.standard_normal(d)
                if kind == "sfg":
                    free = rng.uniform(0.01, 1.0, p)
                    generators = param.effective_generators(free)
                    z_dir = layout.encode(np.zeros(d), free)
                else:
                    generators = np.triu(rng.standard_normal((d, d)))
                    np.fill_diagonal(generators, rng.uniform(0.05, 1.0, d))
                    lifted = (1.0 + 1e-9) * np.abs(powers @ generators) + 1e-12
                    z_dir = layout.encode(np.zeros(d), param.pack(generators), lifted=lifted)
                z_center = np.zeros(layout.n)
                z_center[layout.center] = center
                # The slacks are affine in the generator scale s: b - C z_center - s C z_dir.
                rest, rate = system.slacks(z_center), system.C @ z_dir
                rising = rate > 0.0
                scale = (1.0 - 1e-6) * float(np.min(rest[rising] / rate[rising]))
                assert scale > 0.0
                assert float(np.min(system.slacks(z_center + scale * z_dir))) > 0.0
                zono = Zonotope(center, scale * generators)
                assert certificate_violation(sys_, problem.box, T, zono) == 0.0
        assert shortened >= 15 and per_row >= 10

    @pytest.mark.parametrize("kind", ["sfg", "utpd"])
    def test_per_row_system_is_the_full_system_restricted(self, kind):
        # Dropping the rows (t, i) with t >= steps[i] removes their box rows
        # and, for utpd, the block M_t[i, :] with its aux rows; every other
        # entry of C and b stays, in the same order.
        rng = np.random.default_rng(71)
        d, T, steps = 3, 5, [2, 6, 4]
        if kind == "sfg":
            param, build = SfgParameterization(rng.standard_normal((d, 5))), assemble_sfg
        else:
            param, build = UtpdParameterization(d), assemble_utpd
        problem = InvarianceProblem(random_stable_system(rng, d), unit_box(d), T, param, "lgv")
        full, cut = build(problem), build(problem, steps)
        assert cut.layout.row_steps == (2, 6, 4) and cut.layout.horizon == 5
        dropped_rows, dropped_cols = [], []
        if kind == "sfg":
            for t in range(T + 1):
                dropped_rows += [2 * d * t + side * d + i for side in (0, 1) for i in range(d) if t >= steps[i]]
        else:
            for (t, i), rows, cols in zip(np.ndindex(T + 1, d), full.layout.block_rows, full.layout.elim_blocks):
                if t >= steps[i]:
                    dropped_rows += rows.ravel().tolist()
                    dropped_cols += cols.tolist()
            assert len(cut.layout.elim_blocks) == sum(steps) == 12
        rows = np.setdiff1d(np.arange(full.shape[0]), dropped_rows)
        cols = np.setdiff1d(np.arange(full.shape[1]), dropped_cols)
        assert np.array_equal(cut.C.toarray(), full.C.toarray()[np.ix_(rows, cols)])
        assert np.array_equal(cut.b, full.b[rows])
        assert cut.layout.m == rows.size and cut.layout.n == cols.size

    def test_per_row_layout_roundtrip(self):
        # decode fills the dropped rows M_t[i, :] with zeros; encode writes
        # only the kept ones, so encode(decode(z)) == z.
        rng = np.random.default_rng(72)
        problem = InvarianceProblem(random_stable_system(rng, 3), unit_box(3), 4, UtpdParameterization(3), "lgv")
        layout = assemble_utpd(problem, [1, 5, 3]).layout
        z = rng.uniform(0.5, 2.0, layout.n)
        parts = layout.decode(z)
        assert parts["lifted"].shape == (5, 3, 3)
        assert np.all(parts["lifted"][1:, 0] == 0.0) and np.all(parts["lifted"][3:, 2] == 0.0)
        assert np.all(parts["lifted"][0, 0] > 0.0) and np.all(parts["lifted"][:, 1] > 0.0)
        assert np.all(parts["lifted"][:3, 2] > 0.0)
        back = layout.encode(parts["center"], parts["free"], lifted=parts["lifted"])
        assert np.array_equal(back, z)

    def test_rejects_bad_row_steps(self):
        problem = InvarianceProblem(AffineSystem(np.eye(2), np.zeros(2)), unit_box(2), 3, UtpdParameterization(2), "lgv")
        for steps in ([0, 2], [1, 5], [1, 2, 3]):
            with pytest.raises(DimensionError):
                assemble_utpd(problem, steps)


class TestWarmStart:
    def test_strictly_feasible_for_contractive_centered_system(self):
        rng = np.random.default_rng(51)
        for d, make_param in [(3, lambda: SfgParameterization(np.eye(3))), (3, lambda: UtpdParameterization(3))]:
            a = rng.standard_normal((d, d))
            a *= 0.7 / np.max(np.abs(np.linalg.eigvals(a)))
            sys_ = AffineSystem(a, np.zeros(d))
            problem = InvarianceProblem(sys_, unit_box(d), 10, make_param(), "lgv")
            system = assemble(problem)
            z0 = warm_start_point(problem, system)
            assert float(np.min(system.slacks(z0))) > 0.0

    def test_can_be_infeasible_under_large_drift(self):
        # Large offset pushes the box midpoint trajectory outside: the warm
        # start is only a candidate, and callers must check it.
        sys_ = AffineSystem([[0.5]], [3.0])
        param = SfgParameterization([[1.0]])
        problem = InvarianceProblem(sys_, unit_box(1), 5, param, "lgv")
        system = assemble(problem)
        z0 = warm_start_point(problem, system)
        assert float(np.min(system.slacks(z0))) < 0.0
        # The midpoint start itself, not a point moved along the ray.
        assert np.array_equal(z0, system.layout.encode([0.0], param.initial_free()))

    @staticmethod
    def problems(scale=1.0):
        # Drifted toward an equilibrium inside the box (+-0.4 of its half-width);
        # the box, w and the floors all scale with ``scale``.
        rng = np.random.default_rng(52)
        mid = np.array([3.0, -1.0, 0.5])
        for kind in ("sfg", "utpd", "sfg", "utpd"):
            a = random_stable_system(rng, 3, spectral_radius=0.9).A
            x_star = mid + rng.uniform(-0.4, 0.4, 3)
            w = scale * (np.eye(3) - a) @ x_star
            box = Box(scale * (mid - 1.0), scale * (mid + 1.0))
            if kind == "sfg":
                param = SfgParameterization(np.hstack([np.eye(3), rng.standard_normal((3, 3))]), scale_floor=scale * 1e-6)
            else:
                param = UtpdParameterization(3, diag_floor=scale * 1e-6)
            yield InvarianceProblem(AffineSystem(a, w), box, 30, param, "lgv")

    @staticmethod
    def midpoint_start(problem, system):
        # z0: box midpoint, initial_free(), lifted rows |A^t G| padded by 10 diag_floor.
        layout, param = system.layout, problem.parameterization
        if layout.kind == "sfg":
            return layout.encode(problem.box.midpoint, param.initial_free())
        pad = 10.0 * param.diag_floor
        g0 = param.unpack(param.initial_free())
        powers = np.stack([np.linalg.matrix_power(problem.system.A, t) for t in range(layout.horizon + 1)])
        return layout.encode(problem.box.midpoint, param.initial_free(), lifted=np.abs(powers @ g0) + pad)

    def test_keeps_half_the_slack_of_the_midpoint_start(self):
        # Half the largest step along the ray: every slack keeps at least half
        # its value at z0, and the row that bounds the ray keeps exactly half.
        for problem in self.problems():
            system = assemble(problem)
            ratio = system.slacks(warm_start_point(problem, system)) / system.slacks(self.midpoint_start(problem, system))
            assert np.min(ratio) == pytest.approx(0.5, rel=1e-9)

    def test_scales_with_the_box(self):
        def warm_parts(problem):
            system = assemble(problem)
            return system.layout.decode(warm_start_point(problem, system))

        base = [warm_parts(problem) for problem in self.problems()]
        for scale in (1e-6, 1e6):
            for parts, scaled in zip(base, self.problems(scale)):
                scaled_parts = warm_parts(scaled)
                for key in ("center", "generators"):
                    assert np.allclose(scaled_parts[key], scale * parts[key], rtol=1e-12, atol=0.0)


class TestCertificate:
    def test_contraction_has_zero_violation(self):
        sys_ = AffineSystem(0.5 * np.eye(2), np.zeros(2))
        z = Zonotope(np.zeros(2), 0.9 * np.eye(2))
        assert certificate_violation(sys_, unit_box(2), 10, z) == 0.0
        assert check_invariance_certificate(sys_, unit_box(2), 10, z)

    def test_known_violation_amount(self):
        # Center (0.6, 0), generators 0.5 I, horizon 0: reach set spans
        # [0.1, 1.1] in coordinate 0, so it exceeds the unit box by 0.1.
        sys_ = AffineSystem(np.zeros((2, 2)), np.zeros(2))
        z = Zonotope([0.6, 0.0], 0.5 * np.eye(2))
        viol = certificate_violation(sys_, unit_box(2), 0, z)
        assert viol == pytest.approx(0.1, abs=1e-15)
        assert not check_invariance_certificate(sys_, unit_box(2), 0, z)
        assert check_invariance_certificate(sys_, unit_box(2), 0, z, tol=0.2)

    def test_violation_can_appear_later_in_time(self):
        # A rotation by 90 degrees moves a thin zonotope's long axis into a
        # tight coordinate after one step.
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        sys_ = AffineSystem(rot, np.zeros(2))
        box = Box([-2.0, -1.0], [2.0, 1.0])
        z = Zonotope(np.zeros(2), np.diag([1.5, 0.5]))
        assert certificate_violation(sys_, box, 0, z) == 0.0
        assert certificate_violation(sys_, box, 1, z) == pytest.approx(0.5, abs=1e-15)

    def test_drifted_violation_matches_reach_sets(self):
        # The offset w pushes the center toward the upper face of coordinate 0,
        # so the reach sets first leave the box at t = 2.
        sys_ = AffineSystem([[0.5, 0.1, 0.0], [0.0, 0.5, 0.1], [0.0, 0.0, 0.4]], [0.6, 0.0, -0.1])
        generators = [[1.0, 0.5, 0.0, 0.2], [0.0, 1.0, 0.3, 0.0], [0.0, 0.0, 1.0, 0.1]]
        z = Zonotope([0.0, 0.1, 0.0], 0.2 * np.array(generators))
        box = unit_box(3)
        excess = []
        for t in range(7):
            hull = interval_hull(Zonotope(*reach_set(sys_.A, sys_.w, z.center, z.generators, t)))
            excess.append(max(np.max(box.lower - hull.lower), np.max(hull.upper - box.upper)))
        assert max(excess[:2]) < 0.0 < excess[2]
        for horizon in range(7):
            expected = max(0.0, max(excess[: horizon + 1]))
            assert certificate_violation(sys_, box, horizon, z) == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        sys_ = AffineSystem(np.eye(2), np.zeros(2))
        with pytest.raises(DimensionError):
            certificate_violation(sys_, unit_box(3), 1, Zonotope(np.zeros(2), np.eye(2)))
