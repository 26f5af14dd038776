"""Parameterizations and objectives: subset weights, closed-form volumes,
packing, derivatives, and log-concavity structure."""

import math

import numpy as np
import pytest

from zonoinv.errors import DimensionError, DomainError, RankDeficientError, UnsupportedError
from zonoinv.parameterizations import (
    OBJECTIVE_TOKENS,
    Objective,
    SfgParameterization,
    UtpdParameterization,
    make_objective,
    sfg_log_volume_grad_hess,
    sfg_precompute_weights,
    sfg_volume,
    utpd_volume,
)
from zonoinv.zonotope import Zonotope, volume_exact

from oracles import random_full_rank_template, random_utpd_matrix


class TestSubsetWeights:
    def test_square_template_single_term(self):
        w = sfg_precompute_weights(np.eye(3))
        assert w.count == 1
        assert w.weights[0] == pytest.approx(8.0)  # 2^3 * det(I)

    def test_hand_example(self):
        template = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        w = sfg_precompute_weights(template)
        assert w.count == 3
        # Subsets in lexicographic order: {0,1}, {0,2}, {1,2}; each pair here
        # spans a parallelogram of area 1, so every weight is 2^2 * 1 = 4.
        assert np.allclose(w.weights, [4.0, 4.0, 4.0])

    def test_rank_deficient_template_rejected(self):
        with pytest.raises(RankDeficientError):
            sfg_precompute_weights(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_grid_term_counts(self):
        rng = np.random.default_rng(0)
        for d, p, count in [(3, 6, 20), (3, 8, 56), (6, 10, 210)]:
            w = sfg_precompute_weights(random_full_rank_template(rng, d, p))
            assert w.count == math.comb(p, d) == count


class TestFloors:
    def test_rejects_non_finite_and_nonpositive_floors(self):
        for value in (0.0, -1e-6, float("nan"), float("inf")):
            with pytest.raises(DomainError, match="scale_floor"):
                SfgParameterization(np.eye(2), scale_floor=value)
            with pytest.raises(DomainError, match="diag_floor"):
                UtpdParameterization(2, diag_floor=value)


class TestSfgVolume:
    def test_hand_example(self):
        template = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        param = SfgParameterization(template)
        assert sfg_volume(param, np.ones(3)) == pytest.approx(12.0, rel=1e-12)

    def test_matches_exact_volume(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            d = int(rng.integers(1, 5))
            p = int(rng.integers(d, 9))
            template = random_full_rank_template(rng, d, p)
            gamma = rng.uniform(0.1, 3.0, size=p)
            param = SfgParameterization(template)
            direct = volume_exact(Zonotope(np.zeros(d), template @ np.diag(gamma)))
            assert sfg_volume(param, gamma) == pytest.approx(direct, rel=1e-10)

    def test_homogeneous_of_degree_d(self):
        rng = np.random.default_rng(1)
        template = random_full_rank_template(rng, 3, 6)
        param = SfgParameterization(template)
        gamma = rng.uniform(0.5, 2.0, size=6)
        assert sfg_volume(param, 2.0 * gamma) == pytest.approx(
            8.0 * sfg_volume(param, gamma), rel=1e-12
        )

    def test_rejects_nonpositive_scales(self):
        param = SfgParameterization(np.eye(2))
        with pytest.raises(DomainError):
            sfg_volume(param, np.array([1.0, 0.0]))


class TestSfgDerivatives:
    def test_hand_gradient(self):
        # Identity template in d=2 with extra diagonal generator (1,1):
        # V = 4*(g0 g1 + g0 g2 + g1 g2); at gamma = (1,1,1), V = 12 and
        # dV/dg0 = 4*(g1 + g2) = 8, so dlogV/dg0 = 8/12 = 2/3.
        template = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        param = SfgParameterization(template)
        _, grad, _ = sfg_log_volume_grad_hess(param, np.ones(3))
        assert np.allclose(grad, [2.0 / 3.0] * 3, atol=1e-12)

    def test_matches_finite_differences(self):
        from zonoinv.oracle import finite_diff_gradient, finite_diff_hessian

        rng = np.random.default_rng(17)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            p = int(rng.integers(d, 8))
            template = random_full_rank_template(rng, d, p)
            param = SfgParameterization(template)
            gamma = rng.uniform(0.5, 2.0, size=p)
            value, grad, hess = sfg_log_volume_grad_hess(param, gamma)
            fn = lambda g: math.log(sfg_volume(param, g))
            assert value == pytest.approx(fn(gamma), rel=1e-12)
            fd_grad = finite_diff_gradient(fn, gamma)
            fd_hess = finite_diff_hessian(fn, gamma)
            assert np.allclose(grad, fd_grad, rtol=1e-6, atol=1e-8)
            assert np.allclose(hess, fd_hess, rtol=1e-4, atol=1e-5)

    def test_hessian_negative_semidefinite(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            d, p = 3, 7
            param = SfgParameterization(random_full_rank_template(rng, d, p))
            gamma = rng.uniform(0.2, 4.0, size=p)
            _, _, hess = sfg_log_volume_grad_hess(param, gamma)
            eigs = np.linalg.eigvalsh(0.5 * (hess + hess.T))
            assert eigs.max() <= 1e-9


class TestLogConcavityChords:
    def test_sfg_chords(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            p = int(rng.integers(d, 9))
            param = SfgParameterization(random_full_rank_template(rng, d, p))
            a = rng.uniform(0.1, 4.0, size=p)
            b = rng.uniform(0.1, 4.0, size=p)
            lam = float(rng.uniform(0.05, 0.95))
            mid = math.log(sfg_volume(param, lam * a + (1 - lam) * b))
            ends = lam * math.log(sfg_volume(param, a)) + (1 - lam) * math.log(sfg_volume(param, b))
            assert mid >= ends - 1e-9


class TestUtpdPacking:
    def test_roundtrip(self):
        param = UtpdParameterization(3)
        g = np.array([[1.0, 2.0, 3.0], [0.0, 4.0, 5.0], [0.0, 0.0, 6.0]])
        packed = param.pack(g)
        assert packed.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]  # row-major triangle
        assert np.array_equal(param.unpack(packed), g)

    def test_pack_rejects_lower_triangle_garbage(self):
        param = UtpdParameterization(2)
        with pytest.raises(DimensionError):
            param.pack(np.array([[1.0, 0.0], [0.5, 1.0]]))

    def test_validate_rejects_nonpositive_diagonal(self):
        param = UtpdParameterization(2)
        with pytest.raises(DomainError):
            param.validate_free(np.array([1.0, 0.0, -0.5]))

    def test_diag_positions(self):
        param = UtpdParameterization(3)
        assert param.diag_positions().tolist() == [0, 3, 5]


class TestUtpdVolume:
    def test_hand_example(self):
        g = np.array([[1.0, 5.0], [0.0, 2.0]])
        assert utpd_volume(g) == pytest.approx(8.0, rel=1e-14)

    def test_matches_exact_volume(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            d = int(rng.integers(1, 9))
            g = random_utpd_matrix(rng, d)
            direct = volume_exact(Zonotope(np.zeros(d), g))
            assert utpd_volume(g) == pytest.approx(direct, rel=1e-12)

    def test_off_diagonal_entries_do_not_change_volume(self):
        rng = np.random.default_rng(37)
        g = random_utpd_matrix(rng, 4)
        g2 = g.copy()
        g2[np.triu_indices(4, k=1)] = rng.uniform(-9.0, 9.0, size=6)
        assert utpd_volume(g)== pytest.approx(utpd_volume(g2), rel=0.0, abs=0.0)

    def test_log_linearity_identity(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            d = int(rng.integers(1, 9))
            g = random_utpd_matrix(rng, d)
            expected = d * math.log(2.0) + float(np.sum(np.log(np.diag(g))))
            assert math.log(utpd_volume(g)) == pytest.approx(expected, abs=1e-12)

    def test_rejects_zero_diagonal(self):
        g = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(DomainError):
            utpd_volume(g)

    def test_gradient(self):
        param = UtpdParameterization(2)
        _, grad, _ = param.log_volume(param.pack([[1.0, 5.0], [0.0, 2.0]]))
        assert np.allclose(grad, [1.0, 0.0, 0.5])


class TestObjectives:
    def test_tokens(self):
        assert OBJECTIVE_TOKENS == ("ss", "slgs", "lgv")

    def test_pairing_rules(self):
        sfg = SfgParameterization(np.eye(2))
        utpd = UtpdParameterization(2)
        for token in ("ss", "slgs", "lgv"):
            make_objective(token, sfg)
        make_objective("lgv", utpd)
        with pytest.raises(UnsupportedError):
            make_objective("ss", utpd)
        with pytest.raises(UnsupportedError):
            make_objective("slgs", utpd)
        with pytest.raises(UnsupportedError):
            make_objective("nope", sfg)

    def test_objective_checks_its_own_pairing(self):
        # A bad pairing fails at construction, not later as a NaN value.
        sfg = SfgParameterization(np.eye(2))
        utpd = UtpdParameterization(2)
        for kind, param in [("slgs", utpd), ("ss", utpd), ("bogus", sfg)]:
            with pytest.raises(UnsupportedError):
                Objective(kind, param)

    def test_values(self):
        sfg = SfgParameterization(np.eye(2))
        gamma = np.array([2.0, 3.0])
        assert make_objective("ss", sfg).value(gamma) == pytest.approx(5.0)
        assert make_objective("slgs", sfg).value(gamma) == pytest.approx(math.log(6.0))
        assert make_objective("lgv", sfg).value(gamma) == pytest.approx(math.log(24.0))

    def test_value_grad_hess_consistency(self):
        from zonoinv.oracle import finite_diff_gradient, finite_diff_hessian

        rng = np.random.default_rng(53)
        utpd = UtpdParameterization(3)
        cases = [(make_objective("lgv", utpd), utpd.pack(random_utpd_matrix(rng, 3)))]
        for p in (6, 8):
            sfg = SfgParameterization(random_full_rank_template(rng, 3, p))
            cases += [(make_objective(token, sfg), rng.uniform(0.5, 2.0, p)) for token in OBJECTIVE_TOKENS]
        for objective, x in cases:
            value, grad, hess = objective.value_grad_hess(x)
            # Exact: the line search compares values from both methods.
            assert value == objective.value(x)
            fd_grad = finite_diff_gradient(objective.value, x)
            fd_hess = finite_diff_hessian(objective.value, x)
            assert np.allclose(grad, fd_grad, rtol=1e-6, atol=1e-7)
            assert np.allclose(hess, fd_hess, rtol=1e-4, atol=1e-4)

    def test_slgs_equals_lgv_argmax_at_square_identity(self):
        # With the identity template at p = d, log volume differs from the
        # sum of log scales only by the constant d*log(2): identical maximizers.
        sfg = SfgParameterization(np.eye(3))
        rng = np.random.default_rng(59)
        slgs = make_objective("slgs", sfg)
        lgv = make_objective("lgv", sfg)
        for _ in range(5):
            gamma = rng.uniform(0.2, 3.0, 3)
            assert lgv.value(gamma) - slgs.value(gamma) == pytest.approx(3 * math.log(2.0), abs=1e-12)
