"""Tests for benchmark instance generation: seeds, stability, normality,
templates, and cross-method consistency."""

import numpy as np
import pytest

from zonoinv.errors import DimensionError
from zonoinv.sysgen import (
    DEFAULT_DT,
    DEFAULT_HORIZON,
    TrialSpec,
    derive_trial_seed,
    make_trial,
    random_stable_A,
    template_generators,
    trial_rng,
)


class TestTrialSpec:
    def test_defaults(self):
        spec = TrialSpec(dim=3, n_generators=6, trial=0, master_seed=1)
        assert spec.dt == DEFAULT_DT == 0.2
        assert spec.horizon == DEFAULT_HORIZON == 30

    def test_validation(self):
        with pytest.raises(DimensionError):
            TrialSpec(dim=0, n_generators=1, trial=0, master_seed=1)
        with pytest.raises(DimensionError):
            TrialSpec(dim=3, n_generators=2, trial=0, master_seed=1)
        with pytest.raises(DimensionError):
            TrialSpec(dim=2, n_generators=3, trial=-1, master_seed=1)
        with pytest.raises(DimensionError):
            TrialSpec(dim=2, n_generators=3, trial=0, master_seed=1, dt=0.0)
        with pytest.raises(DimensionError):
            TrialSpec(dim=2, n_generators=3, trial=0, master_seed=1, horizon=-1)
        # A negative seed has no SeedSequence, and a float or bool is no count.
        with pytest.raises(DimensionError, match="^master_seed"):
            TrialSpec(dim=2, n_generators=3, trial=0, master_seed=-1)
        with pytest.raises(DimensionError, match="^dim"):
            TrialSpec(dim=2.0, n_generators=3, trial=0, master_seed=1)
        with pytest.raises(DimensionError, match="^horizon"):
            TrialSpec(dim=2, n_generators=3, trial=0, master_seed=1, horizon=True)


class TestSeeds:
    def test_pure_function(self):
        assert derive_trial_seed(7, 3, 6, 2) == derive_trial_seed(7, 3, 6, 2)

    def test_injective_over_benchmark_grid(self):
        # Every (master, d, p, trial) combination used by the benchmark maps
        # to a distinct seed.
        grid = [(3, 3), (3, 6), (3, 8), (6, 10), (8, 13), (10, 14), (12, 15), (15, 16)]
        seeds = set()
        count = 0
        for d, p in grid:
            for trial in range(50):
                seeds.add(derive_trial_seed(20260815, d, p, trial))
                count += 1
        assert len(seeds) == count

    def test_sensitive_to_every_argument(self):
        base = derive_trial_seed(1, 2, 3, 4)
        assert base != derive_trial_seed(2, 2, 3, 4)
        assert base != derive_trial_seed(1, 3, 3, 4)
        assert base != derive_trial_seed(1, 2, 4, 4)
        assert base != derive_trial_seed(1, 2, 3, 5)

    def test_trial_rng_reproducible(self):
        spec = TrialSpec(dim=3, n_generators=6, trial=1, master_seed=9)
        a = trial_rng(spec).standard_normal(5)
        b = trial_rng(spec).standard_normal(5)
        assert np.array_equal(a, b)


class TestRandomStableA:
    def test_spectral_radius_below_one(self):
        rng = np.random.default_rng(0)
        for k in range(100):
            d = 1 + k % 12
            a = random_stable_A(d, 0.2, rng)
            radius = np.max(np.abs(np.linalg.eigvals(a)))
            assert radius < 1.0
            # Decay rate at least exp(-0.1 dt), at most exp(-2 dt).
            assert radius <= np.exp(-0.1 * 0.2) + 1e-12
            assert radius >= np.exp(-2.0 * 0.2) - 1e-12

    def test_matrix_is_normal(self):
        # Orthogonal basis + normal blocks: A A^T = A^T A.
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = random_stable_A(5, 0.2, rng)
            assert np.allclose(a @ a.T, a.T @ a, atol=1e-12)

    def test_scalar_eigenvalue_bounds(self):
        # d = 1 is always a single real eigenvalue in [-2, -0.1]; after
        # discretization with dt = 0.2 the entry lies in [e^-0.4, e^-0.02].
        rng = np.random.default_rng(2)
        values = np.array([random_stable_A(1, 0.2, rng)[0, 0] for _ in range(300)])
        assert np.all(values >= np.exp(-0.4) - 1e-12)
        assert np.all(values <= np.exp(-0.02) + 1e-12)
        # Spread confirms the draw is not degenerate.
        assert values.std() > 0.01

    def test_complex_pairs_appear(self):
        rng = np.random.default_rng(3)
        saw_complex = False
        for _ in range(20):
            a = random_stable_A(4, 0.2, rng)
            if np.any(np.abs(np.linalg.eigvals(a).imag) > 1e-9):
                saw_complex = True
                break
        assert saw_complex

    def test_rejects_bad_dim(self):
        with pytest.raises(DimensionError):
            random_stable_A(0, 0.2, np.random.default_rng(0))


class TestTemplateGenerators:
    def test_identity_prefix_and_unit_columns(self):
        rng = np.random.default_rng(4)
        t = template_generators(3, 7, rng)
        assert t.shape == (3, 7)
        assert np.array_equal(t[:, :3], np.eye(3))
        assert np.allclose(np.linalg.norm(t[:, 3:], axis=0), 1.0, atol=1e-12)

    def test_full_row_rank(self):
        rng = np.random.default_rng(5)
        for d, p in [(2, 2), (3, 6), (6, 10), (10, 14)]:
            t = template_generators(d, p, rng)
            assert np.linalg.matrix_rank(t) == d

    def test_square_case_is_identity(self):
        t = template_generators(4, 4, np.random.default_rng(6))
        assert np.array_equal(t, np.eye(4))

    def test_rejects_too_few(self):
        with pytest.raises(DimensionError):
            template_generators(3, 2, np.random.default_rng(0))


class TestMakeTrial:
    def test_deterministic(self):
        spec = TrialSpec(dim=3, n_generators=6, trial=2, master_seed=11)
        a = make_trial(spec, kind="sfg", objective="lgv")
        b = make_trial(spec, kind="sfg", objective="lgv")
        assert np.array_equal(a.system.A, b.system.A)
        assert np.array_equal(a.parameterization.template, b.parameterization.template)

    def test_methods_share_dynamics(self):
        # The triangular variant of a trial sees the identical dynamics draw.
        spec = TrialSpec(dim=4, n_generators=7, trial=0, master_seed=13)
        sfg = make_trial(spec, kind="sfg", objective="lgv")
        utpd = make_trial(spec, kind="utpd", objective="lgv")
        assert np.array_equal(sfg.system.A, utpd.system.A)
        assert utpd.parameterization.kind == "utpd"
        assert utpd.parameterization.dim == 4

    def test_problem_fields(self):
        spec = TrialSpec(dim=2, n_generators=5, trial=1, master_seed=3, horizon=12)
        problem = make_trial(spec, kind="sfg", objective="ss")
        assert problem.horizon == 12
        assert problem.objective == "ss"
        assert np.array_equal(problem.system.w, np.zeros(2))
        assert np.array_equal(problem.box.lower, -np.ones(2))
        assert np.array_equal(problem.box.upper, np.ones(2))
        assert problem.parameterization.template.shape == (2, 5)

    def test_distinct_trials_differ(self):
        s0 = TrialSpec(dim=3, n_generators=6, trial=0, master_seed=11)
        s1 = TrialSpec(dim=3, n_generators=6, trial=1, master_seed=11)
        a = make_trial(s0).system.A
        b = make_trial(s1).system.A
        assert not np.array_equal(a, b)

    def test_rejects_unknown_kind(self):
        spec = TrialSpec(dim=2, n_generators=3, trial=0, master_seed=1)
        with pytest.raises(DimensionError):
            make_trial(spec, kind="other")
