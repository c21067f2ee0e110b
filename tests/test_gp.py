import math

import numpy as np
import pytest

from mlbq import gp
from mlbq.gp import (
    SingularGramError,
    _axis_objective,
    _packed_pairs,
    fit_gp,
    fit_hyperparameters,
    gp_posterior_at,
    log_marginal_likelihood,
    mle_amplitude,
    profiled_log_marginal_likelihood,
)
from mlbq.kernels import BrownianMotion, Kernel, Matern, SquaredExponential, gram
from mlbq.oracles import lml_dense

M12 = Kernel.matern(0.5, 1.0)


def gp_sample(kernel, points, seed):
    chol = np.linalg.cholesky(gram(kernel, points) + 1e-12 * np.eye(len(points)))
    return chol @ np.random.default_rng(seed).standard_normal(len(points))


class TestFitGp:
    def test_single_point_weights(self):
        fit = fit_gp(M12, [0.5], [2.0], nugget=0.0)
        assert fit.weights == pytest.approx([2.0])

    def test_zero_centered_data_gives_zero_weights(self):
        fit = fit_gp(M12, [0.1, 0.8], [0.0, 0.0], nugget=0.0)
        assert np.all(fit.weights == 0.0)
        mean, var = gp_posterior_at(fit, 0.4)
        assert mean == 0.0
        assert var > 0.0

    def test_posterior_mean_interpolates(self):
        rng = np.random.default_rng(3)
        w = rng.random((5, 1))
        y = rng.standard_normal(5)
        fit = fit_gp(Kernel.squared_exponential(0.4), w, y, nugget=1e-12)
        mean, _ = gp_posterior_at(fit, w)
        # oracle: direct dense solve
        k = gram(Kernel.squared_exponential(0.4), w) + 1e-12 * np.eye(5)
        direct = gram(Kernel.squared_exponential(0.4), w, w) @ np.linalg.solve(k, y)
        assert np.allclose(mean, y, atol=1e-6)
        assert np.allclose(mean, direct, atol=1e-8)

    def test_weight_vector_reproduces_observations(self):
        # well-separated design so the nugget-induced slack stays small
        rng = np.random.default_rng(4)
        w = (np.linspace(0, 1, 12) + 0.01 * rng.standard_normal(12)).reshape(-1, 1)
        y = rng.standard_normal(12)
        fit = fit_gp(Kernel.matern(2.5, 0.5, amplitude=2.0), w, y, nugget=1e-10)
        reproduced = gram(fit.kernel, w) @ fit.weights
        assert np.max(np.abs(reproduced - y)) < 1e-6 * (1 + np.max(np.abs(y)))

    def test_cholesky_factor_invariant(self):
        # the nugget is relative to the amplitude: chol chol' = K + nugget * amplitude * I
        rng = np.random.default_rng(5)
        w = rng.random((8, 1))
        y = rng.standard_normal(8)
        for amplitude in (4.0, 1e-6):
            kernel = M12.with_amplitude(amplitude)
            fit = fit_gp(kernel, w, y, nugget=1e-10)
            rebuilt = fit.chol @ fit.chol.T
            target = gram(kernel, w) + fit.nugget * amplitude * np.eye(8)
            assert np.max(np.abs(rebuilt - target)) < 1e-8 * amplitude

    def test_nugget_ladder_escalates_on_duplicates(self):
        # duplicated points make the Gram singular; starting from zero
        # jitter the ladder must escalate until the factorization succeeds
        fit = fit_gp(M12, [0.5, 0.5, 0.9], [1.0, 1.0, 2.0], nugget=0.0)
        assert 0.0 < fit.nugget <= 1e-4

    def test_singular_error_reports_final_nugget(self):
        # identical points with contradictory values stay singular in
        # effect, but the ladder still succeeds numerically; force failure
        # with an actually repeated point and a zero-amplitude-like scale.
        with pytest.raises(ValueError):
            fit_gp(M12, [0.1, 0.2], [1.0], nugget=0.0)
        try:
            from mlbq.gp import _chol_with_ladder

            _chol_with_ladder(np.array([[1.0, 1.0], [1.0, 1.0]]), 0.0, 0.0)
        except SingularGramError as exc:
            assert exc.nugget == pytest.approx(1e-4)
        else:
            pytest.fail("expected SingularGramError")

    def test_negative_nugget_rejected(self):
        with pytest.raises(ValueError):
            fit_gp(M12, [0.5], [1.0], nugget=-1e-3)

    def test_zero_amplitude_prior_is_deterministic(self):
        # a fitted kernel on exactly-zero residuals has amplitude 0; the
        # conditioned process is then its mean with zero variance
        dead = Kernel.matern(0.5, 1.0, amplitude=0.0)
        fit = fit_gp(dead, [0.2, 0.8], [0.0, 0.0])
        mean, var = gp_posterior_at(fit, 0.5)
        assert mean == 0.0 and var == 0.0
        with pytest.raises(SingularGramError, match="zero-amplitude"):
            fit_gp(dead, [0.2, 0.8], [0.0, 1.0])


class TestPosterior:
    def test_single_point_posterior_mean(self):
        fit = fit_gp(M12, [0.5], [2.0], nugget=0.0)
        mean, var = gp_posterior_at(fit, 0.7)
        assert mean == pytest.approx(2.0 * math.exp(-0.2), abs=1e-12)
        assert mean == pytest.approx(1.6374615, abs=1e-7)
        assert var == pytest.approx(1.0 - math.exp(-0.4), abs=1e-12)

    def test_training_point_with_zero_nugget(self):
        fit = fit_gp(M12, [0.2, 0.6], [1.0, -1.0], nugget=0.0)
        mean, var = gp_posterior_at(fit, 0.6)
        assert mean == pytest.approx(-1.0, abs=1e-8)
        assert var == pytest.approx(0.0, abs=1e-8)

    def test_prior_recovery_far_from_data(self):
        fit = fit_gp(Kernel.matern(0.5, 1.0, amplitude=2.5), [0.0], [1.0], nugget=0.0)
        _, var = gp_posterior_at(fit, 40.0)
        assert var == pytest.approx(2.5, abs=1e-6)

    def test_variance_bounds(self):
        rng = np.random.default_rng(6)
        w = rng.random((10, 1))
        k = Kernel.squared_exponential(0.3, amplitude=1.8)
        fit = fit_gp(k, w, rng.standard_normal(10))
        _, var = gp_posterior_at(fit, rng.random((50, 1)))
        assert np.all(var >= 0.0)
        assert np.all(var <= 1.8 + 1e-12)

    def test_batch_matches_single_points_brownian(self):
        # the Brownian factor makes the prior variance amplitude * x1 vary per point
        rng = np.random.default_rng(8)
        k = Kernel((BrownianMotion(), Matern(0.5, 0.7)), amplitude=1.3)
        w = rng.random((8, 2))
        fit = fit_gp(k, w, rng.standard_normal(8))
        test_points = rng.random((15, 2))
        mean, var = gp_posterior_at(fit, test_points)
        for i, p in enumerate(test_points):
            m_i, v_i = gp_posterior_at(fit, p)
            assert m_i == pytest.approx(mean[i], rel=1e-12, abs=1e-14)
            assert v_i == pytest.approx(var[i], rel=1e-12, abs=1e-14)
        cross = gram(k, test_points, w)
        big = gram(k, w) + fit.nugget * k.amplitude * np.eye(8)
        dense = 1.3 * test_points[:, 0] - np.einsum("ij,ji->i", cross, np.linalg.solve(big, cross.T))
        assert var == pytest.approx(dense, rel=1e-8, abs=1e-12)

    def test_monotone_conditioning(self):
        # conditioning on one more observation never increases variance
        rng = np.random.default_rng(7)
        w = rng.random((9, 1))
        y = rng.standard_normal(9)
        k = Kernel.matern(2.5, 0.6)
        test_points = rng.random((25, 1))
        _, var_small = gp_posterior_at(fit_gp(k, w[:-1], y[:-1], nugget=1e-10), test_points)
        _, var_big = gp_posterior_at(fit_gp(k, w, y, nugget=1e-10), test_points)
        assert np.all(var_big <= var_small + 1e-8)


class TestMarginalLikelihood:
    def test_unit_case_zero_residual(self):
        assert log_marginal_likelihood(M12, [0.5], [0.0], nugget=0.0) == pytest.approx(
            -0.5 * math.log(2 * math.pi), abs=1e-12
        )

    def test_unit_case_unit_residual(self):
        assert log_marginal_likelihood(M12, [0.5], [1.0], nugget=0.0) == pytest.approx(
            -0.5 - 0.5 * math.log(2 * math.pi), abs=1e-12
        )

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(8)
        w = np.linspace(0, 1, 4).reshape(-1, 1) + 0.01 * rng.standard_normal((4, 1))
        y = rng.standard_normal(4)
        k = Kernel.matern(0.5, 0.5, amplitude=1.4)
        assert log_marginal_likelihood(k, w, y, nugget=1e-10) == pytest.approx(
            lml_dense(k, w, y, nugget=1e-10), abs=1e-8
        )


class TestMleAmplitude:
    def test_zero_data(self):
        assert mle_amplitude(M12, [0.5], [0.0]) == 0.0

    def test_single_point(self):
        assert mle_amplitude(M12, [0.5], [3.0], nugget=0.0) == pytest.approx(3.0)

    def test_maximises_lml_over_grid(self):
        rng = np.random.default_rng(9)
        w = rng.random((6, 1))
        y = rng.standard_normal(6)
        k = Kernel.squared_exponential(0.5)
        sigma = mle_amplitude(k, w, y)
        best = log_marginal_likelihood(k.with_amplitude(sigma**2), w, y)
        for s in np.geomspace(sigma / 10, 10 * sigma, 200):
            assert best >= log_marginal_likelihood(k.with_amplitude(s**2), w, y) - 1e-10

    def test_ignores_carried_amplitude(self):
        rng = np.random.default_rng(10)
        w = rng.random((5, 1))
        y = rng.standard_normal(5)
        assert mle_amplitude(Kernel.matern(0.5, 1.0, amplitude=9.0), w, y) == pytest.approx(
            mle_amplitude(M12, w, y), rel=1e-12
        )


class TestFitHyperparameters:
    def test_flat_objective_tie_breaks_to_geometric_midpoint(self):
        w = np.linspace(0, 1, 6).reshape(-1, 1)
        fitted = fit_hyperparameters(Kernel.squared_exponential(3.0), w, np.zeros(6), bounds=(0.1, 10.0))
        assert fitted.lengthscales[0] == pytest.approx(1.0)
        assert fitted.amplitude == 0.0

    def test_recovers_known_lengthscale(self):
        truth = Kernel.squared_exponential(0.5)
        hits = 0
        for trial in range(50):
            rng = np.random.default_rng(100 + trial)
            w = rng.random((40, 1))
            y = gp_sample(truth, w, 200 + trial)
            fitted = fit_hyperparameters(Kernel.squared_exponential(1.0), w, y, bounds=(0.05, 5.0))
            if 0.25 <= fitted.lengthscales[0] <= 1.0:
                hits += 1
        assert hits >= 45  # spec asks >= 90% of 50 trials

    def test_beats_log_spaced_grid(self):
        rng = np.random.default_rng(11)
        w = rng.random((30, 1))
        y = gp_sample(Kernel.matern(2.5, 0.4), w, 12)
        fitted = fit_hyperparameters(Kernel.matern(2.5, 1.0), w, y, bounds=(0.05, 5.0))
        best = profiled_log_marginal_likelihood(fitted, w, y)
        for g in np.geomspace(0.05, 5.0, 64):
            assert best >= profiled_log_marginal_likelihood(fitted.with_lengthscales(g), w, y) - 1e-6

    def test_amplitude_set_to_closed_form_mle(self):
        rng = np.random.default_rng(12)
        w = rng.random((20, 1))
        y = gp_sample(Kernel.squared_exponential(0.7, amplitude=4.0), w, 13)
        fitted = fit_hyperparameters(Kernel.squared_exponential(1.0), w, y, bounds=(0.05, 5.0))
        sigma = mle_amplitude(fitted, w, y)
        assert fitted.amplitude == pytest.approx(sigma**2, rel=1e-12)

    def test_per_dimension_mode(self):
        truth = Kernel.squared_exponential([0.3, 2.0], dim=2)
        rng = np.random.default_rng(14)
        w = rng.random((45, 2))
        y = gp_sample(truth, w, 15)
        fitted = fit_hyperparameters(
            Kernel.squared_exponential(1.0, dim=2), w, y, bounds=(0.05, 8.0), per_dimension=True
        )
        g1, g2 = fitted.lengthscales
        assert g1 < g2  # anisotropy recovered at least ordinally

    def test_determinism(self):
        rng = np.random.default_rng(16)
        w = rng.random((25, 1))
        y = gp_sample(Kernel.matern(0.5, 0.6), w, 17)
        a = fit_hyperparameters(M12, w, y, bounds=(0.05, 5.0))
        b = fit_hyperparameters(M12, w, y, bounds=(0.05, 5.0))
        assert a.lengthscales == b.lengthscales and a.amplitude == b.amplitude

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            fit_hyperparameters(M12, [[0.1], [0.2]], [1.0, 2.0], bounds=(1.0, 0.5))
        with pytest.raises(ValueError):
            fit_hyperparameters(M12, [[0.1]], [1.0], bounds=(0.1, 1.0))

    def test_level_independence_bit_identical(self):
        # a level's fitted hyperparameters are a pure function of that
        # level's data: replacing or permuting every other level's data
        # leaves the fit bit-identical
        from mlbq.harness import KernelPolicy

        rng = np.random.default_rng(18)
        policy = KernelPolicy(family="matern", smoothness=0.5, policy="fitted", bounds=(0.05, 5.0))
        w0 = rng.random((15, 1))
        y0 = gp_sample(M12, w0, 19)
        w1, y1 = rng.random((9, 1)), rng.standard_normal(9)
        baseline = policy.level_fit(w0, y0, dim=1).kernel
        perm = np.random.default_rng(20).permutation(9)
        for other in [(w1[perm], y1[perm]), (rng.random((30, 1)), rng.standard_normal(30))]:
            policy.level_fit(other[0], other[1], dim=1)  # interleaved fits of other levels
            assert policy.level_fit(w0, y0, dim=1).kernel == baseline


class TestNuggetLadder:
    """``_chol_with_ladder`` reads the lower triangle only and never writes its argument."""

    @staticmethod
    def _lower_with_garbage_above(points, scale):
        # the ladder's callers promise only the lower triangle
        lower = np.tril(gram(Kernel.matern(0.5, 1.0, amplitude=scale), np.reshape(points, (-1, 1))))
        upper = np.triu(np.random.default_rng(26).standard_normal((len(points), len(points))), 1)
        return lower + 1e6 * upper

    @pytest.mark.parametrize("order", ["C", "F"])  # the search passes a Fortran-order work matrix
    @pytest.mark.parametrize(
        "points, scale, nugget",
        [([0.1, 0.35, 0.6, 0.9], 1.0, 0.0), ([0.1, 0.35, 0.6, 0.9], 2.5, 1e-10), ([0.5, 0.5, 0.9], 2.5, 0.0)],
    )
    def test_factor_equals_potrf_of_the_shifted_lower_triangle(self, points, scale, nugget, order):
        from scipy.linalg.lapack import dpotrf

        matrix = np.array(self._lower_with_garbage_above(points, scale), order=order)
        before = matrix.copy()
        chol, used = gp._chol_with_ladder(matrix, scale, nugget)
        assert (used > nugget) == (len(set(points)) < len(points))  # duplicates escalate the ladder
        expected, info = dpotrf(matrix + used * scale * np.eye(len(points)), lower=1, clean=1)
        assert info == 0 and np.array_equal(chol, expected)
        assert matrix.tobytes() == before.tobytes()

    def test_fit_gp_leaves_the_gram_matrix_unwritten(self, monkeypatch):
        seen = []
        ladder = gp._chol_with_ladder

        def recorded(matrix, scale, nugget):
            seen.append((matrix, matrix.tobytes()))
            return ladder(matrix, scale, nugget)

        monkeypatch.setattr(gp, "_chol_with_ladder", recorded)
        fit = fit_gp(M12, [0.5, 0.5, 0.9], [1.0, 1.0, 2.0], nugget=0.0)
        assert fit.nugget > 0.0 and len(seen) == 1
        assert seen[0][0].tobytes() == seen[0][1]

    def test_failed_first_rung_is_not_retried(self, monkeypatch):
        # a duplicate point fails potrf at nugget 0 in place; the ladder goes on at the next rung
        w, y = [0.5, 0.5, 0.9], [1.0, 1.0, 2.0]
        full = gp._chol_with_ladder(gram(M12, np.reshape(w, (-1, 1))), 1.0, 0.0)  # every rung from 0
        calls = _count_cholesky(monkeypatch)
        fit = fit_gp(M12, w, y, nugget=0.0)
        assert calls == [3, 3] and fit.nugget == full[1] == 1e-11
        assert np.array_equal(fit.chol, full[0])

    @pytest.mark.parametrize("nugget", [gp.MAX_NUGGET, 5e-5, 1e-3])
    def test_failed_last_rung_raises_without_another_factor(self, monkeypatch, nugget):
        calls = _count_cholesky(monkeypatch)
        with pytest.raises(SingularGramError, match=f"even with nugget {nugget:g}$") as info:
            gp._factor(lambda: np.asfortranarray(-np.eye(2)), nugget)
        assert calls == [2] and info.value.nugget == nugget


def _with_lengthscale(kernel, axis, g):
    if axis is None:
        return kernel.with_lengthscales(g)
    ls = list(kernel.lengthscales)
    ls[axis] = g
    return kernel.with_lengthscales(ls)


class TestLengthscaleSearch:
    """The search's objective is the public profiled likelihood, bit for bit."""

    @pytest.mark.parametrize(
        "kernel, axis",
        [
            (Kernel.matern(0.5, 0.7), None),
            (Kernel.matern(2.5, 0.7), None),
            (Kernel.squared_exponential(0.7), None),
            (Kernel.matern(2.5, 0.7, dim=2), None),
            (Kernel.squared_exponential([0.4, 1.3], dim=2), 0),
            (Kernel.squared_exponential([0.4, 1.3], dim=2), 1),
            (Kernel((Matern(0.5, 0.3), SquaredExponential(0.8), Matern(2.5, 1.7))), None),
            (Kernel((Matern(0.5, 0.3), SquaredExponential(0.8), Matern(2.5, 1.7))), 0),
            (Kernel((Matern(0.5, 0.3), SquaredExponential(0.8), Matern(2.5, 1.7))), 1),
            (Kernel((Matern(0.5, 0.3), SquaredExponential(0.8), Matern(2.5, 1.7))), 2),
            (Kernel((BrownianMotion(), Matern(0.5, 0.7))), None),
        ],
    )
    def test_objective_equals_profiled_likelihood(self, kernel, axis):
        rng = np.random.default_rng(22)
        w = rng.random((17, kernel.dim))
        y = np.cos(4 * w.sum(axis=1)) + 0.1 * rng.standard_normal(17)
        objective = _axis_objective(kernel, axis, _packed_pairs(w), y.copy(), 1e-10)
        for log_g in list(np.linspace(math.log(0.01), math.log(10.0), 32)) + [-0.37, 1.9]:
            public = profiled_log_marginal_likelihood(_with_lengthscale(kernel, axis, math.exp(log_g)), w, y)
            assert objective(log_g) == public

    def test_objective_identity_through_the_nugget_ladder(self):
        # duplicated points with zero jitter make every Gram singular, so each
        # evaluation escalates the nugget before the factorisation succeeds
        w = np.array([[0.1], [0.1], [0.4], [0.4], [0.8]])
        y = np.array([1.0, 1.0, -0.5, -0.5, 0.3])
        kernel = Kernel.matern(2.5, 1.0)
        assert fit_gp(kernel, w, y, nugget=0.0).nugget > 0.0
        objective = _axis_objective(kernel, None, _packed_pairs(w), y.copy(), 0.0)
        for log_g in np.linspace(math.log(0.01), math.log(10.0), 32):
            public = profiled_log_marginal_likelihood(kernel.with_lengthscales(math.exp(log_g)), w, y, nugget=0.0)
            assert objective(log_g) == public

    def test_reused_work_matrix_keeps_every_value(self):
        # each objective scatters into one work matrix; values must not depend on the call history
        rng = np.random.default_rng(27)
        w = rng.random((19, 2))
        y = np.sin(3 * w[:, 0]) + w[:, 1] ** 2
        kernel = Kernel.matern(2.5, [0.4, 0.9], dim=2)
        objective = _axis_objective(kernel, 0, _packed_pairs(w), y.copy(), 1e-10)
        first, _, again = objective(-0.8), objective(0.6), objective(-0.8)
        assert first == again == profiled_log_marginal_likelihood(_with_lengthscale(kernel, 0, math.exp(-0.8)), w, y)
        grid = [-2.0, -0.3, 1.1]
        alone = [[_axis_objective(kernel, axis, _packed_pairs(w), y.copy(), 1e-10)(g) for g in grid] for axis in (0, 1)]
        first_axis, second_axis = (_axis_objective(kernel, axis, _packed_pairs(w), y.copy(), 1e-10) for axis in (0, 1))
        interleaved = [(first_axis(g), second_axis(g)) for g in grid]
        assert [list(v) for v in zip(*interleaved)] == alone

    def test_failed_in_place_factor_is_scattered_again(self, monkeypatch):
        # a near-duplicate pair: at nugget 0 the squared-exponential Gram matrix
        # factors at short lengthscales and fails potrf at long ones, where the
        # in-place attempt has written part of a factor over the work matrix
        w = np.array([[0.2], [0.2 + 1e-9], [0.6], [0.9]])
        y = np.cos(3 * w[:, 0])
        kernel = Kernel.squared_exponential(1.0)
        grid = np.linspace(math.log(0.01), math.log(10.0), 32)
        short, long = grid[:12], grid[14:26]
        assert all(fit_gp(kernel.with_lengthscales(math.exp(g)), w, y, nugget=0.0).nugget == 0.0 for g in short)
        assert all(fit_gp(kernel.with_lengthscales(math.exp(g)), w, y, nugget=0.0).nugget > 0.0 for g in long)
        laddered = []
        ladder = gp._chol_with_ladder
        monkeypatch.setattr(gp, "_chol_with_ladder", lambda *args: laddered.append(args[0].shape) or ladder(*args))
        objective = _axis_objective(kernel, None, _packed_pairs(w), y.copy(), 0.0)
        alternating = [g for pair in zip(short, long) for g in pair]
        values = [objective(g) for g in alternating]
        assert len(laddered) == len(long)
        monkeypatch.setattr(gp, "_chol_with_ladder", ladder)
        for g, value in zip(alternating, values):
            assert value == profiled_log_marginal_likelihood(kernel.with_lengthscales(math.exp(g)), w, y, nugget=0.0)

    def test_evaluation_peak_memory(self):
        # one evaluation holds the packed triangle's temporaries (n^2/2 doubles
        # each), about 1.5 n^2 doubles; the factor is made in the work matrix
        import tracemalloc

        n = 200
        rng = np.random.default_rng(28)
        w = rng.random((n, 2))
        kernel = Kernel.matern(2.5, 0.7, dim=2)
        objective = _axis_objective(kernel, 0, _packed_pairs(w), np.cos(4 * w.sum(axis=1)), 1e-10)
        objective(-0.5)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            objective(-0.3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 3 * n * n * 8

    def test_fitted_lengthscales_are_fixed_by_the_seed(self):
        # values written by the implementation that called the public
        # likelihood once per lengthscale; the search must reproduce them exactly
        rng = np.random.default_rng(21)
        w = rng.random((30, 2))
        y = np.sin(3 * w[:, 0]) + w[:, 1] ** 2 + 0.05 * rng.standard_normal(30)
        per_axis = fit_hyperparameters(Kernel.matern(2.5, 1.0, dim=2), w, y, bounds=(0.01, 10.0), per_dimension=True)
        assert per_axis.lengthscales == (0.3704734461296856, 0.3260672700174361)
        assert per_axis.amplitude == 0.5014811017938994
        shared = fit_hyperparameters(Kernel.squared_exponential(1.0, dim=2), w, y, bounds=(0.01, 10.0))
        assert shared.lengthscales == (0.29000065924496293, 0.29000065924496293)
        assert shared.amplitude == 0.573546400787508
        one_d = fit_hyperparameters(M12, w[:, :1], y, bounds=(0.01, 10.0))
        assert one_d.lengthscales == (0.05118259637332945,)
        assert one_d.amplitude == 1.1147512804917727


    def test_repeated_axis_search_is_reused(self, monkeypatch):
        # an n = 5 ODE level-2 increment on an LHS design: the second sweep's
        # axis-0 search returns the first's lengthscale, so every later axis
        # search has the inputs of an earlier one and is not run again
        from mlbq.designs import generate_design
        from mlbq.models import OdeHierarchy

        model = OdeHierarchy()
        w = generate_design("lhs", model.measure, 5, seed=np.random.SeedSequence(1)).points
        y = model.increments(2, w)
        axes = []
        search = gp._optimise_axis
        monkeypatch.setattr(gp, "_optimise_axis", lambda *args: axes.append(args[1]) or search(*args))
        fitted = fit_hyperparameters(Kernel.matern(2.5, 1.0, dim=2), w, y, bounds=(0.05, 10.0), per_dimension=True)
        assert axes == [0, 1, 0]
        # written by the implementation that ran all six axis searches
        assert fitted.lengthscales == (9.999612799751663, 1.0613261976859758)
        assert fitted.amplitude == 0.00016100926601522904


def _count_cholesky(monkeypatch):
    calls = []
    original = gp.cholesky

    def counted(matrix, *args, **kwargs):
        calls.append(matrix.shape[0])
        return original(matrix, *args, **kwargs)

    monkeypatch.setattr(gp, "cholesky", counted)
    return calls


class TestOneFactorPerFit:
    def test_fitted_level_factors_once_after_the_search(self, monkeypatch):
        from mlbq.harness import KernelPolicy

        calls = _count_cholesky(monkeypatch)
        in_search = []
        search = gp._optimise_axis

        def counted_search(*args):
            before = len(calls)
            result = search(*args)
            in_search.append(len(calls) - before)
            return result

        monkeypatch.setattr(gp, "_optimise_axis", counted_search)
        rng = np.random.default_rng(23)
        w = rng.random((25, 2))
        y = gp_sample(Kernel.squared_exponential([0.3, 0.9], dim=2), w, 24)
        policy = KernelPolicy(family="se", policy="fitted", bounds=(0.05, 5.0), per_dimension=True)
        fit = policy.level_fit(w, y, dim=2)
        assert len(in_search) == 6 and min(in_search) >= 32
        assert len(calls) == sum(in_search) + 1
        assert fit.kernel == fit_hyperparameters(
            Kernel.squared_exponential(1.0, dim=2), w, y, bounds=(0.05, 5.0), per_dimension=True
        )

    def test_profiled_fit_shares_the_amplitude_factor(self, monkeypatch):
        rng = np.random.default_rng(25)
        w = rng.random((12, 1))
        y = rng.standard_normal(12)
        kernel = Kernel.squared_exponential(0.6)
        sigma = mle_amplitude(kernel, w, y)
        reference = fit_gp(kernel.with_amplitude(sigma * sigma), w, y)
        calls = _count_cholesky(monkeypatch)
        fit = gp._profiled_fit(kernel, w, y)
        assert len(calls) == 1
        assert fit.kernel == reference.kernel
        assert np.allclose(fit.chol, reference.chol, rtol=1e-12, atol=0)
        assert np.allclose(fit.weights, reference.weights, rtol=1e-8, atol=0)


def _ladder_fit(kernel, w, y, nugget):
    """The fit made the copying way: the ladder on a fresh unit Gram matrix, then an out-of-place rescale."""
    from scipy.linalg import cho_solve

    chol, used = gp._chol_with_ladder(gram(kernel.with_amplitude(1.0), w), 1.0, nugget)
    weights = cho_solve((chol, True), np.asarray(y, dtype=float))
    return math.sqrt(kernel.amplitude) * chol, weights / kernel.amplitude, used


class TestInPlaceFit:
    """A fit holds one n x n array, and its values are those of the copying ladder path, bit for bit."""

    KERNELS = [
        Kernel.squared_exponential(0.4),
        Kernel.matern(0.5, 0.4),
        Kernel.matern(2.5, 0.4),
        Kernel.squared_exponential([0.3, 0.8], dim=2),
        Kernel.matern(0.5, 0.6, dim=2),
        Kernel.matern(2.5, [0.5, 0.2], dim=2),
        Kernel((BrownianMotion(), Matern(2.5, 0.7))),
    ]

    @pytest.mark.parametrize("amplitude", [1.0, 4.0])
    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: "-".join(type(f).__name__ for f in k.factors))
    @pytest.mark.parametrize("design, nugget", [("random", 1e-10), ("duplicates", 0.0)])
    def test_fit_equals_the_ladder_path(self, kernel, amplitude, design, nugget):
        rng = np.random.default_rng(31)
        w = rng.random((90, kernel.dim))  # taller than one gram block
        if design == "duplicates":  # singular at nugget 0: the in-place rung fails and the ladder escalates
            w[45:] = w[:45]
        y = np.sin(5 * w.sum(axis=1)) + 0.1 * rng.standard_normal(90)
        w_before, y_before = w.copy(), y.copy()
        kernel = kernel.with_amplitude(amplitude)
        fit = fit_gp(kernel, w, y, nugget=nugget)
        chol, weights, used = _ladder_fit(kernel, w, y, nugget)
        assert (used > nugget) == (design == "duplicates") and fit.nugget == used
        assert np.array_equal(fit.chol, chol) and np.array_equal(fit.weights, weights)
        assert np.array_equal(w, w_before) and np.array_equal(y, y_before)

    @pytest.mark.parametrize("kernel", KERNELS[:3], ids=["se", "m12", "m52"])
    def test_profiled_fit_equals_the_ladder_path(self, kernel):
        rng = np.random.default_rng(32)
        w = rng.random((70, 1))
        y = np.cos(3 * w[:, 0]) + 0.05 * rng.standard_normal(70)
        fit = gp._profiled_fit(kernel, w, y)
        from scipy.linalg.lapack import dtrtrs

        half = dtrtrs(_ladder_fit(kernel.with_amplitude(1.0), w, y, 1e-10)[0], y, lower=1)[0]
        sigma = math.sqrt(float(half @ half) / 70)
        assert fit.kernel.amplitude == sigma * sigma
        chol, weights, _ = _ladder_fit(fit.kernel, w, y, 1e-10)
        assert np.array_equal(fit.chol, chol) and np.array_equal(fit.weights, weights)

    @pytest.mark.parametrize("kernel", [Kernel.squared_exponential(0.5, dim=2), Kernel.matern(2.5, 0.5, dim=2)],
                             ids=["se", "m52"])
    def test_fit_peak_memory(self, kernel):
        # the Gram matrix is the fit's one n x n array; the rest is a block buffer and
        # the finiteness check's booleans (the copying path peaked at 4 and 5 n^2 doubles)
        import tracemalloc

        n = 400
        rng = np.random.default_rng(33)
        w = rng.random((n, 2))
        y = np.cos(4 * w.sum(axis=1))
        kernel = kernel.with_amplitude(4.0)
        fit_gp(kernel, w, y)
        tracemalloc.start()
        try:
            fit_gp(kernel, w, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * n * 8


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_observation_raises(self, bad):
        w = np.linspace(0.1, 0.9, 5).reshape(-1, 1)
        y = np.array([0.3, -0.2, bad, 0.5, 0.1])
        with pytest.raises(ValueError):
            fit_gp(M12, w, y)
        with pytest.raises(ValueError):
            mle_amplitude(M12, w, y)
        with pytest.raises(ValueError):
            fit_hyperparameters(M12, w, y, bounds=(0.05, 5.0))

    def test_nonfinite_point_raises(self):
        w = np.array([[0.1], [math.nan], [0.7]])
        with pytest.raises(ValueError):
            fit_hyperparameters(M12, w, [1.0, 2.0, 3.0], bounds=(0.05, 5.0))

    def test_nan_gram_is_not_searched_over(self):
        # Matern 5/2 at distance 1e200: (1 + s + s^2/3) overflows to inf and
        # exp(-s) underflows to 0, so finite data give a NaN Gram entry
        w = np.array([[0.0], [0.5], [1e200]])
        y = np.array([1.0, -1.0, 0.5])
        kernel = Kernel.matern(2.5, 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(gram(kernel, w)).any()
            with pytest.raises(ValueError):
                fit_hyperparameters(kernel, w, y, bounds=(0.05, 5.0))
            with pytest.raises(ValueError):
                profiled_log_marginal_likelihood(kernel, w, y)
            with pytest.raises(ValueError):
                mle_amplitude(kernel, w, y)
            with pytest.raises(ValueError):
                fit_gp(kernel, w, y)

    def test_vanishing_residual_gives_plus_infinity(self):
        assert profiled_log_marginal_likelihood(M12, [0.2, 0.7], [0.0, 0.0]) == math.inf

    def test_potrf_argument_error_raises(self, monkeypatch):
        monkeypatch.setattr(gp, "dpotrf", lambda matrix, lower, clean, overwrite_a=0: (matrix, -1))
        with pytest.raises(ValueError, match="info -1"):
            gp.cholesky(np.eye(3))
        with pytest.raises(ValueError, match="info -1"):
            fit_gp(M12, [0.2, 0.7], [1.0, 2.0])
