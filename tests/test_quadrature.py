import math

import numpy as np
import pytest
from scipy.integrate import quad

from mlbq import gp, quadrature
from mlbq.designs import generate_design
from mlbq.gp import fit_gp, fit_hyperparameters
from mlbq.kernels import Kernel, ProductMeasure, as_points, gram, initial_error, kernel_mean
from mlbq.models import OdeHierarchy, PoissonHierarchy, StepHierarchy
from mlbq.quadrature import (
    GaussianPosterior,
    LevelData,
    LevelFailure,
    bq_posterior,
    mlbq_estimate,
    mlmc_estimate,
)

U01 = ProductMeasure.uniform(0.0, 1.0)
M12 = Kernel.matern(0.5, 1.0)


def conditioned(levels, kernels, nugget=1e-10):
    """Each level's GP conditioned on its data under the given kernel."""
    return [fit_gp(k, lv.points, lv.values, nugget) for lv, k in zip(levels, kernels)]


class TestLevelData:
    def test_validates_shapes(self):
        with pytest.raises(ValueError, match="points but"):
            LevelData([0.1, 0.2, 0.3], [1.0, 2.0])
        with pytest.raises(ValueError, match="points but"):
            LevelData([[0.1, 0.2], [0.3, 0.4]], [1.0])
        with pytest.raises(ValueError, match="at most 2-d"):
            LevelData(np.zeros((1, 1, 1)), [1.0])

    @pytest.mark.parametrize(
        "points, values, dim",
        [([0.1, 0.2], [1.0], 2), ([0.1, 0.2], [1.0, 2.0], 1), (0.3, [1.0], 1), ([0.3], [1.0], 1),
         ([[0.1, 0.2]], [1.0], 2)],
    )
    def test_reads_points_as_as_points_does(self, points, values, dim):
        # a 1-d array is one point when there is one value (it used to be read as two points on a line), else
        # n points on a line
        assert np.array_equal(LevelData(points, values).points, as_points(points, dim))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="values must be finite"):
            LevelData([0.1], [math.inf])


@pytest.mark.parametrize(
    "read",
    [
        lambda w: gram(M12, w),
        lambda w: kernel_mean(M12, U01, w),
        lambda w: U01.contains(w),
        lambda w: fit_gp(M12, w, [1.0, 2.0, 3.0]),
        lambda w: fit_hyperparameters(M12, w, [1.0, 2.0, 3.0], bounds=(0.05, 5.0)),
        lambda w: LevelData(w, [1.0, 2.0, 3.0]),
        lambda w: PoissonHierarchy().evaluate(0, w),
        lambda w: OdeHierarchy().evaluate(0, np.column_stack([w, w])),
        lambda w: StepHierarchy().evaluate(0, w),
    ],
    ids=["gram", "kernel_mean", "contains", "fit_gp", "fit_hyperparameters", "LevelData", "poisson-evaluate",
         "ode-evaluate", "step-evaluate"],
)
def test_a_non_finite_point_is_refused_wherever_it_enters(read):
    # as_points is the one reader of a point set: the messages used to differ, contains returned False and
    # Poisson evaluate returned NaN
    with pytest.raises(ValueError, match="points must be finite"):
        read(np.array([0.1, math.nan, 0.7]))


class TestGaussianPosterior:
    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            GaussianPosterior(0.0, -1.0, (0.0,), (-1.0,))

    def test_credible_interval_is_central(self):
        post = GaussianPosterior(2.0, 4.0, (2.0,), (4.0,))
        lo, hi = post.credible_interval(0.95)
        assert lo == pytest.approx(2.0 - 1.959963984540054 * 2.0, abs=1e-12)
        assert hi == pytest.approx(2.0 + 1.959963984540054 * 2.0, abs=1e-12)

    def test_credible_quantile_and_interval_are_python_floats(self):
        # ndtri returns np.float64, whose repr made the README quick start print np.float64(...)
        z = quadrature.credible_z(0.95)
        bounds = GaussianPosterior(2.0, 4.0, (2.0,), (4.0,)).credible_interval(0.95)
        assert type(z) is float and z == 1.959963984540054
        assert [type(b) for b in bounds] == [float, float]

    @pytest.mark.parametrize("level", [-0.2, 0.0, 1.0, 1.5])
    def test_credible_interval_rejects_levels_outside_zero_one(self, level):
        # -0.2 gave (1.127, 0.873), a lower bound above the upper one, and 1.5 gave NaN bounds
        post = GaussianPosterior(1.0, 0.25, (1.0,), (0.25,))
        with pytest.raises(ValueError, match=r"credible level must lie in \(0, 1\)"):
            post.credible_interval(level)


class TestMonteCarlo:
    def test_mc_mean(self):
        # plain MC is MLMC on one level
        values = np.random.default_rng(20).standard_normal(7)
        assert mlmc_estimate([LevelData(np.linspace(0.0, 1.0, 7), values)]) == float(np.mean(values))

    def test_mlmc_single_level(self):
        assert mlmc_estimate([LevelData([0.1, 0.9], [1.0, 3.0])]) == 2.0

    def test_mlmc_two_levels(self):
        levels = [LevelData([0.1, 0.9], [1.0, 3.0]), LevelData([0.5], [0.5])]
        assert mlmc_estimate(levels) == 2.5

    def test_mlmc_level_overflow_is_a_level_failure(self):
        # the sum inside this mean overflows: it used to warn and return inf, or raise a bare RuntimeWarning
        with pytest.raises(LevelFailure, match="level 0: overflow"):
            mlmc_estimate([LevelData([0.1, 0.9], [1e308, 1e308])])

    def test_mlmc_total_overflow_is_a_level_failure(self):
        # each level's mean is finite and the sum of the two is not: it used to raise a bare RuntimeWarning
        # (overflow encountered in scalar add) under an error filter, and to return inf otherwise
        levels = [LevelData([0.5], [1e308]), LevelData([0.5], [1e308]), LevelData([0.5], [-1e308])]
        with pytest.raises(LevelFailure, match="level 1: overflow") as failure:
            mlmc_estimate(levels)
        assert failure.value.level == 1

    def test_mlmc_empty(self):
        with pytest.raises(ValueError):
            mlmc_estimate([])

    def test_mlmc_error_exceeds_grid_mlbq_at_equal_sample_sizes(self):
        # 100 seeded IID replications against the deterministic grid-design
        # GP route with the same per-level sample sizes
        model = PoissonHierarchy()
        ref = model.reference_integral()
        counts = (67, 11, 2)
        fits = []
        for level, n in enumerate(counts):
            w = generate_design("grid", U01, n).points
            fits.append(fit_hyperparameters(M12, w, model.increments(level, w[:, 0]), bounds=(0.01, 10.0)))
        grid_error = abs(mlbq_estimate(fits, U01).mean - ref)
        mc_errors = []
        for rep in range(100):
            data = []
            for level, n in enumerate(counts):
                w = generate_design("iid", U01, n, seed=3571 * rep + level).points
                data.append(LevelData(w, model.increments(level, w[:, 0])))
            mc_errors.append(abs(mlmc_estimate(data) - ref))
        assert float(np.mean(mc_errors)) > grid_error

    def test_mlmc_unbiased_2000_replications(self):
        # cheap testbed: step hierarchy, exact reference 5
        model = StepHierarchy()
        ref = model.reference_integral()
        rng = np.random.default_rng(21)
        estimates = []
        for _ in range(2000):
            est = 0.0
            for level, n in enumerate((8, 4, 2)):
                w = model.measure.marginals[0].a + 10.0 * rng.random(n)
                est += model.increments(level, w).mean()
            estimates.append(est)
        estimates = np.asarray(estimates)
        se = estimates.std(ddof=1) / math.sqrt(len(estimates))
        assert abs(estimates.mean() - ref) <= 4 * se


class TestBqPosterior:
    def test_one_point_example(self):
        fit = fit_gp(M12, [0.5], [1.0], nugget=0.0)
        post = bq_posterior(fit, U01)
        km = 2.0 - 2.0 * math.exp(-0.5)
        assert post.mean == pytest.approx(km, abs=1e-12)
        assert post.variance == pytest.approx(2.0 * math.exp(-1.0) - km**2, abs=1e-12)
        assert post.mean == pytest.approx(0.7869387, abs=1e-7)
        assert post.variance == pytest.approx(0.1164864, abs=1e-7)

    def test_zero_data_returns_prior(self):
        fit = fit_gp(M12, [0.3, 0.9], [0.0, 0.0], nugget=0.0)
        post = bq_posterior(fit, U01)
        assert np.all(fit.weights == 0.0)
        assert post.mean == 0.0
        assert post.variance > 0.0

    def test_variance_below_initial_error(self):
        rng = np.random.default_rng(22)
        k = Kernel.squared_exponential(0.5, amplitude=2.0)
        fit = fit_gp(k, rng.random((12, 1)), rng.standard_normal(12))
        post = bq_posterior(fit, U01)
        assert 0.0 <= post.variance <= initial_error(k, U01)

    def test_exactness_on_kernel_span(self):
        # integrating g = sum alpha_j c(., w_j) from its own samples is exact
        rng = np.random.default_rng(23)
        k = Kernel.matern(2.5, 0.7, amplitude=1.3)
        w = np.sort(rng.random(7)).reshape(-1, 1)
        alpha = rng.standard_normal(7)
        values = gram(k, w) @ alpha
        fit = fit_gp(k, w, values, nugget=1e-13)
        post = bq_posterior(fit, U01)
        truth = float(np.atleast_1d(kernel_mean(k, U01, w)) @ alpha)
        assert post.mean == pytest.approx(truth, abs=1e-8)

    def test_three_sigma_coverage_on_smooth_integrands(self):
        # random cosine polynomials, quadrature-oracle truth, 30-point grid
        w = generate_design("grid", U01, 30).points
        hits = 0
        for trial in range(100):
            rng = np.random.default_rng(500 + trial)
            coeffs = rng.standard_normal(6) / (1 + np.arange(6)) ** 2
            y = sum(c * np.cos((j + 1) * np.pi * w[:, 0]) for j, c in enumerate(coeffs))
            post = bq_posterior(fit_hyperparameters(Kernel.squared_exponential(0.5), w, y, bounds=(0.05, 5.0)), U01)
            truth = sum(c * quad(lambda x, jj=j: np.cos((jj + 1) * np.pi * x), 0, 1)[0] for j, c in enumerate(coeffs))
            if abs(post.mean - truth) <= 3.0 * post.std + 1e-14:
                hits += 1
        assert hits >= 95

    def test_roundoff_negative_variance_reads_zero(self):
        # SE gamma = 1 on a 12-point grid at zero nugget: Pi[Pi[c]] - Pi[c] K^-1 Pi[c] is -2.2e-16 in floating point
        k = Kernel.squared_exponential(1.0)
        fit = fit_gp(k, np.linspace(0, 1, 12), np.zeros(12), nugget=0.0)
        raw = initial_error(k, U01) - gp._quad_form(fit.chol, kernel_mean(k, U01, fit.points))
        assert -1e-10 < raw < 0.0
        assert bq_posterior(fit, U01).variance == 0.0

    def test_support_violation(self):
        fit = fit_gp(M12, [1.4], [1.0])
        with pytest.raises(ValueError, match="support"):
            bq_posterior(fit, U01)


class TestMlbq:
    def test_single_level_reduces_to_bq_bit_for_bit(self):
        fit = fit_gp(M12, [0.2, 0.5, 0.9], [1.0, -0.3, 0.4])
        assert mlbq_estimate([fit], U01) == bq_posterior(fit, U01)

    def test_exactly_zero_level_with_fitted_kernel_contributes_nothing(self):
        # increments of the finite-element family vanish at both interval
        # endpoints, so a 2-point closed grid observes exactly zero data;
        # the fitted (zero-amplitude) level must contribute (0, 0) cleanly
        model = PoissonHierarchy()
        w = generate_design("grid", U01, 2).points
        y = model.increments(2, w[:, 0])
        assert np.all(y == 0.0)
        fit = fit_hyperparameters(M12, w, y, bounds=(0.01, 10.0))
        assert fit.kernel.amplitude == 0.0
        post = mlbq_estimate([fit], U01)
        assert post.mean == 0.0 and post.variance == 0.0

    def test_zero_second_level_contributes_only_variance(self):
        l0 = LevelData([0.5], [1.0])
        l1 = LevelData([0.25, 0.75], [0.0, 0.0])
        single = mlbq_estimate(conditioned([l0], [M12], nugget=0.0), U01)
        double = mlbq_estimate(conditioned([l0, l1], [M12, M12], nugget=0.0), U01)
        assert double.mean == single.mean
        assert double.level_means[1] == 0.0
        assert double.level_variances[1] > 0.0

    def test_decomposition_identity(self):
        rng = np.random.default_rng(24)
        levels, kernels, mean_sum, var_sum = [], [], 0.0, 0.0
        for i, k in enumerate(
            [Kernel.matern(0.5, 0.8, amplitude=1.5), Kernel.squared_exponential(0.4), Kernel.matern(2.5, 1.2, amplitude=0.2)]
        ):
            w = rng.random((6 + i, 1))
            y = rng.standard_normal(6 + i)
            levels.append(LevelData(w, y))
            kernels.append(k)
            post = bq_posterior(fit_gp(k, w, y, nugget=1e-10), U01)
            mean_sum += post.mean
            var_sum += post.variance
        multi = mlbq_estimate(conditioned(levels, kernels), U01)
        assert multi.mean == pytest.approx(mean_sum, rel=1e-12)
        assert multi.variance == pytest.approx(var_sum, rel=1e-12)
        assert sum(multi.level_means) == multi.mean
        assert sum(multi.level_variances) == multi.variance

    def test_poisson_testbed_grid_accuracy(self):
        # grid sizes from the largest-budget experiment row; the threshold
        # was validated against the exact piecewise-linear integral oracle
        model = PoissonHierarchy()
        ref = model.reference_integral()
        fits = []
        for level, n in enumerate((153, 60, 10)):
            w = generate_design("grid", U01, n).points
            fits.append(fit_hyperparameters(M12, w, model.increments(level, w[:, 0]), bounds=(0.01, 10.0)))
        post = mlbq_estimate(fits, U01)
        assert abs(post.mean - ref) < 1e-3

    def test_adding_points_never_increases_total_variance(self):
        model = PoissonHierarchy()
        def posterior(n_top):
            levels, kernels = [], []
            for level, n in enumerate((20, 10, n_top)):
                w = generate_design("grid", U01, n).points
                y = model.increments(level, w[:, 0])
                levels.append(LevelData(w, y))
                kernels.append(Kernel.matern(0.5, 1.0, amplitude=0.5))
            return mlbq_estimate(conditioned(levels, kernels), U01)
        assert posterior(9).variance <= posterior(5).variance + 1e-8 * 0.5

    def test_level_failure_tagged(self):
        # the failing fit's list position is its level
        fits = [fit_gp(M12, [0.5], [1.0]), fit_gp(M12, [2.5], [1.0])]
        with pytest.raises(LevelFailure, match="level 1: points fall outside") as failure:
            mlbq_estimate(fits, U01)
        assert failure.value.level == 1

    def test_total_overflow_is_a_level_failure(self):
        # two levels with finite posterior means of 1.068e308 each: the sum used to come back as mean=inf
        fit = fit_gp(Kernel.matern(2.5, 0.3), [0.5], [1.7e308])
        assert math.isfinite(bq_posterior(fit, U01).mean)
        with pytest.raises(LevelFailure, match="level 1: overflow") as failure:
            mlbq_estimate([fit, fit, fit_gp(M12, [0.5], [1.0])], U01)
        assert failure.value.level == 1

    def test_nan_kernel_mean_is_a_level_failure(self, monkeypatch):
        # a non-finite embedding never reaches a posterior: its NaN variance is refused, as the finiteness check of
        # the solve used to refuse the embedding
        real = quadrature.kernel_mean

        def nan_at_the_second_point(kernel, measure, points):
            embedding = real(kernel, measure, points)
            embedding[1:2] = np.nan
            return embedding

        monkeypatch.setattr(quadrature, "kernel_mean", nan_at_the_second_point)
        fit = fit_gp(M12, [0.2, 0.5, 0.9], [1.0, -0.3, 0.4])
        with pytest.raises(FloatingPointError, match="BQ variance nan below the clamp window or not a number"):
            bq_posterior(fit, U01)
        with pytest.raises(LevelFailure, match="level 1: BQ variance nan") as failure:
            mlbq_estimate([fit_gp(M12, [0.5], [1.0]), fit], U01)
        assert failure.value.level == 1

    def test_factors_nothing(self, monkeypatch):
        # the fits arrive conditioned: combining them makes no Cholesky factorisation
        rng = np.random.default_rng(27)
        fits = [fit_gp(M12, rng.random((5 - i, 1)), rng.standard_normal(5 - i)) for i in range(3)]
        calls = []
        original = gp.cholesky
        monkeypatch.setattr(gp, "cholesky", lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs))
        mlbq_estimate(fits, U01)
        assert calls == []
