import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from mlbq import gp
from mlbq.gp import (
    SingularGramError,
    _axis_objective,
    _packed_pairs,
    fit_gp,
    fit_hyperparameters,
    mle_amplitude,
    profiled_log_marginal_likelihood,
)
from mlbq.kernels import BrownianMotion, Kernel, Matern, ProductMeasure, SquaredExponential, gram
from mlbq.quadrature import bq_posterior

from reference_oracles import lml_dense

M12 = Kernel.matern(0.5, 1.0)
U01 = ProductMeasure.uniform(0.0, 1.0)


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
        post = bq_posterior(fit, U01)
        assert post.mean == 0.0
        assert post.variance > 0.0

    def test_posterior_mean_interpolates(self):
        rng = np.random.default_rng(3)
        w = rng.random((5, 1))
        y = rng.standard_normal(5)
        kernel = Kernel.squared_exponential(0.4)
        fit = fit_gp(kernel, w, y, nugget=1e-12)
        mean = gram(kernel, w) @ fit.weights  # the posterior mean at the data
        # oracle: direct dense solve
        direct = gram(kernel, w) @ np.linalg.solve(gram(kernel, w) + 1e-12 * np.eye(5), y)
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
        # at every rung with an indefinite fill (eigenvalues 3 and -1).
        with pytest.raises(ValueError):
            fit_gp(M12, [0.1, 0.2], [1.0], nugget=0.0)
        try:
            gp._factor(lambda: np.array([[1.0, 2.0], [2.0, 1.0]], order="F"), 0.0)
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
        assert np.all(fit.weights == 0.0)
        post = bq_posterior(fit, U01)
        assert post.mean == 0.0 and post.variance == 0.0
        with pytest.raises(SingularGramError, match="zero-amplitude"):
            fit_gp(dead, [0.2, 0.8], [0.0, 1.0])

    def test_monotone_conditioning(self):
        # conditioning on one more observation never increases the integral's variance
        rng = np.random.default_rng(7)
        w = rng.random((9, 1))
        y = rng.standard_normal(9)
        k = Kernel.matern(2.5, 0.6)
        variances = [bq_posterior(fit_gp(k, w[:n], y[:n], nugget=1e-10), U01).variance for n in range(1, 10)]
        assert all(big <= small + 1e-12 * k.amplitude for small, big in zip(variances, variances[1:]))
        assert variances[-1] < 0.01 * variances[0]


class TestMarginalLikelihood:
    def test_unit_case_zero_residual(self):
        assert lml_dense(M12, [0.5], [0.0], nugget=0.0) == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_unit_case_unit_residual(self):
        assert lml_dense(M12, [0.5], [1.0], nugget=0.0) == pytest.approx(
            -0.5 - 0.5 * math.log(2 * math.pi), abs=1e-12
        )

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(8)
        w = np.linspace(0, 1, 4).reshape(-1, 1) + 0.01 * rng.standard_normal((4, 1))
        y = rng.standard_normal(4)
        k = Kernel.matern(0.5, 0.5, amplitude=1.4)
        sigma = mle_amplitude(k, w, y)
        assert profiled_log_marginal_likelihood(k, w, y) == pytest.approx(
            lml_dense(k.with_amplitude(sigma**2), w, y, nugget=1e-10), abs=1e-8
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
        best = lml_dense(k.with_amplitude(sigma**2), w, y)
        for s in np.geomspace(sigma / 10, 10 * sigma, 200):
            assert best >= lml_dense(k.with_amplitude(s**2), w, y) - 1e-10

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
        fitted = fit_hyperparameters(Kernel.squared_exponential(3.0), w, np.zeros(6), bounds=(0.1, 10.0)).kernel
        assert fitted.lengthscales[0] == pytest.approx(1.0)
        assert fitted.amplitude == 0.0

    def test_recovers_known_lengthscale(self):
        truth = Kernel.squared_exponential(0.5)
        hits = 0
        for trial in range(50):
            rng = np.random.default_rng(100 + trial)
            w = rng.random((40, 1))
            y = gp_sample(truth, w, 200 + trial)
            fitted = fit_hyperparameters(Kernel.squared_exponential(1.0), w, y, bounds=(0.05, 5.0)).kernel
            if 0.25 <= fitted.lengthscales[0] <= 1.0:
                hits += 1
        assert hits >= 45  # spec asks >= 90% of 50 trials

    def test_beats_log_spaced_grid(self):
        rng = np.random.default_rng(11)
        w = rng.random((30, 1))
        y = gp_sample(Kernel.matern(2.5, 0.4), w, 12)
        fitted = fit_hyperparameters(Kernel.matern(2.5, 1.0), w, y, bounds=(0.05, 5.0)).kernel
        best = profiled_log_marginal_likelihood(fitted, w, y)
        for g in np.geomspace(0.05, 5.0, 64):
            assert best >= profiled_log_marginal_likelihood(fitted.with_lengthscales(g), w, y) - 1e-6

    def test_amplitude_set_to_closed_form_mle(self):
        rng = np.random.default_rng(12)
        w = rng.random((20, 1))
        y = gp_sample(Kernel.squared_exponential(0.7, amplitude=4.0), w, 13)
        fitted = fit_hyperparameters(Kernel.squared_exponential(1.0), w, y, bounds=(0.05, 5.0)).kernel
        sigma = mle_amplitude(fitted, w, y)
        assert fitted.amplitude == pytest.approx(sigma**2, rel=1e-12)

    def test_per_dimension_mode(self):
        truth = Kernel.squared_exponential([0.3, 2.0], dim=2)
        rng = np.random.default_rng(14)
        w = rng.random((45, 2))
        y = gp_sample(truth, w, 15)
        fitted = fit_hyperparameters(
            Kernel.squared_exponential(1.0, dim=2), w, y, bounds=(0.05, 8.0), per_dimension=True
        ).kernel
        g1, g2 = fitted.lengthscales
        assert g1 < g2  # anisotropy recovered at least ordinally

    def test_determinism(self):
        rng = np.random.default_rng(16)
        w = rng.random((25, 1))
        y = gp_sample(Kernel.matern(0.5, 0.6), w, 17)
        a = fit_hyperparameters(M12, w, y, bounds=(0.05, 5.0)).kernel
        b = fit_hyperparameters(M12, w, y, bounds=(0.05, 5.0)).kernel
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


def _potrf_ladder(matrix, nugget):
    """The ladder the test's way: potrf of ``matrix + rung * I`` at each rung; (factor, rung, rungs tried)."""
    from scipy.linalg.lapack import dpotrf

    current, rungs = nugget, 1
    while True:
        chol, info = dpotrf(matrix + current * np.eye(len(matrix)), lower=1, clean=1)
        if info == 0:
            return chol, current, rungs
        current, rungs = max(current, 1e-12) * 10.0, rungs + 1
        assert current <= gp.MAX_NUGGET


class TestNuggetLadder:
    """``_factor``, the one ladder, reads the lower triangle only and refills its matrix at each rung."""

    @staticmethod
    def _lower_with_garbage_above(points, amplitude):
        # the ladder's callers promise only the lower triangle
        lower = np.tril(gram(Kernel.matern(0.5, 1.0, amplitude=amplitude), np.reshape(points, (-1, 1))))
        upper = np.triu(np.random.default_rng(26).standard_normal((len(points), len(points))), 1)
        return lower + 1e6 * upper

    @pytest.mark.parametrize("order", ["C", "F"])  # the search passes a Fortran-order work matrix
    @pytest.mark.parametrize(
        "points, amplitude, nugget",
        [([0.1, 0.35, 0.6, 0.9], 1.0, 0.0), ([0.1, 0.35, 0.6, 0.9], 2.5, 1e-10), ([0.5, 0.5, 0.9], 2.5, 0.0)],
    )
    def test_factor_equals_potrf_of_the_shifted_lower_triangle(self, points, amplitude, nugget, order):
        from scipy.linalg.lapack import dpotrf

        matrix = np.array(self._lower_with_garbage_above(points, amplitude), order=order)
        before = matrix.copy()
        chol, used = gp._factor(lambda: np.array(matrix, order=order), nugget)
        assert (used > nugget) == (len(set(points)) < len(points))  # duplicates escalate the ladder
        expected, info = dpotrf(matrix + used * np.eye(len(points)), lower=1, clean=1)
        assert info == 0 and np.array_equal(chol, expected)
        assert matrix.tobytes() == before.tobytes()

    def test_failed_first_rung_is_not_retried(self, monkeypatch):
        # a duplicate point fails potrf at nugget 0 in place; the ladder goes on at the next rung
        w, y = [0.5, 0.5, 0.9], [1.0, 1.0, 2.0]
        full = _potrf_ladder(gram(M12, np.reshape(w, (-1, 1))), 0.0)  # every rung from 0
        calls = _count_cholesky(monkeypatch)
        fit = fit_gp(M12, w, y, nugget=0.0)
        assert calls == [3, 3] and fit.nugget == full[1] == 1e-11 and full[2] == 2
        assert np.array_equal(fit.chol, full[0])

    @pytest.mark.parametrize("nugget", [gp.MAX_NUGGET, 5e-5, 1e-3])
    def test_failed_last_rung_raises_without_another_factor(self, monkeypatch, nugget):
        calls = _count_cholesky(monkeypatch)
        with pytest.raises(SingularGramError, match=f"even with nugget {nugget:g}$") as info:
            gp._factor(lambda: np.asfortranarray(-np.eye(2)), nugget)
        assert calls == [2] and info.value.nugget == nugget


def _with_lengthscale(kernel, axes, g):
    return kernel.with_lengthscales([g if j in axes else l for j, l in enumerate(kernel.lengthscales)])


THREE = Kernel((Matern(0.5, 0.3), SquaredExponential(0.8), Matern(2.5, 1.7)))
OBJECTIVE_CASES = [
    (Kernel.matern(0.5, 0.7), (0,)),
    (Kernel.matern(2.5, 0.7), (0,)),
    (Kernel.squared_exponential(0.7), (0,)),
    (Kernel.matern(2.5, 0.7, dim=2), (0, 1)),
    (Kernel.squared_exponential([0.4, 1.3], dim=2), (0,)),
    (Kernel.squared_exponential([0.4, 1.3], dim=2), (1,)),
    (THREE, (0, 1, 2)),
    (THREE, (0,)),
    (THREE, (1,)),
    (THREE, (2,)),
    (Kernel((BrownianMotion(), Matern(0.5, 0.7))), (0, 1)),
]


class TestLengthscaleSearch:
    """The search's objective is the public profiled likelihood, bit for bit."""

    @pytest.mark.parametrize(
        "kernel, axes", OBJECTIVE_CASES,
        # tied searches (every axis) keep the id "None" they had when None meant tied
        ids=[f"kernel{i}-{None if len(axes) == k.dim else axes[0]}" for i, (k, axes) in enumerate(OBJECTIVE_CASES)],
    )
    def test_objective_equals_profiled_likelihood(self, kernel, axes):
        rng = np.random.default_rng(22)
        w = rng.random((17, kernel.dim))
        y = np.cos(4 * w.sum(axis=1)) + 0.1 * rng.standard_normal(17)
        objective = _axis_objective(kernel, axes, _packed_pairs(w), y.copy(), 1e-10)
        for log_g in list(np.linspace(math.log(0.01), math.log(10.0), 32)) + [-0.37, 1.9]:
            public = profiled_log_marginal_likelihood(_with_lengthscale(kernel, axes, math.exp(log_g)), w, y)
            assert objective(log_g) == public

    def test_objective_identity_through_the_nugget_ladder(self):
        # duplicated points with zero jitter make every Gram singular, so each
        # evaluation escalates the nugget before the factorisation succeeds
        w = np.array([[0.1], [0.1], [0.4], [0.4], [0.8]])
        y = np.array([1.0, 1.0, -0.5, -0.5, 0.3])
        kernel = Kernel.matern(2.5, 1.0)
        assert fit_gp(kernel, w, y, nugget=0.0).nugget > 0.0
        objective = _axis_objective(kernel, (0,), _packed_pairs(w), y.copy(), 0.0)
        for log_g in np.linspace(math.log(0.01), math.log(10.0), 32):
            public = profiled_log_marginal_likelihood(kernel.with_lengthscales(math.exp(log_g)), w, y, nugget=0.0)
            assert objective(log_g) == public

    def test_reused_work_matrix_keeps_every_value(self):
        # each objective scatters into one work matrix; values must not depend on the call history
        rng = np.random.default_rng(27)
        w = rng.random((19, 2))
        y = np.sin(3 * w[:, 0]) + w[:, 1] ** 2
        kernel = Kernel.matern(2.5, [0.4, 0.9], dim=2)
        objective = _axis_objective(kernel, (0,), _packed_pairs(w), y.copy(), 1e-10)
        first, _, again = objective(-0.8), objective(0.6), objective(-0.8)
        assert first == again == profiled_log_marginal_likelihood(_with_lengthscale(kernel, (0,), math.exp(-0.8)), w, y)
        grid = [-2.0, -0.3, 1.1]
        searches = [(0,), (1,)]
        alone = [[_axis_objective(kernel, axes, _packed_pairs(w), y.copy(), 1e-10)(g) for g in grid]
                 for axes in searches]
        first_axis, second_axis = (_axis_objective(kernel, axes, _packed_pairs(w), y.copy(), 1e-10)
                                   for axes in searches)
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
        fills = []
        factor = gp._factor
        monkeypatch.setattr(gp, "_factor", lambda fill, *args: factor(lambda: fills.append(1) or fill(), *args))
        objective = _axis_objective(kernel, (0,), _packed_pairs(w), y.copy(), 0.0)
        alternating = [g for pair in zip(short, long) for g in pair]
        values, per_evaluation = [], []
        for g in alternating:
            fills.clear()
            values.append(objective(g))
            per_evaluation.append(len(fills))
        rungs = [_potrf_ladder(gram(kernel.with_lengthscales(math.exp(g)), w), 0.0)[2] for g in alternating]
        assert per_evaluation == rungs and rungs[::2] == [1] * len(short) and min(rungs[1::2]) >= 2
        monkeypatch.setattr(gp, "_factor", factor)
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
        objective = _axis_objective(kernel, (0,), _packed_pairs(w), np.cos(4 * w.sum(axis=1)), 1e-10)
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
        kernel = Kernel.matern(2.5, 1.0, dim=2)
        per_axis = fit_hyperparameters(kernel, w, y, bounds=(0.01, 10.0), per_dimension=True).kernel
        assert per_axis.lengthscales == (0.3704734461296856, 0.3260672700174361)
        assert per_axis.amplitude == 0.5014811017938994
        shared = fit_hyperparameters(Kernel.squared_exponential(1.0, dim=2), w, y, bounds=(0.01, 10.0)).kernel
        assert shared.lengthscales == (0.29000065924496293, 0.29000065924496293)
        assert shared.amplitude == 0.573546400787508
        one_d = fit_hyperparameters(M12, w[:, :1], y, bounds=(0.01, 10.0)).kernel
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
        kernel = Kernel.matern(2.5, 1.0, dim=2)
        fitted = fit_hyperparameters(kernel, w, y, bounds=(0.05, 10.0), per_dimension=True).kernel
        assert axes == [(0,), (1,), (0,)]
        # written by the implementation that ran all six axis searches
        assert fitted.lengthscales == (9.999612799751663, 1.0613261976859758)
        assert fitted.amplitude == 0.00016100926601522904


ODE_MATERN_LHS = Path(__file__).resolve().parents[1] / "perfbench" / "ode_matern_lhs.json"


def _rescan_lengthscales(kernel, points, y, bounds, per_dimension=False, nugget=1e-10):
    """The search that scans the whole grid on every axis search, in every sweep."""
    lo, hi = float(bounds[0]), float(bounds[1])
    w, resid = gp._data(kernel, points, y)
    fitted = kernel.with_lengthscales(math.sqrt(lo * hi))
    if np.max(np.abs(resid)) == 0.0:
        return fitted
    per_axis = per_dimension and kernel.dim > 1
    packed = _packed_pairs(w)
    grid = np.linspace(math.log(lo), math.log(hi), gp.GRID_SIZE)
    for _ in range(gp.SWEEPS if per_axis else 1):
        for axes in [(j,) for j in range(kernel.dim)] if per_axis else [tuple(range(kernel.dim))]:
            objective = _axis_objective(fitted, axes, packed, resid, nugget)
            best = int(np.argmax([objective(g) for g in grid]))
            left, right = grid[max(best - 1, 0)], grid[min(best + 1, gp.GRID_SIZE - 1)]
            fitted = _with_lengthscale(fitted, axes, math.exp(gp._golden_max(objective, left, right)))
    return fitted


def _grid_profile(monkeypatch, values):
    """Make every axis objective the piecewise-linear profile through ``values``; the grid and the calls it sees."""
    grid = np.linspace(math.log(0.05), math.log(10.0), gp.GRID_SIZE)
    calls = []

    def objective(log_g):
        calls.append(log_g)
        return float(np.interp(log_g, grid, values))

    monkeypatch.setattr(gp, "_axis_objective", lambda *args: objective)
    return grid.tolist(), calls


def _climb(start):
    """The grid peak of one axis search started at ``start``, on the profile :func:`_grid_profile` set."""
    kernel = Kernel.matern(2.5, 1.0, dim=2)
    return gp._optimise_axis(kernel, (0,), None, None, (0.05, 10.0), 1e-10, start)[1]


class TestGridClimb:
    """Later sweeps climb the grid from each axis's last peak; the fits stay those of a full rescan."""

    def test_level_fits_equal_the_full_rescan(self, monkeypatch):
        # every level fit of 4 replications of the benchmark's fitted Matern-5/2 LHS config
        from mlbq import harness

        fits = []
        search = harness._fit_lengthscales

        def recorded(kernel, points, y, bounds, per_dimension=False):
            fitted = search(kernel, points, y, bounds, per_dimension=per_dimension)
            fits.append((fitted, _rescan_lengthscales(kernel, points, y, bounds, per_dimension)))
            return fitted

        monkeypatch.setattr(harness, "_fit_lengthscales", recorded)
        harness.run_experiment(dataclasses.replace(harness.load_config(ODE_MATERN_LHS), replications=4))
        assert len(fits) == 16
        assert all(climbed == rescanned for climbed, rescanned in fits)

    def test_tie_between_the_neighbours_goes_left(self, monkeypatch):
        # peaks of equal height at 12 and 18, and both neighbours of 15 beat it by the same amount
        _grid_profile(monkeypatch, [-abs(abs(i - 15) - 3.0) for i in range(gp.GRID_SIZE)])
        assert _climb(15) == 12

    def test_neighbour_that_only_equals_the_point_does_not_move_it(self, monkeypatch):
        _grid_profile(monkeypatch, [0.0] * gp.GRID_SIZE)
        assert _climb(9) == 9

    @pytest.mark.parametrize("start", [0, gp.GRID_SIZE - 1])
    def test_edge_peak_scans_the_whole_grid(self, monkeypatch, start):
        # both edges are local peaks, so a climb from either would stop at once; the scan finds 20
        values = [-abs(i - 20.0) for i in range(gp.GRID_SIZE)]
        values[0] = values[-1] = -5.0
        grid, calls = _grid_profile(monkeypatch, values)
        assert _climb(start) == 20
        assert set(grid) <= set(calls)

    @pytest.mark.parametrize(
        "start, peak, evaluated",
        [
            (5, 20, range(4, 22)),
            (25, 20, range(19, 26)),
            (20, 20, range(19, 22)),
            (2, 0, range(0, 3)),
            (29, 31, range(28, 32)),
        ],
    )
    def test_no_grid_point_is_evaluated_twice(self, monkeypatch, start, peak, evaluated):
        # the left neighbour is tried first, so a climb to the left never evaluates the start's right neighbour
        grid, calls = _grid_profile(monkeypatch, [-abs(i - peak) for i in range(gp.GRID_SIZE)])
        assert _climb(start) == peak
        on_grid = [grid.index(g) for g in calls if g in grid]
        assert len(on_grid) == len(set(on_grid))
        assert set(on_grid) == set(evaluated)

    def test_factorisations_of_one_benchmark_replication(self, monkeypatch):
        # a cost guard: one replication of the fitted Matern-5/2 LHS config at the benchmark's seed offset 3.
        # Rescanning the grid in every sweep made 1,073 factorisations here.
        from mlbq.harness import load_config, run_experiment

        calls = _count_cholesky(monkeypatch)
        cfg = load_config(ODE_MATERN_LHS)
        run_experiment(dataclasses.replace(cfg, replications=1, seed=cfg.seed + 3))
        assert len(calls) == 729


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
        # the first sweep scans the grid on each axis; later sweeps climb it from the last peak
        assert len(in_search) == 6
        assert min(in_search[:2]) >= gp.GRID_SIZE and max(in_search[2:]) < gp.GRID_SIZE
        assert len(calls) == sum(in_search) + 1
        assert fit.kernel == fit_hyperparameters(
            Kernel.squared_exponential(1.0, dim=2), w, y, bounds=(0.05, 5.0), per_dimension=True
        ).kernel

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

    @pytest.mark.parametrize(
        "kernel, dim, per_dimension",
        [(M12, 1, False), (Kernel.squared_exponential(1.0, dim=2), 2, True), (Kernel.matern(2.5, 1.0), 1, False)],
    )
    def test_fit_hyperparameters_returns_the_fit_at_its_kernel(self, kernel, dim, per_dimension):
        # the fit the amplitude MLE came from is the one fit_gp makes at the fitted kernel, bit for bit
        rng = np.random.default_rng(28)
        w = rng.random((14, dim))
        y = np.sin(4 * w[:, 0]) + 0.1 * rng.standard_normal(14)
        fit = fit_hyperparameters(kernel, w, y, bounds=(0.05, 5.0), per_dimension=per_dimension)
        again = fit_gp(fit.kernel, w, y)
        assert np.array_equal(fit.chol, again.chol) and np.array_equal(fit.weights, again.weights)
        assert fit.nugget == again.nugget


def _ladder_fit(kernel, w, y, nugget):
    """The fit made the test's way: potrf on a fresh unit Gram matrix at each rung, then an out-of-place rescale."""
    from scipy.linalg import cho_solve

    chol, used, _ = _potrf_ladder(gram(kernel.with_amplitude(1.0), w), nugget)
    weights = cho_solve((chol, True), np.asarray(y, dtype=float))
    return math.sqrt(kernel.amplitude) * chol, weights / kernel.amplitude, used


class TestInPlaceFit:
    """A fit holds one n x n array, and its values are those of the test's potrf ladder, bit for bit."""

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

    PEAK_KERNELS = [Kernel.squared_exponential(0.5, dim=2, amplitude=4.0), Kernel.matern(2.5, 0.5, dim=2, amplitude=4.0)]

    @staticmethod
    def _second_fit_peak(kernel, w, y, nugget):
        """Bytes a repeated ``fit_gp`` call peaks at, under tracemalloc."""
        import tracemalloc

        fit = fit_gp(kernel, w, y, nugget)
        tracemalloc.start()
        try:
            fit_gp(kernel, w, y, nugget)
            return fit, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("kernel", PEAK_KERNELS, ids=["se", "m52"])
    def test_fit_peak_memory(self, kernel):
        # the Gram matrix is the fit's one n x n array; the rest is a block buffer and
        # the finiteness check's booleans (the copying path peaked at 4 and 5 n^2 doubles)
        n = 400
        rng = np.random.default_rng(33)
        w = rng.random((n, 2))
        _, peak = self._second_fit_peak(kernel, w, np.cos(4 * w.sum(axis=1)), 1e-10)
        assert peak < 2 * n * n * 8

    @pytest.mark.parametrize("kernel", PEAK_KERNELS, ids=["se", "m52"])
    def test_laddered_fit_peak_memory(self, kernel):
        # duplicated points at nugget 0 fail the first rung; the failed matrix is dropped
        # before the refill, so the ladder too holds one n x n array at a time
        n = 400
        rng = np.random.default_rng(34)
        w = rng.random((n, 2))
        w[n // 2 :] = w[: n // 2]
        fit, peak = self._second_fit_peak(kernel, w, np.cos(4 * w.sum(axis=1)), 0.0)
        assert fit.nugget > 0.0 and peak < 2 * n * n * 8


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
