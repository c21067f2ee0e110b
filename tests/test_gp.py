import dataclasses
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mlbq import claims, gp
from mlbq.gp import (
    SingularGramError,
    _objective,
    fit_gp,
    fit_hyperparameters,
    mle_amplitude,
    profiled_log_marginal_likelihood,
)
from mlbq.kernels import Kernel, Matern, ProductMeasure, SquaredExponential, gram
from mlbq.quadrature import bq_posterior

from reference_oracles import lml_dense

M12 = Kernel.matern(0.5, 1.0)
U01 = ProductMeasure.uniform(0.0, 1.0)


def gp_sample(kernel, points, seed):
    chol = np.linalg.cholesky(gram(kernel, points) + 1e-12 * np.eye(len(points)))
    return chol @ np.random.default_rng(seed).standard_normal(len(points))


def _seeded_data():
    """30 points in 2-d and noisy observations of a smooth function, from seed 21."""
    rng = np.random.default_rng(21)
    w = rng.random((30, 2))
    return w, np.sin(3 * w[:, 0]) + w[:, 1] ** 2 + 0.05 * rng.standard_normal(30)


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

    def test_negative_nugget_rejected_before_the_search(self, monkeypatch):
        # the search used to run on nugget -1 (its ladder stepped up to 1e-11 at every point), 192 factorisations
        # on this fit, before fit_gp refused it
        calls = _count_cholesky(monkeypatch)
        w = np.random.default_rng(1).random((20, 2))
        with pytest.raises(ValueError, match="nugget must be nonnegative"):
            fit_hyperparameters(Kernel.matern(2.5, 1.0, dim=2), w, np.sin(3 * w[:, 0]) + w[:, 1], bounds=(0.05, 10.0),
                                per_dimension=True, nugget=-1.0)
        assert calls == []

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

    @pytest.mark.parametrize("order", ["C", "F"])  # the search's fill unpacks into a Fortran-order matrix
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


def _point(kernel, axes, log_g):
    """The objective's argument: ``log_g`` on the searched ``axes``, the kernel's own log-lengthscales elsewhere."""
    return tuple(log_g if j in axes else math.log(g) for j, g in enumerate(kernel.lengthscales))


def _public(kernel, w, y, point, nugget=1e-10):
    """The public profiled likelihood at the log-lengthscales ``point``."""
    return profiled_log_marginal_likelihood(kernel.with_lengthscales([math.exp(v) for v in point]), w, y, nugget)


THREE = Kernel((Matern(0.5, 0.3), SquaredExponential(0.8), Matern(2.5, 1.7)))
J = gp.JOINT_GRID
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
    (Kernel((Matern(2.5, 0.4), Matern(0.5, 0.7))), (0, 1)),
]


class _Stopped(Exception):
    pass


def _stop(*args):
    """A compass search that stops the fit at its first poll."""
    raise _Stopped


def _counted(method, calls):
    """``method``, appending to ``calls`` at each call."""
    return lambda *args, **kwargs: calls.append(1) or method(*args, **kwargs)


class TestLengthscaleSearch:
    """The search's objective is the public profiled likelihood, bit for bit."""

    @pytest.mark.parametrize(
        "kernel, axes", OBJECTIVE_CASES,
        # points that move every axis keep the id "None" they had when None meant tied
        ids=[f"kernel{i}-{None if len(axes) == k.dim else axes[0]}" for i, (k, axes) in enumerate(OBJECTIVE_CASES)],
    )
    def test_objective_equals_profiled_likelihood(self, kernel, axes):
        rng = np.random.default_rng(22)
        w = rng.random((17, kernel.dim))
        y = np.cos(4 * w.sum(axis=1)) + 0.1 * rng.standard_normal(17)
        objective = _objective(kernel, w, y.copy(), 1e-10)
        for log_g in list(np.linspace(math.log(0.01), math.log(10.0), 32)) + [-0.37, 1.9]:
            point = _point(kernel, axes, log_g)
            assert objective(point) == _public(kernel, w, y, point)

    def test_objective_identity_through_the_nugget_ladder(self):
        # duplicated points with zero jitter make every Gram singular, so each
        # evaluation escalates the nugget before the factorisation succeeds
        w = np.array([[0.1], [0.1], [0.4], [0.4], [0.8]])
        y = np.array([1.0, 1.0, -0.5, -0.5, 0.3])
        kernel = Kernel.matern(2.5, 1.0)
        assert fit_gp(kernel, w, y, nugget=0.0).nugget > 0.0
        objective = _objective(kernel, w, y.copy(), 0.0)
        for log_g in np.linspace(math.log(0.01), math.log(10.0), 32):
            assert objective((log_g,)) == _public(kernel, w, y, (log_g,), nugget=0.0)

    @pytest.mark.parametrize("n", [2, 63, 64, 65, 129])  # the Gram blocks are 64 rows
    @pytest.mark.parametrize("factor", [lambda g: Matern(0.5, g), lambda g: Matern(2.5, g), SquaredExponential],
                             ids=["m12", "m52", "se"])
    @pytest.mark.parametrize("dim, per_axis", [(1, False), (2, False), (2, True), (3, False), (3, True)],
                             ids=["1d", "2d-tied", "2d-per-axis", "3d-tied", "3d-per-axis"])
    def test_search_factors_the_fit_matrix(self, n, factor, dim, per_axis, monkeypatch):
        # the matrix an evaluation unpacks from its packed product is, on and below the diagonal, the one
        # fit_gp builds from its Gram blocks at the same lengthscales, bit for bit
        rng = np.random.default_rng(37)
        w = rng.random((n, dim))
        y = np.cos(4 * w.sum(axis=1))
        kernel = Kernel(tuple(factor(1.0) for _ in range(dim)))
        point = tuple(math.log(0.05 * 2.0**j if per_axis else 0.05) for j in range(dim))
        factored, cholesky = [], gp.cholesky
        monkeypatch.setattr(gp, "cholesky", lambda matrix: factored.append(matrix.copy()) or cholesky(matrix))
        _objective(kernel, w, y.copy(), 1e-10)(point)
        searched = factored[:]
        factored.clear()
        fit_gp(kernel.with_lengthscales([math.exp(v) for v in point]), w, y, 1e-10)
        assert len(searched) == len(factored) >= 1
        assert all(np.tril(a).tobytes() == np.tril(b).tobytes() for a, b in zip(searched, factored))

    def test_reused_work_matrix_keeps_every_value(self):
        # an objective keeps each axis's last correlations and one packed product buffer, unpacked into a fresh
        # matrix at each rung; values must not depend on the call history, whether a point moves one axis or both
        rng = np.random.default_rng(27)
        w = rng.random((19, 2))
        y = np.sin(3 * w[:, 0]) + w[:, 1] ** 2
        kernel = Kernel.matern(2.5, [0.4, 0.9], dim=2)
        points = [(-0.8, -0.1), (0.6, -0.1), (0.6, 1.2), (-2.0, 1.2), (-0.8, -2.0), (-0.8, 1.2)]
        public = [_public(kernel, w, y, p) for p in points]
        forward, backward = (_objective(kernel, w, y.copy(), 1e-10) for _ in range(2))
        assert [forward(p) for p in points] == public
        assert [backward(p) for p in reversed(points)] == public[::-1]
        # two objectives interleaved, each with its own packed arrays
        other = Kernel.squared_exponential([0.4, 0.9], dim=2)
        first, second = _objective(kernel, w, y.copy(), 1e-10), _objective(other, w, y.copy(), 1e-10)
        interleaved = [(first(p), second(p)) for p in points]
        assert [a for a, _ in interleaved] == public
        assert [b for _, b in interleaved] == [_public(other, w, y, p) for p in points]

    def test_failed_in_place_factor_is_scattered_again(self, monkeypatch):
        # a near-duplicate pair: at nugget 0 the squared-exponential Gram matrix
        # factors at short lengthscales and fails potrf at long ones, where the
        # in-place attempt has written part of a factor over the unpacked matrix,
        # so each rung unpacks the packed product again
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
        objective = _objective(kernel, w, y.copy(), 0.0)
        alternating = [g for pair in zip(short, long) for g in pair]
        values, per_evaluation = [], []
        for g in alternating:
            fills.clear()
            values.append(objective((g,)))
            per_evaluation.append(len(fills))
        rungs = [_potrf_ladder(gram(kernel.with_lengthscales(math.exp(g)), w), 0.0)[2] for g in alternating]
        assert per_evaluation == rungs and rungs[::2] == [1] * len(short) and min(rungs[1::2]) >= 2
        monkeypatch.setattr(gp, "_factor", factor)
        for g, value in zip(alternating, values):
            assert value == profiled_log_marginal_likelihood(kernel.with_lengthscales(math.exp(g)), w, y, nugget=0.0)

    def test_evaluation_peak_memory(self):
        # an evaluation that moves one axis holds that axis's correlation pass (n^2/2 doubles) and the
        # unpacked n x n matrix, about 1.5 n^2 doubles; the factor is made in that matrix
        import tracemalloc

        n = 200
        rng = np.random.default_rng(28)
        w = rng.random((n, 2))
        objective = _objective(Kernel.matern(2.5, 0.7, dim=2), w, np.cos(4 * w.sum(axis=1)), 1e-10)
        objective((-0.5, math.log(0.7)))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            objective((-0.3, math.log(0.7)))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 3 * n * n * 8

    def test_visited_points_keep_no_correlations(self):
        # each axis holds one correlation array, at its last value, however many points were visited;
        # an evaluation that moves both axes also peaks below 3 n^2 doubles
        import tracemalloc

        n = 200
        rng = np.random.default_rng(28)
        w = rng.random((n, 2))
        objective = _objective(Kernel.matern(2.5, 0.7, dim=2), w, np.cos(4 * w.sum(axis=1)), 1e-10)
        points = list(itertools.product(np.linspace(-1.0, 0.5, 6).tolist(), repeat=2))
        tracemalloc.start()
        try:
            objective(points[0])  # both axes' correlations, now traced
            base = tracemalloc.get_traced_memory()[0]
            for point in points[1:]:  # each axis visits six values
                objective(point)
            held = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            objective((0.9, 0.7))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert held < n * n * 8 / 4 and peak < 3 * n * n * 8

    @pytest.mark.parametrize("kernel", [Kernel.matern(2.5, 0.7, dim=2), Kernel.matern(0.5, 0.7)],
                             ids=["matern52-2d", "matern12-1d"])
    def test_search_keeps_no_square_matrix(self, kernel):
        # between evaluations an objective of k axes holds, in n(n+1)/2-double packed arrays, each axis's
        # distances and correlations and, when k >= 2, one product buffer: 2k + 1 arrays at most, where one
        # resident n x n matrix would add two
        import tracemalloc

        n = 200
        half = n * (n + 1) // 2 * 8
        rng = np.random.default_rng(28)
        w = rng.random((n, kernel.dim))
        rest = tuple(math.log(g) for g in kernel.lengthscales[1:])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            objective = _objective(kernel, w, np.cos(4 * w.sum(axis=1)), 1e-10)
            for log_g in (-0.5, -0.3):  # two evaluations that move the first axis
                objective((log_g, *rest))
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held < (2 * kernel.dim + 1.5) * half

    @pytest.mark.parametrize("kernel", [Kernel.matern(2.5, 0.7, dim=2), THREE], ids=["matern52-2d", "three-axes"])
    def test_grid_values_through_the_table_equal_profiled_likelihood(self, kernel, monkeypatch):
        # the search's own objective, which holds its fastest grid coordinate's correlations, at every
        # joint-grid point in the order the search visits them, stopped at the first compass poll
        rng = np.random.default_rng(22)
        w = rng.random((17, kernel.dim))
        y = np.cos(4 * w.sum(axis=1)) + 0.1 * rng.standard_normal(17)
        visited, made = [], gp._objective

        def recorded(*args):
            objective = made(*args)
            return lambda x: visited.append((x, objective(x))) or visited[-1][1]

        monkeypatch.setattr(gp, "_objective", recorded)
        monkeypatch.setattr(gp, "_compass_max", _stop)
        with pytest.raises(_Stopped):
            gp._fit_lengthscales(kernel, w, y, (0.01, 10.0), per_dimension=True)
        grid = np.linspace(math.log(0.01), math.log(10.0), J).tolist()
        assert [x for x, _ in visited] == list(itertools.product(grid, repeat=kernel.dim))
        for x, value in visited:
            assert value == _public(kernel, w, y, x)

    @pytest.mark.parametrize(
        "kernel, per_dimension, passes, without_table",
        [
            (Kernel.matern(2.5, 0.7, dim=2), True, 2 * J, J + J * J),
            (THREE, True, J + J * J + J, J + J * J + J**3),
            (Kernel.matern(2.5, 0.7, dim=2), False, 2 * gp.GRID_SIZE, 2 * gp.GRID_SIZE),
            (THREE, False, 3 * gp.GRID_SIZE, 3 * gp.GRID_SIZE),
        ],
        ids=["matern52-2d", "three-axes", "matern52-2d-tied", "three-axes-tied"],
    )
    def test_correlation_passes_of_the_grid(self, kernel, per_dimension, passes, without_table, monkeypatch):
        # correlation passes before the first compass poll, with the search's table and with an objective that
        # ignores it: the fastest grid coordinate runs one pass per value, not one per grid point, and a tied
        # grid, which moves every axis at each point, one per point and axis either way.  The table changes no
        # factorisation and no fitted lengthscale.
        rng = np.random.default_rng(31)
        w = rng.random((25, kernel.dim))
        y = np.sin(3 * w[:, 0]) + w[:, -1] ** 2
        counted = []
        for factor in (Matern, SquaredExponential):
            monkeypatch.setattr(factor, "corr_at", _counted(factor.corr_at, counted))
        calls, compass, at_poll = _count_cholesky(monkeypatch), gp._compass_max, []

        def polled(*args):
            at_poll.append((len(counted), len(calls)))
            return compass(*args)

        monkeypatch.setattr(gp, "_compass_max", polled)
        made, searches = gp._objective, []
        for objective in (made, lambda kernel, w, resid, nugget, table: made(kernel, w, resid, nugget)):
            monkeypatch.setattr(gp, "_objective", objective)
            counted.clear()
            calls.clear()
            at_poll.clear()
            searches.append((gp._fit_lengthscales(kernel, w, y, (0.01, 10.0), per_dimension), len(calls), *at_poll))
        grid_points = J**kernel.dim if per_dimension else gp.GRID_SIZE
        assert searches[0][2] == (passes, grid_points) and searches[1][2] == (without_table, grid_points)
        assert searches[0][:2] == searches[1][:2]

    def test_grid_table_peak_memory(self, monkeypatch):
        # n = 200, d = 2.  Beyond what its objective holds from the set-up (the packed distances and product
        # buffer), one per-axis fit peaks below (JOINT_GRID + 3.5) n(n+1)/2 doubles: the table's arrays, a pass's
        # temporaries and the unpacked matrix.  By the first compass poll the table is gone and each axis holds
        # its one array.
        import tracemalloc

        n = 200
        half = n * (n + 1) // 2 * 8
        rng = np.random.default_rng(28)
        w = rng.random((n, 2))
        y = np.cos(4 * w.sum(axis=1))
        made, compass, marks = gp._objective, gp._compass_max, {}

        def objective(*args):
            made_objective = made(*args)
            marks["set_up"] = tracemalloc.get_traced_memory()[0]
            return made_objective

        def polled(*args):
            marks["polled"] = tracemalloc.get_traced_memory()[0]
            return compass(*args)

        monkeypatch.setattr(gp, "_objective", objective)
        monkeypatch.setattr(gp, "_compass_max", polled)
        tracemalloc.start()
        try:
            gp._fit_lengthscales(Kernel.matern(2.5, 0.7, dim=2), w, y, (0.01, 10.0), per_dimension=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - marks["set_up"] < (J + 3.5) * half
        assert marks["polled"] - marks["set_up"] < 2.5 * half

    def test_fitted_lengthscales_are_fixed_by_the_seed(self):
        # written by the joint-grid and compass search; the per-axis values are those of its first version.
        # Profiled LML, with golden section's in brackets: tied 5.57283767793 (5.57283772226),
        # 1-d -28.7684041668 (-28.7684041671)
        w, y = _seeded_data()
        kernel = Kernel.matern(2.5, 1.0, dim=2)
        per_axis = fit_hyperparameters(kernel, w, y, bounds=(0.01, 10.0), per_dimension=True).kernel
        assert per_axis.lengthscales == (0.37001545652115175, 0.32624946238436586)
        assert per_axis.amplitude == 0.5010014924940331
        shared = fit_hyperparameters(Kernel.squared_exponential(1.0, dim=2), w, y, bounds=(0.01, 10.0)).kernel
        assert shared.lengthscales == (0.28999238431008345, 0.28999238431008345)
        assert shared.amplitude == 0.5734806731477616
        one_d = fit_hyperparameters(M12, w[:, :1], y, bounds=(0.01, 10.0)).kernel
        assert one_d.lengthscales == (0.05118304671480608,)
        assert one_d.amplitude == 1.1147572266753187


ODE_MATERN_LHS = Path(__file__).resolve().parents[1] / "perfbench" / "ode_matern_lhs.json"


def _sweep_fits(monkeypatch, path, replications):
    """(kernel, points, values, bounds, per_dimension, fitted kernel) of every level fit in a sweep of a config."""
    from mlbq import harness

    fits = []
    search = harness._fit_lengthscales

    def recorded(kernel, points, y, bounds, per_dimension=False):
        fitted = search(kernel, points, y, bounds, per_dimension=per_dimension)
        fits.append((kernel, np.array(points, dtype=float), np.array(y, dtype=float), bounds, per_dimension, fitted))
        return fitted

    monkeypatch.setattr(harness, "_fit_lengthscales", recorded)
    harness.run_experiment(dataclasses.replace(harness.load_config(path), replications=replications))
    monkeypatch.setattr(harness, "_fit_lengthscales", search)
    return fits


def _tied_fits(monkeypatch, replications):
    """Every level fit of the Poisson calibration config (1-d), and the tied 2-d squared-exponential fit of
    test_fitted_lengthscales_are_fixed_by_the_seed."""
    w, y = _seeded_data()
    kernel, bounds = Kernel.squared_exponential(1.0, dim=2), (0.01, 10.0)
    shared = (kernel, w, y, bounds, False, gp._fit_lengthscales(kernel, w, y, bounds))
    return _sweep_fits(monkeypatch, claims.CONFIGS / "poisson_calibration.json", replications) + [shared]


def _record_points(monkeypatch):
    """Record every point the search's objectives are called at, memo hits included."""
    points, made = [], gp._objective

    def recorded(*args):
        objective = made(*args)
        return lambda x: points.append(x) or objective(x)

    monkeypatch.setattr(gp, "_objective", recorded)
    return points


class TestCompassSearch:
    """Every fit: the best point of a log-grid, refined by a comparison-only compass search.

    The inputs are the per-axis fits of the benchmark config and the tied and 1-d fits of ``_tied_fits``.
    """

    def test_every_benchmark_fit_reaches_the_optimum(self, monkeypatch):
        # every level fit of 20 replications of the benchmark config and of the Poisson calibration config,
        # and the tied 2-d fit, against a reference the test finds itself.  Per axis: the best cell of a
        # 24 x 24 joint log-grid, refined by Nelder-Mead from its 3 best cells and from the fit.  Tied: the
        # best point of a 256-point log-grid, refined by bounded scalar search between its neighbours.  The
        # reference evaluates the search's objective, which equals the public likelihood bit for bit
        # (test_objective_equals_profiled_likelihood), because it is about 4x faster; the joint grid goes
        # through its table, one correlation pass per grid value and axis (48, not 600).
        from scipy.optimize import minimize, minimize_scalar

        per_axis, tied = _sweep_fits(monkeypatch, ODE_MATERN_LHS, 20), _tied_fits(monkeypatch, 20)
        assert len(per_axis) == 80 and all(kernel.dim == 2 and per_dim for kernel, *_, per_dim, _ in per_axis)
        assert len(tied) == 61 and not any(per_dim for *_, per_dim, _ in tied)
        gaps = {True: [], False: []}
        for kernel, w, y, bounds, per_dimension, fitted in per_axis + tied:
            lo, hi = math.log(bounds[0]), math.log(bounds[1])
            grid = np.linspace(lo, hi, 24).tolist()
            objective = _objective(kernel, w, y.copy(), gp.NUGGET, dict.fromkeys(grid) if per_dimension else {})
            if per_dimension:
                cells = sorted(((objective(c), c) for c in itertools.product(grid, repeat=2)), reverse=True)
                reference = cells[0][0]
                for start in [c for _, c in cells[:3]] + [tuple(math.log(g) for g in fitted.lengthscales)]:
                    result = minimize(lambda x: -objective(tuple(x.tolist())), start, method="Nelder-Mead",
                                      bounds=[(lo, hi)] * 2, options={"xatol": 1e-3, "fatol": 1e-5})
                    reference = max(reference, -result.fun)
            else:
                grid = np.linspace(lo, hi, 256)
                values = [objective((g,) * kernel.dim) for g in grid]
                peak = int(np.argmax(values))
                result = minimize_scalar(lambda g: -objective((g,) * kernel.dim), method="bounded",
                                         bounds=(grid[max(peak - 1, 0)], grid[min(peak + 1, 255)]),
                                         options={"xatol": 1e-8})
                reference = max(values[peak], -result.fun)
            gaps[per_dimension].append(reference - profiled_log_marginal_likelihood(fitted, w, y))
        # a 1-d reference is tight, and a tied fit stops within a final step of about REL_TOL of it (5.5e-8 here)
        assert max(gaps[True]) < 1e-3 and max(gaps[False]) < 1e-6

    def test_no_poll_at_the_final_mesh_beats_the_result(self, monkeypatch):
        # every per-axis fit of 4 replications of the benchmark config, and every tied fit of _tied_fits
        searches, compass = [], gp._compass_max

        def recorded(value, x, step, top, tol):
            best = compass(value, x, step, top, tol)
            searches.append((value, best, top, tol))
            return best

        monkeypatch.setattr(gp, "_compass_max", recorded)
        _sweep_fits(monkeypatch, ODE_MATERN_LHS, 4)
        _tied_fits(monkeypatch, 4)
        assert len(searches) == 16 + 13
        for value, best, top, tol in searches:
            step = 0.5
            while step / 2.0 >= tol:
                step /= 2.0
            for j, s in itertools.product(range(len(best)), (step, -step)):
                poll = best[:j] + (min(max(best[j] + s, 0), top),) + best[j + 1 :]
                assert value(poll) <= value(best)

    def test_no_point_is_factored_twice(self, monkeypatch):
        # each fit of 4 replications of the benchmark config, and each tied fit of _tied_fits, searched again:
        # one factorisation per distinct point, and distinct points at least the last step apart (a poll back
        # to a point lands on it exactly)
        fits = _sweep_fits(monkeypatch, ODE_MATERN_LHS, 4) + _tied_fits(monkeypatch, 4)
        points = _record_points(monkeypatch)
        calls = _count_cholesky(monkeypatch)
        for kernel, w, y, bounds, per_dimension, fitted in fits:
            points.clear()
            calls.clear()
            assert gp._fit_lengthscales(kernel, w, y, bounds, per_dimension=per_dimension) == fitted
            distinct = np.array(sorted(set(points)))
            assert len(calls) == len(distinct) < len(points)
            apart = np.max(np.abs(distinct[:, None] - distinct[None, :]), axis=2) + np.eye(len(distinct))
            assert apart.min() >= gp.REL_TOL

    def test_a_search_of_one_coordinate_is_the_tied_search(self, monkeypatch):
        # on one axis the per-axis search has one coordinate: the same grid, polls and factorisations as the tied
        rng = np.random.default_rng(30)
        w = rng.random((20, 1))
        y = np.sin(3 * w[:, 0]) + 0.05 * rng.standard_normal(20)
        calls = _count_cholesky(monkeypatch)
        searches = []
        for per_dimension in (True, False):
            calls.clear()
            searches.append((gp._fit_lengthscales(Kernel.matern(0.5, 1.0), w, y, (0.01, 10.0), per_dimension),
                             len(calls)))
        assert searches[0] == searches[1]
        # a tied search of two axes moves one coordinate, repeated on both
        w2 = rng.random((20, 2))
        tied = gp._fit_lengthscales(Kernel.matern(0.5, [1.0, 3.0], dim=2), w2, np.sin(3 * w2.sum(axis=1)), (0.01, 10.0))
        assert tied.lengthscales[0] == tied.lengthscales[1]

    def test_factorisations_of_one_benchmark_replication(self, monkeypatch):
        # a cost guard: one replication of the fitted Matern-5/2 LHS config at the benchmark's seed offset 3.
        # Three sweeps of one-axis searches made 729 factorisations here, or 1,073 rescanning every grid.
        from mlbq.harness import load_config, run_experiment

        calls = _count_cholesky(monkeypatch)
        cfg = load_config(ODE_MATERN_LHS)
        run_experiment(dataclasses.replace(cfg, replications=1, seed=cfg.seed + 3))
        assert len(calls) == 480

    def test_per_axis_fit_loads_no_scipy_optimize(self):
        # importing scipy.optimize would cost each process 0.17-0.23 s, more than the search saves
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        script = (
            "import sys\nimport numpy as np\n"
            "from mlbq.gp import fit_hyperparameters\nfrom mlbq.kernels import Kernel\n"
            "w = np.random.default_rng(1).random((20, 2))\n"
            "fit = fit_hyperparameters(Kernel.matern(2.5, 1.0, dim=2), w, np.sin(3 * w[:, 0]) + w[:, 1],\n"
            "                          bounds=(0.05, 10.0), per_dimension=True)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))\n"
        )
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60,
                              check=True)
        assert done.stdout.strip() == "[]"


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
        points = _record_points(monkeypatch)
        rng = np.random.default_rng(23)
        w = rng.random((25, 2))
        y = gp_sample(Kernel.squared_exponential([0.3, 0.9], dim=2), w, 24)
        policy = KernelPolicy(family="se", policy="fitted", bounds=(0.05, 5.0), per_dimension=True)
        fit = policy.level_fit(w, y, dim=2)
        # one factorisation per distinct point the search evaluates (the joint grid among them), one for the fit
        grid = np.linspace(math.log(0.05), math.log(5.0), gp.JOINT_GRID)
        assert set(itertools.product(grid, repeat=2)) <= set(points)
        assert len(calls) == len(set(points)) + 1
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
        Kernel((SquaredExponential(0.6), Matern(2.5, 0.7))),
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

    @pytest.mark.parametrize("kernel", [PEAK_KERNELS[0], Kernel.matern(0.5, 0.5, dim=2, amplitude=4.0)], ids=["se", "m12"])
    @pytest.mark.parametrize("nugget", [1e-10, 0.0], ids=["first-rung", "laddered"])
    def test_fit_holds_its_matrix_and_one_block(self, kernel, nugget):
        # n^2 doubles of matrix, 64 n of block buffer, O(n) of data and weights, and numpy's iterator buffers
        # (two operands of getbufsize() elements) for the strided block arithmetic; these factors' correlations
        # are made in place.  An index array over the packed triangle, n(n+1)/2 integers, would not fit.
        n = 400
        rng = np.random.default_rng(35)
        w = rng.random((n, 2))
        if nugget == 0.0:
            w[n // 2 :] = w[: n // 2]
        fit, peak = self._second_fit_peak(kernel, w, np.cos(4 * w.sum(axis=1)), nugget)
        assert (fit.nugget > nugget) == (nugget == 0.0)
        assert peak < (n * n + 64 * n + 16 * n + 2 * np.getbufsize()) * 8


class TestTriangleFit:
    """``fit_gp`` factors only the Gram triangle potrf reads; its fit is the full matrix's, bit for bit."""

    @staticmethod
    def full_matrix_fit(kernel, w, y, nugget):
        """The fit from the full unit Gram matrix's transpose, through the same ladder, solve and rescale."""
        from scipy.linalg.lapack import dpotrs

        w, y = gp.as_data(w, y, kernel.dim)
        unit = kernel.with_amplitude(1.0)
        chol, used = gp._factor(lambda: gram(unit, w).T, nugget)
        return gp._scaled(gp.GPFit(kernel, w, y, chol, dpotrs(chol, y, lower=1)[0], used), kernel)

    def assert_same_fit(self, kernel, w, y, nugget):
        fit, full = fit_gp(kernel, w, y, nugget), self.full_matrix_fit(kernel, w, y, nugget)
        assert np.array_equal(fit.chol, full.chol) and np.array_equal(fit.weights, full.weights)
        assert fit.nugget == full.nugget
        return fit

    def test_ode_halton_level_zero(self):
        from mlbq.designs import generate_design
        from mlbq.models import make_model

        model = make_model("ode")
        w = generate_design("halton", model.measure, 830).points
        fit = self.assert_same_fit(Kernel.squared_exponential(1.0, dim=model.dim, amplitude=0.3), w,
                                   model.evaluate(0, w), gp.NUGGET)
        assert fit.n == 830

    def test_duplicated_points_climb_the_ladder(self):
        rng = np.random.default_rng(36)
        w = rng.random((150, 2))
        w[75:] = w[:75]
        fit = self.assert_same_fit(Kernel.matern(2.5, [0.4, 0.7], dim=2, amplitude=2.0), w,
                                   np.sin(3 * w.sum(axis=1)), 0.0)
        assert fit.nugget > 0.0


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

    def test_overflowing_profiled_likelihood_raises(self):
        # finite data whose |L^-1 r|^2 overflows to inf: the profiled log-likelihood would read -inf
        with pytest.warns(RuntimeWarning, match="overflow encountered in matmul"):
            with pytest.raises(ValueError, match="profiled log-likelihood is -inf"):
                profiled_log_marginal_likelihood(M12, [0.2, 0.7], [1e200, -1e200])

    W6 = np.linspace(0.1, 0.9, 6).reshape(-1, 1)
    Y6 = np.sin(3 * W6[:, 0])

    @staticmethod
    def gram_with(monkeypatch, value, entry):
        """``gp._gram``, the builder ``fit_gp`` calls, with ``value`` written at ``entry`` and its mirror."""
        real = gp._gram

        def patched(kernel, w1, w2, upper=False):
            matrix = real(kernel, w1, w2, upper)
            matrix[entry] = matrix[entry[::-1]] = value
            return matrix

        monkeypatch.setattr(gp, "_gram", patched)

    @pytest.mark.parametrize("entry", [(3, 1), (5, 0), (2, 2), (5, 5)], ids=["off-diag", "corner", "diag", "last-diag"])
    def test_nan_gram_entry_is_refused_by_the_factor_check(self, monkeypatch, entry):
        # potrf passes a NaN pivot (NaN <= 0 is false), so the factor comes back non-finite: the refusal is the
        # finiteness check on that factor, a plain ValueError, not the nugget ladder's SingularGramError
        self.gram_with(monkeypatch, math.nan, entry)
        for fit in (fit_gp, mle_amplitude):
            with pytest.raises(ValueError) as refused:
                fit(Kernel.matern(2.5, 0.3), self.W6, self.Y6)
            assert not isinstance(refused.value, np.linalg.LinAlgError)

    def test_inf_gram_entry_ends_in_the_nugget_ladder(self, monkeypatch):
        # an inf below the diagonal makes the next pivot -inf at every rung
        self.gram_with(monkeypatch, math.inf, (1, 0))
        with pytest.raises(SingularGramError):
            fit_gp(Kernel.matern(2.5, 0.3), self.W6, self.Y6)

    @pytest.mark.parametrize("where", ["farthest", "coincident"])
    def test_nan_correlation_fails_the_search_objective(self, monkeypatch, where):
        corr_at = Matern.corr_at

        def nan_at(self, dist, lengthscale, out=None):
            hit = np.asarray(dist) == (np.max(dist) if where == "farthest" else 0.0)  # before ``out`` overwrites it
            corr = corr_at(self, dist, lengthscale, out)
            corr[hit] = math.nan
            return corr

        monkeypatch.setattr(Matern, "corr_at", nan_at)
        kernel = Kernel.matern(2.5, 0.3)
        w, resid = gp.as_data(self.W6, self.Y6, 1)
        with pytest.raises(ValueError):
            _objective(kernel, w, resid, gp.NUGGET)((math.log(0.3),))
        with pytest.raises(ValueError):
            fit_hyperparameters(kernel, self.W6, self.Y6, bounds=(0.05, 5.0))

    def test_vanishing_residual_gives_plus_infinity(self):
        assert profiled_log_marginal_likelihood(M12, [0.2, 0.7], [0.0, 0.0]) == math.inf

    def test_potrf_argument_error_raises(self, monkeypatch):
        monkeypatch.setattr(gp, "dpotrf", lambda matrix, lower, clean, overwrite_a=0: (matrix, -1))
        with pytest.raises(ValueError, match="info -1"):
            gp.cholesky(np.eye(3))
        with pytest.raises(ValueError, match="info -1"):
            fit_gp(M12, [0.2, 0.7], [1.0, 2.0])
