"""What the MLBQ posterior must not notice, on the four configs whose records the golden hashes check:
doubled values, permuted points, and each uniform marginal shifted together with its coordinates.

Each cell is a budget's MLBQ level data in one of the first ``REPLICATIONS`` replications, fitted by the
config's kernel policy (``KernelPolicy.level_fit``) and combined by ``mlbq_estimate`` at one BLAS thread,
as a sweep does.
"""

from pathlib import Path

import numpy as np
import pytest

from mlbq.harness import _group_data, _groups, _pin_blas_threads, load_config, validate_budget_accounting
from mlbq.kernels import ProductMeasure, Uniform
from mlbq.models import make_model
from mlbq.quadrature import LevelData, mlbq_estimate

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_CONFIGS = [
    "configs/ode_budgets.json",
    "configs/poisson_budgets.json",
    "configs/poisson_calibration.json",
    "perfbench/ode_matern_lhs.json",
]
REPLICATIONS, PERMUTATIONS, SHIFTS = 2, 2, (0.25, 3.0, -0.5)


@pytest.fixture(autouse=True)
def one_blas_thread():
    """The sweep's thread count: the roundoff that the permutation bounds measure depends on it."""
    pinned = _pin_blas_threads()
    yield
    for set_threads, count in pinned:
        set_threads(count)


def _mlbq_cells(path):
    """(config, model, budget index, replication, levels) of each MLBQ cell."""
    cfg = load_config(ROOT / path)
    model = make_model(cfg.model_name, **cfg.model_params)
    counts = validate_budget_accounting(cfg, model)
    for bi in range(len(cfg.budgets)):
        for rep in range(REPLICATIONS):
            for est, key, number in _groups(cfg, counts[bi]):
                if est.name == "mlbq":
                    yield cfg, model, bi, rep, _group_data(cfg, model, bi, rep, key, number)


def _lengthscales(cfg, model, levels):
    return [cfg.kernel.level_kernel(level.points, level.values, model.dim).lengthscales for level in levels]


def _posterior(cfg, model, levels, measure=None):
    fits = [cfg.kernel.level_fit(level.points, level.values, model.dim) for level in levels]
    return mlbq_estimate(fits, measure or model.measure)


def _permuted(levels, seed):
    """Each level's points and values in one random order, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    orders = [rng.permutation(lv.n) for lv in levels]
    return [LevelData(lv.points[order], lv.values[order]) for lv, order in zip(levels, orders)]


def _shifted(model, levels, c):
    """The levels and the measure with each uniform marginal and its coordinates moved by ``c``."""
    uniform = np.array([isinstance(m, Uniform) for m in model.measure.marginals])
    measure = ProductMeasure(
        tuple(Uniform(m.a + c, m.b + c) if isinstance(m, Uniform) else m for m in model.measure.marginals)
    )
    return [LevelData(lv.points + c * uniform, lv.values) for lv in levels], measure


@pytest.mark.parametrize("path", ["configs/poisson_budgets.json", "configs/poisson_calibration.json"])
def test_permuted_points_and_shifted_measure_leave_every_fitted_lengthscale_unchanged(path):
    # the tied searches land on the same point, so the Poisson bounds below measure roundoff of the final solves
    cells = 0
    for cfg, model, bi, rep, levels in _mlbq_cells(path):
        fitted = _lengthscales(cfg, model, levels)
        for k in range(PERMUTATIONS):
            assert _lengthscales(cfg, model, _permuted(levels, [bi, rep, k])) == fitted
        for c in SHIFTS:
            assert _lengthscales(cfg, model, _shifted(model, levels, c)[0]) == fitted
        cells += 1
    assert cells > 0


@pytest.mark.parametrize("path", GOLDEN_CONFIGS)
def test_doubled_values_double_the_mean_and_quadruple_the_variance(path):
    # a power of two scales without rounding, and the amplitude MLE absorbs it
    cells = 0
    for cfg, model, _, _, levels in _mlbq_cells(path):
        base = _posterior(cfg, model, levels)
        doubled = _posterior(cfg, model, [LevelData(lv.points, 2.0 * lv.values) for lv in levels])
        assert doubled.mean == 2.0 * base.mean and doubled.variance == 4.0 * base.variance
        cells += 1
    assert cells > 0


@pytest.mark.parametrize(
    "path, mean_bound, variance_bound",
    [  # just above the largest relative changes this sample gives (mean / variance):
        # 1.07e-14 / 2.5e-11, roundoff of the Cholesky solves (every fitted lengthscale is unchanged)
        ("configs/poisson_calibration.json", 1.2e-14, 6e-11),
        # 1.3e-9 / 7.9e-8, roundoff on the ill-conditioned n = 830 level 0
        ("configs/ode_budgets.json", 1.6e-9, 1.0e-7),
        # 5.3e-7 / 2.84e-4: roundoff flips a comparison of the per-axis search, which then stops a final
        # step or two (1.8e-4 in log-lengthscale) away on a flat optimum (5.5e-6 lower in log-likelihood)
        ("perfbench/ode_matern_lhs.json", 6e-7, 3.0e-4),
    ],
)
def test_permuted_points_move_the_posterior_within_bounds(path, mean_bound, variance_bound):
    changes = []
    for cfg, model, bi, rep, levels in _mlbq_cells(path):
        base = _posterior(cfg, model, levels)
        for k in range(PERMUTATIONS):
            post = _posterior(cfg, model, _permuted(levels, [bi, rep, k]))
            changes.append((abs(post.mean / base.mean - 1.0), abs(post.variance / base.variance - 1.0)))
    mean_change, variance_change = np.max(changes, axis=0)
    assert mean_change <= mean_bound and variance_change <= variance_bound


def _shift_changes(path):
    """Largest relative changes in mean and variance when each uniform marginal and its coordinates move by c."""
    changes = []
    for cfg, model, _, _, levels in _mlbq_cells(path):
        base = _posterior(cfg, model, levels)
        for c in SHIFTS:
            post = _posterior(cfg, model, *_shifted(model, levels, c))
            changes.append((abs(post.mean / base.mean - 1.0), abs(post.variance / base.variance - 1.0)))
    return np.max(changes, axis=0)


def test_shifted_measure_leaves_the_dyadic_halton_posterior_unchanged():
    # the ODE uniform coordinates are base-2 Halton points: dyadic, so every shift is exact
    assert list(_shift_changes("configs/ode_budgets.json")) == [0.0, 0.0]


@pytest.mark.parametrize(
    "path, mean_bound, variance_bound",
    [  # just above the largest relative changes this sample gives (mean / variance):
        # 1.3e-14 / 6.8e-11 and 9.5e-15 / 3.2e-11, roundoff of the shifted distances and kernel means
        # (every fitted lengthscale is unchanged)
        ("configs/poisson_budgets.json", 1.8e-14, 3.0e-10),
        ("configs/poisson_calibration.json", 1.8e-14, 3.5e-11),
        # 5.3e-7 / 2.04e-4, roundoff flipping a comparison of the per-axis search, as for permutations
        ("perfbench/ode_matern_lhs.json", 6e-7, 2.2e-4),
    ],
)
def test_shifted_measure_moves_the_posterior_within_bounds(path, mean_bound, variance_bound):
    mean_change, variance_change = _shift_changes(path)
    assert mean_change <= mean_bound and variance_change <= variance_bound
