"""Acceptance suite: one test (or parametrized row) per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  The experiment-backed criteria execute the configs under
``configs/`` through the real harness, at the stated replication counts
and tolerances, inside the stated runtime budgets.

Criterion 1 note: the two larger-budget allocation rows are checked
against the published reference counts exactly as stated.  With the
published variance/norm/cost inputs, the closed forms put the level-0
count about 2.3% above those reference rows (all roundings included), so
three of the six rows fail; the tolerance is deliberately NOT widened.
The level-1/level-2 entries and the entire smallest-budget rows reproduce.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from mlbq.allocation import mlbq_allocation, mlmc_allocation
from mlbq.designs import generate_design
from mlbq.gp import fit_gp
from mlbq.harness import ResultRecord, calibration_table, load_config, run_experiment
from mlbq.kernels import Kernel, ProductMeasure
from mlbq.models import (
    PiecewiseLinearFunction,
    PoissonHierarchy,
    brownian_rkhs_increment_norm,
    poisson_exact_solution,
    POISSON_EXACT_INTEGRAL,
)
from mlbq.oracles import oracle_report, slope_integral_norm
from mlbq.quadrature import LevelData, bq_posterior, mlbq_estimate

from reference_oracles import lattice_best_allocation

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

POISSON_V = (1.305e-3, 0.088e-3, 0.002e-3)
POISSON_NORMS = (62.5e-3, 22.5e-3, 3.125e-3)
POISSON_C = (3.6e-3, 8.5e-3, 42.4e-3)

U01 = ProductMeasure.uniform(0.0, 1.0)


def _mean_errors(records, estimator, budget):
    errs = [r.abs_error for r in records if r.estimator == estimator and r.budget == budget]
    assert len(errs) > 0
    return float(np.mean(errs))


@pytest.fixture(scope="session")
def poisson_budgets():
    start = time.monotonic()
    records = run_experiment(load_config(CONFIGS / "poisson_budgets.json"))
    return records, time.monotonic() - start


@pytest.fixture(scope="session")
def ode_budgets():
    start = time.monotonic()
    records = run_experiment(load_config(CONFIGS / "ode_budgets.json"))
    return records, time.monotonic() - start


@pytest.fixture(scope="session")
def poisson_calibration():
    start = time.monotonic()
    records = run_experiment(load_config(CONFIGS / "poisson_calibration.json"))
    return records, time.monotonic() - start


# -- criterion 1: allocation reproduction -----------------------------------

ALLOCATION_ROWS = [
    ("mlmc", 0.376, (67, 11, 1), 2),
    ("mlmc", 0.751, (133, 23, 2), 2),
    ("mlmc", 1.503, (266, 46, 3), 2),
    ("mlbq", 0.376, (38, 15, 3), 1),
    ("mlbq", 0.751, (77, 30, 5), 1),
    ("mlbq", 1.503, (153, 60, 10), 1),
]


@pytest.mark.parametrize(
    "method,budget,expected,tolerance",
    ALLOCATION_ROWS,
    ids=[f"{m}-T{t}" for m, t, _, _ in ALLOCATION_ROWS],
)
def test_criterion_1_allocation_reproduction(method, budget, expected, tolerance):
    start = time.monotonic()
    if method == "mlmc":
        plan = mlmc_allocation(POISSON_V, POISSON_C, budget)
    else:
        plan = mlbq_allocation(POISSON_NORMS, POISSON_C, budget, tau=1.0, dim=1)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    deviation = tuple(abs(g - e) for g, e in zip(plan.counts, expected))
    assert max(deviation) <= tolerance, (
        f"{method} T={budget}: got {plan.counts} (real {tuple(round(r, 2) for r in plan.real_counts)}), "
        f"reference {expected}, per-level deviation {deviation} exceeds +-{tolerance}"
    )


# -- criterion 2: estimator ordering on the Poisson testbed ------------------


def test_criterion_2_poisson_mlbq_grid_beats_mlmc_iid_5x(poisson_budgets):
    records, elapsed = poisson_budgets
    assert elapsed < 120.0, f"experiment took {elapsed:.1f}s, budget is 2 minutes"
    for budget in (0.376, 0.751, 1.503):
        mlbq_err = _mean_errors(records, "mlbq", budget)
        mlmc_err = _mean_errors(records, "mlmc", budget)
        assert mlbq_err * 5.0 <= mlmc_err, (
            f"T={budget}: mean |error| mlbq(grid)={mlbq_err:.3e} vs mlmc(iid)={mlmc_err:.3e}; "
            f"required ratio >= 5, got {mlmc_err / mlbq_err:.2f}"
        )


# -- criterion 3: budget-multiplier claim on the ODE testbed -----------------


def test_criterion_3_ode_mlbq_matches_mlmc_at_20x_budget(ode_budgets):
    records, elapsed = ode_budgets
    assert elapsed < 600.0, f"experiment took {elapsed:.1f}s, budget is 10 minutes"
    mlbq_small = _mean_errors(records, "mlbq", 1.517)
    mlmc_large = _mean_errors(records, "mlmc", 30.347)
    assert mlbq_small <= mlmc_large, (
        f"mlbq(halton, se) at T=1.517 has mean |error| {mlbq_small:.4f}, "
        f"mlmc(iid) at T=30.347 has {mlmc_large:.4f}"
    )


# -- criterion 4: convergence-rate property ----------------------------------


def test_criterion_4_single_level_bq_rate_on_grids():
    start = time.monotonic()
    sizes = (8, 16, 32, 64, 128, 256)
    kernel = Kernel.matern(0.5, 1.0)
    errors = []
    for n in sizes:
        w = generate_design("grid", U01, n).points
        y = poisson_exact_solution(w[:, 0])
        post = bq_posterior(fit_gp(kernel, w, y, nugget=1e-10), U01)
        errors.append(abs(post.mean - POISSON_EXACT_INTEGRAL))
    slope = float(np.polyfit(np.log(sizes), np.log(errors), 1)[0])
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    assert slope <= -0.9, f"log-log error slope {slope:.3f} not steep enough (errors {errors})"


# -- criterion 5: oracle suites ----------------------------------------------


def test_criterion_5a_kernel_integral_oracles():
    failures = [row for row in oracle_report() if not row.passed]
    assert not failures, "oracle mismatches: " + "; ".join(
        f"{r.name}: |{r.oracle_value} - {r.implementation_value}| > {r.tolerance}" for r in failures
    )


def test_criterion_5b_mlbq_decomposes_into_per_level_bq():
    rng = np.random.default_rng(40)
    kernels = [Kernel.matern(0.5, 0.9, amplitude=1.2), Kernel.squared_exponential(0.5), Kernel.matern(2.5, 1.4, amplitude=0.4)]
    levels = [LevelData(rng.random((5 + 2 * i, 1)), rng.standard_normal(5 + 2 * i)) for i in range(3)]
    multi = mlbq_estimate([fit_gp(k, lv.points, lv.values) for lv, k in zip(levels, kernels)], U01)
    mean_sum = var_sum = 0.0
    for level, kernel in zip(levels, kernels):
        post = bq_posterior(fit_gp(kernel, level.points, level.values, nugget=1e-10), U01)
        mean_sum += post.mean
        var_sum += post.variance
    assert multi.mean == pytest.approx(mean_sum, rel=1e-12)
    assert multi.variance == pytest.approx(var_sum, rel=1e-12)


def test_criterion_5d_brownian_norm_against_slope_integration():
    rng = np.random.default_rng(42)
    for _ in range(25):
        bp = np.concatenate([[0.0], np.sort(rng.random(8)), [1.0]])
        g = PiecewiseLinearFunction(bp, np.concatenate([[0.0], rng.standard_normal(9)]))
        bp2 = np.concatenate([[0.0], np.sort(rng.random(5)), [1.0]])
        h = PiecewiseLinearFunction(bp2, np.concatenate([[0.0], rng.standard_normal(6)]))
        assert brownian_rkhs_increment_norm(g, h) == pytest.approx(slope_integral_norm(g, h), abs=1e-10)


def test_criterion_5e_greedy_integerization_near_exhaustive_optimum():
    rng = np.random.default_rng(43)
    for _ in range(6):
        mags = tuple(rng.uniform(0.2, 2.0, 3))
        costs = tuple(rng.uniform(0.4, 1.5, 3))
        budget = float(rng.uniform(4.0, 12.0))
        tau = float(rng.choice([1.0, 2.0]))
        plan = mlbq_allocation(mags, costs, budget, tau=tau, dim=1)
        _, best = lattice_best_allocation(mags, costs, budget, tau, max_count=22)
        assert plan.objective <= 1.02 * best


def test_criterion_5f_fem_nodal_exactness():
    model = PoissonHierarchy()
    for level, p in enumerate(model.interior_nodes):
        nodes = np.linspace(0.0, 1.0, p + 2)[1:-1]
        assert np.max(np.abs(model.evaluate(level, nodes) - poisson_exact_solution(nodes))) < 1e-10


def test_criterion_5g_kkt_stationarity_of_allocations():
    tau, dim = 1.0, 1
    plan = mlbq_allocation(POISSON_NORMS, POISSON_C, 1.503, tau=tau, dim=dim)
    ratios = np.array(
        [
            (tau / dim) * r * n ** (-tau / dim - 1.0) / c
            for r, n, c in zip(POISSON_NORMS, plan.real_counts, POISSON_C)
        ]
    )
    assert np.max(np.abs(ratios / ratios[0] - 1.0)) < 1e-8


# -- criterion 6: calibration -------------------------------------------------


def test_criterion_6a_exactly_gaussian_records_are_calibrated():
    rng = np.random.default_rng(2024)
    reference = 3.0
    records = []
    for i in range(5000):
        variance = float(rng.uniform(0.5, 2.0))
        estimate = reference + math.sqrt(variance) * float(rng.standard_normal())
        records.append(ResultRecord.make(i, "mlbq", 1.0, estimate, variance, reference, 1.0, (1,)))
    for row in calibration_table(records, levels=(0.5, 0.9, 0.99)):
        assert abs(row.coverage - row.nominal_level) <= 2.0 * row.binomial_se, (
            f"coverage {row.coverage:.4f} at nominal {row.nominal_level} "
            f"outside 2 x binomial SE ({row.binomial_se:.4f})"
        )


def test_criterion_6b_poisson_mlbq_underconfident_at_large_budget(poisson_calibration):
    records, _ = poisson_calibration
    (row,) = calibration_table(records, levels=(0.9,))
    assert row.count == 100
    assert row.coverage >= 0.9, f"coverage {row.coverage:.3f} below nominal 0.9"
