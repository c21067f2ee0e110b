"""Acceptance suite: one test (or parametrized row) per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Criteria 1, 2, 3, 5a and 6b assert on the rows of the
claims ledger (``mlbq.claims``); the sweep-backed ones read the shipped
configs' full sweeps, which ``conftest.py`` runs once per session inside
the stated runtime budgets.

Criterion 1 note: with the published variance/norm/cost inputs, the closed
forms put the level-0 count of the two larger-budget rows about 2.3% above
the published counts (all roundings included), so three of the six rows
fail; the tolerance is deliberately NOT widened.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from mlbq import claims
from mlbq.allocation import mlbq_allocation
from mlbq.designs import generate_design
from mlbq.gp import fit_gp
from mlbq.harness import ResultRecord, calibration_table
from mlbq.kernels import Kernel, ProductMeasure
from mlbq.models import POISSON_EXACT_INTEGRAL, PiecewiseLinearFunction, PoissonHierarchy, brownian_rkhs_increment_norm
from mlbq.models import poisson_exact_solution
from mlbq.claims import slope_integral_norm
from mlbq.quadrature import LevelData, bq_posterior, mlbq_estimate

from reference_oracles import lattice_best_allocation

U01 = ProductMeasure.uniform(0.0, 1.0)


# -- criterion 1: allocation reproduction -----------------------------------


CRITERION_1 = [(m, t, tolerance) for m, tolerance in (("mlmc", 2), ("mlbq", 1)) for t in (0.376, 0.751, 1.503)]


@pytest.mark.parametrize("method,budget,tolerance", CRITERION_1, ids=[f"{m}-T{t}" for m, t, _ in CRITERION_1])
def test_criterion_1_allocation_reproduction(method, budget, tolerance):
    start = time.monotonic()
    (row,) = [row for row in claims.criterion_1() if row.name == f"criterion 1 {method}-T{budget}"]
    assert time.monotonic() - start < 1.0
    deviation = tuple(abs(c - p) for c, p in zip(row.value, row.bar))
    assert max(deviation) <= tolerance, (f"{method} T={budget}: computed {row.value}, published {row.bar}, "
                                         f"per-level deviation {deviation} exceeds +-{tolerance}")


# -- criterion 2: estimator ordering on the Poisson testbed ------------------


def test_criterion_2_poisson_mlbq_grid_beats_mlmc_iid_5x(poisson_budgets):
    records, elapsed = poisson_budgets
    assert elapsed < 120.0, f"experiment took {elapsed:.1f}s, budget is 2 minutes"
    for row in claims.criterion_2(records):
        assert row.bar == 5.0 and row.holds, f"{row.name}: mean |error| ratio mlmc(iid)/mlbq(grid) {row.value:.2f} < 5"


# -- criterion 3: budget-multiplier claim on the ODE testbed -----------------


def test_criterion_3_ode_mlbq_matches_mlmc_at_20x_budget(ode_budgets):
    records, elapsed = ode_budgets
    assert elapsed < 600.0, f"experiment took {elapsed:.1f}s, budget is 10 minutes"
    row = claims.criterion_3(records)
    assert row.holds, f"mlbq(halton, se) at T=1.517 has mean |error| {row.value:.4f}, mlmc(iid) at T=30.347 has {row.bar:.4f}"


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
    rows = claims.criterion_5a()
    assert len(rows) == 61 and {row.bar for row in rows} == {1e-10}
    assert all(row.holds for row in rows), [(row.name, row.value) for row in rows if not row.holds]


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
    tau, dim, costs = 1.0, 1, PoissonHierarchy().costs
    plan = mlbq_allocation(claims.POISSON_NORMS, costs, 1.503, tau=tau, dim=dim)
    ratios = np.array(
        [
            (tau / dim) * r * n ** (-tau / dim - 1.0) / c
            for r, n, c in zip(claims.POISSON_NORMS, plan.real_counts, costs)
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
    row = claims.criterion_6b(poisson_calibration[0])
    assert row.cells == 100 and row.bar == 0.9 and row.holds, f"coverage {row.value:.3f} of {row.cells} below nominal 0.9"


# -- the ledger: CLAIMS.json is these sweeps' claims -------------------------


def test_claims_json_is_the_ledger_of_these_sweeps(monkeypatch, shipped_records):
    monkeypatch.setattr(claims, "_records", shipped_records.__getitem__)
    built = json.loads(claims.ledger_json(claims.ledger()))
    committed = json.loads((Path(__file__).resolve().parents[1] / "CLAIMS.json").read_text())
    assert [row["name"] for row in built] == [row["name"] for row in committed]
    for new, old in zip(built, committed):
        assert {k: repr(v) for k, v in new.items()} == {k: repr(v) for k, v in old.items()}, new["name"]
