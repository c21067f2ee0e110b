from functools import partial

import numpy as np
import pytest

from mlbq.allocation import (
    AllocationError,
    integerize_allocation,
    kernel_sobolev_order,
    mlbq_allocation,
    mlmc_allocation,
)
from mlbq.kernels import Kernel

from reference_oracles import lattice_best_allocation

POISSON_V = (1.305e-3, 0.088e-3, 0.002e-3)
POISSON_NORMS = (62.5e-3, 22.5e-3, 3.125e-3)
POISSON_C = (3.6e-3, 8.5e-3, 42.4e-3)


class TestInputValidation:
    # the checks on magnitudes, costs and budget are made for both rules; tau and dim are mlbq's own
    RULES = [mlmc_allocation, partial(mlbq_allocation, tau=1.0)]

    def test_rejects_nonpositive_entries(self):
        for rule in self.RULES:
            with pytest.raises(AllocationError, match="strictly positive"):
                rule((1.0, 0.0), (1.0, 1.0), 1.0)
            with pytest.raises(AllocationError, match="strictly positive"):
                rule((1.0,), (-1.0,), 1.0)
            with pytest.raises(AllocationError, match="budget must be positive"):
                rule((1.0,), (1.0,), 0.0)

    def test_rejects_length_mismatch(self):
        for rule in self.RULES:
            with pytest.raises(AllocationError, match="equal-length"):
                rule((1.0, 2.0), (1.0,), 1.0)

    def test_rejects_dimension_below_one(self):
        with pytest.raises(AllocationError, match="dimension must be >= 1"):
            mlbq_allocation((1.0, 0.1), (1.0, 2.0), 10.0, tau=1.0, dim=0)

    def test_mlmc_takes_no_tau_or_dim(self):
        # the variance-based rule reads neither, so it takes neither
        for keywords in ({"tau": 3.0}, {"dim": 2}):
            with pytest.raises(TypeError):
                mlmc_allocation(POISSON_V, POISSON_C, 0.376, **keywords)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan-tau", "inf-tau", "minus-inf-tau"])
    def test_rejects_non_finite_tau(self, value):
        with pytest.raises(AllocationError, match="tau.* must be finite"):
            mlbq_allocation((1.0, 0.1), (1.0, 2.0), 10.0, tau=value)


class TestMlmcAllocation:
    def test_published_small_budget_row(self):
        # published sample sizes (67, 11, 1): reproduced within +-2 per level
        plan = mlmc_allocation(POISSON_V, POISSON_C, 0.376)
        for got, want in zip(plan.counts, (67, 11, 1)):
            assert abs(got - want) <= 2

    def test_symmetric_instance(self):
        plan = mlmc_allocation((1.0, 1.0, 1.0), (1.0, 1.0, 1.0), 3.0)
        assert plan.counts == (1, 1, 1)

    def test_closed_form_real_counts(self):
        v, c, t = (2.0, 0.5), (1.0, 4.0), 10.0
        plan = mlmc_allocation(v, c, t)
        denom = sum(np.sqrt(np.array(v) * np.array(c)))
        for real, vl, cl in zip(plan.real_counts, v, c):
            assert real == pytest.approx(t * np.sqrt(vl / cl) / denom, rel=1e-12)

    def test_scale_invariance(self):
        base = mlmc_allocation(POISSON_V, POISSON_C, 0.376).real_counts
        scaled_v = mlmc_allocation(tuple(7.0 * v for v in POISSON_V), POISSON_C, 0.376).real_counts
        assert np.allclose(scaled_v, base, rtol=1e-10)
        scaled_c = mlmc_allocation(POISSON_V, tuple(3.0 * c for c in POISSON_C), 0.376).real_counts
        assert np.allclose(scaled_c, np.array(base) / 3.0, rtol=1e-10)

    def test_objective_beats_lattice_within_5_percent(self):
        rng = np.random.default_rng(27)
        for _ in range(5):
            v = tuple(rng.uniform(0.1, 2.0, 3))
            c = tuple(rng.uniform(0.5, 2.0, 3))
            t = float(rng.uniform(8.0, 20.0))
            plan = mlmc_allocation(v, c, t)
            _, best = lattice_best_allocation(v, c, t, exponent=1.0, max_count=24)
            assert plan.objective <= 1.05 * best


class TestMlbqAllocation:
    def test_published_small_budget_row(self):
        # real solution ~(38.8, 15.2, 2.5); integer plan matches (38, 15, 3)
        plan = mlbq_allocation(POISSON_NORMS, POISSON_C, 0.376, tau=1.0, dim=1)
        assert np.allclose(plan.real_counts, (38.8, 15.2, 2.5), atol=0.1)
        assert plan.counts == (38, 15, 3)

    def test_single_level_exhausts_budget(self):
        plan = mlbq_allocation((5.0,), (2.0,), 10.0, tau=1.0, dim=1)
        assert plan.real_counts[0] == pytest.approx(5.0)

    def test_budget_identity(self):
        plan = mlbq_allocation(POISSON_NORMS, POISSON_C, 0.376, tau=1.0, dim=1)
        cost = sum(c * n for c, n in zip(POISSON_C, plan.real_counts))
        assert cost == pytest.approx(0.376, rel=1e-10)

    def test_kkt_stationarity(self):
        tau, dim = 1.0, 1
        plan = mlbq_allocation(POISSON_NORMS, POISSON_C, 0.751, tau=tau, dim=dim)
        ratios = [
            (tau / dim) * r * n ** (-tau / dim - 1.0) / c for r, n, c in zip(POISSON_NORMS, plan.real_counts, POISSON_C)
        ]
        assert np.allclose(ratios, ratios[0], rtol=1e-8)

    def test_real_solution_beats_random_feasible_allocations(self):
        rng = np.random.default_rng(28)
        norms, costs, budget = np.array([2.0, 0.7, 0.1]), np.array([0.2, 0.9, 3.0]), 25.0
        plan = mlbq_allocation(norms, costs, budget, tau=1.5, dim=1)
        for _ in range(10_000):
            raw = rng.uniform(0.05, 1.0, 3)
            n = raw * budget / float(costs @ raw)  # scaled to exhaust budget
            obj = float(np.sum(norms * n ** (-1.5)))
            assert plan.objective_real <= obj + 1e-12

    def test_requires_tau(self):
        # tau is a required argument; the command line's --norms without --tau is checked in test_harness
        with pytest.raises(TypeError, match="tau"):
            mlbq_allocation((1.0,), (1.0,), 1.0)
        with pytest.raises(AllocationError, match="exceed"):
            mlbq_allocation((1.0,), (1.0,), 1.0, tau=0.4, dim=1)


class TestOverhead:
    @pytest.mark.parametrize("budget", [0.376, 0.751, 1.503])
    @pytest.mark.parametrize(
        "rule, inputs",
        [(mlmc_allocation, {"variances": POISSON_V}), (mlbq_allocation, {"norms": POISSON_NORMS, "tau": 1.0})],
        ids=["mlmc", "mlbq"],
    )
    def test_overhead_two_is_half_the_budget(self, rule, inputs, budget):
        # an overhead is a factor on every level's cost, which the caller applies as the budget divided by it;
        # 2 is a power of two, so the integerization's costs and budget scale exactly
        scaled = rule(costs=tuple(2.0 * c for c in POISSON_C), budget=budget, **inputs)
        halved = rule(costs=POISSON_C, budget=budget / 2, **inputs)
        assert scaled.counts == halved.counts
        assert scaled.real_counts == pytest.approx(halved.real_counts, rel=1e-12)


class TestIntegerize:
    def test_minimum_one_rule(self):
        assert integerize_allocation([0.4, 0.4], [1.0, 1.0], 2.0, magnitudes=[1.0, 1.0], exponent=1.0) == (1, 1)

    def test_integers_with_zero_slack_unchanged(self):
        assert integerize_allocation([3.0, 2.0], [1.0, 2.0], 7.0, magnitudes=[1.0, 1.0], exponent=1.0) == (3, 2)

    def test_greedy_can_overshoot_by_one_step(self):
        # flooring gives (38, 15, 2); the greedy grant takes level 2 to 3
        counts = integerize_allocation(
            (38.836, 15.165, 2.531), POISSON_C, 0.376, magnitudes=POISSON_NORMS, exponent=1.0
        )
        assert counts == (38, 15, 3)
        cost = sum(c * n for c, n in zip(POISSON_C, counts))
        assert cost <= 0.376 + max(POISSON_C)

    def test_unaffordable_budget(self):
        with pytest.raises(AllocationError, match="afford"):
            integerize_allocation([1.0, 1.0], [5.0, 5.0], 1.0, magnitudes=[1.0, 1.0], exponent=1.0)

    def test_greedy_within_2_percent_of_exhaustive_search(self):
        # greedy applied to the real optimum, against the within-budget
        # lattice optimum, on instances whose integer optima stay small
        rng = np.random.default_rng(29)
        for trial in range(8):
            mags = tuple(rng.uniform(0.2, 2.0, 3))
            costs = tuple(rng.uniform(0.4, 1.5, 3))
            budget = float(rng.uniform(5.0, 12.0))
            tau = float(rng.choice([1.0, 2.0]))
            plan = mlbq_allocation(mags, costs, budget, tau=tau, dim=1)
            _, best = lattice_best_allocation(mags, costs, budget, tau, max_count=24)
            assert plan.objective <= 1.02 * best


class TestSobolevOrder:
    def test_matern_order(self):
        assert kernel_sobolev_order(Kernel.matern(0.5, 1.0)) == 1.0
        assert kernel_sobolev_order(Kernel.matern(2.5, 0.3, dim=2)) == 3.5

    def test_brownian_order(self):
        assert kernel_sobolev_order(Kernel.brownian()) == 1.0

    def test_squared_exponential_refused(self):
        with pytest.raises(AllocationError, match="tau explicitly"):
            kernel_sobolev_order(Kernel.squared_exponential(1.0))
