"""Budget-constrained sample sizes per level, and their integerization.

One closed form from Lagrange stationarity: minimise sum m_l n_l^(-e)
subject to sum C_l n_l = T, solved by

  n_l = T (m_l / C_l)^p / (sum C^(1-p) m^p),  p = 1 / (1 + e).

The variance-based rule (multilevel MC) takes m_l = V_l and e = 1, so
n_l is proportional to sqrt(V_l / C_l); the norm-based rule (multilevel
BQ) takes m_l = r_l, the per-level increment magnitudes in the
RKHS/Sobolev norm, and e = tau/d, so p = d/(tau+d); only the norm-based
rule takes tau and d.  Scaling every cost by a factor gives the plan at
the budget divided by that factor.

Real-valued solutions are integerized by flooring (never below one sample
per level) and then greedily granting the increment with the best
objective decrease per unit cost while the realized cost is still below
budget; the last grant may overshoot by at most one evaluation, so the
integer plan costs at most T + max_l C_l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import Kernel, Matern, SquaredExponential, BrownianMotion

__all__ = [
    "AllocationPlan",
    "AllocationError",
    "mlmc_allocation",
    "mlbq_allocation",
    "integerize_allocation",
    "kernel_sobolev_order",
]


class AllocationError(ValueError):
    """Invalid allocation inputs or an unaffordable budget."""


@dataclass(frozen=True)
class AllocationPlan:
    """Real-valued optimum, its integerization and the cost/objective ledger.

    ``realized_cost`` is sum C_l n_l of the integer plan.  It can exceed
    the budget by at most one evaluation at the costliest level (the
    minimum-one rule and the final greedy grant are each one step of
    slack).  ``objective`` is the minimised bound evaluated at the integer
    plan; ``objective_real`` at the real optimum.
    """

    real_counts: tuple[float, ...]
    counts: tuple[int, ...]
    realized_cost: float
    objective: float
    objective_real: float


def kernel_sobolev_order(kernel: Kernel) -> float:
    """Smoothness tau for the norm-based allocation, derived per kernel family.

    Matern factors give nu + d/2, with d the kernel's dimension; the
    Brownian kernel's space is the order-1 Sobolev space on the line.
    Squared-exponential kernels have no Sobolev-equivalent RKHS, so the
    allocation theory does not apply and tau must be supplied explicitly.
    """
    fams = {type(f) for f in kernel.factors}
    if fams == {Matern}:
        nus = {f.nu for f in kernel.factors}
        if len(nus) > 1:
            raise AllocationError("mixed Matern smoothness across dimensions has no single tau")
        return nus.pop() + kernel.dim / 2.0
    if fams == {BrownianMotion}:
        return 1.0
    if SquaredExponential in fams:
        raise AllocationError("squared-exponential kernels have no Sobolev order; supply tau explicitly")
    raise AllocationError(f"no Sobolev order known for kernel factors {fams}")


def _objective(magnitudes, counts, exponent) -> float:
    return float(sum(v * n ** (-exponent) for v, n in zip(magnitudes, counts)))


def integerize_allocation(real_counts, costs, budget, *, magnitudes, exponent):
    """Floor (minimum one) then greedily top up the best level per unit cost.

    A grant is the level maximising the objective decrease
    ``v_l (n^-e - (n+1)^-e)`` per unit cost; grants continue while the
    realized cost is strictly below the budget, so the final grant may
    overshoot by one evaluation.  Deterministic: ties break toward the
    lowest level.
    """
    costs = np.asarray(costs, dtype=float)
    mags = np.asarray(magnitudes, dtype=float)
    if costs.sum() > budget + costs.max():
        raise AllocationError(f"budget {budget} cannot afford one sample at every level (cost {costs.sum()})")
    counts = np.maximum(np.floor(np.asarray(real_counts, dtype=float)).astype(int), 1)
    cost = float(costs @ counts)
    while cost < budget:
        gains = mags * (counts ** (-exponent) - (counts + 1.0) ** (-exponent)) / costs
        pick = int(np.argmax(gains))
        counts[pick] += 1
        cost += costs[pick]
    return tuple(int(n) for n in counts)


def _solve(magnitudes, costs, budget, exponent) -> AllocationPlan:
    """The optimum of sum m_l n_l^(-e) at cost T, integerized, after both rules' checks."""
    m, c = np.asarray(magnitudes, dtype=float), np.asarray(costs, dtype=float)
    if len(m) == 0 or len(m) != len(c):
        raise AllocationError(f"magnitudes and costs must be equal-length and nonempty, got {len(m)} and {len(c)}")
    if not all(v > 0 and math.isfinite(v) for v in (*m, *c)):
        raise AllocationError("magnitudes and costs must be strictly positive and finite")
    if not (budget > 0 and math.isfinite(budget)):
        raise AllocationError(f"budget must be positive, got {budget}")
    p = 1.0 / (1.0 + exponent)
    real = budget * (m / c) ** p / float(np.sum(c ** (1.0 - p) * m**p))
    counts = integerize_allocation(real, c, budget, magnitudes=m, exponent=exponent)
    return AllocationPlan(
        tuple(float(x) for x in real),
        counts,
        float(c @ np.asarray(counts)),
        _objective(m, counts, exponent),
        _objective(m, real, exponent),
    )


def mlmc_allocation(variances, costs, budget) -> AllocationPlan:
    """Variance-based counts n_l = T sqrt(V_l/C_l) / sum sqrt(V C), the minimiser of sum V_l / n_l."""
    return _solve(variances, costs, budget, 1.0)


def mlbq_allocation(norms, costs, budget, tau, dim=1) -> AllocationPlan:
    """Norm-based optimal counts under the smoothness-tau error bound.

    Requires a finite ``tau > dim / 2`` and ``dim >= 1``.  At the real
    solution the cost equals the budget exactly and the stationarity
    ratio ``(tau/d) r_l n_l^(-tau/d-1) / C_l`` is level-independent.
    """
    if not math.isfinite(tau):
        raise AllocationError(f"tau must be finite, got {tau}")
    if dim < 1:
        raise AllocationError(f"dimension must be >= 1, got {dim}")
    if not tau > dim / 2.0:
        raise AllocationError(f"tau must exceed d/2 = {dim / 2}, got {tau}")
    return _solve(norms, costs, budget, tau / dim)
