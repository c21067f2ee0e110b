"""Optimal per-level sample sizes under a cost budget.

Two rules split a budget T across levels: the variance-based rule
(n_l proportional to sqrt(V_l / C_l)) minimises the multilevel-MC MSE,
and the norm-based rule (n_l proportional to (r_l / C_l)^(d/(tau+d)))
minimises the GP-route error bound, where r_l measures the increment in
the kernel's function space.  Both come from one closed form and differ
only in the exponent of the minimised bound.  Real solutions are
integerized by flooring and greedily granting the best
objective-decrease-per-cost increment.
"""

from mlbq import mlbq_allocation, mlmc_allocation
from mlbq.models import PoissonHierarchy

# Published constants of the finite-element experiments: per-level
# variances, increment norms (squared RKHS norms), and costs in seconds.
variances = (1.305e-3, 0.088e-3, 0.002e-3)
norms = (62.5e-3, 22.5e-3, 3.125e-3)
costs = (3.6e-3, 8.5e-3, 42.4e-3)

# For a Matern kernel, tau comes from the smoothness: nu + d/2, so
# Matern-1/2 in one dimension gives 1/2 + 1/2.
tau = 1.0
print(f"smoothness order tau = {tau} (Matern 1/2 in one dimension)")
print()
print(f"{'T':>7} | {'variance-based n_l':>22} | {'norm-based n_l':>18}")
for budget in (0.376, 0.751, 1.503):
    mc_plan = mlmc_allocation(variances, costs, budget)
    bq_plan = mlbq_allocation(norms, costs, budget, tau=tau, dim=1)
    print(f"{budget:>7} | {str(mc_plan.counts):>22} | {str(bq_plan.counts):>18}")

print()
print("== anatomy of one plan ==")
plan = mlbq_allocation(norms, costs, 0.376, tau=tau, dim=1)
print(f"  real solution      {tuple(round(r, 2) for r in plan.real_counts)}")
print(f"  integerized        {plan.counts}   (floor gives (38, 15, 2); the greedy grant buys level 2)")
print(f"  realized cost      {plan.realized_cost:.4f}  vs budget 0.376 (one-step slack allowed)")
print(f"  objective          {plan.objective:.6f} (real optimum {plan.objective_real:.6f})")

# The real solution satisfies the stationarity condition: the marginal
# objective decrease per marginal cost is the same at every level.
ratios = [tau * r * n ** (-tau - 1.0) / c for r, n, c in zip(norms, plan.real_counts, costs)]
print(f"  stationarity ratios {['%.6f' % r for r in ratios]} (equal across levels)")

print()
print("== norms straight from the model ==")
# The increment norms above are reproduced exactly by the finite-element
# family built on meshes with 2, 5 and 20 cells.
model = PoissonHierarchy(interior_nodes=(1, 4, 19))
squared = [model.increment_norm(level) ** 2 for level in range(3)]
print(f"  squared increment norms from the hierarchy: {['%.6f' % s for s in squared]}")
print(f"  published constants:                        {['%.6f' % n for n in norms]}")
