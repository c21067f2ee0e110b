"""Multilevel estimation on the finite-element testbed.

The multifidelity Poisson family approximates a boundary value problem on
three meshes of increasing resolution.  Estimating the top level's
integral through the telescoping sum -- cheap level evaluated a lot,
expensive increments evaluated a little -- is the multilevel idea; giving
each increment a GP prior turns the point estimate into a Gaussian
posterior and cuts the error dramatically at equal cost.
"""

import numpy as np

from mlbq import Kernel, LevelData, mlbq_estimate, mlmc_estimate
from mlbq.designs import generate_design
from mlbq.gp import fit_hyperparameters
from mlbq.models import PoissonHierarchy

model = PoissonHierarchy()
measure = model.measure
reference = model.reference_integral()
counts = (38, 15, 3)
budget = sum(n * c for n, c in zip(counts, model.costs))
print(f"reference integral Pi[f_2] = {reference:.8f}")
print(f"sample sizes per level {counts}, total declared cost {budget:.4f}")

print()
print("== multilevel BQ on a grid design ==")
fits = []
for level, n in enumerate(counts):
    w = generate_design("grid", measure, n).points
    y = model.increments(level, w[:, 0])
    fits.append(fit_hyperparameters(Kernel.matern(0.5, 1.0), w, y, bounds=(0.01, 10.0)))
post = mlbq_estimate(fits, measure)
print(f"  posterior mean {post.mean:.8f}  (|error| {abs(post.mean - reference):.2e})")
print(f"  posterior std  {post.std:.2e}")
print(f"  {'level':>5} {'n':>4} {'mean':>11} {'std':>10} {'lengthscale':>12} {'nugget':>8}")
for level, lv in enumerate(post.levels):
    print(f"  {level:>5} {lv.n:>4} {lv.mean:>11.3e} {np.sqrt(lv.variance):>10.3e} "
          f"{lv.lengthscales[0]:>12.4g} {lv.nugget:>8.0e}")

print()
print("== multilevel MC on matched IID data, 50 repetitions ==")
errors = []
for rep in range(50):
    data = []
    for level, n in enumerate(counts):
        w = generate_design("iid", measure, n, seed=1000 * rep + level).points
        data.append(LevelData(w, model.increments(level, w[:, 0])))
    errors.append(abs(mlmc_estimate(data) - reference))
print(f"  mean |error| {np.mean(errors):.2e}  (vs {abs(post.mean - reference):.2e} for the GP route)")

