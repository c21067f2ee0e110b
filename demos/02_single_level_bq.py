"""Single-level Bayesian quadrature: posterior, calibration, convergence.

A GP prior on the integrand induces a Gaussian posterior on its integral.
This script conditions on grid evaluations of a smooth function with a
known integral, prints the posterior against the truth, and tabulates the
error as the grid grows -- the empirical rate is far better than the
n^(-1/2) of Monte Carlo.
"""

import numpy as np

from mlbq import Kernel, ProductMeasure, bq_posterior, fit_gp, fit_hyperparameters
from mlbq.designs import generate_design
from mlbq.models import POISSON_EXACT_INTEGRAL, poisson_exact_solution

u01 = ProductMeasure.uniform(0.0, 1.0)
truth = POISSON_EXACT_INTEGRAL  # integral of x (x - 1) / 2 over [0, 1]

print("== posterior from 12 grid points ==")
design = generate_design("grid", u01, 12)
y = poisson_exact_solution(design.points[:, 0])
fit = fit_hyperparameters(Kernel.matern(0.5, 1.0), design.points, y, bounds=(0.01, 10.0))
post = bq_posterior(fit, u01)  # the fit comes conditioned at the fitted kernel
print(f"  fitted lengthscale {fit.kernel.lengthscales[0]:.4f}, amplitude {fit.kernel.amplitude:.3e}")
print(f"  posterior mean     {post.mean:.8f}")
print(f"  truth              {truth:.8f}")
print(f"  posterior std      {post.std:.2e}   |error| {abs(post.mean - truth):.2e}")
lo, hi = post.credible_interval(0.95)
print(f"  95% interval       [{lo:.6f}, {hi:.6f}]  covers truth: {lo <= truth <= hi}")

print()
print("== error vs grid size (fixed Matern-1/2 prior) ==")
kernel = Kernel.matern(0.5, 1.0)
sizes = (8, 16, 32, 64, 128, 256)
errors = []
print(f"  {'n':>4}  {'|error|':>10}  {'posterior std':>13}")
for n in sizes:
    w = generate_design("grid", u01, n).points
    post = bq_posterior(fit_gp(kernel, w, poisson_exact_solution(w[:, 0])), u01)
    errors.append(abs(post.mean - truth))
    print(f"  {n:>4}  {errors[-1]:>10.2e}  {post.std:>13.2e}")
slope = np.polyfit(np.log(sizes), np.log(errors), 1)[0]
print(f"  log-log slope of the error: {slope:.2f}  (Monte Carlo would give -0.5)")
