"""Closed-form kernel integrals against brute-force quadrature.

Bayesian quadrature needs two integrals of the covariance function: the
kernel mean Pi[c(., x)] and the initial error Pi[Pi[c]].  Both factorise
over dimensions for product kernels and product measures, and every
supported (factor, marginal) pair has an analytic form.  This script
prints each form next to an independent quadrature computation of the
same quantity.
"""

import numpy as np

from mlbq import (
    Kernel,
    Matern,
    ProductMeasure,
    SquaredExponential,
    StandardNormal,
    Uniform,
    initial_error,
    kernel_mean,
)
from mlbq.oracles import initial_error_quadrature, kernel_mean_quadrature

u01 = ProductMeasure.uniform(0.0, 1.0)
gauss = ProductMeasure.standard_normal()

print("== kernel means: closed form vs adaptive quadrature ==")
cases = [
    ("Matern(1/2), gamma=1.0, Unif(0,1), x=0.5", Matern(0.5, 1.0), Uniform(0, 1), 0.5),
    ("Matern(5/2), gamma=0.7, Unif(0,1), x=0.2", Matern(2.5, 0.7), Uniform(0, 1), 0.2),
    ("SE,          gamma=1.0, Unif(0,1), x=0.0", SquaredExponential(1.0), Uniform(0, 1), 0.0),
    ("SE,          gamma=1.3, N(0,1),    x=-0.4", SquaredExponential(1.3), StandardNormal(), -0.4),
    ("Matern(5/2), gamma=0.8, N(0,1),    x=1.2", Matern(2.5, 0.8), StandardNormal(), 1.2),
]
for label, factor, marginal, x in cases:
    closed = kernel_mean(Kernel((factor,)), ProductMeasure((marginal,)), x)
    oracle = kernel_mean_quadrature(factor, marginal, x)
    print(f"  {label}: {closed:.12f}  (quadrature {oracle:.12f}, |diff| {abs(closed - oracle):.1e})")

print()
print("== a kernel mean that would overflow naively ==")
# the Matern(5/2) Gaussian form multiplies exp((sqrt5 +- g x)^2 / (2 g^2))
# by erfc terms; the scaled-erfc evaluation keeps it finite anywhere
k52 = Kernel.matern(2.5, 0.5)
for x in (5.0, 50.0, 500.0):
    print(f"  x={x:>6}: kernel mean = {kernel_mean(k52, gauss, x):.3e}")

print()
print("== initial errors ==")
for label, kernel, measure in [
    ("Matern(1/2), gamma=1, Unif(0,1)", Kernel.matern(0.5, 1.0), u01),
    ("Matern(5/2), gamma=1, Unif(0,1)", Kernel.matern(2.5, 1.0), u01),
    ("SE, gamma=2, N(0,1)           ", Kernel.squared_exponential(2.0), gauss),
]:
    value = initial_error(kernel, measure)
    marginal = measure.marginals[0]
    oracle = initial_error_quadrature(kernel.factors[0], marginal)
    rule = "double quadrature" if measure is u01 else "quadrature against N(0,2)"
    print(f"  {label}: {value:.10f}  ({rule} {oracle:.10f})")

print()
print("== a double integral that is a kernel mean ==")
# for X, Y iid N(0,1), X - Y ~ N(0,2): the Matern(5/2) initial error is the
# closed-form kernel mean at 0 with the lengthscale divided by sqrt(2)
k = Kernel.matern(2.5, 1.0)
value = initial_error(k, gauss)
oracle = initial_error_quadrature(k.factors[0], StandardNormal())
mean_at_0 = kernel_mean(Kernel.matern(2.5, 1.0 / np.sqrt(2.0)), gauss, 0.0)
print(f"  Matern(5/2) vs N(0,1): {value:.12f}  (quadrature against N(0,2) {oracle:.12f},"
      f" kernel mean at 0 {mean_at_0:.12f})")

print()
print("== tensor products factorise ==")
k2 = Kernel((Matern(0.5, 1.0), SquaredExponential(1.5)))
m2 = ProductMeasure((Uniform(0, 1), StandardNormal()))
x = np.array([0.5, -0.3])
lhs = kernel_mean(k2, m2, x)
rhs = kernel_mean(Kernel((k2.factors[0],)), u01, 0.5) * kernel_mean(
    Kernel((k2.factors[1],)), gauss, -0.3
)
print(f"  2-d mean {lhs:.12f} = product of 1-d means {rhs:.12f}")
