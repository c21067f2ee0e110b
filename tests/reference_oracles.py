"""Oracles only the tests call: dense linear algebra for the marginal likelihood and exhaustive lattice
search for integerized allocations, each by a route independent of the code it checks."""

import itertools
import math

import numpy as np

from mlbq.allocation import AllocationError
from mlbq.kernels import Kernel, as_points, gram


def lml_dense(kernel: Kernel, points, y, nugget=1e-10) -> float:
    """Marginal log-likelihood via explicit inverse and determinant."""
    w = as_points(points, kernel.dim)
    yv = np.asarray(y, dtype=float).reshape(-1)
    big = gram(kernel, w) + nugget * kernel.amplitude * np.eye(w.shape[0])
    sign, logdet = np.linalg.slogdet(big)
    if sign <= 0:
        raise np.linalg.LinAlgError("covariance not positive definite")
    return float(-0.5 * yv @ np.linalg.inv(big) @ yv - 0.5 * logdet - 0.5 * len(yv) * math.log(2 * math.pi))


def lattice_best_allocation(magnitudes, costs, budget, exponent, max_count=30):
    """Exhaustive integer search over the within-budget lattice.

    Feasible plans have at least one sample per level and cost at most the
    budget.  The greedy integerizer spends at least the whole budget (its
    last grant may overshoot by one step), so its objective should match
    or beat this optimum.  Returns (best counts, best objective).
    """
    mags = np.asarray(magnitudes, dtype=float)
    cvec = np.asarray(costs, dtype=float)
    best, best_obj = None, math.inf
    ranges = [range(1, max_count + 1)] * len(mags)
    for counts in itertools.product(*ranges):
        cost = float(cvec @ counts)
        if cost > budget:
            continue
        obj = float(np.sum(mags * np.asarray(counts, dtype=float) ** (-exponent)))
        if obj < best_obj:
            best, best_obj = counts, obj
    if best is None:
        raise AllocationError("no feasible lattice point")
    return best, best_obj
