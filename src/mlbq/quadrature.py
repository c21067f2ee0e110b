"""Integral estimators: MLMC, BQ, multilevel BQ and its separable-kernel twin.

MLMC and the separable-kernel estimator consume a list of :class:`LevelData`
blocks, one per fidelity level and indexed by list position, holding design
points and increment evaluations ``f_l(W_l) - f_{l-1}(W_l)`` (with
``f_{-1} = 0``).  MLBQ consumes one conditioned :class:`~mlbq.gp.GPFit` per
level instead, which holds the level's points and values.  Plain MC and
single-level BQ are the one-level cases of MLMC and MLBQ.  The Bayesian
estimators return a :class:`GaussianPosterior` on ``Pi[f]`` whose mean and
variance are exact sums of per-level contributions; those contributions
are kept around for diagnostics.

Per-level computations are independent (independent GP priors per level),
so the multilevel posterior is literally the sum of single-level BQ
posteriors.  The separable-kernel variant couples levels through a
cross-level matrix B and conditions on the full joint system; with B = I
it reduces to the independent case.  All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.special import ndtri

from .gp import GPFit, _factor
from .kernels import Kernel, ProductMeasure, gram, initial_error, kernel_mean

__all__ = [
    "LevelData",
    "GaussianPosterior",
    "LevelFailure",
    "mlmc_estimate",
    "bq_posterior",
    "mlbq_estimate",
    "sk_mlbq_estimate",
]


class LevelFailure(RuntimeError):
    """A per-level computation failed; carries the level's list position."""

    def __init__(self, level, message):
        super().__init__(f"level {level}: {message}")
        self.level = level


@dataclass(frozen=True)
class LevelData:
    """Design points and increment values for one fidelity level.

    ``values`` holds f_l(W_l) - f_{l-1}(W_l) (f_{-1} = 0, so level 0 holds
    plain evaluations).  The level is the block's position in its list.
    """

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).reshape(-1)
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim > 2:
            raise ValueError(f"points must be at most 2-d, got shape {pts.shape}")
        if pts.ndim < 2:  # as ``as_points`` reads them: with one value one point, else n points on a line
            pts = pts.reshape(1, -1) if vals.size == 1 else pts.reshape(-1, 1)
        if pts.shape[0] != vals.shape[0]:
            raise ValueError(f"{pts.shape[0]} points but {vals.shape[0]} values")
        if pts.shape[0] < 1:
            raise ValueError("needs at least one point")
        if not np.all(np.isfinite(pts)) or not np.all(np.isfinite(vals)):
            raise ValueError("non-finite points or values")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class GaussianPosterior:
    """Gaussian posterior on Pi[f] with per-level diagnostics.

    The mean (variance) is the exact sum of ``level_means``
    (``level_variances``); for the separable-kernel estimator individual
    contributions are attribution bookkeeping and only their sums carry
    meaning.
    """

    mean: float
    variance: float
    level_means: tuple[float, ...]
    level_variances: tuple[float, ...]

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError(f"negative posterior variance {self.variance}")

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def credible_interval(self, level: float) -> tuple[float, float]:
        """Central two-sided interval at the given credible level."""
        z = ndtri(0.5 * (1.0 + level))
        return self.mean - z * self.std, self.mean + z * self.std


def _require_support(measure: ProductMeasure, points, level=None):
    if not measure.contains(points):
        where = "points" if level is None else f"level {level} points"
        raise ValueError(f"{where} fall outside the measure's support")


def _clamp_variance(var: float, amplitude: float) -> float:
    if var < 0 and var > -1e-10 * max(amplitude, 1.0):
        return 0.0
    return var


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------


def mlmc_estimate(levels) -> float:
    """Multilevel Monte Carlo: sum of per-level increment means (plain MC on one level)."""
    if len(levels) == 0:
        raise ValueError("mlmc_estimate needs at least one level")
    return float(sum(level.values.mean() for level in levels))


# ---------------------------------------------------------------------------
# Bayesian quadrature
# ---------------------------------------------------------------------------


def bq_posterior(fit: GPFit, measure: ProductMeasure) -> GaussianPosterior:
    """Gaussian posterior on Pi[f] from a conditioned zero-mean GP.

    mean = Pi[c(., W)] @ weights and
    variance = Pi[Pi[c]] - Pi[c(., W)] K^-1 Pi[c(W, .)], with the same
    (gram + nugget) system the fit used.
    """
    _require_support(measure, fit.points)
    embedding = np.atleast_1d(kernel_mean(fit.kernel, measure, fit.points))
    post_mean = float(embedding @ fit.weights)
    half = solve_triangular(fit.chol, embedding, lower=True)
    var = initial_error(fit.kernel, measure) - float(half @ half)
    var = _clamp_variance(var, fit.kernel.amplitude)
    if var < 0:
        raise FloatingPointError(f"BQ variance {var} below the clamp window")
    return GaussianPosterior(post_mean, var, (post_mean,), (var,))


def mlbq_estimate(fits, measure: ProductMeasure) -> GaussianPosterior:
    """Multilevel BQ: independent zero-mean per-level BQ posteriors, summed.

    ``fits`` holds one :class:`GPFit` per level, in level order 0..L, each
    conditioned on that level's increments (fit the hyperparameters and
    condition beforehand).  The sum of :func:`bq_posterior` over the fits,
    which is also how it is computed; on one fit it is single-level BQ.  A
    level's failure is raised as :class:`LevelFailure` carrying its position.
    """
    if len(fits) == 0:
        raise ValueError("mlbq_estimate needs at least one level")
    level_means, level_vars = [], []
    for position, fit in enumerate(fits):
        try:
            post = bq_posterior(fit, measure)
        except (ValueError, FloatingPointError) as exc:
            raise LevelFailure(position, str(exc)) from exc
        level_means.append(post.mean)
        level_vars.append(post.variance)
    return GaussianPosterior(
        float(sum(level_means)), float(sum(level_vars)), tuple(level_means), tuple(level_vars)
    )


def sk_mlbq_estimate(
    levels,
    kernel: Kernel,
    b_matrix,
    measure: ProductMeasure,
    nugget=1e-10,
) -> GaussianPosterior:
    """Separable-kernel multilevel BQ: joint conditioning across levels.

    The joint prior couples increments through the symmetric positive
    definite (L+1)x(L+1) matrix B: block (l, l') of the joint Gram matrix
    is ``B[l, l'] * c(W_l, W_l')`` for a single base kernel c.  The full
    system is assembled and solved directly, at cubic cost in the total
    point count.  With B = I this reduces block-diagonally to
    :func:`mlbq_estimate` with c_l = c for every level.

    Per-level entries of the returned posterior are attributions of the
    joint solve (they sum exactly to the totals but can individually be
    negative).
    """
    if len(levels) == 0:
        raise ValueError("sk_mlbq_estimate needs at least one level")
    n_lev = len(levels)
    b = np.asarray(b_matrix, dtype=float)
    if b.shape != (n_lev, n_lev):
        raise ValueError(f"B must be {n_lev}x{n_lev}, got {b.shape}")
    if not np.array_equal(b, b.T):
        raise ValueError("B must be symmetric")
    if not np.linalg.eigvalsh(b).min() > 0:
        raise ValueError("B must be positive definite")
    for position, level in enumerate(levels):
        _require_support(measure, level.points, position)

    sizes = [level.n for level in levels]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])

    def fill():  # the joint Gram matrix in the Fortran order potrf factors in place; it reads blocks l >= l' only
        joint = np.empty((total, total), order="F")
        for i, li in enumerate(levels):
            for j, lj in enumerate(levels[: i + 1]):
                block = joint[offsets[i] : offsets[i + 1], offsets[j] : offsets[j + 1]]
                np.multiply(gram(kernel, li.points, lj.points), b[i, j], out=block)
        return joint

    values = np.concatenate([level.values for level in levels])
    # The integrated cross-covariance against level block l' sums B over
    # the output index: z_{l'} = (sum_l B[l, l']) * Pi[c(., W_{l'})].
    embeddings = [
        float(b[:, j].sum()) * np.atleast_1d(kernel_mean(kernel, measure, lj.points))
        for j, lj in enumerate(levels)
    ]
    z = np.concatenate(embeddings)
    chol, _ = _factor(fill, nugget, kernel.amplitude)
    alpha = cho_solve((chol, True), values)
    kinv_z = cho_solve((chol, True), z)

    level_means = [float(embeddings[j] @ alpha[offsets[j] : offsets[j + 1]]) for j in range(n_lev)]
    prior_var = float(b.sum()) * initial_error(kernel, measure)
    # Attribute the prior term by output row l, the quadratic term by block.
    prior_rows = [float(b[j, :].sum()) * initial_error(kernel, measure) for j in range(n_lev)]
    quad_rows = [float(embeddings[j] @ kinv_z[offsets[j] : offsets[j + 1]]) for j in range(n_lev)]
    level_vars = [p - q for p, q in zip(prior_rows, quad_rows)]
    var = _clamp_variance(prior_var - float(z @ kinv_z), kernel.amplitude)
    if var < 0:
        raise FloatingPointError(f"SK-MLBQ variance {var} below the clamp window")
    # Keep the exact-sum invariant after clamping.
    if var == 0.0 and sum(level_vars) != 0.0:
        level_vars = [0.0] * n_lev
    return GaussianPosterior(float(sum(level_means)), var, tuple(level_means), tuple(level_vars))
