"""Integral estimators: MLMC, BQ and multilevel BQ.

MLMC consumes a list of :class:`LevelData` blocks, one per fidelity level and
indexed by list position, holding design points and increment evaluations
``f_l(W_l) - f_{l-1}(W_l)`` (with ``f_{-1} = 0``).  MLBQ consumes one
conditioned :class:`~mlbq.gp.GPFit` per level instead, which holds the
level's points and values.  Plain MC and single-level BQ are the one-level
cases of MLMC and MLBQ.  The Bayesian estimators return a
:class:`GaussianPosterior` on ``Pi[f]``.

Each level has its own independent GP prior, so the multilevel posterior is
the sum of the single-level BQ posteriors, each a :class:`LevelPosterior`
made by :func:`bq_posterior` from its fit.  All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .gp import GPFit, _quad_form
from .kernels import ProductMeasure, as_data, initial_error, kernel_mean

__all__ = [
    "LevelData",
    "LevelPosterior",
    "GaussianPosterior",
    "credible_z",
    "LevelFailure",
    "mlmc_estimate",
    "bq_posterior",
    "mlbq_estimate",
]


class LevelFailure(RuntimeError):
    """A per-level computation failed; carries the level's list position."""

    def __init__(self, level, message):
        super().__init__(level, message)  # the constructor's arguments, which pickling calls it with
        self.level = level

    def __str__(self):
        return f"level {self.level}: {self.args[1]}"


def _each_level(fn, items) -> list:
    """``fn`` of each item in level order; a ValueError or FloatingPointError is a LevelFailure at its position.

    The one overflow rule for a level step: ``fn`` runs under ``np.errstate(over="raise")``, so an overflow fails
    its level under any warnings filter: a group's data build, a fit, a posterior or an MC mean."""
    out = []
    for position, item in enumerate(items):
        try:
            with np.errstate(over="raise"):
                out.append(fn(item))
        except (ValueError, FloatingPointError) as exc:
            raise LevelFailure(position, str(exc)) from exc
    return out


def _total(values, what) -> float:
    """Level values summed in level order; a running sum past the float range is a LevelFailure at that level."""
    total = 0.0
    for level, value in enumerate(values):
        total += float(value)
        if not math.isfinite(total):
            raise LevelFailure(level, f"overflow in the sum of level {what}")
    return total


@dataclass(frozen=True)
class LevelData:
    """Design points and increment values for one fidelity level, read by ``kernels.as_data``.

    ``values`` holds f_l(W_l) - f_{l-1}(W_l) (f_{-1} = 0, so level 0 holds
    plain evaluations).  The level is the block's position in its list.  A 1-d
    ``points`` array is one point when there is one value, else n points on a line.
    """

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points)
        dim = pts.shape[1] if pts.ndim == 2 else max(pts.size, 1) if np.size(self.values) == 1 else 1
        points, values = as_data(pts, self.values, dim)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class LevelPosterior:
    """One level's BQ posterior mean and variance with its fit's n, kernel and nugget: the home of a per-level field."""

    n: int
    mean: float
    variance: float
    lengthscales: tuple[float, ...]
    amplitude: float
    nugget: float


@dataclass(frozen=True)
class GaussianPosterior:
    """Gaussian posterior on Pi[f]: its mean (variance) is the :func:`_total` of its ``levels``' means (variances)."""

    mean: float
    variance: float
    levels: tuple[LevelPosterior, ...]

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError(f"negative posterior variance {self.variance}")

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def credible_interval(self, level: float) -> tuple[float, float]:
        """Central two-sided interval at the given credible level, in (0, 1)."""
        z = credible_z(level)
        return self.mean - z * self.std, self.mean + z * self.std


def credible_z(level: float) -> float:
    """The central standard-normal quantile z, with P(|Z| <= z) = level; a level outside (0, 1) is a ValueError."""
    if not 0 < level < 1:
        raise ValueError(f"credible level must lie in (0, 1), got {level}")
    return float(ndtri(0.5 * (1.0 + level)))


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------


def mlmc_estimate(levels) -> float:
    """Multilevel Monte Carlo: the :func:`_total` of per-level increment means, each by :func:`_each_level`."""
    if len(levels) == 0:
        raise ValueError("mlmc_estimate needs at least one level")
    return _total(_each_level(lambda level: level.values.mean(), levels), "means")


# ---------------------------------------------------------------------------
# Bayesian quadrature
# ---------------------------------------------------------------------------


def bq_posterior(fit: GPFit, measure: ProductMeasure) -> GaussianPosterior:
    """Gaussian posterior on Pi[f] from a conditioned zero-mean GP, with its one :class:`LevelPosterior`.

    mean = Pi[c(., W)] @ weights and variance = Pi[Pi[c]] - Pi[c(., W)] K^-1 Pi[c(W, .)], with the same
    (gram + nugget) system the fit used.  A variance below zero by less than 1e-10 times max(amplitude, 1)
    is roundoff and reads 0.  A design point off the measure's support is :func:`kernel_mean`'s ValueError.
    """
    embedding = kernel_mean(fit.kernel, measure, fit.points)
    post_mean = float(embedding @ fit.weights)
    var = initial_error(fit.kernel, measure) - _quad_form(fit.chol, embedding)
    if -1e-10 * max(fit.kernel.amplitude, 1.0) < var < 0:
        var = 0.0
    if not var >= 0:  # a NaN too: a non-finite embedding makes a NaN or -inf variance
        raise FloatingPointError(f"BQ variance {var} below the clamp window or not a number")
    level = LevelPosterior(fit.n, post_mean, var, fit.kernel.lengthscales, fit.kernel.amplitude, fit.nugget)
    return GaussianPosterior(post_mean, var, (level,))


def mlbq_estimate(fits, measure: ProductMeasure) -> GaussianPosterior:
    """Multilevel BQ: independent zero-mean per-level BQ posteriors, summed.

    ``fits`` holds one :class:`GPFit` per level, in level order 0..L, each
    conditioned on that level's increments (fit the hyperparameters and
    condition beforehand).  The sum of :func:`bq_posterior` over the fits,
    which is also how it is computed, with their ``levels`` in level order;
    on one fit it is single-level BQ.  A failure is a :class:`LevelFailure`.
    """
    if len(fits) == 0:
        raise ValueError("mlbq_estimate needs at least one level")
    levels = tuple(_each_level(lambda fit: bq_posterior(fit, measure).levels[0], fits))
    return GaussianPosterior(_total([lv.mean for lv in levels], "means"),
                             _total([lv.variance for lv in levels], "variances"), levels)
