"""Gaussian process conditioning, marginal likelihood and hyperparameters.

Fitting is plain Cholesky-based conditioning.  Hyperparameters are chosen
per level, independently of every other level: the amplitude in closed
form (``sigma* = sqrt(y' C^-1 y / n)`` with C the unit-amplitude Gram
matrix) and the lengthscale by maximising the amplitude-profiled marginal
log-likelihood with a deterministic log-grid scan plus golden-section
refinement.  Everything here is pure given its inputs; ``GPFit`` is
immutable and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from .kernels import Kernel, as_points, gram

__all__ = [
    "GPFit",
    "SingularGramError",
    "fit_gp",
    "gp_posterior_at",
    "log_marginal_likelihood",
    "mle_amplitude",
    "profiled_log_marginal_likelihood",
    "fit_hyperparameters",
]

# Nugget ladder: relative jitter starts at the caller value and is
# multiplied by 10 on each Cholesky failure, up to this ceiling.
MAX_NUGGET = 1e-4


class SingularGramError(np.linalg.LinAlgError):
    """Cholesky kept failing; carries the final nugget that was tried."""

    def __init__(self, message, nugget):
        super().__init__(message)
        self.nugget = nugget


def _center(points, y, mean):
    y = np.asarray(y, dtype=float).reshape(-1)
    if mean is None:
        return y.copy()
    m = np.asarray([mean(p) for p in points], dtype=float).reshape(-1)
    return y - m


def _chol_with_ladder(matrix, scale, nugget):
    """Cholesky of matrix + nugget*scale*I, escalating the nugget 10x."""
    n = matrix.shape[0]
    current = nugget
    while True:
        try:
            shifted = matrix if current == 0 else matrix + current * scale * np.eye(n)
            return cholesky(shifted, lower=True), current
        except np.linalg.LinAlgError:
            nxt = max(current, 1e-12) * 10.0
            if current >= MAX_NUGGET or nxt > MAX_NUGGET:
                raise SingularGramError(
                    f"Gram matrix not positive definite even with nugget {current:g}", current
                ) from None
            current = nxt


@dataclass(frozen=True)
class GPFit:
    """Conditioned GP: kernel, design, Cholesky factor and weight vector.

    ``chol`` is the lower factor of ``gram(kernel, points) +
    nugget * amplitude * I`` and ``weights`` solves that system against the
    centred observations, so the posterior mean at x is
    ``mean(x) + c(x, W) @ weights``.
    """

    kernel: Kernel
    points: np.ndarray
    residual: np.ndarray
    chol: np.ndarray
    weights: np.ndarray
    nugget: float
    mean: object = None

    @property
    def n(self) -> int:
        return self.points.shape[0]


def fit_gp(kernel: Kernel, points, y, mean=None, nugget=1e-10) -> GPFit:
    """Condition a GP prior on observations.

    ``nugget`` is relative jitter: ``nugget * amplitude`` is added to the
    Gram diagonal.  On Cholesky failure the nugget is escalated by factors
    of 10 up to 1e-4 before giving up with :class:`SingularGramError`.
    """
    w = as_points(points, kernel.dim)
    yv = np.asarray(y, dtype=float).reshape(-1)
    if w.shape[0] != yv.shape[0]:
        raise ValueError(f"{w.shape[0]} points but {yv.shape[0]} observations")
    if w.shape[0] < 1:
        raise ValueError("need at least one observation")
    if nugget < 0:
        raise ValueError("nugget must be nonnegative")
    resid = _center(w, yv, mean)
    if kernel.amplitude == 0.0:
        # Degenerate prior (arises from amplitude estimation on constant
        # data): the process equals its mean a.s., so the fit is exact
        # with zero weights -- but only if the residuals really vanish.
        if np.any(resid != 0.0):
            raise SingularGramError("zero-amplitude kernel cannot explain nonzero observations", nugget)
        return GPFit(kernel, w, resid, np.eye(w.shape[0]), np.zeros(w.shape[0]), nugget, mean)
    big = gram(kernel, w)
    chol, used = _chol_with_ladder(big, kernel.amplitude, nugget)
    weights = cho_solve((chol, True), resid)
    return GPFit(kernel, w, resid, chol, weights, used, mean)


def gp_posterior_at(fit: GPFit, x):
    """Posterior mean and variance at one point or a batch of points.

    Variances are clamped to zero when roundoff drives them into
    ``(-1e-10 * amplitude, 0)``.
    """
    pts = as_points(x, fit.kernel.dim)
    cross = gram(fit.kernel, pts, fit.points)
    mean = cross @ fit.weights
    if fit.mean is not None:
        mean = mean + np.asarray([fit.mean(p) for p in pts], dtype=float)
    half = solve_triangular(fit.chol, cross.T, lower=True)
    prior = np.full(pts.shape[0], fit.kernel.amplitude)
    for j, f in enumerate(fit.kernel.factors):
        prior *= f.corr(pts[:, j], pts[:, j])
    var = prior - np.sum(half * half, axis=0)
    amp = fit.kernel.amplitude
    var = np.where((var < 0) & (var > -1e-10 * amp), 0.0, var)
    arr_in = np.asarray(x)
    single = arr_in.ndim == 0 or (arr_in.ndim == 1 and fit.kernel.dim > 1 and arr_in.size == fit.kernel.dim)
    if single:
        return float(mean[0]), float(var[0])
    return mean, var


def log_marginal_likelihood(kernel: Kernel, points, y, mean=None, nugget=1e-10) -> float:
    """Standard Gaussian marginal log-likelihood.

    -1/2 r' K^-1 r - 1/2 log|K| - n/2 log(2 pi), where K is the full
    covariance including the amplitude and the nugget, and the log
    determinant comes off the Cholesky diagonal.
    """
    w = as_points(points, kernel.dim)
    resid = _center(w, np.asarray(y, dtype=float), mean)
    big = gram(kernel, w)
    chol, _ = _chol_with_ladder(big, kernel.amplitude, nugget)
    alpha = cho_solve((chol, True), resid)
    n = w.shape[0]
    return float(-0.5 * resid @ alpha - np.sum(np.log(np.diag(chol))) - 0.5 * n * math.log(2 * math.pi))


def mle_amplitude(kernel: Kernel, points, y, mean=None, nugget=1e-10) -> float:
    """Closed-form amplitude MLE sigma* = sqrt(r' C^-1 r / n).

    C is the unit-amplitude Gram matrix (plus nugget); whatever amplitude
    ``kernel`` carries is ignored.  Returns sigma itself (the kernel field
    is sigma^2), which maximises the marginal log-likelihood over the
    amplitude with everything else held fixed.
    """
    unit = kernel.with_amplitude(1.0)
    w = as_points(points, unit.dim)
    resid = _center(w, np.asarray(y, dtype=float), mean)
    corr = gram(unit, w)
    chol, _ = _chol_with_ladder(corr, 1.0, nugget)
    half = solve_triangular(chol, resid, lower=True)
    qform = float(half @ half)
    return math.sqrt(max(qform, 0.0) / w.shape[0])


def profiled_log_marginal_likelihood(kernel: Kernel, points, y, mean=None, nugget=1e-10) -> float:
    """Marginal log-likelihood with the amplitude profiled out in closed form.

    Equals ``log_marginal_likelihood`` at amplitude sigma*^2 and is the
    objective the lengthscale search maximises.  Degenerates to +inf as the
    residual vanishes, so all-zero residuals are special-cased by callers.
    """
    unit = kernel.with_amplitude(1.0)
    w = as_points(points, unit.dim)
    resid = _center(w, np.asarray(y, dtype=float), mean)
    corr = gram(unit, w)
    chol, _ = _chol_with_ladder(corr, 1.0, nugget)
    half = solve_triangular(chol, resid, lower=True)
    n = w.shape[0]
    sigma2 = float(half @ half) / n
    if sigma2 <= 0:
        return math.inf
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return -0.5 * n * math.log(sigma2) - 0.5 * logdet - 0.5 * n * (1.0 + math.log(2 * math.pi))


def _golden_max(fn, lo, hi, rel_tol):
    """Golden-section maximisation on [lo, hi] (works in log-lengthscale)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > rel_tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return (a + b) / 2.0


def _optimise_axis(kernel, axis, points, y, mean, bounds, nugget, grid_size, rel_tol):
    """1-d profiled-LML search over the lengthscale of one factor.

    ``axis=None`` ties all lengthscales together (shared mode).
    """

    def with_gamma(g):
        if axis is None:
            return kernel.with_lengthscales(g)
        ls = list(kernel.lengthscales)
        ls[axis] = g
        return kernel.with_lengthscales(ls)

    def objective(log_g):
        return profiled_log_marginal_likelihood(with_gamma(math.exp(log_g)), points, y, mean, nugget)

    lo, hi = math.log(bounds[0]), math.log(bounds[1])
    grid = np.linspace(lo, hi, grid_size)
    vals = np.array([objective(g) for g in grid])
    best = int(np.argmax(vals))
    left = grid[max(best - 1, 0)]
    right = grid[min(best + 1, grid_size - 1)]
    log_opt = _golden_max(objective, left, right, rel_tol)
    return with_gamma(math.exp(log_opt))


def fit_hyperparameters(
    kernel: Kernel,
    points,
    y,
    *,
    bounds,
    mean=None,
    per_dimension=False,
    nugget=1e-10,
    grid_size=32,
    rel_tol=1e-4,
    sweeps=3,
) -> Kernel:
    """Fit lengthscale(s) and amplitude by profiled marginal likelihood.

    The search is a 32-point log-space grid over ``bounds`` followed by
    golden-section refinement (relative tolerance ``rel_tol``), cycled over
    dimensions for ``sweeps`` rounds when ``per_dimension`` is set.  It is
    derivative-free and deterministic given its inputs.  The returned
    kernel carries the optimal lengthscales and amplitude sigma*^2.

    Flat objectives (residuals identically zero, so any lengthscale is
    admissible) tie-break to the geometric midpoint of ``bounds``.
    """
    lo, hi = float(bounds[0]), float(bounds[1])
    if not (0 < lo < hi):
        raise ValueError(f"bounds must satisfy 0 < lo < hi, got ({lo}, {hi})")
    w = as_points(points, kernel.dim)
    if w.shape[0] < 2:
        raise ValueError("hyperparameter fitting needs at least 2 points")
    resid = _center(w, np.asarray(y, dtype=float), mean)
    if np.max(np.abs(resid)) == 0.0:
        mid = math.sqrt(lo * hi)
        return kernel.with_lengthscales(mid).with_amplitude(0.0)
    fitted = kernel.with_lengthscales(math.sqrt(lo * hi))
    if per_dimension and kernel.dim > 1:
        for _ in range(sweeps):
            for axis in range(kernel.dim):
                fitted = _optimise_axis(fitted, axis, w, y, mean, (lo, hi), nugget, grid_size, rel_tol)
    else:
        fitted = _optimise_axis(fitted, None, w, y, mean, (lo, hi), nugget, grid_size, rel_tol)
    sigma = mle_amplitude(fitted, w, y, mean, nugget)
    return fitted.with_amplitude(sigma * sigma)
