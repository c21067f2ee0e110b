"""Zero-mean Gaussian process conditioning, marginal likelihood and hyperparameters.

Everything works from one factor L = chol(C + nu I) of the unit-amplitude Gram
matrix C, the nugget nu being relative to the amplitude: sigma L factors
sigma^2 (C + nu I), so one factorisation gives the amplitude MLE, the
likelihoods and the fit at any amplitude.  Each factorisation is LAPACK potrf
on the lower triangle.  A fit holds one n x n array: the Gram matrix, factored
and rescaled in place; only the nugget ladder, when potrf fails, copies, and it
never writes the caller's matrix.  Per level, the amplitude is chosen in closed
form and the lengthscale by maximising the profiled marginal log-likelihood
(log grid, then golden section).  The search sets up once per fit, factors its
own work matrix in place, reuses repeated axis searches exactly and matches the
public profiled likelihood bit for bit.  Data are checked to be finite where
they enter; a non-finite Gram matrix or likelihood raises.  Everything here is
pure; ``GPFit`` is immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.linalg.lapack import dpotrf, dtrtrs

from .kernels import Kernel, Matern, SquaredExponential, as_points, gram

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


def cholesky(matrix):
    """Lower factor by LAPACK potrf, in place if ``matrix`` is Fortran-order float64; ``LinAlgError`` if not PD."""
    chol, info = dpotrf(matrix, lower=1, clean=1, overwrite_a=1)
    if info != 0:
        raise (np.linalg.LinAlgError if info > 0 else ValueError)(f"LAPACK potrf returned info {info}")
    return chol


def _data(kernel, points, y):
    """(n, dim) points and a copy of the observations, checked to be finite."""
    w, yv = as_points(points, kernel.dim), np.array(y, dtype=float).reshape(-1)
    if not 0 < w.shape[0] == yv.shape[0]:
        raise ValueError(f"need matching nonempty data, got {w.shape[0]} points and {yv.shape[0]} observations")
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(yv))):
        raise ValueError("GP points and observations must be finite")
    return w, yv


def _chol_with_ladder(matrix, scale, nugget):
    """Cholesky of the lower triangle of matrix + nugget*scale*I, escalating the nugget 10x.

    The only nugget ladder; each rung factors a shifted copy, so ``matrix`` is never written.
    """
    current = nugget
    while True:
        try:
            shifted = np.array(matrix, order="F")
            shifted.flat[:: shifted.shape[0] + 1] += current * scale
            return cholesky(shifted), current
        except np.linalg.LinAlgError:
            current = _next_rung(current)


def _next_rung(failed):
    """The nugget after ``failed`` on the ladder; ``SingularGramError`` if ``failed`` was the last rung."""
    nxt = max(failed, 1e-12) * 10.0
    if failed >= MAX_NUGGET or nxt > MAX_NUGGET:
        raise SingularGramError(f"Gram matrix not positive definite even with nugget {failed:g}", failed) from None
    return nxt


def _factor(fill, nugget):
    """Cholesky of ``fill() + nugget * I``, a fresh Fortran-order matrix: the ladder's first rung, in place.

    If potrf fails it has written over the matrix, so a second ``fill()`` goes to the ladder's next rung.
    """
    matrix = fill()
    matrix.ravel(order="K")[:: matrix.shape[0] + 1] += nugget  # at scale 1, as the ladder adds it
    try:
        return cholesky(matrix), nugget
    except np.linalg.LinAlgError:
        return _chol_with_ladder(fill(), 1.0, _next_rung(nugget))


def _logdet(chol) -> float:
    """log det(chol chol') from the factor's diagonal."""
    return 2.0 * float(np.log(chol.diagonal()).sum())


def _profiled(unit, resid) -> float:
    """Profiled marginal log-likelihood from the unit factor; +inf for vanishing residuals."""
    half = dtrtrs(unit, resid, lower=1)[0]
    n = resid.shape[0]
    sigma2 = float(half @ half) / n
    if sigma2 <= 0:
        return math.inf
    value = -0.5 * n * math.log(sigma2) - 0.5 * _logdet(unit) - 0.5 * n * (1.0 + math.log(2 * math.pi))
    if not math.isfinite(value):
        raise ValueError(f"profiled log-likelihood is {value}: the Gram matrix or its factor is not finite")
    return value


@dataclass(frozen=True)
class GPFit:
    """Conditioned GP: kernel, design, Cholesky factor and weight vector.

    ``chol`` is the lower factor of ``gram(kernel, points) +
    nugget * amplitude * I`` and ``weights`` solves that system against the
    observations ``residual``, so the posterior mean at x is
    ``c(x, W) @ weights``.
    """

    kernel: Kernel
    points: np.ndarray
    residual: np.ndarray
    chol: np.ndarray
    weights: np.ndarray
    nugget: float

    @property
    def n(self) -> int:
        return self.points.shape[0]


def _scaled(unit, kernel) -> GPFit:
    """The fit ``unit``, made at amplitude 1, at ``kernel``'s amplitude a: chol * sqrt(a), weights / a.

    ``unit`` is used up: its factor is rescaled in place (not at a == 1, where the product is exact).
    """
    a = kernel.amplitude
    if a == 0.0:
        # Degenerate prior (arises from amplitude estimation on constant
        # data): the process is zero a.s., so the fit is exact with
        # zero weights -- but only if the observations really vanish.
        if np.any(unit.residual != 0.0):
            raise SingularGramError("zero-amplitude kernel cannot explain nonzero observations", unit.nugget)
        return replace(unit, kernel=kernel, chol=np.eye(unit.n), weights=np.zeros(unit.n))
    if a != 1.0:
        np.multiply(unit.chol, math.sqrt(a), out=unit.chol)
    return replace(unit, kernel=kernel, weights=unit.weights / a)


def fit_gp(kernel: Kernel, points, y, nugget=1e-10) -> GPFit:
    """Condition a GP prior on observations.

    ``nugget`` is relative jitter: ``nugget * amplitude`` is added to the
    Gram diagonal.  On Cholesky failure the nugget is escalated by factors
    of 10 up to 1e-4 before giving up with :class:`SingularGramError`.
    The fit holds one n x n array: the unit Gram matrix's transpose (equal,
    and Fortran-order), factored and then rescaled in place.
    """
    if nugget < 0:
        raise ValueError("nugget must be nonnegative")
    w, resid = _data(kernel, points, y)
    if kernel.amplitude == 0.0:  # nothing to factor
        return _scaled(GPFit(kernel, w, resid, None, None, nugget), kernel)
    # cho_solve checks the factor: a non-finite Gram matrix raises ValueError
    unit = kernel.with_amplitude(1.0)
    chol, used = _factor(lambda: gram(unit, w).T, nugget)
    return _scaled(GPFit(kernel, w, resid, chol, cho_solve((chol, True), resid), used), kernel)


def gp_posterior_at(fit: GPFit, x):
    """Posterior mean and variance at one point or a batch of points.

    Variances are clamped to zero when roundoff drives them into
    ``(-1e-10 * amplitude, 0)``.
    """
    pts = as_points(x, fit.kernel.dim)
    cross = gram(fit.kernel, pts, fit.points)
    mean = cross @ fit.weights
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


def log_marginal_likelihood(kernel: Kernel, points, y, nugget=1e-10) -> float:
    """Standard Gaussian marginal log-likelihood.

    -1/2 r' K^-1 r - 1/2 log|K| - n/2 log(2 pi), where K is the full
    covariance including the amplitude and the nugget, and the log
    determinant comes off the Cholesky diagonal.
    """
    if kernel.amplitude == 0.0:
        raise SingularGramError("a zero-amplitude prior has no density", nugget)
    fit = fit_gp(kernel, points, y, nugget)
    return float(-0.5 * fit.residual @ fit.weights - 0.5 * _logdet(fit.chol) - 0.5 * fit.n * math.log(2 * math.pi))


def mle_amplitude(kernel: Kernel, points, y, nugget=1e-10) -> float:
    """Closed-form amplitude MLE sigma* = sqrt(r' C^-1 r / n).

    C is the unit-amplitude Gram matrix (plus nugget); whatever amplitude
    ``kernel`` carries is ignored.  Returns sigma itself (the kernel field
    is sigma^2), which maximises the marginal log-likelihood over the
    amplitude with everything else held fixed.
    """
    return math.sqrt(_profiled_fit(kernel, points, y, nugget).kernel.amplitude)


def profiled_log_marginal_likelihood(kernel: Kernel, points, y, nugget=1e-10) -> float:
    """Marginal log-likelihood with the amplitude profiled out in closed form.

    Equals ``log_marginal_likelihood`` at amplitude sigma*^2 and is the
    objective the lengthscale search maximises.  Degenerates to +inf as the
    residual vanishes, so all-zero residuals are special-cased by callers.
    """
    unit = fit_gp(kernel.with_amplitude(1.0), points, y, nugget)
    return _profiled(unit.chol, unit.residual)


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


def _packed_pairs(w):
    """Set-up shared by a fit's axis searches: work matrix, lower-triangle offsets, per-axis pair coordinates."""
    n = w.shape[0]
    cols, rows = np.triu_indices(n)
    return np.zeros((n, n), order="F"), cols * n + rows, [(w[rows, j], w[cols, j]) for j in range(w.shape[1])]


def _axis_objective(kernel, axis, packed, resid, nugget):
    """The profiled LML as a function of one log-lengthscale (``axis=None``: all tied).

    Works on the packed lower triangle potrf reads (``packed``, from ``_packed_pairs``): distances
    and fixed factors are computed once per axis search and multiplied in the order ``gram`` uses.
    Each evaluation scatters them into the work matrix and hands it to ``_factor``, which scatters again
    if potrf fails (it wrote over the triangle).
    """
    work, at, coords = packed
    lower = work.ravel(order="F")  # a view of work
    head, rest = None, []  # rest: (searched factor, distances) or a fixed factor's values
    for j, (f, (x, x2)) in enumerate(zip(kernel.factors, coords)):
        if isinstance(f, (Matern, SquaredExponential)) and axis in (None, j):
            rest.append((f, np.abs(x - x2)))
        elif rest:
            rest.append(f.corr(x, x2))
        else:
            head = f.corr(x, x2) if head is None else head * f.corr(x, x2)

    def objective(log_g):
        corr = head
        for term in rest:
            c = term[0].corr_at(term[1], math.exp(log_g)) if isinstance(term, tuple) else term
            corr = c if corr is None else corr * c

        def fill():
            lower[at] = corr
            return work

        return _profiled(_factor(fill, nugget)[0], resid)

    return objective


def _optimise_axis(kernel, axis, packed, resid, bounds, nugget, grid_size, rel_tol):
    """1-d profiled-LML search over the lengthscale of one factor (``axis=None``: all tied)."""
    objective = _axis_objective(kernel, axis, packed, resid, nugget)
    lo, hi = math.log(bounds[0]), math.log(bounds[1])
    grid = np.linspace(lo, hi, grid_size)
    vals = np.array([objective(g) for g in grid])
    best = int(np.argmax(vals))
    left = grid[max(best - 1, 0)]
    right = grid[min(best + 1, grid_size - 1)]
    g = math.exp(_golden_max(objective, left, right, rel_tol))
    if axis is None:
        return kernel.with_lengthscales(g)
    ls = list(kernel.lengthscales)
    ls[axis] = g
    return kernel.with_lengthscales(ls)


def _fit_lengthscales(
    kernel, points, y, bounds, per_dimension=False, nugget=1e-10, grid_size=32, rel_tol=1e-4, sweeps=3
) -> Kernel:
    """The lengthscale search of :func:`fit_hyperparameters`; the amplitude is left as it is.

    Set up once per call.  An axis search reads neither its own factor's lengthscale nor the amplitude,
    so one whose other factors equal an earlier search's on that axis returns its kernel, not run again.
    """
    lo, hi = float(bounds[0]), float(bounds[1])
    if not (0 < lo < hi):
        raise ValueError(f"bounds must satisfy 0 < lo < hi, got ({lo}, {hi})")
    w, resid = _data(kernel, points, y)
    if w.shape[0] < 2:
        raise ValueError("hyperparameter fitting needs at least 2 points")
    fitted = kernel.with_lengthscales(math.sqrt(lo * hi))
    if np.max(np.abs(resid)) == 0.0:
        return fitted
    per_axis = per_dimension and kernel.dim > 1
    packed, searched = _packed_pairs(w), {}  # searched: (axis, the other factors) -> fitted kernel
    for _ in range(sweeps if per_axis else 1):
        for axis in range(kernel.dim) if per_axis else [None]:
            key = (axis, tuple(f for j, f in enumerate(fitted.factors) if j != axis))
            if key not in searched:
                searched[key] = _optimise_axis(fitted, axis, packed, resid, (lo, hi), nugget, grid_size, rel_tol)
            fitted = searched[key]
    return fitted


def _profiled_fit(kernel, points, y, nugget=1e-10) -> GPFit:
    """The GP at the amplitude MLE sigma*^2 = |L^-1 r|^2 / n: the fit at amplitude 1, rescaled."""
    unit = fit_gp(kernel.with_amplitude(1.0), points, y, nugget)
    half = dtrtrs(unit.chol, unit.residual, lower=1)[0]
    sigma = math.sqrt(max(float(half @ half), 0.0) / unit.n)
    return _scaled(unit, kernel.with_amplitude(sigma * sigma))


def fit_hyperparameters(
    kernel: Kernel,
    points,
    y,
    *,
    bounds,
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
    fitted = _fit_lengthscales(kernel, points, y, bounds, per_dimension, nugget, grid_size, rel_tol, sweeps)
    return _profiled_fit(fitted, points, y, nugget).kernel
