"""Zero-mean Gaussian process conditioning, profiled likelihood and hyperparameters.

Everything works from one factor L = chol(C + nu I) of the unit-amplitude Gram matrix C, the nugget nu
being relative to the amplitude: sigma L factors sigma^2 (C + nu I), so one factorisation gives the
amplitude MLE, the profiled likelihood and the fit at any amplitude.  Each factorisation is LAPACK potrf
on the lower triangle, made in place by the one nugget ladder ``_factor``, which refills its matrix when
potrf fails.  A fit holds one n x n array and one block buffer: it builds only the Gram triangle potrf
reads, factors it and rescales it in place.  Every solve against a factor is made here: the weights by
potrs, and each |L^-1 v|^2 (the amplitude MLE, the likelihood, the BQ variance) by one trtrs forward solve
in ``_quad_form``.  Per level, the amplitude is chosen in closed form and the lengthscales by maximising
the profiled marginal log-likelihood, tied or per dimension: the best point of a log-grid, refined by a
compass search that only compares likelihood values.  The search sets up once per fit and keeps its
triangles in LAPACK packed storage (n(n+1)/2 doubles each): at each rung it unpacks its product into a
fresh matrix that it factors in place.  It factors no point twice and matches the public profiled
likelihood bit for bit.  Each axis keeps one correlation array, at its last value, but a grid of k >= 2
coordinates holds its fastest one's at all ``JOINT_GRID`` values until its best point is known: 16 passes
in 2-d, not 72.  Data are read by ``kernels.as_data``, which checks them to be finite, and ``cholesky``
refuses a non-finite factor, so a non-finite Gram matrix is a ValueError.  Everything here is pure;
``GPFit`` is immutable.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtpttr, dtrtrs, dtrttp

from .kernels import Kernel, _gram, as_data

__all__ = [
    "GPFit",
    "SingularGramError",
    "fit_gp",
    "mle_amplitude",
    "profiled_log_marginal_likelihood",
    "fit_hyperparameters",
]

# Nugget ladder: relative jitter starts at the caller value (by default NUGGET) and is
# multiplied by 10 on each Cholesky failure, up to MAX_NUGGET.
NUGGET, MAX_NUGGET = 1e-10, 1e-4
# Lengthscale search: log-grid points for one searched coordinate, per axis for more, final step in log-lengthscale.
GRID_SIZE, JOINT_GRID, REL_TOL = 32, 8, 1e-4


class SingularGramError(np.linalg.LinAlgError):
    """Cholesky kept failing; carries the final nugget that was tried."""

    def __init__(self, message, nugget):
        super().__init__(message, nugget)  # the constructor's arguments, which pickling calls it with
        self.nugget = nugget

    def __str__(self):
        return self.args[0]


def cholesky(matrix):
    """Lower factor by potrf (the package's one call), in place if Fortran-order float64; ``LinAlgError`` if not PD.

    potrf passes a NaN pivot, so a non-finite factor is a ValueError here, the package's one finiteness rule for
    a factor.  The diagonal is enough: a non-finite entry in row i makes the pivot L[i, i] NaN or -inf."""
    chol, info = dpotrf(matrix, lower=1, clean=1, overwrite_a=1)
    if info != 0:
        raise (np.linalg.LinAlgError if info > 0 else ValueError)(f"LAPACK potrf returned info {info}")
    if not np.isfinite(chol.diagonal()).all():
        raise ValueError("Cholesky factor is not finite: the Gram matrix is not finite")
    return chol


def _factor(fill, nugget):
    """Cholesky of the lower triangle of ``fill() + current * I``, and the ``current`` it used.

    The package's one nugget ladder.  ``fill`` returns a fresh Fortran-order matrix, which is factored in
    place: ``fit_gp``'s Gram triangle or the lengthscale search's unpacked product.  ``current`` starts at
    ``nugget``; each potrf failure has written over the matrix, so it is dropped, the next rung (10 times
    the failed one, at least 1e-11) refills, and past ``MAX_NUGGET`` the ladder raises
    :class:`SingularGramError`.
    """
    current = nugget
    while True:
        matrix = fill()
        matrix.ravel(order="K")[:: matrix.shape[0] + 1] += current
        try:
            return cholesky(matrix), current
        except np.linalg.LinAlgError:
            del matrix  # before the next fill, so one matrix is held at a time
            failed, current = current, max(current, 1e-12) * 10.0
            if failed >= MAX_NUGGET or current > MAX_NUGGET:
                raise SingularGramError(f"Gram matrix not positive definite even with nugget {failed:g}", failed) from None


def _quad_form(chol, v) -> float:
    """|L^-1 v|^2 = v' (L L')^-1 v, by one forward solve against the lower factor ``chol``."""
    half = dtrtrs(chol, v, lower=1)[0]
    return float(half @ half)


def _profiled(unit, resid) -> float:
    """Profiled marginal log-likelihood from the unit factor (its log diagonal sums to half the log-determinant)."""
    n = resid.shape[0]
    sigma2 = _quad_form(unit, resid) / n
    if sigma2 <= 0:
        return math.inf
    value = -0.5 * n * math.log(sigma2) - float(np.log(unit.diagonal()).sum()) - 0.5 * n * (1.0 + math.log(2 * math.pi))
    if not math.isfinite(value):
        raise ValueError(f"profiled log-likelihood is {value}: |L^-1 r|^2 is not finite")
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
    The package's one zero-amplitude rule: at a == 0 (the amplitude MLE on all-zero data) the process is
    zero a.s., so the fit is exact with zero weights, and nonzero observations are a SingularGramError.
    """
    a = kernel.amplitude
    if a == 0.0:
        if np.any(unit.residual != 0.0):
            raise SingularGramError("zero-amplitude kernel cannot explain nonzero observations", unit.nugget)
        return replace(unit, kernel=kernel, chol=np.eye(unit.n), weights=np.zeros(unit.n))
    if a != 1.0:
        np.multiply(unit.chol, math.sqrt(a), out=unit.chol)
    return replace(unit, kernel=kernel, weights=unit.weights / a)


def fit_gp(kernel: Kernel, points, y, nugget=NUGGET) -> GPFit:
    """Condition a GP prior on observations.

    ``nugget`` is relative jitter: ``nugget * amplitude`` is added to the Gram diagonal.  On Cholesky failure
    the nugget is escalated by factors of 10 up to 1e-4 before giving up with :class:`SingularGramError`.  The
    fit holds one n x n array: the unit Gram matrix's blocks on and right of the diagonal, whose Fortran-order
    transpose is the lower triangle potrf reads (its clean step zeroes the rest), factored and then rescaled in
    place; a failed rung drops it and builds it again.  The weights come from potrs on that factor; a
    non-finite Gram entry is :func:`cholesky`'s ValueError.
    """
    if nugget < 0:
        raise ValueError("nugget must be nonnegative")
    w, resid = as_data(points, y, kernel.dim)
    unit = kernel.with_amplitude(1.0)
    chol, used = _factor(lambda: _gram(unit, w, w, upper=True).T, nugget)
    return _scaled(GPFit(kernel, w, resid, chol, dpotrs(chol, resid, lower=1)[0], used), kernel)


def mle_amplitude(kernel: Kernel, points, y, nugget=NUGGET) -> float:
    """Closed-form amplitude MLE sigma* = sqrt(r' C^-1 r / n).

    C is the unit-amplitude Gram matrix (plus nugget); whatever amplitude
    ``kernel`` carries is ignored.  Returns sigma itself (the kernel field
    is sigma^2), which maximises the marginal log-likelihood over the
    amplitude with everything else held fixed.
    """
    return math.sqrt(_profiled_fit(kernel, points, y, nugget).kernel.amplitude)


def profiled_log_marginal_likelihood(kernel: Kernel, points, y, nugget=NUGGET) -> float:
    """Marginal log-likelihood with the amplitude profiled out in closed form.

    Equals the full Gaussian log-likelihood (the tests' dense oracle) at
    amplitude sigma*^2 and is the objective the lengthscale search maximises.
    Degenerates to +inf as the residual vanishes, so all-zero residuals are special-cased by callers.
    """
    unit = fit_gp(kernel.with_amplitude(1.0), points, y, nugget)
    return _profiled(unit.chol, unit.residual)


def _objective(kernel, w, resid, nugget, table=()):
    """The profiled LML as a memoised function of a tuple of per-axis log-lengthscales.

    Works on the lower triangle potrf reads, in LAPACK packed storage: each axis's distances |w_r - w_c| are
    packed once by trttp.  Each axis keeps its correlations at the last log-lengthscale it was evaluated at,
    so a point that moves one axis runs one correlation pass.  The last axis also reads ``table``, the
    caller's dict from log-lengthscales to correlations (None until computed), one pass per key until the
    caller empties it.  An evaluation multiplies the factors' correlations left to right, the order ``gram``
    uses, into one packed product buffer (in 1-d the product is the axis's correlations), and its fill
    unpacks that by tpttr into a fresh Fortran-order matrix; ``_factor`` calls it again at each rung after
    potrf fails (the failed factor wrote over the matrix).  Between evaluations nothing n x n is held.
    """
    n = w.shape[0]
    # per axis: [packed distances, log-lengthscale of the correlations, correlations]
    axes = [[dtrttp(np.abs(w[:, j, None] - w[:, j]), uplo="L")[0], None, None] for j in range(kernel.dim)]
    product = np.empty_like(axes[0][0]) if kernel.dim > 1 else None

    @functools.cache
    def objective(log_gs):
        for f, axis, log_g in zip(kernel.factors, axes, log_gs):
            if axis[1] != log_g:
                axis[2] = None  # dropped before the pass: one correlation array per axis, bar the table's
                if axis is axes[-1] and log_g in table:
                    if table[log_g] is None:
                        table[log_g] = f.corr_at(axis[0], math.exp(log_g))
                    axis[1:] = log_g, table[log_g]
                else:
                    axis[1:] = log_g, f.corr_at(axis[0], math.exp(log_g))
        corr = functools.reduce(functools.partial(np.multiply, out=product), [axis[2] for axis in axes])
        return _profiled(_factor(lambda: dtpttr(n, corr, uplo="L")[0], nugget)[0], resid)

    return objective


def _compass_max(value, x, step, top, tol):
    """Comparison-only compass search of ``value`` from the tuple ``x`` in [0, top]^d.

    It polls +step and -step on each axis in turn, clipped to [0, top], and moves to the first poll that
    beats ``x``; when none does, it halves ``step``, and it stops once ``step`` is below ``tol``.  With
    ``x``, ``step`` and ``top`` dyadic, every poll is exact, so a point met again is the same point.
    """
    while step >= tol:
        polls = (x[:j] + (min(max(x[j] + s, 0), top),) + x[j + 1 :] for j in range(len(x)) for s in (step, -step))
        x, step = next(((p, step) for p in polls if value(p) > value(x)), (x, step / 2.0))
    return x


def _fit_lengthscales(kernel, points, y, bounds, per_dimension=False, nugget=NUGGET) -> Kernel:
    """The lengthscale search of :func:`fit_hyperparameters`; the amplitude is left as it is.

    One objective and one search per call, over k coordinates: each axis has its own under ``per_dimension``,
    else all share one.  The search starts at the best point of a log-grid, ``GRID_SIZE`` points when k is 1
    and ``JOINT_GRID`` per axis otherwise, and refines it by :func:`_compass_max` from half the grid spacing
    (the grid answers the polls at its own spacing).  When k >= 2 the grid repeats its last, fastest
    coordinate's values, so their correlations are tabled until the grid's best point is known: 16 passes
    in 2-d, not 72, for at most ``JOINT_GRID`` arrays of n(n+1)/2 doubles, dropped before the compass.
    """
    lo, hi = float(bounds[0]), float(bounds[1])
    if not (0 < lo < hi):
        raise ValueError(f"bounds must satisfy 0 < lo < hi, got ({lo}, {hi})")
    if nugget < 0:
        raise ValueError("nugget must be nonnegative")
    w, resid = as_data(points, y, kernel.dim)
    if w.shape[0] < 2:
        raise ValueError("hyperparameter fitting needs at least 2 points")
    if np.max(np.abs(resid)) == 0.0:
        return kernel.with_lengthscales(math.sqrt(lo * hi))
    log_lo, log_hi = math.log(lo), math.log(hi)
    k = kernel.dim if per_dimension else 1
    top = (GRID_SIZE if k == 1 else JOINT_GRID) - 1
    h = (log_hi - log_lo) / top

    def to_log(t):  # the log-lengthscales at grid units t, as np.linspace places the grid t = 0, ..., top
        logs = [log_hi if u == top else log_lo + h * u for u in t]
        return tuple(logs * (kernel.dim // k))

    table = dict.fromkeys(to_log(range(top + 1))) if k > 1 else {}  # k == 1 moves every axis at once
    objective = _objective(kernel, w, resid, nugget, table)
    start = max(itertools.product(range(top + 1), repeat=k), key=lambda t: objective(to_log(t)))
    table.clear()
    best = to_log(_compass_max(lambda t: objective(to_log(t)), start, 0.5, top, REL_TOL / h))
    return kernel.with_lengthscales([math.exp(g) for g in best])


def _profiled_fit(kernel, points, y, nugget=NUGGET) -> GPFit:
    """The GP at the amplitude MLE sigma*^2 = |L^-1 r|^2 / n: the fit at amplitude 1, rescaled."""
    unit = fit_gp(kernel.with_amplitude(1.0), points, y, nugget)
    sigma = math.sqrt(_quad_form(unit.chol, unit.residual) / unit.n)
    return _scaled(unit, kernel.with_amplitude(sigma * sigma))


def fit_hyperparameters(
    kernel: Kernel,
    points,
    y,
    *,
    bounds,
    per_dimension=False,
    nugget=NUGGET,
) -> GPFit:
    """Fit lengthscale(s) and amplitude by profiled marginal likelihood; the GP conditioned at them.

    Without ``per_dimension`` all axes are tied to one lengthscale; with it,
    each axis gets its own.  The search starts at the best point of a
    log-grid over ``bounds`` (endpoints included), of
    ``GRID_SIZE`` points for one searched coordinate and ``JOINT_GRID`` points
    per axis for more, and refines it by a compass search: it polls one step up
    and down each coordinate, clipped to ``bounds``, moves to the first poll
    that beats the current point, and halves the step (from half the grid
    spacing) when none does, down to ``REL_TOL`` in log-lengthscale.  It only
    compares likelihood values, so it is derivative-free and deterministic
    given its inputs.  The returned fit's kernel carries the optimal
    lengthscales and amplitude sigma*^2; the fit is the one :func:`fit_gp`
    makes with that kernel, from the same one factorisation that gave the
    amplitude.

    Flat objectives (residuals identically zero, so any lengthscale is
    admissible) tie-break to the geometric midpoint of ``bounds``.
    """
    fitted = _fit_lengthscales(kernel, points, y, bounds, per_dimension, nugget)
    return _profiled_fit(fitted, points, y, nugget)
