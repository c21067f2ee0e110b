"""Zero-mean Gaussian process conditioning, profiled likelihood and hyperparameters.

Everything works from one factor L = chol(C + nu I) of the unit-amplitude Gram
matrix C, the nugget nu being relative to the amplitude: sigma L factors
sigma^2 (C + nu I), so one factorisation gives the amplitude MLE, the
profiled likelihood and the fit at any amplitude.  Each factorisation is LAPACK potrf
on the lower triangle, made in place by the one nugget ladder ``_factor``, which
refills its matrix when potrf fails.  A fit holds one n x n array: the Gram matrix,
factored and rescaled in place.  Per level, the amplitude is chosen in closed
form and the lengthscale by maximising the profiled marginal log-likelihood
(log grid, then golden section), one lengthscale shared by the searched axes:
all axes tied, or one axis at a time.  The search sets up once per fit, factors
its own work matrix in place, reuses repeated searches exactly and matches the
public profiled likelihood bit for bit.  Searches after the first sweep climb
the grid from their axes' last peak instead of scanning it all.
Data are checked to be finite where they enter; a non-finite Gram matrix or
likelihood raises.  Everything here is pure; ``GPFit`` is immutable.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpotrf, dtrtrs

from .kernels import Kernel, as_points, gram

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
# Lengthscale search: log-grid points, golden-section tolerance in log-lengthscale, rounds over the axes.
GRID_SIZE, REL_TOL, SWEEPS = 32, 1e-4, 3


class SingularGramError(np.linalg.LinAlgError):
    """Cholesky kept failing; carries the final nugget that was tried."""

    def __init__(self, message, nugget):
        super().__init__(message)
        self.nugget = nugget


def cholesky(matrix):
    """Lower factor by potrf (the package's one call), in place if Fortran-order float64; ``LinAlgError`` if not PD."""
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


def _factor(fill, nugget):
    """Cholesky of the lower triangle of ``fill() + current * I``, and the ``current`` it used.

    The package's one nugget ladder.  ``fill`` returns a fresh Fortran-order matrix, which is factored in
    place.  ``current`` starts at ``nugget``; each potrf failure has written over the matrix, so it is
    dropped, the next rung (10 times the failed one, at least 1e-11) refills, and past ``MAX_NUGGET``
    the ladder raises :class:`SingularGramError`.
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


def fit_gp(kernel: Kernel, points, y, nugget=NUGGET) -> GPFit:
    """Condition a GP prior on observations.

    ``nugget`` is relative jitter: ``nugget * amplitude`` is added to the
    Gram diagonal.  On Cholesky failure the nugget is escalated by factors
    of 10 up to 1e-4 before giving up with :class:`SingularGramError`.
    The fit holds one n x n array: the unit Gram matrix's transpose (equal,
    and Fortran-order), factored and then rescaled in place; a failed rung
    drops it and builds it again.
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


def _golden_max(fn, lo, hi):
    """Golden-section maximisation on [lo, hi] (works in log-lengthscale)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > REL_TOL:
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


def _axis_objective(kernel, axes, packed, resid, nugget):
    """The profiled LML as a function of one log-lengthscale shared by the searched ``axes`` (a tuple).

    Works on the packed lower triangle potrf reads (``packed``, from ``_packed_pairs``): each factor's
    term, ``(factor, distances)`` if searched and ``(None, values)`` if not, is computed once per axis
    search, and an evaluation multiplies the factors' values left to right, the order ``gram`` uses.
    Each evaluation's fill scatters the product into the work matrix; ``_factor`` calls it again at each
    rung after potrf fails (the failed factor wrote over the triangle).
    """
    work, at, coords = packed
    lower = work.ravel(order="F")  # a view of work
    terms = [(f, np.abs(x - x2)) if j in axes and hasattr(f, "lengthscale") else (None, f.corr(x, x2))
             for j, (f, (x, x2)) in enumerate(zip(kernel.factors, coords))]

    def objective(log_g):
        g = math.exp(log_g)
        corr = functools.reduce(operator.mul, [term if f is None else f.corr_at(term, g) for f, term in terms])

        def fill():
            lower[at] = corr
            return work

        return _profiled(_factor(fill, nugget)[0], resid)

    return objective


def _optimise_axis(kernel, axes, packed, resid, bounds, nugget, start=None):
    """1-d profiled-LML search over the lengthscale of the searched ``axes``; the kernel and its grid peak.

    From ``start``, an inner grid index, the search climbs the grid to the first point that neither
    neighbour beats, stepping left when the left neighbour beats it and else right, and evaluates each
    point at most once.  With no ``start``, or one on the grid's edge (a profile flat toward a bound), it
    scans the whole grid.  Golden section then refines between the peak's neighbours.
    """
    objective = _axis_objective(kernel, axes, packed, resid, nugget)
    grid = np.linspace(math.log(bounds[0]), math.log(bounds[1]), GRID_SIZE)
    if start in (None, 0, GRID_SIZE - 1):
        best = int(np.argmax([objective(g) for g in grid]))
    else:
        value = functools.cache(lambda i: objective(grid[i]) if 0 <= i < GRID_SIZE else -math.inf)
        best = start
        while (step := next((j for j in (best - 1, best + 1) if value(j) > value(best)), best)) != best:
            best = step
    left = grid[max(best - 1, 0)]
    right = grid[min(best + 1, GRID_SIZE - 1)]
    g = math.exp(_golden_max(objective, left, right))
    return kernel.with_lengthscales([g if j in axes else l for j, l in enumerate(kernel.lengthscales)]), best


def _fit_lengthscales(kernel, points, y, bounds, per_dimension=False, nugget=NUGGET) -> Kernel:
    """The lengthscale search of :func:`fit_hyperparameters`; the amplitude is left as it is.

    Set up once per call.  The searched axes are ``(j,)`` for each axis j in turn, over ``SWEEPS`` sweeps,
    with ``per_dimension``, and else all axes, tied, once.  The first sweep scans each search's grid;
    later sweeps climb it from that search's last peak.  A search reads neither its own factors'
    lengthscales nor the amplitude, so one whose other factors equal an earlier search's on the same
    axes returns its kernel and peak, not run again (in one dimension, every sweep after the first).
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
    # searched: (axes, the other factors) -> (fitted kernel, grid peak); peaks: axes -> their last grid peak
    packed, searched, peaks = _packed_pairs(w), {}, {}
    for axes in [(j,) for j in range(kernel.dim)] * SWEEPS if per_dimension else [tuple(range(kernel.dim))]:
        key = (axes, tuple(f for j, f in enumerate(fitted.factors) if j not in axes))
        if key not in searched:
            searched[key] = _optimise_axis(fitted, axes, packed, resid, (lo, hi), nugget, peaks.get(axes))
        fitted, peaks[axes] = searched[key]
    return fitted


def _profiled_fit(kernel, points, y, nugget=NUGGET) -> GPFit:
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
    nugget=NUGGET,
) -> GPFit:
    """Fit lengthscale(s) and amplitude by profiled marginal likelihood; the GP conditioned at them.

    The search is a ``GRID_SIZE``-point log-space grid over ``bounds``
    followed by golden-section refinement to ``REL_TOL`` in log-lengthscale
    between the grid peak's neighbours.  Without ``per_dimension`` the
    searched axes are all axes, tied to one lengthscale; with it they are one
    axis at a time, over ``SWEEPS`` sweeps: the first sweep scans each axis's
    grid, later ones climb it from that axis's previous peak (a peak on the
    grid's edge is scanned again), so a later search can stop at a lower
    local peak than a full scan would find.  It is
    derivative-free and deterministic given its inputs.  The
    returned fit's kernel carries the optimal lengthscales and amplitude
    sigma*^2; the fit is the one :func:`fit_gp` makes with that kernel,
    from the same one factorisation that gave the amplitude.

    Flat objectives (residuals identically zero, so any lengthscale is
    admissible) tie-break to the geometric midpoint of ``bounds``.
    """
    fitted = _fit_lengthscales(kernel, points, y, bounds, per_dimension, nugget)
    return _profiled_fit(fitted, points, y, nugget)
