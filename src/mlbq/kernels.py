"""Covariance functions, Gram matrices and closed-form kernel integrals.

Kernels are tensor products of one-dimensional factors (Matern with
smoothness 1/2 or 5/2, squared exponential, Brownian motion) scaled by a
single global amplitude ``sigma2``.  Integration measures are products of
one-dimensional marginals (uniform on an interval, or standard normal).
The kernel mean ``Pi[c(., x)]`` and the initial error ``Pi[Pi[c]]`` come from
``_CLOSED_FORMS``, the one table of (factor kind, marginal kind) pairs with closed
forms (any other pair raises :class:`NoClosedFormError`); both factorise over
dimensions because kernel and measure are products.  For a stationary factor under
N(0, 1), X - Y ~ N(0, 2), so its initial error is its kernel mean at 0 with the
lengthscale divided by sqrt(2).

Conventions (shared with the rest of the package):

* squared exponential: ``exp(-(x - y)^2 / gamma^2)`` (no factor 2),
* Matern 1/2: ``exp(-|x - y| / gamma)``,
* Matern 5/2: ``(1 + sqrt(5) r / gamma + 5 r^2 / (3 gamma^2))
  * exp(-sqrt(5) r / gamma)``,
* Brownian motion: ``min(x, y)`` on the nonnegative half line.

erf/erfc/erfcx are taken from ``scipy.special`` (Cephes/Boost rational
approximations, absolute error below 1e-15, well inside the 1e-12 budget
the closed forms require).  The Matern-5/2 Gaussian kernel mean multiplies
huge ``exp`` terms by tiny ``erfc`` terms; it is evaluated through the
scaled complement ``erfcx`` so it cannot overflow for any finite input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import erf, erfcx

__all__ = [
    "Matern",
    "SquaredExponential",
    "BrownianMotion",
    "Kernel",
    "Uniform",
    "StandardNormal",
    "ProductMeasure",
    "NoClosedFormError",
    "gram",
    "kernel_mean",
    "initial_error",
    "as_points",
    "as_data",
]

_SQRT5 = math.sqrt(5.0)
_SQRT2 = math.sqrt(2.0)
_SQRTPI = math.sqrt(math.pi)


class NoClosedFormError(ValueError):
    """Raised when a (kernel factor, marginal) pair has no closed form."""


# ---------------------------------------------------------------------------
# kernel factors and the product kernel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Matern:
    """One-dimensional Matern factor with smoothness 1/2 or 5/2."""

    nu: float
    lengthscale: float

    def __post_init__(self):
        if self.nu not in (0.5, 2.5):
            raise ValueError(f"unsupported Matern smoothness nu={self.nu}; use 0.5 or 2.5")
        if not (self.lengthscale > 0 and math.isfinite(self.lengthscale)):
            raise ValueError(f"lengthscale must be positive and finite, got {self.lengthscale}")

    @property
    def kind(self) -> str:
        return f"Matern(nu={self.nu})"

    def corr(self, x, y, out=None):
        return self.corr_at(np.abs(np.subtract(x, y, out=out), out=out), self.lengthscale, out)

    def corr_at(self, dist, lengthscale, out=None):
        """Correlation at distances ``dist`` under ``lengthscale`` (not validated), into ``out`` (may be ``dist``)."""
        if self.nu == 0.5:
            s = np.asarray(np.divide(dist, lengthscale, out=out))
            return np.exp(np.negative(s, out=s), out=s)
        s = np.asarray(dist / lengthscale)  # (1 + s + s^2/3) exp(-s) in place, in that operation order
        s *= _SQRT5
        out = np.multiply(s, s, out=out)
        out /= 3.0
        out += 1.0 + s
        out *= np.exp(np.negative(s, out=s), out=s)
        return out


@dataclass(frozen=True)
class SquaredExponential:
    """One-dimensional squared exponential factor, exp(-(x-y)^2/gamma^2)."""

    kind = "SquaredExponential"
    lengthscale: float

    def __post_init__(self):
        if not (self.lengthscale > 0 and math.isfinite(self.lengthscale)):
            raise ValueError(f"lengthscale must be positive and finite, got {self.lengthscale}")

    def corr(self, x, y, out=None):
        return self.corr_at(np.abs(np.subtract(x, y, out=out), out=out), self.lengthscale, out)

    def corr_at(self, dist, lengthscale, out=None):
        """Correlation at distances ``dist`` under ``lengthscale`` (not validated), into ``out`` if given."""
        s = np.asarray(np.divide(dist, lengthscale, out=out))
        return np.exp(np.negative(np.square(s, out=s), out=s), out=s)


@dataclass(frozen=True)
class BrownianMotion:
    """Brownian motion factor min(x, y); no lengthscale, not stationary."""

    kind = "BrownianMotion"

    def corr(self, x, y, out=None):
        return np.minimum(x, y, out=out)


Factor = Matern | SquaredExponential | BrownianMotion


@dataclass(frozen=True)
class Kernel:
    """Tensor-product covariance with a single global amplitude sigma2.

    ``factors`` holds one factor per input dimension; the value of the
    kernel at (x, y) is ``amplitude * prod_j factors[j].corr(x_j, y_j)``.
    Instances are immutable and safe to share across threads.
    """

    factors: tuple[Factor, ...]
    amplitude: float = 1.0

    def __post_init__(self):
        if len(self.factors) == 0:
            raise ValueError("kernel needs at least one factor")
        # amplitude 0 is a degenerate prior that can come out of amplitude
        # estimation on constant data; negative amplitudes are rejected.
        if not (self.amplitude >= 0 and math.isfinite(self.amplitude)):
            raise ValueError(f"amplitude must be nonnegative and finite, got {self.amplitude}")

    @property
    def dim(self) -> int:
        return len(self.factors)

    @property
    def lengthscales(self) -> tuple[float, ...]:
        """Per-dimension lengthscales (nan for Brownian factors)."""
        return tuple(getattr(f, "lengthscale", math.nan) for f in self.factors)

    # -- constructors -------------------------------------------------------

    @classmethod
    def matern(cls, nu, lengthscale, dim=1, amplitude=1.0) -> "Kernel":
        ls = _per_dim(lengthscale, dim)
        return cls(tuple(Matern(nu, g) for g in ls), amplitude)

    @classmethod
    def squared_exponential(cls, lengthscale, dim=1, amplitude=1.0) -> "Kernel":
        ls = _per_dim(lengthscale, dim)
        return cls(tuple(SquaredExponential(g) for g in ls), amplitude)

    @classmethod
    def brownian(cls, amplitude=1.0) -> "Kernel":
        return cls((BrownianMotion(),), amplitude)

    # -- derived kernels -----------------------------------------------------

    def with_amplitude(self, amplitude: float) -> "Kernel":
        return Kernel(self.factors, amplitude)

    def with_lengthscales(self, lengthscales) -> "Kernel":
        ls = _per_dim(lengthscales, self.dim)
        new = (replace(f, lengthscale=g) if hasattr(f, "lengthscale") else f for f, g in zip(self.factors, ls))
        return Kernel(tuple(new), self.amplitude)


def _per_dim(value, dim) -> tuple[float, ...]:
    """Broadcast a scalar or per-dimension sequence to a length-dim tuple."""
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.size == 1:
        return tuple(float(arr[0]) for _ in range(dim))
    if arr.size != dim:
        raise ValueError(f"expected 1 or {dim} lengthscales, got {arr.size}")
    return tuple(float(v) for v in arr)


# ---------------------------------------------------------------------------
# product measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Uniform:
    """Uniform marginal on a finite interval [a, b]."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a < self.b):
            raise ValueError(f"uniform marginal needs finite a < b, got [{self.a}, {self.b}]")


@dataclass(frozen=True)
class StandardNormal:
    """Standard normal marginal N(0, 1)."""


Marginal = Uniform | StandardNormal


@dataclass(frozen=True)
class ProductMeasure:
    """Product of one-dimensional marginals; the integration distribution."""

    marginals: tuple[Marginal, ...]

    def __post_init__(self):
        if len(self.marginals) == 0:
            raise ValueError("measure needs at least one marginal")

    @property
    def dim(self) -> int:
        return len(self.marginals)

    @classmethod
    def uniform(cls, a=0.0, b=1.0, dim=1) -> "ProductMeasure":
        return cls(tuple(Uniform(a, b) for _ in range(dim)))

    @classmethod
    def standard_normal(cls, dim=1) -> "ProductMeasure":
        return cls(tuple(StandardNormal() for _ in range(dim)))

    def is_bounded(self) -> bool:
        return all(isinstance(m, Uniform) for m in self.marginals)

    def contains(self, points) -> bool:
        """True if every point lies inside [a, b] on each uniform axis; the points are read by :func:`as_points`."""
        pts = as_points(points, self.dim)
        return all(np.all((m.a <= x) & (x <= m.b)) for m, x in zip(self.marginals, pts.T) if isinstance(m, Uniform))


# ---------------------------------------------------------------------------
# point handling
# ---------------------------------------------------------------------------


def as_points(points, dim: int) -> np.ndarray:
    """The one reader of a point set, as an (n, dim) array of finite coordinates; anything else is a ValueError.
    A scalar is one point, and a 1-d array one point of ``dim`` > 1 coordinates or else n points on a line."""
    arr = np.asarray(points, dtype=float)
    if arr.ndim < 2:
        arr = arr.reshape(1, -1) if dim > 1 and arr.size == dim else arr.reshape(-1, 1)
    elif arr.ndim != 2:
        raise ValueError(f"points must be at most 2-d, got shape {arr.shape}")
    if arr.shape[1] != dim:
        raise ValueError(f"points have dimension {arr.shape[1]}, kernel/measure has {dim}")
    if not np.isfinite(arr).all():
        raise ValueError("points must be finite")
    return arr


def as_data(points, values, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The one reader of a data set: (n, dim) points by :func:`as_points` and a copy of n >= 1 finite values."""
    w, y = as_points(points, dim), np.array(values, dtype=float).reshape(-1)
    if not 0 < w.shape[0] == y.shape[0]:
        raise ValueError(f"need n >= 1 points and one value each, got {w.shape[0]} points but {y.shape[0]} values")
    if not np.isfinite(y).all():
        raise ValueError("values must be finite")
    return w, y


# ---------------------------------------------------------------------------
# evaluation and Gram matrices
# ---------------------------------------------------------------------------


_GRAM_BLOCK_ROWS = 64  # rows of one correlation block in gram; its buffer stays in cache


def gram(kernel: Kernel, points, points2=None) -> np.ndarray:
    """Gram (or cross-Gram) matrix c(W, W') with amplitude included, C-order.

    Filled in place, the only full-size array: each factor's ``corr`` runs a block of rows at a time
    in one reused buffer, with unchanged operations, so the square matrix is bitwise symmetric.

    Duplicated points are allowed; the resulting singular matrix is the
    caller's problem (GP fitting copes through its nugget ladder).
    """
    w1 = as_points(points, kernel.dim)
    w2 = w1 if points2 is None else as_points(points2, kernel.dim)
    out = np.full((w1.shape[0], w2.shape[0]), kernel.amplitude)
    buf = np.empty((min(_GRAM_BLOCK_ROWS, w1.shape[0]), w2.shape[0]))
    for j, f in enumerate(kernel.factors):
        for start in range(0, w1.shape[0], _GRAM_BLOCK_ROWS):
            rows = out[start : start + _GRAM_BLOCK_ROWS]
            rows *= f.corr(w1[start : start + rows.shape[0], j : j + 1], w2[None, :, j], buf[: rows.shape[0]])
    return out


# ---------------------------------------------------------------------------
# closed-form kernel means and initial errors
# ---------------------------------------------------------------------------


def _m12_uniform_mean(g, m, x):
    return (2.0 * g - g * np.exp((m.a - x) / g) - g * np.exp((x - m.b) / g)) / (m.b - m.a)


def _m12_uniform_init(g, m):
    return 2.0 * g * (m.b - m.a - g + g * math.exp((m.a - m.b) / g)) / (m.b - m.a) ** 2


def _m52_uniform_mean(g, m, x):
    left = np.exp(_SQRT5 * (m.a - x) / g) * (_SQRT5 * (8 * g**2 + 5 * (m.a - x) ** 2) / g + 25 * (x - m.a))
    right = np.exp(_SQRT5 * (x - m.b) / g) * (-_SQRT5 * (8 * g**2 + 5 * (m.b - x) ** 2) / g + 25 * (x - m.b))
    return (16 * _SQRT5 * g - left + right) / (15 * (m.b - m.a))


def _m52_uniform_init(g, m):
    w = m.b - m.a
    decay = math.exp(-_SQRT5 * w / g)
    return 2.0 * (8 * _SQRT5 * w * g - 15 * g**2 + decay * (5 * w**2 + 7 * _SQRT5 * w * g + 15 * g**2)) / (
        15 * w**2
    )


def _m52_gauss_mean(g, m, x):
    # Each exp(...) * erfc(...) product collapses to erfcx at the same
    # argument, which is what keeps this finite for |x| >> gamma.
    x = np.asarray(x, dtype=float)
    xm = (_SQRT5 / g - x) / _SQRT2
    xp = (_SQRT5 / g + x) / _SQRT2
    pm = 25 + 3 * g**4 - 10 * _SQRT5 * g * x + 3 * _SQRT5 * g**3 * x + 5 * g**2 * (x**2 - 2)
    pp = 25 + 3 * g**4 + 10 * _SQRT5 * g * x - 3 * _SQRT5 * g**3 * x + 5 * g**2 * (x**2 - 2)
    gauss = np.exp(-0.5 * x * x)
    # erfcx(x) * exp(-x^2/2) with the negative branch unrolled analytically:
    # x^2 - w^2/2 = 5/(2 g^2) -+ sqrt5 w / g for the two arguments.  The
    # exponents are only kept where their branch is selected (they are
    # guaranteed <= -2.5/g^2 there), so the exp cannot overflow.
    dm = np.where(xm < 0, 2.5 / g**2 - _SQRT5 * x / g, -np.inf)
    dp = np.where(xp < 0, 2.5 / g**2 + _SQRT5 * x / g, -np.inf)
    tm = np.where(xm >= 0, erfcx(np.abs(xm)) * gauss, 2.0 * np.exp(dm) - erfcx(np.abs(xm)) * gauss)
    tp = np.where(xp >= 0, erfcx(np.abs(xp)) * gauss, 2.0 * np.exp(dp) - erfcx(np.abs(xp)) * gauss)
    out = (4 * _SQRT5 * g * (3 * g**2 - 5) * gauss + math.sqrt(2 * math.pi) * (pm * tm + pp * tp)) / (
        6 * g**4 * math.sqrt(2 * math.pi)
    )
    return out


def _m52_gauss_init(g, m):
    # E[c(X - Y)] with X - Y ~ N(0, 2) = sqrt(2) Z: the kernel mean at 0
    # with lengthscale gamma / sqrt(2).
    return float(_m52_gauss_mean(g / _SQRT2, m, 0.0))


def _se_uniform_mean(g, m, x):
    return _SQRTPI * g * (erf((x - m.a) / g) + erf((m.b - x) / g)) / (2 * (m.b - m.a))


def _se_uniform_init(g, m):
    w = m.b - m.a
    return g * ((math.exp(-(w / g) ** 2) - 1.0) * g + w * _SQRTPI * erf(w / g)) / w**2


def _se_gauss_mean(g, m, x):
    return g * np.exp(-x * x / (g * g + 2.0)) / math.sqrt(g * g + 2.0)


def _se_gauss_init(g, m):
    return g / math.sqrt(g * g + 4.0)


# (factor kind, marginal kind) -> (kernel mean (g, m, x), initial error (g, m)), for lengthscale g and marginal m
_CLOSED_FORMS = {
    ("Matern(nu=0.5)", "Uniform"): (_m12_uniform_mean, _m12_uniform_init),
    ("Matern(nu=2.5)", "Uniform"): (_m52_uniform_mean, _m52_uniform_init),
    ("Matern(nu=2.5)", "StandardNormal"): (_m52_gauss_mean, _m52_gauss_init),
    ("SquaredExponential", "Uniform"): (_se_uniform_mean, _se_uniform_init),
    ("SquaredExponential", "StandardNormal"): (_se_gauss_mean, _se_gauss_init),
}


def _closed_form(factor: Factor, marginal: Marginal):
    """The table's (kernel mean, initial error) functions for this pair; :class:`NoClosedFormError` if it has none."""
    try:
        return _CLOSED_FORMS[factor.kind, type(marginal).__name__]
    except KeyError:
        raise NoClosedFormError(f"no closed form for ({factor.kind}, {marginal})") from None


def kernel_mean(kernel: Kernel, measure: ProductMeasure, points):
    """Pi[c(., x)] for each point, which must lie on the measure's support; returns a scalar for a single point.

    Each factor's closed form is its pair's row of ``_CLOSED_FORMS``; a uniform row holds on [a, b] only.
    """
    if kernel.dim != measure.dim:
        raise ValueError(f"kernel dimension {kernel.dim} != measure dimension {measure.dim}")
    pts = as_points(points, kernel.dim)
    if not measure.contains(pts):
        raise ValueError("points fall outside the measure's support")
    out = np.full(pts.shape[0], kernel.amplitude)
    for j, (f, g, m) in enumerate(zip(kernel.factors, kernel.lengthscales, measure.marginals)):
        out = out * _closed_form(f, m)[0](g, m, pts[:, j])
    arr_in = np.asarray(points)
    single = arr_in.ndim == 0 or (arr_in.ndim == 1 and kernel.dim > 1 and arr_in.size == kernel.dim)
    return float(out[0]) if single else out


def initial_error(kernel: Kernel, measure: ProductMeasure) -> float:
    """Pi[Pi[c]]: the BQ posterior variance before any data.

    Exact for every pair in ``_CLOSED_FORMS``, the pairs ``kernel_mean`` supports.
    """
    if kernel.dim != measure.dim:
        raise ValueError(f"kernel dimension {kernel.dim} != measure dimension {measure.dim}")
    value = kernel.amplitude
    for f, g, m in zip(kernel.factors, kernel.lengthscales, measure.marginals):
        value *= _closed_form(f, m)[1](g, m)
    return float(value)
