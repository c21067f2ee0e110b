"""Independent numerical oracles backing the derived test values.

Each function here computes a quantity by a route independent of the
implementation it checks: adaptive quadrature for kernel means, nested
or single quadrature for initial errors, and slope integration for the
Brownian-motion RKHS norm.  ``claims.criterion_5a`` holds every row of
the closed-form table ``kernels._CLOSED_FORMS`` and the Brownian RKHS
norm to these.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from .kernels import Matern, SquaredExponential, StandardNormal, Uniform
from .models import PiecewiseLinearFunction

__all__ = [
    "factor_profile",
    "kernel_mean_quadrature",
    "initial_error_quadrature",
    "slope_integral_norm",
]


def factor_profile(factor):
    """The correlation (s, t) -> corr(s, t) of a kernel factor, written out from its formula."""
    if isinstance(factor, Matern) and factor.nu == 0.5:
        return lambda s, t: math.exp(-abs(s - t) / factor.lengthscale)
    if isinstance(factor, Matern):
        c = math.sqrt(5.0) / factor.lengthscale
        return lambda s, t: (1 + c * abs(s - t) + (c * abs(s - t)) ** 2 / 3.0) * math.exp(-c * abs(s - t))
    if isinstance(factor, SquaredExponential):
        return lambda s, t: math.exp(-((s - t) / factor.lengthscale) ** 2)
    raise ValueError(f"no profile for {factor}")


def kernel_mean_quadrature(factor, marginal, x, epsabs=1e-12) -> float:
    """Adaptive quadrature of one kernel-mean factor against a marginal.

    The integral is split at t = x, the kink of a Matern profile, which
    keeps the adaptive rule at full accuracy under either marginal.
    """
    corr = factor_profile(factor)
    if isinstance(marginal, Uniform):
        lo, hi = marginal.a, marginal.b
        density = lambda t: 1.0 / (hi - lo)
    else:
        lo, hi = -np.inf, np.inf
        density = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
    edges = [lo, x, hi] if lo < x < hi else [lo, hi]
    return sum(
        quad(lambda t: corr(x, t) * density(t), start, end, epsabs=epsabs, limit=400)[0]
        for start, end in zip(edges, edges[1:])
    )


def initial_error_quadrature(factor, marginal, epsabs=1e-11) -> float:
    """Quadrature of one initial-error factor Pi[Pi[c]].

    Nested quadrature over a uniform marginal, the inner rule told of the
    profile's kink at t = s (a 2-d rule blind to it is off by 3e-8 for
    Matern-1/2 at gamma = 0.4).  Under N(0, 1), X - Y ~
    N(0, 2), so a stationary factor needs one 1-d integral of its profile
    against the N(0, 2) density, folded onto the half line at the kink.
    """
    corr = factor_profile(factor)
    if isinstance(marginal, StandardNormal):
        val, _ = quad(
            lambda z: corr(0.0, z) * math.exp(-0.25 * z * z) / math.sqrt(math.pi),
            0.0,
            np.inf,
            epsabs=epsabs,
            epsrel=1e-13,
            limit=400,
        )
        return val
    a, b = marginal.a, marginal.b

    def inner(s):
        return quad(lambda t: corr(s, t), a, b, points=[s], epsabs=epsabs, limit=400)[0]

    return quad(inner, a, b, epsabs=epsabs, limit=400)[0] / (b - a) ** 2


def slope_integral_norm(g: PiecewiseLinearFunction, h: PiecewiseLinearFunction | None = None) -> float:
    """sqrt of the integral of the squared slope of g - h (BM-RKHS oracle)."""
    if h is None:
        h = PiecewiseLinearFunction(g.breakpoints[[0, -1]], np.zeros(2))
    knots = np.union1d(g.breakpoints, h.breakpoints)
    diff = g(knots) - h(knots)
    slopes = np.diff(diff) / np.diff(knots)
    return float(math.sqrt(np.sum(slopes**2 * np.diff(knots))))

