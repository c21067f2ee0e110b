"""Independent numerical oracles backing the derived test values.

Each function here computes a quantity by a route independent of the
implementation it checks: adaptive quadrature for kernel means, nested
or single quadrature for initial errors, and slope integration for the
Brownian-motion RKHS norm.  ``oracle_report`` walks the closed-form
table ``kernels._CLOSED_FORMS`` and checks every kernel mean and initial
error in it against quadrature, at three lengthscales, then adds the
Brownian-motion RKHS norm check.  Its (name, oracle value, implementation
value, tolerance) rows back criterion 5a and the ``mlbq oracle`` report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.integrate import quad

from .kernels import (
    _CLOSED_FORMS,
    Kernel,
    Matern,
    ProductMeasure,
    SquaredExponential,
    StandardNormal,
    Uniform,
    initial_error,
    kernel_mean,
)
from .models import PiecewiseLinearFunction, brownian_rkhs_increment_norm

__all__ = [
    "factor_profile",
    "kernel_mean_quadrature",
    "initial_error_quadrature",
    "slope_integral_norm",
    "OracleRow",
    "oracle_report",
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


# ---------------------------------------------------------------------------
# the provenance report behind the `oracle` subcommand
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleRow:
    name: str
    oracle_value: float
    implementation_value: float
    tolerance: float

    @property
    def difference(self) -> float:
        return abs(self.oracle_value - self.implementation_value)

    @property
    def passed(self) -> bool:
        return self.difference <= self.tolerance


# Each closed-form factor kind by lengthscale, and each marginal kind with the points its kernel means are
# checked at, an interval end among them.  ``oracle_report`` checks every ``_CLOSED_FORMS`` row through these.
_FACTORS = {f(1.0).kind: f for f in (partial(Matern, 0.5), partial(Matern, 2.5), SquaredExponential)}
_MARGINALS = {
    "Uniform": (Uniform(-0.3, 1.4), (-0.3, 0.35, 1.3)),
    "StandardNormal": (StandardNormal(), (-2.5, 0.0, 1.1)),
}
_LENGTHSCALES = (0.4, 1.0, 2.0)


def oracle_report() -> list[OracleRow]:
    """Every closed form against its quadrature oracle, then the Brownian-motion RKHS norm check.

    Each ``_CLOSED_FORMS`` row gives, at each of ``_LENGTHSCALES``, a kernel-mean row per point of its
    marginal and an initial-error row, all to 1e-10.  A table row with no case here raises ``ValueError``.
    """
    rows = []
    for kind, marginal_kind in _CLOSED_FORMS:
        if kind not in _FACTORS or marginal_kind not in _MARGINALS:
            raise ValueError(f"closed form ({kind}, {marginal_kind}) has no oracle case")
        marginal, points = _MARGINALS[marginal_kind]
        for g in _LENGTHSCALES:
            factor = _FACTORS[kind](g)
            kernel, measure, case = Kernel((factor,)), ProductMeasure((marginal,)), f"{kind} {marginal_kind} g={g}"
            for x, impl in zip(points, kernel_mean(kernel, measure, points)):
                oracle = kernel_mean_quadrature(factor, marginal, x)
                rows.append(OracleRow(f"kernel_mean {case} @{x}", oracle, impl, 1e-10))
            oracle, impl = initial_error_quadrature(factor, marginal), initial_error(kernel, measure)
            rows.append(OracleRow(f"initial_error {case}", oracle, impl, 1e-10))

    rng = np.random.default_rng(11)
    bp = np.concatenate([[0.0], np.sort(rng.random(9)), [1.0]])
    g = PiecewiseLinearFunction(bp, np.concatenate([[0.0], rng.standard_normal(10)]))
    norm = brownian_rkhs_increment_norm(g)
    rows.append(OracleRow("brownian_rkhs_norm vs slope integral", slope_integral_norm(g), norm, 1e-10))
    return rows
