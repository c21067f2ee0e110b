"""Independent numerical oracles backing the derived test values.

Each function here computes a quantity by a route independent of the
implementation it checks: adaptive quadrature for kernel means, nested
or single quadrature for initial errors, and slope integration for the
Brownian-motion RKHS norm.  ``oracle_report`` bundles the standard checks
into (name, oracle value, implementation value, tolerance) rows for the
command-line provenance report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .kernels import (
    BrownianMotion,
    Kernel,
    Matern,
    ProductMeasure,
    SquaredExponential,
    StandardNormal,
    Uniform,
    gram,
    initial_error,
    kernel_mean,
)
from .models import PiecewiseLinearFunction

__all__ = [
    "factor_profile",
    "kernel_mean_quadrature",
    "initial_error_quadrature",
    "slope_integral_norm",
    "OracleRow",
    "oracle_report",
]


def factor_profile(factor):
    """The 1-d correlation profile r -> corr(0, r) of a kernel factor."""
    if isinstance(factor, Matern) and factor.nu == 0.5:
        return lambda s, t: math.exp(-abs(s - t) / factor.lengthscale)
    if isinstance(factor, Matern):
        c = math.sqrt(5.0) / factor.lengthscale
        return lambda s, t: (1 + c * abs(s - t) + (c * abs(s - t)) ** 2 / 3.0) * math.exp(-c * abs(s - t))
    if isinstance(factor, SquaredExponential):
        return lambda s, t: math.exp(-((s - t) / factor.lengthscale) ** 2)
    if isinstance(factor, BrownianMotion):
        return lambda s, t: min(s, t)
    raise ValueError(f"no profile for {factor}")


def kernel_mean_quadrature(factor, marginal, x, epsabs=1e-12) -> float:
    """Adaptive quadrature of one kernel-mean factor against a marginal."""
    corr = factor_profile(factor)
    if isinstance(marginal, Uniform):
        width = marginal.b - marginal.a
        # Matern profiles have a kink at t = x; declaring it keeps the
        # adaptive rule at full accuracy.
        kink = [x] if marginal.a < x < marginal.b else None
        val, _ = quad(
            lambda t: corr(x, t) / width, marginal.a, marginal.b, epsabs=epsabs, limit=400, points=kink
        )
        return val
    val, _ = quad(
        lambda t: corr(x, t) * math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi),
        -np.inf,
        np.inf,
        epsabs=epsabs,
        limit=400,
    )
    return val


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


def oracle_report() -> list[OracleRow]:
    """Standard derived-value checks: closed forms against their oracles."""
    rows = []
    u01 = Uniform(0.0, 1.0)

    cases = [
        ("kernel_mean matern12-uniform @0.5", Matern(0.5, 1.0), u01, 0.5, 1e-10),
        ("kernel_mean matern12-uniform @0.1 g=0.4", Matern(0.5, 0.4), u01, 0.1, 1e-10),
        ("kernel_mean matern52-uniform @0.3", Matern(2.5, 1.0), u01, 0.3, 1e-10),
        ("kernel_mean se-uniform @0.0", SquaredExponential(1.0), u01, 0.0, 1e-10),
        ("kernel_mean se-uniform @0.7 g=2", SquaredExponential(2.0), u01, 0.7, 1e-10),
    ]
    for name, factor, marginal, x, tol in cases:
        impl = kernel_mean(Kernel((factor,)), ProductMeasure((marginal,)), x)
        rows.append(OracleRow(name, kernel_mean_quadrature(factor, marginal, x), impl, tol))

    for name, factor, x in [
        ("kernel_mean matern52-gauss @1.2", Matern(2.5, 0.8), 1.2),
        ("kernel_mean se-gauss @-0.4", SquaredExponential(1.3), -0.4),
    ]:
        impl = kernel_mean(Kernel((factor,)), ProductMeasure((StandardNormal(),)), x)
        rows.append(OracleRow(name, kernel_mean_quadrature(factor, StandardNormal(), x), impl, 1e-10))

    for name, factor, marginal, tol in [
        ("initial_error matern12-uniform", Matern(0.5, 1.0), u01, 1e-8),
        ("initial_error matern52-uniform", Matern(2.5, 1.0), u01, 1e-8),
        ("initial_error se-uniform", SquaredExponential(1.0), u01, 1e-8),
        ("initial_error matern52-gauss", Matern(2.5, 1.0), StandardNormal(), 1e-10),
        ("initial_error se-gauss", SquaredExponential(1.5), StandardNormal(), 1e-10),
    ]:
        impl = initial_error(Kernel((factor,)), ProductMeasure((marginal,)))
        rows.append(OracleRow(name, initial_error_quadrature(factor, marginal), impl, tol))

    # Brownian-motion RKHS norm against slope integration
    from .models import brownian_rkhs_increment_norm

    rng = np.random.default_rng(11)
    bp = np.concatenate([[0.0], np.sort(rng.random(9)), [1.0]])
    g = PiecewiseLinearFunction(bp, np.concatenate([[0.0], rng.standard_normal(10)]))
    rows.append(
        OracleRow("brownian_rkhs_norm vs slope integral", slope_integral_norm(g), brownian_rkhs_increment_norm(g), 1e-10)
    )

    # a 1x1 cross-Gram against the factor profile
    rows.append(
        OracleRow(
            "gram brownian (0.3, 0.7)",
            factor_profile(BrownianMotion())(0.3, 0.7),
            float(gram(Kernel.brownian(), [0.3], [0.7])[0, 0]),
            0.0,
        )
    )
    return rows
