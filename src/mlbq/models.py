"""Multifidelity testbed families with exact or high-accuracy references.

Three hierarchies:

* ``poisson`` -- piecewise-linear finite element approximations of the
  two-point boundary value problem f'' = 1 on (0, 1) with zero boundary
  values (exact solution omega (omega - 1) / 2, integral -1/12).  Level l
  uses ``interior_nodes[l]`` equispaced interior nodes; the tridiagonal
  stiffness system is solved once per level in flux form and cached, after
  which evaluation is pure linear interpolation.  In one dimension the Galerkin
  solution is exact at the nodes, which doubles as a self-test.
* ``ode`` -- a two-point problem with random coefficient and forcing:
  (1 + w1 x) u'' + w1 u' = r w2^2 on (0, 1), u(0) = u(1) = 0, with
  w1 ~ Unif(0, 1) and w2 ~ N(0, 1).  Level l solves a backward-difference
  convection / central-difference diffusion scheme with spacing
  ``spacings[l]`` and reports the trapezoid integral of u, in closed form
  as a weighted variance of the flux weights, vectorised over points.
* ``step`` -- midpoint step-function approximations of the identity on
  [0, 10] under Unif(0, 10) (integral exactly 5 for any breakpoint set);
  the assumption-violation testbed.

Costs are declared per-level constants (defaults are the published cost
vectors of the accompanying experiments) so budget arithmetic is
deterministic and machine independent.  Constructor parameters are checked,
not converted, for type and range by one rule each; anything else is a
``ValueError``.  Costs are finite ints or floats > 0, one per level, with at
least one level; ``interior_nodes`` ints >= 1; ``breakpoint_counts`` ints >= 2;
``spacings`` 1/m for an integer m >= 3; each of these sizes (m for a spacing)
at most ``MAX_REFERENCE_ROWS``, as is ``REFERENCE_REFINE`` (8) times the
top level's m; ``forcing`` finite; ``high`` finite and > 0.  ``evaluate`` reads its points by
``kernels.as_points``, so points of the wrong dimension or with a non-finite coordinate are a ValueError.
A direct ODE ``evaluate`` that overflows warns and returns inf, while a sweep level still fails, with
``overflow encountered in multiply``, because ``quadrature._each_level`` raises on overflow.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .kernels import ProductMeasure, StandardNormal, Uniform, as_points

__all__ = [
    "PiecewiseLinearFunction",
    "brownian_rkhs_increment_norm",
    "MultifidelityModel",
    "PoissonHierarchy",
    "OdeHierarchy",
    "StepHierarchy",
    "ModelError",
    "poisson_exact_solution",
    "POISSON_EXACT_INTEGRAL",
    "make_model",
    "MODEL_NAMES",
]


class ModelError(RuntimeError):
    """Level evaluation failed (bad level index, solver breakdown, ...)."""


# ---------------------------------------------------------------------------
# piecewise linear functions and the Brownian-motion RKHS norm
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PiecewiseLinearFunction:
    """Linear interpolant of (breakpoints, values) on [0, 1].

    Breakpoints must be strictly increasing and include both interval
    endpoints.  Evaluation outside the breakpoint span clamps to the end
    values (np.interp semantics), but all uses here stay inside.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if bp.ndim != 1 or bp.shape != vals.shape or bp.size < 2:
            raise ValueError("need matching 1-d breakpoints/values with at least two knots")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    def __call__(self, x):
        return np.interp(x, self.breakpoints, self.values)

    def integral(self) -> float:
        """Exact integral over the breakpoint span (trapezoid is exact)."""
        return float(np.trapezoid(self.values, self.breakpoints))


def brownian_rkhs_increment_norm(g: PiecewiseLinearFunction, h: PiecewiseLinearFunction | None = None) -> float:
    """Norm of g - h in the RKHS of the Brownian-motion kernel min(s, t).

    A piecewise-linear function anchored at zero is a finite combination
    of kernel translates, p = sum_j alpha_j min(., t_j) with alpha_j the
    drop in slope after knot t_j; the squared norm is then the double sum
    sum_ij alpha_i alpha_j min(t_i, t_j).  Both inputs must vanish at 0, their first breakpoint.
    Numerically identical to the integral of the squared slope of g - h.
    """
    if h is None:
        h = PiecewiseLinearFunction(g.breakpoints[[0, -1]], np.zeros(2))
    if any(p.breakpoints[0] != 0.0 or p.values[0] != 0.0 for p in (g, h)):
        raise ValueError("Brownian-motion RKHS members must vanish at 0, their first breakpoint")
    knots = np.union1d(g.breakpoints, h.breakpoints)
    diff = g(knots) - h(knots)
    slopes = np.diff(diff) / np.diff(knots)
    # alpha_j pairs with the knot at the *right* end of segment j; the
    # slope after the final knot is zero by convention.
    alpha = slopes - np.concatenate([slopes[1:], [0.0]])
    t = knots[1:]
    kmin = np.minimum(t[:, None], t[None, :])
    return float(math.sqrt(max(alpha @ kmin @ alpha, 0.0)))


# ---------------------------------------------------------------------------
# conservative three-point schemes in flux form
# ---------------------------------------------------------------------------


def _row_total(terms):
    """Each column's sum in row order, so a point's value never depends on its batch neighbours."""
    if terms.shape[0] > terms.shape[1]:  # cumsum adds in order; axis-0 reduce sums one column pairwise
        return np.cumsum(terms, axis=0)[-1]
    return np.add.reduce(terms, axis=0)  # adds a C-order array's rows in turn


def _flux_form(off):
    """Weights a_k = 1 / off[k] (written over ``off``, shape (m + 1, batch)) and offsets k - kbar.

    Row i = 1..m of the scheme reads off[i-1] (u[i-1] - u[i]) + off[i] (u[i+1] - u[i]) = r, u[0] = u[m+1] = 0.
    The flux F_k = off[k] (u[k+1] - u[k]) grows by r per row and the differences a_k F_k sum to zero,
    so F_k = r (k - kbar), kbar the a-weighted mean of k: no elimination, so no pivots.
    """
    if not off.all():
        raise ModelError("flux form breakdown: zero flux coefficient")
    a = np.divide(1.0, off, out=off)
    # k measured from the middle row: a symmetric a (Poisson) then gives kbar to a few ulps
    k = np.arange(a.shape[0], dtype=float).reshape(-1, 1) - 0.5 * (a.shape[0] - 1)
    dev = k * a
    return a, np.subtract(k, _row_total(dev) / _row_total(a), out=dev)


# ---------------------------------------------------------------------------
# model base
# ---------------------------------------------------------------------------

_INTEGER, _NUMBER = (int,), (int, float)
# Cap on each level's size (nodes, breakpoints, 1 / spacing) and on the ODE reference grid's rows of 48 Gauss nodes;
# that grid's spacing is the top level's divided by REFERENCE_REFINE.
MAX_REFERENCE_ROWS, REFERENCE_REFINE = 2**16, 8


def _finite(value) -> bool:
    """Not NaN or infinite, and (an int) not too large for a float."""
    return abs(value) <= sys.float_info.max


def _typed(values, types, what, rule, ok) -> tuple:
    """``values`` as a tuple, each checked, not converted, to be exactly one of ``types`` (bools, strings
    and numpy scalars fail) and to pass ``ok``, which ``rule`` states."""
    values = tuple(values)
    if not all(type(v) in types and ok(v) for v in values):
        raise ValueError(f"{what} must be {' or '.join(t.__name__ for t in types)} {rule}, got {values!r}")
    return values


def _costs(costs) -> tuple:
    """The per-level costs rule: each an int or float > 0 and finite."""
    return _typed(costs, _NUMBER, "costs", "> 0 and finite", lambda c: 0 < c and _finite(c))


class MultifidelityModel:
    """Shared interface: levels 0..L of increasing accuracy and cost; the constructor owns the level table."""

    name: str
    costs: tuple[float, ...]
    measure: ProductMeasure

    def __init__(self, costs, per_level):
        costs = _costs(costs)
        if not per_level:
            raise ValueError(f"{self.name}: needs at least one level")
        if len(per_level) != len(costs):
            raise ValueError(f"{self.name}: needs one cost per level, got {len(costs)} for {len(per_level)}")
        self.costs = tuple(float(c) for c in costs)

    @property
    def levels(self) -> int:
        return len(self.costs)

    @property
    def dim(self) -> int:
        return self.measure.dim

    def _check_level(self, level: int):
        if not 0 <= level < self.levels:
            raise ModelError(f"{self.name}: level {level} outside 0..{self.levels - 1}")

    def evaluate(self, level: int, points) -> np.ndarray:
        raise NotImplementedError

    def increments(self, level: int, points) -> np.ndarray:
        """f_level - f_{level-1} at the given points (f_{-1} = 0)."""
        fine = self.evaluate(level, points)
        if level == 0:
            return fine
        return fine - self.evaluate(level - 1, points)

    def reference_integral(self) -> float:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Poisson finite-element hierarchy
# ---------------------------------------------------------------------------


def poisson_exact_solution(x):
    """Exact solution of f'' = 1, f(0) = f(1) = 0."""
    x = np.asarray(x, dtype=float)
    return 0.5 * x * (x - 1.0)


POISSON_EXACT_INTEGRAL = -1.0 / 12.0


class PoissonHierarchy(MultifidelityModel):
    """Piecewise-linear FEM approximations of the 1-d Poisson problem.

    ``interior_nodes[l]`` equispaced interior nodes at level l.  The
    stiffness system uses the standard Galerkin weak form: the load vector
    integrates the (constant, = 1) forcing against each hat function.
    Coefficients are solved eagerly at construction; evaluation afterwards
    is pure and thread-safe.
    """

    name = "poisson"

    def __init__(self, interior_nodes=(4, 16, 64), costs=(3.6e-3, 8.5e-3, 42.4e-3)):
        self.interior_nodes = _typed(interior_nodes, _INTEGER, "interior_nodes", f">= 1 and <= {MAX_REFERENCE_ROWS}",
                                     lambda p: 1 <= p <= MAX_REFERENCE_ROWS)
        super().__init__(costs, self.interior_nodes)
        self.measure = ProductMeasure.uniform(0.0, 1.0)
        self._levels = [self._solve_level(p) for p in self.interior_nodes]

    @staticmethod
    def _solve_level(p: int) -> PiecewiseLinearFunction:
        delta = 1.0 / (p + 1)
        nodes = np.linspace(delta, 1.0 - delta, p)
        # stiffness rows (u[i-1] - u[i] + u[i+1] - u[i]) / delta = delta, the hat's load from forcing 1
        a, dev = _flux_form(np.full((p + 1, 1), 1.0 / delta))
        bp = np.concatenate([[0.0], nodes, [1.0]])
        vals = np.concatenate([[0.0], delta * np.cumsum(dev * a, axis=0)[:-1, 0], [0.0]])
        return PiecewiseLinearFunction(bp, vals)

    def evaluate(self, level: int, points) -> np.ndarray:
        self._check_level(level)
        return self._levels[level](as_points(points, self.dim)[:, 0])

    def level_integral(self, level: int) -> float:
        """Exact integral of the level-l interpolant."""
        self._check_level(level)
        return self._levels[level].integral()

    def reference_integral(self) -> float:
        """Exact integral of the top level (the estimators' target)."""
        return self.level_integral(self.levels - 1)

    def increment_norm(self, level: int) -> float:
        """Brownian-RKHS norm of f_l - f_{l-1} (f_{-1} = 0).

        At ``interior_nodes=(1, 4, 19)`` its squares are 0.0625, 0.0225 and 0.003125, the published
        allocation norms; at the default meshes the unsquared norms are about 0.283, 0.060 and 0.0175.
        """
        self._check_level(level)
        if level == 0:
            return brownian_rkhs_increment_norm(self._levels[0])
        return brownian_rkhs_increment_norm(self._levels[level], self._levels[level - 1])


# ---------------------------------------------------------------------------
# random-coefficient ODE hierarchy
# ---------------------------------------------------------------------------


class OdeHierarchy(MultifidelityModel):
    """Finite-difference levels of the random-coefficient two-point problem.

    The level-l scheme discretises w1 u' with a backward difference and
    (1 + w1 x) u'' with a central difference on a grid of spacing
    ``spacings[l]``; the quantity of interest is the trapezoid integral of
    u over (0, 1), in closed form (``_integral_factor``): the scheme depends
    on the point only through w1 and the right-hand side only through
    ``forcing * w2^2``, so a batch of points takes one vectorised pass.

    The reference integral is the mean of a solver refined by
    ``REFERENCE_REFINE`` relative to the top level.  Since E[w2^2] = 1 it
    equals ``forcing`` times the integral of the unit-forcing factor over
    w1 in (0, 1), a smooth function integrated by Gauss-Legendre rules;
    ``reference_info()`` reports it with an error bound.
    """

    name = "ode"

    def __init__(
        self,
        spacings=(1.0 / 8, 1.0 / 32, 1.0 / 128),
        forcing=50.0,
        costs=(1.0e-3, 2.6e-3, 21.8e-3),
    ):
        spacings = _typed(spacings, _NUMBER, "spacings", f"1/m for an integer 3 <= m <= {MAX_REFERENCE_ROWS}",
                          lambda h: 0 < h < 0.5 and abs(round(1.0 / h) - 1.0 / h) <= 1e-9
                          and round(1.0 / h) <= MAX_REFERENCE_ROWS)
        _typed([forcing], _NUMBER, "forcing", "and finite", _finite)
        super().__init__(costs, spacings)
        if round(1.0 / spacings[-1]) * REFERENCE_REFINE > MAX_REFERENCE_ROWS:
            raise ValueError(f"spacings must end at 1/m with m <= {MAX_REFERENCE_ROWS // REFERENCE_REFINE} "
                             f"({MAX_REFERENCE_ROWS} reference grid rows), got {spacings!r}")
        self.spacings = tuple(float(h) for h in spacings)
        self.forcing = float(forcing)
        self.measure = ProductMeasure((Uniform(0.0, 1.0), StandardNormal()))

    def _integral_factor(self, h: float, w1: np.ndarray) -> np.ndarray:
        """h * sum_i u_i for unit forcing, per coefficient value w1.

        The scheme is ``_flux_form``'s with off[k] = k w1 / h + 1 / h^2 and r = 1, so the sum is
        -h sum_k a_k (k - kbar)^2, a weighted variance whose terms do not cancel.  Solutions are
        linear in the right-hand side: the full evaluation is ``forcing * w2^2`` times this factor.
        """
        k = np.arange(round(1.0 / h), dtype=float).reshape(-1, 1)
        off = k * np.asarray(w1, dtype=float).reshape(1, -1) / h + 1.0 / h**2
        a, dev = _flux_form(off)
        dev *= dev
        dev *= a
        return -h * _row_total(dev)

    def evaluate(self, level: int, points) -> np.ndarray:
        self._check_level(level)
        pts, h = as_points(points, self.dim), self.spacings[level]
        try:
            factor = self._integral_factor(h, pts[:, 0])
        except ModelError as exc:
            raise ModelError(f"ode spacing {h}: {exc} (w1 range [{pts[:, 0].min()}, {pts[:, 0].max()}])") from exc
        return self.forcing * pts[:, 1] ** 2 * factor

    def reference_info(self) -> tuple[float, float]:
        """(reference integral, error bound), computed on every call; a sweep asks for it once.

        The value is the 32-node Gauss-Legendre rule in w1 (E[w2^2] = 1);
        one pass covers its nodes and the 16-node rule's.  The bound adds the
        two rules' distance to m^2 eps |value| (m = 1 / h), sized for an
        elimination solve's roundoff; the closed form's is a few eps, far below.
        """
        h = self.spacings[-1] / REFERENCE_REFINE
        (x16, w16), (x32, w32) = (np.polynomial.legendre.leggauss(n) for n in (16, 32))
        factor = self._integral_factor(h, 0.5 * (np.concatenate([x16, x32]) + 1.0))
        coarse = self.forcing * float(0.5 * w16 @ factor[:16])
        value = self.forcing * float(0.5 * w32 @ factor[16:])
        roundoff = (1.0 / h) ** 2 * np.finfo(float).eps * abs(value)
        return value, abs(value - coarse) + roundoff

    def reference_integral(self) -> float:
        return self.reference_info()[0]


# ---------------------------------------------------------------------------
# step-function hierarchy
# ---------------------------------------------------------------------------


class StepHierarchy(MultifidelityModel):
    """Midpoint step approximations of the identity on [0, high].

    Level l uses ``breakpoint_counts[l]`` equispaced breakpoints from 0 to
    ``high``; the value on each cell is the cell midpoint (the right
    endpoint maps into the last cell).  Every level integrates to high/2
    exactly because the midpoint cell sums telescope.
    """

    name = "step"

    def __init__(self, breakpoint_counts=(3, 5, 9), high=10.0, costs=(0.5e-3, 1.0e-3, 2.0e-3)):
        self.breakpoint_counts = _typed(breakpoint_counts, _INTEGER, "breakpoint_counts",
                                        f">= 2 and <= {MAX_REFERENCE_ROWS}", lambda p: 2 <= p <= MAX_REFERENCE_ROWS)
        _typed([high], _NUMBER, "high", "> 0 and finite", lambda b: 0 < b and _finite(b))
        super().__init__(costs, self.breakpoint_counts)
        self.high = float(high)
        self.measure = ProductMeasure.uniform(0.0, self.high)
        self._breaks = [np.linspace(0.0, self.high, p) for p in self.breakpoint_counts]

    def evaluate(self, level: int, points) -> np.ndarray:
        self._check_level(level)
        pts = as_points(points, self.dim)[:, 0]
        breaks = self._breaks[level]
        cell = np.clip(np.searchsorted(breaks, pts, side="right") - 1, 0, breaks.size - 2)
        return 0.5 * (breaks[cell] + breaks[cell + 1])

    def level_integral(self, level: int) -> float:
        self._check_level(level)
        breaks = self._breaks[level]
        mids = 0.5 * (breaks[:-1] + breaks[1:])
        return float(np.sum(np.diff(breaks) * mids) / self.high)

    def reference_integral(self) -> float:
        return self.level_integral(self.levels - 1)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_FACTORIES = {cls.name: cls for cls in (PoissonHierarchy, OdeHierarchy, StepHierarchy)}
MODEL_NAMES = tuple(_FACTORIES)


def make_model(name: str, **params) -> MultifidelityModel:
    """Instantiate a registered testbed model by name."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(f"unknown model {name!r}; choose from {MODEL_NAMES}") from None
    return factory(**params)
