"""Reference values the benchmark checks the program against.

Everything here is computed from the problem definitions, without
importing ``mlbq``: closed forms, Gauss-Legendre rules, banded LAPACK
solves and adaptive 1-d quadrature.

Run ``python3 perfbench/references.py`` to print every value, or add
``--write-readme`` to rewrite the reference block of perfbench/README.md.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
from scipy import integrate
from scipy.linalg import solve_banded

# Published per-level cost vectors of the two testbeds (model units).
POISSON_COSTS = (3.6e-3, 8.5e-3, 42.4e-3)
ODE_COSTS = (1.0e-3, 2.6e-3, 21.8e-3)

POISSON_INTERIOR_NODES = (4, 16, 64)
ODE_SPACINGS = (1.0 / 8, 1.0 / 32, 1.0 / 128)
ODE_FORCING = 50.0
ODE_REFERENCE_SPACING = ODE_SPACINGS[-1] / 8

GL_NODES = 32


# ---------------------------------------------------------------------------
# Poisson: f'' = 1 on (0, 1), f(0) = f(1) = 0; exact solution x (x - 1) / 2.
# The 1-d Galerkin solution is exact at the nodes, so level l is the linear
# interpolant of the exact solution on its node set.
# ---------------------------------------------------------------------------


def poisson_top_reference() -> float:
    """Integral of the top-level interpolant: the trapezoid rule on x(x-1)/2."""
    h = 1.0 / (POISSON_INTERIOR_NODES[-1] + 1)
    return -1.0 / 12.0 + h * h / 12.0


def _poisson_level(level: int):
    p = POISSON_INTERIOR_NODES[level]
    knots = np.linspace(0.0, 1.0, p + 2)
    return knots, 0.5 * knots * (knots - 1.0)


def poisson_increment_variances() -> tuple[float, ...]:
    """Var[f_l(U) - f_{l-1}(U)] for U ~ Unif(0, 1), level by level.

    The increment is piecewise linear on the union of both knot sets, so a
    two-point Gauss rule per piece integrates its square exactly.
    """
    gx, gw = np.polynomial.legendre.leggauss(2)
    out = []
    for level in range(len(POISSON_INTERIOR_NODES)):
        fine = _poisson_level(level)
        coarse = _poisson_level(level - 1) if level > 0 else (np.array([0.0, 1.0]), np.zeros(2))
        knots = np.union1d(fine[0], coarse[0])
        a, b = knots[:-1, None], knots[1:, None]
        x = 0.5 * (a + b) + 0.5 * (b - a) * gx
        w = 0.5 * (b - a) * gw
        inc = np.interp(x, *fine) - np.interp(x, *coarse)
        mean = float(np.sum(w * inc))
        out.append(float(np.sum(w * inc * inc)) - mean * mean)
    return tuple(out)


# ---------------------------------------------------------------------------
# ODE: (1 + w1 x) u'' + w1 u' = r w2^2 on (0, 1), u(0) = u(1) = 0, with
# w1 ~ Unif(0, 1), w2 ~ N(0, 1).  Backward difference for w1 u', central
# difference for u'', trapezoid integral of u.  The solution is linear in
# the right-hand side, so f_h(w1, w2) = r w2^2 F_h(w1) with F_h the
# integral for unit forcing, and E[w2^2] = 1, E[w2^4] = 3.
# ---------------------------------------------------------------------------


def ode_unit_integral(h: float, w1: float) -> float:
    """F_h(w1): trapezoid integral of the scheme's solution for unit forcing."""
    m = round(1.0 / h) - 1
    x = h * np.arange(1, m + 1)
    a = 1.0 + w1 * x
    # row i: a_i (u_{i+1} - 2 u_i + u_{i-1}) / h^2 + w1 (u_i - u_{i-1}) / h = 1
    ab = np.zeros((3, m))
    ab[0, 1:] = a[:-1] / h**2
    ab[1, :] = -2.0 * a / h**2 + w1 / h
    ab[2, :-1] = a[1:] / h**2 - w1 / h
    u = solve_banded((1, 1), ab, np.ones(m))
    return float(h * u.sum())


def _gauss_legendre_01(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def ode_mean(h: float, nodes: int = GL_NODES) -> float:
    """E[f_h] = r * int_0^1 F_h(w1) dw1 by an n-node Gauss-Legendre rule."""
    x, w = _gauss_legendre_01(nodes)
    return ODE_FORCING * float(sum(wi * ode_unit_integral(h, xi) for xi, wi in zip(x, w)))


def ode_increment_variances(nodes: int = GL_NODES) -> tuple[float, ...]:
    """Var[f_l - f_{l-1}] = r^2 (3 E[dF^2] - E[dF]^2), dF over w1 only."""
    x, w = _gauss_legendre_01(nodes)
    out = []
    prev = np.zeros_like(x)
    for h in ODE_SPACINGS:
        cur = np.array([ode_unit_integral(h, xi) for xi in x])
        inc = cur - prev
        out.append(ODE_FORCING**2 * (3.0 * float(w @ (inc * inc)) - float(w @ inc) ** 2))
        prev = cur
    return tuple(out)


# ---------------------------------------------------------------------------
# Matern-5/2 initial errors Pi[Pi[c]] (unit amplitude, one factor).
# ---------------------------------------------------------------------------


def matern52(z, gamma: float):
    r = math.sqrt(5.0) * abs(z) / gamma
    return (1.0 + r + r * r / 3.0) * math.exp(-r)


def m52_gauss_initial_error(gamma: float) -> float:
    """E[c(X - Y)] for X, Y iid N(0, 1): X - Y ~ N(0, 2), so one 1-d integral."""

    def integrand(z):
        return matern52(z, gamma) * math.exp(-z * z / 4.0) / math.sqrt(4.0 * math.pi)

    value, _ = integrate.quad(integrand, 0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)
    return 2.0 * value


def m52_uniform_initial_error(gamma: float) -> float:
    """E[c(X - Y)] for X, Y iid Unif(0, 1): |X - Y| has density 2 (1 - t)."""
    value, _ = integrate.quad(
        lambda t: 2.0 * (1.0 - t) * matern52(t, gamma), 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200
    )
    return value


# ---------------------------------------------------------------------------
# Norm-based allocation: the real-valued optimum in closed form.
# ---------------------------------------------------------------------------


def mlbq_real_counts(norms, costs, budget, tau, dim, gamma=1.0) -> tuple[float, ...]:
    """n_l = T (r_l / C_l)^e / (gamma sum_k C_k^(1-e) r_k^e), e = d / (tau + d)."""
    e = dim / (tau + dim)
    denom = gamma * sum(c ** (1.0 - e) * r**e for r, c in zip(norms, costs))
    return tuple(budget * (r / c) ** e / denom for r, c in zip(norms, costs))


def all_references() -> dict:
    return {
        "poisson_top": poisson_top_reference(),
        "poisson_increment_variances": poisson_increment_variances(),
        "ode_reference_16": ode_mean(ODE_REFERENCE_SPACING, 16),
        "ode_reference_32": ode_mean(ODE_REFERENCE_SPACING, 32),
        "ode_top_mean": ode_mean(ODE_SPACINGS[-1]),
        "ode_increment_variances": ode_increment_variances(),
        "m52_gauss_initial_error": {g: m52_gauss_initial_error(g) for g in (0.3, 0.8, 2.5)},
    }


def _readme_block(refs: dict) -> str:
    g = refs["m52_gauss_initial_error"]
    lines = [
        "| quantity | how | value |",
        "| --- | --- | --- |",
        f"| Poisson top-level integral | -1/12 + h^2/12, h = 1/65 | {refs['poisson_top']!r} |",
        "| Poisson increment variances Var[f_l - f_{l-1}] | 2-point Gauss per knot interval | "
        + ", ".join(f"{v:.6e}" for v in refs["poisson_increment_variances"])
        + " |",
        f"| ODE reference, h = 1/1024 | 16-node Gauss-Legendre in w1, banded solve | {refs['ode_reference_16']:.12f} |",
        f"| ODE reference, h = 1/1024 | 32-node Gauss-Legendre | {refs['ode_reference_32']:.12f} |",
        f"| ODE top level E[f_L], h = 1/128 | 32-node Gauss-Legendre | {refs['ode_top_mean']:.12f} |",
        "| ODE increment variances | 32-node Gauss-Legendre, E[w2^4] = 3 | "
        + ", ".join(f"{v:.6e}" for v in refs["ode_increment_variances"])
        + " |",
    ]
    for gamma, value in g.items():
        lines.append(f"| Matern-5/2 x N(0, 1) initial error, gamma = {gamma} | quad against N(0, 2) | {value:.12f} |")
    return "\n".join(lines)


START, END = "<!-- references:start -->", "<!-- references:end -->"


def main(argv) -> int:
    refs = all_references()
    block = _readme_block(refs)
    print(block)
    if "--write-readme" in argv:
        readme = Path(__file__).with_name("README.md")
        text = readme.read_text()
        head, rest = text.split(START, 1)
        _, tail = rest.split(END, 1)
        readme.write_text(f"{head}{START}\n{block}\n{END}{tail}")
        print(f"updated {readme}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
