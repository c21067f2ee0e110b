"""Point-set generation on product measures.

Four design kinds:

* ``iid``   -- independent draws from the measure (seeded),
* ``grid``  -- tensor product of equispaced points including the interval
  endpoints (uniform marginals only; deterministic),
* ``halton`` -- Halton sequence, one prime base per dimension, starting at
  index 1, pushed through each marginal's inverse CDF (deterministic),
* ``lhs``   -- Latin hypercube: one point per row stratum with seeded
  within-stratum jitter and per-dimension permutations.

Randomness comes from the counter-based Philox generator keyed by a
``numpy.random.SeedSequence``, so distinct levels and replications can use
spawned child seeds and remain reproducible and independent.  The same
(kind, measure, n, seed) always reproduces the same points bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .kernels import ProductMeasure, Uniform

__all__ = ["Design", "check_design", "generate_design", "halton_sequence", "DESIGN_KINDS", "SEEDLESS_DESIGNS"]

DESIGN_KINDS = ("iid", "grid", "halton", "lhs")
SEEDLESS_DESIGNS = {"grid", "halton"}  # the kinds that ignore the seed: the same points for every seed


@dataclass(frozen=True)
class Design:
    """A generated point set: ``points`` is the (n, dim) array."""

    points: np.ndarray


def _rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _first_primes(k: int) -> list[int]:
    primes, candidate = [], 2
    while len(primes) < k:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def _radical_inverse(indices: np.ndarray, base: int) -> np.ndarray:
    out = np.zeros(indices.shape, dtype=float)
    denom = np.ones(indices.shape, dtype=float)
    rest = indices.copy()
    while np.any(rest > 0):
        denom *= base
        out += (rest % base) / denom
        rest //= base
    return out


def halton_sequence(n: int, dim: int) -> np.ndarray:
    """Unit-cube Halton points for indices 1..n (bases 2, 3, 5, ...)."""
    idx = np.arange(1, n + 1)
    bases = _first_primes(dim)
    return np.column_stack([_radical_inverse(idx, b) for b in bases])


def _through_marginal(u: np.ndarray, marginal) -> np.ndarray:
    """Push unit-interval values through a marginal's inverse CDF.

    The normal branch uses scipy's ndtri (double-precision inverse normal
    CDF, absolute error far below 1e-9).
    """
    if isinstance(marginal, Uniform):
        return marginal.a + (marginal.b - marginal.a) * u
    return ndtri(u)


def check_design(kind: str, measure: ProductMeasure, n: int):
    """Raise ValueError unless an n-point ``kind`` design exists on ``measure``: a grid needs bounded
    marginals and, in d > 1, an n that is a perfect d-th power."""
    if kind not in DESIGN_KINDS:
        raise ValueError(f"unknown design kind {kind!r}; choose from {DESIGN_KINDS}")
    if n < 1:
        raise ValueError(f"need n >= 1 points, got {n}")
    if kind == "grid" and not measure.is_bounded():
        raise ValueError("grid designs need bounded (uniform) marginals")
    if kind == "grid" and round(n ** (1.0 / measure.dim)) ** measure.dim != n:
        raise ValueError(f"grid in d={measure.dim} needs n to be a d-th power, got {n}")


def generate_design(kind: str, measure: ProductMeasure, n: int, seed=None) -> Design:
    """Generate an n-point design for the given product measure (``check_design`` says which exist)."""
    check_design(kind, measure, n)
    d = measure.dim

    if kind == "grid":
        per_dim = round(n ** (1.0 / d))
        axes = [np.linspace(m.a, m.b, per_dim) if per_dim > 1 else np.array([(m.a + m.b) / 2.0])
                for m in measure.marginals]
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.column_stack([ax.reshape(-1) for ax in mesh])
        return Design(points)

    if kind == "halton":
        u = halton_sequence(n, d)
        cols = [_through_marginal(u[:, j], m) for j, m in enumerate(measure.marginals)]
        return Design(np.column_stack(cols))

    rng = _rng(seed)
    if kind == "iid":
        cols = [_through_marginal(rng.random(n), m) if isinstance(m, Uniform) else rng.standard_normal(n)
                for m in measure.marginals]
        return Design(np.column_stack(cols))

    # lhs: permuted strata with uniform within-stratum jitter, per dimension
    cols = []
    for m in measure.marginals:
        strata = rng.permutation(n)
        u = (strata + rng.random(n)) / n
        cols.append(_through_marginal(u, m))
    return Design(np.column_stack(cols))

