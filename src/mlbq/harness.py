"""Experiment engine: budget sweeps, estimator comparisons, calibration, CSV.

A JSON config (schema below) names a testbed model, a set of estimators
with their design kinds, a kernel policy, budgets and per-budget sample
sizes (explicit table or allocation formula), a replication count and a
master seed.  ``run_experiment`` builds the model, computes its reference
integral and resolves each budget's sample sizes once per sweep, then
walks (budget, replication) cells: every estimator that shares a design
kind, sample sizes and data mode within a cell consumes the identical
evaluations (content-hashed), and all randomness derives from the master
seed through spawned child seeds, so reruns are byte-identical.  Within
one task (a budget and a run of its replications), a cell whose
estimator and data hash repeat an earlier cell's, as a deterministic
design's do in every replication, is computed once and its result then
reused.  Under ``--jobs`` parallelism the workers receive the config,
model, reference and sample sizes as they are, and records are collected
in submission order, so the output matches the serial run.

Config schema (``schema_version: 1``)::

    {
      "schema_version": 1,
      "model": {"name": "poisson", "params": {...}},
      "estimators": [{"name": "mlbq", "design": "grid"},
                     {"name": "mlmc", "design": "iid"},
                     {"name": "sk-mlbq", "design": "grid", "b_matrix": [[...]]}],
      "kernel": {"family": "matern", "smoothness": 0.5, "lengthscale": 1.0,
                 "amplitude": 1.0, "policy": "fitted", "bounds": [0.01, 10.0],
                 "per_dimension": false, "mle_amplitude": false},
      "budgets": [0.376, 0.751],
      "allocation": {"source": "table",
                     "table": [{"mlbq": [38, 15, 3], "mlmc": [67, 11, 1]},
                               {"mlbq": [77, 30, 5], "mlmc": [133, 23, 2]}]},
      "replications": 100,
      "seed": 1234,
      "output": "results.csv"
    }

``allocation.source`` may instead be ``mlmc-formula`` (requires
``variances``) or ``mlbq-formula`` (requires ``norms`` and ``tau``;
optional ``gamma``); either accepts ``costs`` to override the model's
declared cost vector.  A table entry may also be a plain list applied to
every estimator, and an estimator omitted from a budget's dict entry is
simply not run at that budget.  Single-level estimators (``mc``, ``bq``)
take a one-element table entry, or ``floor(T / (gamma * C_L))`` under
formula sources.  ``kernel.family`` is ``matern``, ``se`` or ``brownian``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .allocation import AllocationInput, mlbq_allocation, mlmc_allocation
from .designs import DESIGN_KINDS, generate_design
from .gp import GPFit, SingularGramError, _fit_lengthscales, _profiled_fit, fit_gp
from .kernels import Kernel, NoClosedFormError
from .models import MODEL_NAMES, ModelError, make_model
from .quadrature import (
    LevelData,
    LevelFailure,
    bq_posterior,
    mc_estimate,
    mlbq_estimate,
    mlmc_estimate,
    sk_mlbq_estimate,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ResultRecord",
    "CoverageRow",
    "load_config",
    "config_from_dict",
    "run_experiment",
    "calibration_table",
    "write_records_csv",
    "read_records_csv",
    "write_coverage_csv",
]

log = logging.getLogger("mlbq.harness")

SCHEMA_VERSION = 1
ESTIMATOR_NAMES = ("mc", "mlmc", "bq", "mlbq", "sk-mlbq")
BAYESIAN = {"bq", "mlbq", "sk-mlbq"}
SINGLE_LEVEL = {"mc", "bq"}
SEEDLESS_DESIGNS = {"grid", "halton"}  # the same points in every replication
CSV_COLUMNS = ("replication", "estimator", "budget", "estimate", "variance", "abs_error", "cost", "n_per_level")

# Per-cell numerical failures are reported and the sweep continues; these
# are the exception types treated that way.
CELL_ERRORS = (LevelFailure, SingularGramError, ModelError, NoClosedFormError, FloatingPointError, ValueError)


class ConfigError(ValueError):
    """Invalid experiment configuration."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimatorSpec:
    name: str
    design: str
    b_matrix: tuple | None = None


@dataclass(frozen=True)
class KernelPolicy:
    family: str = "matern"
    smoothness: float = 0.5
    lengthscale: tuple[float, ...] | float = 1.0
    amplitude: float = 1.0
    policy: str = "fitted"
    bounds: tuple[float, float] = (0.01, 10.0)
    per_dimension: bool = False
    mle_amplitude: bool = False

    def base_kernel(self, dim: int) -> Kernel:
        if self.family == "matern":
            return Kernel.matern(self.smoothness, self.lengthscale, dim=dim, amplitude=self.amplitude)
        if self.family == "se":
            return Kernel.squared_exponential(self.lengthscale, dim=dim, amplitude=self.amplitude)
        if self.family == "brownian":
            return Kernel.brownian(amplitude=self.amplitude)
        raise ConfigError(f"unknown kernel family {self.family!r}")

    def level_kernel(self, points, values, dim: int) -> Kernel:
        """The level's kernel with this policy's lengthscales (searched under the fitted policy)."""
        base = self.base_kernel(dim)
        if self.policy == "fitted":
            return _fit_lengthscales(base, points, values, self.bounds, per_dimension=self.per_dimension)
        return base

    def level_fit(self, points, values, dim: int) -> GPFit:
        """The level's GP conditioned on its data, at the amplitude MLE where the policy estimates it.

        The amplitude MLE and the fit share one factor of the Gram matrix.
        """
        kernel = self.level_kernel(points, values, dim)
        if self.policy == "fitted" or self.mle_amplitude:
            return _profiled_fit(kernel, points, values)
        return fit_gp(kernel, points, values)


@dataclass(frozen=True)
class AllocationSpec:
    source: str
    table: tuple | None = None
    variances: tuple[float, ...] | None = None
    norms: tuple[float, ...] | None = None
    tau: float | None = None
    gamma: float = 1.0
    costs: tuple[float, ...] | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    model_name: str
    model_params: dict
    estimators: tuple[EstimatorSpec, ...]
    kernel: KernelPolicy
    budgets: tuple[float, ...]
    allocation: AllocationSpec
    replications: int
    seed: int
    output: str | None = None


def _require(condition, message):
    if not condition:
        raise ConfigError(message)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a raw config dict into an :class:`ExperimentConfig`."""
    _require(isinstance(raw, dict), "config must be a JSON object")
    _require(raw.get("schema_version") == SCHEMA_VERSION, f"config schema_version must be {SCHEMA_VERSION}")

    model = raw.get("model")
    _require(isinstance(model, dict) and "name" in model, "config needs model.name")
    _require(model["name"] in MODEL_NAMES, f"model.name must be one of {MODEL_NAMES}")
    params = model.get("params", {})
    _require(isinstance(params, dict), "model.params must be an object")

    raw_ests = raw.get("estimators")
    _require(isinstance(raw_ests, list) and raw_ests, "config needs a nonempty estimators list")
    estimators = []
    for e in raw_ests:
        _require(isinstance(e, dict) and "name" in e and "design" in e, "each estimator needs name and design")
        _require(e["name"] in ESTIMATOR_NAMES, f"estimator name must be one of {ESTIMATOR_NAMES}")
        _require(e["design"] in DESIGN_KINDS, f"design must be one of {DESIGN_KINDS}")
        b = e.get("b_matrix")
        if e["name"] == "sk-mlbq" and b is not None:
            b = tuple(tuple(float(x) for x in row) for row in b)
        estimators.append(EstimatorSpec(e["name"], e["design"], b))
    names = [e.name for e in estimators]
    _require(len(names) == len(set(names)), "estimator names must be unique")

    kraw = raw.get("kernel", {})
    _require(isinstance(kraw, dict), "kernel must be an object")
    ls, bounds = kraw.get("lengthscale", 1.0), kraw.get("bounds", [0.01, 10.0])
    numbers = isinstance(bounds, (list, tuple)) and len(bounds) == 2 and all(type(v) in (int, float) for v in bounds)
    _require(numbers and 0 < bounds[0] < bounds[1] < math.inf, "kernel.bounds must be two numbers with 0 < lo < hi")
    kernel = KernelPolicy(
        family=kraw.get("family", "matern"),
        smoothness=float(kraw.get("smoothness", 0.5)),
        lengthscale=tuple(float(v) for v in ls) if isinstance(ls, (list, tuple)) else float(ls),
        amplitude=float(kraw.get("amplitude", 1.0)),
        policy=kraw.get("policy", "fitted"),
        bounds=tuple(float(v) for v in bounds),
        per_dimension=bool(kraw.get("per_dimension", False)),
        mle_amplitude=bool(kraw.get("mle_amplitude", False)),
    )
    _require(kernel.family in ("matern", "se", "brownian"), "kernel.family must be 'matern', 'se' or 'brownian'")
    _require(kernel.policy in ("fixed", "fitted"), "kernel.policy must be 'fixed' or 'fitted'")
    if any(e.name == "sk-mlbq" for e in estimators):
        _require(kernel.policy == "fixed", "sk-mlbq requires kernel.policy 'fixed' (one shared base kernel)")

    budgets = raw.get("budgets")
    _require(isinstance(budgets, list) and budgets, "config needs a nonempty budgets list")
    budgets = tuple(float(t) for t in budgets)
    _require(all(t > 0 for t in budgets), "budgets must be positive")

    araw = raw.get("allocation")
    _require(isinstance(araw, dict) and "source" in araw, "config needs allocation.source")
    source = araw["source"]
    _require(source in ("table", "mlmc-formula", "mlbq-formula"), "allocation.source must be table, mlmc-formula or mlbq-formula")
    table = None
    if source == "table":
        table = araw.get("table")
        _require(isinstance(table, list) and len(table) == len(budgets), "allocation.table needs one entry per budget")
        norm_table = []
        for i, entry in enumerate(table):
            if isinstance(entry, dict):
                stray = set(entry) - set(names)
                _require(not stray, f"allocation table entry {i} names unknown estimators {sorted(stray)}")
                norm_table.append({k: tuple(int(n) for n in v) for k, v in entry.items()})
            else:
                norm_table.append(tuple(int(n) for n in entry))
        table = tuple(norm_table)
    else:
        key = "variances" if source == "mlmc-formula" else "norms"
        _require(key in araw, f"allocation.source {source} requires {key}")
        if source == "mlbq-formula":
            _require("tau" in araw, "mlbq-formula requires tau")
    allocation = AllocationSpec(
        source=source,
        table=table,
        variances=tuple(float(v) for v in araw["variances"]) if "variances" in araw else None,
        norms=tuple(float(v) for v in araw["norms"]) if "norms" in araw else None,
        tau=float(araw["tau"]) if "tau" in araw else None,
        gamma=float(araw.get("gamma", 1.0)),
        costs=tuple(float(c) for c in araw["costs"]) if "costs" in araw else None,
    )

    reps = raw.get("replications", 1)
    _require(isinstance(reps, int) and reps >= 1, "replications must be an integer >= 1")
    seed = raw.get("seed", 0)
    _require(isinstance(seed, int) and seed >= 0, "seed must be a nonnegative integer")

    return ExperimentConfig(
        model_name=model["name"],
        model_params=params,
        estimators=tuple(estimators),
        kernel=kernel,
        budgets=budgets,
        allocation=allocation,
        replications=reps,
        seed=seed,
        output=raw.get("output"),
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(raw)


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResultRecord:
    """One estimator evaluation in one (budget, replication) cell."""

    replication: int
    estimator: str
    budget: float
    estimate: float
    variance: float | None
    abs_error: float
    cost: float
    n_per_level: tuple[int, ...]

    @classmethod
    def make(cls, replication, estimator, budget, estimate, variance, reference, cost, n_per_level):
        """Build a record; the error field is always |estimate - reference|."""
        return cls(
            replication=replication,
            estimator=estimator,
            budget=budget,
            estimate=float(estimate),
            variance=None if variance is None else float(variance),
            abs_error=abs(float(estimate) - float(reference)),
            cost=float(cost),
            n_per_level=tuple(int(n) for n in n_per_level),
        )


def write_records_csv(records, path):
    """Write records with the fixed column order; floats use repr round-trip."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow(
                [
                    r.replication,
                    r.estimator,
                    repr(r.budget),
                    repr(r.estimate),
                    "" if r.variance is None else repr(r.variance),
                    repr(r.abs_error),
                    repr(r.cost),
                    ";".join(str(n) for n in r.n_per_level),
                ]
            )


def read_records_csv(path) -> list[ResultRecord]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != CSV_COLUMNS:
            raise ConfigError(f"unexpected CSV header {header}")
        out = []
        for row in reader:
            out.append(
                ResultRecord(
                    replication=int(row[0]),
                    estimator=row[1],
                    budget=float(row[2]),
                    estimate=float(row[3]),
                    variance=None if row[4] == "" else float(row[4]),
                    abs_error=float(row[5]),
                    cost=float(row[6]),
                    n_per_level=tuple(int(n) for n in row[7].split(";")) if row[7] else (),
                )
            )
        return out


# ---------------------------------------------------------------------------
# allocation resolution
# ---------------------------------------------------------------------------


def _model_costs(cfg: ExperimentConfig, model) -> tuple[float, ...]:
    return cfg.allocation.costs if cfg.allocation.costs is not None else model.costs


def _counts_for(cfg: ExperimentConfig, model, budget_index: int) -> dict[str, tuple[int, ...]]:
    """Per-estimator sample sizes for one budget."""
    costs = _model_costs(cfg, model)
    alloc = cfg.allocation
    budget = cfg.budgets[budget_index]
    out = {}
    if alloc.source == "table":
        entry = alloc.table[budget_index]
        for est in cfg.estimators:
            counts = entry.get(est.name) if isinstance(entry, dict) else entry
            if counts is None:
                # estimator deliberately absent from this budget's entry
                continue
            expected = 1 if est.name in SINGLE_LEVEL else model.levels
            if len(counts) != expected:
                raise ConfigError(
                    f"{est.name!r} needs {expected} counts at budget {budget}, got {len(counts)}"
                )
            out[est.name] = counts
        if not out:
            raise ConfigError(f"allocation table entry {budget_index} allocates no estimator")
        return out
    if alloc.source == "mlmc-formula":
        plan = mlmc_allocation(AllocationInput(alloc.variances, costs, budget))
    else:
        plan = mlbq_allocation(
            AllocationInput(alloc.norms, costs, budget, tau=alloc.tau, dim=model.dim, overhead=alloc.gamma)
        )
    for est in cfg.estimators:
        if est.name in SINGLE_LEVEL:
            out[est.name] = (max(int(budget / (alloc.gamma * costs[-1])), 1),)
        else:
            out[est.name] = plan.counts
    return out


def _cell_cost(name: str, counts, costs) -> float:
    if name in SINGLE_LEVEL:
        return counts[0] * costs[-1]
    return float(sum(n * c for n, c in zip(counts, costs)))


def validate_budget_accounting(cfg: ExperimentConfig, model) -> list[dict[str, tuple[int, ...]]]:
    """Every cell's realized cost must stay within one step of its budget.

    Returns the checked per-estimator sample sizes, one dict per budget.
    """
    costs = _model_costs(cfg, model)
    if len(costs) != model.levels:
        raise ConfigError(f"cost vector has {len(costs)} entries, model has {model.levels} levels")
    per_budget = [_counts_for(cfg, model, bi) for bi in range(len(cfg.budgets))]
    for budget, counts_by_est in zip(cfg.budgets, per_budget):
        for name, counts in counts_by_est.items():
            cost = _cell_cost(name, counts, costs)
            if cost > budget + max(costs) + 1e-12:
                raise ConfigError(
                    f"estimator {name!r} at budget {budget} costs {cost:.6g}, beyond the one-step slack"
                )
    return per_budget


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------


def _data_hash(levels) -> str:
    digest = hashlib.sha256()
    for lv in levels:
        digest.update(lv.points.tobytes())
        digest.update(lv.values.tobytes())
    return digest.hexdigest()


def _build_groups(cfg, model, counts_by_est, budget_index, replication, seedless):
    """Each estimator's (level data, data hash); each distinct (design, counts, mode) group is built once.

    All designs come first, then one ``model.evaluate`` call per level on every point any group needs
    there; an increment is ``fine - coarse``, as in ``MultifidelityModel.increments``.  Estimators in
    one group get the same pair object.  A grid or Halton group is taken from ``seedless`` (the task's
    store, filled here) when an earlier replication built it; its points join no evaluation again.
    """
    costs = _model_costs(cfg, model)
    design_of = {est.name: est.design for est in cfg.estimators}
    keys = {
        name: (design_of[name], counts, "top" if name in SINGLE_LEVEL else "increments")
        for name, counts in counts_by_est.items()
    }
    top = model.levels - 1
    designs = {}
    wanted = [[] for _ in range(model.levels)]  # per level, the point sets to evaluate there, in the order read below
    for gi, key in enumerate(sorted(set(keys.values()))):
        design_kind, counts, mode = key
        if key in seedless:
            continue
        # single-level estimators sample the top level itself; the others sample increments
        level_ids = [top] if mode == "top" else range(len(counts))
        designs[key] = []
        for level, n in zip(level_ids, counts):
            seed = np.random.SeedSequence(cfg.seed, spawn_key=(budget_index, replication, gi, level))
            points = generate_design(design_kind, model.measure, n, seed=seed).points
            designs[key].append((level, points))
            wanted[level].append(points)
            if mode == "increments" and level > 0:
                wanted[level - 1].append(points)
    values = {level: iter(np.split(model.evaluate(level, np.concatenate(sets)), np.cumsum([len(p) for p in sets[:-1]])))
              for level, sets in enumerate(wanted) if sets}
    groups = dict(seedless)
    for key, sampled in designs.items():
        levels = []
        for level, points in sampled:
            f = next(values[level])
            if key[2] == "increments" and level > 0:
                f = f - next(values[level - 1])
            levels.append(LevelData(level, points, f, costs[level]))
        digest = _data_hash(levels)
        groups[key] = levels, digest
        if key[0] in SEEDLESS_DESIGNS:
            seedless[key] = groups[key]
        log.debug("cell budget=%s rep=%s group=%s hash=%s", cfg.budgets[budget_index], replication, key, digest)
    return {name: groups[key] for name, key in keys.items()}


def _run_estimator(cfg, model, est: EstimatorSpec, levels):
    """Return (estimate, variance or None) for one estimator on one cell."""
    dim = model.dim
    if est.name == "mc":
        return mc_estimate(levels[0].values), None
    if est.name == "mlmc":
        return mlmc_estimate(levels), None
    if est.name == "bq":
        lv = levels[0]
        post = bq_posterior(cfg.kernel.level_fit(lv.points, lv.values, dim), model.measure)
        return post.mean, post.variance
    if est.name == "mlbq":
        fits = [cfg.kernel.level_fit(lv.points, lv.values, dim) for lv in levels]
        post = mlbq_estimate(levels, fits, model.measure)
        return post.mean, post.variance
    if est.name == "sk-mlbq":
        b = np.eye(len(levels)) if est.b_matrix is None else np.asarray(est.b_matrix)
        post = sk_mlbq_estimate(levels, cfg.kernel.base_kernel(dim), b, model.measure)
        return post.mean, post.variance
    raise ConfigError(f"unknown estimator {est.name!r}")


def _run_cells(cfg: ExperimentConfig, model, reference, budget_index: int, counts_by_est, replications):
    """One budget's records for ``replications``, in (replication, estimator) order.

    Each replication's level data come from one ``_build_groups`` call, one model evaluation per level;
    grid and Halton groups are built in the task's first replication only.
    A cell repeating an earlier successful cell's estimator and data hash reuses its
    (estimate, variance); failures are not stored, so every replication reports its own.
    """
    costs = _model_costs(cfg, model)
    budget = cfg.budgets[budget_index]
    records = []
    results, seedless = {}, {}
    for rep in replications:
        groups = _build_groups(cfg, model, counts_by_est, budget_index, rep, seedless)
        for est in cfg.estimators:
            if est.name not in groups:
                continue
            counts = counts_by_est[est.name]
            levels, digest = groups[est.name]
            key = (est, digest)
            if key not in results:
                try:
                    results[key] = _run_estimator(cfg, model, est, levels)
                except ConfigError:
                    raise
                except CELL_ERRORS as exc:
                    log.warning("cell (T=%s, rep=%s, %s) failed: %s", budget, rep, est.name, exc)
                    continue
            estimate, variance = results[key]
            records.append(
                ResultRecord.make(
                    rep, est.name, budget, estimate, variance, reference, _cell_cost(est.name, counts, costs), counts
                )
            )
    return records


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> list[ResultRecord]:
    """Run the configured sweep; deterministic given the config.

    The model, its reference integral and each budget's sample sizes are
    computed once here and handed to every (budget, replications) task as
    they are.  Within a task a repeated cell (same estimator, same level
    data) is computed once and then reused; reuse is exact, so how the
    replications are split into tasks does not change the records.  With
    ``jobs > 1`` the tasks run in worker processes and
    their records are collected in submission order, which is (budget,
    replication, estimator) order, so the parallel run produces
    byte-identical output to the serial one.
    """
    model = make_model(cfg.model_name, **cfg.model_params)
    counts = validate_budget_accounting(cfg, model)
    if any(est.name in BAYESIAN for est in cfg.estimators):
        try:
            cfg.kernel.base_kernel(model.dim)
        except ValueError as exc:
            raise ConfigError(f"kernel: {exc}") from exc
    reference = model.reference_integral()
    chunk = max(1, math.ceil(cfg.replications / max(jobs, 1)))
    tasks = [
        (cfg, model, reference, bi, counts[bi], range(start, min(start + chunk, cfg.replications)))
        for bi in range(len(cfg.budgets))
        for start in range(0, cfg.replications, chunk)
    ]
    if jobs <= 1:
        return [record for task in tasks for record in _run_cells(*task)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_run_cells, *task) for task in tasks]
        return [record for fut in futures for record in fut.result()]


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverageRow:
    nominal_level: float
    coverage: float
    binomial_se: float
    count: int


def calibration_table(records, levels=(0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99)) -> list[CoverageRow]:
    """Empirical coverage of central credible intervals at nominal levels.

    A record is covered at level q when |estimate - reference| (stored as
    ``abs_error``) is at most z(q) * posterior standard deviation, with
    z(q) the central standard-normal quantile.  Only records carrying a
    posterior variance participate.  The standard error column is the
    binomial sqrt(q (1 - q) / count) under the nominal level.
    """
    bayes = [r for r in records if r.variance is not None]
    if not bayes:
        raise ValueError("no records with posterior variance; nothing to calibrate")
    rows = []
    for q in levels:
        if not 0 < q < 1:
            raise ValueError(f"credible level must lie in (0, 1), got {q}")
        z = ndtri(0.5 * (1.0 + q))
        hits = sum(1 for r in bayes if r.abs_error <= z * math.sqrt(r.variance))
        n = len(bayes)
        rows.append(CoverageRow(q, hits / n, math.sqrt(q * (1 - q) / n), n))
    return rows


def write_coverage_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["nominal_level", "coverage", "binomial_se", "count"])
        for row in rows:
            writer.writerow([repr(row.nominal_level), repr(row.coverage), repr(row.binomial_se), row.count])
