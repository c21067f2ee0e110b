"""Experiment engine: budget sweeps, estimator comparisons, calibration, CSV.

A JSON config (schema below) names a testbed model, a set of estimators
with their design kinds, a kernel policy, budgets and per-budget sample
sizes (explicit table or allocation formula), a replication count and a
master seed.  ``run_experiment`` builds the model, computes its reference
integral and resolves each budget's sample sizes once per sweep, then
walks (budget, replication) cells: every estimator that shares a design
kind and sample sizes (a group) within a cell consumes the identical
evaluations, and all randomness derives from the master seed through
spawned child seeds, so reruns are byte-identical.  One reuse
rule holds within a task (a budget and a run of its replications): a
grid or Halton cell ignores the seed, so each estimator computes it once
per task; every other cell is computed in its own replication.  Under
``--jobs`` parallelism the workers receive the config, model, reference
and sample sizes as they are, and records and failed cells come back in
submission order and are logged here, so output and log match the serial run.

Config schema (``schema_version: 1``)::

    {
      "comment": "free text, not read",
      "schema_version": 1,
      "model": {"name": "poisson", "params": {...}},
      "estimators": [{"name": "mlbq", "design": "grid"},
                     {"name": "mlmc", "design": "iid"}],
      "kernel": {"family": "matern", "smoothness": 0.5, "lengthscale": 1.0,
                 "policy": "fitted", "bounds": [0.01, 10.0], "per_dimension": false},
      "budgets": [0.376, 0.751],
      "allocation": {"source": "table",
                     "table": [{"mlbq": [38, 15, 3], "mlmc": [67, 11, 1]},
                               {"mlbq": [77, 30, 5], "mlmc": [133, 23, 2]}]},
      "replications": 100,
      "seed": 1234,
      "output": "results.csv"
    }

The other kernel policy and the formula allocation sources, with every key each reads::

    "kernel": {"family": "se", "lengthscale": 1.0, "policy": "fixed"}
    "allocation": {"source": "mlmc-formula", "variances": [...]}
    "allocation": {"source": "mlbq-formula", "norms": [...], "tau": 1.0}

A key its section, kernel family, kernel policy or allocation source does
not read is a ConfigError; a top-level ``comment`` is allowed.  The kernel
families are ``matern`` and ``se``; only ``matern`` reads ``smoothness``.
``lengthscale`` (default 1.0) is taken under both policies, though the
``fitted`` search never reads its value, so the shipped fitted configs
leave it out; ``fixed`` reads no key of its own.  Under either policy
every level is conditioned at its amplitude MLE.  A formula source
needs every key shown for it.  Per-level costs are the model's own
(``model.params.costs``).
A table entry is a non-empty object of counts by estimator name; an
estimator it leaves out is not run at that budget.
Single-level estimators (``mc``, ``bq``) take a one-element table entry,
or ``floor(T / C_L)`` under formula sources; they run as the
one-level cases of ``mlmc`` and ``mlbq`` on the top level's evaluations.
Nothing is coerced: kernel flags are JSON booleans; counts (each >= 1),
``replications`` and ``seed`` JSON integers; other numbers finite JSON
numbers (``NaN`` and ``Infinity``, which Python's ``json`` reads, fail);
``output`` a string.  Before the sweep, a kernel with no closed form on
the measure, bad ``model.params`` or a design the measure cannot take
(``designs.check_design``, as a grid on N(0, 1)) is a ConfigError, and so
is a ``seed`` or ``replications`` (and ``jobs``) breaking its key's rule.

The records CSV has one column per ``_RECORD_COLUMNS`` row, which says how
its value is written, parsed and checked (by the config's checker for that
value), and a record has a ``variance`` exactly when its estimator is
Bayesian; a record breaking a rule is a ConfigError naming path and line.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import hashlib
import json
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .allocation import mlbq_allocation, mlmc_allocation
from .designs import DESIGN_KINDS, SEEDLESS_DESIGNS, check_design, generate_design
from .gp import GPFit, _fit_lengthscales, _profiled_fit
from .kernels import Kernel, initial_error
from .models import MODEL_NAMES, _finite, make_model
from .quadrature import LevelData, LevelFailure, _each_level, credible_z, mlbq_estimate, mlmc_estimate

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
ESTIMATOR_NAMES = ("mc", "mlmc", "bq", "mlbq")
BAYESIAN = {"bq", "mlbq"}
SINGLE_LEVEL = {"mc", "bq"}
NOMINAL_LEVELS = (0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99)  # the credible levels calibrated by default


class ConfigError(ValueError):
    """Invalid experiment configuration."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimatorSpec:
    name: str
    design: str


@dataclass(frozen=True)
class KernelPolicy:
    family: str = "matern"
    smoothness: float = 0.5
    lengthscale: tuple[float, ...] | float = 1.0
    policy: str = "fitted"
    bounds: tuple[float, float] = (0.01, 10.0)
    per_dimension: bool = False

    def base_kernel(self, dim: int) -> Kernel:
        if self.family == "matern":
            return Kernel.matern(self.smoothness, self.lengthscale, dim=dim)
        if self.family == "se":
            return Kernel.squared_exponential(self.lengthscale, dim=dim)
        raise ConfigError(f"unknown kernel family {self.family!r}")

    def level_kernel(self, points, values, dim: int) -> Kernel:
        """The level's kernel with this policy's lengthscales (searched under the fitted policy)."""
        base = self.base_kernel(dim)
        if self.policy == "fitted":
            return _fit_lengthscales(base, points, values, self.bounds, per_dimension=self.per_dimension)
        return base

    def level_fit(self, points, values, dim: int) -> GPFit:
        """The level's GP conditioned on its data at the amplitude MLE.

        The amplitude MLE and the fit share one factor of the Gram matrix.
        """
        return _profiled_fit(self.level_kernel(points, values, dim), points, values)


@dataclass(frozen=True)
class AllocationSpec:
    source: str
    table: tuple | None = None
    variances: tuple[float, ...] | None = None
    norms: tuple[float, ...] | None = None
    tau: float | None = None

    def plan(self, costs, budget: float, dim: int):
        """A formula source's plan at ``budget``: ``mlmc_allocation`` or ``mlbq_allocation``, by source; a ``tau``
        at or below ``dim / 2`` is a ConfigError."""
        key = "variances" if self.source == "mlmc-formula" else "norms"
        values = getattr(self, key)
        _require(len(values) == len(costs),  # one per level, as ``costs`` has
                 f"allocation {key} needs one entry per level, got {len(values)} for {len(costs)}")
        if key == "variances":
            return mlmc_allocation(values, costs, budget)
        _require(self.tau > dim / 2, f"allocation tau must exceed d/2 = {dim / 2}, got {self.tau}")
        return mlbq_allocation(values, costs, budget, self.tau, dim)


@dataclass(frozen=True)
class ExperimentConfig:
    model_name: str
    estimators: tuple[EstimatorSpec, ...]
    budgets: tuple[float, ...]
    allocation: AllocationSpec
    model_params: dict = field(default_factory=dict)
    kernel: KernelPolicy = KernelPolicy()
    replications: int = 1
    seed: int = 0
    output: str | None = None


def _require(condition, message):
    if not condition:
        raise ConfigError(message)


def _section(raw, table, where, required=()) -> dict:
    """``raw``'s values, each through its key's checker in ``table``; an unknown or missing key is a ConfigError."""
    _require(isinstance(raw, dict), f"{where} must be an object")
    unknown = [key for key in raw if key not in table]
    _require(not unknown, f"{where} has unknown keys {unknown}; it reads {sorted(table)}")
    missing = [key for key in required if key not in raw]
    _require(not missing, f"{where} needs {missing}")
    return {key: table[key](value, f"{where} {key}") for key, value in raw.items()}


def _rule(test, rule, convert=None):
    """A checker: a value failing ``test`` is a ConfigError saying what it must be; else ``convert(value)``."""
    def check(value, what):
        _require(test(value), f"{what} must be {rule}, got {value!r}")
        return value if convert is None else convert(value)
    return check


def _is_number(value):
    """A JSON number that is not a boolean, NaN or an infinity (nor an int too large for a float)."""
    return type(value) in (int, float) and _finite(value)


def _is_numbers(value):
    return isinstance(value, (list, tuple)) and all(map(_is_number, value))


def _floats(value):
    return tuple(map(float, value)) if isinstance(value, (list, tuple)) else float(value)


def _one_of(*options):
    return _rule(lambda value: value in options, f"one of {options}")


_number = _rule(_is_number, "a finite number", float)
_positive = _rule(lambda value: _is_number(value) and value > 0, "a finite number > 0", float)
_positives = _rule(lambda v: _is_numbers(v) and all(x > 0 for x in v), "a list of finite numbers > 0", _floats)
_nonnegative = _rule(lambda value: _is_number(value) and value >= 0, "a finite number >= 0", float)
_index = _rule(lambda value: type(value) is int and value >= 0, "an integer >= 0")
_count = _rule(lambda value: type(value) is int and value >= 1, "an integer >= 1")
_flag = _rule(lambda value: type(value) is bool, "a boolean")
_string = _rule(lambda value: type(value) is str, "a string")
_counts = _rule(lambda row: isinstance(row, list) and all(type(n) is int and n >= 1 for n in row),
                "a list of integer counts >= 1", tuple)


def _table(value, what):
    """Each budget's entry: a non-empty dict of counts by estimator name."""
    _require(isinstance(value, list), f"{what} must be a list of entries")
    for i, entry in enumerate(value):
        _require(type(entry) is dict and entry, f"{what}[{i}] must be a non-empty object of counts, got {entry!r}")
    return tuple({name: _counts(row, f"{what}[{i}] {name!r}") for name, row in entry.items()}
                 for i, entry in enumerate(value))


def _allocation(value, what):
    """The allocation section through its source's key table; every key is required."""
    _require(isinstance(value, dict), "allocation must be an object")
    _require("costs" not in value, "allocation.costs is not read: set per-level costs in model.params.costs")
    keys = _ALLOCATION[_SOURCE(value.get("source"), "allocation source")]
    return AllocationSpec(**_section(value, dict(keys, source=_SOURCE), "allocation", keys))


def _kernel(value, what):
    """The kernel section through the shared keys plus those its family and its policy read."""
    _require(isinstance(value, dict), "kernel must be an object")
    family = _KERNEL["family"](value.get("family", KernelPolicy.family), "kernel family")
    policy = _KERNEL["policy"](value.get("policy", KernelPolicy.policy), "kernel policy")
    return KernelPolicy(**_section(value, {**_KERNEL, **_FAMILY_KEYS[family], **_POLICY_KEYS[policy]}, "kernel"))


# One checker per key; one table per section, kernel family, kernel policy and allocation source; an absent
# key takes its dataclass field's default.
_MODEL = {"name": _one_of(*MODEL_NAMES), "params": _rule(lambda value: type(value) is dict, "an object")}
_ESTIMATOR = {"name": _one_of(*ESTIMATOR_NAMES), "design": _one_of(*DESIGN_KINDS)}
_KERNEL = {
    "family": _one_of("matern", "se"),
    "lengthscale": _rule(lambda value: _is_number(value) or _is_numbers(value),
                         "a finite number or a list of finite numbers", _floats),
    "policy": _one_of("fixed", "fitted"),
}
_FAMILY_KEYS = {"matern": {"smoothness": _number}, "se": {}}
_POLICY_KEYS = {
    "fixed": {},
    "fitted": {"per_dimension": _flag, "bounds": _rule(
        lambda b: _is_numbers(b) and len(b) == 2 and 0 < b[0] < b[1], "[lo, hi] with 0 < lo < hi", _floats)},
}
_SOURCE = _one_of("table", "mlmc-formula", "mlbq-formula")
_ALLOCATION = {
    "table": {"table": _table},
    "mlmc-formula": {"variances": _positives},
    "mlbq-formula": {"norms": _positives, "tau": _number},
}
_TOP = {
    "comment": _string,
    "schema_version": _rule(lambda value: type(value) is int and value == SCHEMA_VERSION, str(SCHEMA_VERSION)),
    "model": lambda value, what: _section(value, _MODEL, "model", ("name",)),
    "estimators": _rule(lambda value: isinstance(value, list) and value, "a nonempty list", lambda value: tuple(
        EstimatorSpec(**_section(e, _ESTIMATOR, "estimator", ("name", "design"))) for e in value)),
    "kernel": _kernel,
    "budgets": _rule(lambda value: isinstance(value, list) and value, "a nonempty list",
                     lambda value: tuple(_positive(t, "budget") for t in value)),
    "allocation": _allocation,
    "replications": _count,
    "seed": _index,
    "output": _string,
}


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a raw config dict into an :class:`ExperimentConfig`.

    Each section's keys pass their checkers in its table (``_TOP``, ``_MODEL``, ``_ESTIMATOR``, ``_KERNEL`` with
    the family's and policy's keys, the source's ``_ALLOCATION`` keys) before the rules across sections run.
    """
    fields = _section(raw, _TOP, "config", ("schema_version", "model", "estimators", "budgets", "allocation"))
    model = {f"model_{key}": value for key, value in fields.pop("model").items()}
    cfg = ExperimentConfig(**model, **{key: v for key, v in fields.items() if key not in ("comment", "schema_version")})

    names = [e.name for e in cfg.estimators]
    _require(len(names) == len(set(names)), "estimator names must be unique")
    table = cfg.allocation.table
    if table is not None:
        _require(len(table) == len(cfg.budgets), "allocation.table needs one entry per budget")
        for i, entry in enumerate(table):
            stray = set(entry) - set(names)
            _require(not stray, f"allocation table entry {i} names unknown estimators {sorted(stray)}")
    return cfg


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


# The records CSV in column order: (column, how a record's value is written, how its text is parsed, the checker
# of the parsed value, the config's own for that value).  An empty variance reads as None.
_RECORD_COLUMNS = (
    ("replication", str, int, _index),
    ("estimator", str, str, _ESTIMATOR["name"]),
    ("budget", repr, float, _positive),
    ("estimate", repr, float, _number),
    ("variance", lambda v: "" if v is None else repr(v), float, _nonnegative),
    ("abs_error", repr, float, _nonnegative),
    ("cost", repr, float, _nonnegative),
    ("n_per_level", lambda ns: ";".join(map(str, ns)), lambda text: [int(n) for n in text.split(";")], _counts),
)
CSV_COLUMNS = tuple(name for name, *_ in _RECORD_COLUMNS)


@contextlib.contextmanager
def _csv_writer(path):
    """A csv writer on ``path``, opened for writing; a path that cannot be written is a ConfigError naming it."""
    try:
        with open(path, "w", newline="") as fh:
            yield csv.writer(fh)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def write_records_csv(records, path):
    """Write records with the fixed column order; floats use repr round-trip."""
    with _csv_writer(path) as writer:
        writer.writerow(CSV_COLUMNS)
        writer.writerows([write(getattr(r, name)) for name, write, *_ in _RECORD_COLUMNS] for r in records)


def _record(row) -> ResultRecord:
    if len(row) != len(CSV_COLUMNS):
        raise ValueError(f"expected {len(CSV_COLUMNS)} fields, got {len(row)}")
    fields = {name: None if name == "variance" and not text else check(parse(text), name)
              for (name, _, parse, check), text in zip(_RECORD_COLUMNS, row)}
    bayesian = fields["estimator"] in BAYESIAN
    _require((fields["variance"] is None) != bayesian,
             f"variance must be {'a number' if bayesian else 'empty'} for estimator {fields['estimator']!r}")
    return ResultRecord(**fields)


def read_records_csv(path) -> list[ResultRecord]:
    """The records of a ``write_records_csv`` file; an unreadable file, or a line that is malformed or breaks a
    column's rule, is a ConfigError naming the path and the line."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader, None)
                if header is None or tuple(header) != CSV_COLUMNS:
                    raise ValueError("no CSV header" if header is None else f"unexpected CSV header {header}")
                return [_record(row) for row in reader]
            except (ValueError, csv.Error) as exc:
                raise ConfigError(f"records {path}, line {max(reader.line_num, 1)}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read records {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# allocation resolution
# ---------------------------------------------------------------------------


def _counts_for(cfg: ExperimentConfig, model, budget_index: int) -> dict[str, tuple[int, ...]]:
    """Per-estimator sample sizes for one budget; an estimator its table entry leaves out is not run there."""
    alloc = cfg.allocation
    budget = cfg.budgets[budget_index]
    if alloc.source == "table":
        entry = alloc.table[budget_index]
        out = {est.name: entry[est.name] for est in cfg.estimators if est.name in entry}
        for name, counts in out.items():
            expected = 1 if name in SINGLE_LEVEL else model.levels
            _require(len(counts) == expected, f"{name!r} needs {expected} counts at budget {budget}, got {len(counts)}")
        return out
    counts = alloc.plan(model.costs, budget, model.dim).counts
    top = (max(int(budget / model.costs[-1]), 1),)
    return {est.name: top if est.name in SINGLE_LEVEL else counts for est in cfg.estimators}


def _cell_cost(counts, costs) -> float:
    """A cell's declared cost: its counts paired with the last ``len(counts)`` level costs (one count: the top)."""
    return float(sum(n * c for n, c in zip(counts, costs[-len(counts):])))


def validate_budget_accounting(cfg: ExperimentConfig, model) -> list[dict[str, tuple[int, ...]]]:
    """Every cell's realized cost must stay within one step of its budget, and each of its levels' designs
    must exist on the model's measure (``designs.check_design``).

    Returns the checked per-estimator sample sizes, one dict per budget.
    """
    costs, designs = model.costs, {est.name: est.design for est in cfg.estimators}
    per_budget = [_counts_for(cfg, model, bi) for bi in range(len(cfg.budgets))]
    for budget, counts_by_est in zip(cfg.budgets, per_budget):
        for name, counts in counts_by_est.items():
            cost = _cell_cost(counts, costs)
            if cost > budget + max(costs) + 1e-12:
                raise ConfigError(
                    f"estimator {name!r} at budget {budget} costs {cost:.6g}, beyond the one-step slack"
                )
            try:
                for n in counts:
                    check_design(designs[name], model.measure, n)
            except ValueError as exc:
                raise ConfigError(f"estimator {name!r} ({designs[name]} design) at budget {budget}: {exc}") from exc
    return per_budget


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------


def _data_hash(levels) -> str:
    """The content hash of level data: sha256 of each level's points then values."""
    return hashlib.sha256(b"".join(lv.points.tobytes() + lv.values.tobytes() for lv in levels)).hexdigest()


def _groups(cfg, counts_by_est):
    """(estimator, group key, group number) of each allocated estimator, in config order: the key is
    (design, counts), the number its position among the sorted distinct keys."""
    keys = {est: (est.design, counts_by_est[est.name]) for est in cfg.estimators if est.name in counts_by_est}
    numbers = {key: gi for gi, key in enumerate(sorted(set(keys.values())))}
    return [(est, key, numbers[key]) for est, key in keys.items()]


def _group_data(cfg, model, budget_index, replication, key, number):
    """One group's level data: the model's last ``len(counts)`` levels, each level's design evaluated there.

    The first of those levels is evaluated and each later one gives its increment, so a multilevel
    group starts at level 0 and a one-count group is the top level.  A level that cannot be built is
    a ``LevelFailure`` at its position (``quadrature._each_level``).
    """
    design_kind, counts = key
    first = model.levels - len(counts)

    def build(item):
        level, n = item
        seed = np.random.SeedSequence(cfg.seed, spawn_key=(budget_index, replication, number, level))
        points = generate_design(design_kind, model.measure, n, seed=seed).points
        return LevelData(points, model.increments(level, points) if level > first else model.evaluate(level, points))

    levels = _each_level(build, enumerate(counts, first))
    if log.isEnabledFor(logging.DEBUG):  # hashing every group's data costs about a tenth of an ODE sweep
        log.debug("cell T=%s rep=%s group=%s hash=%s", cfg.budgets[budget_index], replication, key, _data_hash(levels))
    return levels


def _run_estimator(cfg, model, est: EstimatorSpec, levels):
    """Return (estimate, variance or None) for one estimator on one cell.

    A Bayesian estimator is ``mlbq`` on its levels, the other ``mlmc`` (``bq`` and ``mc`` on one level); a
    level's fit failure is a ``LevelFailure`` at its position, as its posterior's is.
    """
    if est.name in BAYESIAN:
        fits = _each_level(lambda lv: cfg.kernel.level_fit(lv.points, lv.values, model.dim), levels)
        post = mlbq_estimate(fits, model.measure)
        return post.mean, post.variance
    return mlmc_estimate(levels), None


def _run_cells(cfg: ExperimentConfig, model, reference, budget_index: int, counts_by_est, replications):
    """One budget's records and failed cells for ``replications``, both in (replication, estimator) order.

    A cell is keyed (estimator, group key) when its design ignores the seed (``SEEDLESS_DESIGNS``) and
    (estimator, group key, replication) otherwise; a key already computed in this task reuses its
    (estimate, variance), and a group's level data are built once per replication, when a cell first
    needs them.  Only a ``LevelFailure`` fails a cell, which is returned as (budget, replication, name,
    failure): a group that cannot be built keeps its failure for that replication, which fails each
    estimator sharing it; failures are not kept across replications, so each reports its own.
    """
    budget = cfg.budgets[budget_index]
    groups = _groups(cfg, counts_by_est)
    records, failures, results = [], [], {}
    for rep in replications:
        data = {}
        for est, key, number in groups:
            cell = (est, key) if key[0] in SEEDLESS_DESIGNS else (est, key, rep)
            try:
                if cell not in results:
                    if key not in data:
                        data[key] = _group_data(cfg, model, budget_index, rep, key, number)
                    if isinstance(data[key], LevelFailure):
                        raise data[key]
                    results[cell] = _run_estimator(cfg, model, est, data[key])
            except LevelFailure as exc:
                data.setdefault(key, exc)  # a group that failed to build fails each estimator sharing it
                failures.append((budget, rep, est.name, exc))
                continue
            records.append(ResultRecord.make(rep, est.name, budget, *results[cell], reference,
                                             _cell_cost(key[1], model.costs), key[1]))
    return records, failures


def _pin_blas_threads():
    """Set each OpenBLAS build loaded here to one thread; return its (set call, old count)s, [] if none is found."""
    try:
        with open("/proc/self/maps") as fh:  # address, perms, offset, device, inode, then a path that may hold spaces
            paths = {line.split(maxsplit=5)[5].rstrip("\n") for line in fh if "openblas" in line.lower()}
    except OSError:
        return []
    pinned = []
    for lib in map(ctypes.CDLL, sorted(path for path in paths if not path.endswith("(deleted)"))):
        for suffix in ("64_", ""):  # numpy's build (64-bit integers), scipy's build
            name = f"scipy_openblas_%s_num_threads{suffix}"
            if hasattr(lib, name % "set"):
                set_threads, get_threads = getattr(lib, name % "set"), getattr(lib, name % "get")
                set_threads.argtypes, get_threads.restype = [ctypes.c_int], ctypes.c_int
                pinned.append((set_threads, get_threads()))
                set_threads(1)
    return pinned


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> list[ResultRecord]:
    """Run the configured sweep; deterministic given the config.

    The model, its reference integral and each budget's sample sizes are
    computed once here, each (estimator, count)'s design checked against the
    measure before any cell runs, and handed to every (budget, replications)
    task as they are.  Within a task a grid or Halton cell is computed once
    per estimator and reused; reuse is exact, so how the replications are
    split into tasks does not change the records.  With ``jobs > 1`` the
    tasks run in worker processes; their records and failed cells come back
    in (budget, replication, estimator) order and the failures are logged
    here, so the parallel run's output and log match the serial run's; the
    pool starts at most one worker per task, and a sweep of one task runs in
    this process whatever ``jobs`` is.  ``seed``, ``replications``
    and ``jobs`` (by the ``replications`` rule) pass their keys' checkers.
    The sweep and its workers run at one BLAS thread, because LAPACK's
    blocking follows the thread count and would move the records' low bits;
    the old counts are restored after.
    """
    _count(jobs, "jobs")
    _count(cfg.replications, "config replications")
    _index(cfg.seed, "config seed")
    pinned = _pin_blas_threads()
    if not pinned:
        log.warning("no OpenBLAS thread control found: the records may depend on the BLAS thread count")
    try:
        try:
            model = make_model(cfg.model_name, **cfg.model_params)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"model.params: {exc}") from exc
        counts = validate_budget_accounting(cfg, model)
        if any(est.name in BAYESIAN for est in cfg.estimators):
            try:  # the closed forms every level kernel needs: each has the base kernel's factors and this measure
                initial_error(cfg.kernel.base_kernel(model.dim), model.measure)
            except ValueError as exc:
                raise ConfigError(f"kernel: {exc}") from exc
        reference = model.reference_integral()
        chunk = max(1, math.ceil(cfg.replications / jobs))
        tasks = [
            (cfg, model, reference, bi, counts[bi], range(start, min(start + chunk, cfg.replications)))
            for bi in range(len(cfg.budgets))
            for start in range(0, cfg.replications, chunk)
        ]
        workers = min(jobs, len(tasks))
        if workers <= 1:
            results = [_run_cells(*task) for task in tasks]
        else:
            with ProcessPoolExecutor(max_workers=workers, initializer=_pin_blas_threads) as pool:
                results = [fut.result() for fut in [pool.submit(_run_cells, *task) for task in tasks]]
        for _, failures in results:
            for failure in failures:
                log.warning("cell (T=%s, rep=%s, %s) failed: %s", *failure)
        return [record for records, _ in results for record in records]
    finally:
        for set_threads, count in pinned:
            set_threads(count)


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverageRow:
    nominal_level: float
    coverage: float
    binomial_se: float
    count: int


def calibration_table(records, levels=NOMINAL_LEVELS) -> list[CoverageRow]:
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
        z = credible_z(q)
        hits = sum(1 for r in bayes if r.abs_error <= z * math.sqrt(r.variance))
        n = len(bayes)
        rows.append(CoverageRow(q, hits / n, math.sqrt(q * (1 - q) / n), n))
    return rows


def write_coverage_csv(rows, path):
    with _csv_writer(path) as writer:
        writer.writerow(["nominal_level", "coverage", "binomial_se", "count"])
        for row in rows:
            writer.writerow([repr(row.nominal_level), repr(row.coverage), repr(row.binomial_se), row.count])
