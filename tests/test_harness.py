import contextlib
import copy
import ctypes
import dataclasses
import filecmp
import io
import json
import logging.handlers
import math
import os
import pickle
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mlbq import harness
from mlbq.cli import main
from mlbq.gp import SingularGramError
from mlbq.harness import (
    ConfigError,
    ResultRecord,
    _counts_for,
    _data_hash,
    _group_data,
    _groups,
    calibration_table,
    config_from_dict,
    load_config,
    read_records_csv,
    run_experiment,
    validate_budget_accounting,
    write_records_csv,
)
from mlbq.kernels import Matern
from mlbq.models import ModelError, OdeHierarchy, PoissonHierarchy, make_model
from mlbq.quadrature import LevelFailure, _total

BASE_CONFIG = {
    "schema_version": 1,
    "model": {"name": "poisson", "params": {}},
    "estimators": [{"name": "mlbq", "design": "grid"}, {"name": "mlmc", "design": "iid"}],
    "kernel": {"family": "matern", "smoothness": 0.5, "policy": "fitted", "bounds": [0.01, 10.0]},
    "budgets": [0.376],
    "allocation": {"source": "table", "table": [{"mlbq": [38, 15, 3], "mlmc": [67, 11, 1]}]},
    "replications": 3,
    "seed": 99,
}
POISSON_V = [1.305e-3, 0.088e-3, 0.002e-3]  # the published per-level variances and norms
POISSON_NORMS = [62.5e-3, 22.5e-3, 3.125e-3]


def config(**overrides):
    raw = copy.deepcopy(BASE_CONFIG)
    raw.update(overrides)
    return config_from_dict(raw)


def group_data(cfg, model, counts, replication, budget_index=0):
    """Each allocated estimator's level data in ``replication``, from the sweep's group-data helper."""
    return {est.name: _group_data(cfg, model, budget_index, replication, key, number)
            for est, key, number in _groups(cfg, counts)}


def singular_at_ten(monkeypatch):
    """Make every 10-point level fit fail, as a Gram matrix that no nugget makes positive definite."""
    level_fit = harness.KernelPolicy.level_fit

    def fit(policy, points, values, dim):
        if len(points) == 10:
            raise SingularGramError("Gram matrix not positive definite even with nugget 0.0001", 1e-4)
        return level_fit(policy, points, values, dim)

    monkeypatch.setattr(harness.KernelPolicy, "level_fit", fit)


def _fails_before_the_sweep(raw, tmp_path, monkeypatch, match=None):
    """``raw`` is a configuration error before any sweep work, and the command line exits 1 writing no file."""
    model = {"poisson": PoissonHierarchy, "ode": OdeHierarchy}[raw["model"]["name"]]
    monkeypatch.setattr(model, "reference_integral", lambda self: pytest.fail("sweep started"))
    with pytest.raises(ConfigError, match=match):
        run_experiment(config_from_dict(raw))
    cfg_path, out, err = tmp_path / "cfg.json", tmp_path / "records.csv", io.StringIO()
    cfg_path.write_text(json.dumps(raw))
    with contextlib.redirect_stderr(err):
        assert main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "config error:" in err.getvalue()
    assert not out.exists()


class TestConfig:
    def test_pickle_round_trip(self):
        # --jobs workers receive the frozen config as it is
        cfg = config(kernel={"family": "matern", "policy": "fixed", "lengthscale": [0.5]}, output="out.csv")
        assert pickle.loads(pickle.dumps(cfg)) == cfg
        assert pickle.loads(pickle.dumps(config())) == config()

    def test_rejects_wrong_schema_version(self):
        with pytest.raises(ConfigError, match="schema_version"):
            config(schema_version=2)

    def test_rejects_unknown_estimator(self):
        with pytest.raises(ConfigError, match="estimator name"):
            config(estimators=[{"name": "qmc", "design": "grid"}])

    def test_rejects_unknown_design(self):
        with pytest.raises(ConfigError, match="design"):
            config(estimators=[{"name": "mlbq", "design": "sobol"}])

    def test_rejects_missing_table_entry(self):
        with pytest.raises(ConfigError, match="one entry per budget"):
            config(budgets=[0.376, 0.751])

    def test_rejects_stray_table_estimator(self):
        with pytest.raises(ConfigError, match="unknown estimators"):
            config(allocation={"source": "table", "table": [{"mlbq": [38, 15, 3], "bogus": [1, 1, 1]}]})

    @pytest.mark.parametrize("entry", [[20, 8, 2], {}], ids=["list", "empty"])
    def test_rejects_table_entry_that_is_not_a_nonempty_object(self, entry):
        # a list entry used to load as those counts for every estimator, and an empty one failed only in the sweep
        with pytest.raises(ConfigError, match=r"allocation table\[0\] must be a non-empty object of counts"):
            config(allocation={"source": "table", "table": [entry]})

    def test_rejects_allocation_costs(self):
        # costs have one source, the model's declared vector
        alloc = dict(BASE_CONFIG["allocation"], costs=[1.0, 2.0, 4.0])
        with pytest.raises(ConfigError, match="model.params.costs"):
            config(allocation=alloc)

    def test_formula_source_requires_magnitudes(self):
        with pytest.raises(ConfigError, match="variances"):
            config(allocation={"source": "mlmc-formula"})
        with pytest.raises(ConfigError, match="tau"):
            config(allocation={"source": "mlbq-formula", "norms": [1.0, 0.5, 0.1]})

    @pytest.mark.parametrize(
        "bad",
        [
            {"bounds": [10.0, 0.01]},
            {"bounds": [0.01, 10.0, 99.0]},
            {"bounds": [0.01, "10"]},
            {"smoothness": 1.5},
            {"lengthscale": -1.0, "policy": "fixed", "bounds": None},
            {"family": "squared-exponential"},
            {"per_dimension": "no"},  # a flag is a JSON boolean: bool("no") would read as true
            {"family": "brownian", "smoothness": None},  # an unknown family: the package has no Brownian factor
            {"model": "ode", "smoothness": 0.5},  # Matern-1/2 has none on the ODE model's N(0, 1) axis
        ],
    )
    def test_bad_kernel_fails_before_the_sweep(self, bad, tmp_path, monkeypatch):
        # a bad kernel setting is one configuration error, not one failed cell per (budget, replication);
        # a None drops the base kernel's key, which the row's family or policy does not read
        raw, kernel = copy.deepcopy(BASE_CONFIG), dict(bad)
        raw["model"]["name"] = kernel.pop("model", "poisson")
        raw["kernel"] = {key: v for key, v in dict(raw["kernel"], **kernel).items() if v is not None}
        _fails_before_the_sweep(raw, tmp_path, monkeypatch)

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"replicatons": 5}, r"config has unknown keys \['replicatons'\]"),
            ({"model": {"name": "poisson", "parms": {"costs": [1.0, 2.0, 4.0]}}},
             r"model has unknown keys \['parms'\]"),
            ({"estimators": [{"name": "mlbq", "design": "grid"}, {"name": "mlmc", "design": "iid", "desing": "grid"}]},
             r"estimator has unknown keys \['desing'\]"),
            ({"kernel": dict(BASE_CONFIG["kernel"], smoothnes=2.5)}, r"kernel has unknown keys \['smoothnes'\]"),
            ({"allocation": dict(BASE_CONFIG["allocation"], gama=3)}, r"allocation has unknown keys \['gama'\]"),
            ({"estimators": [{"name": "mlbq", "design": "grid"}, {"name": "sk-mlbq", "design": "grid"}],
              "kernel": {"family": "matern", "smoothness": 2.5, "policy": "fixed"},
              "allocation": {"source": "table", "table": [{"mlbq": [20, 9, 4], "sk-mlbq": [20, 9, 4]}]}},
             "estimator name .*'sk-mlbq'"),
            ({"kernel": dict(BASE_CONFIG["kernel"], amplitude=2.0)}, r"kernel has unknown keys \['amplitude'\]"),
            ({"kernel": dict(BASE_CONFIG["kernel"], mle_amplitude=True)},
             r"kernel has unknown keys \['mle_amplitude'\]"),
            ({"kernel": {"family": "matern", "smoothness": 0.5, "policy": "fixed", "amplitude": 1.0}},
             r"kernel has unknown keys \['amplitude'\]"),
            ({"kernel": {"family": "se", "lengthscale": 1.0, "policy": "fixed", "mle_amplitude": True}},
             r"kernel has unknown keys \['mle_amplitude'\]"),
            ({"kernel": {"family": "matern", "smoothness": 0.5, "policy": "fixed", "amplitude": True}},
             r"kernel has unknown keys \['amplitude'\]"),
            ({"kernel": {"family": "matern", "smoothness": 0.5, "policy": "fixed", "mle_amplitude": "false"}},
             r"kernel has unknown keys \['mle_amplitude'\]"),
            ({"kernel": {"family": "matern", "smoothness": 0.5, "policy": "fixed", "bounds": [0.5, 2.0]}},
             r"kernel has unknown keys \['bounds'\]"),
            ({"kernel": {"family": "matern", "smoothness": 0.5, "policy": "fixed", "per_dimension": True}},
             r"kernel has unknown keys \['per_dimension'\]"),
            ({"kernel": {"family": "se", "smoothness": 0.5, "policy": "fitted"}},
             r"kernel has unknown keys \['smoothness'\]"),
            ({"allocation": dict(BASE_CONFIG["allocation"], gamma=2)}, r"allocation has unknown keys \['gamma'\]"),
            ({"allocation": {"source": "mlmc-formula", "variances": POISSON_V, "gamma": 1}},
             r"allocation has unknown keys \['gamma'\]"),
            ({"allocation": {"source": "mlmc-formula", "variances": POISSON_V, "norms": [1, 2, 3]}},
             r"allocation has unknown keys \['norms'\]"),
            ({"allocation": {"source": "mlmc-formula", "variances": POISSON_V, "tau": 2.0}},
             r"allocation has unknown keys \['tau'\]"),
            ({"allocation": {"source": "mlmc-formula", "variances": POISSON_V, "table": [[67, 11, 1]]}},
             r"allocation has unknown keys \['table'\]"),
            ({"allocation": {"source": "mlbq-formula", "norms": POISSON_NORMS, "tau": 1.0, "variances": POISSON_V}},
             r"allocation has unknown keys \['variances'\]"),
            ({"allocation": {"source": "mlbq-formula", "norms": POISSON_NORMS, "tau": 1.0, "table": [[38, 15, 3]]}},
             r"allocation has unknown keys \['table'\]"),
        ],
        ids=["replicatons", "model.parms", "estimator.desing", "kernel.smoothnes", "allocation.gama", "sk-mlbq",
             "fitted-amplitude", "fitted-mle_amplitude", "fixed-amplitude", "fixed-mle_amplitude",
             "fixed-bool-amplitude", "fixed-string-mle_amplitude", "fixed-bounds", "fixed-per_dimension", "se-smoothness",
             "table-gamma", "mlmc-formula-gamma", "mlmc-formula-norms", "mlmc-formula-tau", "mlmc-formula-table",
             "mlbq-formula-variances", "mlbq-formula-table"],
    )
    def test_unknown_keys_fail_before_the_sweep(self, overrides, match, tmp_path, monkeypatch):
        # a misspelt key used to be ignored, so the sweep ran on the default it meant to replace; so was a key
        # that the chosen kernel family or policy or allocation source does not read
        _fails_before_the_sweep(dict(copy.deepcopy(BASE_CONFIG), **overrides), tmp_path, monkeypatch, match)

    @pytest.mark.parametrize(
        "allocation, match",
        [
            ({"source": "table", "table": [{"mlbq": [38, 0, 3], "mlmc": [67, 11, 1]}]}, r"table\[0\] 'mlbq'"),
            ({"source": "table", "table": [{"mlbq": [38, 15, 3], "mlmc": [67, 11, -5]}]}, r"table\[0\] 'mlmc'"),
            ({"source": "mlmc-formula", "variances": [1.305e-3, 0.088e-3, 0.002e-3], "gamma": 0}, "gamma"),
            ({"source": "mlmc-formula", "variances": [1.305e-3, 0.088e-3, 0.002e-3], "gamma": -3}, "gamma"),
            ({"source": "mlmc-formula", "variances": [1, -0.1, 0.01]},
             r"allocation variances must be a list of finite numbers > 0, got \[1, -0.1, 0.01\]"),
            ({"source": "mlbq-formula", "norms": [62.5e-3, 0, 3.125e-3], "tau": 1.0},
             r"allocation norms must be a list of finite numbers > 0, got \[0.0625, 0, 0.003125\]"),
            ({"source": "mlmc-formula", "variances": [1.305e-3, 0.088e-3]},
             "allocation variances needs one entry per level, got 2 for 3"),
            ({"source": "mlbq-formula", "norms": [62.5e-3, 22.5e-3, 3.125e-3, 1e-3], "tau": 1.0},
             "allocation norms needs one entry per level, got 4 for 3"),
            ({"source": "mlbq-formula", "norms": [62.5e-3, 22.5e-3, 3.125e-3], "tau": 0.4},
             r"allocation tau must exceed d/2 = 0.5, got 0.4"),
        ],
        ids=["zero-count", "negative-count", "zero-gamma", "negative-gamma", "negative-variance", "zero-norm",
             "two-variances", "four-norms", "tau-below-half-d"],
    )
    def test_out_of_range_allocation_fails_before_the_sweep(self, allocation, match, tmp_path, monkeypatch):
        # a zero count failed mid-sweep naming no key; gamma 0 divided by zero, and gamma -3 ran mc on one sample
        # (gamma is no longer a key, so both are refused as an unknown one); a magnitude <= 0 or a list unlike the
        # model's levels failed in the allocation library's words, naming neither the key nor the value
        raw = dict(copy.deepcopy(BASE_CONFIG), allocation=allocation)
        if allocation["source"] != "table":
            raw["estimators"] = [{"name": "mc", "design": "iid"}]
        _fails_before_the_sweep(raw, tmp_path, monkeypatch, match)

    def test_schema_block_names_every_key(self):
        # the README points to the module docstring for the schema: its example and the variants after it name
        # each section's keys, every kernel family's and policy's and every allocation source's, all of them
        doc = harness.__doc__.replace("...", "")
        example_block, variant_block = (part[: part.index("\n\n")] for part in doc.split("::\n\n")[1:3])
        example = json.loads(example_block)
        variants = [json.loads("{%s}" % line) for line in variant_block.splitlines()]
        assert set(example) == set(harness._TOP)
        assert set(example["model"]) == set(harness._MODEL)
        assert {key for e in example["estimators"] for key in e} == set(harness._ESTIMATOR)
        kernels = [example["kernel"]] + [v["kernel"] for v in variants if "kernel" in v]
        for k in kernels:
            assert set(k) == {*harness._KERNEL, *harness._FAMILY_KEYS[k["family"]], *harness._POLICY_KEYS[k["policy"]]}
        assert {k["policy"] for k in kernels} == set(harness._POLICY_KEYS)
        assert {k["family"] for k in kernels} >= {family for family, keys in harness._FAMILY_KEYS.items() if keys}
        allocations = [example["allocation"]] + [v["allocation"] for v in variants if "allocation" in v]
        assert {a["source"]: set(a) - {"source"} for a in allocations} == {
            source: set(keys) for source, keys in harness._ALLOCATION.items()
        }
        for variant in [{}, *variants]:
            config_from_dict(dict(example, **variant))

    @pytest.mark.parametrize(
        "model, params",
        [
            ("poisson", {"foo": 1}),
            ("poisson", {"costs": "abc"}),
            ("poisson", {"interior_nodes": [4.7, 16, 64]}),
            ("poisson", {"interior_nodes": [True, 16, 64]}),
            ("ode", {"forcing": "50"}),
            ("ode", {"reference_refine": 8.9}),
            ("ode", {"reference_refine": 0}),
            ("ode", {"reference_refine": -1}),
            ("poisson", {"costs": [math.nan, 8.5e-3, 42.4e-3]}),
            ("poisson", {"costs": [1e-3, 8.5e-3, math.inf]}),
            ("ode", {"forcing": math.inf}),
            ("ode", {"reference_refine": 513}),
        ],
        ids=["unknown-key", "str-costs", "float-nodes", "bool-nodes", "str-forcing", "float-refine", "zero-refine",
             "negative-refine", "nan-costs", "inf-costs", "inf-forcing", "oversized-refine"],
    )
    def test_bad_model_params_fail_before_the_sweep(self, model, params, tmp_path, monkeypatch):
        # model.params are checked, not converted: 4.7 nodes used to run as 4, forcing "50" as 50.0; and range
        # checked: NaN costs wrote cost=nan records and infinite forcing failed at the first cell; reference_refine
        # (-1 measured every error against a reference of 0.0) is no longer a parameter, so each of its rows is
        # refused as an unknown one
        raw = copy.deepcopy(BASE_CONFIG)
        raw["model"] = {"name": model, "params": params}
        raw["kernel"]["smoothness"] = 2.5  # Matern-5/2 has a closed form on both models' measures
        _fails_before_the_sweep(raw, tmp_path, monkeypatch)

    @pytest.mark.parametrize(
        "estimators, table",
        [([{"name": "mlbq", "design": "grid"}, {"name": "mlmc", "design": "iid"}],
          {"mlbq": [20, 8, 3], "mlmc": [12, 5, 2]}),
         ([{"name": "bq", "design": "grid"}], {"bq": [4]})],
        ids=["ode-grid-mlbq", "ode-grid-bq"],
    )
    def test_design_the_measure_cannot_take_fails_before_the_sweep(self, estimators, table, tmp_path, monkeypatch):
        # the ODE model's second marginal is N(0, 1), which no grid covers: every replication used to log a failed
        # cell, and the command exited 0 without the grid estimator's rows
        raw = dict(copy.deepcopy(BASE_CONFIG), model={"name": "ode", "params": {}}, estimators=estimators,
                   kernel={"family": "se", "lengthscale": 1.0, "policy": "fixed"}, budgets=[0.1],
                   allocation={"source": "table", "table": [table]})
        match = rf"estimator '{estimators[0]['name']}' \(grid design\) at budget 0.1: grid designs need bounded"
        _fails_before_the_sweep(raw, tmp_path, monkeypatch, match)

    @pytest.mark.parametrize(
        "path, value",
        [
            (("replications",), True),
            (("seed",), True),
            (("allocation", "table", 0, "mlbq", 0), 38.5),
            (("allocation", "table", 0, "mlmc", 2), True),
            (("budgets", 0), True),
            (("kernel", "smoothness"), "0.5"),
            (("kernel", "lengthscale"), "1.0"),
            (("allocation",), {"source": "mlmc-formula", "variances": [1.305e-3, "0.088e-3", 0.002e-3]}),
            (("allocation",), {"source": "mlbq-formula", "norms": "123", "tau": 1.0}),
            (("allocation",), {"source": "mlbq-formula", "norms": [62.5e-3, 22.5e-3, 3.125e-3], "tau": "1"}),
            (("allocation",), {"source": "mlbq-formula", "norms": [62.5e-3, 22.5e-3, 3.125e-3], "tau": 1.0,
                               "gamma": True}),
            (("output",), 5),
            (("schema_version",), True),
            (("budgets", 0), math.inf),
            (("allocation",), {"source": "mlmc-formula", "variances": [math.nan, 0.088e-3, 0.002e-3]}),
            (("allocation",), {"source": "mlmc-formula", "variances": [math.inf, 0.088e-3, 0.002e-3]}),
            (("allocation",), {"source": "mlbq-formula", "norms": POISSON_NORMS, "tau": math.nan}),
            (("allocation",), {"source": "mlbq-formula", "norms": POISSON_NORMS, "tau": math.inf}),
            (("allocation",), {"source": "mlmc-formula", "variances": POISSON_V, "gamma": math.inf}),
        ],
        ids=["bool-replications", "bool-seed", "float-count", "bool-count", "bool-budget", "str-smoothness",
             "str-lengthscale", "str-variance", "str-norms", "str-tau", "bool-gamma", "int-output",
             "bool-schema-version", "inf-budget", "nan-variance", "inf-variance", "nan-tau", "inf-tau", "inf-gamma"],
    )
    def test_numbers_are_type_checked_not_coerced(self, path, value, tmp_path, monkeypatch):
        # counts and seeds are JSON integers, other numbers finite JSON numbers and output a string:
        # true would run as 1, 38.5 as 38, "123" as norms (1, 2, 3); Python's json reads NaN and Infinity, and
        # gamma Infinity ran every estimator on one sample per level (gamma is now an unknown key)
        raw = copy.deepcopy(BASE_CONFIG)
        *parents, last = path
        target = raw
        for key in parents:
            target = target[key]
        target[last] = value
        _fails_before_the_sweep(raw, tmp_path, monkeypatch)

    def test_kernel_not_built_without_bayesian_estimator(self):
        cfg = config(
            estimators=[{"name": "mlmc", "design": "iid"}],
            kernel={"smoothness": 1.5},
            allocation={"source": "table", "table": [{"mlmc": [67, 11, 1]}]},
        )
        assert [r.estimator for r in run_experiment(cfg)] == ["mlmc"] * 3

    def test_wrong_count_length(self):
        cfg = config(allocation={"source": "table", "table": [{"mlbq": [5, 5], "mlmc": [5, 5, 5]}]})
        with pytest.raises(ConfigError, match="needs 3 counts"):
            run_experiment(cfg)


class TestAllocationResolution:
    def test_formula_source_counts(self):
        cfg = config(
            estimators=[{"name": "mlmc", "design": "iid"}, {"name": "mc", "design": "iid"}],
            allocation={
                "source": "mlmc-formula",
                "variances": [1.305e-3, 0.088e-3, 0.002e-3],
            },
        )
        model = make_model("poisson")
        counts = _counts_for(cfg, model, 0)
        assert counts["mlmc"] == (68, 11, 1)
        # single-level estimators exhaust the budget at the top level
        assert counts["mc"] == (int(0.376 / 42.4e-3),)

    def test_formula_overhead_halves_the_budget(self):
        # doubling every level's cost runs both mlmc and mc at the counts for half the budget
        estimators = [{"name": "mlmc", "design": "iid"}, {"name": "mc", "design": "iid"}]
        allocation = {"source": "mlmc-formula", "variances": POISSON_V}
        poisson = make_model("poisson")
        doubled = {"name": "poisson", "params": {"costs": [2.0 * c for c in poisson.costs]}}
        records = run_experiment(config(model=doubled, estimators=estimators, allocation=allocation, replications=1))
        halved = _counts_for(config(estimators=estimators, allocation=allocation, budgets=[0.376 / 2]), poisson, 0)
        assert {r.estimator: r.n_per_level for r in records} == halved
        assert halved["mc"] == (4,) and halved["mlmc"] != (68, 11, 1)

    def test_estimator_skipped_when_absent_from_entry(self):
        cfg = config(
            budgets=[0.376, 0.751],
            allocation={
                "source": "table",
                "table": [{"mlbq": [38, 15, 3], "mlmc": [67, 11, 1]}, {"mlmc": [133, 23, 2]}],
            },
            replications=1,
        )
        records = run_experiment(cfg)
        assert {(r.estimator, r.budget) for r in records} == {
            ("mlbq", 0.376),
            ("mlmc", 0.376),
            ("mlmc", 0.751),
        }

    def test_budget_accounting_guard(self):
        cfg = config(allocation={"source": "table", "table": [{"mlbq": [380, 150, 30], "mlmc": [67, 11, 1]}]})
        with pytest.raises(ConfigError, match="slack"):
            validate_budget_accounting(cfg, make_model("poisson"))


class TestSharedData:
    def test_same_group_shares_identical_level_data(self, monkeypatch):
        cfg = config(
            estimators=[{"name": "mlbq", "design": "iid"}, {"name": "mlmc", "design": "iid"}],
            allocation={"source": "table", "table": [{"mlbq": [20, 8, 2], "mlmc": [20, 8, 2]}]},
        )
        model = make_model("poisson")
        counts = _counts_for(cfg, model, 0)
        assert counts["mlbq"] == counts["mlmc"] == (20, 8, 2)
        (_, key_a, number_a), (_, key_b, number_b) = _groups(cfg, counts)
        assert (key_a, number_a) == (key_b, number_b)
        seen, original = {}, harness._run_estimator

        def captured(cfg, model, est, levels):
            seen[est.name] = levels
            return original(cfg, model, est, levels)

        monkeypatch.setattr(harness, "_run_estimator", captured)
        harness._run_cells(cfg, model, model.reference_integral(), 0, counts, range(1))
        assert seen["mlbq"] is seen["mlmc"]  # both estimators consume the same level data

    def test_distinct_designs_get_distinct_groups(self):
        cfg = config()
        model = make_model("poisson")
        counts = _counts_for(cfg, model, 0)
        (_, key_a, number_a), (_, key_b, number_b) = _groups(cfg, counts)
        assert key_a != key_b and number_a != number_b
        groups = group_data(cfg, model, counts, 0)
        levels_a, levels_b = groups["mlbq"], groups["mlmc"]
        assert levels_a is not levels_b
        assert _data_hash(levels_a) != _data_hash(levels_b)

    def test_content_hash_logged_only_at_debug(self, monkeypatch, caplog):
        # the hash is for the debug log alone; computing it for every group cost about a tenth of an ODE sweep
        cfg = config(replications=1)
        model = make_model("poisson")
        counts, hashed = _counts_for(cfg, model, 0), []
        monkeypatch.setattr(harness, "_data_hash", lambda levels: hashed.append(levels) or _data_hash(levels))
        harness._run_cells(cfg, model, 0.0, 0, counts, range(1))
        assert hashed == []
        with caplog.at_level("DEBUG", logger="mlbq.harness"):
            harness._run_cells(cfg, model, 0.0, 0, counts, range(1))
        expected = {_data_hash(levels) for levels in group_data(cfg, model, counts, 0).values()}
        assert {r.message.rsplit("hash=", 1)[1] for r in caplog.records if "hash=" in r.message} == expected

    def test_replications_differ_but_reruns_match(self):
        cfg = config()
        model = make_model("poisson")
        counts = _counts_for(cfg, model, 0)
        g0 = group_data(cfg, model, counts, 0)
        g0_again = group_data(cfg, model, counts, 0)
        g1 = group_data(cfg, model, counts, 1)
        assert _data_hash(g0["mlmc"]) == _data_hash(g0_again["mlmc"])
        assert _data_hash(g0["mlmc"]) != _data_hash(g1["mlmc"])


class TestBuildGroups:
    ODE = dict(
        model={"name": "ode", "params": {}},
        estimators=[{"name": "mlbq", "design": "halton"}, {"name": "mlmc", "design": "iid"}],
        kernel={"family": "se", "lengthscale": 1.0, "policy": "fixed"},
        budgets=[0.1],
        allocation={"source": "table", "table": [{"mlbq": [20, 8, 3], "mlmc": [12, 5, 2]}]},
    )

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(
                ODE,
                estimators=ODE["estimators"] + [{"name": "mc", "design": "iid"}],
                allocation={"source": "table", "table": [{"mlbq": [20, 8, 3], "mlmc": [12, 5, 2], "mc": [4]}]},
            ),
            dict(
                estimators=[{"name": "mlbq", "design": "grid"}, {"name": "mlmc", "design": "iid"},
                            {"name": "bq", "design": "halton"}],
                allocation={"source": "table", "table": [{"mlbq": [38, 15, 3], "mlmc": [67, 11, 1], "bq": [2]}]},
            ),
        ],
        ids=["ode", "poisson"],
    )
    def test_values_equal_per_group_evaluation(self, overrides):
        cfg = config(**overrides)
        model = make_model(cfg.model_name)
        counts = _counts_for(cfg, model, 0)
        for name, levels in group_data(cfg, model, counts, 1).items():
            single = name in harness.SINGLE_LEVEL
            # single-level data is the top level's evaluations, as its one level
            assert len(levels) == (1 if single else 3)
            for level, lv in enumerate(levels):
                expected = model.evaluate(model.levels - 1, lv.points) if single else model.increments(level, lv.points)
                assert np.array_equal(lv.values, expected)

    def test_seedless_group_built_once_per_task(self, monkeypatch):
        # a Halton group's points ignore the seed: 3 designs (one per level) over 5 replications, not 15,
        # and its points join only the first replication's level evaluations
        cfg = config(**dict(self.ODE, replications=5))
        model = make_model("ode")
        counts, reference = _counts_for(cfg, model, 0), model.reference_integral()
        one_rep_tasks = [harness._run_cells(cfg, model, reference, 0, counts, range(rep, rep + 1)) for rep in range(5)]
        designs, evaluated = [], []
        generate, evaluate = harness.generate_design, OdeHierarchy.evaluate
        monkeypatch.setattr(harness, "generate_design",
                            lambda kind, *args, **kw: designs.append(kind) or generate(kind, *args, **kw))
        monkeypatch.setattr(OdeHierarchy, "evaluate",
                            lambda self, level, x: evaluated.append(len(x)) or evaluate(self, level, x))
        assert harness._run_cells(cfg, model, reference, 0, counts, range(5)) == sum(one_rep_tasks, [])
        assert designs.count("halton") == 3 and designs.count("iid") == 15
        halton, iid = (20 + 8) + (8 + 3) + 3, (12 + 5) + (5 + 2) + 2  # increments evaluate two levels
        assert sum(evaluated) == halton + 5 * iid


class TestRunExperiment:
    def test_deterministic_records(self):
        cfg = config()
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a == b

    def test_deterministic_grid_cells_repeat_across_replications(self):
        cfg = config(estimators=[{"name": "mlbq", "design": "grid"}],
                     allocation={"source": "table", "table": [{"mlbq": [38, 15, 3]}]})
        records = run_experiment(cfg)
        assert len({r.estimate for r in records}) == 1

    def count_estimator_calls(self, monkeypatch):
        calls = []
        original = harness._run_estimator

        def counted(cfg, model, est, levels):
            calls.append(est.name)
            return original(cfg, model, est, levels)

        monkeypatch.setattr(harness, "_run_estimator", counted)
        return calls

    def test_repeated_cells_computed_once_per_task(self, monkeypatch):
        calls = self.count_estimator_calls(monkeypatch)
        grid = config(estimators=[{"name": "mlbq", "design": "grid"}],
                      allocation={"source": "table", "table": [{"mlbq": [38, 15, 3]}]}, replications=5)
        assert len(run_experiment(grid)) == 5
        assert calls == ["mlbq"]
        calls.clear()
        iid = config(estimators=[{"name": "mlmc", "design": "iid"}],
                     allocation={"source": "table", "table": [{"mlmc": [67, 11, 1]}]}, replications=5)
        assert len(run_experiment(iid)) == 5
        assert calls == ["mlmc"] * 5

    def test_reused_cells_equal_recomputed_ones(self):
        cfg = config(replications=3)
        model = make_model("poisson")
        counts = _counts_for(cfg, model, 0)
        for outcome in harness.sweep_outcomes(cfg):
            record = outcome.record
            est = next(e for e in cfg.estimators if e.name == record.estimator)
            levels = group_data(cfg, model, counts, record.replication)[est.name]
            estimate, variance, level_posteriors = harness._run_estimator(cfg, model, est, levels)
            assert (record.estimate, record.variance) == (estimate, variance)
            assert outcome.levels == level_posteriors

    def test_failed_cell_reported_in_every_replication(self, monkeypatch, caplog):
        calls = self.count_estimator_calls(monkeypatch)

        def singular(policy, points, values, dim):
            raise SingularGramError("forced", nugget=1e-6)

        monkeypatch.setattr(harness.KernelPolicy, "level_fit", singular)
        with caplog.at_level("WARNING", logger="mlbq.harness"):
            records = run_experiment(config(replications=3))
        failed = [r.message for r in caplog.records if "failed" in r.message]
        assert len(failed) == 3
        assert all("mlbq" in message for message in failed)
        assert [(r.replication, r.estimator) for r in records] == [(0, "mlmc"), (1, "mlmc"), (2, "mlmc")]
        assert calls.count("mlbq") == 3

    def test_fit_failure_names_its_level(self, monkeypatch, caplog):
        # the calibration config's one cell fits levels of 153, 60 and 10 points; a fit failure used to be
        # reported without its level, where a data or posterior failure reads `level 2: ...`; that one cell failing
        # is every cell failing, so the command exits 2
        singular_at_ten(monkeypatch)
        config_path = str(Path(__file__).resolve().parents[1] / "configs/poisson_calibration.json")
        with caplog.at_level("WARNING", logger="mlbq.harness"):
            assert main(["estimate", "--config", config_path]) == 2
        assert [r.message for r in caplog.records if "failed" in r.message] == [
            "cell (T=1.503, rep=0, mlbq) failed: level 2: Gram matrix not positive definite even with nugget 0.0001"]

    def test_level_data_failure_reported_in_every_replication(self, monkeypatch, caplog):
        # a grid group's data are reused across replications only once built: a failed build is not kept, so each
        # replication draws the grid again and reports its own failure
        evaluate, generate, grids = PoissonHierarchy.evaluate, harness.generate_design, []

        def nan_on_grid_top(self, level, points):
            values = evaluate(self, level, points)
            return values * np.nan if level == 2 and len(values) == 3 else values

        monkeypatch.setattr(PoissonHierarchy, "evaluate", nan_on_grid_top)
        monkeypatch.setattr(harness, "generate_design",
                            lambda kind, *args, **kw: grids.append(kind) or generate(kind, *args, **kw))
        with caplog.at_level("WARNING", logger="mlbq.harness"):
            records = run_experiment(config(replications=3))
        assert [(r.replication, r.estimator) for r in records] == [(0, "mlmc"), (1, "mlmc"), (2, "mlmc")]
        assert [r.message for r in caplog.records if "failed" in r.message] == [
            f"cell (T=0.376, rep={rep}, mlbq) failed: level 2: values must be finite" for rep in range(3)]
        assert grids.count("grid") == 3 * 3

    def test_failed_group_is_built_once_per_replication(self, monkeypatch, caplog):
        # mlbq and mlmc share one iid (20, 8, 2) group, which a NaN at level 2 fails: the failure is kept for its
        # replication, so each replication draws the group's three designs once, and each estimator reports it
        evaluate, generate, drawn = PoissonHierarchy.evaluate, harness.generate_design, []
        monkeypatch.setattr(PoissonHierarchy, "evaluate",
                            lambda self, level, points: evaluate(self, level, points) * (np.nan if level == 2 else 1.0))
        monkeypatch.setattr(harness, "generate_design",
                            lambda kind, *args, **kw: drawn.append(kind) or generate(kind, *args, **kw))
        cfg = config(estimators=[{"name": "mlbq", "design": "iid"}, {"name": "mlmc", "design": "iid"}],
                     allocation={"source": "table", "table": [{"mlbq": [20, 8, 2], "mlmc": [20, 8, 2]}]},
                     replications=2)
        with caplog.at_level("WARNING", logger="mlbq.harness"):
            assert run_experiment(cfg) == []
        assert drawn == ["iid"] * 6
        assert [r.message for r in caplog.records if "failed" in r.message] == [
            f"cell (T=0.376, rep={rep}, {name}) failed: level 2: values must be finite"
            for rep in range(2) for name in ("mlbq", "mlmc")]

    def test_level_data_failure_fails_its_cell_only(self, monkeypatch, caplog, capsys):
        # one NaN in the 10-point level-2 evaluation, which only the grid mlbq cell at T = 1.503 makes; the
        # failure used to escape the sweep, and the command exited 1 with no record
        config_path = str(Path(__file__).resolve().parents[1] / "configs/poisson_budgets.json")
        assert main(["estimate", "--config", config_path]) == 0
        clean = capsys.readouterr().out.splitlines()
        evaluate = PoissonHierarchy.evaluate

        def one_nan(self, level, points):
            values = evaluate(self, level, points)
            if level == 2 and len(values) == 10:
                values[0] = np.nan
            return values

        monkeypatch.setattr(PoissonHierarchy, "evaluate", one_nan)
        with caplog.at_level("WARNING", logger="mlbq.harness"):
            assert main(["estimate", "--config", config_path]) == 0
        assert len(clean) == 6
        assert capsys.readouterr().out.splitlines() == [line for line in clean if not line.startswith("T=1.503 mlbq:")]
        failed = [r.message for r in caplog.records if "failed" in r.message]
        assert failed == ["cell (T=1.503, rep=0, mlbq) failed: level 2: values must be finite"]

    @pytest.mark.parametrize("action", ["default", "ignore", "error"])
    def test_ode_overflow_fails_each_cell_under_any_warnings_filter(self, action, caplog):
        # forcing * w2^2 overflows at forcing 1e308: a bare RuntimeWarning used to print and the cell then failed
        # as "values must be finite", and under an error filter the RuntimeWarning escaped the sweep
        raw = json.loads((Path(__file__).resolve().parents[1] / "configs/ode_budgets.json").read_text())
        raw["model"]["params"] = {"forcing": 1e308}
        cfg = dataclasses.replace(config_from_dict(raw), replications=1)
        with warnings.catch_warnings(), caplog.at_level("WARNING", logger="mlbq.harness"):
            warnings.simplefilter(action, RuntimeWarning)
            assert run_experiment(cfg) == []
        assert [r.message for r in caplog.records if "failed" in r.message] == [
            f"cell (T={budget}, rep=0, {name}) failed: level 0: overflow encountered in multiply"
            for budget, name in [(1.517, "mlbq"), (1.517, "mlmc"), (30.347, "mlmc")]]

    @pytest.mark.parametrize("action", ["default", "ignore", "error"])
    def test_ode_overflow_after_the_data_fails_its_cell_under_any_warnings_filter(self, action, caplog):
        # at forcing 1e306 the evaluations are finite but a level's posterior or Monte Carlo mean overflows: the
        # sweep used to write an mlmc estimate of -inf, which calibrate refused, and an error filter ended the sweep
        raw = json.loads((Path(__file__).resolve().parents[1] / "configs/ode_budgets.json").read_text())
        raw["model"]["params"] = {"forcing": 1e306}
        cfg = dataclasses.replace(config_from_dict(raw), replications=1)
        with warnings.catch_warnings(), caplog.at_level("WARNING", logger="mlbq.harness"):
            warnings.simplefilter(action, RuntimeWarning)
            records = run_experiment(cfg)
        assert [(r.budget, r.estimator) for r in records] == [(1.517, "mlmc")] and math.isfinite(records[0].estimate)
        assert [r.message for r in caplog.records if "failed" in r.message] == [
            "cell (T=1.517, rep=0, mlbq) failed: level 0: overflow encountered in matmul",
            "cell (T=30.347, rep=0, mlmc) failed: level 0: overflow encountered in reduce"]

    def test_nan_gram_entry_fails_its_cell_as_a_level_failure(self, monkeypatch, caplog):
        # a NaN at the farthest pair of every Matern correlation: each level's lengthscale search refuses it, the
        # grid mlbq cell fails at level 0 and the mlmc cell, which fits no GP, keeps its record
        corr_at = Matern.corr_at

        def nan_at_the_farthest(self, dist, lengthscale, out=None):
            farthest = np.asarray(dist) == np.max(dist)  # before ``out`` overwrites the distances
            corr = corr_at(self, dist, lengthscale, out)
            corr[farthest] = np.nan
            return corr

        monkeypatch.setattr(Matern, "corr_at", nan_at_the_farthest)
        with caplog.at_level("WARNING", logger="mlbq.harness"):
            records = run_experiment(config(replications=1))
        assert [r.estimator for r in records] == ["mlmc"]
        failed = [r.message for r in caplog.records if "failed" in r.message]
        assert len(failed) == 1 and failed[0].startswith("cell (T=0.376, rep=0, mlbq) failed: level 0: ")

    @pytest.mark.parametrize("jobs", [1, 2], ids=["jobs1", "jobs2"])
    def test_cell_failures_are_logged_by_the_caller(self, jobs):
        # under --jobs each worker used to log its own failed cells, so a handler added by the caller saw none
        raw = json.loads((Path(__file__).resolve().parents[1] / "configs/ode_budgets.json").read_text())
        raw["model"]["params"]["forcing"], raw["replications"] = 1e308, 4
        handler, logger = logging.handlers.BufferingHandler(capacity=100), logging.getLogger("mlbq.harness")
        logger.addHandler(handler)
        try:
            assert run_experiment(config_from_dict(raw), jobs=jobs) == []
        finally:
            logger.removeHandler(handler)
        assert [r.getMessage() for r in handler.buffer if "failed" in r.getMessage()] == [
            f"cell (T={budget}, rep={rep}, {name}) failed: level 0: overflow encountered in multiply"
            for budget, names in [(1.517, ("mlbq", "mlmc")), (30.347, ("mlmc",))] for rep in range(4) for name in names]

    def test_parallel_jobs_keep_byte_identical_output(self, tmp_path):
        # a repeated budget keeps its two entries apart under --jobs too
        repeated = config(
            budgets=[0.376, 0.376],
            allocation={"source": "table", "table": [{"mlmc": [67, 11, 1]}, {"mlmc": [20, 5, 1]}]},
        )
        # grid mlbq cells are reused within each task, and serial and --jobs runs split tasks differently
        for cfg in (config(replications=4), config(replications=5), repeated):
            serial = tmp_path / "serial.csv"
            parallel = tmp_path / "parallel.csv"
            write_records_csv(run_experiment(cfg, jobs=1), serial)
            write_records_csv(run_experiment(cfg, jobs=3), parallel)
            assert filecmp.cmp(serial, parallel, shallow=False)

    @pytest.mark.parametrize(
        "name, jobs, workers",
        [("ode_budgets", 16, [2]), ("poisson_calibration", 2, [])],
        ids=["ode_budgets", "poisson_calibration"],
    )
    def test_jobs_start_at_most_one_worker_per_task(self, monkeypatch, name, jobs, workers):
        # the fork pool starts every worker at its first submit: at one replication the ODE config is 2 tasks,
        # and --jobs 16 used to ask for 16 workers; the one-budget calibration config is one task, which runs
        # in this process (it used to start a one-worker pool)
        from concurrent.futures import Future
        from dataclasses import replace

        sizes = []

        class InlineExecutor:
            """Records the worker count asked for; runs each task here, at submit."""

            def __init__(self, max_workers, initializer):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        cfg = replace(load_config(Path(__file__).resolve().parents[1] / f"configs/{name}.json"), replications=1)
        serial = run_experiment(cfg)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlineExecutor)
        assert run_experiment(cfg, jobs=jobs) == serial
        assert sizes == workers

    def test_golden_record_hashes(self, tmp_path):
        """The records' sha256 prefixes at 4 replications, one BLAS thread, serial and with two jobs.

        A change that moves records updates these hashes and says which bits
        moved, and why, in CHANGES.md.  OpenBLAS reads OPENBLAS_NUM_THREADS
        when it loads, so the sweeps run in a subprocess started with it set.
        """
        root = Path(__file__).resolve().parents[1]
        golden = {
            "configs/ode_budgets.json": "a79b459c84557b9a",
            "configs/poisson_budgets.json": "2433ebd7cbe1b186",
            "configs/poisson_calibration.json": "5375805bc69e481e",
            "perfbench/ode_matern_lhs.json": "058234ae27ca02b0",
        }
        script = (
            "import dataclasses, hashlib, sys\n"
            "from mlbq.harness import load_config, run_experiment, write_records_csv\n"
            "out = sys.argv[1]\n"
            "for path in sys.argv[2:]:\n"
            "    for jobs in (1, 2):\n"
            "        records = run_experiment(dataclasses.replace(load_config(path), replications=4), jobs=jobs)\n"
            "        write_records_csv(records, out)\n"
            "        print(path, jobs, hashlib.sha256(open(out, 'rb').read()).hexdigest()[:16])\n"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        paths = [str(root / name) for name in golden]
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "records.csv"), *paths],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        hashes = dict(line.rsplit(" ", 1) for line in done.stdout.splitlines())
        assert hashes == {f"{path} {jobs}": golden[name] for path, name in zip(paths, golden) for jobs in (1, 2)}

    def test_reference_computed_once_per_sweep(self, monkeypatch):
        # one solve at the reference spacing covers both Gauss-Legendre rules
        calls = []
        original = OdeHierarchy._integral_factor

        def counted(self, h, w1):
            calls.append(h)
            return original(self, h, w1)

        monkeypatch.setattr(OdeHierarchy, "_integral_factor", counted)
        cfg = config(
            model={"name": "ode", "params": {}},
            estimators=[{"name": "mlmc", "design": "iid"}],
            budgets=[0.05, 0.1],
            allocation={"source": "table", "table": [{"mlmc": [8, 4, 2]}, {"mlmc": [16, 8, 2]}]},
            replications=2,
        )
        assert len(run_experiment(cfg)) == 4
        assert calls.count(1.0 / 1024) == 1

    def test_sample_sizes_resolved_once_per_budget(self, monkeypatch):
        calls = []
        original = harness._counts_for

        def counted(cfg, model, budget_index):
            calls.append(budget_index)
            return original(cfg, model, budget_index)

        monkeypatch.setattr(harness, "_counts_for", counted)
        raw = {"source": "mlmc-formula", "variances": [1.305e-3, 0.088e-3, 0.002e-3]}
        per_run = []
        for reps in (1, 5):
            calls.clear()
            run_experiment(config(estimators=[{"name": "mlmc", "design": "iid"}], allocation=raw, replications=reps))
            per_run.append(len(calls))
        assert per_run[0] == per_run[1]

    def test_one_factorisation_per_level_under_amplitude_mle(self, monkeypatch):
        # the amplitude MLE and the posterior share one factor of each level's Gram matrix
        from mlbq import gp

        calls = []
        original = gp.cholesky

        def counted(matrix, *args, **kwargs):
            calls.append(matrix.shape[0])
            return original(matrix, *args, **kwargs)

        cfg = config(
            model={"name": "ode", "params": {}},
            estimators=[{"name": "mlbq", "design": "halton"}],
            kernel={"family": "se", "lengthscale": 1.0, "policy": "fixed"},
            budgets=[0.1],
            allocation={"source": "table", "table": [{"mlbq": [20, 8, 3]}]},
            replications=1,
        )
        model = make_model("ode")
        counts = validate_budget_accounting(cfg, model)[0]
        levels = group_data(cfg, model, counts, 0)["mlbq"]
        monkeypatch.setattr(gp, "cholesky", counted)
        harness._run_estimator(cfg, model, cfg.estimators[0], levels)
        assert calls == [20, 8, 3]

    def test_abs_error_recomputed_from_estimate(self):
        cfg = config(replications=2)
        model = make_model("poisson")
        reference = model.reference_integral()
        for r in run_experiment(cfg):
            assert r.abs_error == abs(r.estimate - reference)

    def test_budget_accounting_of_every_cell(self):
        cfg = config(replications=1)
        model = make_model("poisson")
        for r in run_experiment(cfg):
            assert r.cost <= r.budget + max(model.costs) + 1e-12

    def test_variance_only_for_bayesian_estimators(self):
        records = run_experiment(config(replications=1))
        by_name = {r.estimator: r for r in records}
        assert by_name["mlbq"].variance is not None and by_name["mlbq"].variance >= 0
        assert by_name["mlmc"].variance is None

    def test_single_level_estimators_share_top_level_data(self):
        # mc and bq consume the same top-level evaluations and cost
        # their samples at the top-level price
        cfg = config(
            model={"name": "step", "params": {}},
            estimators=[{"name": "mc", "design": "iid"}, {"name": "bq", "design": "iid"}],
            kernel={"family": "matern", "smoothness": 0.5, "policy": "fitted", "bounds": [0.1, 50.0]},
            budgets=[0.02],
            allocation={"source": "table", "table": [{"mc": [9], "bq": [9]}]},
            replications=2,
        )
        records = run_experiment(cfg)
        model = make_model("step")
        by_key = {(r.estimator, r.replication): r for r in records}
        for rep in range(2):
            mc = by_key[("mc", rep)]
            bq = by_key[("bq", rep)]
            assert mc.n_per_level == bq.n_per_level == (9,)
            assert mc.cost == bq.cost == 9 * model.costs[-1]
            assert bq.variance is not None and mc.variance is None
            # loose location sanity: 9-sample estimates of a Unif(0, 10)
            # quantity with reference exactly 5 (sampling sd ~ 1)
            assert abs(mc.estimate - 5.0) < 4.0 and abs(bq.estimate - 5.0) < 4.0

    def test_single_level_estimators_are_the_one_level_multilevel_ones(self):
        # mc is the plain mean of the top level's values; bq is the BQ posterior of the policy's fit to them
        from mlbq.quadrature import bq_posterior

        cfg = config(
            estimators=[{"name": "mc", "design": "iid"}, {"name": "bq", "design": "lhs"}],
            allocation={"source": "table", "table": [{"mc": [8], "bq": [7]}]},
            replications=2,
        )
        model = make_model("poisson")
        counts = validate_budget_accounting(cfg, model)[0]
        for r in run_experiment(cfg):
            (level,) = group_data(cfg, model, counts, r.replication)[r.estimator]
            if r.estimator == "mc":
                assert r.estimate == float(np.mean(level.values)) and r.variance is None
            else:
                post = bq_posterior(cfg.kernel.level_fit(level.points, level.values, model.dim), model.measure)
                assert r.estimate == post.mean and r.variance == post.variance

    def test_one_level_model_pairs_single_and_multilevel_estimators(self):
        # on a one-level model mc is mlmc and bq is mlbq on the same samples; they used to draw apart groups, so at
        # seed 5, replication 0, mc read -0.0903883 and mlmc -0.0913836
        cfg = config(
            model={"name": "poisson", "params": {"interior_nodes": [16], "costs": [0.01]}},
            estimators=[{"name": name, "design": "iid"} for name in ("mc", "mlmc", "bq", "mlbq")],
            allocation={"source": "table", "table": [{name: [20] for name in ("mc", "mlmc", "bq", "mlbq")}]},
            replications=2,
            seed=5,
        )
        records = run_experiment(cfg)
        by_name = {name: [r for r in records if r.estimator == name] for name in ("mc", "mlmc", "bq", "mlbq")}
        assert len(by_name["mc"]) == len(by_name["bq"]) == 2
        assert [dataclasses.replace(r, estimator="mlmc") for r in by_name["mc"]] == by_name["mlmc"]
        assert [dataclasses.replace(r, estimator="mlbq") for r in by_name["bq"]] == by_name["mlbq"]

    def test_fixed_policy_conditions_at_the_amplitude_mle(self):
        # the base kernel's lengthscale, each level at its own amplitude MLE (it used to be amplitude 1)
        from mlbq.gp import _profiled_fit
        from mlbq.quadrature import bq_posterior

        cfg = config(
            estimators=[{"name": "mlbq", "design": "lhs"}],
            kernel={"family": "matern", "smoothness": 0.5, "lengthscale": 0.7, "policy": "fixed"},
            allocation={"source": "table", "table": [{"mlbq": [38, 15, 3]}]},
            replications=2,
        )
        model = make_model("poisson")
        counts = validate_budget_accounting(cfg, model)[0]
        records = run_experiment(cfg)
        assert len(records) == 2
        for r in records:
            levels = group_data(cfg, model, counts, r.replication)["mlbq"]
            base = cfg.kernel.base_kernel(model.dim)
            posts = [bq_posterior(_profiled_fit(base, lv.points, lv.values), model.measure) for lv in levels]
            assert (r.estimate, r.variance) == (sum(p.mean for p in posts), sum(p.variance for p in posts))

    def test_model_costs_set_the_cost_column(self):
        costs = [0.5, 1.5, 4.0]
        cfg = config(
            model={"name": "poisson", "params": {"costs": costs}},
            estimators=[{"name": "mlmc", "design": "iid"}, {"name": "mc", "design": "iid"}],
            budgets=[100.0],
            allocation={"source": "table", "table": [{"mlmc": [6, 3, 2], "mc": [5]}]},
            replications=1,
        )
        by_name = {r.estimator: r.cost for r in run_experiment(cfg)}
        assert by_name == {"mlmc": 6 * 0.5 + 3 * 1.5 + 2 * 4.0, "mc": 5 * 4.0}

    def test_formula_allocation_end_to_end(self):
        cfg = config(
            estimators=[{"name": "mlbq", "design": "grid"}, {"name": "mlmc", "design": "iid"}],
            allocation={
                "source": "mlbq-formula",
                "norms": [62.5e-3, 22.5e-3, 3.125e-3],
                "tau": 1.0,
            },
            replications=1,
        )
        records = run_experiment(cfg)
        assert {r.estimator for r in records} == {"mlbq", "mlmc"}
        # both estimators run at the norm-based counts for this budget
        assert all(r.n_per_level == (38, 15, 3) for r in records)


GOLDEN_CONFIGS = ("configs/ode_budgets.json", "configs/poisson_budgets.json", "configs/poisson_calibration.json",
                  "perfbench/ode_matern_lhs.json")


def _comparable(outcome):
    """An outcome with its failure, an exception that compares by identity, as its type and message."""
    failure = outcome.failure
    return dataclasses.replace(outcome, failure=None), failure and (type(failure), str(failure))


class TestOutcomes:
    @pytest.fixture(scope="class", params=GOLDEN_CONFIGS, ids=lambda path: Path(path).stem)
    def sweep(self, request):
        cfg = load_config(Path(__file__).resolve().parents[1] / request.param)
        cfg = dataclasses.replace(cfg, replications=2)
        return cfg, harness.sweep_outcomes(cfg)

    def test_one_outcome_per_attempted_cell(self, sweep):
        cfg, outcomes = sweep
        counts = validate_budget_accounting(cfg, make_model(cfg.model_name, **cfg.model_params))
        assert [(o.budget, o.replication, o.estimator) for o in outcomes] == [
            (budget, rep, est.name) for budget, by_name in zip(cfg.budgets, counts)
            for rep in range(cfg.replications) for est in cfg.estimators if est.name in by_name]
        assert all((o.record is None) != (o.failure is None) for o in outcomes)

    def test_records_are_run_experiments(self, sweep):
        cfg, outcomes = sweep
        assert [o.record for o in outcomes if o.record is not None] == run_experiment(cfg)

    def test_level_posteriors_sum_to_the_record_bit_for_bit(self, sweep):
        _, outcomes = sweep
        for o in outcomes:
            if o.record is not None and o.estimator in harness.BAYESIAN:
                assert _total([lv.mean for lv in o.levels], "means") == o.record.estimate
                assert _total([lv.variance for lv in o.levels], "variances") == o.record.variance
                assert tuple(lv.n for lv in o.levels) == o.record.n_per_level
            else:  # a Monte Carlo record or a failure
                assert o.levels == ()

    def test_parallel_outcomes_equal_serial_ones(self, sweep):
        cfg, outcomes = sweep
        assert list(map(_comparable, harness.sweep_outcomes(cfg, jobs=2))) == list(map(_comparable, outcomes))

    def test_no_value_at_any_depth_is_a_numpy_object(self, sweep):
        # a GPFit holds an n x n factor; an outcome keeps scalars and tuples only
        def walk(value):
            if dataclasses.is_dataclass(value):
                for f in dataclasses.fields(value):
                    walk(getattr(value, f.name))
            elif isinstance(value, (tuple, list)):
                for item in value:
                    walk(item)
            elif isinstance(value, BaseException):
                walk(value.args)
            else:
                assert not isinstance(value, (np.ndarray, np.generic)), value

        walk(sweep[1])

    def test_parallel_failures_equal_serial_ones(self):
        # at forcing 1e306 the ODE data are finite but the T=1.517 mlbq and T=30.347 mlmc cells overflow
        raw = json.loads((Path(__file__).resolve().parents[1] / "configs/ode_budgets.json").read_text())
        raw["model"]["params"], raw["replications"] = {"forcing": 1e306}, 2
        cfg = config_from_dict(raw)
        outcomes = harness.sweep_outcomes(cfg)
        assert [(o.budget, o.replication, o.estimator) for o in outcomes if o.failure is not None] == [
            (budget, rep, name) for budget, name in [(1.517, "mlbq"), (30.347, "mlmc")] for rep in range(2)]
        assert list(map(_comparable, harness.sweep_outcomes(cfg, jobs=2))) == list(map(_comparable, outcomes))


def _blas_thread_calls():
    """(set, get) thread-count calls of the loaded OpenBLAS builds, found as the library finds them."""
    with open("/proc/self/maps") as fh:
        paths = {line.split(maxsplit=5)[5].rstrip("\n") for line in fh if "openblas" in line.lower()}
    calls = []
    for lib in map(ctypes.CDLL, sorted(path for path in paths if not path.endswith("(deleted)"))):
        for suffix in ("64_", ""):
            if hasattr(lib, f"scipy_openblas_get_num_threads{suffix}"):
                set_threads = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
                get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                set_threads.argtypes, get_threads.restype = [ctypes.c_int], ctypes.c_int
                calls.append((set_threads, get_threads))
    return calls


class TestBlasThreads:
    def test_records_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        """A sweep started at two BLAS threads writes the bytes of one started at one thread.

        OpenBLAS reads OPENBLAS_NUM_THREADS when it loads, so each sweep runs in a subprocess started
        with it set.  The ``jobs=2`` workers are spawned, not forked: they start at the subprocess's
        thread count and pin themselves.
        """
        root = Path(__file__).resolve().parents[1]
        script = (
            "import dataclasses, hashlib, multiprocessing, sys\n"
            "from mlbq.harness import load_config, run_experiment, write_records_csv\n"
            "multiprocessing.set_start_method('spawn')\n"
            "cfg = dataclasses.replace(load_config(sys.argv[2]), replications=4)\n"
            "for jobs in (1, 2):\n"
            "    write_records_csv(run_experiment(cfg, jobs=jobs), sys.argv[1])\n"
            "    print(jobs, hashlib.sha256(open(sys.argv[1], 'rb').read()).hexdigest())\n"
        )
        hashes = {}
        for threads in ("2", "1"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
            done = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path / "records.csv"), str(root / "configs/poisson_calibration.json")],
                env=env, capture_output=True, text=True, timeout=300, check=True,
            )
            hashes[threads] = done.stdout.split()
        assert hashes["2"] == hashes["1"]
        assert hashes["1"][1].startswith("5375805bc69e481e") and hashes["1"][1] == hashes["1"][3]

    def test_thread_counts_pinned_during_the_sweep_and_restored_after(self, monkeypatch):
        calls = _blas_thread_calls()
        if not calls:
            pytest.skip("no OpenBLAS build with thread-count calls is loaded")
        before = [get_threads() for _, get_threads in calls]
        inside = []

        def failing(*task):
            inside.append([get_threads() for _, get_threads in calls])
            raise RuntimeError("sweep failed")

        try:
            for set_threads, _ in calls:
                set_threads(2)  # so that restoring is not the same as pinning
            outside = [get_threads() for _, get_threads in calls]
            run_experiment(config(replications=1))
            assert [get_threads() for _, get_threads in calls] == outside
            monkeypatch.setattr(harness, "_run_cells", failing)
            with pytest.raises(RuntimeError, match="sweep failed"):
                run_experiment(config(replications=1))
            assert inside == [[1] * len(calls)]
            assert [get_threads() for _, get_threads in calls] == outside
        finally:
            for (set_threads, _), count in zip(calls, before):
                set_threads(count)

    def test_a_library_path_with_a_space_is_pinned(self, monkeypatch, tmp_path):
        # the path was a mapping's last field, so one with a space reached ctypes as its tail and raised OSError
        with open("/proc/self/maps") as fh:
            maps = fh.read()
        numpy_lib = next((line.split(maxsplit=5)[5] for line in maps.splitlines()
                          if "openblas" in line.lower() and "numpy" in line), None)
        if numpy_lib is None:
            pytest.skip("no OpenBLAS build is loaded from numpy's directory")
        real = harness._pin_blas_threads()
        for set_threads, count in real:
            set_threads(count)
        link = tmp_path / "my envs" / Path(numpy_lib).name
        link.parent.mkdir()
        link.symlink_to(numpy_lib)
        gone = "7f0000000000-7f0000001000 r--p 00000000 00:00 0    /gone/libscipy_openblas.so (deleted)\n"
        served = maps.replace(numpy_lib, str(link)) + gone
        monkeypatch.setattr(harness, "open", lambda path, *args: io.StringIO(served), raising=False)
        pinned = harness._pin_blas_threads()
        for set_threads, count in pinned:
            set_threads(count)
        assert len(pinned) == len(real) > 0

    def test_unpinned_sweep_warns_once(self, monkeypatch, caplog):
        def no_proc(path, *args):
            raise FileNotFoundError(path)

        expected = run_experiment(config(replications=2))
        monkeypatch.setattr(harness, "open", no_proc, raising=False)
        with caplog.at_level("WARNING", logger="mlbq.harness"):
            assert run_experiment(config(replications=2)) == expected
        assert [r.message for r in caplog.records] == [
            "no OpenBLAS thread control found: the records may depend on the BLAS thread count"
        ]


class TestCsv:
    @pytest.mark.parametrize(
        "name", ["configs/ode_budgets.json", "configs/poisson_budgets.json", "configs/poisson_calibration.json",
                 "perfbench/ode_matern_lhs.json"],
    )
    def test_round_trip_exact(self, tmp_path, name):
        # every record kind the sweep writes reads back: single-level bq, mlmc on shared LHS data, grid and Halton
        records = run_experiment(dataclasses.replace(load_config(Path(__file__).resolve().parents[1] / name),
                                                     replications=2))
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        assert read_records_csv(path) == records

    def test_rewrite_is_byte_identical(self, tmp_path):
        records = run_experiment(config(replications=2))
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_records_csv(records, first)
        write_records_csv(read_records_csv(first), second)
        assert filecmp.cmp(first, second, shallow=False)

    def test_header_check(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wrong,header\n1,2\n")
        with pytest.raises(ConfigError, match="header"):
            read_records_csv(path)


class TestCalibration:
    def test_zero_variance_exact_estimates_cover_everything(self):
        records = [
            ResultRecord(i, "mlbq", 1.0, 5.0, 0.0, 0.0, 1.0, (3,)) for i in range(30)
        ]
        for row in calibration_table(records, levels=(0.5, 0.9, 0.99)):
            assert row.coverage == 1.0

    def test_needs_bayesian_records(self):
        records = [ResultRecord(0, "mlmc", 1.0, 5.0, None, 0.1, 1.0, (3,))]
        with pytest.raises(ValueError, match="posterior variance"):
            calibration_table(records)

    def test_rejects_silly_levels(self):
        records = [ResultRecord(0, "mlbq", 1.0, 5.0, 1.0, 0.1, 1.0, (3,))]
        with pytest.raises(ValueError, match="credible level"):
            calibration_table(records, levels=(1.5,))

    def test_gaussian_records_recover_nominal(self):
        rng = np.random.default_rng(33)
        records = [
            ResultRecord(i, "mlbq", 1.0, 0.0, 1.0, abs(rng.standard_normal()), 1.0, (1,))
            for i in range(4000)
        ]
        for row in calibration_table(records, levels=(0.5, 0.9)):
            assert abs(row.coverage - row.nominal_level) <= 2.5 * row.binomial_se

    @pytest.mark.parametrize("caller", ["library", "cli"])
    def test_default_levels_are_the_seven_nominal_levels(self, caller, tmp_path, capsys):
        # `calibrate --levels` and calibration_table used to keep separate copies of this tuple
        rng = np.random.default_rng(34)
        records = [ResultRecord(i, "mlbq", 1.0, 0.0, 1.0, abs(rng.standard_normal()), 1.0, (1,)) for i in range(50)]
        expected = calibration_table(records, levels=(0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99))
        if caller == "library":
            assert calibration_table(records) == expected
        else:
            write_records_csv(records, tmp_path / "records.csv")
            assert main(["calibrate", str(tmp_path / "records.csv"), "--out", str(tmp_path / "coverage.csv")]) == 0
            assert "wrote 7 coverage rows" in capsys.readouterr().out
            harness.write_coverage_csv(expected, tmp_path / "expected.csv")
            assert (tmp_path / "coverage.csv").read_text() == (tmp_path / "expected.csv").read_text()


class TestCli:
    def test_import_loads_no_slow_scipy_subpackage(self):
        # scipy.optimize, scipy.integrate and scipy.stats would each add 0.2-0.6 s to every process's start-up
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        slow = ("scipy.optimize", "scipy.integrate", "scipy.stats")
        script = f"import sys, mlbq.cli; print(sorted(m for m in sys.modules if m.startswith({slow})))"
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60,
                              check=True)
        assert done.stdout.strip() == "[]"

    def test_allocate_exit_codes(self, capsys):
        assert main(["allocate", "--variances", "1,0.1", "--costs", "1,4", "--budget", "10"]) == 0
        out = capsys.readouterr().out
        assert "integer counts" in out
        assert main(["allocate", "--norms", "1,0.1", "--costs", "1,4", "--budget", "10"]) == 1
        assert "tau" in capsys.readouterr().err

    def test_allocate_variances_refuse_tau_and_dim(self, capsys):
        # the variance-based rule reads neither
        variances = ["allocate", "--variances", "1,0.1", "--costs", "1,4", "--budget", "10"]
        for flag, message in ((["--tau", "1"], "allocation has unknown keys ['tau']"),
                              (["--dim", "2"], "--dim applies to --norms only")):
            assert main([*variances, *flag]) == 1
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, section",
        [
            (["--norms", "1,0.1"], {"source": "mlbq-formula", "norms": [1.0, 0.1]}),
            (["--variances", "1,0.1", "--tau", "1"], {"source": "mlmc-formula", "variances": [1.0, 0.1], "tau": 1.0}),
            (["--norms", "1,0.1", "--tau", "inf"], {"source": "mlbq-formula", "norms": [1.0, 0.1], "tau": math.inf}),
        ],
        ids=["norms-without-tau", "variances-with-tau", "inf-tau"],
    )
    def test_allocate_reports_the_configs_message(self, flags, section, capsys):
        # the flags are read as the config's allocation section: each case used to have a wording of its own
        with pytest.raises(ConfigError) as raised:
            config(allocation=section)
        assert main(["allocate", *flags, "--costs", "1,4", "--budget", "10"]) == 1
        assert capsys.readouterr().err == f"config error: {raised.value}\n"

    @pytest.mark.parametrize(
        "flags, check",
        [
            (["--budget", "-1.5"], lambda: config(budgets=[-1.5])),
            (["--budget", "inf"], lambda: config(budgets=[math.inf])),
            (["--costs", "1.5,-4.5"], lambda: make_model("poisson", costs=[1.5, -4.5])),
            (["--costs", "1,nan"], lambda: make_model("poisson", costs=[1.0, math.nan])),
        ],
        ids=["negative-budget", "inf-budget", "negative-cost", "nan-cost"],
    )
    def test_allocate_reads_budget_and_costs_by_the_configs_rules(self, flags, check, capsys):
        # --budget is read as a config budget, --costs by the model's costs rule: both used to fail in the
        # allocation library's words (`budget must be positive`, `magnitudes and costs must be strictly positive`)
        with pytest.raises(ValueError) as raised:
            check()
        given = {"--variances": "1,0.1", "--costs": "1,4", "--budget": "10", flags[0]: flags[1]}
        assert main(["allocate", *[text for pair in given.items() for text in pair]]) == 1
        assert capsys.readouterr().err == f"config error: {raised.value}\n"

    def test_allocate_counts_are_the_sweeps(self, capsys):
        budgets = [0.376, 0.751, 1.503]
        cfg = config(estimators=[{"name": "mlbq", "design": "iid"}], budgets=budgets,
                     allocation={"source": "mlbq-formula", "norms": POISSON_NORMS, "tau": 1.0})
        model = make_model("poisson")
        assert main(["allocate", "--norms", ",".join(map(str, POISSON_NORMS)), "--tau", "1", "--budget",
                     ",".join(map(str, budgets)), "--costs", ",".join(map(str, model.costs))]) == 0
        printed = [line.split(":", 1)[1].strip() for line in capsys.readouterr().out.splitlines()
                   if "integer counts" in line]
        assert printed == [str(list(_counts_for(cfg, model, bi)["mlbq"])) for bi in range(len(budgets))]

    def test_allocate_doubled_costs_are_half_the_budget(self, capsys):
        # allocate takes no overhead flag: an overhead on every cost is the plan at the budget divided by it, with
        # the same real counts, integer counts and objective, and a realized cost in the doubled units
        for rule in (["--variances", "1,0.1"], ["--norms", "1,0.1", "--tau", "1"]):
            assert main(["allocate", *rule, "--costs", "2,8", "--budget", "10"]) == 0
            scaled = capsys.readouterr().out.splitlines()
            assert main(["allocate", *rule, "--costs", "1,4", "--budget", "5"]) == 0
            halved = capsys.readouterr().out.splitlines()
            assert scaled[0].startswith("T=10 ") and halved[0].startswith("T=5 ")
            assert scaled[3] == "  realized cost:  14" and halved[3] == "  realized cost:  7"
            assert scaled[1:3] + scaled[4:] == halved[1:3] + halved[4:]

    @pytest.mark.parametrize("dim, tau", [(1, 0.4), (2, 0.8)])
    def test_allocate_checks_tau_against_half_the_dimension(self, dim, tau, capsys):
        # the sweep's message for the config's tau; both used to read the allocation library's, naming no key
        assert main(["allocate", "--norms", "1,0.1", "--costs", "1,4", "--budget", "10", "--tau", str(tau),
                     "--dim", str(dim)]) == 1
        assert capsys.readouterr().err == f"config error: allocation tau must exceed d/2 = {dim / 2}, got {tau}\n"

    def test_allocate_refuses_a_count_beyond_2_53(self, capsys):
        # the count wrapped to one sample past 2**63, and the greedy top-up then ran one sample at a time to 1e20
        assert main(["allocate", "--variances", "1,1", "--costs", "1,1", "--budget", "1e20"]) == 1
        err = capsys.readouterr().err
        assert err == "config error: budget 1e+20 asks for 5e+19 samples at one level, beyond 2**53\n"

    def test_allocate_rejects_dimension_below_one(self, capsys):
        assert main(["allocate", "--norms", "1,0.1", "--costs", "1,2", "--budget", "10", "--tau", "1", "--dim", "0"]) == 1
        assert "dimension must be >= 1" in capsys.readouterr().err

    def test_allocate_rejects_nonpositive(self, capsys):
        assert main(["allocate", "--variances", "1,-0.1", "--costs", "1,4", "--budget", "10"]) == 1

    def test_allocate_rejects_non_finite_tau(self, capsys):
        # it used to exit 0, printing real counts of 0
        assert main(["allocate", "--norms", "1,0.1,0.01", "--costs", "1,2,4", "--budget", "100", "--tau", "inf"]) == 1
        assert "allocation tau must be a finite number, got inf" in capsys.readouterr().err

    def test_experiment_and_calibrate(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        raw = copy.deepcopy(BASE_CONFIG)
        raw["estimators"] = [{"name": "mlbq", "design": "iid"}]
        raw["allocation"] = {"source": "table", "table": [{"mlbq": [20, 8, 2]}]}
        raw["replications"] = 4
        cfg_path.write_text(json.dumps(raw))
        out_csv = tmp_path / "records.csv"
        assert main(["experiment", "--config", str(cfg_path), "--out", str(out_csv)]) == 0
        assert main(["calibrate", str(out_csv), "--levels", "0.5,0.9"]) == 0
        cov_csv = tmp_path / "coverage.csv"
        assert main(["calibrate", str(out_csv), "--out", str(cov_csv), "--levels", "0.9"]) == 0
        assert cov_csv.read_text().startswith("nominal_level,coverage,binomial_se,count")

    def test_estimate_prints_rows(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(BASE_CONFIG))
        assert main(["estimate", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "mlbq" in out and "mlmc" in out

    def test_estimate_out_is_replication_zero_of_the_sweep(self, tmp_path, capsys):
        cfg_path, one, full = tmp_path / "cfg.json", tmp_path / "one.csv", tmp_path / "full.csv"
        cfg_path.write_text(json.dumps(BASE_CONFIG))
        assert main(["estimate", "--config", str(cfg_path), "--out", str(one)]) == 0
        assert main(["experiment", "--config", str(cfg_path), "--out", str(full)]) == 0
        header, *rows = full.read_text().splitlines()
        assert one.read_text().splitlines() == [header, *(row for row in rows if row.startswith("0,"))]

    @pytest.mark.parametrize(
        "error, code",
        [
            (SingularGramError("Gram matrix not positive definite", 1e-4), 2),
            (ModelError("solver failed"), 2),
            (FloatingPointError("overflow"), 2),
            (ConfigError("bad key"), 1),
        ],
        ids=["singular-gram", "model", "floating-point", "config"],
    )
    @pytest.mark.parametrize("command", ["estimate", "experiment"])
    def test_sweep_exit_codes(self, command, error, code, tmp_path, monkeypatch, capsys):
        # SingularGramError is a ValueError (through LinAlgError), yet a numerical failure: exit 2, not 1
        from mlbq import cli

        def failing(*args, **kwargs):
            raise error

        cfg_path, out = tmp_path / "cfg.json", tmp_path / "records.csv"
        cfg_path.write_text(json.dumps(BASE_CONFIG))
        monkeypatch.setattr(cli, "sweep_outcomes", failing)
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == code
        assert capsys.readouterr().err.startswith("numerical failure" if code == 2 else "config error")
        assert not out.exists()

    def test_sweep_in_which_every_cell_fails_exits_2(self, tmp_path, capsys):
        # forcing 1e308 overflows every cell's evaluations; the command used to exit 0 and write a header-only CSV
        raw = json.loads((Path(__file__).resolve().parents[1] / "configs/ode_budgets.json").read_text())
        raw["model"]["params"]["forcing"], raw["replications"] = 1e308, 1
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "records.csv"
        cfg_path.write_text(json.dumps(raw))
        assert main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "numerical failure: every cell of the sweep failed (each is logged above)")
        assert not out.exists()

    @pytest.mark.parametrize("command, cells", [("estimate", 6), ("experiment", 12)])
    def test_sweep_in_which_some_cells_fail_exits_0(self, command, cells, tmp_path, monkeypatch, capsys, caplog):
        # the grid mlbq cell at T = 1.503 fits a 10-point level, which fails in each replication: the command
        # writes every other cell's record as an unfailed run does, and prints how many cells failed
        raw = json.loads((Path(__file__).resolve().parents[1] / "configs/poisson_budgets.json").read_text())
        raw["replications"] = 2
        cfg_path, clean, out = tmp_path / "cfg.json", tmp_path / "clean.csv", tmp_path / "records.csv"
        cfg_path.write_text(json.dumps(raw))
        assert main([command, "--config", str(cfg_path), "--out", str(clean)]) == 0
        singular_at_ten(monkeypatch)
        with caplog.at_level("WARNING", logger="mlbq.harness"):
            assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
        failed = cells // 6
        survivors = [r for r in read_records_csv(clean) if (r.budget, r.estimator) != (1.503, "mlbq")]
        assert read_records_csv(out) == survivors and len(survivors) == cells - failed
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f"wrote {cells - failed} records to {out}; {failed} of {cells} cells failed"
        assert [r.message for r in caplog.records if "failed" in r.message] == [
            f"cell (T=1.503, rep={rep}, mlbq) failed: level 2: Gram matrix not positive definite even with nugget 0.0001"
            for rep in range(failed)]

    @pytest.mark.parametrize(
        "error, attribute",
        [(LevelFailure(2, "values must be finite"), "level"), (SingularGramError("not PD", 1e-4), "nugget")],
        ids=["level-failure", "singular-gram"],
    )
    def test_numerical_errors_survive_pickling(self, error, attribute):
        # both used to fail to unpickle, missing a constructor argument: a worker process could not return one
        copy_ = pickle.loads(pickle.dumps(error))
        assert type(copy_) is type(error) and str(copy_) == str(error)
        assert getattr(copy_, attribute) == getattr(error, attribute)

    @pytest.mark.parametrize("command", ["estimate", "experiment"])
    def test_negative_seed_is_config_error(self, command, tmp_path, capsys):
        # --seed -1 used to exit 0: experiment wrote a header-only CSV after a warning for every cell, and
        # estimate printed no rows
        with pytest.raises(ConfigError, match=r"seed must be an integer >= 0, got -1"):
            run_experiment(dataclasses.replace(config(), seed=-1))
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "records.csv"
        cfg_path.write_text(json.dumps(BASE_CONFIG))
        assert main([command, "--config", str(cfg_path), "--seed", "-1", "--out", str(out)]) == 1
        assert re.fullmatch(r"config error: .*must be an integer >= 0, got -1\n", capsys.readouterr().err)
        assert not out.exists()

    def test_seed_override_changes_random_cells(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        raw = copy.deepcopy(BASE_CONFIG)
        raw["estimators"] = [{"name": "mlmc", "design": "iid"}]
        raw["allocation"] = {"source": "table", "table": [{"mlmc": [67, 11, 1]}]}
        cfg_path.write_text(json.dumps(raw))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["experiment", "--config", str(cfg_path), "--out", str(a), "--seed", "1"]) == 0
        assert main(["experiment", "--config", str(cfg_path), "--out", str(b), "--seed", "2"]) == 0
        assert not filecmp.cmp(a, b, shallow=False)

    def test_experiment_without_output_path_is_config_error(self, tmp_path, monkeypatch, capsys):
        # neither --out nor a config ``output``: no sweep runs and no file is written
        from mlbq import cli

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "sweep_outcomes", lambda *args, **kwargs: pytest.fail("sweep started"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(BASE_CONFIG))
        assert main(["experiment", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith("config error: no output path")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_missing_config_is_config_error(self):
        assert main(["experiment", "--config", "/nonexistent.json", "--out", "/tmp/x.csv"]) == 1

    @pytest.mark.parametrize(
        "flags, message",
        [([], "one of the arguments --variances --norms is required"),
         (["--variances", "1,0.1", "--gamma", "2"], "unrecognized arguments: --gamma 2")],
        ids=["no-magnitudes", "gamma"],
    )
    def test_bad_usage_is_config_error(self, flags, message, capsys):
        # a cost overhead is the plan at the budget divided by it, so allocate takes no flag for one
        assert main(["allocate", *flags, "--costs", "1,2", "--budget", "1"]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize(
        "text, match",
        [
            (None, r"cannot read records .*records\.csv: .*No such file"),
            ("", r"records .*records\.csv, line 1: no CSV header"),
            (",".join(harness.CSV_COLUMNS) + "\n0,mlbq,1.0\n", r"records .*, line 2: expected 8 fields, got 3"),
            (",".join(harness.CSV_COLUMNS) + "\n0,mlbq,0.3,1.5,0.1,0.2,0.3,38;15;3\n0,mlbq,x,1.5,0.1,0.2,0.3,3\n",
             r"records .*, line 3: could not convert string to float: 'x'"),
            (",".join(harness.CSV_COLUMNS) + "\n0,mlbq,0.3,1.5,-1.0,0.2,0.3,38;15;3\n",
             r"records .*records\.csv, line 2: variance must be a finite number >= 0, got -1\.0"),
            (",".join(harness.CSV_COLUMNS) + "\n0,mlbq,0.3,1.5,0.1,0.2,0.3,38;15;3\n0,mlbq,0.3,1.5,nan,0.2,0.3,38;15;3\n",
             r"records .*records\.csv, line 3: variance must be a finite number >= 0, got nan"),
            (",".join(harness.CSV_COLUMNS) + "\n0,mlbq,0.3,1.5,0.1,-0.1,0.3,38;15;3\n",
             r"records .*records\.csv, line 2: abs_error must be a finite number >= 0, got -0\.1"),
            (",".join(harness.CSV_COLUMNS) + "\n0,mlbq,0.3,1.5,0.1,inf,0.3,38;15;3\n",
             r"records .*records\.csv, line 2: abs_error must be a finite number >= 0, got inf"),
            (",".join(harness.CSV_COLUMNS) + "\n0,mlbq,-1.0,1.5,0.1,0.2,0.3,38;15;3\n",
             r"records .*records\.csv, line 2: budget must be a finite number > 0, got -1\.0"),
            (",".join(harness.CSV_COLUMNS) + "\n0,mlbq,0.0,1.5,0.1,0.2,0.3,38;15;3\n",
             r"records .*records\.csv, line 2: budget must be a finite number > 0, got 0\.0"),
            (",".join(harness.CSV_COLUMNS) + "\n0,mlbq,0.3,1.5,0.1,0.2,0.3,38;15;3\n0,mlbq,0.3,1.5,0.1,0.2,nan,38;15;3\n",
             r"records .*records\.csv, line 3: cost must be a finite number >= 0, got nan"),
            (",".join(harness.CSV_COLUMNS) + "\n0,mlbq,0.3,1.5,0.1,0.2,-0.3,38;15;3\n",
             r"records .*records\.csv, line 2: cost must be a finite number >= 0, got -0\.3"),
            (",".join(harness.CSV_COLUMNS) + "\n-5,nosuch,0.3,nan,0.1,0.2,0.3,0;-3\n",
             r"records .*records\.csv, line 2: replication must be an integer >= 0, got -5"),
            (",".join(harness.CSV_COLUMNS) + "\n0,mlbq,0.3,1.5,0.1,0.2,0.3,38;15;3\n0,nosuch,0.3,1.5,0.1,0.2,0.3,3\n",
             r"records .*records\.csv, line 3: estimator must be one of \(.*\), got 'nosuch'"),
            (",".join(harness.CSV_COLUMNS) + "\n0,mlbq,0.3,nan,0.1,0.2,0.3,38;15;3\n",
             r"records .*records\.csv, line 2: estimate must be a finite number, got nan"),
            (",".join(harness.CSV_COLUMNS) + "\n0,mlbq,0.3,1.5,0.1,0.2,0.3,38;0;3\n",
             r"records .*records\.csv, line 2: n_per_level must be a list of integer counts >= 1, got \[38, 0, 3\]"),
            (",".join(harness.CSV_COLUMNS) + "\n0,mlbq,0.3,1.5,0.1,0.2,0.3,38;-3;3\n",
             r"records .*records\.csv, line 2: n_per_level must be a list of integer counts >= 1, got \[38, -3, 3\]"),
            (",".join(harness.CSV_COLUMNS) + "\n0,mlbq,0.3,1.5,0.1,0.2,0.3,38;15;3\n0,mlmc,0.3,1.5,0.1,0.2,0.3,67;11;1\n",
             r"records .*records\.csv, line 3: variance must be empty for estimator 'mlmc'"),
            (",".join(harness.CSV_COLUMNS) + "\n0,mlbq,0.3,1.5,,0.2,0.3,38;15;3\n",
             r"records .*records\.csv, line 2: variance must be a number for estimator 'mlbq'"),
        ],
        ids=["missing", "empty", "short-row", "bad-number", "negative-variance", "nan-variance", "negative-abs-error",
             "inf-abs-error", "negative-budget", "zero-budget", "nan-cost", "negative-cost", "negative-replication",
             "unknown-estimator", "nan-estimate", "zero-count", "negative-count", "mlmc-with-variance",
             "mlbq-without-variance"],
    )
    def test_calibrate_bad_records_is_config_error(self, tmp_path, capsys, text, match):
        # a missing file, an empty one and a short row used to end in a traceback (FileNotFoundError,
        # StopIteration, IndexError); a bad number exited 1 without naming the file or line; a negative variance
        # exited 1 with only "math domain error", and a NaN variance or negative error printed a coverage table,
        # as a negative budget or a NaN or negative cost did, and a row no sweep writes (a negative replication, an
        # unknown estimator, a NaN estimate, a count below one, a zero budget, a variance on an mlmc record or none
        # on an mlbq one) still does
        path = tmp_path / "records.csv"
        if text is not None:
            path.write_text(text)
        assert main(["calibrate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert re.search(match, err), err

    @pytest.mark.parametrize("command", ["estimate", "experiment", "calibrate"])
    def test_unwritable_out_is_config_error(self, tmp_path, capsys, command):
        # --out in a missing directory used to raise FileNotFoundError once the sweep had run
        cfg_path, records = tmp_path / "cfg.json", tmp_path / "records.csv"
        cfg_path.write_text(json.dumps(dict(BASE_CONFIG, replications=1)))
        write_records_csv([ResultRecord(0, "mlbq", 1.0, 5.0, 1.0, 0.1, 1.0, (3,))], records)
        out = tmp_path / "no" / "such" / "out.csv"
        args = [str(records)] if command == "calibrate" else ["--config", str(cfg_path)]
        assert main([command, *args, "--out", str(out)]) == 1
        assert re.search(r"^config error: cannot write .*out\.csv: .*No such file", capsys.readouterr().err)

    @pytest.mark.parametrize("jobs", [0, -3, 1.5, True])
    def test_jobs_breaking_the_replications_rule_is_config_error(self, tmp_path, capsys, jobs):
        # --jobs -3 used to exit 0 and run serially; jobs=1.5 ended in a TypeError
        message = f"jobs must be an integer >= 1, got {jobs!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_experiment(config(), jobs=jobs)
        if type(jobs) is int:  # the command line parses --jobs as an integer
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(BASE_CONFIG))
            assert main(["estimate", "--config", str(cfg_path), "--jobs", str(jobs)]) == 1
            assert capsys.readouterr().err == f"config error: {message}\n"

    def test_replications_override_below_one_is_config_error(self):
        # used to return no records and raise no error
        with pytest.raises(ConfigError, match="config replications must be an integer >= 1, got 0"):
            run_experiment(dataclasses.replace(config(), replications=0))

    def test_calibrate_without_bayesian_records(self, tmp_path):
        records = [ResultRecord(0, "mlmc", 1.0, 5.0, None, 0.1, 1.0, (3,))]
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        assert main(["calibrate", str(path)]) == 1
