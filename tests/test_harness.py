import copy
import filecmp
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mlbq import harness
from mlbq.cli import main
from mlbq.gp import SingularGramError
from mlbq.harness import (
    ConfigError,
    ResultRecord,
    _build_groups,
    _counts_for,
    _data_hash,
    calibration_table,
    config_from_dict,
    read_records_csv,
    run_experiment,
    validate_budget_accounting,
    write_records_csv,
)
from mlbq.models import OdeHierarchy, PoissonHierarchy, make_model

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


def config(**overrides):
    raw = copy.deepcopy(BASE_CONFIG)
    raw.update(overrides)
    return config_from_dict(raw)


class TestConfig:
    def test_pickle_round_trip(self):
        # --jobs workers receive the frozen config as it is
        cfg = config(
            estimators=[{"name": "sk-mlbq", "design": "grid", "b_matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}],
            kernel={"family": "matern", "policy": "fixed", "lengthscale": [0.5]},
            allocation={"source": "table", "table": [[10, 5, 2]]},
            output="out.csv",
        )
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

    def test_sk_mlbq_needs_fixed_policy(self):
        with pytest.raises(ConfigError, match="fixed"):
            config(
                estimators=[{"name": "sk-mlbq", "design": "grid"}],
                allocation={"source": "table", "table": [{"sk-mlbq": [10, 5, 2]}]},
            )

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
            {"lengthscale": -1.0, "policy": "fixed"},
            {"family": "squared-exponential"},
        ],
    )
    def test_bad_kernel_fails_before_the_sweep(self, bad, tmp_path, monkeypatch):
        # a bad kernel setting is one configuration error, not one failed cell per (budget, replication)
        raw = copy.deepcopy(BASE_CONFIG)
        raw["kernel"].update(bad)
        monkeypatch.setattr(PoissonHierarchy, "reference_integral", lambda self: pytest.fail("sweep started"))
        with pytest.raises(ConfigError):
            run_experiment(config_from_dict(raw))
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "records.csv"
        cfg_path.write_text(json.dumps(raw))
        assert main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert not out.exists()

    def test_kernel_not_built_without_bayesian_estimator(self):
        cfg = config(
            estimators=[{"name": "mlmc", "design": "iid"}],
            kernel={"smoothness": 1.5},
            allocation={"source": "table", "table": [[67, 11, 1]]},
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
    def test_same_group_shares_identical_level_data(self):
        cfg = config(
            estimators=[{"name": "mlbq", "design": "iid"}, {"name": "mlmc", "design": "iid"}],
            allocation={"source": "table", "table": [[20, 8, 2]]},
        )
        model = make_model("poisson")
        counts = _counts_for(cfg, model, 0)
        assert counts["mlbq"] == counts["mlmc"] == (20, 8, 2)
        groups = _build_groups(cfg, model, counts, 0, 0, {})
        assert groups["mlbq"] is groups["mlmc"]  # both estimators consume the same data and hash

    def test_distinct_designs_get_distinct_groups(self):
        cfg = config()
        model = make_model("poisson")
        groups = _build_groups(cfg, model, _counts_for(cfg, model, 0), 0, 0, {})
        (levels_a, hash_a), (levels_b, hash_b) = groups["mlbq"], groups["mlmc"]
        assert levels_a is not levels_b
        assert hash_a != hash_b
        assert (hash_a, hash_b) == (_data_hash(levels_a), _data_hash(levels_b))

    def test_replications_differ_but_reruns_match(self):
        cfg = config()
        model = make_model("poisson")
        counts = _counts_for(cfg, model, 0)
        g0 = _build_groups(cfg, model, counts, 0, 0, {})
        g0_again = _build_groups(cfg, model, counts, 0, 0, {})
        g1 = _build_groups(cfg, model, counts, 0, 1, {})
        assert _data_hash(g0["mlmc"][0]) == _data_hash(g0_again["mlmc"][0])
        assert _data_hash(g0["mlmc"][0]) != _data_hash(g1["mlmc"][0])


class TestBuildGroups:
    ODE = dict(
        model={"name": "ode", "params": {}},
        estimators=[{"name": "mlbq", "design": "halton"}, {"name": "mlmc", "design": "iid"}],
        kernel={"family": "se", "lengthscale": 1.0, "policy": "fixed"},
        budgets=[0.1],
        allocation={"source": "table", "table": [{"mlbq": [20, 8, 3], "mlmc": [12, 5, 2]}]},
    )

    def test_one_model_evaluation_per_level(self, monkeypatch):
        calls = []
        original = OdeHierarchy.evaluate

        def counted(self, level, points):
            calls.append(level)
            return original(self, level, points)

        monkeypatch.setattr(OdeHierarchy, "evaluate", counted)
        cfg = config(**self.ODE)
        model = make_model("ode")
        counts = _counts_for(cfg, model, 0)
        for rep in range(2):
            calls.clear()
            _build_groups(cfg, model, counts, 0, rep, {})
            assert sorted(calls) == [0, 1, 2]

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
        for name, (levels, digest) in _build_groups(cfg, model, counts, 0, 1, {}).items():
            single = name in harness.SINGLE_LEVEL
            assert [lv.level for lv in levels] == ([model.levels - 1] if single else [0, 1, 2])
            for lv in levels:
                evaluate = model.evaluate if single else model.increments
                assert np.array_equal(lv.values, evaluate(lv.level, lv.points))
            assert digest == _data_hash(levels)

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
        for record in run_experiment(cfg):
            est = next(e for e in cfg.estimators if e.name == record.estimator)
            levels, _ = _build_groups(cfg, model, counts, 0, record.replication, {})[est.name]
            estimate, variance = harness._run_estimator(cfg, model, est, levels)
            assert (record.estimate, record.variance) == (estimate, variance)

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

    def test_golden_record_hashes(self, tmp_path):
        """The records' sha256 prefixes at 4 replications, one BLAS thread, serial.

        A change that moves records updates these hashes and says which bits
        moved, and why, in CHANGES.md.  OpenBLAS reads OPENBLAS_NUM_THREADS
        when it loads, so the sweeps run in a subprocess started with it set.
        """
        root = Path(__file__).resolve().parents[1]
        golden = {
            "configs/ode_budgets.json": "a79b459c84557b9a",
            "configs/poisson_budgets.json": "b50572fe1fbf35b6",
            "configs/poisson_calibration.json": "0738e35f27938bc6",
            "perfbench/ode_matern_lhs.json": "18acc137f16fc381",
        }
        script = (
            "import dataclasses, hashlib, sys\n"
            "from mlbq.harness import load_config, run_experiment, write_records_csv\n"
            "out = sys.argv[1]\n"
            "for path in sys.argv[2:]:\n"
            "    write_records_csv(run_experiment(dataclasses.replace(load_config(path), replications=4)), out)\n"
            "    print(path, hashlib.sha256(open(out, 'rb').read()).hexdigest()[:16])\n"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        paths = [str(root / name) for name in golden]
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "records.csv"), *paths],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        hashes = dict(line.rsplit(" ", 1) for line in done.stdout.splitlines())
        assert hashes == {path: golden[name] for path, name in zip(paths, golden)}

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
            allocation={"source": "table", "table": [[8, 4, 2], [16, 8, 2]]},
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
            kernel={"family": "se", "lengthscale": 1.0, "policy": "fixed", "mle_amplitude": True},
            budgets=[0.1],
            allocation={"source": "table", "table": [[20, 8, 3]]},
            replications=1,
        )
        model = make_model("ode")
        counts = validate_budget_accounting(cfg, model)[0]
        levels, _ = _build_groups(cfg, model, counts, 0, 0, {})["mlbq"]
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

    def test_formula_allocation_end_to_end(self):
        cfg = config(
            estimators=[{"name": "mlbq", "design": "grid"}, {"name": "mlmc", "design": "iid"}],
            allocation={
                "source": "mlbq-formula",
                "norms": [62.5e-3, 22.5e-3, 3.125e-3],
                "tau": 1.0,
                "gamma": 1.0,
            },
            replications=1,
        )
        records = run_experiment(cfg)
        assert {r.estimator for r in records} == {"mlbq", "mlmc"}
        # both estimators run at the norm-based counts for this budget
        assert all(r.n_per_level == (38, 15, 3) for r in records)


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        records = run_experiment(config(replications=2))
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


class TestCli:
    def test_allocate_exit_codes(self, capsys):
        assert main(["allocate", "--variances", "1,0.1", "--costs", "1,4", "--budget", "10"]) == 0
        out = capsys.readouterr().out
        assert "integer counts" in out
        assert main(["allocate", "--norms", "1,0.1", "--costs", "1,4", "--budget", "10"]) == 1

    def test_allocate_rejects_nonpositive(self, capsys):
        assert main(["allocate", "--variances", "1,-0.1", "--costs", "1,4", "--budget", "10"]) == 1

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

    def test_missing_config_is_config_error(self):
        assert main(["experiment", "--config", "/nonexistent.json", "--out", "/tmp/x.csv"]) == 1

    def test_bad_usage_is_config_error(self):
        assert main(["allocate", "--costs", "1,2", "--budget", "1"]) == 1

    def test_calibrate_without_bayesian_records(self, tmp_path):
        records = [ResultRecord(0, "mlmc", 1.0, 5.0, None, 0.1, 1.0, (3,))]
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        assert main(["calibrate", str(path)]) == 1
