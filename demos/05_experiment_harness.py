"""The experiment harness: replicated sweeps, CSV records, calibration.

A JSON-able config names the model, the estimators with their designs,
the kernel policy, budgets and per-budget sample sizes, a replication
count and a master seed.  Before any cell runs, every estimator's design
is checked against the model's measure (a grid needs bounded marginals).
In each (budget, replication) cell, estimators that share a design kind
and sample sizes (a data group) consume identical evaluations.  One reuse
rule saves work: a grid or Halton cell ignores the seed, so it is
computed once and reused in every replication; IID and Latin hypercube
cells, like the ones here, are computed in each.  Reruns are
byte-identical, also under worker-process parallelism.  Each cell ends in
one outcome: its record, or the level failure that failed it, and a
Bayesian record comes with each level's posterior and fitted kernel.

The same sweep is available from the shell:

    mlbq experiment --config configs/poisson_budgets.json --out records.csv
    mlbq calibrate records.csv --levels 0.5,0.9,0.95
"""

import numpy as np

from mlbq.harness import calibration_table, config_from_dict, sweep_outcomes

config = config_from_dict(
    {
        "schema_version": 1,
        "model": {"name": "poisson", "params": {}},
        "estimators": [
            {"name": "mlbq", "design": "iid"},
            {"name": "mlmc", "design": "iid"},
        ],
        "kernel": {
            "family": "matern",
            "smoothness": 0.5,
            "policy": "fitted",
            "bounds": [0.01, 10.0],
        },
        "budgets": [0.376, 1.503],
        "allocation": {
            "source": "table",
            "table": [
                {"mlbq": [38, 15, 3], "mlmc": [67, 11, 1]},
                {"mlbq": [153, 60, 10], "mlmc": [266, 46, 3]},
            ],
        },
        "replications": 40,
        "seed": 7,
    }
)

outcomes = sweep_outcomes(config)
records = [o.record for o in outcomes if o.failure is None]
print(f"ran {len(outcomes)} cells ({config.replications} replications x 2 budgets x 2 estimators), "
      f"{len(outcomes) - len(records)} failed")
print()
print(f"{'T':>7} {'estimator':>10} {'mean |error|':>14} {'mean cost':>10}")
for budget in config.budgets:
    for name in ("mlbq", "mlmc"):
        rows = [r for r in records if r.budget == budget and r.estimator == name]
        print(f"{budget:>7} {name:>10} {np.mean([r.abs_error for r in rows]):>14.3e} "
              f"{np.mean([r.cost for r in rows]):>10.4f}")

first = next(o for o in outcomes if o.estimator == "mlbq" and o.failure is None)
print()
print(f"== per-level posteriors of the mlbq cell at T={first.budget}, replication {first.replication} ==")
print(f"{'level':>5} {'n':>4} {'mean':>11} {'std':>10} {'lengthscale':>12} {'amplitude':>10}")
for level, lv in enumerate(first.levels):
    print(f"{level:>5} {lv.n:>4} {lv.mean:>11.3e} {np.sqrt(lv.variance):>10.3e} "
          f"{lv.lengthscales[0]:>12.4g} {lv.amplitude:>10.3e}")

print()
print("== credible-interval calibration of the GP-route records ==")
print(f"{'nominal':>8} {'coverage':>9} {'binomial se':>12}")
for row in calibration_table(records, levels=(0.25, 0.5, 0.75, 0.9, 0.95)):
    print(f"{row.nominal_level:>8} {row.coverage:>9.3f} {row.binomial_se:>12.3f}")

print()
print("note: within a cell, estimators sharing a design kind and sample")
print("sizes consume identical evaluations; here the two columns use")
print("different sample sizes, so each forms its own data group.")
print("rerunning this script reproduces every number bit for bit.")
