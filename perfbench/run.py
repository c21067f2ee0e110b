"""Experiment-sweep benchmark for mlbq.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One round runs fresh processes, each with the machine's default BLAS
threading: the serial ``mlbq experiment`` sweep and ``mlbq estimate``.
Each process also times its own set-up.  Rounds repeat while fewer than
S seconds have passed; every figure is the median over the run.  With
``--trace 1`` a round is a traced serial sweep, an untraced one and the
sweep with ``--jobs 2``, and the run reports per-layer figures.

Every output is checked against perfbench/references.py (computed without
mlbq) or against properties the method must have.  The last stdout line
is the JSON result: ``correct``, ``attempted``, ``failed`` and ``metrics``.
An operation is one (budget, replication, estimator) record.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import references as ref  # noqa: E402

# Replication counts are cut from the shipped configs' 100 so that one
# round fits the run-time budget; see README.md for each workload's make-up.
# The two Poisson workloads are not in BENCHMARK.json: their timings are too
# short to hold a bound on a 2-core machine (README.md, "Why `--jobs 2` has
# no bound and the Poisson workloads are not listed").
WORKLOADS = {
    "poisson-grid-budgets": {"config": "configs/poisson_budgets.json", "replications": 25},
    "poisson-iid-calibration": {"config": "configs/poisson_calibration.json", "replications": 50},
    "ode-halton-budgets": {"config": "configs/ode_budgets.json", "replications": 8},
    "ode-matern-lhs": {"config": "perfbench/ode_matern_lhs.json", "replications": 6},
}

MODEL_DIMS = {"poisson": 1, "ode": 2}
MODEL_COSTS = {"poisson": ref.POISSON_COSTS, "ode": ref.ODE_COSTS}
BAYESIAN = {"bq", "mlbq", "sk-mlbq"}
SINGLE_LEVEL = {"mc", "bq"}
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS")
RUN_DEADLINE_S = 170  # no round starts, and no process runs on, past this
Z90 = 1.6448536269514722  # standard-normal 0.95 quantile: central 90% interval
M52_RTOL = 3e-3  # accepts the 10^6-sample Monte Carlo fallback (<= 6e-4 seen) and an exact formula

LAYER_SECONDS = {
    "designs.generate_design": "designs.generate_design_s",
    "models.evaluate": "models.evaluate_s",
    "models.reference_integral": "models.reference_integral_s",
    "kernels.gram": "kernels.gram_s",
    "kernels.initial_error": "kernels.initial_error_s",
    "kernels.kernel_mean": "kernels.kernel_mean_s",
    "gp.fit_hyperparameters": "gp.fit_hyperparameters_s",
    "gp.mle_amplitude": "gp.mle_amplitude_s",
    "gp.fit_gp": "gp.fit_gp_s",
    "quadrature.mlbq_estimate": "quadrature.mlbq_estimate_self_s",
    "quadrature.bq_posterior": "quadrature.bq_posterior_s",
    "quadrature.mlmc_estimate": "quadrature.mlmc_estimate_s",
    "allocation.plan": "allocation.plan_s",
    "harness": "harness.self_s",
    "harness.write_records": "harness.write_records_s",
}
LAYER_COUNTS = {
    "designs.points": "count",
    "models.points_evaluated": "count",
    "models.reference_integral_calls": "count",
    "kernels.gram_entries": "count",
    "kernels.initial_error_calls": "count",
    "gp.lml_evaluations": "count",
    "gp.cholesky_calls": "count",
    "gp.cholesky_flops": "flop",
    "harness.cells": "count",
    "harness.distinct_cell_ratio": "ratio",
}


class Failure(Exception):
    """A check on the program's output did not hold."""


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def run_child(mode, config, out, warnlog, jobs, deadline) -> dict:
    """Run child.py to completion; its whole process group dies at the deadline."""
    cmd = [sys.executable, str(HERE / "child.py"), mode, str(config), str(out), str(warnlog), str(jobs)]
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        # Whatever is left of the child's process group, --jobs workers included.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    if stdout is None:
        proc.communicate()
        raise Failure(f"{mode} (jobs={jobs}) did not finish before the run's deadline")
    if proc.returncode != 0:
        raise Failure(f"{mode} (jobs={jobs}) exited {proc.returncode}: {stderr.strip()[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def count_lines(path: Path) -> int:
    return len(path.read_text().splitlines()) if path.exists() else 0


# ---------------------------------------------------------------------------
# workload inputs
# ---------------------------------------------------------------------------


def make_config(name: str, seed: int, workdir: Path) -> tuple[Path, dict]:
    spec = WORKLOADS[name]
    raw = json.loads((ROOT / spec["config"]).read_text())
    raw.pop("comment", None)
    raw.pop("output", None)
    raw["replications"] = spec["replications"]
    raw["seed"] = raw["seed"] + seed
    path = workdir / "config.json"
    path.write_text(json.dumps(raw, indent=1))
    return path, raw


def expected_cells(raw) -> dict:
    """(budget, estimator) -> table counts, or None where a formula decides them."""
    names = [e["name"] for e in raw["estimators"]]
    alloc = raw["allocation"]
    out = {}
    for bi, budget in enumerate(raw["budgets"]):
        if alloc["source"] == "table":
            entry = alloc["table"][bi]
            for est in names:
                counts = entry.get(est) if isinstance(entry, dict) else entry
                if counts is not None:
                    out[(budget, est)] = tuple(counts)
        else:
            for est in names:
                out[(budget, est)] = None
    return out


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def parse_records(text: str) -> list[dict]:
    rows = list(csv.reader(io.StringIO(text)))
    header = ["replication", "estimator", "budget", "estimate", "variance", "abs_error", "cost", "n_per_level"]
    if rows[0] != header:
        raise Failure(f"unexpected CSV header {rows[0]}")
    return [
        {
            "replication": int(r[0]),
            "estimator": r[1],
            "budget": float(r[2]),
            "estimate": float(r[3]),
            "variance": None if r[4] == "" else float(r[4]),
            "abs_error": float(r[5]),
            "cost": float(r[6]),
            "n_per_level": tuple(int(n) for n in r[7].split(";")),
        }
        for r in rows[1:]
    ]


def require(condition, message):
    if not condition:
        raise Failure(message)


def check_reference(raw, program_ref, program_err):
    if raw["model"]["name"] == "poisson":
        closed = ref.poisson_top_reference()
        require(abs(program_ref - closed) <= 1e-14, f"Poisson reference {program_ref!r} != closed form {closed!r}")
    else:
        gl = ref.ode_mean(ref.ODE_REFERENCE_SPACING, 16)
        require(
            abs(program_ref - gl) <= 4.0 * program_err,
            f"ODE reference {program_ref!r} is {abs(program_ref - gl):.3g} from Gauss-Legendre {gl!r}, "
            f"beyond 4x its own error {program_err:.3g}",
        )


def check_records(raw, records, program_ref):
    """Properties every record of every workload must have."""
    cells = expected_cells(raw)
    costs = MODEL_COSTS[raw["model"]["name"]]
    alloc = raw["allocation"]
    seen = set()
    for r in records:
        key = (r["budget"], r["estimator"])
        require(key in cells and 0 <= r["replication"] < raw["replications"], f"unexpected record {r}")
        require((key, r["replication"]) not in seen, f"duplicate record {r}")
        seen.add((key, r["replication"]))
        require(r["abs_error"] == abs(r["estimate"] - program_ref), f"abs_error is not |estimate - reference|: {r}")
        if r["estimator"] in BAYESIAN:
            require(r["variance"] is not None and math.isfinite(r["variance"]) and r["variance"] > 0,
                    f"Bayesian record without a finite positive variance: {r}")
        else:
            require(r["variance"] is None, f"Monte Carlo record carries a variance: {r}")
        n = r["n_per_level"]
        single = r["estimator"] in SINGLE_LEVEL
        level_costs = costs[-1:] if single else costs
        require(len(n) == len(level_costs), f"wrong number of levels: {r}")
        spent = sum(k * c for k, c in zip(n, level_costs))
        require(math.isclose(r["cost"], spent, rel_tol=1e-12), f"cost {r['cost']} != sum n_l C_l = {spent}: {r}")
        require(r["cost"] <= r["budget"] + max(costs) + 1e-12, f"cost beyond budget + one step: {r}")
        if cells[key] is not None:
            require(n == cells[key], f"n_per_level {n} != config table {cells[key]}")
        elif single:
            require(n == (max(int(r["budget"] / (alloc.get("gamma", 1.0) * costs[-1])), 1),),
                    f"single-level count {n} != floor(T / (gamma C_L))")
        else:
            dim = MODEL_DIMS[raw["model"]["name"]]
            real = ref.mlbq_real_counts(alloc["norms"], costs, r["budget"], alloc["tau"], dim, alloc.get("gamma", 1.0))
            require(all(abs(k - x) <= 1.0 for k, x in zip(n, real)), f"n_per_level {n} not within one of {real}")


def _by(records, estimator, budget):
    return [r for r in records if r["estimator"] == estimator and r["budget"] == budget]


def _mlmc_standard_error(variances, counts, reps):
    return math.sqrt(sum(v / n for v, n in zip(variances, counts)) / reps)


def check_workload(name, raw, records):
    """Properties the method must have on each workload."""
    cells = expected_cells(raw)
    if name == "poisson-grid-budgets":
        target = ref.poisson_top_reference()
        variances = ref.poisson_increment_variances()
        for budget in raw["budgets"]:
            bq, mc = _by(records, "mlbq", budget), _by(records, "mlmc", budget)
            bq_err = statistics.fmean(r["abs_error"] for r in bq)
            mc_err = statistics.fmean(r["abs_error"] for r in mc)
            require(5.0 * bq_err <= mc_err, f"T={budget}: mlbq mean |error| {bq_err:.3g} not 5x below mlmc {mc_err:.3g}")
            se = _mlmc_standard_error(variances, cells[(budget, "mlmc")], len(mc))
            mean = statistics.fmean(r["estimate"] for r in mc)
            require(abs(mean - target) <= 4.0 * se, f"T={budget}: mlmc mean {mean!r} > 4 SE ({se:.3g}) from {target!r}")
    elif name == "poisson-iid-calibration":
        bayes = [r for r in records if r["variance"] is not None]
        hits = sum(r["abs_error"] <= Z90 * math.sqrt(r["variance"]) for r in bayes)
        coverage, se = hits / len(bayes), math.sqrt(0.9 * 0.1 / len(bayes))
        require(coverage >= 0.9 - 2.0 * se, f"90% interval coverage {coverage:.3f} below 0.9 - 2 x {se:.3f}")
    elif name == "ode-halton-budgets":
        small, large = min(raw["budgets"]), max(raw["budgets"])
        bq_err = statistics.fmean(r["abs_error"] for r in _by(records, "mlbq", small))
        mc = _by(records, "mlmc", large)
        mc_err = statistics.fmean(r["abs_error"] for r in mc)
        require(bq_err <= mc_err, f"mlbq mean |error| {bq_err:.3g} at T={small} exceeds mlmc {mc_err:.3g} at T={large}")
        target = ref.ode_mean(ref.ODE_SPACINGS[-1])
        se = _mlmc_standard_error(ref.ode_increment_variances(), cells[(large, "mlmc")], len(mc))
        mean = statistics.fmean(r["estimate"] for r in mc)
        require(abs(mean - target) <= 4.0 * se, f"T={large}: mlmc mean {mean!r} > 4 SE ({se:.3g}) from E[f_L] {target!r}")


def check_m52_gauss(calls):
    """Every Matern-5/2 x N(0, 1) initial error against 1-d quadrature."""
    require(calls, "no Matern-5/2 x N(0, 1) initial error was computed")
    for call in calls:
        expected = call["amplitude"]
        for (family, nu, gamma), marginal in zip(call["factors"], call["marginals"]):
            require(family == "Matern" and nu == 2.5, f"unexpected factor {family} {nu}")
            if marginal == "StandardNormal":
                expected *= ref.m52_gauss_initial_error(gamma)
            else:
                expected *= ref.m52_uniform_initial_error(gamma)
        require(math.isclose(call["value"], expected, rel_tol=M52_RTOL),
                f"initial error {call['value']!r} vs quadrature {expected!r} for {call['factors']}")


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


class Run:
    def __init__(self, name, seed, workdir, deadline):
        self.name = name
        self.workdir = workdir
        self.deadline = deadline
        self.config, self.raw = make_config(name, seed, workdir)
        self.cells_per_replication = len(expected_cells(self.raw))
        self.attempted = 0
        self.written = 0
        self.warnings = 0
        self.samples = {}
        self.serial_bytes = None
        self.env = None

    def sample(self, metric, value):
        self.samples.setdefault(metric, []).append(value)

    def sweep(self, mode, jobs, tag) -> tuple[dict, bytes]:
        out = self.workdir / f"{tag}.csv"
        warnlog = self.workdir / f"{tag}.warnings"
        result = run_child(mode, self.config, out, warnlog, jobs, self.deadline)
        data = out.read_bytes()
        records = parse_records(data.decode())
        attempted = self.cells_per_replication * (1 if mode == "estimate" else self.raw["replications"])
        failed, warned = attempted - len(records), count_lines(warnlog)
        require(failed == warned, f"{tag}: {failed} records missing but {warned} harness warnings")
        self.attempted += attempted
        self.written += len(records)
        self.warnings += warned
        self.sample("setup_s", result["setup_s"])
        self.env = result["env"]
        if "reference" in result:
            check_reference(self.raw, result["reference"], result["reference_err"])
            check_records(self.raw, records, result["reference"])
        return result, data

    def serial(self, mode, tag) -> dict:
        result, data = self.sweep(mode, 1, tag)
        if self.serial_bytes is None:
            self.serial_bytes = data
            check_workload(self.name, self.raw, parse_records(data.decode()))
        require(data == self.serial_bytes, f"{tag}: records differ from the first serial sweep of this run")
        return result

    def round(self, index):
        result = self.serial("experiment", f"serial{index}")
        self.sample("sweep_s", result["run_s"])
        self.sample("peak_rss_mb", result["peak_rss_mb"])
        result, data = self.sweep("estimate", 1, f"estimate{index}")
        lines = self.serial_bytes.decode().splitlines()
        first = [lines[0]] + [line for line in lines[1:] if line.split(",", 1)[0] == "0"]
        require(data.decode().splitlines() == first, "estimate records differ from replication 0 of the sweep")
        self.sample("estimate_s", result["run_s"])

    def trace_round(self, index):
        traced = self.serial("trace", f"trace{index}")
        plain = self.serial("experiment", f"serial{index}")
        # --jobs 2 is timed here, with no bound: its spread is wider than any
        # bound could be (README.md, "Why `--jobs 2` has no bound ...").
        jobs2, data = self.sweep("experiment", 2, f"jobs{index}")
        require(data == self.serial_bytes, "--jobs 2 records differ from the serial records")
        self.sample("sweep_jobs2_s", jobs2["run_s"])
        trace = traced["trace"]
        if self.name == "ode-matern-lhs":
            check_m52_gauss(trace["m52_gauss"])
        for layer, metric in LAYER_SECONDS.items():
            self.sample(metric, trace["self_s"].get(layer, 0.0))
        for metric in LAYER_COUNTS:
            self.sample(metric, trace["counts"].get(metric, 0.0))
        attributed = sum(trace["self_s"].values())
        overhead = traced["run_s"] - plain["run_s"]
        unattributed = traced["run_s"] - attributed
        require(abs(unattributed) <= max(abs(overhead), trace["wrapper_cost_s"]),
                f"layer self times sum to {attributed:.3f} s, traced sweep {traced['run_s']:.3f} s, "
                f"beyond the tracing overhead {overhead:.3f} s")
        self.sample("trace.sweep_s", traced["run_s"])
        self.sample("trace.untraced_sweep_s", plain["run_s"])
        self.sample("trace.overhead_s", overhead)
        self.sample("trace.wrapper_cost_s", trace["wrapper_cost_s"])
        self.sample("trace.unattributed_s", unattributed)


END_TO_END = {"setup_s": "s", "sweep_s": "s", "estimate_s": "s", "peak_rss_mb": "MB"}
TRACE_EXTRA = {name: "s" for name in ("sweep_jobs2_s", "trace.sweep_s", "trace.untraced_sweep_s",
                                      "trace.overhead_s", "trace.wrapper_cost_s", "trace.unattributed_s")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/mlbq/cli.py", WORKLOADS[args.workload]["config"]) if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(missing)}; run from a checkout of the repository", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    run = Run(args.workload, args.seed, workdir, start + RUN_DEADLINE_S)
    correct = True
    try:
        index, longest = 0, 0.0
        while index == 0 or (time.monotonic() - start < args.seconds
                             and time.monotonic() - start + longest < RUN_DEADLINE_S):
            began = time.monotonic()
            (run.trace_round if args.trace else run.round)(index)
            longest = max(longest, time.monotonic() - began)
            index += 1
    except Failure as exc:
        print(f"CHECK FAILED: {exc}")
        correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        units = {m: "s" for m in LAYER_SECONDS.values()} | LAYER_COUNTS | TRACE_EXTRA
    else:
        units = END_TO_END
    metrics = {m: {"value": statistics.median(run.samples[m]), "unit": u} for m, u in units.items() if m in run.samples}
    if run.env is not None:
        dropped = {k: os.environ[k] for k in THREAD_VARIABLES if k in os.environ}
        print("environment: " + json.dumps(run.env | {"thread_variables_removed": dropped}))
    print(f"workload {args.workload}: seed {run.raw['seed']}, {run.raw['replications']} replications, "
          f"{index} round(s), {run.attempted} operations attempted, {run.attempted - run.written} failed, "
          f"{run.warnings} harness warnings")
    for m, v in metrics.items():
        print(f"  {m}: {v['value']:.6g} {v['unit']}  (n={len(run.samples[m])})")
    if len(metrics) != len(units):
        correct = False
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.attempted - run.written,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
