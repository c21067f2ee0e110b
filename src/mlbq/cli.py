"""Command-line interface.

Subcommands::

    mlbq allocate    closed-form budget allocation, its flags read by the config's rules
    mlbq estimate    the sweep at one replication (replication 0): print each record, and
                     write the records CSV only with --out
    mlbq experiment  full sweep from a config -> records CSV
    mlbq calibrate   records CSV -> credible-interval coverage CSV
    mlbq oracle      run the derived-value oracles, print a provenance report

Exit codes: 0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .gp import SingularGramError
from .harness import (
    NOMINAL_LEVELS,
    ConfigError,
    _allocation,
    _positive,
    calibration_table,
    load_config,
    read_records_csv,
    run_experiment,
    write_coverage_csv,
    write_records_csv,
)
from .models import ModelError, _costs
from .quadrature import LevelFailure

NUMERICAL_ERRORS = (SingularGramError, LevelFailure, ModelError, ArithmeticError)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as configuration errors."""

    def error(self, message):
        raise ConfigError(message)


def _floats(text):
    return [float(v) for v in text.split(",")]


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mlbq", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_alloc = sub.add_parser("allocate", help="closed-form per-level sample sizes")
    group = p_alloc.add_mutually_exclusive_group(required=True)
    group.add_argument("--variances", type=_floats, help="per-level variances (variance-based allocation)")
    group.add_argument("--norms", type=_floats, help="per-level increment norms (norm-based allocation)")
    p_alloc.add_argument("--costs", type=_floats, required=True, help="per-level costs, same units as budget")
    p_alloc.add_argument("--budget", type=_floats, required=True, help="budget(s) T, comma separated")
    p_alloc.add_argument("--tau", type=float, help="smoothness tau (with --norms only, and required there)")
    p_alloc.add_argument("--dim", type=int, help="input dimension d (with --norms only; default 1)")

    for name, help_text in [
        ("estimate", "run the sweep at one replication and print its records"),
        ("experiment", "run the full replicated sweep and write the records CSV"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--seed", type=int, help="override the config's master seed, an integer >= 0")
        p.add_argument("--jobs", type=int, default=1, help="worker processes for replications")
        p.add_argument("--out", help="output CSV path (overrides config output)")

    p_cal = sub.add_parser("calibrate", help="coverage table from a records CSV")
    p_cal.add_argument("records", help="records CSV produced by `experiment`")
    p_cal.add_argument("--levels", type=_floats, default=NOMINAL_LEVELS, help="nominal credible levels, comma separated")
    p_cal.add_argument("--out", help="coverage CSV path (default: stdout table)")

    sub.add_parser("oracle", help="run derived-value oracles and print a provenance report")
    return parser


def _cmd_allocate(args) -> int:
    source, label = ("mlmc-formula", "variance-based") if args.norms is None else ("mlbq-formula", "norm-based")
    flags = {"source": source, "variances": args.variances, "norms": args.norms, "tau": args.tau}
    alloc = _allocation({key: value for key, value in flags.items() if value is not None}, "allocation")
    if args.dim is not None and args.norms is None:  # the one flag with no config key (a sweep takes the model's)
        raise ConfigError("--dim applies to --norms only")
    costs, budgets = _costs(args.costs), [_positive(budget, "budget") for budget in args.budget]
    for budget in budgets:
        plan = alloc.plan(costs, budget, 1 if args.dim is None else args.dim)
        real = ", ".join(f"{v:.3f}" for v in plan.real_counts)
        print(f"T={budget:g} ({label})")
        print(f"  real counts:    [{real}]")
        print(f"  integer counts: {list(plan.counts)}")
        print(f"  realized cost:  {plan.realized_cost:.6g}")
        print(f"  objective:      {plan.objective:.6g} (real optimum {plan.objective_real:.6g})")
    return 0


def _cmd_sweep(args) -> int:
    """``experiment`` writes the sweep's records; ``estimate`` is the sweep at one replication, printing each
    record and writing them only with ``--out``."""
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    estimate = args.command == "estimate"
    out = args.out if estimate else args.out or cfg.output
    if out is None and not estimate:
        raise ConfigError("no output path: pass --out or set `output` in the config")
    records = run_experiment(replace(cfg, replications=1) if estimate else cfg, jobs=args.jobs)
    if not records:  # the config gives every budget an estimator and a replication, so every cell failed
        print("numerical failure: every cell of the sweep failed (each is logged above)", file=sys.stderr)
        return 2
    if estimate:
        for r in records:
            var = "" if r.variance is None else f" variance={r.variance:.6g}"
            print(
                f"T={r.budget:g} {r.estimator}: estimate={r.estimate:.10g}{var} "
                f"abs_error={r.abs_error:.6g} cost={r.cost:.6g} n={';'.join(str(n) for n in r.n_per_level)}"
            )
    if out:
        write_records_csv(records, out)
        print(f"wrote {len(records)} records to {out}")
    return 0


def _cmd_calibrate(args) -> int:
    records = read_records_csv(args.records)
    rows = calibration_table(records, levels=args.levels)
    if args.out:
        write_coverage_csv(rows, args.out)
        print(f"wrote {len(rows)} coverage rows to {args.out}")
    else:
        print("nominal_level coverage binomial_se count")
        for row in rows:
            print(f"{row.nominal_level:<13g} {row.coverage:<8.4f} {row.binomial_se:<11.4g} {row.count}")
    return 0


def _cmd_oracle() -> int:
    from .oracles import oracle_report

    rows = oracle_report()
    failures, width = 0, max(len(row.name) for row in rows)
    print(f"{'check':<{width}} {'oracle':>14} {'implementation':>16} {'|diff|':>10} {'tol':>8}  status")
    for row in rows:
        status = "PASS" if row.passed else "FAIL"
        failures += 0 if row.passed else 1
        print(
            f"{row.name:<{width}} {row.oracle_value:>14.8g} {row.implementation_value:>16.8g} "
            f"{row.difference:>10.2e} {row.tolerance:>8.1e}  {status}"
        )
    print(f"{len(rows) - failures}/{len(rows)} oracle checks passed")
    return 0 if failures == 0 else 2


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "allocate":
            return _cmd_allocate(args)
        if args.command in ("estimate", "experiment"):
            return _cmd_sweep(args)
        if args.command == "calibrate":
            return _cmd_calibrate(args)
        return _cmd_oracle()
    except NUMERICAL_ERRORS as exc:  # first: SingularGramError is a ValueError too
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # ConfigError and AllocationError among them
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
