"""The shipped configs' full sweeps, run once per session: the acceptance criteria and the claims ledger read them."""

import time

import pytest

from mlbq.claims import CONFIGS
from mlbq.harness import load_config, run_experiment


def _timed_sweep(name):
    start = time.monotonic()
    records = run_experiment(load_config(CONFIGS / f"{name}.json"))
    return records, time.monotonic() - start


@pytest.fixture(scope="session")
def poisson_budgets():
    return _timed_sweep("poisson_budgets")


@pytest.fixture(scope="session")
def ode_budgets():
    return _timed_sweep("ode_budgets")


@pytest.fixture(scope="session")
def poisson_calibration():
    return _timed_sweep("poisson_calibration")


@pytest.fixture(scope="session")
def shipped_records(poisson_budgets, ode_budgets, poisson_calibration):
    """Each config's records by name, what ``mlbq.claims._records`` would sweep."""
    sweeps = {"poisson_budgets": poisson_budgets, "ode_budgets": ode_budgets, "poisson_calibration": poisson_calibration}
    return {name: records for name, (records, _) in sweeps.items()}
