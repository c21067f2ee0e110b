"""The names other code reaches into the package by: the benchmark's tracer and each ``__all__``."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import mlbq
from mlbq import gp, harness

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    fit_gp, level_kernel = gp.fit_gp, harness.KernelPolicy.level_kernel
    tracer = tracer_module.Tracer()
    # install looks these up by name and raises AttributeError or KeyError if one is gone
    tracer.install()
    try:
        assert gp.fit_gp.__wrapped__ is fit_gp
        assert harness.KernelPolicy.level_kernel.__wrapped__ is level_kernel
    finally:
        tracer.uninstall()
    assert gp.fit_gp is fit_gp
    assert harness.KernelPolicy.level_kernel is level_kernel


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(mlbq.__path__)))
def test_all_names_resolve(name):
    module = importlib.import_module(f"mlbq.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
