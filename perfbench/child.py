"""One measured process: set up mlbq, then run one CLI subcommand.

Usage::

    python3 perfbench/child.py MODE CONFIG OUT WARNLOG JOBS

MODE is ``experiment``, ``estimate`` or ``trace`` (``experiment`` with
every layer wrapped in timing spans, see tracer.py).  Set-up is
timed from before ``import mlbq`` through loading and validating the
config and constructing the model.  The subcommand runs in this process
through ``mlbq.cli.main``, exactly as the ``mlbq`` entry point runs it.
Warnings of the ``mlbq.harness`` logger, worker processes included, are
appended to WARNLOG.  The last stdout line is a JSON object of results.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import logging
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _blas_threads() -> int | None:
    """Default thread count of the OpenBLAS numpy loaded, read through its C API."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and line.strip().endswith(".so")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import multiprocessing

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "start_method": multiprocessing.get_start_method(),
    }


def main(argv) -> int:
    mode, config, out, warnlog, jobs = argv

    start = time.perf_counter()
    import mlbq.cli
    from mlbq.harness import load_config, validate_budget_accounting
    from mlbq.models import make_model

    cfg = load_config(config)
    model = make_model(cfg.model_name, **cfg.model_params)
    validate_budget_accounting(cfg, model)
    result = {"setup_s": time.perf_counter() - start}

    logging.getLogger("mlbq.harness").addHandler(logging.FileHandler(warnlog))
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    command = "estimate" if mode == "estimate" else "experiment"
    argv_cli = [command, "--config", config, "--out", out, "--jobs", jobs]
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        status = mlbq.cli.main(argv_cli)
        result["run_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if status != 0:
        print(json.dumps(result | {"status": status}))
        return 1
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.report()
    if jobs == "1":
        # Serial runs computed the reference in this process, so it is cached.
        info = getattr(model, "reference_info", None)
        result["reference"], result["reference_err"] = info() if info else (model.reference_integral(), 0.0)
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
