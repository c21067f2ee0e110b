"""Per-layer spans around the public functions of each mlbq module.

The program is not edited: ``Tracer.install`` replaces each traced
function, wherever an ``mlbq`` module holds a reference to it, by a
wrapper that records a span.  A layer's self time is its span's duration
minus the time of the spans of other layers that it caused, so the self
times of all layers add up to the time spent inside the sweep.  A call
into the layer it is already in (``increments`` calling ``evaluate``)
opens no new span.  Counters are kept at the same boundaries.
"""

from __future__ import annotations

import hashlib
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.stack = []  # [layer, seconds spent in child spans]
        self.wrapped_calls = 0
        self.cell_keys = set()
        self.m52_gauss = []  # initial errors of kernels with a Matern-5/2 factor on N(0, 1)
        self._restore = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, layer, fn, count=None):
        tracer = self

        def traced(*args, **kwargs):
            tracer.wrapped_calls += 1
            stack = tracer.stack
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = [layer, 0.0]
                stack.append(frame)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    stack.pop()
                    tracer.self_s[layer] += elapsed - frame[1]
                    if stack:
                        stack[-1][1] += elapsed
            if count is not None:
                count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch_function(self, module, name, layer, count=None):
        original = getattr(module, name)
        traced = self._wrap(layer, original, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "mlbq" or mod_name.startswith("mlbq."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                        self._restore.append((mod, attr, original))

    def _patch_method(self, cls, name, layer, count=None):
        original = cls.__dict__[name]
        setattr(cls, name, self._wrap(layer, original, count))
        self._restore.append((cls, name, original))

    # -- counters ------------------------------------------------------------

    def _add(self, key, amount=1.0):
        self.counts[key] += amount

    def _count_points(self, args, kwargs, result):
        self._add("models.points_evaluated", np.shape(result)[0])

    def _count_cell(self, args, kwargs, result):
        _cfg, _model, est, levels = args
        digest = hashlib.sha256()
        for lv in levels:
            digest.update(lv.points.tobytes())
            digest.update(lv.values.tobytes())
        self._add("harness.cells")
        self.cell_keys.add((est.name, digest.hexdigest()))

    def _count_initial_error(self, args, kwargs, result):
        from mlbq.kernels import Matern, StandardNormal

        kernel, measure = args[0], args[1]
        self._add("kernels.initial_error_calls")
        pairs = list(zip(kernel.factors, measure.marginals))
        if any(isinstance(f, Matern) and f.nu == 2.5 and isinstance(m, StandardNormal) for f, m in pairs):
            self.m52_gauss.append(
                {
                    "factors": [[type(f).__name__, getattr(f, "nu", None), f.lengthscale] for f, _ in pairs],
                    "marginals": [type(m).__name__ for _, m in pairs],
                    "amplitude": kernel.amplitude,
                    "value": result,
                }
            )

    def _count_cholesky(self, fn):
        def counted(matrix, *args, **kwargs):
            n = np.shape(matrix)[0]
            self._add("gp.cholesky_calls")
            self._add("gp.cholesky_flops", n**3 / 3.0)
            return fn(matrix, *args, **kwargs)

        return counted

    # -- install -------------------------------------------------------------

    def install(self):
        from mlbq import allocation, cli, designs, gp, harness, kernels, models, quadrature

        self._patch_function(
            designs, "generate_design", "designs.generate_design",
            lambda a, k, r: self._add("designs.points", r.points.shape[0]),
        )

        for cls in (models.PoissonHierarchy, models.OdeHierarchy, models.StepHierarchy):
            self._patch_method(cls, "evaluate", "models.evaluate", self._count_points)
            self._patch_method(
                cls, "reference_integral", "models.reference_integral",
                lambda a, k, r: self._add("models.reference_integral_calls"),
            )
        self._patch_method(models.MultifidelityModel, "increments", "models.evaluate")
        self._patch_method(models.OdeHierarchy, "reference_info", "models.reference_integral")

        self._patch_function(kernels, "gram", "kernels.gram", lambda a, k, r: self._add("kernels.gram_entries", r.size))
        self._patch_function(kernels, "initial_error", "kernels.initial_error", self._count_initial_error)
        self._patch_function(kernels, "kernel_mean", "kernels.kernel_mean")

        # Choosing a level's kernel: under the fixed policy this is only
        # building the kernel, around the amplitude MLE.
        self._patch_method(harness.KernelPolicy, "level_kernel", "gp.fit_hyperparameters")
        self._patch_function(gp, "fit_hyperparameters", "gp.fit_hyperparameters")
        self._patch_function(
            gp, "profiled_log_marginal_likelihood", "gp.fit_hyperparameters",
            lambda a, k, r: self._add("gp.lml_evaluations"),
        )
        self._patch_function(gp, "mle_amplitude", "gp.mle_amplitude")
        self._patch_function(gp, "fit_gp", "gp.fit_gp")
        # Every factorisation in the package goes through gp's reference to
        # scipy's cholesky; count it there without a span of its own.
        self._restore.append((gp, "cholesky", gp.cholesky))
        gp.cholesky = self._count_cholesky(gp.cholesky)

        self._patch_function(quadrature, "mlbq_estimate", "quadrature.mlbq_estimate")
        self._patch_function(quadrature, "bq_posterior", "quadrature.bq_posterior")
        self._patch_function(quadrature, "mlmc_estimate", "quadrature.mlmc_estimate")

        # Sample sizes are resolved per cell in harness._counts_for, which
        # calls the allocation formulas under formula sources.
        self._patch_function(harness, "_counts_for", "allocation.plan")
        self._patch_function(allocation, "mlbq_allocation", "allocation.plan")
        self._patch_function(allocation, "mlmc_allocation", "allocation.plan")

        # The command line's own work (argument parsing, config loading) counts
        # as harness time, so the layers account for the whole traced sweep.
        self._patch_function(cli, "main", "harness")
        self._patch_function(harness, "run_experiment", "harness")
        self._patch_function(harness, "_run_estimator", "harness", self._count_cell)
        self._patch_function(harness, "write_records_csv", "harness.write_records")

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def report(self) -> dict:
        cells = self.counts.get("harness.cells", 0.0)
        return {
            "self_s": dict(self.self_s),
            "counts": dict(self.counts) | {"harness.distinct_cell_ratio": len(self.cell_keys) / cells if cells else 0.0},
            "wrapper_cost_s": self.wrapped_calls * span_cost(),
            "m52_gauss": self.m52_gauss,
        }


def _noop():
    return None


def span_cost(calls=20000) -> float:
    """Seconds a span adds to one call, measured on a no-op."""
    traced = Tracer()._wrap("probe", _noop)
    start = time.perf_counter()
    for _ in range(calls):
        _noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(time.perf_counter() - start - bare, 0.0) / calls
