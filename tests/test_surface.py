"""The names other code reaches into the package by: the benchmark's tracer and runner, and each ``__all__``."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import mlbq
from mlbq import cli, gp, harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    return tracer_module.Tracer()


def test_tracer_installs_and_uninstalls():
    fit_gp, level_kernel = gp.fit_gp, harness.KernelPolicy.level_kernel
    tracer = _tracer()
    # install looks these up by name and raises AttributeError or KeyError if one is gone
    tracer.install()
    try:
        assert gp.fit_gp.__wrapped__ is fit_gp
        assert harness.KernelPolicy.level_kernel.__wrapped__ is level_kernel
    finally:
        tracer.uninstall()
    assert gp.fit_gp is fit_gp
    assert harness.KernelPolicy.level_kernel is level_kernel


@pytest.mark.parametrize(
    "config", [PERFBENCH.parent / "configs" / "poisson_budgets.json", PERFBENCH / "ode_matern_lhs.json"],
    ids=["poisson_budgets", "ode_matern_lhs"],
)
def test_tracer_counts_a_real_sweep(capsys, config):
    # the benchmark's estimate mode: one replication of a config through the command line, traced; the tracer
    # reads _run_estimator's positional arguments and each level's points and values.  The benchmark's own
    # config takes the mlbq-formula allocation, the per-dimension fit and single-level bq
    tracer = _tracer()
    tracer.install()
    originals = {}
    for owner, name, original in tracer._restore:
        originals.setdefault((owner, name), original)
    try:
        assert cli.main(["estimate", "--config", str(config)]) == 0
    finally:
        tracer.uninstall()
    assert "mlbq" in capsys.readouterr().out
    report = tracer.report()
    assert report["counts"]["harness.cells"] > 0
    if config.parent == PERFBENCH:
        assert "allocation.plan" in report["self_s"]
    assert [(owner, name) for (owner, name), original in originals.items() if vars(owner)[name] is not original] == []


def test_benchmark_runner_imports_resolve():
    tree = ast.parse((PERFBENCH / "child.py").read_text())
    imports = [(node.module, alias.name) for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names if (node.module or "").split(".")[0] == "mlbq"]
    imports += [(alias.name, None) for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names if alias.name.split(".")[0] == "mlbq"]
    assert imports
    modules = {module: importlib.import_module(module) for module, _ in imports}  # a missing module raises here
    missing = [(module, name) for module, name in imports if name is not None and not hasattr(modules[module], name)]
    assert missing == []


def test_benchmark_runner_reads_the_records_columns():
    # perfbench/run.py checks the records CSV against its own header list in parse_records
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    parse = next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "parse_records")
    header = next(node.value for node in ast.walk(parse) if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["header"])
    assert harness.CSV_COLUMNS == tuple(ast.literal_eval(header))


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(mlbq.__path__)))
def test_all_names_resolve(name):
    module = importlib.import_module(f"mlbq.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_cli_has_no_allocation_path_of_its_own():
    # `mlbq allocate` reads its flags with the config's reader and plans through AllocationSpec.plan, as the sweep
    # does; importing the allocation module's formulas here would bring back a second set of rules and messages
    tree = ast.parse(Path(cli.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[-1] == "allocation" for alias in node.names}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                 for alias in node.names if alias.name.split(".")[-1] == "allocation"}
    assert imported <= {"AllocationError"}
    named = {getattr(node, attr) for node in ast.walk(tree) for attr in ("id", "attr", "name")
             if isinstance(getattr(node, attr, None), str)}
    assert not named & {"mlmc_allocation", "mlbq_allocation", "integerize_allocation"}



def test_gp_owns_every_solve_against_a_factor():
    # gp is the one module that factors and solves: a second importer of scipy.linalg would bring back a second
    # solve rule, and scipy's checked wrappers would hide a finiteness check that gp.cholesky makes explicitly
    importers, named = set(), set()
    for path in sorted(Path(mlbq.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                modules = []
            if any(m == "scipy.linalg" or m.startswith("scipy.linalg.") for m in modules):
                importers.add(path.stem)
            named |= {getattr(node, attr) for attr in ("id", "attr", "name") if isinstance(getattr(node, attr, None), str)}
    assert importers == {"gp"}
    assert not named & {"cho_solve", "cho_factor", "solve_triangular"}


def test_quadrature_owns_the_level_posterior():
    # bq_posterior makes each level's result from the fit it reads; a second definition or a constructor call
    # elsewhere (the sweep used to rebuild one per level from its fits) would bring back a second per-level type
    homes = set()
    for path in sorted(Path(mlbq.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name == "LevelPosterior":
                homes.add((path.stem, "defines"))
            elif isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "LevelPosterior":
                homes.add((path.stem, "constructs"))
    assert homes == {("quadrature", "defines"), ("quadrature", "constructs")}
