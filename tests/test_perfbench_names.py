"""The names the benchmark harness reaches into must keep resolving: the
tracer wraps functions by attribute path and the workloads import from
several modules, so a rename in the package has to fail here too."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    from artifact import series
    mul = series.TruncatedSeries.__dict__["__mul__"]
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        assert series.TruncatedSeries.__dict__["__mul__"] is not mul
    finally:
        tracer.uninstall()
    assert series.TruncatedSeries.__dict__["__mul__"] is mul


def test_workload_imports_resolve():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)
               and node.module and node.module.startswith("artifact")]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert (hasattr(module, alias.name)
                    or importlib.util.find_spec(
                        f"{node.module}.{alias.name}")), alias.name
