"""The benchmark's contract with the package.

perfbench/ drives the package from outside: it imports names from
scoopgp modules, wraps functions by name for its per-layer trace, and its
posterior oracle reads model attributes. A renamed or deleted name would
only fail a benchmark run; these tests fail first, so a change learns here
whether it needs a benchmark edit. perfbench/ is only read: run.py pins
the BLAS thread pools when imported, so it is parsed, not imported;
tracing.py is pure and is loaded from its path.
"""

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

from scoopgp.gp import DeepGpModel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = "scoopgp"


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _package_references(tree: ast.Module) -> list:
    """(module, name) for every name a file takes from a package module:
    `from scoopgp.x import name` and `scoopgp.x.name`, at any depth, plus
    (module, None) for every package module it imports."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == PACKAGE:
            refs += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            refs += [(alias.name, None) for alias in node.names if alias.name.split(".")[0] == PACKAGE]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
              and isinstance(node.value.value, ast.Name) and node.value.value.id == PACKAGE):
            refs.append((f"{PACKAGE}.{node.value.attr}", node.attr))
    return refs


def test_every_package_name_the_benchmark_imports_resolves():
    refs = [ref for name in ("run.py", "selfcheck.py") for ref in _package_references(_tree(name))]
    missing = [f"{module}.{name}" if name else module for module, name in refs
               if name is not None and not hasattr(importlib.import_module(module), name)]
    assert {module for module, _ in refs} >= {"scoopgp.cli", "scoopgp.tasks", "scoopgp.gp", "scoopgp.bench"}
    assert missing == []
    assert callable(importlib.import_module("scoopgp.cli").main)  # every stage is called through it


def test_benchmark_tracer_names_only_package_functions_that_exist():
    """perfbench/tracing.py wraps package functions by name; a renamed or
    deleted one would crash a traced benchmark run with AttributeError."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(module, fn) for module, fns in tracing.SPANNED.items() for fn in fns]
    names += [(module, fn) for module, fns in tracing.COUNTED.items() for fn in fns]
    missing = [f"{module}.{fn}" for module, fn in names
               if not callable(getattr(importlib.import_module(f"{tracing.PACKAGE}.{module}"), fn, None))]
    assert tracing.PACKAGE == PACKAGE and len(names) > 30 and missing == []


def test_every_model_attribute_the_oracle_reads_exists():
    """perfbench/oracle.py recomputes posteriors and gradients from a
    model's fields and properties."""
    read = {node.attr for node in ast.walk(_tree("oracle.py"))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "model"}
    fields = {f.name for f in dataclasses.fields(DeepGpModel)}
    missing = sorted(attr for attr in read if attr not in fields and not hasattr(DeepGpModel, attr))
    assert len(read) > 10 and missing == []
