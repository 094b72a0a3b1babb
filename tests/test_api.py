"""The public surface of ``exdep``: exports resolve, no import is stale,
and every boundary the traced benchmark wraps exists.

Standard library only (``ast``, ``importlib``), since no lint tool is a
dependency of the package.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "exdep"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
EXPORTING = [name for name in MODULES if "__all__" in (PACKAGE / f"{name}.py").read_text()]


def _tree(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text())


@pytest.mark.parametrize("name", EXPORTING)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"exdep.{name}")
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert not missing, f"exdep.{name}.__all__ names undefined {missing}"


def test_package_reexports_only_public_names():
    package = importlib.import_module("exdep")
    for node in _tree("__init__").body:
        if not isinstance(node, ast.ImportFrom):
            continue
        source = importlib.import_module(f"exdep.{node.module}")
        for alias in node.names:
            name = alias.asname or alias.name
            assert hasattr(package, name), f"exdep.{name} is not bound"
            assert alias.name in source.__all__, (
                f"exdep re-exports {alias.name}, which exdep.{node.module}.__all__ lacks")


def _imported_names(tree):
    """(bound name, line) of every module-level import statement."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("name", MODULES)
def test_no_module_level_import_is_unused(name):
    tree = _tree(name)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    module = importlib.import_module(f"exdep.{name}")
    used.update(getattr(module, "__all__", []))  # an export is a use
    unused = [(bound, line) for bound, line in _imported_names(tree) if bound not in used]
    assert not unused, f"src/exdep/{name}.py imports but never uses {unused}"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_layer_resolves():
    spans = _spans()
    for span, module_name, path, *_ in spans.LAYERS:
        target = importlib.import_module(module_name)
        for attr in path.split("."):
            assert hasattr(target, attr), f"{span}: {module_name}.{path} does not resolve"
            target = getattr(target, attr)
        assert callable(target), f"{span}: {module_name}.{path} is not callable"
    for span, caller, module_name, attr in spans.FOREIGN:
        importlib.import_module(caller)
        assert callable(getattr(importlib.import_module(module_name), attr, None)), span
