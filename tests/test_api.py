"""The public surface of ``exdep``: exports resolve, no import is stale,
every error class is raised somewhere, every definition is referenced,
every boundary the traced benchmark wraps exists, with the parameters
its counters read, and the gauge oracle stays independent of the closed
form it checks.

Standard library only (``ast``, ``importlib``, ``inspect``), since no
lint tool is a dependency of the package.
"""

import ast
import importlib
import importlib.util
import inspect
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
    assert package._EXPORTS, "exdep re-exports nothing"
    for name, module_name in package._EXPORTS.items():
        source = importlib.import_module(f"exdep.{module_name}")
        assert hasattr(package, name), f"exdep.{name} is not bound"
        assert name in source.__all__, (
            f"exdep re-exports {name}, which exdep.{module_name}.__all__ lacks")


def _imports(scope):
    """The import statements of ``scope``, outside the functions nested in it."""
    for node in ast.iter_child_nodes(scope):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _imports(node)


def _unused_imports(scope, used):
    """(bound name, line) of every name an import of ``scope`` binds outside ``used``."""
    for node in _imports(scope):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                yield bound, node.lineno


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("name", MODULES)
def test_no_module_level_import_is_unused(name):
    tree = _tree(name)
    module = importlib.import_module(f"exdep.{name}")
    used = _names(tree) | set(getattr(module, "__all__", []))  # an export is a use
    unused = list(_unused_imports(tree, used))
    assert not unused, f"src/exdep/{name}.py imports but never uses {unused}"


@pytest.mark.parametrize("name", MODULES)
def test_no_function_level_import_is_unused(name):
    functions = [node for node in ast.walk(_tree(name))
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    unused = [(func.name, *found) for func in functions
              for found in _unused_imports(func, _names(func))]
    assert not unused, f"src/exdep/{name}.py: a function imports but never uses {unused}"


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


def _counter_arguments():
    """(span, module, attribute path, name) of each ``arguments["name"]``
    that a counter of ``LAYERS`` in bench/spans.py reads."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    layers = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                  and any(getattr(target, "id", None) == "LAYERS" for target in node.targets))
    for entry in layers.elts:
        span, module_name, path = (ast.literal_eval(item) for item in entry.elts[:3])
        for node in ast.walk(entry.elts[4]):
            if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "arguments"):
                yield span, module_name, path, ast.literal_eval(node.slice)


def test_every_traced_counter_reads_a_parameter_of_its_callable():
    found = list(_counter_arguments())
    assert {name for *_, name in found} == {"rhs", "matrix", "sample", "n"}
    for span, module_name, path, name in found:
        target = importlib.import_module(module_name)
        for attr in path.split("."):
            target = getattr(target, attr)
        assert name in inspect.signature(target).parameters, (
            f"{span}: the counter reads {name!r}, which {module_name}.{path} does not take")


def _raised_names(tree):
    """Names of the classes a ``raise`` statement of ``tree`` raises."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, (ast.Name, ast.Attribute)):
                yield exc.id if isinstance(exc, ast.Name) else exc.attr


def test_every_error_class_is_raised():
    defined = [node.name for node in _tree("errors").body if isinstance(node, ast.ClassDef)]
    raised = {name for module in MODULES for name in _raised_names(_tree(module))}
    never = [name for name in defined if name not in raised]
    assert not never, f"src/exdep/errors.py defines {never}, which nothing in src/exdep raises"


CLOSED_FORM_NAMES = {"eta_pairs", "eta_closed_form", "classify", "argmax_sets"}


def _referenced(node):
    """The names and attribute names that ``node`` references."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _definitions(scope, prefix=""):
    """(qualified name, name) of every function, method and class in ``scope``."""
    for node in ast.iter_child_nodes(scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node.name
            yield from _definitions(node, f"{prefix}{node.name}.")
        else:
            yield from _definitions(node, prefix)


def test_every_definition_is_referenced():
    referenced = set()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]:
        referenced |= _referenced(ast.parse(path.read_text()))
    referenced |= {part for _, _, path, *_ in _spans().LAYERS for part in path.split(".")}
    unused = [f"{module}.{qualified}" for module in ["__init__", *MODULES]
              for qualified, name in _definitions(_tree(module))
              if name not in referenced and not (name.startswith("__") and name.endswith("__"))]
    assert not unused, f"src/exdep defines {unused}, which nothing in src/ or tests/ references"


def test_gauge_oracle_references_nothing_of_the_closed_form():
    functions = {node.name: node for node in _tree("lintrans").body
                 if isinstance(node, ast.FunctionDef)}
    reached, todo, used = set(), ["eta_gauge_oracle"], set()
    while todo:  # the oracle and the module functions it calls, transitively
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            used |= _referenced(functions[name])
            todo.extend(used & functions.keys())
    assert len(reached) > 1, "eta_gauge_oracle calls no helper; is the walk broken?"
    shared = sorted(used & CLOSED_FORM_NAMES)
    assert not shared, f"{sorted(reached)} reference {shared} of the closed form"


STREAM_BUILDERS = {"Generator", "SeedSequence", "default_rng", "RandomState",
                   "SFC64", "PCG64", "PCG64DXSM", "MT19937", "Philox"}


def _stream_builds(tree):
    """(line, callee) of each call in ``tree`` that builds a random stream or
    seed sequence, or draws from numpy's global one (``np.random.<name>(...)``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            global_draw = (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute)
                           and func.value.attr == "random")
            if name in STREAM_BUILDERS or global_draw:
                yield node.lineno, ast.unparse(func)


@pytest.mark.parametrize("name", [name for name in MODULES if name not in ("streams", "cli")])
def test_only_streams_and_cli_build_random_streams(name):
    # every draw of the library comes from a sub-stream that streams.map_chunks
    # hands out; cli.py places sites and draws the counterexample from its seed
    built = list(_stream_builds(_tree(name)))
    assert not built, f"src/exdep/{name}.py builds or draws from its own stream at {built}"
