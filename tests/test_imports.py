"""Static checks on the package's import structure."""

import ast
import graphlib
import importlib.util
from pathlib import Path

import pytest

import unifan

PACKAGE = Path(unifan.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_import_inside_a_function(name):
    for node in ast.walk(MODULES[name]):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested = [n for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))]
            assert not nested, f"{name}.{node.name} imports at line {nested[0].lineno}"


def test_intra_package_imports_are_acyclic():
    graph = {name: set() for name in MODULES}
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is not None:
                    graph[name].add(node.module)
                else:  # `from . import x`: a submodule or a name of __init__
                    graph[name].update(
                        a.name if a.name in MODULES else "__init__" for a in node.names
                    )
    try:
        list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_assert_statements(name):
    """Invariants raise InvariantViolation, so they also hold under `python -O`."""
    asserts = [n.lineno for n in ast.walk(MODULES[name]) if isinstance(n, ast.Assert)]
    assert not asserts, f"{name} asserts at lines {asserts}"


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_raise_assertion_error(name):
    """Invariant failures raise InvariantViolation, which `analyze` reports as
    an error object, not a bare AssertionError traceback."""
    raises = [
        n.lineno
        for n in ast.walk(MODULES[name])
        if isinstance(n, ast.Raise) and _raises_assertion_error(n)
    ]
    assert not raises, f"{name} raises AssertionError at lines {raises}"


def test_package_exports_only_the_documented_api():
    public = {name for name in vars(unifan) if not name.startswith("_")}
    # Importing the entry points also binds the submodules they load.
    public -= {name for name in public if name in MODULES}
    assert public == {"validate_fan", "analyze_fan"}
    assert unifan.__version__


def _imported_names(tree) -> set[str]:
    """Every module and `module.name` that a module imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
            names.update(f"{node.module}.{a.name}" for a in node.names)
    return names


def test_linalg_is_fraction_free_and_scans_no_box():
    """Linear systems go through one integer projection chain: no Fraction
    elimination and no `product` scan of a bounding box."""
    tree = MODULES["linalg"]
    names = _imported_names(tree)
    assert not {n for n in names if n.split(".")[0] == "fractions"}
    # `itertools.product(...)` after `import itertools` counts as well.
    qualified = {
        f"{n.value.id}.{n.attr}"
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
    }
    assert "itertools.product" not in names | qualified


# Functions and methods kept in `src` without a caller there, with the reason.
UNREFERENCED_ALLOWED = {
    # perfbench traces `monoid.contains` by name, so moving it changes the benchmark
    ("monoid", "contains"),
    # the library's root records; perfbench traces it by name, and the CLI
    # reads the per-ray slices of `root_slices` instead
    ("demazure", "enumerate_roots"),
    # perfbench traces the `coxspace` simulator by name, and the tests use it as
    # the rational reference of the `--check` oracle
    ("coxspace", "apply_root"),
    ("coxspace", "apply_torus"),
    ("coxspace", "random_stratum_point"),
    ("coxspace", "CoxPoint.zero_pattern"),
    # perfbench traces `linalg.invert_unimodular` by name; the bilateral search
    # reads the kept `Fan.cone_inverse` instead
    ("linalg", "invert_unimodular"),
}


def _referenced_names(tree) -> set[str]:
    """Every name, attribute and imported name in a module, except those
    inside the body of a function or method of the same name."""
    referenced = set()

    def visit(node, own):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            own = own | {node.name}
        if isinstance(node, ast.Name) and node.id not in own:
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in own:
            referenced.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            referenced.update(a.name for a in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    visit(tree, frozenset())
    return referenced


def _defined_functions(tree):
    """(name, qualified name) of each top-level function and of each public
    method or property of a top-level class; dunders count as private."""
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            yield top.name, top.name
        elif isinstance(top, ast.ClassDef):
            for item in top.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, f"{top.name}.{item.name}"


def test_every_function_and_method_is_referenced_from_src():
    """A function, method or property that only tests call belongs in the
    tests. A reference is a name, an attribute or an imported name outside
    the definition's own body."""
    referenced = set().union(*map(_referenced_names, MODULES.values()))
    unreferenced = {
        (module, qualified)
        for module, tree in MODULES.items()
        for name, qualified in _defined_functions(tree)
        if name not in referenced
    }
    assert unreferenced == UNREFERENCED_ALLOWED


# Module-level functions that may carry `functools.cache` or `lru_cache`,
# with the reason.
CACHED_ALLOWED = {
    # the argument parser, built once per process; `parse_args` makes a fresh
    # namespace, so no call sees another's state
    ("cli", "make_parser"),
}


def _is_cache(node) -> bool:
    """`cache`, `lru_cache` or `lru_cache(...)`, bare or as `functools.x`."""
    target = node.func if isinstance(node, ast.Call) else node
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name in {"cache", "lru_cache"}


def test_no_module_level_cache():
    """A fact found about a fan is kept on that `Fan` (`Fan.kept`) and dies
    with it; a module-level cache would outlive it and hand one fan's result
    to every equal fan for the life of the process."""
    cached = set()
    for module, tree in MODULES.items():
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(map(_is_cache, top.decorator_list)):
                    cached.add((module, top.name))
            elif isinstance(top, (ast.Assign, ast.AnnAssign)) and top.value is not None:
                if any(isinstance(n, ast.Call) and _is_cache(n.func) for n in ast.walk(top.value)):
                    cached.add((module, ast.unparse(top)))
    assert cached == CACHED_ALLOWED


# Fields kept without a read in `src`, with the reason.
UNREAD_ALLOWED = {
    # the flag of the library's root records (`FanAnalysis.roots`); the CLI
    # reads the per-ray slices and the semisimple set instead
    "demazure.DemazureRoot.in_u",
}


def test_every_dataclass_field_is_read_from_src():
    """An annotated field of a top-level class that no module reads as an
    attribute is data built for nobody. Name-based, like the function guard:
    any `.name` read in `src` counts."""
    read = {
        node.attr
        for tree in MODULES.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = {
        f"{module}.{top.name}.{item.target.id}"
        for module, tree in MODULES.items()
        for top in tree.body
        if isinstance(top, ast.ClassDef)
        for item in top.body
        if isinstance(item, ast.AnnAssign)
        and isinstance(item.target, ast.Name)
        and item.target.id not in read
    }
    assert unread == UNREAD_ALLOWED, f"fields never read in src: {sorted(unread)}"


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_matrix_class(name):
    """A matrix is the tuple of its row tuples; no module wraps it in a class."""
    classes = [
        node.name
        for node in ast.walk(MODULES[name])
        if isinstance(node, ast.ClassDef)
        and (
            node.name.endswith(("Mat", "Matrix"))
            or any(
                isinstance(item, ast.FunctionDef) and item.name == "__matmul__"
                for item in node.body
            )
        )
    ]
    assert not classes, f"{name} defines matrix classes {classes}"


def test_benchmark_traced_functions_exist():
    """perfbench wraps these functions by name; deleting or renaming one
    breaks `perfbench/run.py --trace`."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"unifan.{module}.{function}"
        for module, functions in tracing.LAYERS.items()
        for function in functions
        if not callable(getattr(importlib.import_module(f"unifan.{module}"), function, None))
    ]
    assert tracing.LAYERS
    assert not missing, f"traced functions missing: {missing}"


def test_validation_builds_no_face():
    """`validate_fan` and `is_complete` read the maximal cones only; the face
    index `Fan.all_cones` is built on first read, and never by them."""
    checked = set()
    for node in MODULES["fan"].body:
        if isinstance(node, ast.FunctionDef) and node.name in {"validate_fan", "is_complete"}:
            assert "all_cones" not in ast.unparse(node), f"{node.name} reads all_cones"
            checked.add(node.name)
    assert checked == {"validate_fan", "is_complete"}


# Dataclasses in `src` with one field, with the reason each is kept a record.
SINGLE_FIELD_ALLOWED = {
    # perfbench reads `.ray_indices` of the witness cone for its verdict digest
    ("fan", "Cone"),
    # perfbench reads `.generators` of the monoid passed to `monoid.is_free`
    ("monoid", "ClassMonoid"),
}


def _is_dataclass(top) -> bool:
    for deco in top.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def test_no_single_field_record():
    """A record with one field and no check of its own is its value: pass
    the value instead."""
    single = {
        (module, top.name)
        for module, tree in MODULES.items()
        for top in tree.body
        if isinstance(top, ast.ClassDef)
        and _is_dataclass(top)
        and sum(isinstance(item, ast.AnnAssign) for item in top.body) == 1
    }
    assert single == SINGLE_FIELD_ALLOWED


def test_orbits_does_not_import_demazure():
    """The orbit layer reads the precedence order as plain pairs, so it
    depends on `classgroup`, `fan`, `linalg` and `monoid` only."""
    imported = {
        node.module
        for node in ast.walk(MODULES["orbits"])
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }
    assert imported == {"classgroup", "fan", "linalg", "monoid"}


def test_demazure_reads_no_cone_inverse():
    """The empty-slice certificate reads the signs of `Fan.positive_rays`;
    only `fan` derives a sign from a kept inverse."""
    calls = [
        n.lineno
        for n in ast.walk(MODULES["demazure"])
        if isinstance(n, ast.Attribute) and n.attr == "cone_inverse"
    ]
    assert not calls, f"demazure reads cone_inverse at lines {calls}"
