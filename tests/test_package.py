"""The package's export list, and the engine names the benchmark reaches."""
import ast
import inspect
import types
from pathlib import Path

import dunkldirac

# library entry points that no engine module calls: the rescaling search
# and the subspace intersection, both reached from outside the package
ENTRY_POINTS = {"nonzero_cohomology_search", "intersection_dim"}


def test_all_names_the_public_api_once():
    names = dunkldirac.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(dunkldirac, name), name
    public = {k for k, v in vars(dunkldirac).items()
              if not k.startswith("_") and not isinstance(v, types.ModuleType)}
    assert set(names) == public


def test_every_exported_function_is_used_by_the_engine():
    """An exported function that only tests call is surface without a
    workload: each one must be named by some engine module besides the
    package's __init__, unless it is a library entry point."""
    used = set()
    for path in Path(dunkldirac.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = sorted(name for name in dunkldirac.__all__
                    if inspect.isfunction(getattr(dunkldirac, name))
                    and name not in used | ENTRY_POINTS)
    assert not unused


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_hooks_resolve():
    """The benchmark in perfbench/ reaches into the engine by name: its
    tracer wraps the functions of `FUNCTIONS` wherever they were imported
    and the methods of `METHODS` on their classes, and its workloads and
    child process call engine attributes.  Each must still resolve, and
    each wrapped method must stay a plain function: a method turned into,
    say, a cached_property would break only the traced benchmark run.
    The files are read, not run."""
    import dataclasses
    import importlib
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for modname, attr in tracer.FUNCTIONS:
        fn = getattr(importlib.import_module(modname), attr, None)
        assert inspect.isfunction(fn), (modname, attr)
    for modname, clsname, attr, _ in tracer.METHODS:
        cls = getattr(importlib.import_module(modname), clsname)
        assert inspect.isfunction(inspect.getattr_static(cls, attr, None)), \
            (clsname, attr)
    from dunkldirac import cli, clifford, diracops
    assert inspect.isfunction(
        inspect.getattr_static(clifford.CliffordElement, "__mul__"))
    assert inspect.isfunction(cli._build)
    assert set(cli._SUITE_FNS) == set(cli.SUITES)
    # every cli.<attr> and diracops.<attr> that the workloads and the
    # child process name, and the search's call form and result fields
    modules = {"cli": cli, "diracops": diracops}
    for name in ("workloads.py", "child.py"):
        tree = ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id in modules:
                assert hasattr(modules[node.value.id], node.attr), \
                    (name, node.value.id, node.attr)
    inspect.signature(diracops.nonzero_cohomology_search).bind(
        "dctx", 1, "seed", "name")
    fields = {f.name for f in dataclasses.fields(diracops.CohomologyResult)}
    assert {"exact", "dim_h"} <= fields


# the only functions that may switch numerators from int64 to `object`
# arrays: linalg's canonical form, the product bound (`_fits` and the
# product, which acts on its ruling) and the linear-combination bound
# (`_common`, and `_planes` and `vanishing_sums`, which act on its ruling)
OBJECT_SWITCHES = {("linalg", name) for name in (
    "Matrix._make", "Matrix.from_row_dicts", "Matrix.to_complex",
    "Matrix._fits", "Matrix.__matmul__", "_common", "_planes",
    "vanishing_sums")}


def _object_switches(tree) -> list:
    """(qualified function name, line) of each int64 -> `object` switch in
    a module: the name `object` other than as `object.<attr>`, the
    attribute `.object_`, or "O" or "object" as a dtype keyword or an
    astype argument."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            dtype_arg = (isinstance(node, ast.keyword) and node.arg == "dtype"
                         or isinstance(node, ast.Call)
                         and isinstance(node.func, ast.Attribute)
                         and node.func.attr == "astype")
            if (isinstance(child, ast.Name) and child.id == "object"
                    and not isinstance(node, ast.Attribute)
                    or isinstance(child, ast.Attribute)
                    and child.attr == "object_"
                    or dtype_arg and isinstance(child, ast.Constant)
                    and child.value in ("O", "object")):
                found.append((".".join(scope), child.lineno))
            visit(child, scope)
    visit(tree, ())
    return found


def test_only_the_proved_bounds_switch_to_object_arrays():
    """Every int64 -> `object` switch of the engine sits in a function of
    OBJECT_SWITCHES: a sum, scalar multiple or product that chose its own
    dtype would carry an overflow proof of its own."""
    seen = set()
    for path in sorted(Path(dunkldirac.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, line in _object_switches(tree):
            assert (path.stem, name) in OBJECT_SWITCHES, \
                f"{path.name}:{line} switches to object arrays in {name}"
            seen.add((path.stem, name))
    # the scan finds the switches it allows
    assert {("linalg", "_planes"), ("linalg", "Matrix.__matmul__")} <= seen
