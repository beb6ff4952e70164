"""The package's export list."""
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
