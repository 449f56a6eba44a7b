"""The runtime is stdlib-only: every absolute import in src/dxext names
dxext itself or a module of the standard library."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "dxext"


def _absolute_imports(path):
    """(top-level module, line) of every absolute import in one file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0], node.lineno


def test_runtime_imports_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"dxext"}
    files = sorted(SRC.glob("*.py"))
    found, outside = set(), []
    for path in files:
        for name, line in _absolute_imports(path):
            found.add(name)
            if name not in allowed:
                outside.append(f"{path.name}:{line} imports {name}")
    assert not outside
    # the walk reached the imports at all
    assert {"fractions", "itertools", "math"} <= found
