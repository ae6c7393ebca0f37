"""Every import in the package is used.

Parses each module of src/dmshape with ast and fails on a name that an
import statement binds but the module never references.  The re-exports
of dmshape/__init__.py and ``from __future__`` directives are exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dmshape"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str, reexports: bool) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__" or reexports:
                continue
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items()
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(), path.name == "__init__.py") == []


def test_gate_finds_a_dead_import():
    source = "import math\nimport os\nfrom .x import a, b\nprint(os, a)\n"
    assert unused_imports(source, False) == ["line 1: math", "line 3: b"]
    assert unused_imports(source, True) == ["line 1: math"]
