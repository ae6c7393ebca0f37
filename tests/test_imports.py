"""Every import and every top-level helper in the package is used.

Parses each module of src/dmshape, and each test module, with ast and fails
on a name that an import statement binds but the module never references.
The re-exports of dmshape/__init__.py and ``from __future__`` directives are
exempt.
Likewise every module-level function or class must be referenced somewhere
in the package outside its own definition, or re-exported by __init__.py,
unless DEAD_ALLOWED gives the reason it stays.  And the block size of every
column walk is one constant, kernels.CHUNK, which every module reads through
kernels when it walks, so that patching it reaches every walk.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "dmshape"
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


@pytest.mark.parametrize("path", MODULES + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    reexports = path.parent == PACKAGE and path.name == "__init__.py"
    assert unused_imports(path.read_text(), reexports) == []


def test_gate_finds_a_dead_import():
    source = "import math\nimport os\nfrom .x import a, b\nprint(os, a)\n"
    assert unused_imports(source, False) == ["line 1: math", "line 3: b"]
    assert unused_imports(source, True) == ["line 1: math"]


DEAD_ALLOWED = {
    "kernels.energy_totals": "brute-force oracle of shells_upto in the tests",
    "kernels.backend_name": "perfbench prints it in every result",
    "kernels.ess_unrank": "perfbench's kernel bench times it",
    "kernels.ess_rank": "perfbench's kernel bench times it",
    "kernels.trellis_build": "perfbench's kernel bench times it",
}


def referenced_names(node: ast.AST) -> set[str]:
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """module.name of each top-level def or class that nothing references.

    sources maps module name to source; "__init__" re-exports by import.
    """
    defined, used = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            refs = referenced_names(stmt)
            if module == "__init__" and isinstance(stmt, ast.ImportFrom):
                refs |= {alias.asname or alias.name for alias in stmt.names}
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.append(f"{module}.{stmt.name}")
                refs.discard(stmt.name)  # recursion is not a use
            used |= refs
    return [name for name in defined if name.partition(".")[2] not in used]


def test_no_dead_helpers():
    dead = dead_helpers({path.stem: path.read_text() for path in MODULES})
    # an allowed name that came back into use is no longer an exception
    assert sorted(dead) == sorted(DEAD_ALLOWED)


def test_gate_finds_a_dead_helper():
    sources = {
        "__init__": "from .a import shown\n",
        "a": "def shown(): pass\n"
             "def loop(): return loop()\n"
             "def _inner(): pass\n"
             "class Used: pass\n",
        "b": "from .a import Used\nx = Used()\ny = a._inner\n",
    }
    assert dead_helpers(sources) == ["a.loop"]


def chunk_constants(sources: dict[str, str]) -> list[str]:
    """module.name of every module-level assignment to a name containing
    CHUNK."""
    found = []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                targets = [stmt.target]
            else:
                continue
            found += [f"{module}.{node.id}" for target in targets
                      for node in ast.walk(target)
                      if isinstance(node, ast.Name) and "CHUNK" in node.id]
    return found


def chunk_from_imports(sources: dict[str, str]) -> list[str]:
    """Every ``from ... import CHUNK``: the name it binds keeps the value
    kernels.CHUNK had at import, so a patched block size would miss it."""
    return [f"{module} line {node.lineno}"
            for module, source in sources.items()
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and any(alias.name == "CHUNK" for alias in node.names)]


def test_one_chunk_constant_read_through_its_module():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert chunk_constants(sources) == ["kernels.CHUNK"]
    assert chunk_from_imports(sources) == []


def test_gate_finds_a_second_chunk_constant_and_a_chunk_import():
    sources = {
        "kernels": "CHUNK = 4096\ndef chunks(size): return CHUNK\n",
        "ccdm": "from . import kernels\nfrom .kernels import CHUNK\n"
                "ROW_CHUNK: int = 7\n",
        "nli": "from .kernels import chunks, CHUNK as ROWS\n"
               "A_CHUNK, b = 1, 2\nrows = kernels.CHUNK\n",
    }
    assert chunk_constants(sources) == [
        "kernels.CHUNK", "ccdm.ROW_CHUNK", "nli.A_CHUNK"]
    assert chunk_from_imports(sources) == ["ccdm line 2", "nli line 1"]
