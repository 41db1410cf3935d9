"""Every name a module of the package imports is used there, and every
private name it defines is referenced.

No linter runs on this tree, so a refactor that stops using an import, a
helper or a table would leave it behind unnoticed. `__init__.py` imports to
re-export, and `__future__` imports switch on language features; both are
exempt.
"""

import ast
import functools
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "aqsim"
# the trees whose code may reference the package's private names
TREES = ("src", "tests", "benchmarks")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_every_import_used(module):
    assert not _unused_imports((PACKAGE / module).read_text())


def test_unused_import_found():
    # the check itself sees a leftover, and sees through a use in an annotation
    source = "from __future__ import annotations\nimport numpy as np\nfrom dataclasses import dataclass, field\n"
    assert _unused_imports(source + "x: np.ndarray\n@dataclass\nclass A: pass\n") == ["line 3: field"]


def _private_definitions(source: str) -> dict[str, int]:
    """The private names (`_x`, not dunders) a module defines at top level,
    each with the line of its first definition."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    return defined


def _references(source: str) -> set[str]:
    """The names a source refers to: names it reads, attributes, imported
    names, and the parts of dotted-name strings, such as setattr's "_x"."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and re.fullmatch(r"[\w.]+", node.value):
            refs.update(node.value.split("."))
    return refs


@functools.cache
def _tree_references() -> frozenset[str]:
    return frozenset().union(*(_references(p.read_text()) for tree in TREES for p in (ROOT / tree).rglob("*.py")))


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_private_name_referenced(module):
    defined = _private_definitions((PACKAGE / module).read_text())
    assert [f"line {line}: {name}" for name, line in defined.items() if name not in _tree_references()] == []


def test_unreferenced_private_name_found():
    # a definition is no reference; a read, an attribute or a setattr string is
    source = "_A = 1\n__all__ = []\n_B: int = 2\ndef _f(): pass\nclass _C: pass\n"
    assert _private_definitions(source) == {"_A": 1, "_B": 3, "_f": 4, "_C": 5}
    refs = _references(source + "print(_A)\nm._f = None\nsetattr(m, '_C', 1)\n")
    assert {name for name in _private_definitions(source) if name not in refs} == {"_B"}
