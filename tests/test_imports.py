"""Every name a module of the package imports is used there.

No linter runs on this tree, so a refactor that stops using an import would
leave it behind unnoticed. `__init__.py` imports to re-export, and
`__future__` imports switch on language features; both are exempt.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "aqsim"


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
