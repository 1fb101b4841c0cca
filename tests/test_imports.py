"""Every imported name is read somewhere in its module.

No linter ships with the test environment, so this AST scan stands in for
one: an import that nothing reads fails here. A package's ``__init__.py``
imports to re-export, so it is left out, and so are ``__future__`` imports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
               if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each name an import binds that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_scan_finds_unused_and_keeps_read_names():
    source = ("from __future__ import annotations\nimport math\nimport os.path\n"
              "import numpy as np\nfrom json import dumps, loads as ld\n"
              "def f(x: np.ndarray):\n    return os.path.join(ld(x))\n")
    assert unused_imports(source) == [(2, "math"), (5, "dumps")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
