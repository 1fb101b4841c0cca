"""No explicit matrix inverse in the library.

Numerical paths use solves and decompositions (``numpy.linalg.solve``,
``eigh``), not ``inv`` or ``pinv`` from ``numpy.linalg`` or
``scipy.linalg``. This AST scan of ``src/`` resolves each call's name
through the module's imports, so ``np.linalg.pinv``, ``la.inv`` and a bare
imported ``pinv`` are all caught. Tests may still call them: their oracles
keep the old forms.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src").rglob("*.py"))
BANNED = {f"{module}.{name}" for module in ("numpy.linalg", "scipy.linalg")
          for name in ("inv", "pinv", "pinvh")}


def _dotted(node) -> str | None:
    """'a.b.c' for a Name or an Attribute chain on a Name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def inverse_calls(source: str) -> list:
    """(line, resolved name) of each call to a banned inverse."""
    tree = ast.parse(source)
    alias = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname:
                    alias[a.asname] = a.name
                else:
                    head = a.name.split(".")[0]
                    alias[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module:
            for a in node.names:
                alias[a.asname or a.name] = f"{node.module}.{a.name}"
    found = []
    for node in ast.walk(tree):
        name = _dotted(node.func) if isinstance(node, ast.Call) else None
        if name is None:
            continue
        head, _, rest = name.partition(".")
        resolved = alias.get(head, head) + ("." + rest if rest else "")
        if resolved in BANNED:
            found.append((node.lineno, resolved))
    return sorted(found)


def test_scan_resolves_aliases():
    source = ("import numpy as np\nimport scipy.linalg as la\nimport numpy\n"
              "from numpy.linalg import pinv as p\nfrom scipy import linalg\n"
              "np.linalg.pinv(x)\nla.inv(x)\np(x)\nlinalg.pinvh(x)\n"
              "numpy.linalg.inv(x)\nnp.linalg.solve(x, y)\nla.cho_solve(c, y)\n"
              "np.invert(x)\nobj.inv(x)\n")
    assert inverse_calls(source) == [(6, "numpy.linalg.pinv"), (7, "scipy.linalg.inv"),
                                     (8, "numpy.linalg.pinv"), (9, "scipy.linalg.pinvh"),
                                     (10, "numpy.linalg.inv")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_explicit_inverse(path):
    assert inverse_calls(path.read_text()) == []
