"""Every imported name is read somewhere in its module, and the library
imports only what it declares.

No linter ships with the test environment, so these AST scans stand in for
one. An import that nothing reads fails here. A package's ``__init__.py``
imports to re-export, so it is left out, and so are ``__future__`` imports.
Every import under ``src/`` names the standard library, ``mars_jcas`` or a
package in ``pyproject.toml``'s ``dependencies``; scipy is a test-only
dependency, so a fresh ``import mars_jcas.cli`` loads no part of it.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from importlib.metadata import packages_distributions
from pathlib import Path

import pytest
import scipy.constants

from mars_jcas.scene import SPEED_OF_LIGHT

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
               if p.name != "__init__.py")
SRC_FILES = sorted((ROOT / "src").rglob("*.py"))


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


def _normal(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


def top_level_imports(source: str) -> set:
    """First dotted component of every absolute import in ``source``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - {"__future__"}


def declared_dependencies() -> set:
    """Normalized distribution names in pyproject.toml's ``dependencies``
    (read by pattern: ``tomllib`` needs Python 3.11)."""
    block = re.search(r"^dependencies = \[(.*?)\]", (ROOT / "pyproject.toml").read_text(),
                      re.S | re.M).group(1)
    return {_normal(req) for req in re.findall(r'"([A-Za-z0-9._-]+)', block)}


def test_top_level_scan_skips_relative_and_future_imports():
    source = ("from __future__ import annotations\nimport os.path, numpy as np\n"
              "from . import scene\nfrom .io import x\nfrom scipy.linalg import solve\n"
              "def f():\n    import yaml\n")
    assert top_level_imports(source) == {"os", "numpy", "scipy", "yaml"}


@pytest.mark.parametrize("path", SRC_FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_library_imports_only_declared_packages(path):
    declared = declared_dependencies()
    providers = packages_distributions()
    undeclared = sorted(
        name for name in top_level_imports(path.read_text())
        if name not in sys.stdlib_module_names and name != "mars_jcas"
        and not declared & {_normal(dist) for dist in providers.get(name, [])})
    assert undeclared == []


def test_scipy_is_test_only():
    assert "scipy" not in declared_dependencies()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = ("import sys, mars_jcas.cli; "
             "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_speed_of_light_equals_scipy_constant():
    assert SPEED_OF_LIGHT == scipy.constants.c
