"""Every module-level import in the package is used.

No linter ships with the project, so this walks the sources with ast: a
name bound by a top-level import must be read somewhere in its module or
listed in its __all__.  The package __init__ re-exports by importing, so
it is exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bclab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_guard_sees_unused_and_used_imports():
    src = ("from __future__ import annotations\n"
           "import os\nimport numpy as np\nfrom json import dumps, loads\n"
           "from math import pi\n__all__ = ['pi']\n"
           "def f():\n    return np.zeros(1), loads('1')\n")
    assert unused_imports(src) == [(2, "os"), (4, "dumps")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == [], path.name
