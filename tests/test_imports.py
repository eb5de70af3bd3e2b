"""Every module-level import in the package is used, every private
top-level name is read, and every library name the benchmark's tracer
patches exists.

No linter ships with the project, so this walks the sources with ast: a
name bound by a top-level import must be read somewhere in its module or
listed in its __all__.  The package __init__ re-exports by importing, so
it is exempt.  A private top-level function, class or variable must be
read somewhere in the package, so a helper that a merge leaves without
callers fails here.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bclab"
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
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


def unread_private_names(sources: dict) -> list:
    """(module, name) of each private top-level function, class or
    variable that no module in ``sources`` (module name -> text) reads.

    A name is read where it is loaded, taken as an attribute or imported.
    """
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(module, n) for n in names
                        if n.startswith("_") and not n.startswith("__")]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                read.update(a.name for a in n.names)
    return sorted((m, n) for m, n in defined if n not in read)


def test_guard_sees_unread_private_names():
    sources = {
        "a": ("_used = 1\n_orphan, _pair = 2, 3\n__all__ = []\n"
              "def _helper():\n    return _used + _pair\n"
              "class _Gone:\n    pass\n"),
        "b": "from .a import _helper\nprint(_helper())\n",
    }
    assert unread_private_names(sources) == [("a", "_Gone"), ("a", "_orphan")]


def test_every_private_name_is_read():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unread_private_names(sources) == []


def traced_names(source: str) -> tuple:
    """([(bclab module, attribute)], [method]) that perfbench/tracing.py's
    TRACED_FUNCTIONS and TRACED_METHODS name, read without importing it."""
    tree = ast.parse(source)
    modules = {a.asname or a.name: a.name for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.module == "bclab"
               for a in node.names}
    values = {t.id: node.value for node in tree.body
              if isinstance(node, ast.Assign) for t in node.targets
              if isinstance(t, ast.Name)}
    functions = [(modules[e.elts[0].id], e.elts[1].value)
                 for e in values["TRACED_FUNCTIONS"].elts]
    return functions, ast.literal_eval(values["TRACED_METHODS"])


def test_benchmark_tracing_hooks_resolve():
    # a rename here would make the benchmark's --trace 1 fail at install
    functions, methods = traced_names(TRACING.read_text())
    assert len(functions) >= 10
    for module, attr in functions:
        assert callable(getattr(importlib.import_module(f"bclab.{module}"),
                                attr, None)), (module, attr)
    intervals = importlib.import_module("bclab.intervals")
    for attr in methods:
        assert callable(getattr(intervals.IntervalFamily, attr, None)), attr
