"""Source hygiene: every name a module of the package imports is used.

This stands in for a linter's unused-import rule; it parses each module with
the standard library's ast and needs nothing installed.
"""

import ast
from pathlib import Path

import rrcf5

PACKAGE_DIR = Path(rrcf5.__file__).parent


def unused_imports(source):
    """Names bound by import statements in source that are never referenced.

    References are counted module-wide, as Name nodes anywhere in the
    module.  ``from __future__`` imports are ignored.
    """
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scanner_sees_unused_and_used_imports():
    src = ("from __future__ import annotations\n"
           "import os, os.path as osp\n"
           "from math import gcd, lcm\n"
           "def f():\n"
           "    from json import dumps\n"
           "    return gcd(1, 2), osp\n")
    assert unused_imports(src) == [(2, "os"), (3, "lcm"), (5, "dumps")]


def test_package_has_no_unused_imports():
    found = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        names = unused_imports(path.read_text())
        if names:
            found[path.name] = names
    assert found == {}
