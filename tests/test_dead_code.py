"""A dead-code guard for the package sources, standing in for a linter.

It reads each module of hierkit with `ast` and fails on two kinds of
leftover: an imported name the module never uses (a name listed in
`__all__` counts as used), and a module-level `_private` name that the
module itself never reads.
"""

import ast
import pathlib

import pytest

import hierkit

SOURCES = sorted(pathlib.Path(hierkit.__file__).parent.glob("*.py"))


def _loaded_names(tree):
    """Every name the module reads, plus the strings listed in __all__."""
    used = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _module_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield node.lineno, n.id


def dead_names(source, name="<module>"):
    """'file:line name' for each unused import and each module-level
    private name its module never reads."""
    tree = ast.parse(source)
    used = _loaded_names(tree)
    found = [
        "%s:%d unused import %s" % (name, line, n)
        for line, n in _imported_names(tree)
        if n not in used
    ]
    found += [
        "%s:%d unread private %s" % (name, line, n)
        for line, n in _module_level_names(tree)
        if n.startswith("_") and not n.startswith("__") and n not in used
    ]
    return found


def test_the_sources_carry_no_dead_names():
    assert SOURCES
    found = []
    for path in SOURCES:
        found += dead_names(path.read_text(), path.name)
    assert found == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import re\n", ["<module>:1 unused import re"]),
        ("import os.path\nos.sep\n", []),
        ("from functools import reduce as fold\n", ["<module>:1 unused import fold"]),
        ("from x import y\n__all__ = ['y']\n", []),
        ("from __future__ import annotations\n", []),
        ("def f():\n    import json\n", ["<module>:2 unused import json"]),
        ("_TWO = 2\n", ["<module>:1 unread private _TWO"]),
        ("def _helper():\n    pass\n", ["<module>:1 unread private _helper"]),
        ("def _helper():\n    pass\n\nX = _helper()\n", []),
        ("_A, B = 1, 2\n", ["<module>:1 unread private _A"]),
        ("__slots__ = ()\nPUBLIC = 1\n", []),
    ],
)
def test_the_guard_flags_what_it_should(source, expected):
    assert dead_names(source) == expected
