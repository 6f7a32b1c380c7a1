"""A dead-code guard for the package sources, standing in for a linter.

It reads each module of hierkit with `ast` and fails on two kinds of
leftover: an imported name the module never uses (a name listed in
`__all__` counts as used), and a module-level `_private` name that the
module itself never reads.  A second guard fails when a module reads
another hierkit module's `_private` name, as `mod._x` or through
`from hierkit.mod import _x`: what one module needs of another is
public.  A third fails when a method that the benchmark's span tracer
wraps, as listed in `bench/spans.py`, is no longer defined where the
tracer looks for it.
"""

import ast
import importlib
import pathlib

import pytest

import hierkit

SOURCES = sorted(pathlib.Path(hierkit.__file__).parent.glob("*.py"))
SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _root(node):
    """The name at the bottom of an attribute chain, or None."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def private_reads(source, name="<module>"):
    """'file:line module._name' for each read of a hierkit module's
    private name: imported by name, or read as an attribute of a name
    that an import bound to a hierkit module."""
    tree = ast.parse(source)
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "hierkit":
                    modules.add(alias.asname or "hierkit")
        elif isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").partition(".")[0] == "hierkit"
        ):
            where = "." * node.level + (node.module or "")
            for alias in node.names:
                if _private(alias.name):
                    found.append("%s:%d %s.%s" % (name, node.lineno, where, alias.name))
                elif where in ("hierkit", "."):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and _private(node.attr)
            and _root(node.value) in modules
        ):
            found.append("%s:%d %s.%s" % (name, node.lineno, ast.unparse(node.value), node.attr))
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


def test_no_module_reads_another_modules_private_names():
    found = []
    for path in SOURCES:
        found += private_reads(path.read_text(), path.name)
    assert found == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from hierkit import alt_trees\nalt_trees._chain_dp(p, 1)\n",
         ["<module>:2 alt_trees._chain_dp"]),
        ("from hierkit.alt_trees import _chain_dp\n", ["<module>:1 hierkit.alt_trees._chain_dp"]),
        ("from .alt_trees import _code as c\n", ["<module>:1 .alt_trees._code"]),
        ("import hierkit.alt_trees\nhierkit.alt_trees._levels\n",
         ["<module>:2 hierkit.alt_trees._levels"]),
        ("import hierkit.alt_trees as at\nat._chain(p, 1, m, 0)\n", ["<module>:2 at._chain"]),
        ("from hierkit import alt_trees as at\nx = at.AltChains(p, 1)\n", []),
        ("from hierkit.alt_trees import AltChains\nAltChains(p, 1)._side(0)\n", []),
        ("import re\nre._compile\n", []),
        ("def f(self):\n    return self._memo\n", []),
        ("import hierkit\nhierkit.__file__\n", []),
    ],
)
def test_the_private_read_guard_flags_what_it_should(source, expected):
    assert private_reads(source) == expected


def traced_methods(source):
    """The (module, class, method) keys of the `METHODS` table in the
    tracer's source, read with `ast` and never imported."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "METHODS" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise LookupError("no METHODS table")


def missing_methods(keys):
    """'module.Class.method' for each key whose method hierkit does not
    define on that very class (class None: on the module), which is
    where the tracer reads it."""
    missing = []
    for module, cls, method in keys:
        owner = importlib.import_module("hierkit." + module)
        if cls is not None:
            owner = getattr(owner, cls, None)
        if owner is None or method not in vars(owner):
            missing.append(".".join(n for n in (module, cls, method) if n))
    return missing


def test_every_method_the_tracer_wraps_exists():
    keys = traced_methods(SPANS.read_text())
    assert ("space_models", "PSpaceModel", "ll") in keys
    assert missing_methods(keys) == []


def test_the_traced_method_guard_flags_what_it_should():
    source = (
        "METHODS = {\n"
        "    ('space_models', 'PSpaceModel', 'refine_witness'): 'a',\n"
        "    ('space_models', 'NoSuchModel', 'll'): 'b',\n"
        "    ('space_models', 'PSpaceModel', 'chain_limit'): 'c',\n"
        "    ('space_models', 'SpaceModel', 'chain_limit'): 'd',\n"
        "    ('cli', None, 'main'): 'e',\n"
        "    ('cli', None, 'no_such_function'): 'f',\n"
        "}\n"
    )
    assert missing_methods(traced_methods(source)) == [
        "space_models.PSpaceModel.refine_witness",
        "space_models.NoSuchModel.ll",
        "space_models.PSpaceModel.chain_limit",
        "cli.no_such_function",
    ]
    with pytest.raises(LookupError):
        traced_methods("HOOKS = {}\n")
