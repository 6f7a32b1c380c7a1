"""A dead-code guard for the package sources, standing in for a linter.

It reads each module of hierkit with `ast` and fails on two kinds of
leftover: an imported name the module never uses (a name listed in
`__all__` counts as used), and a module-level `_private` name that the
module itself never reads.  A second guard fails when a module reads
another hierkit module's `_private` name, as `mod._x` or through
`from hierkit.mod import _x`: what one module needs of another is
public.  A third fails when a method that the benchmark's span tracer
wraps, as listed in `bench/spans.py`, is no longer defined where the
tracer looks for it.  A fourth fails when `SearchBudgetExceeded` is
constructed anywhere but `Budget.spend`: every counted search spends
from one `Budget` rather than keeping a counter of its own.  A fifth
fails when a public module-level function or class is read by no
hierkit source outside its own definition, unless `TEST_ONLY` names it
with the consumer that keeps it, and when a `TEST_ONLY` entry has gained
a caller in the sources.  A sixth runs the argv tables of
`test_cli.py` in process under `sys.setprofile` and fails when a
public method or property of a public class is never called, unless
`TEST_ONLY_METHODS` names it with the consumer that keeps it, and when
a `TEST_ONLY_METHODS` entry is called.  It matches code objects, not
names, so a method is not kept alive by another object's method or
variable of the same name.  A seventh fails when a field of a public
dataclass is read as an attribute by no hierkit source, unless
`TEST_ONLY_FIELDS` names it with the consumer that keeps it, and when a
`TEST_ONLY_FIELDS` entry gains a reader.  It matches by name, as the
fifth does.
"""

import ast
import contextlib
import functools
import importlib
import inspect
import io
import pathlib
import sys
import types

import pytest

import hierkit
import hierkit.cli
import test_cli

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


def _budget_errors(source):
    """(line, scope) for each call that constructs SearchBudgetExceeded,
    by name or by an import alias; scope names the enclosing classes and
    functions, joined by dots."""
    tree = ast.parse(source)
    names = {"SearchBudgetExceeded"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(a.asname for a in node.names if a.name in names and a.asname)
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Call):
                func = child.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called in names:
                    found.append((child.lineno, ".".join(scope) or "<module>"))
            visit(child, inner)

    visit(tree, ())
    return found


def budget_errors_outside_spend(source, name="<module>"):
    """'file:line scope' for each construction of SearchBudgetExceeded
    anywhere but Budget.spend."""
    return [
        "%s:%d %s" % (name, line, scope)
        for line, scope in _budget_errors(source)
        if scope != "Budget.spend"
    ]


def test_only_budget_spend_raises_the_budget_error():
    sites = [
        (path.name, scope) for path in SOURCES for _, scope in _budget_errors(path.read_text())
    ]
    assert sites == [("diff_hierarchy.py", "Budget.spend")]


@pytest.mark.parametrize(
    "source, expected",
    [
        ("class Budget:\n    def spend(self):\n        raise SearchBudgetExceeded(m)\n", []),
        ("def search():\n    raise SearchBudgetExceeded(3)\n", ["<module>:2 search"]),
        ("class Budget:\n    def check(self):\n        raise SearchBudgetExceeded(m)\n",
         ["<module>:3 Budget.check"]),
        ("def f():\n    def g():\n        raise dh.SearchBudgetExceeded('x')\n",
         ["<module>:3 f.g"]),
        ("from hierkit.diff_hierarchy import SearchBudgetExceeded as Cut\nerr = Cut('x')\n",
         ["<module>:2 <module>"]),
        ("def f():\n    try:\n        g()\n    except SearchBudgetExceeded:\n        pass\n", []),
        ("def f():\n    Budget(3, 'x').spend()\n", []),
    ],
)
def test_the_budget_error_guard_flags_what_it_should(source, expected):
    assert budget_errors_outside_spend(source) == expected


# Public functions and classes that no hierkit source reads, each with
# the consumer that keeps it.
TEST_ONLY = {
    "kb_less": "the reference Kleene-Brouwer order of the transform tests",
    "kb_sorted": "the reference Kleene-Brouwer order of the transform tests",
    "normalize_monotone": "acceptance criterion 3",
    "pad": "acceptance criterion 3",
    "hausdorff_from_diff": "acceptance criterion 9",
    "claim2_gaps": "acceptance criterion 8",
    "check_approx_conditions": "acceptance criterion 5",
    "relation_from_strategy": "ROADMAP item 19, hier approx",
    "identity_refinement": "ROADMAP item 19, hier approx",
    "audit_convergence": "ROADMAP item 8",
    "all_posets_upto_iso": "the tests that run over every poset class of one size",
}


def _read_names(node):
    """Each name read under node, as a bare name or as an attribute,
    once per read."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            yield n.attr


def _reads(node, skip=None):
    """The names read under node, leaving out skip."""
    return set(_read_names(node)) - {skip}


def unread_public_names(sources, test_only):
    """'file:line name' for each public module-level function or class
    in sources ({file name: text}) that no source reads outside its own
    definition and that test_only leaves out; then 'name has a caller'
    for each test_only entry that some source reads."""
    defined, read = [], set()
    for name, text in sources.items():
        for node in ast.parse(text).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = node.name
                if not own.startswith("_"):
                    defined.append((name, node.lineno, own))
            read |= _reads(node, own)
    found = [
        "%s:%d %s" % (name, line, own)
        for name, line, own in defined
        if own not in read and own not in test_only
    ]
    return found + ["%s has a caller" % own for own in sorted(test_only) if own in read]


def test_every_public_name_has_a_reader_or_a_named_consumer():
    sources = {path.name: path.read_text() for path in SOURCES}
    assert unread_public_names(sources, TEST_ONLY) == []


@pytest.mark.parametrize(
    "sources, expected",
    [
        ({"a.py": "def f():\n    pass\n"}, ["a.py:1 f"]),
        ({"a.py": "def f():\n    pass\n", "b.py": "from a import f\nf()\n"}, []),
        ({"a.py": "def f():\n    pass\n", "b.py": "import a\na.f()\n"}, []),
        ({"a.py": "def f(n):\n    return f(n - 1)\n"}, ["a.py:1 f"]),
        ({"a.py": "class C:\n    def m(self):\n        return C()\n"}, ["a.py:1 C"]),
        ({"a.py": "def _f():\n    pass\n"}, []),
        ({"a.py": "F = 1\n"}, []),
        ({"a.py": "def f():\n    pass\n\ndef g():\n    f()\n"}, ["a.py:4 g"]),
        ({"a.py": "def t():\n    pass\n"}, []),
        ({"a.py": "def t():\n    pass\n\nX = t()\n"}, ["t has a caller"]),
    ],
)
def test_the_unread_public_name_guard_flags_what_it_should(sources, expected):
    assert unread_public_names(sources, {"t": "a test"}) == expected


# Public methods of public classes that no `hier` command calls, each
# with the consumer that keeps it.
TEST_ONLY_METHODS = {
    "FinitePosetModel.index_of": "the poset-model tests and acceptance criterion 8",
    "FinitePosetModel.points": "ROADMAP item 19, through relation_from_strategy",
    "FinitePoset.antichain": "the poset tests",
    "FinitePoset.chain": "the poset tests",
    "Ordinal.is_finite": "acceptance criterion 9, through hausdorff_from_diff",
    "Ordinal.as_int": "acceptance criterion 9, through hausdorff_from_diff",
    "AmbiguityReport.ok": "acceptance criterion 4",
    "ApproxReport.ok": "acceptance criterion 5",
    "VerificationReport.ok": "the transform tests",
    "StagedPresentation.check_points": "the presentation tests",
    "StagedTree.diff_code": "the transform tests",
    "StagedTree.nodes": "the transform tests, claim2_gaps and the benchmark's span hook",
    "StagedTree.frontier": "the transform tests",
    "StagedTree.growth_violations": "the transform tests",
}


def public_methods(modules):
    """{code object: 'Class.method'} for each public method of each
    public class that one of the modules defines: plain, static and
    class methods, properties and cached properties."""
    found = {}
    for module in modules:
        for cls in vars(module).values():
            if not (
                inspect.isclass(cls)
                and cls.__module__ == module.__name__
                and not cls.__name__.startswith("_")
            ):
                continue
            for name, member in vars(cls).items():
                if name.startswith("_"):
                    continue
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                elif isinstance(member, functools.cached_property):
                    member = member.func
                if inspect.isfunction(member):
                    found[member.__code__] = cls.__name__ + "." + name
    return found


def calls_made(run):
    """The code objects of the Python functions called while run() runs."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(old)
    return called


def unreached_methods(methods, called, test_only):
    """'Class.method' for each method in methods ({code: name}) whose
    code is not in called and that test_only leaves out; then
    'Class.method has a caller' for each test_only entry that is."""
    found = sorted(q for code, q in methods.items() if code not in called and q not in test_only)
    reached = {q for code, q in methods.items() if code in called}
    return found + ["%s has a caller" % q for q in sorted(test_only) if q in reached]


def command_corpus():
    """The argvs of the tables in test_cli.py: plays in both games on
    every model, transforms, the model-surface ops, classify, residues
    and alt on seeded posets, audits, one argv per subcommand and every
    refused input.  The 6-point audit is left out: traced, it takes
    seconds and reaches nothing the smaller ones miss.  One more argv
    reaches what the tables do not, a classify whose level search meets
    a slot with more than 10 free points."""
    t = test_cli
    for model, rounds, empty, game in sorted(t.PLAY_DIGESTS):
        yield ["play", "--model", t.PLAY_MODELS[model], "--rounds", str(rounds),
               "--empty", empty, "--game", game, "--seed", "7"]
    for case in sorted(t.TRANSFORM_ARGV):
        yield ["transform", *t.TRANSFORM_ARGV[case]]
    for table in (t.SURFACE_ARGV, t.CROSS_PROCESS_ARGV, t.REFUSED_ARGV):
        for case in sorted(table):
            yield list(table[case])
    for case in sorted(t.CLASSIFY_DIGESTS):
        yield t._classify_argv(*case)
    for case in sorted(t.RESIDUES_DIGESTS):
        yield t._residues_argv(*case)
    for n, seed, edge_prob, members in sorted(t.ALT_DIGESTS):
        poset, seeded = t._seeded_poset(n, seed, edge_prob)
        yield ["alt", "--poset", poset, "--set", seeded if members == "seeded" else ""]
    for n in sorted(t.AUDIT_DIGESTS)[:-1]:
        yield ["audit", "--exhaustive", str(n)]
    yield ["classify", "--poset", '{"n": 20, "cover": []}', "--set",
           ",".join(map(str, range(20)))]


def _run_commands():
    for argv in command_corpus():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            hierkit.cli.main(argv)


def test_every_public_method_is_called_by_a_command_or_has_a_named_consumer():
    modules = [importlib.import_module("hierkit." + path.stem) for path in SOURCES]
    methods = public_methods(modules)
    assert "BaireResult.to_json" in methods.values()
    assert unreached_methods(methods, calls_made(_run_commands), TEST_ONLY_METHODS) == []


_GUARD_CASE = """
class C:
    def m(self):
        return self.k()

    def k(self):
        pass

    def t(self):
        pass

    @property
    def p(self):
        return 1

    @staticmethod
    def s():
        pass

    def _m(self):
        pass


class _C:
    def m(self):
        pass
"""


@pytest.mark.parametrize(
    "run, expected",
    [
        ("pass", ["C.k", "C.m", "C.p", "C.s"]),
        ("C().k(); C.s()", ["C.m", "C.p"]),
        # a method reached only through another method is reached
        ("C().m(); C().p; C.s()", []),
        ("C().m(); C().p; C.s(); C().t()", ["C.t has a caller"]),
        ("C()._m(); _C().m()", ["C.k", "C.m", "C.p", "C.s"]),
    ],
)
def test_the_unreached_method_guard_flags_what_it_should(run, expected):
    module = types.ModuleType("guard_case")
    exec(_GUARD_CASE, vars(module))
    methods = public_methods([module])
    called = calls_made(lambda: exec(run, vars(module)))
    assert unreached_methods(methods, called, {"C.t": "a test"}) == expected


# Fields of public dataclasses that no hierkit source reads, each with
# the consumer that keeps it.
TEST_ONLY_FIELDS = {
    "StagedTree.pool": "the benchmark's span hook for build_alt_tree",
}


def _is_dataclass_decorator(node):
    if isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name == "dataclass"


def _dataclass_fields(tree):
    """(line, 'Class.field') for each public annotated field of each
    public module-level class that a dataclass decorator marks."""
    for node in tree.body:
        if (
            isinstance(node, ast.ClassDef)
            and not node.name.startswith("_")
            and any(map(_is_dataclass_decorator, node.decorator_list))
        ):
            for item in node.body:
                if (
                    isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and not item.target.id.startswith("_")
                ):
                    yield item.lineno, node.name + "." + item.target.id


def unread_fields(sources, test_only):
    """'file:line Class.field' for each public dataclass field in
    sources ({file name: text}) that no source reads as an attribute
    and that test_only leaves out; then 'Class.field has a reader' for
    each test_only entry whose field some source reads."""
    defined, read = [], set()
    for name, text in sources.items():
        tree = ast.parse(text)
        defined += [(name, line, q) for line, q in _dataclass_fields(tree)]
        read |= {
            n.attr
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
        }
    found = [
        "%s:%d %s" % (name, line, q)
        for name, line, q in defined
        if q.partition(".")[2] not in read and q not in test_only
    ]
    return found + [
        "%s has a reader" % q for q in sorted(test_only) if q.partition(".")[2] in read
    ]


def test_every_dataclass_field_has_a_reader_or_a_named_consumer():
    sources = {path.name: path.read_text() for path in SOURCES}
    fields = [q for text in sources.values() for _, q in _dataclass_fields(ast.parse(text))]
    assert "VerificationReport.budgets" in fields and "StagedTree.budget" in fields
    assert unread_fields(sources, TEST_ONLY_FIELDS) == []


_FIELD_CASE = "@dataclass\nclass C:\n    f: int\n    t: int = 0\n"


@pytest.mark.parametrize(
    "sources, expected",
    [
        ({"a.py": _FIELD_CASE}, ["a.py:3 C.f"]),
        ({"a.py": _FIELD_CASE, "b.py": "def g(c):\n    return c.f\n"}, []),
        ({"a.py": _FIELD_CASE.replace("@dataclass", "@dataclass(frozen=True)")},
         ["a.py:3 C.f"]),
        ({"a.py": _FIELD_CASE.replace("@dataclass", "@dataclasses.dataclass")},
         ["a.py:3 C.f"]),
        # a method of the class reading its own field is a reader
        ({"a.py": _FIELD_CASE + "\n    def m(self):\n        return self.f\n"}, []),
        # a store, or a bare name spelled like the field, is not
        ({"a.py": _FIELD_CASE, "b.py": "c.f = 1\nf = 2\nprint(f)\n"}, ["a.py:3 C.f"]),
        ({"a.py": _FIELD_CASE.replace("@dataclass\n", "")}, []),
        ({"a.py": _FIELD_CASE.replace("class C", "class _C")}, []),
        ({"a.py": _FIELD_CASE.replace("f: int", "_f: int")}, []),
        ({"a.py": _FIELD_CASE, "b.py": "c.f + c.t\n"}, ["C.t has a reader"]),
    ],
)
def test_the_unread_field_guard_flags_what_it_should(sources, expected):
    assert unread_fields(sources, {"C.t": "a test"}) == expected
