"""Layering: a ``FiniteGroup`` is built from its elements, moves and
name alone, and its degree, generators and Cayley table are read off
them.  Only ``FiniteGroup.rows`` reads ``TABLE_ORDER``: it alone chooses
between a Cayley table and the permutation view, and every other function
reads products through it.  Subgroups are read in their parent: only the
remark rebuilds one as a group of its own.  Only ``Limits.check`` raises a cap error, and
every field of ``Limits`` is a cap that refuses work.
Only two process-wide tables are ``functools`` memos; a verify run keeps
its own groups, lattices and class posets.
Every public function has a caller in the library or the benchmark, bar
a few named ones.  ``FiniteGroup.join`` has exactly two callers: the fold
``FiniteGroup._generate``, through which closures, normal closures and
greedy generators all grow, and ``subgroups._enumerate_subgroups``.
Only classification and class labels decide isomorphism without a
search, by the theorem on abelian groups; every isomorphism that
``find_isomorphism`` returns is re-checked by ``_is_isomorphism``.
Element orders and inverses come from one walk per group: ``_power_walk``
has exactly one caller, ``FiniteGroup._powers``.  A ``Fingerprint`` is
built only in ``invariants._invariants``, from the classes of
``_class_orbits``, the one place an abelian subgroup is told apart."""

import ast
import dataclasses
from pathlib import Path
from typing import Callable

import isoposet
from isoposet import FiniteGroup, Limits, limits

MODULES = sorted(Path(isoposet.__file__).parent.glob("*.py"))
BENCH = sorted((Path(__file__).resolve().parent.parent / "perfbench").glob("*.py"))


def test_a_group_is_its_elements_and_moves():
    # degree, generators and the Cayley table are read off these fields
    assert [field.name for field in dataclasses.fields(FiniteGroup)] == [
        "elements", "moves", "name"]


def test_only_rows_reads_the_table_order():
    # rows alone picks between a Cayley table and the permutation view
    def reads(node: ast.AST) -> bool:
        return (isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
                and getattr(node, "id", getattr(node, "attr", None)) == "TABLE_ORDER")

    assert _scopes(reads) == {("perm", "FiniteGroup.rows")}


def _as_group_calls(path: Path) -> set[tuple[str, str]]:
    """(module, outermost enclosing function) of every ``.as_group(`` call
    in the module at ``path``."""
    calls = set()

    def visit(node: ast.AST, function: str | None) -> None:
        if function is None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "as_group"):
            calls.add((path.stem, function or "<module>"))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text("utf-8")), None)
    return calls


def test_only_the_remark_rebuilds_a_subgroup():
    # A5xA5 has no table, so the remark's copy-isomorphic claim compares
    # its two copies of A5 rebuilt with tables of their own (see ROADMAP
    # item 10)
    assert set().union(*map(_as_group_calls, MODULES)) == {("verify", "_copy_isomorphic")}


# public functions that only tests call, each kept for its reason
UNCALLED = {
    "conjugacy_classes": "the only public path to a group's element classes",
    "conjugate_subgroup": "the only public path to one conjugate of a subgroup",
    "subgroup_from_members": "the only public path from a closed member set to a subgroup",
    "catalog_specs": "the only public path to every curated spec at once",
}


def test_every_public_function_has_a_caller():
    assert len(BENCH) > 1  # run from the source tree, beside the benchmark
    used = set()
    for path in [p for p in MODULES if p.stem != "__init__"] + BENCH:
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    uncalled = {
        node.name
        for path in MODULES
        for node in ast.parse(path.read_text("utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_") and node.name not in used
    }
    assert uncalled == set(UNCALLED)


# comparisons against a cap outside limits.py, each kept for its reason
CAP_COMPARISONS = {
    ("perm", "closure_walk", "element_cap"):
        "the walk's test runs once per element, and it asks Limits.check for the error",
    ("classposet", "_label_for", "iso_cap"):
        "past the cap a class keeps its G<order>.<id> label: labels are names, not claims",
}


def _cap_uses(stem: str, source: str) -> set[tuple[str, str, str]]:
    """(module, enclosing function, cap) of every comparison against a
    ``*_cap`` attribute, read directly or through a local name bound to
    one, and (module, enclosing function, "ResourceLimitError") of every
    construction of that error, in the module ``stem`` with ``source``."""
    uses = set()

    def is_cap(node: ast.AST) -> bool:
        return isinstance(node, ast.Attribute) and node.attr.endswith("_cap")

    def visit(node: ast.AST, function: str, aliases: dict[str, str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
            aliases = aliases | {target.id: sub.value.attr for sub in ast.walk(node)
                                 if isinstance(sub, ast.Assign) and is_cap(sub.value)
                                 for target in sub.targets if isinstance(target, ast.Name)}
        if isinstance(node, ast.Compare):
            for side in [node.left, *node.comparators]:
                if is_cap(side):
                    uses.add((stem, function, side.attr))
                elif isinstance(side, ast.Name) and side.id in aliases:
                    uses.add((stem, function, aliases[side.id]))
        if isinstance(node, ast.Call):
            if getattr(node.func, "id", getattr(node.func, "attr", None)) == "ResourceLimitError":
                uses.add((stem, function, "ResourceLimitError"))
        for child in ast.iter_child_nodes(node):
            visit(child, function, aliases)

    visit(ast.parse(source), "<module>", {})
    return uses


def test_cap_scan_sees_direct_and_aliased_comparisons():
    source = (
        "def f(group, limits):\n"
        "    cap = limits.enum_cap\n"
        "    if group.order > cap or limits.iso_cap < group.order:\n"
        "        raise errors.ResourceLimitError('past a cap')\n"
    )
    assert _cap_uses("m", source) == {("m", "f", "enum_cap"), ("m", "f", "iso_cap"),
                                      ("m", "f", "ResourceLimitError")}


def test_limits_holds_caps_only():
    # each field has the unit its cap error names; a setting that refuses
    # nothing, such as the Cayley-table threshold, is a module constant
    assert {field.name for field in dataclasses.fields(Limits)} == set(limits._UNITS)


def test_only_limits_raises_a_cap_error():
    uses = {p.stem: _cap_uses(p.stem, p.read_text("utf-8")) for p in MODULES}
    assert uses["limits"] == {("limits", "check", "ResourceLimitError")}
    assert set().union(*(found for stem, found in uses.items() if stem != "limits")) \
        == set(CAP_COMPARISONS)


# functools memos, each kept for its reason; what one verify run builds
# is kept by that run, cap errors included
MEMOS = {
    ("catalog", "_catalog_table"): "the curated catalog file, parsed once per process",
    ("classposet", "_candidate"):
        "a catalog group and its fingerprint that class labels are compared with, built "
        "once per spec and limits, and only when a class of its order reaches it",
}


def _memo_uses(stem: str, source: str) -> set[tuple[str, str]]:
    """(module, enclosing function) of every use of ``functools.cache``
    or ``functools.lru_cache``, by attribute or by an imported name, in
    the module ``stem`` with ``source``; a decorator counts in the
    function it decorates."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "functools"}
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "functools"
             for alias in node.names if alias.name in ("cache", "lru_cache")}
    uses = set()

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Name) and node.id in names:
            uses.add((stem, function))
        if (isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache")
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            uses.add((stem, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return uses


def test_memo_scan_sees_decorators_calls_and_aliases():
    source = (
        "import functools\n"
        "from functools import cached_property, lru_cache as memo\n"
        "@functools.cache\n"
        "def f():\n"
        "    return 1\n"
        "def g():\n"
        "    @memo(maxsize=None)\n"
        "    def inner():\n"
        "        return 2\n"
        "    return functools.lru_cache(inner)\n"
        "class C:\n"
        "    @cached_property\n"
        "    def h(self):\n"
        "        return 3\n"
    )
    assert _memo_uses("m", source) == {("m", "f"), ("m", "inner"), ("m", "g")}


def test_only_two_process_tables_are_functools_memos():
    found = set().union(*(_memo_uses(p.stem, p.read_text("utf-8")) for p in MODULES))
    assert found == set(MEMOS)


def _join_callers(path: Path) -> set[tuple[str, str]]:
    """(module, enclosing ``Class.function`` or function) of every
    ``.join(`` call in the module at ``path`` whose receiver is not a
    string literal, so that ``", ".join`` is left out."""
    callers = set()

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "join" and not isinstance(node.func.value, ast.Constant)):
            callers.add((path.stem, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text("utf-8")), "<module>")
    return callers


def test_only_the_fold_and_the_enumeration_join():
    # closures, normal closures and greedy generators all grow through
    # the one fold; cyclic extension joins with its own shared labelling
    assert set().union(*map(_join_callers, MODULES + BENCH)) == {
        ("perm", "FiniteGroup._generate"), ("subgroups", "_enumerate_subgroups")}


def _attribute_reads(path: Path, attr: str) -> set[tuple[str, str]]:
    """(module, enclosing function) of every ``.<attr>`` read in the module
    at ``path``."""
    reads = set()

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and node.attr == attr:
            reads.add((path.stem, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text("utf-8")), "<module>")
    return reads


def test_only_classification_and_labels_skip_the_search_for_abelian_groups():
    # finite abelian groups with equal element-order counts are isomorphic;
    # only these two answers are names and partitions, with no witness
    assert set().union(*(_attribute_reads(p, "abelian") for p in MODULES)) == {
        ("groupiso", "classify_with_data"), ("classposet", "_label_for")}


def _function(tree: ast.AST, name: str) -> ast.FunctionDef:
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _calls(node: ast.AST, name: str) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == name)


def _scopes(found: Callable[[ast.AST], bool]) -> set[tuple[str, str]]:
    """(module, enclosing ``Class.function`` or function) of every node of
    the library that ``found`` accepts."""
    scopes = set()

    def visit(node: ast.AST, stem: str, scope: str) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        if found(node):
            scopes.add((stem, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, stem, scope)

    for path in MODULES:
        visit(ast.parse(path.read_text("utf-8")), path.stem, "<module>")
    return scopes


def _callers(name: str) -> set[tuple[str, str]]:
    """Where the plain name ``name`` is called in the library."""
    return _scopes(lambda node: _calls(node, name))


def test_every_isomorphism_found_is_checked():
    # find_isomorphism answers None or the search's result, the search
    # builds the only GroupIso, and the statement before it raises unless
    # _is_isomorphism accepts the mapping
    tree = ast.parse(next(p for p in MODULES if p.stem == "groupiso").read_text("utf-8"))
    returns = [node.value for node in ast.walk(_function(tree, "find_isomorphism"))
               if isinstance(node, ast.Return)]
    assert returns and all(
        (isinstance(value, ast.Constant) and value.value is None)
        or _calls(value, "_search_isomorphism") for value in returns)
    assert _callers("GroupIso") == {("groupiso", "_search_isomorphism")}
    body = _function(tree, "_search_isomorphism").body
    last, check = body[-1], body[-2]
    assert isinstance(last, ast.Return) and _calls(last.value, "GroupIso")
    assert (isinstance(check, ast.If) and isinstance(check.test, ast.UnaryOp)
            and isinstance(check.test.op, ast.Not) and _calls(check.test.operand, "_is_isomorphism")
            and isinstance(check.body[0], ast.Raise))


def test_only_the_cached_powers_walk_the_powers():
    # one walk per group, kept: no partial walk reads a few elements' orders
    assert _callers("_power_walk") == {("perm", "FiniteGroup._powers")}


def test_only_invariants_builds_a_fingerprint():
    # every fingerprint is read off the classes of _class_orbits, which
    # alone tells an abelian subgroup apart
    assert _callers("Fingerprint") == {("invariants", "_invariants")}
