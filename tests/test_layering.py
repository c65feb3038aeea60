"""Layering: only ``FiniteGroup.rows`` chooses between a group with a
Cayley table and one without; every other function reads products
through it.  Subgroups are read in their parent: only the remark rebuilds
one as a group of its own.  Only ``Limits.check`` raises a cap error, and
every field of ``Limits`` is a cap that refuses work.
Only two process-wide tables are ``functools`` memos; a verify run keeps
its own groups, lattices and class posets.
Every public function has a caller in the library or the benchmark, bar
a few named ones."""

import ast
import dataclasses
from pathlib import Path

import isoposet
from isoposet import Limits, limits

MODULES = sorted(Path(isoposet.__file__).parent.glob("*.py"))
BENCH = sorted((Path(__file__).resolve().parent.parent / "perfbench").glob("*.py"))

# (module, enclosing function) outside perm: the keyword that hands a
# product its table
ALLOWED = {("catalog", "direct_product")}


def _cayley_table_uses(path: Path) -> set[tuple[str, str, str]]:
    """(module, enclosing function, "read" or "keyword") of every
    ``.cayley_table`` read and ``cayley_table=`` keyword in the module at
    ``path``."""
    uses = set()

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and node.attr == "cayley_table":
            uses.add((path.stem, function, "read"))
        if isinstance(node, ast.keyword) and node.arg == "cayley_table":
            uses.add((path.stem, function, "keyword"))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text("utf-8")), "<module>")
    return uses


def test_only_perm_reads_the_cayley_table():
    assert {p.stem for p in MODULES} >= {"perm", "catalog", "groupiso", "subgroups"}
    found = set().union(*(_cayley_table_uses(p) for p in MODULES if p.stem != "perm"))
    assert {(module, function) for module, function, _ in found} == ALLOWED


def test_inside_perm_only_rows_reads_the_cayley_table():
    # the constructors that pass ``cayley_table=`` stay allowed
    uses = _cayley_table_uses(next(p for p in MODULES if p.stem == "perm"))
    assert {function for _, function, kind in uses if kind == "read"} == {"rows"}
    assert {function for _, function, kind in uses if kind == "keyword"} == {"closure"}


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
