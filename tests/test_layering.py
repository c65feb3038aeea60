"""Layering: only ``FiniteGroup.rows`` chooses between a group with a
Cayley table and one without; every other function reads products
through it.  Subgroups are read in their parent: only the remark rebuilds
one as a group of its own.  Every public function has a caller in the
library or the benchmark, bar a few named ones."""

import ast
from pathlib import Path

import isoposet

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
    # A5xA5 has no table, so the remark compares its two copies of A5
    # rebuilt with tables of their own (see ROADMAP item 10)
    assert set().union(*map(_as_group_calls, MODULES)) == {("verify", "verify_remark")}


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
