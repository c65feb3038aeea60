"""Layering: only ``FiniteGroup.rows`` chooses between a group with a
Cayley table and one without; every other function reads products
through it."""

import ast
from pathlib import Path

import isoposet

MODULES = sorted(Path(isoposet.__file__).parent.glob("*.py"))

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
    assert {function for _, function, kind in uses if kind == "keyword"} == {"closure", "realize"}
