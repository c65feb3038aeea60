"""Layering: only ``perm`` chooses between a group with a Cayley table and
one without; every other module asks ``FiniteGroup``."""

import ast
from pathlib import Path

import isoposet

# (module, enclosing function): the witness re-check, which compares two
# tables row by row, and the keyword that hands a product its table
ALLOWED = {("groupiso", "_is_isomorphism"), ("catalog", "direct_product")}


def _cayley_table_uses(path: Path) -> set[tuple[str, str]]:
    """(module, enclosing function) of every ``.cayley_table`` read and
    ``cayley_table=`` keyword in the module at ``path``."""
    uses = set()

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Attribute) and node.attr == "cayley_table"
                or isinstance(node, ast.keyword) and node.arg == "cayley_table"):
            uses.add((path.stem, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text("utf-8")), "<module>")
    return uses


def test_only_perm_reads_the_cayley_table():
    modules = sorted(Path(isoposet.__file__).parent.glob("*.py"))
    assert {p.stem for p in modules} >= {"perm", "catalog", "groupiso", "subgroups"}
    found = set().union(*(_cayley_table_uses(p) for p in modules if p.stem != "perm"))
    assert found == ALLOWED
