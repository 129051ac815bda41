"""The shared oracles of ``helpers.py`` leave none behind."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def top_level_names(tree):
    """Each top-level statement of a module with the names it binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, {node.name}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node, {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield node, {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def names_read(*nodes):
    return {n.id for node in nodes for n in ast.walk(node) if isinstance(n, ast.Name)}


def test_every_helper_is_used():
    # every name helpers.py defines or imports is read by another of its
    # statements or by a test module (an import alone is no use), so an
    # oracle whose last test is gone fails here
    statements = list(top_level_names(ast.parse((TESTS / "helpers.py").read_text())))
    tests = names_read(*(ast.parse(p.read_text()) for p in TESTS.glob("test_*.py")))
    orphans = [
        name
        for node, names in statements
        for name in sorted(names - tests - names_read(*(other for other, _ in statements if other is not node)))
    ]
    assert statements and orphans == []
