"""No function in ``src/etalab`` goes without a caller in ``src/etalab``.

An AST scan: every top-level function and every non-dunder method of
``src/etalab/*.py`` must be named somewhere in the package, outside its own
body, as a name, an attribute or an import alias.  The re-exports of
``__init__.py`` do not count as uses, and neither do the tests: an oracle
that only a test calls belongs in that test.  Names are matched by spelling
alone, so a method shares its uses with every other definition of the same
name.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "etalab"

#: ``module:qualified name`` of definitions kept without a caller, each with
#: the reason in a comment.
ALLOWED: set = set()


def _definitions(tree: ast.Module):
    """(qualified name, node) of the top-level functions and the non-dunder
    methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item


def _uses(tree: ast.Module, imports: bool):
    """(name, line) of every name and attribute, and of every import alias
    if ``imports``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and imports:
            for alias in node.names:
                yield alias.name.rsplit(".", 1)[-1], node.lineno


def uncalled() -> list:
    """``module:qualified name`` of every definition that nothing outside its
    own body names."""
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    uses = {}
    for module, tree in trees.items():
        for name, line in _uses(tree, imports=module != "__init__"):
            uses.setdefault(name, []).append((module, line))
    dead = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            body = range(node.lineno, node.end_lineno + 1)
            if not any(m != module or line not in body
                       for m, line in uses.get(node.name, ())):
                dead.append(f"{module}:{qualname}")
    return dead


def test_every_function_has_a_caller_in_the_package():
    dead = uncalled()
    unlisted = [name for name in dead if name not in ALLOWED]
    assert not unlisted, "no caller in src/etalab: " + ", ".join(unlisted)
    assert ALLOWED <= set(dead), "allowed but called: " + ", ".join(
        sorted(ALLOWED - set(dead)))
