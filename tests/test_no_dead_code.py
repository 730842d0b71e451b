"""No function or module constant in ``src/etalab`` goes without a reader
in ``src/etalab``.

An AST scan: every top-level function and every non-dunder method of
``src/etalab/*.py`` must be used somewhere in the package, outside its own
body.  A method counts as used only through an attribute (``x.name``) or a
string constant (for ``getattr``); a top-level function also through a bare
name or an import alias.  So a method that shares its spelling with a local
variable is still flagged.  The re-exports of ``__init__.py`` do not count
as uses, and neither do the tests: an oracle that only a test calls belongs
in that test.  Methods of the same name share their uses.  Likewise every
module-level UPPER_CASE name must be loaded (as a bare name or an attribute)
somewhere in the package outside its own assignment.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "etalab"

#: ``module:qualified name`` of definitions kept without a caller, each with
#: the reason in a comment.
ALLOWED: set = {
    # wrapped by name in the span table of perfbench/tracing.py
    "groups:GroupModel.sphere",
}


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
    """(kind, name, line) of every bare name (``"name"``), every attribute
    and string constant (``"attribute"``), and every import alias if
    ``imports`` (``"name"``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield "name", node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield "attribute", node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield "attribute", node.value, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and imports:
            for alias in node.names:
                yield "name", alias.name.rsplit(".", 1)[-1], node.lineno


def _trees(sources: dict | None) -> dict:
    """``{module: AST}`` of ``{module: source}``, ``src/etalab`` by
    default."""
    if sources is None:
        sources = {path.stem: path.read_text()
                   for path in sorted(SRC.glob("*.py"))}
    return {module: ast.parse(text, module)
            for module, text in sources.items()}


def uncalled(sources: dict | None = None) -> list:
    """``module:qualified name`` of every definition that nothing outside its
    own body uses, over ``{module: source}`` (``src/etalab`` by default)."""
    trees = _trees(sources)
    uses = {}
    for module, tree in trees.items():
        for kind, name, line in _uses(tree, imports=module != "__init__"):
            uses.setdefault((kind, name), []).append((module, line))
    dead = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            kinds = ("attribute",) if "." in qualname else ("attribute",
                                                            "name")
            body = range(node.lineno, node.end_lineno + 1)
            if not any(m != module or line not in body
                       for kind in kinds
                       for m, line in uses.get((kind, node.name), ())):
                dead.append(f"{module}:{qualname}")
    return dead


def unread_constants(sources: dict | None = None) -> list:
    """``module:NAME`` of every module-level UPPER_CASE name that no bare
    name or attribute loads outside its own assignment, over ``{module:
    source}`` (``src/etalab`` by default)."""
    trees = _trees(sources)
    loads = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else node.attr
                    if isinstance(node, ast.Attribute) else None)
            if name is not None and isinstance(node.ctx, ast.Load):
                loads.setdefault(name, []).append((module, node.lineno))
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            body = range(node.lineno, node.end_lineno + 1)
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            for name in (n.id for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name) and n.id.isupper()):
                if not any(m != module or line not in body
                           for m, line in loads.get(name, ())):
                    unread.append(f"{module}:{name}")
    return unread


def test_every_function_has_a_caller_in_the_package():
    dead = uncalled()
    unlisted = [name for name in dead if name not in ALLOWED]
    assert not unlisted, "no caller in src/etalab: " + ", ".join(unlisted)
    assert ALLOWED <= set(dead), "allowed but called: " + ", ".join(
        sorted(ALLOWED - set(dead)))


def test_a_method_shadowed_by_a_local_variable_is_flagged():
    source = """
class Element:
    def zero(self):
        return 0

    def star(self):
        return self


def build(x):
    zero = x.star()
    return zero


def main():
    return build(1), getattr(Element(), "star")


ENTRY = main
"""
    assert uncalled({"model": source}) == ["model:Element.zero"]


def test_every_module_constant_is_read_in_the_package():
    assert not unread_constants(), "never read in src/etalab: " + ", ".join(
        unread_constants())


def test_a_constant_that_is_only_stored_is_flagged():
    source = """
SCALE = 2.0
LIMIT = SCALE * 10
STEPS: int = 3
UNUSED = [len(UNUSED)]
lower = 1


def run(x):
    STEPS = 4
    return x.SCALE, [LIMIT] * lower
"""
    assert unread_constants({"model": source}) == ["model:STEPS",
                                                   "model:UNUSED"]
