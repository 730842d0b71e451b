"""Every parameter with a default in ``src/etalab`` is passed by some call in
``src/etalab``.

An AST scan over the top-level functions and the methods of top-level
classes.  A parameter counts as passed when some call of the same name (a
bare name or an attribute; a class name or ``__init__`` for a constructor)
gives it by keyword, or gives at least as many positional arguments as its
position after ``self``/``cls``.  A call with ``**kwargs`` passes every
parameter, and one with ``*args`` every positional parameter from the star
on.  Definitions of the same name share their calls, and the tests do not
count: a default that only a test overrides is an option with one value in
production, which belongs in a module constant that the test patches.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "etalab"

#: ``module:qualified name(parameter)`` of defaults kept although no call in
#: the package passes them, each with the reason in a comment.
ALLOWED: set = {
    # the console entry point reads sys.argv; tests pass their own argv
    "cli:main(argv)",
    # tests build non-cocycles with the certification switched off
    "cyclic:area_cocycle(certify)",
    # tests build table cochains with a class support, a growth envelope
    # and a name
    "cyclic:table_cochain(support_class)",
    "cyclic:table_cochain(growth)",
    "cyclic:table_cochain(name)",
    # tests build units of block size 2
    "group_algebra:AlgebraElement.identity(dim)",
    # tests inject a precomputed calculus
    "operators:class_trace(calculus)",
    # the fixture family of cyclic character projectors
    "pairing:character_projector(order)",
    "pairing:character_projector(mode)",
}


def _definitions(tree: ast.Module):
    """(qualified name, call names, node, leading bound parameters) of the
    top-level functions and the methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, {node.name}, node, 0
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                names = ({node.name, "__init__"} if item.name == "__init__"
                         else {item.name})
                yield (f"{node.name}.{item.name}", names, item,
                       0 if static else 1)


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return any(isinstance(arg, ast.Starred) or i == position
               for i, arg in enumerate(call.args))


def unpassed(sources: dict | None = None) -> list:
    """``module:qualified name(parameter)`` of every parameter with a default
    that no call passes, over ``{module: source}`` (``src/etalab`` by
    default)."""
    if sources is None:
        sources = {path.stem: path.read_text()
                   for path in sorted(SRC.glob("*.py"))}
    trees = {module: ast.parse(text, module)
             for module, text in sources.items()}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name) else func.attr
                        if isinstance(func, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)
    found = []
    for module, tree in trees.items():
        for qualname, names, node, bound in _definitions(tree):
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a.arg for a, d in zip(args.kwonlyargs,
                                                args.kw_defaults)
                          if d is not None]
            sites = [c for name in names for c in calls.get(name, ())]
            for param in defaulted:
                position = (positional.index(param) - bound
                            if param in positional else None)
                if not any(_passes(c, param, position) for c in sites):
                    found.append(f"{module}:{qualname}({param})")
    return found


def test_every_default_is_passed_in_the_package():
    found = unpassed()
    unlisted = [name for name in found if name not in ALLOWED]
    assert not unlisted, "never passed in src/etalab: " + ", ".join(unlisted)
    assert ALLOWED <= set(found), "allowed but passed: " + ", ".join(
        sorted(ALLOWED - set(found)))


def test_a_default_only_a_test_would_set_is_flagged():
    source = """
class Model:
    def __init__(self, size, pad=0):
        self.size = size

    def run(self, x, tol=1e-8, *, strict=True, budget=10):
        return x

    @staticmethod
    def make(n, scale=1.0):
        return Model(n)


def solve(a, b=2, c=3, *, seed=0):
    return a


def main(argv=None, **extra):
    m = Model(4)
    Model.make(2, 3.0)
    m.run(1, 1e-6)
    solve(*argv)
    options = {"seed": 1}
    solve(1, **options)
    return m.run(2, budget=5)
"""
    assert unpassed({"model": source}) == [
        "model:Model.__init__(pad)", "model:Model.run(strict)",
        "model:main(argv)"]
