"""The eta commands need no scipy.

etalab integrates with its own QUADPACK port (``etalab.quadpack``), cuts
the Gaussian tails with ``math.erfc`` and evaluates the erf of the
spectral-flow unitary with its own rational approximation
(``operators._erf``), so neither the class eta nor the higher eta loads any
scipy module.  ``src/etalab`` imports no scipy at all: the free-group
calculus gathers along integer neighbour tables in place of a sparse
matrix.  An AST scan, with an empty allow-list, keeps it so.
"""

from __future__ import annotations

import ast
import json
import pathlib
import subprocess
import sys

import etalab

LOADED_SCIPY = """
import contextlib, io, json, sys
import etalab.cli
argv = {argv!r}
with contextlib.redirect_stdout(io.StringIO()):
    assert etalab.cli.main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "scipy")))
"""


def loaded_scipy(command: str) -> set:
    """The scipy modules loaded by one CLI command in a fresh interpreter."""
    code = LOADED_SCIPY.format(argv=command.split())
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_boundary_check_loads_no_scipy():
    assert loaded_scipy("boundary-check") == set()


def test_default_oracle_compare_loads_no_scipy():
    assert loaded_scipy("oracle-compare") == set()


def test_eta_and_higher_eta_load_no_scipy():
    for command in ("eta", "eta operator.kind=cover",
                    "eta operator.kind=wilson",
                    "oracle-compare oracle.kind=sign_sum",
                    "higher-eta operator.kind=two_band cocycle.kind=area "
                    "class.element=0,0 --tol 1e-6",
                    "higher-eta operator.kind=cover "
                    "cocycle.kind=shifted_class_trace --tol 1e-3"):
        assert loaded_scipy(command) == set(), command


#: (module, enclosing function, imported name) of every scipy import that
#: ``src/etalab`` may keep: none
SCIPY_IMPORTS = set()


def scipy_imports(node: ast.AST, scope: str = ""):
    """(enclosing function, imported name) of every scipy import below
    ``node``, including ``from scipy import x`` as ``scipy.x``."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        names = []
        if isinstance(child, ast.Import):
            names = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom) and child.module:
            names = [f"{child.module}.{alias.name}" for alias in child.names]
        for name in names:
            if name.split(".")[0] == "scipy":
                yield scope, name
        yield from scipy_imports(child, inner)


def test_src_imports_scipy_only_on_its_allow_list():
    src = pathlib.Path(etalab.__file__).parent
    found = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found |= {(path.stem, scope, name)
                  for scope, name in scipy_imports(tree)}
        # no import by a string either (importlib, __import__)
        assert not [node.value for node in ast.walk(tree)
                    if isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and node.value.startswith("scipy")], path.name
    assert found == SCIPY_IMPORTS
