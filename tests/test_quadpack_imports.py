"""The quadrature and the tail cuts need no scipy.

etalab integrates with its own QUADPACK port (``etalab.quadpack``), so no
command loads ``scipy.integrate`` or the ``scipy.optimize`` behind it, and
it cuts the Gaussian tails with ``math.erfc``, so the class eta commands
load no scipy at all.  Only the spectral-flow unitary of the higher eta
still loads ``scipy.special``, for its grid ``erf``.
"""

from __future__ import annotations

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


def test_class_eta_loads_no_scipy_and_higher_eta_only_special():
    for command in ("eta", "eta operator.kind=cover",
                    "eta operator.kind=wilson",
                    "oracle-compare oracle.kind=sign_sum"):
        assert loaded_scipy(command) == set(), command
    mods = loaded_scipy("higher-eta operator.kind=two_band cocycle.kind=area "
                        "class.element=0,0 --tol 1e-6")
    assert "scipy.special" in mods
    assert not {m for m in mods
                if m.startswith(("scipy.integrate", "scipy.optimize"))}


def test_no_source_file_imports_scipy_integrate():
    src = pathlib.Path(etalab.__file__).parent
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        assert "scipy.integrate" not in text, path.name
        assert "from scipy import integrate" not in text, path.name
