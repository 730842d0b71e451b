"""Start-up cost and per-operator caches.

``src/etalab`` imports no scipy, so no command and no backend, the F_r
calculus included, loads any scipy module, and ``ETALAB_THREADS`` reaches
the environment before NumPy's BLAS reads it.
``FourierSymbolOperator`` builds the f-independent spectral data of its
symbol once per grid size, and cuts the word-length ball out of
the coefficient box in one array operation.  The cached and vectorised
routes are checked bit for bit against the straightforward code they
replace.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from etalab.group_algebra import AlgebraElement
from etalab.groups import FreeAbelianGroup
from etalab.operators import (
    FourierSymbolOperator,
    SchwartzFunction,
    anisotropic_symbol_3d,
    lattice_laplace_symbol,
    two_band_chern_symbol,
)


def run_python(code: str, env: dict | None = None) -> str:
    """Stdout of ``code`` run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LOADED_SCIPY = """
import contextlib, io, json, sys
import etalab.cli
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert etalab.cli.main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "scipy")))
"""


def loaded_scipy(*commands) -> list:
    code = LOADED_SCIPY.format(commands=[c.split() for c in commands])
    return json.loads(run_python(code))


# ---------------------------------------------------------------------------
# lazy scipy and the thread cap
# ---------------------------------------------------------------------------


def test_importing_the_cli_loads_no_scipy():
    assert loaded_scipy() == []


def test_commands_that_never_integrate_load_no_scipy():
    assert loaded_scipy("gap", "norms operator.kind=two_band",
                        "cocycle-check") == []


def test_free_gap_loads_only_the_sparse_package():
    # The weighted Schur enclosure needs no sparse matrix, and no module of
    # src imports scipy, so the free-group certificate loads none at all.
    mods = loaded_scipy("gap operator.kind=free")
    subpackages = {m.split(".")[1] for m in mods if "." in m}
    assert not subpackages - {"sparse"}
    assert mods == []


def test_free_group_calculus_loads_no_scipy():
    # the F_r calculus gathers along integer neighbour tables, without
    # scipy.sparse
    code = ("import json, sys\n"
            "from etalab.operators import SchwartzFunction, free_group_model\n"
            "res = free_group_model().functional_calculus(\n"
            "    SchwartzFunction('gauss', 1.0), 2, 1e-4)\n"
            "assert res.converged and len(res.element.keys) == 17\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m.split('.')[0] == 'scipy')))")
    assert json.loads(run_python(code)) == []


def test_scalar_lattice_pairing_loads_no_signal_package():
    mods = loaded_scipy(
        "higher-eta cocycle.kind=coboundary_of_delocalized class.element=1")
    assert mods == []


def test_thread_cap_is_in_the_environment_before_numpy_loads():
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    env["ETALAB_THREADS"] = "1"
    code = ("import os, sys\n"
            "import etalab.cli\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'),"
            " os.environ.get('OMP_NUM_THREADS'), 'numpy' in sys.modules)")
    assert run_python(code, env).split() == ["1", "1", "True"]


# ---------------------------------------------------------------------------
# per-operator spectral cache
# ---------------------------------------------------------------------------


def three_band_symbol() -> FourierSymbolOperator:
    """A 3x3 Hermitian symbol on Z, which takes the ``eigh`` route."""
    A0 = np.array([[2.0, 0.3, 0.0], [0.3, -1.5, 0.2j], [0.0, -0.2j, 3.0]],
                  dtype=complex)
    A1 = np.array([[0.4, 0.1, 0.0], [0.0, -0.3, 0.1], [0.2, 0.0, 0.5]],
                  dtype=complex)
    coeffs = {(0,): A0, (1,): A1, (-1,): A1.conj().T}
    return FourierSymbolOperator(AlgebraElement(FreeAbelianGroup(1), 3,
                                                coeffs))


OPERATORS = {
    "laplace": lattice_laplace_symbol,
    "two_band": two_band_chern_symbol,
    "three_band": three_band_symbol,
    "anisotropic3d": anisotropic_symbol_3d,
}


def wrapped_box_channel(op, n, i, k):
    """``D_ik`` on the n^d grid: one ``ifftn`` of the whole box of
    ``A_g[i, k]`` added at ``g mod n``."""
    box = np.zeros((n,) * op.rank, dtype=complex)
    for g, A in zip(op.element.keys, op.element.blocks):
        box[tuple(x % n for x in g)] += A[i, k]
    return np.fft.ifftn(box, norm="forward")


def uncached_apply_on_grid(op, f, nodes):
    """f(D(theta)) built anew for one f, as before the cache, with the
    entry planes last."""
    D = np.stack([np.stack([wrapped_box_channel(op, nodes, i, k)
                            for k in range(op.dim)], -1)
                  for i in range(op.dim)], -2)
    if op.dim == 1:
        return f(D[..., 0, 0].real)[..., None, None]
    if op.dim == 2:
        mu = 0.5 * (D[..., 0, 0] + D[..., 1, 1]).real
        delta = 0.5 * (D[..., 0, 0] - D[..., 1, 1]).real
        b = D[..., 0, 1]
        r = np.sqrt(delta * delta + (b * b.conj()).real)
        f_plus = f(mu + r)
        f_minus = f(mu - r)
        even = 0.5 * (f_plus + f_minus)
        odd = 0.5 * (f_plus - f_minus) / np.maximum(r, 1e-300)
        out = np.empty_like(D)
        out[..., 0, 0] = even + odd * delta
        out[..., 1, 1] = even - odd * delta
        out[..., 0, 1] = odd * b
        out[..., 1, 0] = odd * b.conj()
        return out
    lam, U = np.linalg.eigh(D)
    return np.einsum("...ij,...j,...kj->...ik", U, f(lam), np.conj(U))


def assert_same_element(a: AlgebraElement, b: AlgebraElement):
    assert list(a.coeffs) == list(b.coeffs)
    for g in a.coeffs:
        assert np.array_equal(a.coeffs[g], b.coeffs[g]), g


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_grid_values_match_the_uncached_route(name):
    op = OPERATORS[name]()
    nodes = 12 if op.rank == 3 else 24
    for f in (SchwartzFunction("xgauss", 0.7), SchwartzFunction("gauss", 2.0),
              SchwartzFunction("ut_minus_1", 1.3)):
        assert np.array_equal(op._apply_on_grid(f, nodes), np.moveaxis(
            uncached_apply_on_grid(op, f, nodes), (-2, -1), (0, 1)))


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_warm_cache_gives_the_fresh_result(name):
    make = OPERATORS[name]
    R = 2 if name == "anisotropic3d" else 3
    f = SchwartzFunction("xgauss", 0.8)
    fresh = make().functional_calculus(f, R, 1e-8)
    warm = make()
    warm.functional_calculus(SchwartzFunction("gauss", 1.7), R, 1e-8)
    cached = dict(warm._spectra)
    again = warm.functional_calculus(f, R, 1e-8)
    assert again.error == fresh.error
    assert again.diagnostics == fresh.diagnostics
    assert_same_element(again.element, fresh.element)
    assert all(warm._spectra[n] is spectrum for n, spectrum in cached.items())


def test_spectrum_is_built_once_per_node_count(monkeypatch):
    op = three_band_symbol()
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    first = op.functional_calculus(SchwartzFunction("xgauss", 0.5), 2, 1e-8)
    levels = first.diagnostics["levels"]
    assert len(calls) == len(levels)
    assert sorted(op._spectra) == sorted(levels)
    cached = {n: op._spectra[n] for n in levels}
    second = op.functional_calculus(SchwartzFunction("xgauss", 2.5), 2,
                                    1e-8)
    new_levels = set(second.diagnostics["levels"]) - set(levels)
    assert len(calls) == len(levels) + len(new_levels)
    assert all(op._spectra[n] is cached[n] for n in levels)


# ---------------------------------------------------------------------------
# vectorised word-length ball
# ---------------------------------------------------------------------------


def scalar_lattice_symbol(rank: int) -> FourierSymbolOperator:
    """``rank + 1 + sum_k cos theta_k`` on Z^rank: gapped, scalar."""
    group = FreeAbelianGroup(rank)
    coeffs = {(0,) * rank: np.array([[rank + 1.0]])}
    for k in range(rank):
        e = [0] * rank
        e[k] = 1
        coeffs[tuple(e)] = np.array([[0.5]])
        e[k] = -1
        coeffs[tuple(e)] = np.array([[0.5]])
    return FourierSymbolOperator(AlgebraElement(group, 1, coeffs))


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_ball_cut_keeps_the_keys_and_order_of_the_loop(rank):
    R = 3 if rank < 3 else 2
    op = scalar_lattice_symbol(rank)
    f = SchwartzFunction("gauss", 0.9)
    res = op.functional_calculus(f, R, 1e-8)
    box, _ = op._coefficient_box(f, R, res.diagnostics["levels"][-1])
    loop = {}
    for idx in np.ndindex(*(2 * R + 1,) * rank):
        g = tuple(int(i) - R for i in idx)
        if op.group.word_length(g) <= R:
            loop[g] = box[idx]
    assert_same_element(res.element, AlgebraElement(op.group, 1, loop))
    for g in res.element.coeffs:
        assert all(type(x) is int for x in g)


def test_symbol_gap_certificates_load_no_scipy():
    assert loaded_scipy("gap operator.kind=two_band",
                        "gap operator.kind=wilson") == []
