"""The boundary loop in symmetric node pairs, the slot-checked transform
cache, one cocycle check per cochain, and a lattice Chern number oracle.

Oracles used here share no code with the route under test:

* single-node evaluations of the loop integrand against its pair hook;
* a pairing through a fresh cache against one through a cache with
  planted entries under the slots' ids;
* the Chern number of Fukui, Hatsugai & Suzuki (J. Phys. Soc. Jpn. 74,
  1674 (2005)): plaquette phases of U(1) links of the negative-band
  eigenvectors of the symbol on a coarse grid, with no FFT, functional
  calculus, quadrature or cochain. The area pairing of the Fermi
  projection is that Chern number (Bellissard, van Elst & Schulz-Baldes,
  J. Math. Phys. 35, 5373 (1994)), so the loop pairs to 2i/pi times it.
"""

from __future__ import annotations

import contextlib
import io
import math

import numpy as np
import pytest

import etalab.cyclic as cyclic
import etalab.eta as eta_module
from etalab.cli import main
from etalab.cyclic import area_cocycle, max_cocycle_violation
from etalab.group_algebra import AlgebraElement
from etalab.groups import FreeAbelianGroup
from etalab.operators import two_band_chern_symbol
from etalab.pairing import (
    boundary_identity,
    fermi_projection,
    shipped_pairing_fixtures,
)
from etalab.quadpack import QK21

Z2 = FreeAbelianGroup(2)
EPS = np.finfo(float).eps


def symmetric_pairs() -> list:
    """The ten symmetric node pairs of the 21-point rule on [0, 1], as
    QUADPACK forms them (centre minus and plus the scaled abscissa)."""
    return [(0.5 - 0.5 * x, 0.5 + 0.5 * x) for x in QK21[0][:-1]]


def qk21_nodes() -> list:
    return sorted([0.5] + [t for pair in symmetric_pairs() for t in pair])


def random_element(group, radius, seed, dim=2):
    rng = np.random.default_rng(seed)
    return AlgebraElement.from_terms(group, [
        (g, rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        for g in group.ball(radius)], dim=dim)


# ---------------------------------------------------------------------------
# the pair hook of the loop integrand
# ---------------------------------------------------------------------------


def test_every_symmetric_pair_sums_to_one_exactly():
    assert all(t1 + t2 == 1.0 for t1, t2 in symmetric_pairs())


@pytest.mark.parametrize("index", range(6))
def test_pairs_equal_two_single_nodes_on_every_fixture(index):
    _, phi, p = shipped_pairing_fixtures()[index]
    g = eta_module._loop_integrand(phi, p, phi.degree // 2)
    paired, single = zip(*[(g.pair(t1, t2), (g(t1), g(t2)))
                           for t1, t2 in symmetric_pairs()])
    paired, single = np.array(paired), np.array(single)
    scale = np.abs(single).max()  # of the integrand over all 20 nodes
    # the lower node is the single-node evaluation; the upper one takes
    # c(t2) as conj c(t1), which moves it at rounding level
    assert (paired[:, 0] == single[:, 0]).all()
    assert np.abs(paired[:, 1] - single[:, 1]).max() <= 4.0 * EPS * scale


def test_a_pair_that_is_not_symmetric_takes_two_single_nodes(monkeypatch):
    _, phi, p = shipped_pairing_fixtures()[5]
    g = eta_module._loop_integrand(phi, p, 1)
    ts: list = []
    real = eta_module.loop_coefficient

    def recorded(t):
        ts.append(t)
        return real(t)

    monkeypatch.setattr(eta_module, "loop_coefficient", recorded)
    pair = g.pair(0.1, 0.3)
    assert ts == [0.1, 0.3]
    assert pair == (g(0.1), g(0.3))
    ts.clear()
    t1, t2 = symmetric_pairs()[0]
    g.pair(t1, t2)
    assert ts == [t1]


@pytest.mark.parametrize("index", range(6))
def test_one_pairing_per_node_at_the_21_rule_nodes(monkeypatch, index):
    _, phi, p = shipped_pairing_fixtures()[index]
    calls, nodes = [], []
    real_pair, real_quad = eta_module.pair_phi_tr, eta_module._complex_quad

    def counted(phi, slots, **kwargs):
        calls.append(1)
        return real_pair(phi, slots, **kwargs)

    def recording(func, a, b, **kwargs):
        def g(t):
            nodes.append(t)
            return func(t)

        def pair(t1, t2):
            nodes.extend((t1, t2))
            return func.pair(t1, t2)

        g.pair = pair
        return real_quad(g, a, b, **kwargs)

    monkeypatch.setattr(eta_module, "pair_phi_tr", counted)
    monkeypatch.setattr(eta_module, "_complex_quad", recording)
    eta_module.tau_pair(phi, p, tol=1e-6 / 4.0)
    assert sorted(nodes) == qk21_nodes()
    assert len(calls) == 21


# ---------------------------------------------------------------------------
# transform caches check the slot, not only its id
# ---------------------------------------------------------------------------


def test_a_planted_entry_under_a_slot_id_is_not_used():
    phi = area_cocycle(Z2, (0, 0))
    ws_a = [random_element(Z2, 2, seed) for seed in range(3)]
    ws_b = [w * (1.5 - 0.5j) for w in ws_a]  # same boxes, new objects
    truth = phi.pair_separable(ws_b)
    assert truth != phi.pair_separable(ws_a)
    cache_a: dict = {}
    phi.pair_separable(ws_a, box_cache=cache_a)
    swap = {id(a): id(b) for a, b in zip(ws_a, ws_b)}
    planted = {(key[0], swap[key[1]]) + key[2:]: entry
               for key, entry in cache_a.items()}
    assert len(planted) == len(cache_a) == 8  # 3 boxes, 5 transforms
    assert phi.pair_separable(ws_b, box_cache=planted) == truth
    assert all(entry[0] in ws_b for entry in planted.values())


def test_a_planted_grid_norm_under_a_slot_id_is_not_used():
    phi = area_cocycle(Z2, (0, 0))
    rng = np.random.default_rng(4)
    ws = [rng.normal(size=(2, 2, 12, 12)) + 1j * rng.normal(size=(2, 2, 12, 12))
          for _ in range(3)]
    fresh = {"delta": 1e-3}
    value = phi.pair_grid(ws, box_cache=fresh)
    stranger = object()
    planted = {"delta": 1e-3, "norms": {
        (id(w), id(fn)): (stranger, (9.0, 9.0))
        for w in ws for _, fs in phi.terms for fn in fs}}
    assert phi.pair_grid(ws, box_cache=planted) == value
    assert planted["terms"] == fresh["terms"]


# ---------------------------------------------------------------------------
# one cocycle check per cochain and sample
# ---------------------------------------------------------------------------


def counted_coboundaries(monkeypatch) -> list:
    seen: list = []
    real = cyclic.coboundary

    def counted(phi):
        seen.append(phi)
        return real(phi)

    monkeypatch.setattr(cyclic, "coboundary", counted)
    return seen


def test_boundary_check_checks_each_cochain_once(monkeypatch):
    seen = counted_coboundaries(monkeypatch)
    shipped_pairing_fixtures.cache_clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(["boundary-check"]) == 0
    assert '"failures": []' in out.getvalue()
    # three checks when the fixtures are built, and one for each of the
    # three cochains those do not cover (six connes_chern calls)
    assert len(seen) == 6
    assert all(a is not b for i, a in enumerate(seen) for b in seen[:i])


def test_an_exhaustive_check_is_kept_whatever_the_samples_and_seed(
        monkeypatch):
    seen = counted_coboundaries(monkeypatch)
    phi = area_cocycle(Z2, (0, 0), certify=False)
    first = max_cocycle_violation(phi, radius=2, samples=200, seed=0)
    assert max_cocycle_violation(phi, radius=2, samples=400, seed=5) is first
    assert len(seen) == 1
    assert max_cocycle_violation(phi, radius=1) is not first  # new sample
    assert len(seen) == 2


def test_a_sampled_check_is_kept_per_samples_and_seed(monkeypatch):
    seen = counted_coboundaries(monkeypatch)
    phi = area_cocycle(FreeAbelianGroup(3), (0, 0, 0), certify=False)
    first = max_cocycle_violation(phi, radius=2, samples=50, seed=0)
    max_cocycle_violation(phi, radius=2, samples=50, seed=1)
    max_cocycle_violation(phi, radius=2, samples=60, seed=0)
    assert len(seen) == 3
    assert max_cocycle_violation(phi, radius=2, samples=50, seed=0) is first
    assert len(seen) == 3


# ---------------------------------------------------------------------------
# the Fermi loop against the lattice Chern number
# ---------------------------------------------------------------------------


def fhs_chern_number(symbol, n: int) -> float:
    """Fukui-Hatsugai-Suzuki Chern number of the negative band of a 2x2
    symbol ``sum_g A_g e^{i g.theta}`` on the n^2 grid."""
    theta = 2.0 * np.pi * np.arange(n) / n
    H = np.zeros((n, n, 2, 2), dtype=complex)
    for g, A in symbol.element.coeffs.items():
        H += np.exp(1j * (g[0] * theta[:, None]
                          + g[1] * theta[None, :]))[..., None, None] * A
    _, V = np.linalg.eigh(H)
    u = V[..., 0]  # eigenvector of the lower eigenvalue

    def link(axis):
        z = np.einsum("...i,...i->...", u.conj(), np.roll(u, -1, axis=axis))
        return z / np.abs(z)

    U1, U2 = link(0), link(1)
    flux = np.angle(U1 * np.roll(U2, -1, axis=0)
                    / (np.roll(U1, -1, axis=1) * U2))
    return float(flux.sum() / (2.0 * np.pi))


@pytest.mark.parametrize("mass, chern", [(-1.0, -1), (0.5, 1), (3.0, 0)])
def test_fermi_loop_pairs_to_its_chern_number(mass, chern):
    symbol = two_band_chern_symbol(mass)
    c16, c8 = fhs_chern_number(symbol, 16), fhs_chern_number(symbol, 8)
    assert abs(c16 - round(c16)) <= 1e-9 and round(c16) == round(c8)
    assert round(c16) == chern
    tol = 1e-6  # the CLI's pairing.tol
    report = boundary_identity(area_cocycle(Z2, (0, 0)),
                               fermi_projection(symbol), tol=tol)
    target = 2j / math.pi * round(c16)
    assert abs(report["lhs"] - target) <= tol
    assert abs(report["rhs"] - target) <= tol
