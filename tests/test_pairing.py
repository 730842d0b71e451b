"""Boundary loops, the two-route pairing identity, and locality vanishing.

Oracles used here are independent of the production routes:

* central binomial coefficients against adaptive quadrature of the
  scalar loop integrand;
* character orthogonality closed forms chi(h)/N for cyclic projectors;
* the Berry-curvature integral of the two-band symbol, computed in
  frequency space with spectral derivatives (the production pairing
  works through lattice convolutions; the two meet only at the symbol);
* exact unit, triangular, and identity-supported idempotents whose
  pairings vanish or equal -2 in closed form;
* support arithmetic: loop-leg products cannot reach a class longer
  than (2m + 1) times the propagation radius.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest

import etalab.pairing as pairing
from etalab.cyclic import (
    Idempotent,
    area_cocycle,
    class_trace_cochain,
    pair_phi_tr,
    periodicity,
)
from etalab.errors import PreconditionError
from etalab.eta import loop_coefficient, tau_pair
from etalab.group_algebra import AlgebraElement, convolve
from etalab.groups import CyclicGroup, FreeAbelianGroup
from etalab.operators import (
    FourierSymbolOperator,
    two_band_chern_symbol,
)
from etalab.pairing import (
    BoundaryLoop,
    boundary_identity,
    character_projector,
    fermi_projection,
    scalar_loop_integral,
    shipped_pairing_fixtures,
)

_memo: dict = {}


def fermi_fixture() -> Idempotent:
    if "fermi" not in _memo:
        _memo["fermi"] = fermi_projection(two_band_chern_symbol())
    return _memo["fermi"]


def fermi_report() -> dict:
    if "report" not in _memo:
        phi = area_cocycle(FreeAbelianGroup(2), (0, 0))
        _memo["report"] = boundary_identity(phi, fermi_fixture(), tol=1e-6)
    return _memo["report"]


def far_shift_cochain():
    """Degree-2 delocalized cochain on Z^2 with minimal class length 10."""
    z2 = FreeAbelianGroup(2)
    return periodicity(class_trace_cochain(z2.conjugacy_class((5, 5))))


def sheared_idempotent() -> Idempotent:
    """Exact non-Hermitian idempotent of propagation radius 1 on Z^2."""
    z2 = FreeAbelianGroup(2)
    shear = np.zeros((2, 2), dtype=complex)
    shear[0, 1] = 0.7
    return Idempotent(AlgebraElement(
        z2, 2, {(0, 0): np.array([[1.0, 0.0], [0.0, 0.0]]), (1, 0): shear}))


# ---------------------------------------------------------------------------
# scalar loop integrals
# ---------------------------------------------------------------------------


class TestScalarLoopIntegral:
    def test_matches_central_binomials(self):
        for m in range(9):
            got = scalar_loop_integral(m)
            assert abs(got - math.comb(2 * m, m)) <= 1e-10

    def test_rejects_bad_powers(self):
        with pytest.raises(PreconditionError):
            scalar_loop_integral(-1)
        with pytest.raises(PreconditionError):
            scalar_loop_integral(1.5)


# ---------------------------------------------------------------------------
# the boundary loop
# ---------------------------------------------------------------------------


class TestBoundaryLoop:
    def test_closes_at_unit_exactly(self):
        assert loop_coefficient(1.0) == 0.0

    def test_certificate_always_covers_the_start(self):
        loop = BoundaryLoop.build(character_projector())
        assert loop.certificate["start_defect"] <= 1e-12

    def test_start_closure_within_tight_tolerance(self):
        for p in (character_projector(), sheared_idempotent(),
                  fermi_fixture()):
            loop = BoundaryLoop.build(p)
            assert loop.certificate["start_defect"] <= 1e-12
            assert loop.certificate["max_defect"] <= 1e-10

    def test_defect_above_tolerance_rejected(self):
        # the Fermi loop's inverse defect is bounded by about 6e-12
        with pytest.raises(PreconditionError, match="inverse defect"), \
                mock.patch.object(pairing, "_LOOP_TOL", 1e-30):
            BoundaryLoop.build(fermi_fixture())

    @pytest.mark.parametrize("index", range(6))
    def test_closed_form_bounds_the_defect_at_every_sampled_t(self, index):
        # the split |c + conj c + |c|^2| ||p||_1 + |c|^2 ||p^2 - p||_1 of the
        # defect at the computed c(t) (triangle inequality), at the ends,
        # the middle (|c| = 2) and 200 seeded t, never exceeds the bound the
        # loop certifies for all t
        p = shipped_pairing_fixtures()[index][2]
        norm_p, norm_defect = p.trace_norms
        bound = BoundaryLoop.build(p).certificate["max_defect"]
        ts = [0.0, 0.5, 1.0, *np.random.default_rng(index).uniform(size=200)]
        for t in ts:
            c = loop_coefficient(t)
            cc = c * c.conjugate()
            defect = (abs(c + c.conjugate() + cc) * norm_p
                      + abs(cc) * norm_defect)
            assert defect <= bound, (t, defect, bound)


# ---------------------------------------------------------------------------
# the two-route identity
# ---------------------------------------------------------------------------


class TestBoundaryIdentity:
    def test_character_projector_closed_form(self):
        tr1 = class_trace_cochain(CyclicGroup(5).conjugacy_class(1))
        report = boundary_identity(tr1, character_projector(), tol=1e-8)
        want = -2.0 * np.exp(2j * np.pi / 5) / 5.0
        assert abs(report["lhs"] - want) <= 1e-12
        assert abs(report["rhs"] - want) <= 1e-12
        assert report["verdict"]

    def test_shifted_route_agrees_with_degree_zero(self):
        tr1 = class_trace_cochain(CyclicGroup(5).conjugacy_class(1))
        flat = boundary_identity(tr1, character_projector(), tol=1e-8)
        lifted = boundary_identity(periodicity(tr1), character_projector(),
                                   tol=1e-8)
        assert lifted["difference"] <= 1e-10
        assert abs(lifted["lhs"] - flat["lhs"]) <= 1e-10

    def test_scalar_unit_pairs_to_minus_two(self):
        z1 = FreeAbelianGroup(1)
        unit = Idempotent(AlgebraElement(z1, 1, {(0,): np.array([[1.0]])}))
        triv = class_trace_cochain(z1.conjugacy_class((0,)))
        report = boundary_identity(triv, unit, tol=1e-10)
        assert abs(report["lhs"] + 2.0) <= 1e-12
        assert abs(report["rhs"] + 2.0) <= 1e-12

    def test_fermi_projection_identity_and_unit_chern(self):
        report = fermi_report()
        assert report["difference"] <= 1e-6
        assert report["verdict"]
        # closed forms of the twisted two-band model: ch = -i/pi, so the
        # loop pairing is +2i/pi.
        assert abs(report["rhs"] - 2j / math.pi) <= 1e-9
        assert abs(report["lhs"] - 2j / math.pi) <= 1e-6

    def test_area_pairing_matches_berry_curvature_oracle(self):
        p = fermi_fixture()
        phi = area_cocycle(FreeAbelianGroup(2), (0, 0))
        produced = pair_phi_tr(phi, [p.element] * 3)

        N = 128
        theta = 2.0 * np.pi * np.arange(N) / N
        H = np.zeros((N, N, 2, 2), dtype=complex)
        for g, A in two_band_chern_symbol().element.coeffs.items():
            phase = np.exp(1j * (g[0] * theta[:, None]
                                 + g[1] * theta[None, :]))
            H += phase[:, :, None, None] * A
        lam, V = np.linalg.eigh(H)
        P = np.einsum("...ik,...k,...jk->...ij", V,
                      (lam < 0).astype(float), V.conj())
        freq = np.fft.fftfreq(N, d=1.0 / N)
        Pf = np.fft.fftn(P, axes=(0, 1))
        dPx = np.fft.ifftn(1j * freq[:, None, None, None] * Pf, axes=(0, 1))
        dPy = np.fft.ifftn(1j * freq[None, :, None, None] * Pf, axes=(0, 1))
        comm = dPx @ dPy - dPy @ dPx
        integral = (np.einsum("...ij,...ji->...", P, comm).sum()
                    * (2.0 * np.pi / N) ** 2)
        oracle = -integral / (2.0 * np.pi) ** 2
        assert abs(produced - oracle) <= 1e-9
        assert abs(produced - (-1j / (2.0 * math.pi))) <= 1e-9
        # the raw curvature integral is 2 pi i times the unit Chern number
        assert abs(integral - 2j * np.pi) <= 1e-9

    def test_routes_meet_only_at_the_pairing_primitive(self, monkeypatch):
        calls = {"tau": 0, "chern": 0}
        real_tau, real_chern = pairing.tau_pair, pairing.connes_chern

        def counted_tau(*args, **kwargs):
            calls["tau"] += 1
            return real_tau(*args, **kwargs)

        def counted_chern(*args, **kwargs):
            calls["chern"] += 1
            return real_chern(*args, **kwargs)

        monkeypatch.setattr(pairing, "tau_pair", counted_tau)
        monkeypatch.setattr(pairing, "connes_chern", counted_chern)
        tr1 = class_trace_cochain(CyclicGroup(5).conjugacy_class(1))
        report = boundary_identity(tr1, character_projector(), tol=1e-8)
        assert calls == {"tau": 1, "chern": 1}
        assert report["verdict"]

    def test_all_shipped_fixtures_verify(self):
        fixtures = shipped_pairing_fixtures()
        assert len(fixtures) == 6
        assert len({name for name, _, _ in fixtures}) == 6
        for name, phi, p in fixtures:
            report = boundary_identity(phi, p, tol=1e-6)
            assert report["verdict"], name
            assert report["difference"] <= 1e-6, name


# ---------------------------------------------------------------------------
# locality vanishing
# ---------------------------------------------------------------------------


class TestLocalLoopVanishing:
    """The degree-2m pairing touches products of 2m + 1 loop legs, each
    supported in the ball of the idempotent's propagation radius; when they
    cannot reach the class, the loop pairs to zero."""

    @staticmethod
    def reach_and_value(p: Idempotent, tol: float) -> tuple:
        phi = far_shift_cochain()
        reach = (phi.degree + 1) * p.propagation_radius
        assert reach < phi.support_class.minimal_length() == 10
        return reach, tau_pair(phi, p, tol=tol)

    def test_identity_supported_projector_vanishes(self):
        z2 = FreeAbelianGroup(2)
        local = Idempotent(AlgebraElement(
            z2, 2, {(0, 0): np.array([[1.0, 0.0], [0.0, 0.0]])}))
        reach, value = self.reach_and_value(local, 1e-12)
        assert reach == 0
        assert abs(value) <= 1e-12

    def test_radius_one_loop_vanishes(self):
        reach, value = self.reach_and_value(sheared_idempotent(), 1e-10)
        assert reach == 3
        assert abs(value) <= 1e-10


# ---------------------------------------------------------------------------
# Fermi projections
# ---------------------------------------------------------------------------


class TestFermiProjection:
    def test_idempotent_within_tolerance(self):
        p = fermi_fixture()
        assert p.defect <= 1e-12
        el = p.element
        defect = (convolve(el, el) - el).max_abs()
        assert defect <= 1e-12

    def test_coefficients_are_hermitian_symmetric(self):
        el = fermi_fixture().element
        group = el.group
        for g, block in el.coeffs.items():
            mirror = el.coeffs.get(group.inverse(g))
            assert mirror is not None
            np.testing.assert_allclose(block.conj().T, mirror, atol=1e-13)

    def test_rejects_gapless_symbol(self):
        z1 = FreeAbelianGroup(1)
        gapless = FourierSymbolOperator(AlgebraElement(
            z1, 1, {(1,): np.array([[0.5]]), (-1,): np.array([[0.5]])}))
        with pytest.raises(PreconditionError, match="gap"):
            fermi_projection(gapless)

    def test_rejects_non_lattice_models(self):
        from etalab.operators import free_group_model
        with pytest.raises(PreconditionError, match="lattice"):
            fermi_projection(free_group_model())
