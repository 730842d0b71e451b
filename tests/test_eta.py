"""Eta invariants: certified quadrature, thresholds, and path pairings.

Oracles used here are independent of the production routes:

* dense eigendecomposition of full cover matrices with deck-translate
  sign sums (production integrates certified class traces in time);
* QUADPACK integration of explicit Fourier-side formulas in theta
  (production evaluates symbols on uniform FFT grids);
* closed forms: constant-signature vanishing, Taylor coefficients of
  the small-time limit, the unit pairing 2i/pi of the twisted two-band
  model, and the exact loop pairing -2 tr(p) of character projectors;
* the Fukui-Hatsugai-Suzuki lattice Chern number C of two-band symbols,
  plain and perturbed, against their area eta (2i/pi) C;
* central finite differences of the transgressed slot functional
  against the engine integrand;
* the ball route at radius 32 (functional-calculus elements paired by
  ``pair_phi_tr``) against the Z^d grid engine, which shares no pairing
  code with it.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from scipy.integrate import quad

from etalab.cyclic import (
    CochainGrowth,
    CyclicCochain,
    Idempotent,
    area_cocycle,
    class_trace_cochain,
    coboundary,
    pair_phi_tr,
    periodicity,
    random_delocalized_cochain,
    table_cochain,
)
from etalab.errors import PreconditionError
from etalab.eta import (
    GapThreshold,
    _build_integrand,
    eta_class,
    eta_higher,
    gap_thresholds,
    tau_pair,
    threshold_sigma,
)
from etalab.group_algebra import AlgebraElement
from etalab.groups import CyclicGroup, FreeAbelianGroup, FreeGroup
from etalab.operators import (
    FiniteCoverOperator,
    FourierSymbolOperator,
    GapCertificate,
    SchwartzFunction,
    class_trace,
    free_group_model,
    gapped_cover_model,
    lattice_laplace_symbol,
    two_band_chern_symbol,
    wilson_symbol,
)
from etalab.pairing import BoundaryLoop
from test_loop_pairs import fhs_chern_number


def sign_sum_eta(op: FiniteCoverOperator, cls) -> complex:
    """Deck-translate sign sum on the full cover eigensystem:
    sum over class members g of (1/|G|) sum_j sign(lam_j) <psi_j, U_g* psi_j>.
    """
    lam, V = op.eigensystem()
    signs = np.sign(lam)
    total = 0.0 + 0.0j
    for g in op.elements:
        if not cls.contains(g):
            continue
        U = op.deck_matrix(g)
        diag = np.einsum("ij,ij->j", V.conj(), U.conj().T @ V)
        total += np.sum(signs * diag) / len(op.elements)
    return complex(total)


def perturbed(symbol: FourierSymbolOperator, keys, seed: int,
              size: float = 0.05) -> FourierSymbolOperator:
    """``symbol`` plus a seeded coupling of operator norm ``size`` at each
    of ``keys``, with ``A_{-g} = A_g^*`` so that D stays Hermitian (a key
    that is its own negative gets a Hermitian block)."""
    rng = np.random.default_rng(seed)
    coeffs = dict(symbol.element.coeffs)
    for g in keys:
        B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        minus = tuple(-x for x in g)
        if minus == g:
            B = B + B.conj().T
        B *= size / np.linalg.norm(B, 2)
        coeffs[g] = coeffs.get(g, 0.0) + B
        if minus != g:
            coeffs[minus] = coeffs.get(minus, 0.0) + B.conj().T
    return FourierSymbolOperator(AlgebraElement(symbol.element.group, 2, coeffs))


def z_class(n: int):
    return FreeAbelianGroup(1).conjugacy_class((n,))


def laplace_mode_oracle(t: float, n: int) -> float:
    """Fourier mode n of sigma(theta) exp(-t^2 sigma(theta)^2) for the
    scalar symbol sigma = 2 + cos(theta), by adaptive quadrature."""
    def f(theta):
        s = 2.0 + math.cos(theta)
        return s * math.exp(-(t * s) ** 2) * math.cos(n * theta)

    val, _ = quad(f, 0.0, 2.0 * math.pi, limit=400, epsabs=1e-13)
    return val / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# finite covers against the sign-sum oracle
# ---------------------------------------------------------------------------


class TestRandomCoverEta:
    def test_matches_deck_sign_sum_oracle(self):
        for seed in range(5):
            op = gapped_cover_model(seed)
            cls = op.element.group.conjugacy_class(1)
            report = eta_class(op, cls, tol=1e-8)
            oracle = sign_sum_eta(op, cls)
            assert abs(report.value - oracle) <= 1e-6
            assert report.error <= 1e-6
            assert report.converged
            assert report.verdict

    def test_values_are_genuinely_nonzero(self):
        got = []
        for seed in (1, 2, 4):
            op = gapped_cover_model(seed)
            cls = op.element.group.conjugacy_class(1)
            got.append(abs(eta_class(op, cls, tol=1e-8).value))
        assert min(got) > 0.3

    def test_models_stay_inside_the_stated_envelope(self):
        for seed in range(5):
            op = gapped_cover_model(seed)
            lam, _ = op.eigensystem()
            assert len(op.elements) <= 6
            assert len(lam) <= 60
            assert np.abs(lam).min() > 0.1

    def test_trivial_class_rejected(self):
        op = gapped_cover_model(0)
        cls = op.element.group.conjugacy_class(0)
        with pytest.raises(PreconditionError, match="nontrivial"):
            eta_class(op, cls, tol=1e-8)

    def test_class_on_wrong_group_rejected(self):
        op = gapped_cover_model(0)
        with pytest.raises(PreconditionError, match="group"):
            eta_class(op, z_class(1), tol=1e-8)

    def test_nonpositive_gap_rejected(self):
        op = gapped_cover_model(0)
        cls = op.element.group.conjugacy_class(1)
        zero = GapCertificate(0.0, "zero")
        with pytest.raises(PreconditionError, match="not positive"), \
                mock.patch.object(op, "gap_certificate", return_value=zero):
            eta_class(op, cls, tol=1e-8)


# ---------------------------------------------------------------------------
# lattice symbols against Fourier-side oracles
# ---------------------------------------------------------------------------


class TestSymbolEta:
    def test_chiral_symbol_eta_vanishes(self):
        op = wilson_symbol()
        for n in (1, 3):
            report = eta_class(op, z_class(n), tol=1e-8)
            assert abs(report.value) <= 1e-9
            assert report.converged

    def test_positive_symbol_eta_vanishes(self):
        # sign(2 + cos theta) is identically 1, so every delocalized
        # Fourier mode of the spectral signature is zero.
        report = eta_class(lattice_laplace_symbol(), z_class(1), tol=1e-8)
        assert abs(report.value) <= report.error
        assert report.error <= 1e-6
        assert report.converged
        assert report.verdict

    def test_class_integrand_matches_fourier_quadrature(self):
        op = lattice_laplace_symbol()
        cls = z_class(1)
        for t in (0.4, 1.1):
            res = class_trace(op, SchwartzFunction("xgauss", t), cls, 40,
                              tol=1e-12)
            assert abs(complex(res.value) - laplace_mode_oracle(t, 1)) <= 1e-9

    def test_small_time_limit_matches_taylor_coefficient(self):
        # D exp(-t^2 D^2) = D - t^2 D^3 + O(t^4); for sigma = 2 + cos theta
        # the first Fourier mode of sigma^3 is 6 + 3/8 = 6.375.
        t = 1e-3
        res = class_trace(lattice_laplace_symbol(),
                          SchwartzFunction("xgauss", t), z_class(1), 40,
                          tol=1e-12)
        want = 0.5 - t * t * 6.375
        assert abs(complex(res.value) - want) <= 1e-9

    def test_sample_bounds_dominate_values(self):
        for report in (
            eta_class(lattice_laplace_symbol(), z_class(1), tol=1e-8),
            eta_class(gapped_cover_model(2),
                      CyclicGroup(6).conjugacy_class(1), tol=1e-8),
        ):
            assert report.samples
            for t, value, bound in report.samples:
                assert abs(value) <= bound + 1e-12

    def test_report_schema_and_determinism(self):
        a = eta_class(lattice_laplace_symbol(), z_class(1), tol=1e-8)
        b = eta_class(lattice_laplace_symbol(), z_class(1), tol=1e-8)
        d = a.to_json_dict()
        assert set(d) == {"value", "error", "tail_bound", "threshold_verdict"}
        assert set(d["value"]) == {"re", "im"}
        assert d == b.to_json_dict()
        assert a.split_points[0] == 0.0
        assert a.split_points[1] == 1.0
        assert a.split_points[2] >= 1.0
        assert a.error == sum(a.interval_errors.values()) + a.tail_bound


# ---------------------------------------------------------------------------
# cocycle-weighted eta
# ---------------------------------------------------------------------------


class TestHigherEta:
    def test_degree_zero_reproduces_class_route(self):
        op = gapped_cover_model(2)
        cls = op.element.group.conjugacy_class(1)
        via_class = eta_class(op, cls, tol=1e-8).value
        via_engine = eta_higher(op, class_trace_cochain(cls), tol=1e-8).value
        assert abs(via_class - via_engine) <= 1e-8
        assert abs(via_class) > 0.3

    def test_coboundary_pairs_to_zero(self):
        op = lattice_laplace_symbol()
        group = FreeAbelianGroup(1)
        for seed in (0, 1):
            psi = random_delocalized_cochain(group, (3,), rate=0.12, seed=seed)
            report = eta_higher(op, coboundary(psi), tol=1e-6)
            assert abs(report.value) <= 1e-6
            assert report.converged
            assert report.verdict

    def test_twisted_two_band_area_pairing(self):
        op = two_band_chern_symbol()
        gap = float(op.gap_certificate())
        assert 0.98 <= gap <= 1.0
        phi = area_cocycle(FreeAbelianGroup(2), (0, 0))
        report = eta_higher(op, phi, tol=1e-6)
        assert abs(report.value - 2j / math.pi) <= 1e-6
        assert report.verdict

    @pytest.mark.parametrize("mass, keys, seed, chern", [
        (-1.0, (), None, -1), (0.5, (), None, 1), (2.5, (), None, 0),
        (1.0, ((1, 1), (1, -1)), 11, 1), (-1.0, ((0, 0),), 12, -1)])
    def test_area_eta_is_two_i_over_pi_times_the_chern_number(
            self, mass, keys, seed, chern):
        op = perturbed(two_band_chern_symbol(mass), keys, seed)
        c16, c8 = fhs_chern_number(op, 16), fhs_chern_number(op, 8)
        assert abs(c16 - round(c16)) <= 1e-9 and round(c16) == round(c8)
        assert round(c16) == chern
        report = eta_higher(op, area_cocycle(FreeAbelianGroup(2), (0, 0)),
                            tol=1e-6)
        assert abs(report.value - 2j / math.pi * round(c16)) <= report.error

    def test_transgression_matches_engine_integrand(self):
        # d/dt of the two-leg slot functional equals pi*i times the
        # prefactored degree-2 engine integrand of the coboundary.
        op = lattice_laplace_symbol()
        group = FreeAbelianGroup(1)
        psi = random_delocalized_cochain(group, (3,), rate=0.1, seed=3)
        bpsi = coboundary(psi)
        radius, h = 60, 1e-3

        def two_legs(t):
            a = op.functional_calculus(SchwartzFunction("ut_minus_1", t),
                                       radius, tol=1e-12).element
            b = op.functional_calculus(SchwartzFunction("ut_inv_minus_1", t),
                                       radius, tol=1e-12).element
            return pair_phi_tr(psi, [a, b])

        engine = _build_integrand(op, bpsi, 1, 1e-10, None)
        for t in (0.6, 1.0, 1.4):
            diff = (two_legs(t + h) - two_legs(t - h)) / (2.0 * h)
            assert abs(diff / (1j * math.pi * engine.value(t)[0]) - 1.0) \
                <= 1e-4

    def test_inverse_leg_runs_no_calculus_of_its_own(self, monkeypatch):
        # the inverse leg is the pointwise adjoint of the leg, so each grid
        # level of a node samples dot and the leg only, a memo hit samples
        # nothing, and the grid engine runs no ball calculus
        calls, sampled = [], []
        calculus = FourierSymbolOperator.functional_calculus
        apply_on_grid = FourierSymbolOperator._apply_on_grid

        def counted(*args, **kwargs):
            calls.append(args[1].tag)
            return calculus(*args, **kwargs)

        def on_grid(op, f, n):
            sampled.append(f.tag)
            return apply_on_grid(op, f, n)

        monkeypatch.setattr(FourierSymbolOperator, "functional_calculus",
                            counted)
        monkeypatch.setattr(FourierSymbolOperator, "_apply_on_grid", on_grid)
        area = _build_integrand(two_band_chern_symbol(),
                                area_cocycle(FreeAbelianGroup(2), (0, 0)),
                                1, 1e-6, None)
        area.value(0.7)
        levels = len(sampled) // 2
        assert levels >= 2
        assert sampled == ["udot_uinv", "ut_minus_1"] * levels
        sampled.clear()
        area.value(0.7)
        assert sampled == []
        trace = _build_integrand(lattice_laplace_symbol(),
                                 class_trace_cochain(z_class(1)), 0, 1e-8,
                                 None)
        trace.value(0.7)
        assert len(sampled) >= 2 and set(sampled) == {"udot_uinv"}
        assert calls == []

    @pytest.mark.parametrize("case", ["area", "shifted_trace", "coboundary"])
    def test_grid_sample_error_bounds_the_ball_oracle(self, case):
        # |grid engine value - ball route at radius 32| <= the sample's
        # certified error; the oracle takes the inverse leg from its own
        # calculus, not as an adjoint
        z1, z2 = FreeAbelianGroup(1), FreeAbelianGroup(2)
        op, phi = {
            "area": (two_band_chern_symbol(), area_cocycle(z2, (0, 0))),
            "shifted_trace": (lattice_laplace_symbol(), periodicity(
                class_trace_cochain(z_class(1)))),
            "coboundary": (lattice_laplace_symbol(), coboundary(
                random_delocalized_cochain(z1, (3,), rate=0.1, seed=3))),
        }[case]
        m = phi.degree // 2
        engine = _build_integrand(op, phi, m, 1e-8, None)
        for t in (0.25, 0.5, 1.0, 2.0, 3.0):
            value, errors = engine.value(t)

            def ball(tag):
                return op.functional_calculus(SchwartzFunction(tag, t), 32,
                                              tol=1e-13).element

            slots = [ball("udot_uinv")]
            slots += [ball("ut_minus_1"), ball("ut_inv_minus_1")] * m
            oracle = (math.factorial(m) / (math.pi * 1j)
                      * pair_phi_tr(phi, slots))
            assert abs(value - oracle) <= errors["calculus"], t

    def test_lattice_cochain_without_separable_reduction_rejected(self):
        table = table_cochain(FreeAbelianGroup(1), 0, {((1,),): 1.0},
                              growth=CochainGrowth("bounded", 1.0))
        with pytest.raises(PreconditionError, match="separable"):
            eta_higher(lattice_laplace_symbol(), table, tol=1e-6)

    def test_lattice_radius_rejected(self):
        phi = class_trace_cochain(z_class(1))
        with pytest.raises(PreconditionError, match="grid route"):
            eta_higher(lattice_laplace_symbol(), phi, tol=1e-6, radius=8)

    def test_lattice_rank_without_grid_ladder_rejected(self):
        # whole grids over Z^4 are capped at 32 points per axis, which
        # leaves one ladder level and no agreement to certify
        z4 = FreeAbelianGroup(4)
        op = FourierSymbolOperator(
            AlgebraElement(z4, 1, {(0, 0, 0, 0): np.array([[1.0]])}))
        phi = class_trace_cochain(z4.conjugacy_class((1, 0, 0, 0)))
        with pytest.raises(PreconditionError, match="ladder"):
            _build_integrand(op, phi, 0, 1e-6, None)

    def test_odd_degree_rejected(self):
        psi = random_delocalized_cochain(FreeAbelianGroup(1), (3,),
                                         rate=0.1, seed=0)
        with pytest.raises(PreconditionError, match="odd degree"):
            eta_higher(lattice_laplace_symbol(), psi, tol=1e-6)

    def test_missing_growth_certificate_rejected(self):
        bare = CyclicCochain(FreeAbelianGroup(1), 0, lambda args: 0.0)
        with pytest.raises(PreconditionError, match="growth"):
            eta_higher(lattice_laplace_symbol(), bare, tol=1e-6)


# ---------------------------------------------------------------------------
# gap thresholds
# ---------------------------------------------------------------------------


class TestThresholds:
    def test_sigma_formula(self):
        assert threshold_sigma(0.3, 2.0) == pytest.approx(1.2, rel=1e-14)
        assert threshold_sigma(0.0, 5.0) == 0.0

    def test_sigma_validation(self):
        with pytest.raises(PreconditionError):
            threshold_sigma(-0.1, 1.0)
        with pytest.raises(PreconditionError):
            threshold_sigma(0.1, -1.0)

    def test_lattice_groups_use_certified_zero_rate(self):
        op = lattice_laplace_symbol()
        phi = random_delocalized_cochain(FreeAbelianGroup(1), (3,),
                                         rate=0.1, seed=0)
        th = gap_thresholds(op, z_class(1), phi)
        assert th.constants["class_rate"] == 0.0
        assert th.constants["group_rate"] == 0.0
        assert th.sigma_class == 0.0
        want = threshold_sigma(0.1, th.constants["c_d"])
        assert th.sigma_cocycle == pytest.approx(want, rel=1e-12)
        assert th.class_ok
        assert th.cocycle_ok

    def test_free_group_rates_are_positive(self):
        op = free_group_model()
        cls = FreeGroup(2).conjugacy_class((1, 2))  # the word ab
        th = gap_thresholds(op, cls)
        assert th.constants["group_rate"] == math.log(3)
        assert th.sigma_class > 0.0
        assert th.class_ok == (th.gap > th.sigma_class)

    @pytest.mark.parametrize("word", ["a", "ab", "abAB"])
    def test_free_group_rates_are_exact(self, word):
        # every nontrivial class of F_2 grows like 3^(n/2), the group like
        # 3^n; sigma_class = log(3) c_D exceeds every gap <= ||D|| <= c_D
        op = free_group_model()
        cls = op.group.conjugacy_class(op.group.element_from_text(word))
        th = gap_thresholds(op, cls, gap=0.5)
        assert th.constants["class_rate"] == math.log(3) / 2
        assert th.constants["group_rate"] == math.log(3)
        assert th.sigma_class == math.log(3) * th.constants["c_d"]
        assert th.sigma_class > op.operator_norm_bound()
        assert not th.class_ok

    def test_cocycle_threshold_needs_growth(self):
        bare = CyclicCochain(FreeAbelianGroup(1), 0, lambda args: 0.0)
        with pytest.raises(PreconditionError, match="growth"):
            gap_thresholds(lattice_laplace_symbol(), z_class(1), bare)

    def test_cocycle_verdict_requires_cocycle_threshold(self):
        th = GapThreshold(sigma_class=0.0, sigma_cocycle=None, gap=1.0)
        with pytest.raises(PreconditionError):
            th.cocycle_ok


# ---------------------------------------------------------------------------
# tail envelopes
# ---------------------------------------------------------------------------


def fit_gaussian_decay(samples, *, t_min: float = 1.0) -> dict:
    """Fit ``|I(t)| <= C t^N exp(-delta^2 t^2)`` on integrand samples.

    Least squares in the log domain over samples with ``t >= t_min``;
    ``max_log_excess`` is the largest amount by which a sample overshoots
    the fitted envelope (soundness of the fit is this number being small).
    """
    ts = np.array([t for t, v, *_ in samples
                   if t >= t_min and abs(v) > 1e-300])
    vals = np.array([abs(v) for t, v, *_ in samples
                     if t >= t_min and abs(v) > 1e-300])
    if len(ts) < 4:
        raise PreconditionError(
            f"need at least 4 usable samples beyond t={t_min}, got {len(ts)}")
    design = np.stack([np.ones_like(ts), np.log(ts), -ts ** 2], axis=1)
    coef, *_ = np.linalg.lstsq(design, np.log(vals), rcond=None)
    log_c, n_pow, delta_sq = (float(c) for c in coef)
    fitted = design @ coef
    excess = float(np.max(np.log(vals) - fitted))
    return {
        "C": math.exp(log_c),
        "N": n_pow,
        "delta": math.sqrt(max(delta_sq, 0.0)),
        "max_log_excess": excess,
        "points": int(len(ts)),
    }


class TestGaussianTailFit:
    def test_recovers_synthetic_envelope(self):
        ts = np.linspace(1.0, 6.0, 40)
        vals = 3.0 * ts ** 2 * np.exp(-0.64 * ts ** 2)
        fit = fit_gaussian_decay([(t, v) for t, v in zip(ts, vals)])
        assert fit["C"] == pytest.approx(3.0, rel=1e-8)
        assert fit["N"] == pytest.approx(2.0, abs=1e-8)
        assert fit["delta"] == pytest.approx(0.8, abs=1e-8)
        assert fit["max_log_excess"] <= 1e-9

    def test_needs_enough_samples(self):
        with pytest.raises(PreconditionError, match="4 usable"):
            fit_gaussian_decay([(1.0, 0.5), (2.0, 0.1), (3.0, 0.01)])

    def test_lattice_model_tail_is_certified_gaussian(self):
        report = eta_class(lattice_laplace_symbol(), z_class(1), tol=1e-8)
        fit = fit_gaussian_decay(report.samples, t_min=1.0)
        assert fit["delta"] >= 0.5
        assert fit["max_log_excess"] <= 0.1
        assert fit["points"] >= 10


# ---------------------------------------------------------------------------
# the boundary loop and the spectral-flow pairing
# ---------------------------------------------------------------------------


def character_projector() -> Idempotent:
    """Rank-one spectral projector (1/5) sum_g chi(g) delta_g of the order-5
    shift character chi(g) = exp(2 pi i g / 5); exactly idempotent."""
    group = CyclicGroup(5)
    coeffs = {g: np.array([[np.exp(2j * np.pi * g / 5) / 5.0]])
              for g in range(5)}
    return Idempotent(AlgebraElement(group, 1, coeffs))


class TestInvertiblePaths:
    def test_loop_certificate_is_tight_for_exact_projector(self):
        loop = BoundaryLoop.build(character_projector())
        assert loop.certificate["max_defect"] <= 1e-12

    def test_character_loop_pairs_to_minus_two_trace(self):
        phi = class_trace_cochain(CyclicGroup(5).conjugacy_class(1))
        tau = tau_pair(phi, character_projector(), tol=1e-10)
        assert abs(tau - (-2.0 * np.exp(2j * np.pi / 5) / 5.0)) <= 1e-10

    def test_flow_pairing_recovers_sign_sum_eta(self):
        # the spectral-flow pairing at degree 0 is the delocalized trace of
        # sign D, which the dense sign sum computes with no quadrature
        op = gapped_cover_model(1)
        cls = op.element.group.conjugacy_class(1)
        oracle = sign_sum_eta(op, cls)
        report = eta_higher(op, class_trace_cochain(cls), tol=1e-8)
        assert abs(oracle) > 0.3
        assert abs(report.value - oracle) <= 1e-6
