"""Operator backends, spectral functions, and certified calculus.

Oracles used here are independent of the production routes:

* adaptive QUADPACK integration of explicit Fourier/transform formulas
  (production uses trapezoid ladders on FFT grids and closed-form tables);
* dense eigendecomposition of truncated convolution matrices
  (production uses symbol quadrature or Chebyshev moment recurrences);
* the spectral measure of the 4-regular tree in closed form
  (production knows nothing about tree spectral measures);
* deck-translate trace formulas evaluated directly on cover matrices.
"""

from __future__ import annotations

import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from etalab import operators
from etalab.errors import (
    PreconditionError,
    RepresentationError,
)
from etalab.group_algebra import AlgebraElement, convolve
from etalab.groups import (
    ConjugacyClass,
    CyclicGroup,
    FreeAbelianGroup,
    FreeGroup,
    ProductGroup,
)
from etalab.operators import (
    CalculusResult,
    FiniteCoverOperator,
    FourierSymbolOperator,
    FreeConvolutionOperator,
    SchwartzFunction,
    anisotropic_symbol_3d,
    class_trace,
    dense_truncation_calculus_batch,
    free_group_model,
    gapped_cover_model,
    lattice_laplace_symbol,
    two_band_chern_symbol,
    wilson_symbol,
)


def truncation(pad: int, cap: int):
    """Patch the free-kernel truncation rule ``radius = min(max(R + pad, R
    + band), cap)`` for the calls made inside the context."""
    return mock.patch.multiple(operators, _TRUNCATION_PAD=pad,
                               _MAX_TRUNCATION=cap)


def light_free_model() -> FreeConvolutionOperator:
    group = FreeGroup(2)
    coeffs = {group.identity: np.array([[2.0]])}
    for gen in group.generators():
        coeffs[gen] = np.array([[0.4]])
    return FreeConvolutionOperator(AlgebraElement(group, 1, coeffs))


def tree_spectral_value(f: SchwartzFunction, center: float,
                        hop: float) -> float:
    """<delta_e, f(center + hop * adjacency) delta_e> on the 4-regular tree,
    via the closed-form radial spectral density."""
    lim = 2.0 * math.sqrt(3.0)

    def density(x):
        return (2.0 / math.pi) * math.sqrt(12.0 - x * x) / (16.0 - x * x)

    val, _ = quad(lambda x: f(np.array([center + hop * x]))[0].real
                  * density(x), -lim, lim, limit=200)
    return val


def cyclic_cover_model(seed: int = 0, order: int = 5,
                       fiber: int = 2) -> FiniteCoverOperator:
    group = CyclicGroup(order)
    rng = np.random.default_rng(seed)
    A0 = rng.normal(size=(fiber, fiber)) + 1j * rng.normal(size=(fiber, fiber))
    A0 = A0 + A0.conj().T
    A1 = rng.normal(size=(fiber, fiber)) + 1j * rng.normal(size=(fiber, fiber))
    el = AlgebraElement(group, fiber,
                        {0: A0, 1: A1, order - 1: A1.conj().T})
    return FiniteCoverOperator(el)


def product_cover_model(fiber: int = 2) -> FiniteCoverOperator:
    """A cover over C2 x C3, whose ball(1) misses (1, 1) and (1, 2)."""
    group = ProductGroup((CyclicGroup(2), CyclicGroup(3)))
    rng = np.random.default_rng(5)
    A0 = rng.normal(size=(fiber, fiber)) + 1j * rng.normal(size=(fiber, fiber))
    B = rng.normal(size=(fiber, fiber)) + 1j * rng.normal(size=(fiber, fiber))
    C = rng.normal(size=(fiber, fiber)) + 1j * rng.normal(size=(fiber, fiber))
    el = AlgebraElement(group, fiber, {(0, 0): A0 + A0.conj().T,
                                       (1, 0): B + B.conj().T,
                                       (0, 1): C, (0, 2): C.conj().T})
    return FiniteCoverOperator(el)


def per_block_deck_average(op: FiniteCoverOperator, f, R: int) -> tuple:
    """(keys, blocks, error) of the finite-cover calculus from a loop over
    the ``m x m`` blocks of ``f(H)``, one ``(g, y)`` pair at a time."""
    lam, V = op.eigensystem()
    F = (V * (fl := f(lam))[None, :]) @ V.conj().T
    m, n = op.dim, len(op.elements)
    coeffs, defect = {}, 0.0
    for g in op.group.ball(R):
        if g not in op.index:
            continue
        blocks = []
        for b, y in enumerate(op.elements):
            a = op.index[op.group.multiply(g, y)]
            blocks.append(F[a * m:(a + 1) * m, b * m:(b + 1) * m])
        avg = np.mean(blocks, axis=0)
        defect = max(defect,
                     max(float(np.abs(B - avg).max()) for B in blocks))
        coeffs[g] = avg
    element = AlgebraElement(op.group, m, coeffs)
    floor = 4 * 2.0 ** -52 * float(np.abs(fl).max()) * n * m
    return element.keys, element.blocks, defect + floor + f.evaluation_error


# ---------------------------------------------------------------------------
# spectral functions and their ellipse bounds
# ---------------------------------------------------------------------------


class TestSchwartzFunctions:
    def test_unknown_tag_rejected(self):
        with pytest.raises(PreconditionError):
            SchwartzFunction("sinc")

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(PreconditionError):
            SchwartzFunction("gauss", 0.0)

    def test_gauss_values(self):
        f = SchwartzFunction("gauss", 2.0)
        x = np.array([-1.0, 0.0, 0.5])
        np.testing.assert_allclose(f(x), np.exp(-4.0 * x ** 2), rtol=1e-14)

    def test_loop_function_is_unimodular(self):
        f = SchwartzFunction("ut_minus_1", 1.3)
        x = np.linspace(-4, 4, 41)
        np.testing.assert_allclose(np.abs(f(x) + 1.0), 1.0, atol=1e-13)

    def test_loop_function_endpoints(self):
        f = SchwartzFunction("ut_minus_1", 1.0)
        assert abs(f(np.array([0.0]))[0] + 2.0) < 1e-13
        assert abs(f(np.array([30.0]))[0]) < 1e-12
        assert abs(f(np.array([-30.0]))[0]) < 1e-12

    def test_loop_inverse_is_conjugate(self):
        x = np.linspace(-3, 3, 31)
        u = SchwartzFunction("ut_minus_1", 0.8)(x) + 1.0
        uinv = SchwartzFunction("ut_inv_minus_1", 0.8)(x) + 1.0
        np.testing.assert_allclose(u * uinv, 1.0, atol=1e-13)

    def test_loop_log_derivative_matches_numeric_derivative(self):
        x = np.linspace(-2.5, 2.5, 21)
        t, h = 1.1, 1e-5
        u_plus = SchwartzFunction("ut_minus_1", t + h)(x) + 1.0
        u_minus = SchwartzFunction("ut_minus_1", t - h)(x) + 1.0
        u = SchwartzFunction("ut_minus_1", t)(x) + 1.0
        numeric = (u_plus - u_minus) / (2 * h) / u
        claimed = SchwartzFunction("udot_uinv", t)(x)
        np.testing.assert_allclose(numeric, claimed, atol=1e-8)


class TestDecayEnvelopes:
    """The bound on |f| over Bernstein ellipses, from which class traces
    bound the decay of f(D)_g, exists for the Gaussian family only."""

    def test_identity_envelope_refused(self):
        with pytest.raises(PreconditionError):
            SchwartzFunction("identity").log_ellipse_sup(-1.0, 1.0, 0.5)

    @pytest.mark.parametrize("tag", ["ut_minus_1", "ut_inv_minus_1"])
    def test_loop_envelope_refused(self, tag):
        with pytest.raises(PreconditionError):
            SchwartzFunction(tag, 1.0).log_ellipse_sup(-1.0, 1.0, 0.5)


# ---------------------------------------------------------------------------
# Fourier symbol backend
# ---------------------------------------------------------------------------


class TestFourierSymbol:
    def test_requires_lattice_group(self):
        el = AlgebraElement(CyclicGroup(4), 1, {0: np.array([[1.0]])})
        with pytest.raises(PreconditionError):
            FourierSymbolOperator(el)

    def test_rejects_non_hermitian(self):
        group = FreeAbelianGroup(1)
        el = AlgebraElement(group, 1, {(1,): np.array([[1.0]])})
        with pytest.raises(RepresentationError):
            FourierSymbolOperator(el)

    def test_radius_below_band_rejected(self):
        op = lattice_laplace_symbol()
        with pytest.raises(PreconditionError):
            op.functional_calculus(SchwartzFunction("gauss"), 0)

    def test_scalar_coefficients_match_quadrature(self):
        # oracle: adaptive QUADPACK on the explicit angle integral
        op = lattice_laplace_symbol()
        f = SchwartzFunction("gauss", 1.2)
        res = op.functional_calculus(f, 6, 1e-10)
        assert res.converged
        for g in ((0,), (1,), (3,)):
            oracle = quad(lambda th: math.exp(
                -1.2 ** 2 * (2 + math.cos(th)) ** 2)
                * math.cos(g[0] * th), 0, 2 * math.pi)[0] / (2 * math.pi)
            assert abs(res.element.coeffs[g][0, 0] - oracle) < 1e-12

    def test_identity_function_recovers_coefficients(self):
        op = wilson_symbol(0.5)
        res = op.functional_calculus(SchwartzFunction("identity"), 1, 1e-10)
        for g, A in op.element.coeffs.items():
            np.testing.assert_allclose(res.element.coeffs[g], A, atol=1e-12)

    @pytest.mark.parametrize("tag", ["gauss", "xgauss", "ut_minus_1"])
    def test_z_models_match_dense_truncation_oracle(self, tag):
        f = SchwartzFunction(tag, 1.0)
        for op in (lattice_laplace_symbol(), wilson_symbol(0.5)):
            res = op.functional_calculus(f, 5, 1e-9)
            oracle = dense_truncation_calculus_batch(op.element, [f], 5, 13)[0]
            worst = max(np.abs(res.element.coeffs[g] - oracle[g]).max()
                        for g in oracle)
            assert worst < 1e-9

    def test_3d_model_matches_dense_truncation_oracle(self):
        op = anisotropic_symbol_3d()
        f = SchwartzFunction("gauss", 1.0)
        res = op.functional_calculus(f, 4, 1e-9)
        oracle = dense_truncation_calculus_batch(op.element, [f], 4, 9)[0]
        worst = max(np.abs(res.element.coeffs[g] - oracle[g]).max()
                    for g in oracle)
        assert worst < 1e-8

    def test_support_restricted_to_ball(self):
        op = anisotropic_symbol_3d()
        res = op.functional_calculus(SchwartzFunction("gauss", 0.8), 3, 1e-8)
        group = op.group
        assert all(group.word_length(g) <= 3 for g in res.element.support)

    def test_real_function_gives_hermitian_result(self):
        op = wilson_symbol(0.7)
        res = op.functional_calculus(SchwartzFunction("gauss", 1.1), 8, 1e-10)
        assert res.element.is_hermitian(1e-12)

    @pytest.mark.parametrize("t", [0.5, 2.0])
    @pytest.mark.parametrize("family", ["ut"])
    @pytest.mark.parametrize("model", ["laplace", "two_band", "cover",
                                       "free"])
    def test_loop_adjoint_is_inverse_loop(self, model, family, t):
        # (u(D) - 1)^* = u(D)^{-1} - 1 because u_t is unimodular and D
        # self-adjoint: on every backend the leg's adjoint and the
        # independent inverse-leg calculus agree within their certificates
        op, R = {
            "laplace": lambda: (lattice_laplace_symbol(), 10),
            "two_band": lambda: (two_band_chern_symbol(), 6),
            "cover": lambda: (gapped_cover_model(0), 3),
            "free": lambda: (light_free_model(), 2),
        }[model]()
        with truncation(4, 8):  # read by the free model only
            a = op.functional_calculus(
                SchwartzFunction(f"{family}_minus_1", t), R, 1e-10)
            b = op.functional_calculus(
                SchwartzFunction(f"{family}_inv_minus_1", t), R, 1e-10)
        diff = (a.element.star() - b.element).max_abs()
        assert diff <= a.error + b.error + 1e-13

    def test_heat_semigroup_property(self):
        # e^{-t^2 D^2} e^{-s^2 D^2} = e^{-(t^2+s^2) D^2}; compare well
        # inside the truncation where the dropped tails are negligible
        op = lattice_laplace_symbol()
        t, s = 1.0, 0.7
        a = op.functional_calculus(SchwartzFunction("gauss", t), 14, 1e-11)
        b = op.functional_calculus(SchwartzFunction("gauss", s), 14, 1e-11)
        c = op.functional_calculus(
            SchwartzFunction("gauss", math.hypot(t, s)), 14, 1e-11)
        prod = convolve(a.element, b.element)
        worst = 0.0
        for g in op.group.ball(7):
            lhs = prod.coeffs.get(g, np.zeros((1, 1)))
            rhs = c.element.coeffs.get(g, np.zeros((1, 1)))
            worst = max(worst, float(np.abs(lhs - rhs).max()))
        assert worst < 1e-9

    def test_unreachable_tolerance_returns_unconverged_result(self):
        op = lattice_laplace_symbol()
        res = op.functional_calculus(SchwartzFunction("gauss", 3.0), 6, 1e-30)
        assert res.converged is False
        assert res.error > 1e-30

    def test_gap_certificate_scalar_laplace(self):
        cert = lattice_laplace_symbol().gap_certificate()
        assert 0.995 <= float(cert) <= 1.0
        assert cert.method == "symbol-grid-curvature"

    def test_gap_certificate_wilson(self):
        cert = wilson_symbol(0.5).gap_certificate()
        assert float(cert) <= 0.5 + 1e-12
        assert abs(float(cert) - 0.5) < 5e-3

    def test_gap_certificate_3d(self):
        cert = anisotropic_symbol_3d().gap_certificate()
        assert 1.9 <= float(cert) <= 2.1 + 1e-9


# ---------------------------------------------------------------------------
# finite cover backend
# ---------------------------------------------------------------------------


class TestFiniteCover:
    def test_rejects_infinite_group(self):
        group = FreeAbelianGroup(1)
        el = AlgebraElement(group, 1, {(0,): np.array([[1.0]])})
        with pytest.raises(PreconditionError):
            FiniteCoverOperator(el)

    def test_unreachable_tolerance_returns_unconverged_result(self):
        op = cyclic_cover_model(seed=3)
        res = op.functional_calculus(SchwartzFunction("gauss", 0.9), 2, 1e-30)
        assert res.converged is False
        assert res.error > 1e-30

    def test_calculus_matches_unaveraged_cover_blocks(self):
        # oracle: read single (g a, a) blocks of f(H) without the
        # deck average the production route applies
        op = cyclic_cover_model(seed=3)
        f = SchwartzFunction("gauss", 0.9)
        res = op.functional_calculus(f, 2, 1e-10)
        H = op.cover_matrix()
        lam, V = np.linalg.eigh(H)
        F = (V * f(lam)[None, :]) @ V.conj().T
        m = op.dim
        for g in (0, 1, 3):
            for a in (0, 2, 4):
                row = op.index[op.group.multiply(g, a)]
                col = op.index[a]
                block = F[row * m:(row + 1) * m, col * m:(col + 1) * m]
                np.testing.assert_allclose(res.element.coeffs[g], block,
                                           atol=1e-11)

    @pytest.mark.parametrize("seed", range(4))
    def test_calculus_is_within_its_error_of_a_30_digit_eigh(self, seed):
        # oracle: f(H) from mpmath's eighe at 30 digits; the error must
        # cover the rounding of the double-precision eigh, not only the
        # equivariance defect of the deck average
        op = gapped_cover_model(seed)
        res = op.functional_calculus(SchwartzFunction("xgauss", 1.0), 1)
        m = op.dim
        with mpmath.workdps(30):
            lam, V = mpmath.mp.eighe(mpmath.matrix(op.cover_matrix().tolist()))
            F = V * mpmath.diag([x * mpmath.exp(-x * x) for x in lam]) \
                * V.transpose_conj()
            for g, block in res.element.coeffs.items():
                a = m * op.index[g]
                exact = np.array([[complex(F[a + i, j]) for j in range(m)]
                                  for i in range(m)])
                assert float(np.abs(block - exact).max()) <= res.error, g

    @pytest.mark.parametrize("model", [
        *(lambda s=s: gapped_cover_model(s) for s in range(4)),
        lambda: cyclic_cover_model(seed=4, order=6, fiber=1),
        lambda: product_cover_model(),
    ], ids=[*(f"gapped{s}" for s in range(4)), "scalar-fiber", "c2xc3"])
    def test_calculus_equals_the_per_block_deck_average(self, model):
        op = model()
        f = SchwartzFunction("xgauss", 1.0)
        full = max(op.group.word_length(g) for g in op.elements)
        for R in sorted({op.band, 1, full}):
            res = op.functional_calculus(f, R)
            keys, blocks, error = per_block_deck_average(op, f, R)
            assert res.element.keys == keys
            assert (res.element.blocks == blocks).all()
            assert res.error == error

    def test_deck_table_is_built_once_per_radius(self, monkeypatch):
        op = gapped_cover_model(1)
        calls = []
        multiply = op.group.multiply
        monkeypatch.setattr(op.group, "multiply",
                            lambda a, b: calls.append(1) or multiply(a, b))
        f = SchwartzFunction("gauss", 1.0)
        op.functional_calculus(f, 1)
        built = len(calls)
        assert built == len(op.group.ball(1)) * len(op.elements)
        op.functional_calculus(SchwartzFunction("xgauss", 0.5), 1)
        assert len(calls) == built
        op.functional_calculus(f, 2)
        assert len(calls) > built

    def test_class_trace_matches_deck_translate_formula(self):
        op = cyclic_cover_model(seed=1)
        f = SchwartzFunction("gauss", 1.0)
        H = op.cover_matrix()
        lam, V = np.linalg.eigh(H)
        F = (V * f(lam)[None, :]) @ V.conj().T
        for h in (1, 2):
            direct = np.trace(F @ op.deck_matrix(h).conj().T) / 5.0
            ct = class_trace(op, f, ConjugacyClass(op.group, h), 3)
            assert abs(ct.value - direct) < 1e-12
            assert ct.tail_bound == 0.0

    def test_identity_function_recovers_coefficients(self):
        op = cyclic_cover_model(seed=2)
        res = op.functional_calculus(SchwartzFunction("identity"), 2, 1e-10)
        for g, A in op.element.coeffs.items():
            np.testing.assert_allclose(res.element.coeffs[g], A, atol=1e-12)

    def test_gap_is_exact_smallest_nonzero_eigenvalue(self):
        group = CyclicGroup(2)
        el = AlgebraElement(group, 3,
                            {0: np.diag([-2.0, 1.0, 3.0]).astype(complex)})
        op = FiniteCoverOperator(el)
        cert = op.gap_certificate()
        assert float(cert) == pytest.approx(1.0, abs=1e-14)
        assert cert.method == "exact-eigenvalues"

    def test_gap_skips_exact_zero_modes(self):
        group = CyclicGroup(2)
        el = AlgebraElement(group, 2, {0: np.diag([0.0, 2.0]).astype(complex)})
        op = FiniteCoverOperator(el)
        assert float(op.gap_certificate()) == pytest.approx(2.0)

    def test_gap_of_zero_operator_is_infinite(self):
        group = CyclicGroup(3)
        el = AlgebraElement(group, 1, {0: np.array([[0.0]])}, cleanup=False)
        op = FiniteCoverOperator(el)
        assert math.isinf(float(op.gap_certificate()))


# ---------------------------------------------------------------------------
# free convolution backend
# ---------------------------------------------------------------------------


class TestFreeConvolution:
    def test_requires_free_group(self):
        group = FreeAbelianGroup(1)
        el = AlgebraElement(group, 1, {(0,): np.array([[1.0]])})
        with pytest.raises(PreconditionError):
            FreeConvolutionOperator(el)

    def test_light_model_converges_and_matches_tree_law(self):
        op = light_free_model()
        f = SchwartzFunction("gauss", 1.0)
        with truncation(8, 10):
            res = op.functional_calculus(f, 2, 1e-8)
        assert res.converged and res.error <= 1e-8
        oracle = tree_spectral_value(f, 2.0, 0.4)
        value = res.element.coeffs[op.group.identity][0, 0].real
        assert abs(value - oracle) < 5e-9

    def test_heavy_model_certificate_bounds_true_error(self):
        op = free_group_model()
        f = SchwartzFunction("gauss", 1.0)
        with truncation(8, 10):
            res = op.functional_calculus(f, 2, 1e-4)
        assert res.converged
        oracle = tree_spectral_value(f, 4.0, 1.0)
        value = res.element.coeffs[op.group.identity][0, 0].real
        assert abs(value - oracle) <= res.error

    def test_matched_truncation_agrees_with_dense_oracle(self):
        # same compression, two unrelated calculi: Chebyshev moment
        # recurrence vs dense eigendecomposition
        f = SchwartzFunction("gauss", 1.0)
        for op in (free_group_model(), light_free_model()):
            with truncation(4, 6):
                res = op.functional_calculus(f, 2, 1e-8)
            oracle = dense_truncation_calculus_batch(op.element, [f], 2, 6)[0]
            worst = max(np.abs(res.element.coeffs[g] - oracle[g]).max()
                        for g in oracle)
            assert worst < 1e-9

    def test_successive_truncation_certificates_shrink_and_cover(self):
        op = light_free_model()
        f = SchwartzFunction("gauss", 1.0)
        runs = {}
        for L in (6, 8, 10):
            with truncation(L - 2, L):
                runs[L] = op.functional_calculus(f, 2, 1e-8)
        certs = [runs[L].diagnostics["truncation_bound"]
                 for L in (6, 8, 10)]
        assert certs[0] > certs[1] > certs[2]
        reference = runs[10].element
        for L in (6, 8):
            drift = max(np.abs(runs[L].element.coeffs[g]
                               - reference.coeffs[g]).max()
                        for g in runs[L].element.coeffs)
            assert drift <= runs[L].error

    def test_unreachable_tolerance_returns_unconverged_result(self):
        op = free_group_model()
        with truncation(8, 10):
            res = op.functional_calculus(SchwartzFunction("gauss", 1.0), 2,
                                         1e-8)
        assert isinstance(res, CalculusResult)
        assert res.converged is False
        assert res.error > 1e-8

    def test_insufficient_truncation_headroom_rejected(self):
        op = free_group_model()
        with pytest.raises(PreconditionError):
            op.functional_calculus(SchwartzFunction("gauss", 1.0), 9, 1e-6)

    def test_support_restricted_to_ball(self):
        op = light_free_model()
        with truncation(4, 8):
            res = op.functional_calculus(SchwartzFunction("gauss", 1.0), 3,
                                         1e-6)
        assert all(op.group.word_length(g) <= 3 for g in res.element.support)

    def test_gap_estimate_without_declaration(self):
        cert = free_group_model().gap_certificate()
        assert cert.method == "weighted-schur"
        assert 0.4 <= float(cert) <= 0.8


# ---------------------------------------------------------------------------
# class traces
# ---------------------------------------------------------------------------


class TestClassTrace:
    def test_lattice_singleton_class_reads_coefficient(self):
        op = lattice_laplace_symbol()
        f = SchwartzFunction("gauss", 1.2)
        ct = class_trace(op, f, ConjugacyClass(op.group, (3,)), 8)
        oracle = quad(lambda th: math.exp(
            -1.2 ** 2 * (2 + math.cos(th)) ** 2)
            * math.cos(3 * th), 0, 2 * math.pi)[0] / (2 * math.pi)
        assert abs(ct.value - oracle) < 1e-10
        assert ct.tail_bound == 0.0
        assert ct.terms == 1

    def test_lattice_class_outside_ball_reports_envelope_tail(self):
        op = lattice_laplace_symbol()
        f = SchwartzFunction("gauss", 1.0)
        ct = class_trace(op, f, ConjugacyClass(op.group, (7,)), 3)
        assert ct.value == 0
        assert 0.0 < ct.tail_bound < math.inf
        assert ct.terms == 0

    def test_chiral_model_odd_function_traces_vanish(self):
        # at zero mass the model anticommutes with the grading, so odd
        # functions of it are traceless fiberwise
        op = wilson_symbol(0.0)
        for tag in ("xgauss", "udot_uinv"):
            f = SchwartzFunction(tag, 1.0)
            ct = class_trace(op, f, ConjugacyClass(op.group, (0,)), 6)
            assert abs(ct.value) < 1e-12

    def test_free_class_tail_is_finite_for_narrow_gaussian(self):
        # a narrow Gaussian has a wide spatial profile but a transform
        # concentrated enough to beat the class growth envelope
        op = free_group_model()
        f = SchwartzFunction("gauss", 0.125)
        cls = ConjugacyClass(op.group, (1, 2))
        with truncation(4, 8):
            calc = op.functional_calculus(f, 4, 1e-6)
        ct = class_trace(op, f, cls, 4, calculus=calc)
        assert ct.tail_bound < math.inf
        assert "class_rate" in ct.diagnostics

    def test_free_class_tail_bounds_the_partial_sum_above_tolerance(self):
        # a unit-scale xgauss decays too slowly on the hull of D for the
        # tail to meet the tolerance, but the bound stays finite and above
        # the members between R = 4 and 6
        op = free_group_model()
        f = SchwartzFunction("xgauss", 1.0)
        cls = ConjugacyClass(op.group, (1, 2))
        with truncation(4, 8):
            calc = op.functional_calculus(f, 4, 1e-6)
        ct = class_trace(op, f, cls, 4, calculus=calc)
        with truncation(4, 10):
            wide = op.functional_calculus(f, 6, 1e-6)
        dropped = [g for g in cls.elements_within(6)
                   if op.group.word_length(g) > 4]
        partial = sum(abs(np.trace(wide.element.coeffs[g])) + wide.error
                      for g in dropped)
        assert 0.0 < partial <= ct.tail_bound < math.inf
        assert ct.tail_bound > 1e-6

    def test_group_mismatch_rejected(self):
        op = lattice_laplace_symbol()
        other = ConjugacyClass(FreeAbelianGroup(2), (1, 0))
        with pytest.raises(PreconditionError):
            class_trace(op, SchwartzFunction("gauss"), other, 4)

    def test_finite_cover_tail_is_exactly_zero(self):
        op = cyclic_cover_model(seed=5)
        ct = class_trace(op, SchwartzFunction("gauss", 1.0),
                         ConjugacyClass(op.group, 2), 3)
        assert ct.tail_bound == 0.0
        assert ct.diagnostics["exhausted"]
