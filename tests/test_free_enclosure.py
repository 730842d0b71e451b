"""The spectral enclosure of ``FreeConvolutionOperator``.

Writing ``D = A_e + O``, the operator puts spec D within a Schur bound ``b``
of the eigenvalues of ``A_e``; the gap certificate and the Chebyshev
calculus both rest on it.  The oracles here share no code with that route:

* the exact gap of ``c + h * adjacency`` on the ``2r``-regular tree,
  ``|c| - 2 |h| sqrt(2r - 1)`` (Kesten), in 40-digit ``decimal``;
* dense eigenvalues of radius-3 truncations, whose spectra lie within ``b``
  of those of ``A_e`` as well;
* the kernel of ``f(4 + A)`` on the 4-regular tree from its Kesten-McKay
  spectral measure and the spherical polynomials of the tree;
* the kernel of ``f(S + S^-1)`` on F_1 = Z as a Fourier integral, where the
  truncation error at ``|x| = R`` comes from the first Chebyshev term that
  can reach the edge of the ball, so the finite-propagation degree ``K``
  has no slack.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from etalab.group_algebra import AlgebraElement
from etalab.groups import FreeGroup
from etalab.operators import (
    FreeConvolutionOperator,
    SchwartzFunction,
    _dense_truncation_eig,
    free_group_model,
)
from test_operators import truncation

PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=300)

KESTEN = 4.0 - 2.0 * math.sqrt(3.0)


def uniform_hop(rank: int, centers, hop: float) -> FreeConvolutionOperator:
    """``diag(centers) + hop * adjacency`` on F_rank."""
    group = FreeGroup(rank)
    dim = len(centers)
    coeffs = {group.identity: np.diag(np.asarray(centers, dtype=float))}
    for gen in group.generators():
        coeffs[gen] = hop * np.eye(dim)
    return FreeConvolutionOperator(AlgebraElement(group, dim, coeffs))


# ---------------------------------------------------------------------------
# the gap certificate against the exact tree gap
# ---------------------------------------------------------------------------


@st.composite
def uniform_hops(draw):
    rank = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 2))
    value = st.floats(-8.0, 8.0, allow_nan=False)
    centers = draw(st.lists(value, min_size=dim, max_size=dim))
    return rank, centers, draw(st.floats(-2.0, 2.0, allow_nan=False))


@PROPERTY
@given(kernel=uniform_hops())
def test_uniform_hop_certificate_is_the_tree_gap(kernel):
    rank, centers, hop = kernel
    cert = uniform_hop(rank, centers, hop).gap_certificate()
    with localcontext() as ctx:
        ctx.prec = 40
        edge = 2 * abs(Decimal(hop)) * Decimal(2 * rank - 1).sqrt()
        exact = max(Decimal(0), min(abs(Decimal(c)) for c in centers) - edge)
        assert cert.method == "weighted-schur"
        assert Decimal(cert.value) <= exact
        assert Decimal(cert.value) >= exact - Decimal("1e-9")


def test_fixture_certifies_the_kesten_gap():
    cert = free_group_model().gap_certificate()
    assert KESTEN - 1e-9 <= cert.value <= KESTEN
    assert cert.diagnostics["min_abs_mu"] == 4.0
    assert cert.diagnostics["rho"] == pytest.approx(1.0 / math.sqrt(3.0),
                                                    rel=1e-6)


@pytest.mark.parametrize("rank, centers, hop", [
    (2, [1.0], 1.0),          # 1 - 2 sqrt(3) < 0
    (2, [5.0, 0.5], 1.0),     # one channel reaches 0
    (1, [2.0], 1.0),          # the edge of the chain spectrum is 0
    (3, [0.0, 3.0], 0.0),     # A_e is singular and O vanishes
])
def test_a_reachable_zero_certifies_exactly_zero(rank, centers, hop):
    assert uniform_hop(rank, centers, hop).gap_certificate().value == 0.0


def test_identity_supported_kernel_is_its_own_enclosure():
    group = FreeGroup(2)
    op = FreeConvolutionOperator(AlgebraElement(
        group, 2, {group.identity: np.diag([3.0, -0.5])}))
    assert op.band == 0
    assert 0.5 - 1e-11 <= op.gap_certificate().value <= 0.5
    f = SchwartzFunction("gauss", 1.0)
    res = op.functional_calculus(f, 1, 1e-10)
    want = np.diag(f(np.array([3.0, -0.5])))
    assert np.abs(res.element.coeffs[()] - want).max() <= res.error
    assert all(np.abs(B).max() == 0.0
               for g, B in res.element.coeffs.items() if g)


# ---------------------------------------------------------------------------
# random Hermitian kernels against dense truncations
# ---------------------------------------------------------------------------


@st.composite
def hermitian_kernels(draw):
    """``A_e`` plus one to four pairs ``A_g``, ``A_{g^-1} = A_g^*`` with
    ``|g| <= 2`` on F_1..F_3, Gaussian entries, blocks of size 1 or 2."""
    group = FreeGroup(draw(st.integers(1, 3)))
    dim = draw(st.integers(1, 2))
    words = draw(st.lists(st.sampled_from(group.ball(2)[1:]), min_size=1,
                          max_size=4,
                          unique_by=lambda g: min(g, group.inverse(g))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def block():
        return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    A = block()
    coeffs = {group.identity: A + A.conj().T}
    for g in words:
        A = block()
        coeffs[g] = A
        coeffs[group.inverse(g)] = A.conj().T
    return FreeConvolutionOperator(AlgebraElement(group, dim, coeffs))


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(op=hermitian_kernels())
def test_truncation_spectrum_lies_in_the_enclosure(op):
    lam = _dense_truncation_eig(op.element, 3)[0]
    mu, b, _ = op.enclosure
    # the oracle's eigenvalues round on the scale of the l1 norm
    tol = 1e-12 * op.operator_norm_bound()
    assert np.abs(lam[:, None] - mu[None, :]).min(axis=1).max() <= b + tol
    assert op.gap_certificate().value <= np.abs(lam).min() + tol


# ---------------------------------------------------------------------------
# the calculus error against closed-form kernels
# ---------------------------------------------------------------------------


def tree_kernel(f: SchwartzFunction, n: int) -> float:
    """``f(4 + A)`` at a word of length n on the 4-regular tree.

    ``P_n(A) delta_e`` is the indicator of the sphere of radius n, with
    ``P_0 = 1``, ``P_1 = x``, ``P_2 = x^2 - 4`` and
    ``P_{k+1} = x P_k - 3 P_{k-1}``; the sphere has ``4 * 3^(n-1)`` words.
    """
    lim = 2.0 * math.sqrt(3.0)

    def sphere(x):
        p, q = 1.0, x
        for k in range(1, n):
            p, q = q, x * q - (4.0 if k == 1 else 3.0) * p
        return 1.0 if n == 0 else q / (4.0 * 3.0 ** (n - 1))

    def density(x):
        return (2.0 / math.pi) * math.sqrt(12.0 - x * x) / (16.0 - x * x)

    val, _ = quad(lambda x: f(np.array([4.0 + x]))[0].real * sphere(x)
                  * density(x), -lim, lim, limit=200, epsabs=1e-14)
    return val


@pytest.mark.parametrize("t, radius", [(0.5, 6), (1.0, 6), (1.0, 8),
                                       (1.0, 10), (2.0, 8)])
def test_fixture_calculus_error_covers_the_tree_kernel(t, radius):
    op = free_group_model()
    f = SchwartzFunction("gauss", t)
    with truncation(radius - 2, radius):
        res = op.functional_calculus(f, 2, 1e-10)
    assert res.diagnostics["truncation_radius"] == radius
    for word in [(), (1,), (1, 2)]:
        value = res.element.coeffs[word][0, 0].real
        assert abs(value - tree_kernel(f, len(word))) <= res.error


def chain_kernel(f: SchwartzFunction, n: int) -> float:
    """``f(S + S^-1)`` at ``a^n`` on F_1 = Z, as a Fourier integral."""
    val, _ = quad(lambda th: f(np.array([2.0 * math.cos(th)]))[0].real
                  * math.cos(n * th), 0.0, math.pi, limit=200, epsabs=1e-15)
    return val / math.pi


@pytest.mark.parametrize("radius", [6, 7, 8])
def test_chain_truncation_bound_holds_at_the_edge_degree(radius):
    # T_k((S + S^-1) / 2) = (S^k + S^-k) / 2; truncated to the ball, the
    # term k = 2 radius + 2 - R reflects off the edge onto |x| = R with
    # weight 1/2, so a degree cutoff one above K drops the leading error
    op = uniform_hop(1, [0.0], 1.0)
    f = SchwartzFunction("gauss", 1.0)
    with truncation(radius - 2, radius):
        res = op.functional_calculus(f, 2, 1e-13)
    value = res.element.coeffs[(1, 1)][0, 0].real
    assert abs(value - chain_kernel(f, 2)) <= res.error
