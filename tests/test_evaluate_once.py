"""Evaluate-once numerics: the node memo of ``_complex_quad`` and the
stacked SVD of ``trace_norms``.

Both are pure savings: the tests pin that the work is done once and that
the results are bit-equal to the straightforward code they replace.
"""

from __future__ import annotations

import cmath
import math
import warnings

import numpy as np
import pytest
from scipy import integrate

import etalab.eta as eta_module
from etalab.cyclic import Idempotent, class_trace_cochain
from etalab.eta import _complex_quad, tau_pair
from etalab.group_algebra import (
    AlgebraElement,
    TensorElement,
    quasiderivation,
)
from etalab.groups import CyclicGroup, FreeAbelianGroup, FreeGroup


def two_pass_quad(func, a, b, *, epsabs, limit=200, epsrel=1e-10):
    """The quadrature without a memo: each pass evaluates ``func`` anew."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        re_val, re_err = integrate.quad(lambda t: func(t).real, a, b,
                                        epsabs=epsabs, epsrel=epsrel,
                                        limit=limit)
        im_val, im_err = integrate.quad(lambda t: func(t).imag, a, b,
                                        epsabs=epsabs, epsrel=epsrel,
                                        limit=limit)
    return complex(re_val, im_val), float(re_err + im_err)


def smooth(t: float) -> complex:
    return cmath.exp(2j * math.pi * t) * math.exp(-t * t) + 1j * t ** 3


def uneven(t: float) -> complex:
    """Smooth real part, sharply peaked imaginary part: the imaginary pass
    subdivides where the real pass does not."""
    return complex(math.cos(t), 1.0 / (1e-4 + (t - 0.37) ** 2))


class CountingIntegrand:
    def __init__(self, func):
        self.func = func
        self.nodes: list = []

    def __call__(self, t):
        self.nodes.append(t)
        return self.func(t)


# ---------------------------------------------------------------------------
# _complex_quad
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("func", [smooth, uneven])
def test_complex_quad_evaluates_each_node_once(func):
    counted = CountingIntegrand(func)
    _complex_quad(counted, 0.0, 1.0, epsabs=1e-10)
    assert len(counted.nodes) == len(set(counted.nodes))
    assert len(counted.nodes) >= 21


def test_complex_quad_shares_nodes_between_the_passes():
    counted = CountingIntegrand(smooth)
    _complex_quad(counted, 0.0, 1.0, epsabs=1e-10)
    reference = CountingIntegrand(smooth)
    two_pass_quad(reference, 0.0, 1.0, epsabs=1e-10)
    assert set(counted.nodes) == set(reference.nodes)
    assert 2 * len(counted.nodes) == len(reference.nodes)


@pytest.mark.parametrize("func", [smooth, uneven])
@pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, 4.5)])
def test_complex_quad_is_bit_equal_to_two_passes(func, a, b):
    assert _complex_quad(func, a, b, epsabs=1e-10) == \
        two_pass_quad(func, a, b, epsabs=1e-10)


def test_complex_quad_memo_is_scoped_to_one_call():
    counted = CountingIntegrand(smooth)
    _complex_quad(counted, 0.0, 1.0, epsabs=1e-10)
    first = len(counted.nodes)
    _complex_quad(counted, 0.0, 1.0, epsabs=1e-10)
    assert len(counted.nodes) == 2 * first


# ---------------------------------------------------------------------------
# tau_pair on the idempotent loop
# ---------------------------------------------------------------------------


def character_projector() -> Idempotent:
    group = CyclicGroup(5)
    coeffs = {g: np.array([[np.exp(2j * np.pi * g / 5) / 5.0]])
              for g in range(5)}
    return Idempotent(AlgebraElement(group, 1, coeffs))


def test_loop_pairing_calls_pair_phi_tr_once_per_node(monkeypatch):
    calls: list = []
    original = eta_module.pair_phi_tr

    def counted(phi, slots, **kwargs):
        calls.append(1)
        return original(phi, slots, **kwargs)

    monkeypatch.setattr(eta_module, "pair_phi_tr", counted)
    phi = class_trace_cochain(CyclicGroup(5).conjugacy_class(1))
    tau = tau_pair(phi, character_projector(), tol=1e-10)
    assert len(calls) == 21
    assert abs(tau - (-2.0 * np.exp(2j * np.pi / 5) / 5.0)) <= 1e-10


# ---------------------------------------------------------------------------
# stacked trace norms
# ---------------------------------------------------------------------------


def ref_trace_norm(M) -> float:
    """Sum of singular values of one block (``abs`` of a 1x1 block)."""
    if M.shape == (1, 1):
        return abs(complex(M[0, 0]))
    return float(np.linalg.svd(M, compute_uv=False).sum())


def random_element(group, dim: int, points, seed: int) -> AlgebraElement:
    rng = np.random.default_rng(seed)
    return AlgebraElement(group, dim, {
        g: rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for g in points})


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_trace_norms_match_per_block_norms_exactly(dim):
    group = FreeAbelianGroup(2)
    A = random_element(group, dim, group.ball(3), seed=dim)
    norms = A.trace_norms()
    assert norms == {g: ref_trace_norm(M) for g, M in A.coeffs.items()}
    assert list(norms) == list(A.coeffs)
    assert all(type(v) is float for v in norms.values())


def test_trace_norms_of_the_empty_element():
    assert AlgebraElement(FreeAbelianGroup(2), 2, {}).trace_norms() == {}
    assert TensorElement(FreeAbelianGroup(2), 2, {}).trace_norms() == {}


def test_tensor_trace_norms_match_per_block_norms_exactly():
    group = FreeGroup(2)
    T = quasiderivation(random_element(group, 2, group.ball(2), seed=7))
    assert len(T.coeffs) > 1
    assert T.trace_norms() == {pair: ref_trace_norm(M)
                               for pair, M in T.coeffs.items()}
