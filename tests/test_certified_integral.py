"""The one certified-integral driver of ``etalab.eta`` and its tail cut.

``_certified_integral`` serves the class eta, the higher eta and the path
pairing.  Its cut T is the first point of a half-integer ladder whose
closed-form tail meets the target, and each named per-sample error is
folded as its maximum times T.

The soundness property rests on a closed form that shares no code with the
quadrature: since ``(2/sqrt(pi)) int_0^inf x exp(-t^2 x^2) dt = sign(x)``,
the delocalized eta of a Z^d symbol at class h is the h-th Fourier
coefficient of ``tr sign D(theta)``.  On a symbol whose spectrum never
crosses zero that trace is constant, so every eta at h != 0 is exactly 0,
and the reported error must cover the whole computed value.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etalab.errors import PreconditionError
from etalab.eta import _certified_integral, _tail_cut, eta_class
from etalab.group_algebra import AlgebraElement
from etalab.groups import FreeAbelianGroup
from etalab.operators import FourierSymbolOperator

SOUNDNESS = settings(derandomize=True, deadline=None, database=None,
                     max_examples=12)


# ---------------------------------------------------------------------------
# the tail-cut ladder
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("g0", [0.1, 0.3, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("target", [1e-3, 1e-9, 1e-15])
def test_tail_cut_is_the_first_ladder_point_meeting_the_target(g0, target):
    def tail_at(t_cut):
        return 3.0 * math.erfc(g0 * t_cut)

    start = max(1.0, 1.0 / (g0 * math.sqrt(2.0)))
    ladder = (start + 0.5 * k for k in range(200))
    first = next(t for t in ladder if tail_at(t) <= target or t >= 40.0)
    assert _tail_cut(tail_at, g0, target) == first


def test_tail_cut_stops_at_40_when_the_target_is_never_met():
    assert _tail_cut(lambda t_cut: 1.0, 1.0, 1e-8) == 40.0


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------


def test_driver_folds_each_leg_as_its_maximum_times_the_cut():
    # int_0^inf exp(-t^2) dt = sqrt(pi)/2, with the exact tail erfc(T)
    # sqrt(pi)/2 beyond the cut.
    seen = []

    def sample(t):
        seen.append(t)
        return complex(math.exp(-t * t)), {"a": 1e-12 * t, "b": 1e-13}

    def tail_at(t_cut):
        return 0.5 * math.sqrt(math.pi) * math.erfc(t_cut)

    parts = _certified_integral(sample, tail_at, 1.0, tol=1e-8)
    t_cut = parts["split_points"][-1]
    assert parts["split_points"] == (0.0, 1.0, t_cut)
    assert t_cut == _tail_cut(tail_at, 1.0, 1e-9)
    assert list(parts["interval_errors"]) == ["small_t", "mid_t", "a", "b"]
    assert parts["interval_errors"]["a"] == 1e-12 * max(seen) * t_cut
    assert parts["interval_errors"]["b"] == 1e-13 * t_cut
    assert parts["tail_bound"] == tail_at(t_cut)
    error = sum(parts["interval_errors"].values()) + parts["tail_bound"]
    assert parts["converged"] is (error <= 1e-8)
    assert abs(parts["value"] - 0.5 * math.sqrt(math.pi)) <= error


@pytest.mark.parametrize("tail_frac", [0.0, 1.0, 1.5])
def test_driver_rejects_a_tail_fraction_outside_the_unit_interval(tail_frac):
    with pytest.raises(PreconditionError, match="tail fraction"):
        _certified_integral(lambda t: (0j, {}), lambda t_cut: 0.0, 1.0,
                            tol=1e-8, tail_frac=tail_frac)


# ---------------------------------------------------------------------------
# soundness: the eta of a sign-constant symbol vanishes off the identity
# ---------------------------------------------------------------------------


@st.composite
def sign_constant_symbols(draw):
    """A Hermitian symbol on Z or Z^2 with 1x1 to 3x3 blocks: ``A_0`` with
    eigenvalues of modulus in [1.5, 2.5], and ``A_{+-e_k}`` of norm 0.25.
    Then ``|D(theta) - A_0| <= 0.5 rank <= 1``, so no eigenvalue of the
    symbol crosses zero."""
    rank = draw(st.integers(1, 2))
    dim = draw(st.integers(1, 3))
    moduli = draw(st.lists(st.floats(1.5, 2.5), min_size=dim, max_size=dim))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=dim,
                          max_size=dim))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def block():
        return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(block())
    coeffs = {(0,) * rank: (q * (np.array(signs) * np.array(moduli)))
              @ q.conj().T}
    for k in range(rank):
        a = block()
        a *= 0.25 / np.linalg.norm(a, 2)
        e = tuple(int(i == k) for i in range(rank))
        coeffs[e] = a
        coeffs[tuple(-x for x in e)] = a.conj().T
    return FourierSymbolOperator(AlgebraElement(FreeAbelianGroup(rank), dim,
                                                coeffs))


@SOUNDNESS
@given(op=sign_constant_symbols(), data=st.data())
def test_eta_of_a_sign_constant_symbol_is_within_its_error_of_zero(op, data):
    h = data.draw(st.tuples(*[st.integers(-2, 2)] * op.rank).filter(any))
    report = eta_class(op, op.group.conjugacy_class(h), tol=1e-8)
    assert abs(report.value) <= report.error
