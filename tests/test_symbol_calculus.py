"""Soundness of the Z^d functional calculus of ``FourierSymbolOperator``.

Production reads the coefficients of ``f(D)`` off the forward FFT of
``f(D(theta_j))`` on uniform grids (the trapezoid rule) and certifies them
by the agreement of two successive grids.  The property below checks that
certificate against an oracle that shares no code with that route: the
direct phase sum ``sum_g A_g e^{i g.theta}``, ``eigh`` at each point and an
explicit DFT sum, on a grid four times finer than the last level.  The
oracle's phases and sums run in long double, so it rounds less than the
route it checks.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from etalab.group_algebra import AlgebraElement
from etalab.operators import (
    FourierSymbolOperator,
    SchwartzFunction,
    lattice_laplace_symbol,
)
from test_gap_grid import hermitian_symbol

#: The oracle's own rounding on the draws below. Its sums and phases run in
#: long double; at each grid point its double steps (the symbol's entries,
#: ``eigh``, ``f`` and the reconstruction) move f(D(theta)) by at most about
#: 12 ulps of ``||D|| max |f'|`` (``||D|| <= 3``, ``|f'| < 5.4`` for
#: ``ut_minus_1`` at t <= 1.5) plus 8 ulps of ``max |f| <= 2``, and a mean of
#: such moves is no larger than their maximum.
ORACLE_ROUNDING = 2.0 ** -52 * (12 * 3.0 * 5.4 + 8 * 2.0)

CALCULUS = settings(derandomize=True, deadline=None, database=None,
                    max_examples=25)


@st.composite
def scaled_symbols(draw):
    """A Hermitian symbol on Z^1 or Z^2 with 1x1 to 3x3 blocks, band at
    most 3, scaled so that ``sum_g ||A_g|| <= 3``."""
    rank = draw(st.integers(1, 2))
    dim = draw(st.integers(1, 3))
    offset = st.tuples(*[st.integers(-3, 3)] * rank).filter(
        lambda g: 0 < sum(map(abs, g)) <= 3)
    support = draw(st.lists(offset, min_size=1, max_size=3,
                            unique_by=lambda g: max(g, tuple(-x for x in g))))
    op = hermitian_symbol(rank, dim, support,
                          draw(st.integers(0, 2 ** 32 - 1)))
    total = sum(float(np.linalg.norm(A, 2)) for A in op.element.blocks)
    scale = draw(st.floats(0.5, 3.0)) / total
    coeffs = {g: scale * A for g, A in op.element.coeffs.items()}
    return FourierSymbolOperator(AlgebraElement(op.group, dim, coeffs))


def oracle_coefficients(op: FourierSymbolOperator, f, keys, n: int):
    """``(2 pi)^-d int f(D(theta)) e^{-i g.theta} dtheta`` for each ``g`` in
    ``keys``, as the DFT sum over the uniform n^rank grid written out, one
    axis at a time. Every phase is a long-double root of unity picked by an
    exact integer product mod n, and the symbol and the sums run in long
    double; only the symbol's entries, ``eigh`` and ``f`` run in double."""
    rank, dim = op.rank, op.dim
    j = np.indices((n,) * rank).reshape(rank, -1).T
    angle = (8 * np.arctan(np.longdouble(1)) / n) * np.arange(n)
    roots = np.cos(angle) + 1j * np.sin(angle).astype(np.clongdouble)
    D = sum(roots[(j @ np.asarray(g)) % n][:, None, None] * A
            for g, A in op.element.coeffs.items())
    lam, U = np.linalg.eigh(D.astype(complex))
    F = np.einsum("pij,pj,pkj->pik", U, f(lam), U.conj())
    F = F.reshape((n,) * rank + (dim, dim)).astype(np.clongdouble)
    reach = max(max(map(abs, g)) for g in keys)
    W = roots.conj()[np.outer(np.arange(-reach, reach + 1), np.arange(n)) % n]
    for _ in range(rank):  # the last grid axis, each time; new axes in front
        F = np.tensordot(W, F, axes=(1, rank - 1))
    return np.array([F[tuple(x + reach for x in g)] for g in keys]) / len(j)


@CALCULUS
@given(op=scaled_symbols(), tag=st.sampled_from(["gauss", "xgauss",
                                                 "ut_minus_1"]),
       t=st.floats(0.3, 1.5), extra=st.integers(0, 3))
def test_calculus_error_bounds_the_distance_to_a_finer_oracle(op, tag, t,
                                                              extra):
    f = SchwartzFunction(tag, t)
    R = op.band + extra
    res = op.functional_calculus(f, R, 1e-10)
    keys = op.group.ball(R)
    zero = np.zeros((op.dim, op.dim))
    computed = np.array([res.element.coeffs.get(g, zero) for g in keys])
    oracle = oracle_coefficients(op, f, keys,
                                 4 * res.diagnostics["levels"][-1])
    assert (float(np.abs(computed - oracle).max())
            <= res.error + ORACLE_ROUNDING)


def test_rounding_floor_covers_a_scalar_symbol_converged_at_rounding():
    # 2 + cos(theta) with gauss at t = 0.3 converges on the first two
    # levels, whose agreement (2e-17) lies below the rounding of the
    # coefficients themselves; the error still covers the finer oracle,
    # with no allowance
    op = lattice_laplace_symbol()
    f = SchwartzFunction("gauss", 0.3)
    res = op.functional_calculus(f, 1, 1e-10)
    keys = op.group.ball(1)
    computed = np.array([res.element.coeffs[g] for g in keys])
    oracle = oracle_coefficients(op, f, keys,
                                 4 * res.diagnostics["levels"][-1])
    assert float(np.abs(computed - oracle).max()) <= res.error
