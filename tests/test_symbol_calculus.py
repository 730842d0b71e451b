"""Soundness of the Z^d functional calculus of ``FourierSymbolOperator``.

Production reads the coefficients of ``f(D)`` off the forward FFT of
``f(D(theta_j))`` on uniform grids (the trapezoid rule) and certifies them
by the agreement of two successive grids.  The property below checks that
certificate against an oracle that shares no code with that route: the
direct phase sum ``sum_g A_g e^{i g.theta}``, ``eigh`` at each point and an
explicit DFT sum, on a grid four times finer than the last level.
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
from test_gap_grid import direct_symbol, hermitian_symbol

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
    ``keys``, as the DFT sum over the uniform n^rank grid written out."""
    axis = 2.0 * np.pi * np.arange(n) / n
    grids = np.meshgrid(*[axis] * op.rank, indexing="ij")
    thetas = np.stack([g.ravel() for g in grids], axis=-1)
    lam, U = np.linalg.eigh(direct_symbol(op.element.coeffs, thetas, op.dim))
    F = np.einsum("pij,pj,pkj->pik", U, f(lam), U.conj())
    phases = (np.exp(-1j * (thetas @ np.asarray(g, dtype=float)))
              for g in keys)
    return np.array([np.tensordot(phase, F, axes=(0, 0)) for phase in phases]
                    ) / len(thetas)


@CALCULUS
@given(op=scaled_symbols(), tag=st.sampled_from(["gauss", "xgauss",
                                                 "ut_minus_1"]),
       t=st.floats(0.3, 1.5), extra=st.integers(0, 3))
def test_calculus_error_bounds_the_distance_to_a_finer_oracle(op, tag, t,
                                                              extra):
    f = SchwartzFunction(tag, t)
    R = op.band + extra
    res = op.functional_calculus(f, R, 1e-10, strict=False)
    keys = op.group.ball(R)
    zero = np.zeros((op.dim, op.dim))
    computed = np.array([res.element.coeffs.get(g, zero) for g in keys])
    oracle = oracle_coefficients(op, f, keys,
                                 4 * res.diagnostics["levels"][-1])
    assert float(np.abs(computed - oracle).max()) <= res.error + 1e-12


def test_rounding_floor_covers_a_scalar_symbol_converged_at_rounding():
    # 2 + cos(theta) with gauss at t = 0.3 converges on the first two
    # levels, whose agreement (2e-17) lies below the rounding of the
    # coefficients themselves; the error still covers the finer oracle,
    # with no allowance
    op = lattice_laplace_symbol()
    f = SchwartzFunction("gauss", 0.3)
    res = op.functional_calculus(f, 1, 1e-10, strict=False)
    keys = op.group.ball(1)
    computed = np.array([res.element.coeffs[g] for g in keys])
    oracle = oracle_coefficients(op, f, keys,
                                 4 * res.diagnostics["levels"][-1])
    assert float(np.abs(computed - oracle).max()) <= res.error
