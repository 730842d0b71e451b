"""The integer neighbour tables and Chebyshev moments of the F_r calculus.

``FreeConvolutionOperator._tables`` numbers ball(radius) breadth first and
maps each row through left multiplication by each letter, to the outside
row N past the edge.  The tests walk every word of the ball from e through
the tables and check the rows against ``FreeGroup.multiply``: distinct rows
for distinct words, the parent for a cancelling letter and N at the edge.
``_moments`` runs ``T_k(X) e`` on those tables; its Chebyshev sum on a
random 2x2 kernel of band 2 is held to the dense eigendecomposition of the
same compression, which shares no code with it.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from etalab.errors import ResourceBudgetError
from etalab.group_algebra import AlgebraElement
from etalab.groups import FreeGroup
from etalab.operators import (
    FreeConvolutionOperator,
    SchwartzFunction,
    chebyshev_fit,
    dense_truncation_calculus_batch,
    free_group_model,
)
from test_free_enclosure import uniform_hop


def random_kernel(seed: int) -> FreeConvolutionOperator:
    """A Hermitian 2x2 kernel of band 2 on F_2 with Gaussian blocks on e,
    a, b, ab, aB and their inverses."""
    rng = np.random.default_rng(seed)
    group = FreeGroup(2)

    def block():
        return 0.3 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))

    a0 = block()
    coeffs = {group.identity: a0 + a0.conj().T}
    for g in [(1,), (2,), (1, 2), (1, -2)]:
        coeffs[g] = block()
        coeffs[group.inverse(g)] = coeffs[g].conj().T
    return FreeConvolutionOperator(AlgebraElement(group, 2, coeffs))


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("radius", [0, 1, 2, 3, 4])
def test_letter_tables_agree_with_multiply(rank, radius):
    op = uniform_hop(rank, [1.0], 0.1)
    group = op.group
    steps = op._tables(radius)
    ball = group.ball(radius)
    n = len(ball)
    assert steps.shape == (2 * rank + 1, n + 1)
    row = {(): 0}
    for w in ball[1:]:
        row[w] = int(steps[rank + w[0], row[w[1:]]])
    assert sorted(row.values()) == list(range(n))
    letters = [x for gen in group.generators() for x in gen]
    for x in ball:
        for s in letters:
            y = group.multiply((s,), x)
            expected = row[y] if group.word_length(y) <= radius else n
            assert steps[rank + s, row[x]] == expected, (x, s)
    assert (steps[:, n] == n).all()
    assert (steps[rank] == np.arange(n + 1)).all()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("radius", [4, 5])
def test_moments_of_a_2x2_band_2_kernel_match_the_dense_truncation(seed,
                                                                   radius):
    op = random_kernel(seed)
    assert op.dim == 2 and op.band == 2
    lo, hi = op.spectral_hull()
    fs = [SchwartzFunction("gauss", 1.0), SchwartzFunction("xgauss", 0.5),
          SchwartzFunction("ut_minus_1", 1.0)]
    oracle = dense_truncation_calculus_batch(op.element, fs, 2, radius)
    run = op._moments(radius, 2)
    moments = np.stack([next(run) for _ in range(121)])
    for f, table in zip(fs, oracle):
        coeffs, sup_err = chebyshev_fit(f, lo, hi, 120)
        values = np.tensordot(coeffs, moments, 1)
        for value, g in zip(values, op.group.ball(2)):
            assert np.abs(value - table[g]).max() <= sup_err + 1e-12, g


def test_higher_degree_extends_the_kept_moments():
    # a call that needs a higher degree runs the kept recurrence on, and
    # gives the values of a fresh operator bit for bit
    op = free_group_model()
    low = op.functional_calculus(SchwartzFunction("gauss", 0.25), 2, 1e-8)
    moments, run = op._moment_cache[10, 2]
    assert len(moments) == low.diagnostics["degree"] + 1
    f = SchwartzFunction("xgauss", 3.0)
    high = op.functional_calculus(f, 2, 1e-8, strict=False)
    kept, same_run = op._moment_cache[10, 2]
    assert kept is moments and same_run is run
    assert len(moments) == high.diagnostics["degree"] + 1 > 17
    fresh = free_group_model().functional_calculus(f, 2, 1e-8, strict=False)
    assert np.array_equal(high.element.blocks, fresh.element.blocks)


def test_over_budget_truncation_raises_before_allocating():
    # F_3 at R = 8 truncates at radius 12: 366,210,937 words
    op = uniform_hop(3, [1.0], 0.1)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(ResourceBudgetError, match="exceeded budget"):
            op.functional_calculus(SchwartzFunction("gauss", 1.0), 8, 1e-6)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 2.0 and peak < 4 << 20
