"""Quadrature nodes in pairs: QUADPACK's symmetric abscissae evaluated by one
call, and the Z^d higher-eta grid pass that serves both nodes of a pair.

Pairing is a pure saving: every value, error estimate and diagnostic equals
the node-by-node evaluation bit for bit.
"""

from __future__ import annotations

import math
import tracemalloc

import pytest

from etalab.cyclic import (
    area_cocycle,
    class_trace_cochain,
    coboundary,
    periodicity,
    random_delocalized_cochain,
)
from etalab.eta import _build_integrand, _certified_integral, _complex_quad
from etalab.groups import FreeAbelianGroup
from etalab.operators import two_band_chern_symbol
from etalab.quadpack import quad

Z2 = FreeAbelianGroup(2)
COCHAINS = {
    "area": lambda: area_cocycle(Z2, (0, 0)),
    "shifted_trace": lambda: periodicity(
        class_trace_cochain(Z2.conjugacy_class((1, 0)))),
    "coboundary": lambda: coboundary(
        random_delocalized_cochain(Z2, (1, 0), rate=0.1, seed=3)),
}


def engine(case: str, tol: float = 1e-6):
    return _build_integrand(two_band_chern_symbol(), COCHAINS[case](), 1,
                            tol, None)


class Paired:
    """``func`` with a ``pair`` method that records each pair it serves."""

    def __init__(self, func):
        self.func = func
        self.pairs: list = []

    def __call__(self, t):
        return self.func(t)

    def pair(self, t1, t2):
        self.pairs.append((t1, t2))
        return self.func(t1), self.func(t2)


def peaked(x: float) -> float:
    return 1.0 / (1e-3 + (x - 0.3) ** 2) + math.sin(7.0 * x)


def test_quad_with_pairs_is_bit_identical_and_pairs_are_symmetric():
    paired = Paired(peaked)
    assert quad(paired, 0.0, 2.0, epsabs=1e-12, epsrel=1e-12, limit=200) \
        == quad(peaked, 0.0, 2.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    assert len(paired.pairs) >= 10
    for lo, hi in paired.pairs:
        assert lo < hi


def test_complex_quad_with_pairs_is_bit_identical():
    def func(t):
        return complex(peaked(t), math.cos(3.0 * t) / (1e-2 + t * t))

    assert _complex_quad(Paired(func), 0.0, 2.0, epsabs=1e-11) \
        == _complex_quad(func, 0.0, 2.0, epsabs=1e-11)


@pytest.mark.parametrize("case", sorted(COCHAINS))
@pytest.mark.parametrize("n", [36, 54])
def test_pair_pass_equals_two_one_node_passes(case, n):
    eng = engine(case)
    for t1, t2 in [(0.05, 0.7), (1.5, 3.0)]:
        for readout in (False, True):
            got = eng._grid_pass([t1, t2], n, readout)
            want = [eng._grid_pass([t], n, readout)[0] for t in (t1, t2)]
            assert got == want, (t1, t2, readout)
            assert (got[0][1] is None) is not readout


@pytest.mark.parametrize("case", sorted(COCHAINS))
def test_paired_integral_equals_the_node_by_node_integral(case):
    # the same integrand engine, once offering pairs and once not: same
    # value, error budget, samples and nodes per grid
    paired, single = engine(case), engine(case)
    passes, grid_pass = [], paired._grid_pass

    def counted(ts, n, readout):
        passes.append(len(ts))
        return grid_pass(ts, n, readout)

    paired._grid_pass = counted

    def run(sample, eng):
        return _certified_integral(sample, lambda t: eng.tail_at(t, 0.9),
                                   0.9, tol=1e-6)

    assert run(paired, paired) == run(single.value, single)
    assert paired.memo == single.memo
    assert paired.nodes == single.nodes
    assert passes.count(2) > len(paired.memo) // 2


def test_pair_pass_at_n54_peaks_below_3_mb_traced():
    eng = engine("area")
    eng._grid_pass([0.6, 1.2], 54, True)  # build the grid caches first
    tracemalloc.start()
    try:
        eng._grid_pass([0.7, 1.3], 54, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6
