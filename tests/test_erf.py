"""The NumPy erf of the loop unitary and the allowance it carries.

``operators._erf`` is Cody's rational Chebyshev approximation with the
Cephes coefficients.  Its error against mpmath at 30 digits is bounded by
``_ERF_ERROR``, and ``pi * _ERF_ERROR`` enters the calculus error of the
unitary-loop family on every backend.  The last two properties check that
allowance end to end against calculi whose erf, exponential, eigenvalues
and sums all run in mpmath, so they share no erf code with production.
On the Z^d grid the allowance reaches the higher eta through the move
bound that ``SeparableClassCochain.pair_grid`` records (``moved_bound``),
checked against legs moved by a random unitary field.
"""

from __future__ import annotations

import math
import time

import mpmath
import numpy as np
import pytest

from etalab.cyclic import (
    area_cocycle,
    class_trace_cochain,
    coboundary,
    moved_bound,
    pair_phi_tr,
    periodicity,
    random_delocalized_cochain,
)
from etalab.group_algebra import AlgebraElement
from etalab.groups import CyclicGroup, FreeAbelianGroup
from etalab.operators import (
    _ERF_ERROR,
    FiniteCoverOperator,
    SchwartzFunction,
    _erf,
    lattice_laplace_symbol,
    two_band_chern_symbol,
    wilson_symbol,
)


def edges() -> np.ndarray:
    """The branch edges 1 and 6, 0 and the subnormals, each with its eight
    nearest floats on either side."""
    out = [np.array([0.0, 5e-324, 1e-300, 1e-20, 1e-8])]
    for edge in (1.0, 6.0):
        below, above = [edge], [edge]
        for _ in range(8):
            below.append(np.nextafter(below[-1], 0.0))
            above.append(np.nextafter(above[-1], 7.0))
        out.append(np.array(below + above))
    return np.concatenate(out)


def test_erf_is_within_its_error_of_mpmath():
    x = np.concatenate([np.linspace(0.0, 6.5, 20_001), edges(),
                        np.random.default_rng(0).uniform(0.5, 1.0, 2_000)])
    x = np.concatenate([x, -x])
    with mpmath.workdps(30):
        exact = [mpmath.erf(mpmath.mpf(float(v))) for v in x]
        worst = max(abs(mpmath.mpf(float(y)) - e)
                    for y, e in zip(_erf(x), exact))
    assert float(worst) <= _ERF_ERROR


def test_erf_limits_nan_and_oddness():
    assert _erf(np.array([np.inf, -np.inf])).tolist() == [1.0, -1.0]
    assert np.isnan(_erf(np.array([np.nan]))).all()
    assert np.isnan(_erf(np.nan))
    x = np.concatenate([np.linspace(0.0, 8.0, 4_001), edges()])
    assert np.array_equal(_erf(-x), -_erf(x))
    assert np.array_equal(np.signbit(_erf(-x)), ~np.signbit(_erf(x)))


def test_erf_keeps_the_shape_of_its_input():
    assert np.shape(_erf(np.zeros((3, 4)))) == (3, 4)
    assert _erf(0.5) == _erf(np.array([0.5]))[0]


def test_erf_time_on_the_two_band_workload_is_below_a_tenth_of_a_second():
    # the 2-D two-band area higher eta at tol 1e-6 makes 506 erf calls:
    # 248 on the 54^2 grid, 252 on 36^2 and 6 on 24^2, each at t times the
    # band energies, which lie within [1, 3]
    rng = np.random.default_rng(1)
    calls = [rng.uniform(1.0, 3.0, n * n) * rng.choice([-1.0, 1.0])
             * rng.uniform(0.05, 4.0)
             for n, count in ((54, 248), (36, 252), (24, 6))
             for _ in range(count)]
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        for x in calls:
            _erf(x)
        best = min(best, time.perf_counter() - start)
    assert best <= 0.1


# ---------------------------------------------------------------------------
# the loop-family calculus against an mpmath oracle
# ---------------------------------------------------------------------------


def loop_mp(x, t):
    """``u_t(x) - 1 = -exp(i pi erf(t x)) - 1`` in mpmath."""
    return -mpmath.exp(1j * mpmath.pi * mpmath.erf(t * x)) - 1


def dense_loop(H: mpmath.matrix, t: float) -> mpmath.matrix:
    """``u_t(H) - 1`` of a Hermitian matrix by mpmath's ``eighe``."""
    lam, V = mpmath.mp.eighe(H)
    return V * mpmath.diag([loop_mp(v, t) for v in lam]) * V.transpose_conj()


def small_cover(seed: int) -> FiniteCoverOperator:
    """A Hermitian 2x2 kernel on Z/3: a 6 x 6 cover matrix."""
    rng = np.random.default_rng(seed)
    A0 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    A1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return FiniteCoverOperator(AlgebraElement(
        CyclicGroup(3), 2, {0: A0 + A0.conj().T, 1: A1, 2: A1.conj().T}))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("t", [0.3, 1.0, 2.0])
def test_cover_loop_calculus_is_within_its_error_of_mpmath(seed, t):
    op = small_cover(seed)
    res = op.functional_calculus(SchwartzFunction("ut_minus_1", t), 1,
                                 strict=False)
    assert res.error >= math.pi * _ERF_ERROR
    with mpmath.workdps(30):
        F = dense_loop(mpmath.matrix(op.cover_matrix().tolist()), t)
        for g, block in res.element.coeffs.items():
            a = 2 * op.index[g]
            exact = np.array([[complex(F[a + i, j]) for j in range(2)]
                              for i in range(2)])
            assert float(np.abs(block - exact).max()) <= res.error, g


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_symbol_loop_calculus_is_within_its_error_of_mpmath(t):
    # the Wilson symbol on Z: the oracle's trapezoid sum on 96 points
    # agrees with the one on 160 points to 1e-30 at t = 0.5 and t = 2
    op = wilson_symbol()
    R, n = 2, 96
    res = op.functional_calculus(SchwartzFunction("ut_minus_1", t), R,
                                 1e-12, strict=False)
    assert res.error >= math.pi * _ERF_ERROR
    blocks = {g[0]: mpmath.matrix(A.tolist())
              for g, A in zip(op.element.keys, op.element.blocks)}
    with mpmath.workdps(30):
        coef = {a: mpmath.zeros(2, 2) for a in range(-R, R + 1)}
        for j in range(n):
            D = sum((A * mpmath.expjpi(mpmath.mpf(2 * g * j) / n)
                     for g, A in blocks.items()), mpmath.zeros(2, 2))
            F = dense_loop(D, t)
            for a in coef:
                coef[a] += F * mpmath.expjpi(mpmath.mpf(-2 * a * j) / n)
        for a, total in coef.items():
            exact = np.array([[complex(total[i, j] / n) for j in range(2)]
                              for i in range(2)])
            block = res.element.coeffs[(a,)]
            assert float(np.abs(block - exact).max()) <= res.error, a


# ---------------------------------------------------------------------------
# the grid pairing's move bound
# ---------------------------------------------------------------------------


def grid_slots(op, t: float, n: int):
    """The dot and the leg of the ``ut`` family on the n^d grid, entry
    planes first."""
    def sample(tag):
        return op._apply_on_grid(SchwartzFunction(tag, t), n)
    return sample("udot_uinv"), sample("ut_minus_1")


def unitary_field(shape: tuple, dim: int, seed: int) -> np.ndarray:
    """A random unitary at every grid point, entry planes first."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=shape + (dim, dim)) + 1j * rng.normal(
        size=shape + (dim, dim))
    q, _ = np.linalg.qr(z)
    return np.ascontiguousarray(np.moveaxis(q, (-2, -1), (0, 1)))


@pytest.mark.parametrize("case", ["area", "shifted_trace", "coboundary"])
@pytest.mark.parametrize("seed", range(3))
def test_grid_move_bound_covers_a_move_of_the_legs(case, seed):
    # every leg moves by delta in operator norm at every grid point; the
    # pairing moves by less than moved_bound, given the bound on the moves
    # of the slot products that pair_grid is handed
    z1, z2 = FreeAbelianGroup(1), FreeAbelianGroup(2)
    op, phi = {
        "area": (two_band_chern_symbol(), area_cocycle(z2, (0, 0))),
        "shifted_trace": (lattice_laplace_symbol(), periodicity(
            class_trace_cochain(z1.conjugacy_class((1,))))),
        "coboundary": (lattice_laplace_symbol(), coboundary(
            random_delocalized_cochain(z1, (3,), rate=0.1, seed=3))),
    }[case]
    t, n, delta = 0.8, 36, 1e-6
    dot, leg = grid_slots(op, t, n)
    moved_leg = leg + delta * unitary_field(leg.shape[2:], op.dim, seed)

    def pairing(leg, cache=None):
        return pair_phi_tr(phi, [dot, leg, np.conj(leg.swapaxes(0, 1))],
                           _box_cache=cache)

    dot_sup = math.sqrt(2.0 * math.pi / math.e) / t
    cache = {"delta": max(1.0, dot_sup) * ((2.0 + delta) ** 2 - 4.0)}
    value = pairing(leg, cache)
    assert 0 < abs(pairing(moved_leg) - value) <= moved_bound(cache)


@pytest.mark.parametrize("case", ["area", "shifted_trace", "coboundary"])
@pytest.mark.parametrize("seed", range(3))
def test_per_slot_move_bound_covers_a_move_of_the_legs(case, seed):
    # as above, with each original slot charged its own move (0 for the
    # dot, delta for the legs) and face products the uniform one; the bound
    # still covers the move and is no larger than the uniform bound
    z1, z2 = FreeAbelianGroup(1), FreeAbelianGroup(2)
    op, phi = {
        "area": (two_band_chern_symbol(), area_cocycle(z2, (0, 0))),
        "shifted_trace": (lattice_laplace_symbol(), periodicity(
            class_trace_cochain(z1.conjugacy_class((1,))))),
        "coboundary": (lattice_laplace_symbol(), coboundary(
            random_delocalized_cochain(z1, (3,), rate=0.1, seed=3))),
    }[case]
    t, n, delta = 0.8, 36, 1e-6
    dot, leg = grid_slots(op, t, n)
    moved_leg = leg + delta * unitary_field(leg.shape[2:], op.dim, seed)

    def pairing(leg, cache=None):
        return pair_phi_tr(phi, slots(leg), _box_cache=cache)

    def slots(leg):
        return [dot, leg, np.conj(leg.swapaxes(0, 1))]

    dot_sup = math.sqrt(2.0 * math.pi / math.e) / t
    uniform = {"delta": max(1.0, dot_sup) * ((2.0 + delta) ** 2 - 4.0)}
    ws = slots(leg)
    per_slot = dict(uniform, moves={id(ws[0]): 0.0, id(ws[1]): delta,
                                    id(ws[2]): delta})
    value = pair_phi_tr(phi, ws, _box_cache=per_slot)
    pairing(leg, uniform)
    bound = moved_bound(per_slot)
    assert 0 < abs(pairing(moved_leg) - value) <= bound
    assert bound <= moved_bound(uniform)
    if case == "area":  # no face products: every slot keeps its own move
        assert bound < 0.5 * moved_bound(uniform)
