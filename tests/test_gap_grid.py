"""The symbol-grid gap certificate of ``FourierSymbolOperator``.

Each level evaluates ``D`` on the uniform grid ``theta_j = 2 pi j / n`` from
the coefficients wrapped to ``g mod n``.  Production builds only the
hyperplanes ``g_0 mod n`` that carry a coefficient, inverse-FFTs them over
the trailing axes, and transforms axis 0 last, on slabs of columns of the
flattened trailing axes, keeping a running minimum.  ``numpy.fft.ifftn`` is
the same chain of 1-D passes, last axis first, and an all-zero line
transforms to zeros, so every grid value is the ``ifftn`` of the whole
wrapped box bit for bit; the tests hold production to that reference
exactly (``==``) for 1x1 and 2x2 blocks and to 1e-12 for ``eigvalsh`` of
3x3 blocks.

The property tests draw random Hermitian finite-band symbols over Z^1 to
Z^3 with 1x1 to 3x3 blocks and supports wider than the coarsest grids, so
the wrap aliases.  They also compare every level's ``grid_min`` with an
oracle that shares no code with the FFT route: the direct phase sum ``sum_g
A_g e^{i g.theta}`` on the same grid, followed by ``eigvalsh``.  They check
soundness: the certified gap never exceeds the oracle's minimum |eigenvalue|
on a grid four times finer than the last level, and a symbol with a zero
eigenvalue on the grid certifies 0.  The two-band symbol certifies within
0.3% of its closed-form gap across its phase diagram, the fixtures stop
below the grid caps, their certificates stay within a bounded traced
memory, and the 3x3 route runs in bounded slabs.
"""

from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etalab import operators
from etalab.group_algebra import AlgebraElement
from etalab.groups import FreeAbelianGroup
from etalab.operators import (
    FourierSymbolOperator,
    anisotropic_symbol_3d,
    lattice_laplace_symbol,
    two_band_chern_symbol,
    wilson_symbol,
)

GRID = settings(derandomize=True, deadline=None, database=None,
                max_examples=60)

#: Small grid caps, so that the oracle can follow every level.
SMALL_CAPS = {1: 64, 2: 16, 3: 4}


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


def direct_symbol(coeffs: dict, thetas: np.ndarray, dim: int) -> np.ndarray:
    """``D(theta) = sum_g A_g e^{i g.theta}`` on an ``(..., d)`` array of
    angles, as ``(..., dim, dim)`` blocks."""
    out = np.zeros(thetas.shape[:-1] + (dim, dim), dtype=complex)
    for g, A in coeffs.items():
        phase = np.exp(1j * (thetas @ np.asarray(g, dtype=float)))
        out += phase[..., None, None] * A
    return out


def oracle_grid_min(op: FourierSymbolOperator, n: int) -> float:
    """min |eigenvalue| of the direct phase sum on the uniform n^rank grid."""
    axis = 2.0 * np.pi * np.arange(n) / n
    grids = np.meshgrid(*[axis] * op.rank, indexing="ij")
    thetas = np.stack([g.ravel() for g in grids], axis=-1)
    lam = np.linalg.eigvalsh(direct_symbol(op.element.coeffs, thetas, op.dim))
    return float(np.abs(lam).min())


def wrapped_box_values(op: FourierSymbolOperator, n: int) -> np.ndarray:
    """``D`` on the uniform n^rank grid as ``(..., dim, dim)`` blocks, each
    channel one ``ifftn`` of the whole box of ``A_g[i, k]`` added at
    ``g mod n``: the reference that production must equal bit for bit."""
    out = np.empty((n,) * op.rank + (op.dim, op.dim), dtype=complex)
    for i, k in np.ndindex(op.dim, op.dim):
        box = np.zeros((n,) * op.rank, dtype=complex)
        for g, A in zip(op.element.keys, op.element.blocks):
            box[tuple(x % n for x in g)] += A[i, k]
        out[..., i, k] = np.fft.ifftn(box, norm="forward")
    return out


def closed_form_2x2(D: np.ndarray):
    """``(mu, delta, b, r)`` of Hermitian 2x2 blocks, eigenvalues mu +- r."""
    d00, d11, b = D[..., 0, 0], D[..., 1, 1], D[..., 0, 1]
    mu = 0.5 * (d00 + d11).real
    delta = 0.5 * (d00 - d11).real
    return mu, delta, b, np.sqrt(delta * delta + (b * b.conj()).real)


def reference_grid_min(op: FourierSymbolOperator, n: int) -> float:
    """min |eigenvalue| of :func:`wrapped_box_values`."""
    D = wrapped_box_values(op, n)
    if op.dim == 1:
        lam = D[..., 0, 0].real
    elif op.dim == 2:
        mu, _, _, r = closed_form_2x2(D)
        lam = np.abs(mu) - r
    else:
        lam = np.linalg.eigvalsh(D)
    return float(np.abs(lam).min())


def norm_sum(op: FourierSymbolOperator) -> float:
    return sum(float(np.linalg.norm(A, 2)) for A in op.element.coeffs.values())


def curvature_sum(op: FourierSymbolOperator) -> float:
    """``sum_k Q_k`` with ``Q_k = sum_g g_k^2 ||(D D)_g||``, the blocks of
    ``D D`` summed by a direct double loop over the coefficients."""
    square = {}
    for g1, A1 in op.element.coeffs.items():
        for g2, A2 in op.element.coeffs.items():
            g = tuple(x + y for x, y in zip(g1, g2))
            square[g] = square.get(g, 0.0) + A1 @ A2
    return sum(sum(x * x for x in g) * float(np.linalg.norm(B, 2))
               for g, B in square.items())


def certify(op: FourierSymbolOperator, start: int):
    with mock.patch.dict(operators._GRID_CAPS, SMALL_CAPS), \
            mock.patch.object(operators, "_GAP_START_NODES", start):
        return op.gap_certificate()


# ---------------------------------------------------------------------------
# random Hermitian symbols
# ---------------------------------------------------------------------------


def hermitian_symbol(rank: int, dim: int, support, seed: int):
    """``A_0`` plus the pairs ``A_g``, ``A_{-g} = A_g^*`` for ``g`` in
    ``support``, with Gaussian entries."""
    rng = np.random.default_rng(seed)

    def block():
        return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    A0 = block()
    coeffs = {(0,) * rank: A0 + A0.conj().T}
    for g in support:
        A = block()
        coeffs[g] = A
        coeffs[tuple(-x for x in g)] = A.conj().T
    return FourierSymbolOperator(AlgebraElement(FreeAbelianGroup(rank), dim,
                                                coeffs))


@st.composite
def symbols(draw):
    """A Hermitian symbol on Z^1..Z^3 with ``dim`` 1..3: ``A_0`` plus one to
    four pairs ``A_g``, ``A_{-g} = A_g^*`` with ``0 < |g_k| <= 9``."""
    rank = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 3))
    offset = st.tuples(*[st.integers(-9, 9)] * rank).filter(any)
    support = draw(st.lists(offset, min_size=1, max_size=4,
                            unique_by=lambda g: max(g, tuple(-x for x in g))))
    return hermitian_symbol(rank, dim, support,
                            draw(st.integers(0, 2 ** 32 - 1)))


START = st.integers(1, 8)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@GRID
@given(op=symbols(), start=START)
def test_every_level_matches_the_direct_phase_sum(op, start):
    cert = certify(op, start)
    tol = 1e-12 * norm_sum(op)
    history = cert.diagnostics["history"]
    assert cert.method == "symbol-grid-curvature"
    assert history[0]["nodes"] == min(start, SMALL_CAPS[op.rank])
    for level in history:
        assert set(level) == {"nodes", "grid_min", "slack", "certified"}
        assert type(level["grid_min"]) is float
        assert abs(level["grid_min"] - oracle_grid_min(op, level["nodes"])) \
            <= tol
        assert level["slack"] == pytest.approx(
            (2 * np.pi / level["nodes"]) ** 2 / 8 * curvature_sum(op),
            rel=1e-12)
        m = level["grid_min"]
        assert level["certified"] == math.sqrt(max(0.0,
                                                   m * m - level["slack"]))
    assert cert.value == history[-1]["certified"]


@GRID
@given(op=symbols(), start=START)
def test_every_level_equals_the_whole_box_ifftn(op, start):
    cert = certify(op, start)
    for level in cert.diagnostics["history"]:
        ref = reference_grid_min(op, level["nodes"])
        if op.dim <= 2:
            assert level["grid_min"] == ref
        else:
            assert abs(level["grid_min"] - ref) <= 1e-12 * norm_sum(op)


@GRID
@given(op=symbols(), start=START)
def test_certified_gap_never_exceeds_a_finer_grid(op, start):
    cert = certify(op, start)
    finer = 4 * cert.diagnostics["history"][-1]["nodes"]
    # the oracle rounds too; the allowance is its rounding scale
    assert cert.value <= oracle_grid_min(op, finer) + 1e-12 * norm_sum(op)


@GRID
@given(op=symbols(), start=START, data=st.data())
def test_a_zero_on_the_grid_certifies_zero(op, start, data):
    # theta_j of the first level lies on every later level, which doubles n
    n = min(start, SMALL_CAPS[op.rank])
    j = data.draw(st.tuples(*[st.integers(0, n - 1)] * op.rank))
    theta = 2.0 * np.pi * np.asarray(j, dtype=float) / n
    lam = np.linalg.eigvalsh(direct_symbol(op.element.coeffs, theta, op.dim))
    coeffs = dict(op.element.coeffs)
    zero = (0,) * op.rank
    coeffs[zero] = coeffs[zero] - data.draw(st.sampled_from(list(lam))) \
        * np.eye(op.dim)
    shifted = FourierSymbolOperator(AlgebraElement(op.group, op.dim, coeffs))
    cert = certify(shifted, start)
    tol = 1e-12 * norm_sum(shifted)
    assert all(level["grid_min"] <= tol
               for level in cert.diagnostics["history"])
    assert cert.value == 0.0


# ---------------------------------------------------------------------------
# shipped fixtures at the production caps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make", [lattice_laplace_symbol, wilson_symbol,
                                  two_band_chern_symbol,
                                  anisotropic_symbol_3d])
def test_fixture_levels_match_the_direct_phase_sum(make):
    op = make()
    cert = op.gap_certificate()
    tol = 1e-12 * norm_sum(op)
    # the oracle follows every level up to 2^18 grid points
    levels = [level for level in cert.diagnostics["history"]
              if level["nodes"] ** op.rank <= 1 << 18]
    assert levels
    for level in levels:
        assert abs(level["grid_min"] - oracle_grid_min(op, level["nodes"])) \
            <= tol
    assert 0.0 < cert.value <= oracle_grid_min(op, 64 if op.rank > 1
                                                else 4096)


@pytest.mark.parametrize("mass", [-1.0, -0.3, 0.2, 0.5, 1.0, 1.9, 2.5])
def test_two_band_certifies_near_its_closed_form_gap(mass):
    # |d|^2 = mass^2 + 2 - 2 mass (c1 + c2) + 2 c1 c2 is bilinear in
    # c_k = cos t_k, so its least value sits at a corner c_k = +-1, where
    # sin t1 = sin t2 = 0 and |d| = |mass - c1 - c2|
    gap = min(abs(mass - c1 - c2) for c1 in (1, -1) for c2 in (1, -1))
    cert = two_band_chern_symbol(mass).gap_certificate()
    assert 0.997 * gap <= cert.value <= gap


@pytest.mark.parametrize("make, nodes", [
    (two_band_chern_symbol, 256), (lattice_laplace_symbol, 256),
    (wilson_symbol, 256), (anisotropic_symbol_3d, 128)])
def test_fixture_certificates_stop_below_the_cap(make, nodes):
    assert make().gap_certificate().diagnostics["history"][-1]["nodes"] \
        == nodes


@pytest.mark.parametrize("make", [wilson_symbol, two_band_chern_symbol])
@pytest.mark.parametrize("n", [24, 36, 54])
def test_calculus_spectrum_equals_the_whole_box_ifftn(make, n):
    op = make()
    for got, want in zip(op._spectrum(n),
                         closed_form_2x2(wrapped_box_values(op, n))):
        assert got.shape == (n,) * op.rank
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# memory bounds
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make", [
    two_band_chern_symbol, anisotropic_symbol_3d,
    pytest.param(lambda: two_band_chern_symbol(1.9),
                 id="two_band_chern_symbol_m1.9")])
def test_fixture_certificate_peaks_below_8_mb(make):
    # two_band stops at 256^2 at m = 1 but climbs to 1024^2 at m = 1.9 (gap
    # 0.1), where a whole grid of complex channels would take 16.8 MB per
    # channel; the 128^3 grid of anisotropic3d would take 33.6 MB
    op = make()
    tracemalloc.start()
    try:
        op.gap_certificate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_block_route_runs_in_bounded_slabs_and_matches_the_oracle():
    # 64^3 grid points of 3x3 blocks: axis 0 (64 points) is transformed on
    # slabs of 256 of the 4096 columns, 16 eigvalsh blocks of 2^14 points
    op = hermitian_symbol(3, 3, [(1, 0, 0), (0, 1, -2), (2, 1, 1), (65, 0, 3)],
                          seed=3)
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def counted(block):
        sizes.append(block.size)
        return eigvalsh(block)
    with mock.patch.object(np.linalg, "eigvalsh", counted):
        m = op._uniform_grid_min(64)
    assert sizes == [(1 << 14) * 9] * 16
    assert sum(sizes) == 64 ** 3 * 9
    assert abs(m - oracle_grid_min(op, 64)) <= 1e-12 * norm_sum(op)
