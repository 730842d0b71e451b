"""The stacked-block layout of ``AlgebraElement`` against a dict of blocks.

The reference below keeps one ``{g: (d, d) block}`` dict per element and
spells out each operation block by block, in the order of the dict.  Every
property compares the production layout (``keys`` plus one ``(N, d, d)``
array) with it bit for bit, key order included, except the FFT route of
``convolve``, whose values carry transform roundoff.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etalab import group_algebra
from etalab.errors import RepresentationError
from etalab.group_algebra import ZERO_THRESHOLD, AlgebraElement, convolve
from etalab.groups import (
    CyclicGroup,
    FreeAbelianGroup,
    FreeGroup,
    ProductGroup,
)

LAYOUT = settings(derandomize=True, database=None, deadline=None,
                  max_examples=60)

GROUPS = [FreeAbelianGroup(1), FreeAbelianGroup(2), FreeAbelianGroup(3),
          CyclicGroup(5), FreeGroup(2),
          ProductGroup([FreeAbelianGroup(1), CyclicGroup(3)])]

#: the ``group`` document of each of ``GROUPS``
GROUP_DOCS = [{"kind": "free_abelian", "rank": 1},
              {"kind": "free_abelian", "rank": 2},
              {"kind": "free_abelian", "rank": 3},
              {"kind": "cyclic", "order": 5},
              {"kind": "free", "rank": 2},
              {"kind": "product",
               "factors": [{"kind": "free_abelian", "rank": 1},
                           {"kind": "cyclic", "order": 3}]}]


# ---------------------------------------------------------------------------
# the dict-of-blocks reference
# ---------------------------------------------------------------------------


def ref_block(value, dim):
    block = np.array(value, dtype=complex)
    if block.ndim == 0:
        block = block.reshape(1, 1)
    assert block.shape == (dim, dim)
    return block


def ref_cleanup(blocks: dict) -> dict:
    """Drop every block whose largest entry is at most ZERO_THRESHOLD times
    the largest entry of all; drop everything if that is 0."""
    if not blocks:
        return {}
    mags = {g: float(np.abs(M).max()) for g, M in blocks.items()}
    peak = max(mags.values())
    if peak == 0.0:
        return {}
    return {g: M for g, M in blocks.items() if mags[g] > peak * ZERO_THRESHOLD}


def ref_terms(terms, dim) -> dict:
    acc: dict = {}
    for g, c in terms:
        block = ref_block(np.asarray(c, dtype=complex) * np.eye(dim)
                          if np.ndim(c) == 0 else c, dim)
        acc[g] = acc[g] + block if g in acc else block
    return ref_cleanup(acc)


def ref_add(a: dict, b: dict) -> dict:
    out = {g: M.copy() for g, M in a.items()}
    for g, M in b.items():
        out[g] = out[g] + M if g in out else M.copy()
    return ref_cleanup(out)


def ref_star(group, a: dict) -> dict:
    return {group.inverse(g): M.conj().T for g, M in a.items()}


def ref_support(group, a: dict) -> list:
    return sorted(a, key=lambda g: (group.word_length(g), group.sort_key(g)))


def ref_convolve(group, a: dict, b: dict) -> dict:
    out: dict = {}
    for g1 in ref_support(group, a):
        for g2 in ref_support(group, b):
            g = group.multiply(g1, g2)
            prod = a[g1] @ b[g2]
            out[g] = out[g] + prod if g in out else prod
    return ref_cleanup(out)


def ref_trace_norm(M) -> float:
    if M.shape == (1, 1):
        return abs(complex(M[0, 0]))
    return float(np.linalg.svd(M, compute_uv=False).sum())


def same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype \
        and x.tobytes() == y.tobytes()


def assert_layout(element: AlgebraElement, ref: dict):
    """``element`` holds exactly ``ref``: keys in its order, blocks bit for
    bit, one read-only C-contiguous stack, and ``coeffs`` as its view."""
    assert list(element.keys) == list(ref)
    blocks = element.blocks
    assert blocks.dtype == complex and blocks.flags.c_contiguous
    assert not blocks.flags.writeable
    assert blocks.shape == (len(ref), element.dim, element.dim)
    for block, want in zip(blocks, ref.values()):
        assert same_bits(block, want)
    assert list(element.coeffs) == list(ref)
    assert len(element.coeffs) == len(ref)
    for g, want in ref.items():
        assert same_bits(element.coeffs[g], want)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

#: decades below the peak; 13 to 15 straddle the 1e-14 cleanup threshold
DECADES = [0, 0, 0, 1, 13, 14, 15, 20, None]


@st.composite
def terms(draw, group, dim, min_size=0, max_size=8):
    """(point, coefficient) pairs over ``ball(2)``, repeats allowed; for
    ``dim == 1`` some coefficients are plain Python numbers."""
    points = group.ball(2)
    n = draw(st.integers(min_size, max_size))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    out = []
    for _ in range(n):
        g = points[draw(st.integers(0, len(points) - 1))]
        decade = draw(st.sampled_from(DECADES))
        scale = 0.0 if decade is None else 10.0 ** -decade
        block = scale * (rng.normal(size=(dim, dim))
                         + 1j * rng.normal(size=(dim, dim)))
        if dim == 1 and draw(st.booleans()):
            block = complex(block[0, 0])
        out.append((g, block))
    return out


@st.composite
def cases(draw, groups=GROUPS):
    group = draw(st.sampled_from(groups))
    dim = draw(st.integers(1, 3))
    return group, dim


def both(group, dim, pairs):
    """The production element and its reference dict for ``pairs``."""
    return (AlgebraElement.from_terms(group, pairs, dim),
            ref_terms(pairs, dim))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@LAYOUT
@given(data=st.data(), case=cases())
def test_construction_sums_repeats_and_accepts_scalars(data, case):
    group, dim = case
    pairs = data.draw(terms(group, dim))
    element, ref = both(group, dim, pairs)
    assert_layout(element, ref)
    # the dict constructor applies the same rule to distinct keys
    distinct = dict(pairs)
    assert_layout(AlgebraElement(group, dim, distinct),
                  ref_cleanup({g: ref_block(c, dim)
                               for g, c in distinct.items()}))


@LAYOUT
@given(data=st.data(), case=cases(), decade=st.integers(12, 16))
def test_cleanup_drops_blocks_at_the_relative_threshold(data, case, decade):
    group, dim = case
    pairs = data.draw(terms(group, dim, min_size=2))
    # push the last term to a ratio near the threshold
    g, c = pairs[-1]
    pairs[-1] = (g, np.asarray(c) * 0.0 + 10.0 ** -decade)
    element, ref = both(group, dim, pairs)
    assert_layout(element, ref)


def test_cleanup_keeps_only_blocks_strictly_above_the_threshold():
    group = FreeAbelianGroup(1)
    element = AlgebraElement(group, 1, {(0,): 1.0, (1,): ZERO_THRESHOLD,
                                        (2,): 1.5 * ZERO_THRESHOLD,
                                        (3,): -0.5})
    assert element.keys == ((0,), (2,), (3,))


def test_cleanup_of_all_zero_blocks_is_empty():
    group = FreeAbelianGroup(2)
    element = AlgebraElement(group, 2, {(0, 0): np.zeros((2, 2)),
                                        (1, 0): np.zeros((2, 2))})
    assert element.keys == () and element.blocks.shape == (0, 2, 2)
    assert element.max_abs() == 0.0 and element.propagation_radius() == 0


@LAYOUT
@given(data=st.data(), case=cases(),
       c=st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                            allow_infinity=False))
def test_sum_difference_scale_and_star(data, case, c):
    group, dim = case
    a, ra = both(group, dim, data.draw(terms(group, dim)))
    b, rb = both(group, dim, data.draw(terms(group, dim)))
    assert_layout(a + b, ref_add(ra, rb))
    assert_layout(-b, {g: -M for g, M in rb.items()})
    assert_layout(a - b, ref_add(ra, {g: -M for g, M in rb.items()}))
    assert_layout(a.scale(c), ref_cleanup({g: c * M for g, M in ra.items()}))
    assert_layout(a.star(), ref_star(group, ra))


@pytest.mark.parametrize("crossover", [0, 10 ** 9],
                         ids=["fft-route", "nested-route"])
@LAYOUT
@given(data=st.data(), case=cases())
def test_convolve_on_both_sides_of_the_crossover(crossover, data, case):
    group, dim = case
    a, ra = both(group, dim, data.draw(terms(group, dim)))
    b, rb = both(group, dim, data.draw(terms(group, dim)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(group_algebra, "FFT_CROSSOVER", crossover)
        got = convolve(a, b)
    want = ref_convolve(group, ra, rb)
    fft = isinstance(group, FreeAbelianGroup) and crossover == 0 \
        and a.keys and b.keys
    if not fft:
        assert_layout(got, want)
        return
    # raster order of the box, every kept block above the threshold, and
    # the values of the exact sum up to transform roundoff
    assert list(got.keys) == sorted(got.keys)
    scale = max((float(np.abs(M).max()) for M in want.values()),
                default=0.0) + a.max_abs() * b.max_abs()
    mags = np.abs(got.blocks).max(axis=(1, 2))
    if len(mags):
        assert (mags > mags.max() * ZERO_THRESHOLD).all()
    zero = np.zeros((dim, dim))
    for g in set(got.keys) | set(want):
        diff = got.coefficient(g) - want.get(g, zero)
        assert np.abs(diff).max() <= 1e-12 * scale


@LAYOUT
@given(data=st.data(), case=cases(GROUPS[:3]))
def test_fft_self_product_equals_the_product_with_a_twin(data, case):
    # the self-product transforms its one operand once; a twin with the
    # same keys and blocks is transformed on its own
    group, dim = case
    a, _ = both(group, dim, data.draw(terms(group, dim)))
    twin = AlgebraElement(group, dim, dict(zip(a.keys, a.blocks.copy())))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(group_algebra, "FFT_CROSSOVER", 0)
        got, want = convolve(a, a), convolve(a, twin)
    assert got.keys == want.keys
    assert same_bits(got.blocks, want.blocks)


@LAYOUT
@given(data=st.data(), case=cases())
def test_trace_norms_are_bit_equal_and_in_key_order(data, case):
    group, dim = case
    element, ref = both(group, dim, data.draw(terms(group, dim)))
    norms = element.trace_norms()
    assert list(norms) == list(ref)
    for g, M in ref.items():
        assert same_bits(norms[g], ref_trace_norm(M))


@LAYOUT
@given(data=st.data(), case=cases())
def test_support_order(data, case):
    group, dim = case
    element, ref = both(group, dim, data.draw(terms(group, dim)))
    assert element.support == ref_support(group, ref)
    assert element.propagation_radius() == max(
        (group.word_length(g) for g in ref), default=0)


@LAYOUT
@given(data=st.data(), case=cases())
def test_json_round_trip(data, case):
    group, dim = case
    element, ref = both(group, dim, data.draw(terms(group, dim)))
    support = ref_support(group, ref)
    doc = {"group": GROUP_DOCS[GROUPS.index(group)], "dim": dim,
           "entries": [{"element": group.element_to_json(g),
                        "matrix": [[z.real, z.imag]
                                   for z in ref[g].reshape(-1).tolist()]}
                       for g in support]}
    back = AlgebraElement.from_json(json.loads(json.dumps(doc)))
    assert back.group == group and back.dim == dim
    assert_layout(back, {g: ref[g] for g in support})


@pytest.mark.parametrize("coeffs", [
    {(0,): np.eye(2), (1,): np.eye(3)},
    {(0,): np.ones(2)},
    {(0,): 1.0},
])
def test_blocks_of_the_wrong_shape_are_rejected(coeffs):
    with pytest.raises(RepresentationError):
        AlgebraElement(FreeAbelianGroup(1), 2, coeffs)
