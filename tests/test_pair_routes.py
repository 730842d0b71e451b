"""The trace pairing over Z^d: one FFT route for every slot dimension.

``pair_phi_tr`` pairs separable cochains over Z^d through the block FFT of
``SeparableClassCochain.pair_separable`` (directly, or after the face
reduction of a coboundary), and everything else through the support-tuple
sum ``_pair_tuple_sum``.  The property tests draw random slots over Z^1 to
Z^3 with 1x1 and 2x2 blocks, zero slots and class points outside the
convolution box, and compare both routes with a brute oracle.  The oracle
shares no code with either route: it evaluates each cochain from its
closed-form definition and sums over every tuple of support points.

The FFT route reads the class point off the smallest 5-smooth grid of
``_fast_len`` on which no other point of the convolution box aliases onto
it; ``_fast_len`` is checked against a brute search, and a class point
beyond the box must still pair to an exact zero.  A third property draws
slots of unequal widths and a class point anywhere in the support, both
ends included, and compares the pairing with the oracle.  Two pinned cases
count the grid through a patched ``np.fft.fftn``: a wide slot beside two
point slots is cropped by the grid and still pairs exactly, and three
slots of radius R paired at the centre transform on ``_fast_len(3R + 1)``
points per axis.  Two further properties need no oracle: the pairing is
linear in each slot and has the cyclic sign of a cyclic cocycle.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etalab.cyclic import (
    SeparableClassCochain,
    _fast_len,
    _pair_tuple_sum,
    area_cocycle,
    class_trace_cochain,
    coboundary,
    pair_phi_tr,
    periodicity,
    random_delocalized_cochain,
)
from etalab.errors import PreconditionError
from etalab.group_algebra import AlgebraElement
from etalab.groups import CyclicGroup, FreeAbelianGroup

Z1 = FreeAbelianGroup(1)
Z2 = FreeAbelianGroup(2)
Z3 = FreeAbelianGroup(3)

ROUTES = settings(derandomize=True, deadline=None, database=None,
                  max_examples=80)


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


def class_trace_value(h):
    return lambda args: 1.0 if args[0] == h else 0.0


def delocalized_value(rank, h, rate, seed):
    """``[g0 + g1 = h] (f(g0) - f(g1))`` with
    ``f(g) = sin(a . g + b) e^{rate |g|_1}`` and ``a``, ``b`` drawn from
    ``default_rng(seed)`` as the generator documents."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.5, 3.0, size=rank)
    b = rng.uniform(0.0, 2 * np.pi)

    def f(g):
        return np.sin(np.dot(a, g) + b) * np.exp(rate * sum(abs(x) for x in g))

    def value(args):
        g0, g1 = args
        if tuple(x + y for x, y in zip(g0, g1)) != h:
            return 0.0
        return f(g0) - f(g1)
    return value


def area_value(h):
    def value(args):
        g0, g1, g2 = args
        if tuple(x + y + z for x, y, z in zip(g0, g1, g2)) != h:
            return 0.0
        return g1[0] * g2[1] - g1[1] * g2[0]
    return value


def coboundary_value(value):
    """``(b phi)(g_0..g_{n+1})``: the interior faces add adjacent
    arguments with sign ``(-1)^i``; the wrap face adds the last argument
    to the first with sign ``(-1)^{n+1}``."""
    def add(g, k):
        return tuple(x + y for x, y in zip(g, k))

    def b_value(args):
        last = len(args) - 1
        total = 0.0
        for i in range(last):
            merged = args[:i] + (add(args[i], args[i + 1]),) + args[i + 2:]
            total += (-1) ** i * value(merged)
        wrapped = (add(args[-1], args[0]),) + args[1:-1]
        return total + (-1) ** last * value(wrapped)
    return b_value


def oracle_pair(value, ws):
    """``sum tr(w_0^{g_0} ... w_n^{g_n}) phi(g_0..g_n)`` over all support
    tuples, and the sum of the magnitudes of its terms."""
    total = 0.0 + 0.0j
    scale = 0.0
    for items in itertools.product(*[list(w.coeffs.items()) for w in ws]):
        v = value(tuple(g for g, _ in items))
        if v == 0.0:
            continue
        M = items[0][1]
        for _, B in items[1:]:
            M = M @ B
        term = complex(np.trace(M)) * v
        total += term
        scale += abs(term)
    return total, scale


# ---------------------------------------------------------------------------
# random slots
# ---------------------------------------------------------------------------


@st.composite
def slots(draw, group, arity, h):
    """``arity`` elements of one block dimension, each with one to eight
    support points in a shifted 3^rank box.  The shifts sum to ``h``, or
    one time in five to ``h`` plus 20 on each axis, which leaves ``h``
    outside the convolution box.  About one list in four has a zero slot."""
    rank = group.rank
    dim = draw(st.sampled_from([1, 2]))
    miss = 20 if draw(st.integers(0, 4)) == 0 else 0
    blank = draw(st.integers(0, 4 * arity - 1))
    shift = st.tuples(*[st.integers(-3, 3)] * rank)
    offsets = [draw(shift) for _ in range(arity - 1)]
    offsets.insert(0, tuple(x + miss - sum(o[k] for o in offsets)
                            for k, x in enumerate(h)))
    point = st.tuples(*[st.integers(-1, 1)] * rank)
    ws = []
    for k, offset in enumerate(offsets):
        pts = [] if k == blank else draw(
            st.lists(point, min_size=1, max_size=8, unique=True))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        coeffs = {tuple(p + o for p, o in zip(pt, offset)):
                  rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                  for pt in pts}
        ws.append(AlgebraElement(group, dim, coeffs))
    return ws


def class_point(rank, free_axes=None):
    """A class element with coordinates in [-6, 6]; ``free_axes`` limits
    the nonzero ones."""
    axes = range(rank) if free_axes is None else free_axes
    return st.tuples(*[st.integers(-6, 6) if k in axes else st.just(0)
                       for k in range(rank)])


def assert_routes_match(phi, value, ws):
    expected, scale = oracle_pair(value, ws)
    tol = 1e-9 * (1.0 + scale)
    assert abs(pair_phi_tr(phi, ws) - expected) <= tol
    assert abs(_pair_tuple_sum(phi, ws, tuple_budget=10 ** 6) - expected) <= tol


GROUPS = st.sampled_from([Z1, Z2, Z3])


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@ROUTES
@given(data=st.data(), group=GROUPS)
def test_class_trace_routes_agree(data, group):
    h = data.draw(class_point(group.rank))
    phi = class_trace_cochain(group.conjugacy_class(h))
    assert_routes_match(phi, class_trace_value(h), data.draw(slots(group, 1, h)))


@ROUTES
@given(data=st.data(), group=GROUPS, seed=st.integers(0, 1000))
def test_delocalized_cochain_routes_agree(data, group, seed):
    h = data.draw(class_point(group.rank))
    phi = random_delocalized_cochain(group, h, rate=0.2, seed=seed)
    assert_routes_match(phi, delocalized_value(group.rank, h, 0.2, seed),
                        data.draw(slots(group, 2, h)))


@ROUTES
@given(data=st.data(), group=st.sampled_from([Z2, Z3]))
def test_area_cocycle_routes_agree(data, group):
    # the area cocycle needs a class element transverse to its plane
    h = data.draw(class_point(group.rank, free_axes=range(2, group.rank)))
    phi = area_cocycle(group, h, certify=False)
    assert_routes_match(phi, area_value(h), data.draw(slots(group, 3, h)))


@ROUTES
@given(data=st.data(), group=GROUPS, seed=st.integers(0, 1000))
def test_coboundary_face_reduction_routes_agree(data, group, seed):
    h = data.draw(class_point(group.rank))
    phi = coboundary(random_delocalized_cochain(group, h, rate=0.2, seed=seed))
    value = coboundary_value(delocalized_value(group.rank, h, 0.2, seed))
    assert_routes_match(phi, value, data.draw(slots(group, 3, h)))


# ---------------------------------------------------------------------------
# slot checks
# ---------------------------------------------------------------------------


def unit(group, dim=1):
    return AlgebraElement.identity(group, dim)


@pytest.mark.parametrize("ws, message", [
    ([np.ones((1, 1)), unit(Z2), unit(Z2)], "cannot pair against ndarray"),
    ([unit(Z2), unit(Z2), unit(Z2, dim=2)], "inconsistent slot dimensions"),
    ([unit(Z2), unit(CyclicGroup(4)), unit(Z2)], "slot group differs"),
    ([unit(Z2), unit(Z2)], "pairs with 3 slots, got 2"),
    ([unit(Z2)] * 4, "pairs with 3 slots, got 4"),
], ids=["not-an-element", "mixed-dim", "other-group", "too-few", "too-many"])
def test_malformed_slot_lists_are_refused(ws, message):
    phi = area_cocycle(Z2, (0, 0), certify=False)
    with pytest.raises(PreconditionError, match=message):
        pair_phi_tr(phi, ws)


# ---------------------------------------------------------------------------
# the 5-smooth grid
# ---------------------------------------------------------------------------


def test_fast_len_matches_a_brute_search():
    smooth = sorted({2 ** a * 3 ** b * 5 ** c for a in range(14)
                     for b in range(9) for c in range(6)})
    for n in range(1, 4097):
        got = _fast_len(n)
        assert got >= n and got in smooth
        assert not [m for m in smooth if n <= m < got]


def test_class_point_in_the_padding_pairs_to_exact_zero():
    # three 2x2 slots of width 3 on Z^1: L = 7 exact points, N = 8 on the grid
    rng = np.random.default_rng(7)
    ws = [AlgebraElement(Z1, 2, {(g,): rng.normal(size=(2, 2))
                                 + 1j * rng.normal(size=(2, 2))
                                 for g in range(3)}) for _ in range(3)]
    assert _fast_len(7) == 8

    def weight(c):
        return c[0] + 0.5j

    def phi(h):
        return SeparableClassCochain(Z1, 2, (h,), [(1.0, [None, weight, None])])

    def value(args):
        return weight(args[1]) if sum(g[0] for g in args) == 6 else 0.0

    # h = 6 is the last point of the exact box, h = 7 lies in [L, N)
    expected, scale = oracle_pair(value, ws)
    assert abs(pair_phi_tr(phi(6), ws) - expected) <= 1e-12 * scale
    assert pair_phi_tr(phi(7), ws) == 0j
    assert pair_phi_tr(periodicity(class_trace_cochain(Z1.conjugacy_class((7,)))),
                       ws) == 0j


# ---------------------------------------------------------------------------
# the alias-free single-point grid
# ---------------------------------------------------------------------------


@st.composite
def boxed_slots(draw, group, arity):
    """``arity`` elements of one block dimension, each spanning a box of its
    own width (1 to 9 per axis) at its own offset: both corners of the box
    and up to four points inside it carry a block.  Returns the slots and the
    class point, drawn anywhere in the support of their convolution, both
    ends included."""
    rank = group.rank
    dim = draw(st.sampled_from([1, 2]))
    ws, lo, hi = [], [0] * rank, [0] * rank
    for _ in range(arity):
        start = draw(st.tuples(*[st.integers(-4, 4)] * rank))
        width = draw(st.tuples(*[st.integers(1, 9)] * rank))
        end = tuple(a + n - 1 for a, n in zip(start, width))
        inner = draw(st.lists(st.tuples(*[st.integers(a, b)
                                          for a, b in zip(start, end)]),
                              max_size=4))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        coeffs = {pt: rng.normal(size=(dim, dim))
                  + 1j * rng.normal(size=(dim, dim))
                  for pt in {start, end, *inner}}
        ws.append(AlgebraElement(group, dim, coeffs))
        lo = [x + a for x, a in zip(lo, start)]
        hi = [x + b for x, b in zip(hi, end)]
    h = tuple(draw(st.one_of(st.just(a), st.just(b), st.integers(a, b)))
              for a, b in zip(lo, hi))
    return ws, h


def weight(c):
    return 1.0 + 0.5 * c[0] - 0.25j * c[-1]


def weighted_cochain(group, arity, h):
    """``[g_0 + ... + g_n = h] (prod_{k>0} w(g_k) + (0.3 - 0.2i) w(g_0))``
    as a separable cochain, and its value from that definition."""
    second = 0.3 - 0.2j
    phi = SeparableClassCochain(group, arity - 1, h, [
        (1.0, [None] + [weight] * (arity - 1)),
        (second, [weight] + [None] * (arity - 1))])

    def value(args):
        if tuple(map(sum, zip(*args))) != h:
            return 0.0
        return np.prod([weight(g) for g in args[1:]]) + second * weight(args[0])
    return phi, value


@ROUTES
@given(data=st.data(), group=GROUPS, arity=st.integers(1, 3),
       face=st.booleans(), seed=st.integers(0, 1000))
def test_class_point_anywhere_in_the_support_pairs_exactly(data, group, arity,
                                                           face, seed):
    # unequal slot widths and an off-centre class point: the grid must
    # still leave the class point the only one of its residue class
    if face:
        ws, h = data.draw(boxed_slots(group, 3))
        phi = coboundary(random_delocalized_cochain(group, h, rate=0.2,
                                                    seed=seed))
        value = coboundary_value(delocalized_value(group.rank, h, 0.2, seed))
    else:
        ws, h = data.draw(boxed_slots(group, arity))
        phi, value = weighted_cochain(group, arity, h)
    expected, scale = oracle_pair(value, ws)
    assert abs(pair_phi_tr(phi, ws) - expected) <= 1e-9 * (1.0 + scale)


@pytest.fixture
def fft_lengths(monkeypatch):
    """The grid shape ``s`` of every ``np.fft.fftn`` call."""
    lengths = []
    fftn = np.fft.fftn

    def counting_fftn(a, s=None, axes=None, **kwargs):
        lengths.append(tuple(s))
        return fftn(a, s=s, axes=axes, **kwargs)

    monkeypatch.setattr(np.fft, "fftn", counting_fftn)
    return lengths


def test_wide_slot_is_cropped_exactly(fft_lengths):
    # one slot of width 21 and two point slots, the class point at the
    # centre of the 21-point support: the grid holds 12 points, so fftn
    # crops the wide slot, and only entries that cannot reach h are lost
    rng = np.random.default_rng(3)
    wide = AlgebraElement(Z1, 2, {(g,): rng.normal(size=(2, 2))
                                  + 1j * rng.normal(size=(2, 2))
                                  for g in range(-10, 11)})
    points = [AlgebraElement(Z1, 2, {(g,): rng.normal(size=(2, 2))})
              for g in (2, -1)]
    ws = [wide] + points
    phi, value = weighted_cochain(Z1, 3, (1,))
    expected, scale = oracle_pair(value, ws)
    assert abs(pair_phi_tr(phi, ws) - expected) <= 1e-12 * scale
    assert set(fft_lengths) == {(_fast_len(11),)} and _fast_len(11) < 21


@pytest.mark.parametrize("group, radius", [(Z1, 7), (Z2, 3)])
def test_symmetric_pairing_transforms_on_half_the_support(fft_lengths, group,
                                                          radius):
    # three slots on the ball of radius R around 0, paired at h = 0: the
    # support spans 6R + 1 points per axis and h sits at its centre, so
    # every transform runs on _fast_len(3R + 1) points per axis
    rng = np.random.default_rng(radius)
    ws = [AlgebraElement(group, 1, {g: rng.normal(size=(1, 1))
                                    for g in group.ball(radius)})
          for _ in range(3)]
    phi, value = weighted_cochain(group, 3, (0,) * group.rank)
    expected, scale = oracle_pair(value, ws)
    assert abs(pair_phi_tr(phi, ws) - expected) <= 1e-12 * scale
    assert set(fft_lengths) == {(_fast_len(3 * radius + 1),) * group.rank}


# ---------------------------------------------------------------------------
# multilinearity and the cyclic sign
# ---------------------------------------------------------------------------


def cocycles():
    """The degree-2 cocycles of the properties: the area cocycle on Z^3 at a
    class transverse to its plane, and ``S`` of a class trace on Z^1-Z^3."""
    area = st.just(area_cocycle(Z3, (0, 0, 1), certify=False))
    s_trace = st.builds(
        lambda group, data: periodicity(class_trace_cochain(
            group.conjugacy_class(data.draw(class_point(group.rank))))),
        GROUPS, st.data())
    return st.one_of(area, s_trace)


def allowance(phi, *slot_lists):
    """A rounding allowance: 1e-13 times a bound on the magnitude of the
    pairing, which is the product of the slots' l1 norms, times ``dim``,
    times a bound on the cochain over their supports (the area cocycle
    grows quadratically in the coordinates, ``S`` of a class trace is at
    most 1)."""
    bound = 0.0
    for ws in slot_lists:
        reach = max((abs(x) for w in ws for g in w.coeffs for x in g),
                    default=0)
        size = ws[0].dim * np.prod([sum(np.linalg.norm(M)
                                        for M in w.coeffs.values())
                                    for w in ws])
        bound = max(bound, size * 2 * (1 + reach) ** 2)
    return 1e-13 * (1.0 + bound)


@ROUTES
@given(data=st.data(), phi=cocycles(), k=st.integers(0, 2),
       a=st.complex_numbers(max_magnitude=3.0),
       b=st.complex_numbers(max_magnitude=3.0))
def test_pairing_is_linear_in_each_slot(data, phi, k, a, b):
    h = phi.support_class.representative
    ws = data.draw(slots(phi.group, 3, h))
    other = data.draw(slots(phi.group, 3, h).filter(
        lambda vs: vs[0].dim == ws[0].dim))[k]
    mixed = list(ws)
    mixed[k] = a * ws[k] + b * other
    swapped = list(ws)
    swapped[k] = other
    lhs = pair_phi_tr(phi, mixed)
    rhs = a * pair_phi_tr(phi, ws) + b * pair_phi_tr(phi, swapped)
    assert abs(lhs - rhs) <= (abs(a) + abs(b)) * allowance(phi, ws, swapped)


@ROUTES
@given(data=st.data(), phi=cocycles())
def test_pairing_has_the_cyclic_sign(data, phi):
    ws = data.draw(slots(phi.group, 3, phi.support_class.representative))
    rotated = pair_phi_tr(phi, ws[1:] + ws[:1])
    assert abs(rotated - (-1) ** phi.degree * pair_phi_tr(phi, ws)) \
        <= allowance(phi, ws)
