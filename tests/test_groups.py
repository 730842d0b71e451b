"""Group models: word metrics, balls, geodesics, conjugacy, growth counts."""

from __future__ import annotations

import numpy as np
import pytest

from etalab.errors import (
    RepresentationError,
    ResourceBudgetError,
)
from etalab.groups import (
    CyclicGroup,
    FreeAbelianGroup,
    FreeGroup,
    ProductGroup,
)

Z = FreeAbelianGroup(1)
Z2 = FreeAbelianGroup(2)
Z3 = FreeAbelianGroup(3)
F2 = FreeGroup(2)
C5 = CyclicGroup(5)
C6 = CyclicGroup(6)

ALL_MODELS = [
    Z, Z2, Z3, F2, C5, C6,
    ProductGroup([FreeAbelianGroup(2), CyclicGroup(3)]),
    ProductGroup([FreeGroup(2), CyclicGroup(2)]),
]


def sample_elements(group, rng, n, radius):
    ball = group.ball(radius)
    idx = rng.integers(0, len(ball), size=n)
    return [ball[i] for i in idx]


# ---------------------------------------------------------------------------
# axioms and canonical forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("group", ALL_MODELS)
def test_group_axioms_sampled(group):
    rng = np.random.default_rng(1)
    elems = sample_elements(group, rng, 30, 3)
    e = group.identity
    for g in elems:
        assert group.multiply(g, e) == g
        assert group.multiply(e, g) == g
        assert group.multiply(g, group.inverse(g)) == e
        assert group.word_length(g) == group.word_length(group.inverse(g))
    for _ in range(30):
        a, b, c = (elems[rng.integers(len(elems))] for _ in range(3))
        assert group.multiply(group.multiply(a, b), c) == \
            group.multiply(a, group.multiply(b, c))


@pytest.mark.parametrize("group", ALL_MODELS)
def test_word_length_subadditive(group):
    rng = np.random.default_rng(2)
    elems = sample_elements(group, rng, 40, 3)
    for _ in range(60):
        a = elems[rng.integers(len(elems))]
        b = elems[rng.integers(len(elems))]
        assert group.word_length(group.multiply(a, b)) <= \
            group.word_length(a) + group.word_length(b)


def test_free_reduction_and_parsing():
    w = F2.element_from_text("abA")
    assert w == (1, 2, -1)
    assert F2.multiply((1,), (-1,)) == ()
    assert F2.multiply((1, 2), (-2, -1)) == ()
    assert F2.element_to_text((1, 2, -1)) == "abA"
    assert F2.element_from_text("e") == ()
    # a * a^-1 collapses while parsing
    assert F2.element_from_text("aA") == ()
    with pytest.raises(RepresentationError):
        F2.validate((1, -1))  # not reduced
    with pytest.raises(RepresentationError):
        F2.element_from_text("xyz")


def test_cyclic_word_length_wraps():
    # distance to 0 in Z/5: 4 is one step backwards
    assert C5.word_length(4) == 1
    assert C5.word_length(2) == 2
    assert C5.validate(-1) == 4


@pytest.mark.parametrize("group", ALL_MODELS)
def test_element_serialization_roundtrip(group):
    rng = np.random.default_rng(3)
    for g in sample_elements(group, rng, 25, 3):
        assert group.element_from_text(group.element_to_text(g)) == g
        assert group.element_from_json(group.element_to_json(g)) == g


# ---------------------------------------------------------------------------
# balls and spheres
# ---------------------------------------------------------------------------


def test_ball_sizes_frozen():
    # |B_2(F_2)| = 1 + 4 + 12
    assert len(F2.ball(2)) == 17
    # |B_R(Z)| = 2R + 1
    assert len(Z.ball(5)) == 11
    # |B_2(Z^2)| = 1 + 4 + 8
    assert len(Z2.ball(2)) == 13
    # Z/5 is exhausted at radius 2
    assert len(C5.ball(2)) == 5
    assert len(C5.ball(10)) == 5


@pytest.mark.parametrize("group", ALL_MODELS)
def test_ball_is_sorted_and_consistent(group):
    ball = group.ball(3)
    assert len(set(ball)) == len(ball)
    lengths = [group.word_length(g) for g in ball]
    assert lengths == sorted(lengths)
    assert all(L <= 3 for L in lengths)
    # spheres partition the ball
    assert sum(len(group.sphere(n)) for n in range(4)) == len(ball)
    # deterministic across calls
    assert group.ball(3) == ball


@pytest.mark.parametrize("group", ALL_MODELS)
def test_ball_closed_under_generators(group):
    # every element of B_{R-1} times a generator lands in B_R
    ball_small = set(group.ball(2))
    ball_big = set(group.ball(3))
    for g in ball_small:
        for s in group.generators():
            assert group.multiply(g, s) in ball_big


def test_ball_budget_enforced():
    with pytest.raises(ResourceBudgetError):
        FreeGroup(2).ball(15, budget=1000)


# ---------------------------------------------------------------------------
# geodesic points and splittings (brute-force oracle)
# ---------------------------------------------------------------------------


def brute_geodesic_points(group, g):
    L = group.word_length(g)
    return sorted(
        (x for x in group.ball(L)
         if group.word_length(x)
         + group.word_length(group.multiply(group.inverse(x), g)) == L),
        key=lambda x: (group.word_length(x), group.sort_key(x)))


@pytest.mark.parametrize("group", [Z2, F2, C5, C6,
                                   ProductGroup([FreeAbelianGroup(1), CyclicGroup(4)])])
def test_geodesic_points_match_bruteforce(group):
    rng = np.random.default_rng(4)
    for g in sample_elements(group, rng, 15, 3):
        direct = sorted(group.geodesic_points(g),
                        key=lambda x: (group.word_length(x), group.sort_key(x)))
        assert direct == brute_geodesic_points(group, g)


def test_geodesic_counts_known():
    # in Z^2, geodesics from 0 to (m, n) fill the rectangle
    assert len(Z2.geodesic_points((2, 3))) == 3 * 4
    # in a free group the geodesic is the unique prefix chain
    g = F2.element_from_text("abA")
    assert len(F2.geodesic_points(g)) == 4


def brute_splittings(group, g, q):
    # all (g1, g2), g1 g2 = g, with g1 within q of some geodesic point
    L = group.word_length(g)
    geo = brute_geodesic_points(group, g)
    out = []
    for x in group.ball(L + q):
        d = min(group.word_length(group.multiply(group.inverse(p), x)) for p in geo)
        if d <= q:
            out.append((x, group.multiply(group.inverse(x), g)))
    return sorted(out, key=lambda p: (group.word_length(p[0]), group.sort_key(p[0])))


@pytest.mark.parametrize("group,q", [(Z2, 0), (Z2, 1), (F2, 0), (F2, 1), (C6, 1)])
def test_splittings_match_bruteforce(group, q):
    rng = np.random.default_rng(5)
    for g in sample_elements(group, rng, 6, 2):
        got = group.splittings(g, q)
        assert got == brute_splittings(group, g, q)
        for g1, g2 in got:
            assert group.multiply(g1, g2) == g


def test_splittings_geodesic_case_counts():
    # q=0 on (1,1) in Z^2: the four corners of the unit square
    pairs = Z2.splittings((1, 1), 0)
    assert len(pairs) == 4
    # q=0 in a free group: l(g)+1 prefix factorizations
    g = F2.element_from_text("ab")
    assert len(F2.splittings(g, 0)) == 3


# ---------------------------------------------------------------------------
# conjugacy
# ---------------------------------------------------------------------------


def conjugate(group, g, x):
    """``x^-1 g x``."""
    return group.multiply(group.multiply(group.inverse(x), g), x)


def min_conjugator_length(group, h, g, radius: int) -> int:
    """Length of the shortest x with ``x^-1 h x == g``, searching
    |x| <= radius; :class:`LookupError` if there is none."""
    for x in group.ball(radius):
        if conjugate(group, h, x) == g:
            return group.word_length(x)
    raise LookupError(f"no conjugator of length <= {radius}")


def brute_class_members(group, h, radius, search_radius):
    members = set()
    for x in group.ball(search_radius):
        g = conjugate(group, h, x)
        if group.word_length(g) <= radius:
            members.add(g)
    return members


def test_free_conjugacy_matches_bruteforce():
    h = F2.element_from_text("ab")
    cls = F2.conjugacy_class(h)
    got = set(cls.elements_within(4))
    # conjugating by B_3 already produces every class member in B_4 here
    expected = brute_class_members(F2, h, 4, 3)
    assert expected <= got
    for g in got:
        # membership must be witnessed by an actual conjugator
        assert min_conjugator_length(F2, h, g, 6) >= 0


def test_free_conjugacy_rotations():
    h = F2.element_from_text("ab")
    cls = F2.conjugacy_class(h)
    assert cls.contains(F2.element_from_text("ba"))
    assert cls.contains(F2.element_from_text("aabA"))  # a(ab)a^-1
    assert not cls.contains(F2.element_from_text("aB"))
    assert cls.minimal_length() == 2


def test_abelian_classes_are_singletons():
    cls = Z2.conjugacy_class((1, 0))
    assert cls.elements_within(5) == [(1, 0)]
    assert not cls.is_trivial
    assert Z2.conjugacy_class((0, 0)).is_trivial


def test_min_conjugator_lengths_frozen():
    h = F2.element_from_text("ab")
    # a^-1 conjugates ab to a(ab)a^-1 = aabA
    assert min_conjugator_length(F2, h, F2.element_from_text("aabA"), 4) == 1
    # a conjugates ab to ba
    assert min_conjugator_length(F2, h, F2.element_from_text("ba"), 4) == 1
    assert min_conjugator_length(F2, h, h, 4) == 0
    with pytest.raises(LookupError):
        min_conjugator_length(F2, h, F2.element_from_text("aB"), 3)


def test_conjugator_defect_bounded_on_free_class():
    # empirical check of the bounded-conjugator phenomenon: the shortest
    # conjugator length minus (l(g) - min length)/2 stays small on <ab>
    h = F2.element_from_text("ab")
    cls = F2.conjugacy_class(h)
    defects = []
    for g in cls.elements_within(6):
        n = min_conjugator_length(F2, h, g, 6)
        defects.append(n - (F2.word_length(g) - cls.minimal_length()) / 2)
    assert max(defects) <= 1.0


# ---------------------------------------------------------------------------
# growth counts and rates
# ---------------------------------------------------------------------------


def enumerated_shell_counts(cls, radius):
    """Class members of each length, by a conjugacy test over the ball."""
    group = cls.group
    counts = [0] * (radius + 1)
    for g in group.ball(radius):
        if cls.contains(g):
            counts[group.word_length(g)] += 1
    return counts


F3 = FreeGroup(3)
F2xC3 = ProductGroup([F2, CyclicGroup(3)])


@pytest.mark.parametrize("group, text, radius", [
    (F2, "a", 9), (F2, "ab", 9), (F2, "aa", 9), (F2, "abAB", 9),
    (F2, "e", 9), (F3, "aab", 6), (Z2, "1,-2", 6), (C5, "2", 4),
    (F2xC3, "ab|1", 6), (F2xC3, "e|2", 6),
])
def test_shell_counts_match_enumeration(group, text, radius):
    cls = group.conjugacy_class(group.element_from_text(text))
    assert cls.shell_counts(radius) == enumerated_shell_counts(cls, radius)


def test_growth_trivial_class():
    cls = Z2.conjugacy_class((0, 0))
    assert cls.shell_counts(6) == [1, 0, 0, 0, 0, 0, 0]
    assert cls.growth_rate == 0.0


def test_growth_free_group_rate():
    cls = F2.conjugacy_class(F2.element_from_text("ab"))
    # spheres have 4 * 3^(n-1) elements: rate ln 3
    assert F2.growth_rate == np.log(3)
    assert [len(F2.sphere(n)) for n in range(1, 8)] == \
        [4 * 3 ** (n - 1) for n in range(1, 8)]
    # the class has 2 * 2 * 3^(k-1) members at length 2 + 2k: rate ln 3 / 2
    assert cls.growth_rate == np.log(3) / 2
    assert cls.shell_counts(10)[2::2] == [2, 4, 12, 36, 108]
    assert F3.conjugacy_class(F3.element_from_text("aab")).growth_rate \
        == np.log(5) / 2
    # a conjugacy class grows no faster than the group
    assert cls.growth_rate <= F2.growth_rate


def test_growth_abelian_rates_near_zero():
    for group in (Z2, C5, ProductGroup([Z2, C5])):
        assert group.growth_rate == 0.0
        assert group.conjugacy_class(group.generators()[0]).growth_rate \
            == 0.0
    # a product grows at the rate of its fastest factor
    assert F2xC3.growth_rate == np.log(3)
    assert F2xC3.conjugacy_class(((1,), 1)).growth_rate == np.log(3) / 2
    assert F2xC3.conjugacy_class(((), 1)).growth_rate == 0.0
