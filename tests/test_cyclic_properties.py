"""Hypothesis properties of the cyclic coboundary ``b`` and of Connes'
periodicity operator ``S`` on sampled tuples.

``b o b = 0`` is an identity of the face maps, so it must hold to rounding
for every cochain: random tables over Z^2, Z/5 and F_2, and the random
delocalized cochains over Z^2 and Z/5 (their generator needs the
integer-array encoding, which F_2 does not have).  ``S`` must map cocycles
to cocycles: the area cocycles over Z^2 and Z^3 and the class traces over
Z^2, Z/5 and F_2, raised by ``S``, must pass the sampled cocycle and
cyclicity certificate.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etalab.cyclic import (
    _Sample,
    area_cocycle,
    certify_cyclic_cocycle,
    class_trace_cochain,
    coboundary,
    max_cocycle_violation,
    periodicity,
    random_delocalized_cochain,
    table_cochain,
)
from etalab.groups import CyclicGroup, FreeAbelianGroup, FreeGroup

SETTINGS = dict(derandomize=True, database=None, deadline=None)

Z2 = FreeAbelianGroup(2)
C5 = CyclicGroup(5)
F2 = FreeGroup(2)
GROUPS = {"Z^2": Z2, "Z/5": C5, "F_2": F2}

#: |b b phi| relative to the largest sampled |b phi|: a dozen signed terms
#: of the same values, so a few ulps.
ROUNDING = 1e-13

seeds = st.integers(0, 2 ** 32 - 1)


def random_table(group, degree: int, seed: int):
    """A cochain with random complex values on about half of the tuples
    of the unit ball (zero elsewhere); neither cyclic nor a cocycle."""
    rng = np.random.default_rng(seed)
    tuples = list(itertools.product(group.ball(1), repeat=degree + 1))
    keep = rng.random(len(tuples)) < 0.5
    values = rng.normal(size=(len(tuples), 2))
    return table_cochain(group, degree, {
        t: complex(*v) for t, k, v in zip(tuples, keep, values) if k})


def class_element(group, draw: int):
    ball = group.ball(1)
    return ball[draw % len(ball)]


@settings(max_examples=16, **SETTINGS)
@given(name=st.sampled_from(sorted(GROUPS)), degree=st.integers(0, 2),
       seed=seeds)
def test_coboundary_squares_to_zero_on_tables(name, degree, seed):
    group = GROUPS[name]
    b = coboundary(random_table(group, degree, seed))
    violation, witness = max_cocycle_violation(b, radius=1, seed=seed % 97)
    assert violation <= ROUNDING, witness


@settings(max_examples=12, **SETTINGS)
@given(name=st.sampled_from(["Z^2", "Z/5"]), draw=st.integers(0, 20),
       rate=st.floats(0.0, 0.5), seed=seeds)
def test_coboundary_squares_to_zero_on_delocalized_cochains(name, draw, rate,
                                                            seed):
    group = GROUPS[name]
    psi = random_delocalized_cochain(group, class_element(group, draw),
                                     rate=rate, seed=seed)
    violation, witness = max_cocycle_violation(coboundary(psi), radius=2,
                                               seed=seed % 97)
    assert violation <= ROUNDING, witness


@pytest.mark.parametrize("rank", [2, 3])
@settings(max_examples=2, **SETTINGS)
@given(plane=st.integers(0, 5), height=st.integers(-2, 2),
       seed=st.integers(0, 96))
def test_periodicity_of_an_area_cocycle_is_a_cocycle(rank, plane, height,
                                                     seed):
    # the class element must vanish on the plane of the cocycle
    planes = list(itertools.permutations(range(rank), 2))
    axes = planes[plane % len(planes)]
    h = tuple(0 if k in axes else height for k in range(rank))
    group = FreeAbelianGroup(rank)
    s = periodicity(area_cocycle(group, h, plane=axes, seed=seed))
    assert s.degree == 4
    certify_cyclic_cocycle(s, radius=1, samples=150, seed=seed)


@settings(max_examples=16, **SETTINGS)
@given(name=st.sampled_from(sorted(GROUPS)), draw=st.integers(0, 20),
       seed=st.integers(0, 96))
def test_periodicity_of_a_class_trace_is_a_cocycle(name, draw, seed):
    group = GROUPS[name]
    tr = class_trace_cochain(group.conjugacy_class(class_element(group, draw)))
    s = periodicity(tr)
    assert s.degree == 2
    certify_cyclic_cocycle(s, radius=1 if group is F2 else 2, samples=200,
                           seed=seed)


def reference_sample(group, arity, radius, samples, seed, budget):
    """The tuple sample built from tuples: every tuple of the ball when at
    most ``budget``, otherwise every tuple of B_1 (when at most ``budget``)
    and then the seeded draws of ball indices."""
    ball = group.ball(radius)
    if len(ball) ** arity <= budget:
        return list(itertools.product(ball, repeat=arity))
    small = group.ball(1)
    out = list(itertools.product(small, repeat=arity)) \
        if len(small) ** arity <= budget else []
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, len(ball), size=(samples, arity))
    return out + [tuple(ball[i] for i in row) for row in rows]


@settings(max_examples=24, **SETTINGS)
@given(name=st.sampled_from(sorted(GROUPS)), arity=st.integers(1, 4),
       radius=st.integers(0, 3), seed=seeds,
       budget=st.sampled_from([20, 300_000]))
def test_index_sample_keeps_the_tuple_order(name, arity, radius, seed, budget):
    # the cocycle checks gather their slots from the encoded ball by index;
    # the gathered rows must be the sampled tuples, in the same order
    group = GROUPS[name]
    expected = reference_sample(group, arity, radius, 30, seed, budget)
    sample = _Sample(group, arity, radius, 30, seed, budget)
    assert sample.tuples == expected
    assert [sample.witness(k) for k in range(len(expected))] == expected
    if group.has_array_codec:
        for k, slot in enumerate(sample.slots):
            assert np.array_equal(
                slot, group.array_encode([t[k] for t in expected]))
