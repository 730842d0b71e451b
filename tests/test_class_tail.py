"""The class-trace tail: a Chebyshev bound on Bernstein ellipses.

``class_trace`` bounds each class member g past the radius by
``dim 2 M rho^(-|g|/band) / (1 - 1/rho)``, with ``M`` the bound of
``SchwartzFunction.log_ellipse_sup`` on the ellipse ``E_rho`` of the
spectral hull, and sums it over the class counts in closed form.  The
oracles share no code with it:

* ``|f|`` sampled on the ellipse, with the functions written out for complex
  arguments;
* coefficients of ``f(D)`` by adaptive quadrature: the Fourier integral of
  the symbol on Z, and on F_2 (``free_group_model``, ``D = 4 + A`` with A
  the adjacency of the 4-regular tree) the sphere polynomials of the tree
  against its Kesten-McKay density;
* class members counted by enumerating the ball.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import quad

from etalab.groups import ConjugacyClass
from etalab.operators import (
    SchwartzFunction,
    class_trace,
    free_group_model,
    lattice_laplace_symbol,
    wilson_symbol,
)
from test_operators import truncation

GAUSSIAN = ("gauss", "xgauss", "udot_uinv")
SCALES = (0.25, 0.5, 1.0, 2.0)


def log_abs_f(tag: str, t: float, z):
    """``log |f(z)|`` of the Gaussian family on complex arguments, written
    out: ``log |c z^p| - t^2 Re(z^2)``."""
    c, p = {"gauss": (1.0, 0), "xgauss": (1.0, 1),
            "udot_uinv": (2.0 * math.sqrt(math.pi), 1)}[tag]
    return math.log(c) + p * np.log(np.abs(z)) - t * t * (z * z).real


def ellipse(lo: float, hi: float, s: float, points: int = 4001):
    """The boundary of the Bernstein ellipse of [lo, hi] with rho = e^s."""
    theta = np.linspace(0.0, 2.0 * np.pi, points)
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(theta - 1j * s)


def member_bound(op, f, length: int) -> float:
    """``min_rho dim 2 M rho^(-length/band) / (1 - 1/rho)`` over a grid of
    rho, with M from ``log_ellipse_sup``."""
    lo, hi = op.spectral_hull()
    return math.exp(min(math.log(2.0 * op.dim) + f.log_ellipse_sup(lo, hi, s)
                        - math.log(1.0 - math.exp(-s)) - length * s / op.band
                        for s in np.linspace(0.02, 6.0, 300)))


def real_part(v: complex) -> float:
    """``v`` up to a unit factor: the Gaussian family is real (gauss,
    xgauss) or imaginary (udot_uinv) on the real line."""
    return v.real + v.imag


def tree_coefficient(f: SchwartzFunction, n: int) -> float:
    """``f(4 + A)_g`` for |g| = n on the 4-regular tree: the sphere sum
    ``P_n(A) delta_e`` (``P_1 = x, P_2 = x^2 - 4, P_{k+1} = x P_k - 3
    P_{k-1}``) paired with ``f(4 + A) delta_e``, over the 4 3^(n-1) sphere
    points."""
    lim = 2.0 * math.sqrt(3.0)

    def sphere_poly(x):
        prev, cur = 1.0, x
        for k in range(1, n):
            prev, cur = cur, x * cur - (4.0 if k == 1 else 3.0) * prev
        return cur if n else 1.0

    def integrand(x):
        density = (2.0 / math.pi) * math.sqrt(12.0 - x * x) / (16.0 - x * x)
        return real_part(f(np.array([4.0 + x]))[0]) * sphere_poly(x) * density

    return abs(quad(integrand, -lim, lim, limit=200, epsabs=1e-14)[0]) \
        / (4.0 * 3.0 ** (n - 1) if n else 1.0)


def symbol_trace_coefficient(trace_symbol, k: int) -> float:
    """``|(1/2 pi) int tr f(D(theta)) e^{-i k theta} dtheta|`` of an even
    symbol trace."""
    return abs(quad(lambda th: real_part(trace_symbol(th)) * math.cos(k * th),
                    0.0, 2.0 * math.pi, limit=200, epsabs=1e-12)[0]) \
        / (2.0 * math.pi)


@pytest.mark.parametrize("tag", GAUSSIAN)
@pytest.mark.parametrize("hull", [(0.536, 7.464), (-3.0, 3.0), (-1.5, 0.5)])
def test_ellipse_bound_dominates_the_sampled_function(tag, hull):
    for t in SCALES + (4.0,):
        f = SchwartzFunction(tag, t)
        for s in (0.05, 0.3, 1.0, 2.5):
            sampled = float(log_abs_f(tag, t, ellipse(*hull, s)).max())
            assert sampled <= f.log_ellipse_sup(*hull, s) + 1e-12


@pytest.mark.parametrize("tag", GAUSSIAN)
def test_complex_forms_match_the_catalogue_on_the_real_line(tag):
    x = np.linspace(-5.0, 5.0, 40)
    for t in SCALES:
        np.testing.assert_allclose(np.exp(log_abs_f(tag, t, x + 0j)),
                                   np.abs(SchwartzFunction(tag, t)(x)),
                                   rtol=1e-13, atol=1e-300)


@pytest.mark.parametrize("tag", GAUSSIAN)
def test_member_bound_dominates_free_group_coefficients(tag):
    op = free_group_model()
    for t in SCALES:
        f = SchwartzFunction(tag, t)
        for n in range(1, 8):
            assert tree_coefficient(f, n) <= member_bound(op, f, n), (t, n)


@pytest.mark.parametrize("tag", GAUSSIAN)
@pytest.mark.parametrize("make, trace_symbol", [
    pytest.param(lattice_laplace_symbol,
                 lambda f: lambda th: f(np.array([2.0 + math.cos(th)]))[0],
                 id="laplace"),
    pytest.param(wilson_symbol, lambda f: lambda th: f(np.array(
        [-1.0, 1.0]) * math.sqrt(0.25 + 2.0 - 2.0 * math.cos(th))).sum(),
                 id="wilson"),
])
def test_member_bound_dominates_lattice_coefficients(tag, make,
                                                     trace_symbol):
    op = make()
    for t in SCALES:
        f = SchwartzFunction(tag, t)
        calc = op.functional_calculus(f, op.band, 1e-10)
        for k in range(2, 9):
            coef = symbol_trace_coefficient(trace_symbol(f), k)
            assert coef <= member_bound(op, f, k), (t, k)
            # a class of one member past the radius: its tail is the bound
            tail = class_trace(op, f, ConjugacyClass(op.group, (k,)),
                               k - 1, calculus=calc).tail_bound
            assert coef <= tail <= member_bound(op, f, k) * (1 + 1e-9)


@pytest.mark.parametrize("word", ["a", "ab", "abAB"])
@pytest.mark.parametrize("tag", GAUSSIAN)
def test_class_tail_dominates_the_partial_sum(word, tag):
    op = free_group_model()
    cls = ConjugacyClass(op.group, op.group.element_from_text(word))
    R = max(3, cls.minimal_length())
    lengths = Counter(op.group.word_length(g)
                      for g in cls.elements_within(R + 4))
    for t in (0.25, 1.0, 2.0):
        f = SchwartzFunction(tag, t)
        with truncation(4, R + 4):
            calc = op.functional_calculus(f, R, 1e-6)
        ct = class_trace(op, f, cls, R, calculus=calc)
        partial = sum(count * tree_coefficient(f, n)
                      for n, count in lengths.items() if n > R)
        assert 0.0 < partial <= ct.tail_bound < math.inf, (t, partial)


def test_free_group_tail_is_finite_at_large_scale():
    # at t = 8 exp(t^2 b^2) overflows a double at every useful rho; the
    # bound, taken in log space, stays finite
    op = free_group_model()
    f = SchwartzFunction("xgauss", 8.0)
    cls = ConjugacyClass(op.group, op.group.element_from_text("a"))
    with truncation(4, 7):
        calc = op.functional_calculus(f, 3, 1e-6)
    ct = class_trace(op, f, cls, 3, calculus=calc)
    assert 1e100 < ct.tail_bound < math.inf
    assert ct.tail_bound > 1e-6


@pytest.mark.parametrize("word", ["a", "ab", "aab", "abAB"])
@pytest.mark.parametrize("radius", [0, 3, 4, 7])
def test_log_tail_sum_matches_the_summed_shell_counts(word, radius):
    group = free_group_model().group
    cls = ConjugacyClass(group, group.element_from_text(word))
    counts = cls.shell_counts(400)
    for rate in (0.8, 1.0, 2.5):
        direct = sum(c * math.exp(-rate * n) for n, c in enumerate(counts)
                     if n > radius)
        assert math.isclose(math.exp(cls.log_tail_sum(radius, rate)), direct,
                            rel_tol=1e-12)
    assert cls.log_tail_sum(radius, math.log(3.0) / 2) == math.inf


def test_log_tail_sum_of_a_point_class():
    group = lattice_laplace_symbol().group
    cls = ConjugacyClass(group, (3,))
    assert cls.log_tail_sum(3, 1.0) == -math.inf
    assert cls.log_tail_sum(2, 1.5) == -4.5
