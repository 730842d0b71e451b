"""Group-algebra arithmetic and the weighted norm family."""

from __future__ import annotations

import re

import numpy as np
import pytest

from etalab.errors import PreconditionError, RepresentationError
from etalab.group_algebra import (
    AlgebraElement,
    TensorElement,
    convolve,
    lk_norm,
    norm_report,
    quasiderivation,
    rd_norm,
    uc_norm_bounds,
)
from etalab.groups import (
    CyclicGroup,
    FreeAbelianGroup,
    FreeGroup,
    ProductGroup,
)

Z = FreeAbelianGroup(1)
Z2 = FreeAbelianGroup(2)
F2 = FreeGroup(2)
C5 = CyclicGroup(5)


def random_element(group, rng, dim=1, radius=2, terms=4):
    ball = group.ball(radius)
    coeffs = {}
    for i in rng.integers(0, len(ball), size=terms):
        g = ball[i]
        M = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        coeffs[g] = coeffs[g] + M if g in coeffs else M
    return AlgebraElement(group, dim, coeffs)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def test_delta_convolution():
    a = AlgebraElement.delta(F2, F2.element_from_text("a"))
    b = AlgebraElement.delta(F2, F2.element_from_text("b"))
    ab = convolve(a, b)
    assert ab.support == [F2.element_from_text("ab")]
    assert ab.coefficient(F2.element_from_text("ab"))[0, 0] == 1.0


def test_laplace_square_on_free_group():
    # (delta_a + delta_{a^-1})^2 = delta_{a^2} + 2 delta_e + delta_{a^-2}
    a = F2.element_from_text("a")
    X = AlgebraElement.from_terms(F2, [(a, 1.0), (F2.inverse(a), 1.0)])
    X2 = X * X
    assert set(X2.support) == {F2.element_from_text("aa"), (),
                               F2.element_from_text("AA")}
    assert X2.coefficient(())[0, 0] == 2.0
    assert X2.coefficient(F2.element_from_text("aa"))[0, 0] == 1.0


def test_convolution_bilinear_and_associative():
    rng = np.random.default_rng(10)
    for _ in range(5):
        A = random_element(Z2, rng, dim=2)
        B = random_element(Z2, rng, dim=2)
        C = random_element(Z2, rng, dim=2)
        lhs = (A * B) * C
        rhs = A * (B * C)
        assert (lhs - rhs).max_abs() < 1e-12
        assert ((A + B) * C - (A * C + B * C)).max_abs() < 1e-12


def test_involution_reverses_products():
    rng = np.random.default_rng(11)
    for _ in range(5):
        A = random_element(Z2, rng, dim=3)
        B = random_element(Z2, rng, dim=3)
        assert ((A * B).star() - B.star() * A.star()).max_abs() < 1e-12
        assert (A.star().star() - A).max_abs() == 0.0


def test_involution_coefficients():
    g = Z2.validate((1, -1))
    M = np.array([[1.0, 2.0j], [0.0, -1.0]])
    A = AlgebraElement.delta(Z2, g, M)
    As = A.star()
    assert As.support == [Z2.inverse(g)]
    assert np.allclose(As.coefficient(Z2.inverse(g)), M.conj().T)


def test_dimension_mismatch_rejected():
    A = AlgebraElement.delta(Z, (0,), np.eye(2))
    B = AlgebraElement.delta(Z, (0,), 1.0)
    with pytest.raises(PreconditionError):
        convolve(A, B)
    with pytest.raises(PreconditionError):
        convolve(A, AlgebraElement.delta(Z2, (0, 0), np.eye(2)))


def test_cleanup_drops_noise():
    A = AlgebraElement(Z, 1, {(0,): np.array([[1.0]]),
                              (1,): np.array([[1e-16]])})
    assert A.support == [(0,)]
    zero = AlgebraElement(Z, 1, {(0,): np.array([[0.0]])})
    assert zero.support == []
    assert zero.max_abs() == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan),
                                 complex(-np.inf, 0.0)])
def test_non_finite_coefficient_is_a_representation_error(bad):
    # A non-finite peak makes every block fail the relative drop rule, which
    # would erase the element; the offending point is named instead.
    with pytest.raises(RepresentationError, match=r"\(1,\)"):
        AlgebraElement(Z, 1, {(0,): 1.0, (1,): bad})
    with pytest.raises(RepresentationError, match=r"\(0, 2\)"):
        AlgebraElement(Z2, 2, {(0, 0): np.eye(2),
                               (0, 2): np.array([[1.0, bad], [0.0, 1.0]])})
    ab = F2.element_from_text("ab")
    with pytest.raises(RepresentationError, match=re.escape(repr(ab))), \
            np.errstate(invalid="ignore"):
        AlgebraElement.from_terms(F2, [(F2.identity, 1.0), (ab, bad)])
    # without cleanup the element is kept as given
    kept = AlgebraElement(Z, 1, {(0,): 1.0, (1,): bad}, cleanup=False)
    assert kept.keys == ((0,), (1,))


def element_document(A: AlgebraElement, group_doc: dict) -> dict:
    """The ``element.path`` document of ``A`` over the group ``group_doc``
    describes."""
    return {"group": group_doc, "dim": A.dim, "entries": [
        {"element": A.group.element_to_json(g),
         "matrix": [[z.real, z.imag] for z in M.reshape(-1).tolist()]}
        for g, M in A.coeffs.items()]}


def test_serialization_roundtrip():
    rng = np.random.default_rng(12)
    z1c3 = {"kind": "product", "factors": [{"kind": "free_abelian", "rank": 1},
                                           {"kind": "cyclic", "order": 3}]}
    for group, group_doc in (
            (Z2, {"kind": "free_abelian", "rank": 2}),
            (F2, {"kind": "free", "rank": 2}),
            (C5, {"kind": "cyclic", "order": 5}),
            (ProductGroup([Z, CyclicGroup(3)]), z1c3)):
        A = random_element(group, rng, dim=2, radius=2, terms=5)
        B = AlgebraElement.from_json(element_document(A, group_doc))
        assert B.group == group
        assert B.support == A.support
        assert (A - B).max_abs() < 1e-15


def test_from_json_rejects_malformed():
    with pytest.raises(RepresentationError):
        AlgebraElement.from_json({"group": {"kind": "free_abelian", "rank": 1},
                                  "dim": 2,
                                  "entries": [{"element": [0], "matrix": [[1, 0]]}]})


# ---------------------------------------------------------------------------
# trace norm and rd / lk norms
# ---------------------------------------------------------------------------


def test_trace_norm_vs_svd():
    rng = np.random.default_rng(13)
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    norm = AlgebraElement.delta(Z, (0,), M).trace_norms()[(0,)]
    assert abs(norm - np.linalg.svd(M, compute_uv=False).sum()) < 1e-12
    scalar = AlgebraElement.delta(Z, (0,), 3.0 - 4.0j)
    assert scalar.trace_norms() == {(0,): 5.0}


def test_rd_norm_frozen_values():
    assert rd_norm(AlgebraElement.identity(Z2), p=1.0) == 1.0
    g = Z2.validate((1, 1))  # length 2
    assert abs(rd_norm(AlgebraElement.delta(Z2, g), p=1.0) - 3.0) < 1e-14
    a = AlgebraElement.delta(F2, F2.element_from_text("a"))
    b = AlgebraElement.delta(F2, F2.element_from_text("b"))
    assert abs(rd_norm(a + b, p=1.0) - 2.0 * np.sqrt(2.0)) < 1e-14


def test_lk_norm_frozen_values():
    assert lk_norm(AlgebraElement.identity(Z), K=1.0) == 1.0
    A = AlgebraElement.from_terms(Z, [((n,), np.exp(-n * n))
                                      for n in range(-3, 4)])
    expected = sum(np.exp(-n * n + abs(n)) for n in range(-3, 4))
    assert abs(lk_norm(A, K=1.0) - expected) < 1e-12


def test_lk_point_submultiplicativity():
    # e^{K l(g1 g2)} <= e^{K(l(g1)+l(g2))} via subadditivity of word length
    g1 = F2.element_from_text("ab")
    g2 = F2.element_from_text("BA")
    A = AlgebraElement.delta(F2, g1)
    B = AlgebraElement.delta(F2, g2)
    K = 0.7
    assert lk_norm(A * B, K) <= lk_norm(A, K) * lk_norm(B, K) + 1e-12


@pytest.mark.parametrize("group", [Z2, F2, C5])
@pytest.mark.parametrize("K", [0.1, 1.0])
def test_lk_banach_submultiplicative(group, K):
    rng = np.random.default_rng(14)
    for _ in range(100):
        A = random_element(group, rng, dim=1, radius=2, terms=3)
        B = random_element(group, rng, dim=1, radius=2, terms=3)
        assert lk_norm(A * B, K) <= lk_norm(A, K) * lk_norm(B, K) + 1e-9


def test_norm_axioms_random():
    rng = np.random.default_rng(15)
    for _ in range(25):
        A = random_element(Z2, rng, dim=2)
        B = random_element(Z2, rng, dim=2)
        c = complex(rng.standard_normal(), rng.standard_normal())
        for norm in (lambda X: rd_norm(X, 1.5), lambda X: lk_norm(X, 0.3)):
            assert abs(norm(c * A) - abs(c) * norm(A)) < 1e-9 * (1 + norm(A))
            assert norm(A + B) <= norm(A) + norm(B) + 1e-9


def test_unconditionality():
    # all norms agree on A and on its absolute value |A| = sum |A_g|_1 g
    rng = np.random.default_rng(16)
    for group in (Z2, F2):
        for _ in range(10):
            A = random_element(group, rng, dim=3, radius=2, terms=4)
            Aabs = AlgebraElement(group, 1, A.trace_norms())
            assert abs(rd_norm(A, 1.0) - rd_norm(Aabs, 1.0)) < 1e-10
            assert abs(lk_norm(A, 0.5) - lk_norm(Aabs, 0.5)) < 1e-10
            assert abs(uc_norm_bounds(quasiderivation(A), 1.0)[1]
                       - uc_norm_bounds(quasiderivation(Aabs), 1.0)[1]) < 1e-10


# ---------------------------------------------------------------------------
# quasiderivation and uc norm
# ---------------------------------------------------------------------------


def test_quasiderivation_of_identity():
    T = quasiderivation(AlgebraElement.identity(F2))
    assert list(T.coeffs) == [((), ())]


def test_quasiderivation_tree_geodesic():
    ab = F2.element_from_text("ab")
    T = quasiderivation(AlgebraElement.delta(F2, ab))
    a = F2.element_from_text("a")
    b = F2.element_from_text("b")
    assert set(T.coeffs) == {((), ab), (a, b), (ab, ())}


def test_quasiderivation_lattice_count():
    T = quasiderivation(AlgebraElement.delta(Z2, (1, 1)))
    assert len(T.coeffs) == 4


def test_uc_norm_elementary_tensor():
    g1 = F2.element_from_text("a")
    g2 = F2.element_from_text("ab")
    T = TensorElement(F2, 1, {(g1, g2): np.array([[1.0]])})
    lower, upper = uc_norm_bounds(T, p=1.0)
    expected = (1 + 1) * (1 + 2)
    assert lower == upper == expected


def test_uc_norm_frozen_tree_value():
    T = quasiderivation(AlgebraElement.delta(F2, F2.element_from_text("ab")))
    assert abs(uc_norm_bounds(T, p=1.0)[1] - 10.0) < 1e-12  # 1*3 + 2*2 + 3*1


def test_uc_norm_zero_tensor():
    assert uc_norm_bounds(TensorElement(F2, 1, {}), p=2.0) == (0.0, 0.0)


def test_uc_bounds_ordered():
    rng = np.random.default_rng(17)
    for _ in range(10):
        A = random_element(F2, rng, dim=2, radius=2, terms=3)
        lower, upper = uc_norm_bounds(quasiderivation(A), p=1.0)
        assert 0.0 <= lower <= upper


def test_b_norm_decomposition():
    rng = np.random.default_rng(18)
    for _ in range(10):
        A = random_element(F2, rng, dim=2)
        rep = norm_report(A, p=1.0, K=0.5)
        assert rep.b == rep.rd + rep.uc_of_delta
        assert rep.uc_lower <= rep.uc_of_delta
        d = rep.to_json_dict()
        assert d["uc_upper"] == rep.uc_of_delta
        assert all(d[k] >= 0 for k in ("rd", "uc_upper", "b", "lk"))


# ---------------------------------------------------------------------------
# Leibniz-type behavior of the quasiderivation on a tree
# ---------------------------------------------------------------------------


def test_tree_splitting_support_inclusion():
    # every geodesic splitting of g g' starts from a geodesic point of g or
    # from g times a geodesic point of g' (exact in the tree case)
    rng = np.random.default_rng(19)
    ball = F2.ball(3)
    for _ in range(40):
        g = ball[rng.integers(len(ball))]
        gp = ball[rng.integers(len(ball))]
        prod = F2.multiply(g, gp)
        allowed = set(F2.geodesic_points(g))
        allowed.update(F2.multiply(g, y) for y in F2.geodesic_points(gp))
        for g1, _ in F2.splittings(prod, 0):
            assert g1 in allowed


def test_leibniz_estimate_empirical_constant():
    # uc(Delta(AB)) <= C * ( uc(DeltaA) rd(B) + rd(A) uc(DeltaB) ),
    # with the empirical C reported by this suite
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(60):
        A = random_element(F2, rng, dim=1, radius=2, terms=3)
        B = random_element(F2, rng, dim=1, radius=2, terms=3)
        def uc(X):
            return uc_norm_bounds(quasiderivation(X), p=1.0)[1]

        num = uc(A * B)
        den = uc(A) * rd_norm(B, 1.0) + rd_norm(A, 1.0) * uc(B)
        if den > 1e-12:
            worst = max(worst, num / den)
    assert worst <= 2.0, f"empirical Leibniz constant {worst:.3f} exceeds 2"
