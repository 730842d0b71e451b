"""Tests for cyclic cochains, the coboundary/periodicity operators, and
trace pairings.

The pairing oracle here is deliberately naive: a literal sum over all
support tuples using only ``phi.__call__`` and coefficient lookups, with no
class-solving, no face reduction, and no FFT. Every optimized route must
agree with it.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from etalab.errors import (
    CertificateError,
    PreconditionError,
    RepresentationError,
    ResourceBudgetError,
)
from etalab.group_algebra import AlgebraElement
from etalab.groups import CyclicGroup, FreeAbelianGroup, FreeGroup
from etalab.cyclic import (
    CochainGrowth,
    CyclicCochain,
    Idempotent,
    SeparableClassCochain,
    area_cocycle,
    certify_cyclic_cocycle,
    class_trace_cochain,
    coboundary,
    connes_chern,
    growth_certify,
    max_cocycle_violation,
    max_cyclicity_violation,
    pair_phi_tr,
    periodicity,
    random_delocalized_cochain,
    table_cochain,
    _Sample,
    _pair_tuple_sum,
)

Z1 = FreeAbelianGroup(1)
Z2 = FreeAbelianGroup(2)
Z3 = FreeAbelianGroup(3)
C5 = CyclicGroup(5)
F2 = FreeGroup(2)


# ---------------------------------------------------------------------------
# oracles and helpers
# ---------------------------------------------------------------------------


def brute_pair(phi, ws):
    """Independent pairing oracle: full support-tuple sum, no shortcuts."""
    total = 0.0 + 0.0j
    for args in itertools.product(*[w.support for w in ws]):
        blocks = [w.coeffs[g] for w, g in zip(ws, args)]
        M = blocks[0]
        for B in blocks[1:]:
            M = M @ B
        total += complex(np.trace(M)) * phi(args)
    return total


def random_element(group, radius, seed, dim=1, scale=1.0):
    rng = np.random.default_rng(seed)
    terms = []
    for g in group.ball(radius):
        M = scale * (rng.normal(size=(dim, dim))
                     + 1j * rng.normal(size=(dim, dim)))
        terms.append((g, M))
    return AlgebraElement.from_terms(group, terms, dim=dim)


def dft_idempotent(k, mode):
    """Spectral idempotent (1/k) sum_g conj(chi(g)) delta_g on Z/k."""
    group = CyclicGroup(k)
    chi = lambda g: np.exp(2j * np.pi * mode * g / k)
    return Idempotent(AlgebraElement.from_terms(
        group, [(g, np.conj(chi(g)) / k) for g in range(k)]))


def offdiag_idempotent(group, g):
    """2x2 idempotent (1/2) [[1, d_g], [d_{g^-1}, 1]] over any group."""
    e = group.identity
    ginv = group.inverse(g)
    coeffs = {
        e: 0.5 * np.eye(2, dtype=complex),
        g: np.array([[0, 0.5], [0, 0]], dtype=complex),
        ginv: np.array([[0, 0], [0.5, 0]], dtype=complex),
    }
    if g == e:
        coeffs = {e: np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)}
    return Idempotent(AlgebraElement(group, 2, coeffs))


def cyclic_table_cochain(group, degree, radius, seed, cls=None):
    """Random cyclic cochain on B_radius tuples, built by symmetrizing a
    table over rotations with the sign (-1)^degree."""
    rng = np.random.default_rng(seed)
    ball = group.ball(radius)
    table = {}
    sign = (-1) ** degree
    for args in itertools.product(ball, repeat=degree + 1):
        if args in table:
            continue
        if cls is not None:
            acc = group.identity
            for g in args:
                acc = group.multiply(acc, g)
            if not cls.contains(acc):
                continue
        val = complex(rng.normal(), rng.normal())
        rot = args
        for r in range(degree + 1):
            table[rot] = val * sign ** r
            rot = rot[1:] + rot[:1]
            if rot == args:
                break
    return table_cochain(group, degree, table,
                         support_class=cls, name=f"cyc-table(seed={seed})")


# ---------------------------------------------------------------------------
# growth certificates
# ---------------------------------------------------------------------------


def test_growth_kinds_and_envelope():
    b = CochainGrowth("bounded", 3.0)
    assert b.envelope_rows([[5, 7]])[0] == 3.0
    p = CochainGrowth("polynomial", 2.0, 2.0)
    assert p.envelope_rows([[1, 2]])[0] == pytest.approx(
        2.0 * (2.0 ** 2) * (3.0 ** 2))
    e = CochainGrowth("exponential", 1.5, 0.5)
    assert e.envelope_rows([[2, 2]])[0] == pytest.approx(1.5 * np.exp(2.0))
    assert e.rate == 0.5 and p.rate == 0.0
    with pytest.raises(RepresentationError):
        CochainGrowth("cubic", 1.0)


# ---------------------------------------------------------------------------
# coboundary
# ---------------------------------------------------------------------------


def test_coboundary_hand_expansion_degree_one():
    phi = cyclic_table_cochain(C5, 1, 2, seed=3)
    b = coboundary(phi)
    rng = np.random.default_rng(0)
    for _ in range(30):
        g0, g1, g2 = rng.integers(0, 5, size=3)
        g0, g1, g2 = int(g0), int(g1), int(g2)
        expected = (phi(((g0 + g1) % 5, g2))
                    - phi((g0, (g1 + g2) % 5))
                    + phi(((g2 + g0) % 5, g1)))
        assert b((g0, g1, g2)) == pytest.approx(expected, abs=1e-12)


def test_coboundary_of_class_function_vanishes():
    for group, h in [(Z1, (2,)), (C5, 3), (F2, F2.element_from_text("ab"))]:
        tr = class_trace_cochain(group.conjugacy_class(h))
        b = coboundary(tr)
        for args in itertools.product(group.ball(2), repeat=2):
            assert b(args) == pytest.approx(0.0, abs=1e-14)


def test_coboundary_squares_to_zero():
    phi = cyclic_table_cochain(C5, 1, 2, seed=7)
    bb = coboundary(coboundary(phi))
    for args in itertools.product(C5.ball(2), repeat=4):
        assert abs(bb(args)) < 1e-10


def test_coboundary_preserves_cyclicity():
    psi = random_delocalized_cochain(Z1, (1,), rate=0.3, seed=11)
    v0, _ = max_cyclicity_violation(psi, radius=2, samples=100, seed=0)
    assert v0 < 1e-12
    v1, _ = max_cyclicity_violation(coboundary(psi), radius=2, samples=100,
                                    seed=0)
    assert v1 < 1e-10


def test_coboundary_batch_matches_scalar():
    for group, h in ((Z1, (1,)), (C5, 1)):
        psi = random_delocalized_cochain(group, h, rate=0.2, seed=5)
        b = coboundary(psi)
        tuples = _Sample(group, 3, 2, 50, seed=1).tuples
        arrays = [group.array_encode([t[k] for t in tuples])
                  for k in range(3)]
        vec = b.batch(arrays)
        for r, t in enumerate(tuples):
            assert vec[r] == pytest.approx(b(t), abs=1e-12)


# ---------------------------------------------------------------------------
# periodicity operator
# ---------------------------------------------------------------------------


def test_periodicity_degree_zero_hand_value():
    # For a degree-0 class function phi, (S phi)(g0,g1,g2) must equal
    # phi(g0 g1 g2) / 2; in particular (S phi)(e,e,e) = phi(e)/2.
    tr = class_trace_cochain(C5.conjugacy_class(0))
    s = periodicity(tr)
    e = C5.identity
    assert s((e, e, e)) == pytest.approx(0.5)
    tr2 = class_trace_cochain(C5.conjugacy_class(2))
    s2 = periodicity(tr2)
    for args in itertools.product(range(5), repeat=3):
        expected = 0.5 if (sum(args) % 5) == 2 else 0.0
        assert s2(args) == pytest.approx(expected, abs=1e-14)


def test_periodicity_class_function_on_lattice():
    tr = class_trace_cochain(Z2.conjugacy_class((1, -1)))
    s = periodicity(tr)
    for args in itertools.product(Z2.ball(1), repeat=3):
        total = Z2.multiply(Z2.multiply(args[0], args[1]), args[2])
        expected = 0.5 if total == (1, -1) else 0.0
        assert s(args) == pytest.approx(expected, abs=1e-14)


def test_periodicity_output_is_cyclic_cocycle():
    phi = area_cocycle(Z3, (0, 0, 1))
    s = periodicity(phi)
    assert s.degree == 4
    report = certify_cyclic_cocycle(s, radius=1, samples=150, seed=2,
                                    tol=1e-9)
    assert report["cyclicity_violation"] < 1e-9
    assert report["cocycle_violation"] < 1e-9


def test_periodicity_rejects_non_cocycles():
    psi = random_delocalized_cochain(Z1, (1,), rate=0.2, seed=9)
    with pytest.raises(PreconditionError):
        periodicity(psi)
    # but the coboundary of anything is a cocycle
    s = periodicity(coboundary(psi))
    assert s.degree == 4


# ---------------------------------------------------------------------------
# sampled certification
# ---------------------------------------------------------------------------


def test_certify_flags_broken_cyclicity():
    table = {((1,), (2,)): 1.0}
    phi = table_cochain(Z1, 1, table, name="lopsided")
    with pytest.raises(CertificateError) as exc:
        certify_cyclic_cocycle(phi, radius=2, samples=100, seed=0)
    assert exc.value.invariant == "cyclicity"
    assert exc.value.witness is not None


def test_certify_flags_non_cocycle():
    psi = random_delocalized_cochain(Z1, (1,), rate=0.2, seed=13)
    v, witness = max_cocycle_violation(psi, radius=2, samples=100, seed=0)
    assert v > 1e-6
    assert witness is not None
    with pytest.raises(CertificateError) as exc:
        certify_cyclic_cocycle(psi, radius=2, samples=100, seed=0)
    assert exc.value.invariant == "cocycle"


def test_area_cocycle_certified_on_transverse_class():
    phi = area_cocycle(Z3, (0, 0, 1))
    report = certify_cyclic_cocycle(phi, radius=2, samples=300, seed=0)
    assert report["cyclicity_violation"] < 1e-12
    assert report["cocycle_violation"] < 1e-12


def test_area_cocycle_rejects_in_plane_class():
    # On Z^2 a nontrivial class element is never transverse to the only
    # coordinate plane, so the delocalized area fixture cannot exist there.
    with pytest.raises(CertificateError):
        area_cocycle(Z2, (1, 0))
    phi = area_cocycle(Z2, (1, 0), certify=False)
    v, _ = max_cyclicity_violation(phi, radius=2, samples=200, seed=0)
    assert v > 1e-3


def test_area_cocycle_trivial_class_is_fine():
    phi = area_cocycle(Z2, (0, 0))
    report = certify_cyclic_cocycle(phi, radius=2, samples=200, seed=0)
    assert report["cocycle_violation"] < 1e-12


def test_area_cocycle_validates_plane():
    with pytest.raises(PreconditionError):
        area_cocycle(Z3, (0, 0, 1), plane=(1, 1))
    with pytest.raises(PreconditionError):
        area_cocycle(Z3, (0, 0, 1), plane=(0, 5))


def test_growth_certify_pass_and_fail():
    phi = area_cocycle(Z3, (0, 0, 1))
    report = growth_certify(phi, radius=2, seed=0)
    assert report["max_ratio"] <= 1.0 + 1e-12
    assert report["exhaustive"] is False or report["tuples_checked"] > 0
    starved = SeparableClassCochain(
        Z3, 2, (0, 0, 1),
        [(1.0, [None, lambda c: c[0].astype(complex),
                lambda c: c[1].astype(complex)]),
         (-1.0, [None, lambda c: c[1].astype(complex),
                 lambda c: c[0].astype(complex)])],
        growth=CochainGrowth("bounded", 0.01), name="starved")
    with pytest.raises(CertificateError) as exc:
        growth_certify(starved, radius=2, seed=0)
    assert exc.value.invariant == "growth"
    assert exc.value.witness is not None


def test_growth_certify_exponential_random_cochain():
    psi = random_delocalized_cochain(Z1, (1,), rate=0.4, seed=21)
    report = growth_certify(psi, radius=4, seed=0)
    assert report["kind"] == "exponential"
    assert report["k"] == pytest.approx(0.4)


def test_growth_certify_requires_certificate():
    phi = table_cochain(Z1, 0, {((0,),): 1.0})
    with pytest.raises(PreconditionError):
        growth_certify(phi, radius=1)


# ---------------------------------------------------------------------------
# pairing: all routes against the brute oracle
# ---------------------------------------------------------------------------


def test_pair_class_trace_reads_class_coefficient():
    tr = class_trace_cochain(Z1.conjugacy_class((2,)))
    w = random_element(Z1, 3, seed=1)
    val = pair_phi_tr(tr, [w])
    assert val == pytest.approx(complex(w.coeffs[(2,)][0, 0]))
    assert val == pytest.approx(brute_pair(tr, [w]))


def test_pair_free_group_class_trace():
    h = F2.element_from_text("ab")
    tr = class_trace_cochain(F2.conjugacy_class(h))
    w = random_element(F2, 2, seed=2)
    # class of ab within B_2: ab and ba
    expected = complex(w.coeffs[F2.element_from_text("ab")][0, 0]
                       + w.coeffs[F2.element_from_text("ba")][0, 0])
    assert pair_phi_tr(tr, [w]) == pytest.approx(expected)
    assert pair_phi_tr(tr, [w]) == pytest.approx(brute_pair(tr, [w]))


def test_pair_separable_route_matches_brute():
    phi = area_cocycle(Z3, (0, 0, 1))
    ws = [random_element(Z3, 1, seed=s) for s in (3, 4, 5)]
    fft_val = pair_phi_tr(phi, ws)
    loop_val = _pair_tuple_sum(phi, ws, tuple_budget=10 ** 7)
    brute_val = brute_pair(phi, ws)
    assert fft_val == pytest.approx(brute_val, rel=1e-10, abs=1e-10)
    assert loop_val == pytest.approx(brute_val, rel=1e-10, abs=1e-10)


def test_pair_reduction_route_matches_brute_scalar():
    psi = random_delocalized_cochain(Z1, (1,), rate=0.3, seed=31)
    b = coboundary(psi)
    ws = [random_element(Z1, 2, seed=s) for s in (9, 10, 11)]
    red = pair_phi_tr(b, ws)
    lit = _pair_tuple_sum(b, ws, tuple_budget=10 ** 7)
    oracle = brute_pair(b, ws)
    assert red == pytest.approx(oracle, rel=1e-9, abs=1e-9)
    assert lit == pytest.approx(oracle, rel=1e-9, abs=1e-9)


def test_pair_reduction_route_matches_brute_matrix():
    psi = random_delocalized_cochain(Z1, (2,), rate=0.25, seed=37)
    b = coboundary(psi)
    ws = [random_element(Z1, 1, seed=s, dim=2) for s in (12, 13, 14)]
    red = pair_phi_tr(b, ws)
    oracle = brute_pair(b, ws)
    assert red == pytest.approx(oracle, rel=1e-9, abs=1e-9)


def test_pair_reduction_for_periodicity_matches_brute():
    tr = class_trace_cochain(C5.conjugacy_class(1))
    s = periodicity(tr)
    ws = [random_element(C5, 2, seed=k) for k in (15, 16, 17)]
    red = pair_phi_tr(s, ws)
    lit = _pair_tuple_sum(s, ws, tuple_budget=10 ** 7)
    oracle = brute_pair(s, ws)
    assert red == pytest.approx(oracle, rel=1e-9, abs=1e-9)
    assert lit == pytest.approx(oracle, rel=1e-9, abs=1e-9)


def test_pair_rotation_sign_invariance():
    phi = area_cocycle(Z3, (0, 0, 1))
    ws = [random_element(Z3, 1, seed=s) for s in (18, 19, 20)]
    base = pair_phi_tr(phi, ws)
    rotated = pair_phi_tr(phi, ws[1:] + ws[:1])
    assert rotated == pytest.approx(base, rel=1e-10, abs=1e-12)  # (-1)^2 = +1
    psi = random_delocalized_cochain(Z1, (1,), rate=0.2, seed=41)
    vs = [random_element(Z1, 2, seed=s) for s in (21, 22)]
    assert pair_phi_tr(psi, vs[::-1]) == pytest.approx(-pair_phi_tr(psi, vs),
                                                       rel=1e-10, abs=1e-12)


def test_pair_zero_cochain_and_empty_slot():
    z = table_cochain(Z1, 2, {})
    ws = [random_element(Z1, 1, seed=s) for s in (23, 24, 25)]
    assert pair_phi_tr(z, ws) == 0.0
    tr = class_trace_cochain(Z1.conjugacy_class((0,)))
    assert pair_phi_tr(tr, [AlgebraElement(Z1, 1)]) == 0.0


def test_pair_validation_errors():
    phi = area_cocycle(Z3, (0, 0, 1))
    ws = [random_element(Z3, 1, seed=s) for s in (26, 27, 28)]
    with pytest.raises(PreconditionError):
        pair_phi_tr(phi, ws[:2])
    with pytest.raises(PreconditionError):
        pair_phi_tr(phi, [random_element(Z2, 1, seed=1)] * 3)
    mixed = ws[:2] + [random_element(Z3, 1, seed=29, dim=2)]
    with pytest.raises(PreconditionError):
        pair_phi_tr(phi, mixed)


def test_pair_budget_guard():
    phi = CyclicCochain(Z1, 2, lambda args: 1.0, name="flat")
    ws = [random_element(Z1, 40, seed=s) for s in (30, 31, 32)]
    with pytest.raises(ResourceBudgetError):
        _pair_tuple_sum(phi, ws, tuple_budget=1000)


def test_separable_batch_matches_pointwise():
    phi = area_cocycle(Z3, (0, 0, 1))
    tuples = _Sample(Z3, 3, 1, 80, seed=3).tuples
    arrays = [Z3.array_encode([t[k] for t in tuples]) for k in range(3)]
    vec = phi.batch(arrays)
    for r, t in enumerate(tuples):
        assert vec[r] == pytest.approx(phi(t), abs=1e-12)


# ---------------------------------------------------------------------------
# idempotents and the Chern pairing
# ---------------------------------------------------------------------------


def test_idempotent_accepts_projections():
    p = dft_idempotent(5, 1)
    assert p.size == 1 and p.defect < 1e-13
    q = offdiag_idempotent(Z1, (1,))
    assert q.size == 2
    assert q.propagation_radius == 1


def test_idempotent_rejects_non_projections():
    nearly = AlgebraElement.from_terms(
        CyclicGroup(5), [(g, 0.2 + (1e-6 if g == 1 else 0.0))
                         for g in range(5)])
    with pytest.raises(PreconditionError):
        Idempotent(nearly)


def test_chern_trivial_class_scalar_unit():
    tr = class_trace_cochain(Z1.conjugacy_class((0,)))
    p = Idempotent(AlgebraElement.identity(Z1))
    assert connes_chern(tr, p) == pytest.approx(1.0)


def test_chern_dft_idempotent_frozen_value():
    # phi#tr(p) for the mode-1 spectral projection on Z/5 at class {2} is
    # the coefficient (1/5) exp(-4 pi i / 5).
    tr = class_trace_cochain(CyclicGroup(5).conjugacy_class(2))
    p = dft_idempotent(5, 1)
    expected = np.exp(-4j * np.pi / 5) / 5
    assert connes_chern(tr, p) == pytest.approx(expected, abs=1e-12)


def test_chern_invariant_under_periodicity():
    # the (2m)!/m! normalization makes ch_{S phi}(p) = ch_phi(p)
    cases = [
        (class_trace_cochain(CyclicGroup(5).conjugacy_class(2)),
         dft_idempotent(5, 1)),
        (class_trace_cochain(Z1.conjugacy_class((0,))),
         Idempotent(AlgebraElement.identity(Z1))),
        (class_trace_cochain(Z1.conjugacy_class((1,))),
         offdiag_idempotent(Z1, (1,))),
    ]
    for tr, p in cases:
        s = periodicity(tr)
        a = connes_chern(tr, p)
        b = connes_chern(s, p)
        assert b == pytest.approx(a, abs=1e-10)


def test_periodicity_idempotent_pairing_identity():
    # (S phi)#tr(p,p,p) = 1/2 phi#tr(p) for degree 0
    tr = class_trace_cochain(CyclicGroup(5).conjugacy_class(1))
    s = periodicity(tr)
    p = dft_idempotent(5, 2)
    lhs = pair_phi_tr(s, [p.element] * 3)
    rhs = 0.5 * pair_phi_tr(tr, [p.element])
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_chern_vanishes_on_coboundaries():
    psi5 = random_delocalized_cochain(CyclicGroup(5), 2, rate=0.3, seed=51)
    p = dft_idempotent(5, 1)
    assert abs(connes_chern(coboundary(psi5), p)) < 1e-10
    psiz = random_delocalized_cochain(Z1, (1,), rate=0.3, seed=52)
    q = offdiag_idempotent(Z1, (1,))
    assert abs(connes_chern(coboundary(psiz), q)) < 1e-10


def test_chern_requires_even_degree_and_cocycle():
    psi = random_delocalized_cochain(Z1, (1,), rate=0.2, seed=53)
    p = offdiag_idempotent(Z1, (1,))
    with pytest.raises(PreconditionError):
        connes_chern(psi, p)  # odd degree
    lopsided = table_cochain(Z1, 2, {((1,), (0,), (0,)): 1.0}, name="bad2")
    with pytest.raises(PreconditionError):
        connes_chern(lopsided, p)  # not a cocycle
    tr5 = class_trace_cochain(CyclicGroup(5).conjugacy_class(1))
    with pytest.raises(PreconditionError):
        connes_chern(tr5, p)  # wrong group


# ---------------------------------------------------------------------------
# separable cochains
# ---------------------------------------------------------------------------


def test_separable_requires_lattice_group():
    with pytest.raises(PreconditionError):
        SeparableClassCochain(C5, 0, 1, [(1.0, [None])])


def test_separable_term_arity_validated():
    with pytest.raises(RepresentationError):
        SeparableClassCochain(Z1, 1, (0,), [(1.0, [None])])


def test_table_cochain_validates_arity():
    with pytest.raises(RepresentationError):
        table_cochain(Z1, 1, {((0,),): 1.0})


def test_random_cochain_is_delocalized_and_antisymmetric():
    psi = random_delocalized_cochain(Z1, (3,), rate=0.2, seed=61)
    assert psi(((1,), (2,))) == pytest.approx(-psi(((2,), (1,))), abs=1e-12)
    assert psi(((1,), (1,))) == 0.0  # product (2,) misses the class
    val = psi(((5,), (-2,)))
    assert val != 0.0


def test_random_cochain_needs_codec():
    with pytest.raises(PreconditionError):
        random_delocalized_cochain(F2, F2.element_from_text("ab"),
                                   rate=0.1, seed=1)


# ---------------------------------------------------------------------------
# the recorded cocycle certificate
# ---------------------------------------------------------------------------


def counted_certifications(monkeypatch) -> list:
    """Record the (radius, samples, seed) of every certification run."""
    import etalab.cyclic as cyclic_module

    runs, real = [], cyclic_module.max_cyclicity_violation

    def counted(phi, radius, samples, seed):
        runs.append((radius, samples, seed))
        return real(phi, radius, samples, seed)

    monkeypatch.setattr(cyclic_module, "max_cyclicity_violation", counted)
    return runs


def test_eta_higher_reuses_the_certificate_of_the_area_cocycle(monkeypatch):
    from etalab.eta import eta_higher
    from etalab.operators import two_band_chern_symbol

    runs = counted_certifications(monkeypatch)
    phi = area_cocycle(Z2, (0, 0), seed=3)
    assert runs == [(2, 400, 3)]
    assert phi.certificate["samples"] == 400 and phi.certificate["tol"] == 1e-9
    eta_higher(two_band_chern_symbol(), phi, tol=1e-6, seed=3)
    assert runs == [(2, 400, 3)]


def test_eta_higher_still_certifies_an_uncertified_cochain(monkeypatch):
    from etalab.eta import eta_higher
    from etalab.operators import two_band_chern_symbol

    runs = counted_certifications(monkeypatch)
    phi = area_cocycle(Z2, (0, 0), certify=False)
    assert phi.certificate is None
    eta_higher(two_band_chern_symbol(), phi, tol=1e-6)
    assert runs == [(2, 200, 0)]
    assert phi.certificate["samples"] == 200 and phi.certificate["tol"] == 1e-8


def test_a_failing_cochain_still_raises_and_exits_1():
    from etalab.cli import main
    from etalab.eta import eta_higher
    from etalab.operators import two_band_chern_symbol

    phi = area_cocycle(Z2, (1, 0), certify=False)
    for _ in range(2):  # a failed run records nothing
        with pytest.raises(CertificateError):
            eta_higher(two_band_chern_symbol(), phi, tol=1e-6)
        assert phi.certificate is None
    assert main(["higher-eta", "operator.kind=two_band", "cocycle.kind=area",
                 "class.element=1,0", "--tol", "1e-6"]) == 1


@pytest.mark.parametrize("call", [dict(samples=300), dict(seed=1),
                                  dict(tol=1e-10), dict(radius=1)])
def test_a_call_the_certificate_does_not_cover_still_runs(monkeypatch, call):
    runs = counted_certifications(monkeypatch)
    phi = area_cocycle(Z3, (0, 0, 1), certify=False)
    certify_cyclic_cocycle(phi, radius=2, samples=200, seed=0, tol=1e-8)
    certify_cyclic_cocycle(phi, radius=2, samples=100, seed=0, tol=1e-7)
    assert len(runs) == 1
    args = dict(radius=2, samples=200, seed=0, tol=1e-8) | call
    report = certify_cyclic_cocycle(phi, **args)
    assert runs[1:] == [(args["radius"], args["samples"], args["seed"])]
    assert phi.certificate is report and report["tol"] == args["tol"]
