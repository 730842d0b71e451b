"""Boundary loops of idempotents and the two-route pairing identity.

An idempotent ``p`` bounds the loop of invertibles

    u(t) = exp(2 pi i (1 - t) p) = 1 + c(t) p,   c(t) = e^{2 pi i (1-t)} - 1,

which starts and ends at the unit of the unitized algebra (exactly at
t = 1, within the idempotency defect at t = 0).  Pairing an even cyclic
cocycle with this loop must reproduce minus twice the Chern pairing with
the idempotent; :func:`boundary_identity` evaluates both sides through
disjoint routes that meet only at the trace-pairing primitive.

The scalar model of the loop legs, ``|u(s) - 1|^2 = 2 - 2 cos 2 pi s``,
integrates to central binomial coefficients; :func:`scalar_loop_integral`
computes these by quadrature as the normalization cross-check behind the
factor two in the identity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cyclic import (
    CyclicCochain,
    Idempotent,
    area_cocycle,
    class_trace_cochain,
    connes_chern,
    periodicity,
)
from .errors import PreconditionError
from .eta import loop_coefficient, tau_pair
from .group_algebra import AlgebraElement
from .groups import CyclicGroup, FreeAbelianGroup
from .operators import FourierSymbolOperator, two_band_chern_symbol
from .quadpack import quad

_LOOP_TOL = 1e-10  # boundary loop: inverse defect at every t
_CLOSURE_TOL = 1e-12  # boundary loop: start defect at t = 0
# |c + conj(c) + |c|^2| of a computed c(t), which |1 + c| = 1 makes 0 up to
# rounding (at most 4.4e-16 measured over 200,001 t)
_LOOP_ROUNDING = 2.0 ** -48
_FERMI_GRID = 128  # Fermi projection: frequency grid points per axis
_FERMI_PRUNE = 1e-15  # Fermi projection: drop below this share of the largest


def scalar_loop_integral(m: int) -> float:
    """``int_0^1 (2 - 2 cos 2 pi s)^m ds`` by adaptive quadrature.

    The integrand is ``|u(s) - 1|^{2m}`` for the scalar boundary loop
    ``u(s) = e^{2 pi i (1 - s)}``; the closed form is the central
    binomial coefficient ``C(2m, m)``.
    """
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise PreconditionError(f"loop power must be a nonnegative integer, "
                                f"got {m!r}")
    def f(s: float) -> float:
        return (2.0 - 2.0 * math.cos(2.0 * math.pi * s)) ** m

    val, _ = quad(f, 0.0, 1.0, epsabs=1e-12, epsrel=1e-13, limit=200)
    return float(val)


# ---------------------------------------------------------------------------
# the boundary loop
# ---------------------------------------------------------------------------


@dataclass
class BoundaryLoop:
    """The loop ``u(t) = 1 + c(t) p`` of an idempotent, with certificates.

    ``certificate`` holds ``max_defect``, a bound on the inverse defect of
    the computed loop at every t, and ``start_defect``, the defect at t = 0.
    The loop closes at the unit exactly at t = 1 (the coefficient vanishes
    identically there) and within the idempotency defect at t = 0.
    """

    idempotent: Idempotent
    certificate: dict

    @classmethod
    def build(cls, p: Idempotent) -> "BoundaryLoop":
        """Certify the loop for all t in closed form.

        The inverse of ``1 + c p`` is ``1 + conj(c) p``, so the defect
        ``|x x^{-1} - 1|`` is the summed trace norm of
        ``(c + conj(c)) p + |c|^2 p^2
        = (c + conj(c) + |c|^2) p + |c|^2 (p^2 - p)``. As ``|1 + c| = 1`` the
        first coefficient is at most ``_LOOP_ROUNDING``, and ``|c|^2 <= 4``
        up to rounding, so every t has defect at most ``_LOOP_ROUNDING
        ||p||_1 + 4 (1 + 2^-50) ||p^2 - p||_1`` from the trace norms of p and
        of its idempotency defect, certified against ``_LOOP_TOL``.  The
        closure at t = 0, where the coefficient nearly vanishes, is the
        same split at the computed ``c(0)``, held to the much tighter
        ``_CLOSURE_TOL``.
        """
        norm_p, norm_defect = p.trace_norms
        worst = (_LOOP_ROUNDING * norm_p
                 + 4.0 * (1.0 + 2.0 ** -50) * norm_defect)
        if worst > _LOOP_TOL:
            raise PreconditionError(
                f"loop inverse defect {worst:.3e} > {_LOOP_TOL:.1e}")
        c = loop_coefficient(0.0)
        cc = c * c.conjugate()
        start = abs(c + c.conjugate() + cc) * norm_p + abs(cc) * norm_defect
        if start > _CLOSURE_TOL:
            raise PreconditionError(
                f"loop start defect {start:.3e} > {_CLOSURE_TOL:.1e}; "
                "the loop does not close at the unit within tolerance")
        return cls(p, {"max_defect": worst, "start_defect": start})


# ---------------------------------------------------------------------------
# the two-route identity
# ---------------------------------------------------------------------------


def boundary_identity(phi: CyclicCochain, p, *, tol: float = 1e-6) -> dict:
    """Evaluate ``tau_phi(boundary loop of p)`` against ``-2 ch_phi(p)``.

    The left side integrates the loop pairing along the certified loop;
    the right side is the Chern pairing of the idempotent.  The two
    routes share nothing below the trace-pairing primitive.  Returns a
    report with both values, their difference, and the verdict at the
    requested tolerance.
    """
    loop = p if isinstance(p, BoundaryLoop) else BoundaryLoop.build(p)
    idem = loop.idempotent
    lhs = tau_pair(phi, idem, tol=tol / 4.0)
    rhs = -2.0 * connes_chern(phi, idem)
    difference = abs(lhs - rhs)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "difference": difference,
        "verdict": bool(difference <= tol),
        "loop_defect": loop.certificate["max_defect"],
    }


# ---------------------------------------------------------------------------
# shipped idempotents
# ---------------------------------------------------------------------------


def character_projector(order: int = 5, mode: int = 1) -> Idempotent:
    """Rank-one spectral projector of the cyclic shift:
    ``p = (1/N) sum_g chi(g) delta_g`` with ``chi(g) = e^{2 pi i g mode/N}``.
    Exactly idempotent by character orthogonality."""
    group = CyclicGroup(order)
    coeffs = {g: np.array([[np.exp(2j * np.pi * g * mode / order) / order]])
              for g in range(order)}
    return Idempotent(AlgebraElement(group, 1, coeffs))


def fermi_projection(symbol: FourierSymbolOperator) -> Idempotent:
    """Projection onto the negative spectrum of a gapped Fourier symbol.

    Applies the step ``x < 0`` to the symbol on the uniform frequency grid
    of ``_FERMI_GRID`` points per axis, reads all convolution coefficients
    off by one forward FFT, and prunes those below ``_FERMI_PRUNE`` times
    the largest; :class:`~etalab.cyclic.Idempotent` validates the result.
    Refuses symbols whose sampled spectrum touches zero on that grid.
    """
    el = symbol.element
    group = el.group
    if not isinstance(group, FreeAbelianGroup):
        raise PreconditionError("Fermi projection needs a lattice symbol")
    grid = _FERMI_GRID
    closest = symbol._uniform_grid_min(grid)
    if closest <= 1e-8:
        raise PreconditionError(
            f"symbol spectrum touches zero on the sampled grid (closest "
            f"eigenvalue {closest:.3e}); the Fermi projection needs a "
            "gapped symbol")
    coeff_grid, _ = symbol._coefficient_grid(lambda x: (x < 0) + 0.0, grid)
    mags = np.abs(coeff_grid).max(axis=(-2, -1))
    keep = np.argwhere(mags > _FERMI_PRUNE * mags.max())
    signed = (keep + grid // 2) % grid - grid // 2
    return Idempotent(AlgebraElement._from_stack(
        group, el.dim, list(map(tuple, signed.tolist())),
        coeff_grid[tuple(keep.T)]))


@functools.lru_cache(maxsize=1)
def shipped_pairing_fixtures() -> tuple:
    """The shipped (cocycle, idempotent) pairs, as (name, phi, p) triples.

    Covers both routes of the boundary identity across the fixture
    spectrum: exact character projectors at degree 0 and through the
    degree-raising shift, the scalar unit against the trivial trace,
    localized loops against far delocalized classes, and the Fermi
    projection of the twisted two-band symbol against the area cocycle
    (the genuinely nonzero case).  Treat the returned tuple as
    read-only; it is cached.
    """
    c5 = CyclicGroup(5)
    tr1 = class_trace_cochain(c5.conjugacy_class(1))
    z1 = FreeAbelianGroup(1)
    z2 = FreeAbelianGroup(2)
    unit = Idempotent(AlgebraElement(z1, 1, {(0,): np.array([[1.0]])}))
    local = Idempotent(AlgebraElement(
        z2, 2, {(0, 0): np.array([[1.0, 0.0], [0.0, 0.0]])}))
    shear = np.zeros((2, 2), dtype=complex)
    shear[0, 1] = 0.7
    local_wide = Idempotent(AlgebraElement(
        z2, 2, {(0, 0): np.array([[1.0, 0.0], [0.0, 0.0]]), (1, 0): shear}))
    far = periodicity(class_trace_cochain(z2.conjugacy_class((5, 5))))
    return (
        ("character projector, degree 0", tr1, character_projector()),
        ("character projector, shifted degree 2", periodicity(tr1),
         character_projector()),
        ("scalar unit against the trivial trace",
         class_trace_cochain(z1.conjugacy_class((0,))), unit),
        ("identity-supported projector far from the class", far, local),
        ("sheared local idempotent far from the class", far, local_wide),
        ("Fermi projection against the area cocycle",
         area_cocycle(FreeAbelianGroup(2), (0, 0)),
         fermi_projection(two_band_chern_symbol())),
    )
