"""Equivariant lattice operator models with certified functional calculus.

Three backends realize self-adjoint, translation-equivariant, finite-band
operators ``D`` acting on ``l^2(G) (x) C^m``:

* :class:`FourierSymbolOperator` — ``G = Z^d``, ``D`` given by a matrix-valued
  trigonometric polynomial ``theta -> D(theta)``, evaluated on uniform grids
  ``theta_j = 2 pi j / n`` by inverse FFT.  ``f(D)`` coefficients are the
  forward FFT of ``f(D(theta_j))`` (the trapezoid rule), with the agreement
  of successive 5-smooth ``n`` as the error certificate.  The gap
  certificate is the min |eigenvalue| over the same grids, lowered by the
  curvature slack ``(2 pi/n)^2/8 sum_k Q_k`` of ``D(theta)^2``.
* :class:`FiniteCoverOperator` — finite ``G``; ``D`` is an explicit Hermitian
  matrix on the cover with a free deck representation; the calculus is a
  dense eigendecomposition, certified to its rounding floor.
* :class:`FreeConvolutionOperator` — free ``G``; ``D`` is a finitely
  supported Hermitian convolution kernel.  A weighted Schur test puts spec D
  within ``b`` of the eigenvalues ``mu`` of ``A_e``: the gap certificate is
  ``min |mu| - b``, and ``f(D)`` is an adaptive Chebyshev series on the hull
  over moments kept per ball truncation, certified by the sup error plus a
  finite-propagation bound on the truncation.

:class:`SchwartzFunction` carries the fixed catalogue of spectral functions
used by the eta integrands (Gaussian family, unitary-loop family).  The
Gaussian family carries a closed-form bound on ``|f|`` over the Bernstein
ellipses of a spectral hull, from which :func:`class_trace` bounds the
class members it drops.  The inverse leg ``ut_inv_minus_1`` is
oracle-only: production takes ``u^{-1} - 1`` as the adjoint ``(u - 1)^*``
of the leg it computed, and tests check that adjoint against this
independent calculus.

:func:`dense_truncation_calculus_batch` is a deliberately naive oracle (dense
eigendecomposition of a truncated convolution matrix); production routes
never call it, tests compare against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce

import numpy as np

from .cyclic import _fast_len
from .errors import (
    CertificateError,
    PreconditionError,
    RepresentationError,
    ResourceBudgetError,
)
from .group_algebra import AlgebraElement, convolve
from .groups import (
    ConjugacyClass,
    CyclicGroup,
    FreeAbelianGroup,
    FreeGroup,
    GroupModel,
)

HERMITIAN_TOL = 1e-12
_GRID_CAPS = {1: 1 << 16, 2: 1 << 10, 3: 1 << 7}  # symbol gap grid, by rank
_GAP_SLAB = 1 << 14  # grid points per column slab of the symbol gap minimum
_GAP_START_NODES = 64  # symbol gap grid: first level, per axis
_CALCULUS_MAX_NODES = 400  # symbol calculus grid, per axis
_ROUNDING_ULPS = 4  # rounding floors: ulps per FFT level, per cover dimension
_CHEB_START_DEGREE = 16  # free-kernel Chebyshev degree ladder
_CHEB_MAX_DEGREE = 512
_TRUNCATION_PAD = 8  # free-kernel truncation radius: R + pad, capped
_MAX_TRUNCATION = 12
_TRUNCATION_BUDGET = 4_000_000  # words in a free-kernel truncation
_COVER_ZERO_TOL = 1e-10  # cover gap: |eigenvalue| / scale counted as 0
# free-kernel Schur enclosure: log rho bracket, rounding allowance
_SCHUR_LOG_RHO_MIN = -16.0
_SCHUR_ROUNDING = 1e-12
_ELLIPSE_LOG_RHO_SPAN = 32.0  # class-tail Bernstein ellipse: log rho bracket
_GOLDEN_STEPS = 80
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# Schwartz-type spectral functions
# ---------------------------------------------------------------------------


# Cody's rational Chebyshev erf (Math. Comp. 23, 1969) with the coefficients
# of Moshier's Cephes ndtr.c, highest power first: x T(x^2) / U(x^2) on
# |x| <= 1 and 1 - exp(-x^2) P(|x|) / Q(|x|) above.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
_ERF_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
          7.46321056442269912687e0, 4.86371970985681366614e1,
          1.96520832956077098242e2, 5.26445194995477358631e2,
          9.34528527171957607540e2, 1.02755188689515710272e3,
          5.57535335369399327526e2)
_ERF_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
          3.54937778887819891062e2, 9.75708501743205489753e2,
          1.82390916687909736289e3, 2.24633760818710981792e3,
          1.65666309194161350182e3, 5.57535340817727675546e2)
# |_erf - erf| against mpmath 1.3 is at most 3.1e-16 on 1.5M points (the
# largest at 0.97); tests/test_erf.py holds _erf to this bound
_ERF_ERROR = 5e-16


def _horner(coeffs, x):
    acc = coeffs[0] * x + coeffs[1]
    for c in coeffs[2:]:
        acc *= x
        acc += c
    return acc


def _erf(x):
    """erf of a float array, odd by construction. Past |x| = 6 it is +-1:
    erfc(6) < 2.2e-17 is below half an ulp of 1. NaN passes through."""
    a = np.abs(np.asarray(x, dtype=float))
    out = np.minimum(a, 1.0, out=np.empty_like(a))
    if (inner := a <= 1.0).any():
        s = a[inner]
        z = s * s
        out[inner] = s * _horner(_ERF_T, z) / _horner(_ERF_U, z)
    if (outer := (a > 1.0) & (a < 6.0)).any():
        s = a[outer]
        out[outer] = 1.0 - (np.exp(-s * s) * _horner(_ERF_P, s)
                            / _horner(_ERF_Q, s))
    return np.copysign(out, x)


def _loop_unitary(x):
    """The smooth unitary loop exp(i pi (1 + erf(x))); tends to 1 at both
    ends of the real line and winds once through the circle. Its erf is
    :func:`_erf`, within ``_ERF_ERROR`` of the true one, so the loop is
    within ``pi * _ERF_ERROR`` of the true loop (``evaluation_error``)."""
    return -np.exp(1j * np.pi * _erf(x))


_SCHWARTZ_EVALUATORS = {
    # tag: (callable (x, t) -> complex array, (c, p) with |f(z)| <= c |z|^p
    #       exp(t^2 Im(z)^2) on the complex plane, or None)
    "gauss": (lambda x, t: np.exp(-((t * x) ** 2)) + 0j, (1.0, 0)),
    "xgauss": (lambda x, t: x * np.exp(-((t * x) ** 2)) + 0j, (1.0, 1)),
    "udot_uinv": (lambda x, t: 2j * math.sqrt(math.pi) * x
                  * np.exp(-((t * x) ** 2)), (2.0 * math.sqrt(math.pi), 1)),
    "ut_minus_1": (lambda x, t: _loop_unitary(t * x) - 1.0, None),
    "ut_inv_minus_1": (lambda x, t: np.conj(_loop_unitary(t * np.asarray(
        x, dtype=float))) - 1.0, None),
    "identity": (lambda x, t: np.asarray(x, dtype=complex), None),
}


@dataclass(frozen=True)
class SchwartzFunction:
    """A builtin spectral function with a scale parameter.

    The catalogue is closed: the Gaussian family carries a certified bound
    off the real line (:meth:`log_ellipse_sup`); ``identity`` (only usable
    with exact backends) and the unitary-loop family have none. Arbitrary
    callables are rejected by design — certified strip bounds for user
    functions are out of scope.
    """

    tag: str
    t: float = 1.0  # or a 1-D array of scales, which leads every value

    def __post_init__(self):
        if self.tag not in _SCHWARTZ_EVALUATORS:
            raise PreconditionError(
                f"unknown spectral function {self.tag!r}; "
                f"builtins: {sorted(_SCHWARTZ_EVALUATORS)}")
        if not np.all(np.greater(self.t, 0)):
            raise PreconditionError(f"scale parameter must be > 0, got {self.t}")

    def log_ellipse_sup(self, lo: float, hi: float, s: float) -> float:
        """log of a bound on ``|f|`` inside the Bernstein ellipse of [lo, hi]
        with ``rho = e^s``: there ``|z| <= |mid| + half cosh s`` and
        ``|Im z| <= half sinh s``, and the Gaussian family has ``|f(z)| <= c
        |z|^p exp(t^2 Im(z)^2)``, since ``|exp(-t^2 z^2)| = exp(-t^2 Re
        z^2)``.  Every other function is refused."""
        form = _SCHWARTZ_EVALUATORS[self.tag][1]
        if form is None:
            raise PreconditionError(
                f"{self.tag} carries no certified bound off the real line")
        (c, p), mid, half = form, 0.5 * (lo + hi), 0.5 * (hi - lo)
        return (math.log(c) + p * math.log(abs(mid) + half * math.cosh(s))
                + (self.t * half * math.sinh(s)) ** 2)

    @property
    def evaluation_error(self) -> float:
        """Bound on |computed f - f| on the real line: ``pi * _ERF_ERROR``
        for the unitary-loop family (|d exp(i pi e)/de| = pi), else 0."""
        return math.pi * _ERF_ERROR if self.tag.startswith("ut_") else 0.0

    def __call__(self, x) -> np.ndarray:
        fn = _SCHWARTZ_EVALUATORS[self.tag][0]
        x = np.asarray(x, dtype=float)
        t = np.reshape(self.t, np.shape(self.t) + (1,) * x.ndim)
        return np.asarray(fn(x, t), dtype=complex)

    def __repr__(self):
        return f"SchwartzFunction({self.tag!r}, t={self.t})"


# ---------------------------------------------------------------------------
# calculus results and gap certificates
# ---------------------------------------------------------------------------


@dataclass
class CalculusResult:
    """``f(D)`` truncated to a ball, with a per-coefficient error certificate.

    ``error`` bounds ``max_g |computed_g - exact_g|`` (entrywise) by the
    backend's certificate; ``converged`` records whether the requested
    target was met within budget.
    """

    element: AlgebraElement
    error: float
    target: float
    converged: bool
    backend: str
    diagnostics: dict = field(default_factory=dict)


@dataclass
class GapCertificate:
    """A certified lower bound on dist(0, spec D); the finite-cover
    certificate leaves out eigenvalues within ``_COVER_ZERO_TOL`` of 0."""

    value: float
    method: str
    diagnostics: dict = field(default_factory=dict)

    def __float__(self):
        return float(self.value)


def _golden_min(fn, lo: float, hi: float) -> tuple:
    """``(fn(s), s)`` least over the ends of the last bracket of
    ``_GOLDEN_STEPS`` golden-section steps for a convex ``fn`` on [lo, hi],
    and over ``hi``."""
    top = hi
    for _ in range(_GOLDEN_STEPS):
        a, c = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
        lo, hi = (lo, c) if fn(a) <= fn(c) else (a, hi)
    return min((fn(s), s) for s in (lo, hi, top))


def _block_norms(element: AlgebraElement) -> dict:
    return dict(zip(element.keys,
                    np.linalg.norm(element.blocks, 2, axis=(1, 2)).tolist()))


# ---------------------------------------------------------------------------
# operator base
# ---------------------------------------------------------------------------


class EquivariantOperator:
    """Common interface: a Hermitian finite-band convolution operator."""

    backend = "abstract"

    def __init__(self, element: AlgebraElement):
        if not element.is_hermitian(HERMITIAN_TOL):
            raise RepresentationError(
                "operator coefficients are not Hermitian (A_{g^-1} != A_g^*)")
        self.element = element
        self.group: GroupModel = element.group
        self.dim = element.dim
        self.band = element.propagation_radius()

    def operator_norm_bound(self) -> float:
        """Sound upper bound on ||D||: the l1 sum of block operator norms."""
        return float(sum(_block_norms(self.element).values()))

    def spectral_hull(self) -> tuple:
        """An interval ``(lo, hi)`` that holds spec D: ``[-||D||, ||D||]``
        from :meth:`operator_norm_bound`."""
        norm = self.operator_norm_bound()
        return -norm, norm

    @property
    def c_d(self) -> float:
        """Effective light-cone constant band * ||D||, an upper envelope of
        the propagation speed used in one-sided tail bounds."""
        return self.band * self.operator_norm_bound()

    def functional_calculus(self, f: SchwartzFunction, R: int,
                            tol: float = 1e-10, *,
                            strict: bool = True) -> CalculusResult:
        raise NotImplementedError

    def gap_certificate(self) -> GapCertificate:
        raise NotImplementedError

    def _check_radius(self, R: int):
        if R < self.band:
            raise PreconditionError(
                f"truncation radius {R} is below the operator band {self.band}")

    def _finish(self, result: CalculusResult, strict: bool) -> CalculusResult:
        if strict and not result.converged:
            raise CertificateError(
                "calculus-error-target",
                f"{self.backend}: certified error {result.error:.3e} exceeds "
                f"target {result.target:.3e}", witness=result)
        return result

    def __repr__(self):
        return (f"{type(self).__name__}(group={self.group!r}, dim={self.dim}, "
                f"band={self.band})")


# ---------------------------------------------------------------------------
# Fourier symbol backend (Z^d)
# ---------------------------------------------------------------------------


def calculus_ladder(start: int, rank: int = 1) -> list:
    """The grid sizes of the Z^d calculus: ``_fast_len(start)``, then the
    smallest 5-smooth length above 1.5 times the last, up to
    ``_CALCULUS_MAX_NODES`` and the gap grid's cap for whole grids over
    Z^rank."""
    cap = min(_CALCULUS_MAX_NODES, _GRID_CAPS.get(rank, 32))
    levels = [_fast_len(start)]
    while (n := _fast_len(math.ceil(levels[-1] * 1.5))) <= cap:
        levels.append(n)
    return levels


def rounding_error(scale: float, points: int) -> float:
    """A few ulps of ``scale`` per level of a ``points``-point FFT: the floor
    below which the agreement of two grid levels certifies nothing."""
    return _ROUNDING_ULPS * 2.0 ** -52 * scale * math.log2(max(points, 2))


def _hermitian_2x2(d00, d11, d01):
    """(mu, delta, b, r) of Hermitian 2x2 blocks, with eigenvalues mu +- r."""
    mu = 0.5 * (d00 + d11).real
    delta = 0.5 * (d00 - d11).real
    return mu, delta, d01, np.sqrt(delta * delta + (d01 * d01.conj()).real)


class FourierSymbolOperator(EquivariantOperator):
    """Matrix trigonometric polynomial ``D(theta) = sum_g A_g e^{i g.theta}``
    acting by convolution on ``l^2(Z^d) (x) C^m``.

    Every evaluation of ``D`` is on a uniform grid ``theta_j = 2 pi j / n``
    (:meth:`_symbol_slabs`), and every read-out of ``f(D)`` is the forward
    FFT of ``f(D(theta_j))`` (:meth:`_coefficient_grid`): the trapezoid rule
    for the Fourier integral of a periodic integrand."""

    backend = "fourier_symbol"

    def __init__(self, element: AlgebraElement):
        if not isinstance(element.group, FreeAbelianGroup):
            raise PreconditionError("Fourier symbols require Z^d models")
        super().__init__(element)
        self.rank = element.group.rank
        self._spectra = {}

    def _symbol_slabs(self, n: int, points: int):
        """Lists of the channels ``D_ik`` on the grid ``theta_j = 2 pi j / n``
        (``(0, 0)``; ``(0, 0), (1, 1), (0, 1)`` for 2x2 blocks; all ``(i, k)``
        in C order otherwise) as ``(n, w)`` slabs over ``w = max(1, points //
        n)`` columns of the flattened trailing axes.  Only the hyperplanes
        ``g_0 mod n`` that carry an ``A_g`` (added at ``g mod n``) are built
        and inverse-FFT over the trailing axes; axis 0 goes last, per slab.
        ``ifftn`` is the same chain of 1-D passes, last axis first, and a zero
        line transforms to zeros, so the values are its own bit for bit."""
        m, rest = self.dim, tuple(range(self.rank - 1))
        channels = ([(0, 0), (1, 1), (0, 1)][:2 * m - 1] if m <= 2
                    else list(np.ndindex(m, m)))
        planes = {}
        for g, A in zip(self.element.keys, self.element.blocks):
            plane = planes.setdefault(g[0] % n, np.zeros(
                (n,) * len(rest) + (len(channels),), dtype=complex))
            plane[tuple(x % n for x in g[1:])] += [A[ik] for ik in channels]
        planes = {g0: np.fft.ifftn(p, axes=rest, norm="forward").reshape(
            -1, len(channels)) for g0, p in planes.items()}
        cols, w = n ** len(rest), max(1, points // n)
        for lo in range(0, cols, w):
            slab = np.zeros((len(channels), n, min(w, cols - lo)), complex)
            for g0, p in planes.items():
                slab[:, g0] = p[lo:lo + w].T
            yield [np.fft.ifft(c, axis=0, norm="forward") for c in slab]

    def _spectrum(self, n: int):
        """The f-independent part of f(D(theta)) on the n^d grid, from one
        whole-grid slab of :meth:`_symbol_slabs`: the real symbol, ``(mu,
        delta, b, r)`` of the 2x2 closed form, or ``eigh``."""
        m = self.dim
        shape = (n,) * self.rank
        ch = [c.reshape(shape)
              for c in next(self._symbol_slabs(n, n ** self.rank))]
        if m == 1:
            return ch[0].real.copy()
        if m == 2:
            return _hermitian_2x2(*ch)
        return np.linalg.eigh(np.stack(ch, -1).reshape(shape + (m, m)))

    def _grid_spectrum(self, n: int):
        """:meth:`_spectrum`, built once per calculus node count ``n``."""
        if n not in self._spectra:
            self._spectra[n] = self._spectrum(n)
        return self._spectra[n]

    def _apply_on_grid(self, f, n: int) -> np.ndarray:
        """f(D(theta)) on the n^d uniform grid, entry planes first, then
        any axes ``f``, acting elementwise on real arrays, puts in front."""
        spectrum = self._grid_spectrum(n)
        if self.dim == 1:
            return f(spectrum)[None, None]
        if self.dim == 2:
            mu, delta, b, r = spectrum
            f_plus = f(mu + r)
            f_minus = f(mu - r)
            even = 0.5 * (f_plus + f_minus)
            odd = 0.5 * (f_plus - f_minus) / np.maximum(r, 1e-300)
            out = np.empty((2, 2) + even.shape, dtype=complex)
            out[0, 0] = even + odd * delta
            out[1, 1] = even - odd * delta
            out[0, 1] = odd * b
            out[1, 0] = odd * b.conj()
            return out
        lam, U = spectrum
        fl = f(lam)
        return np.moveaxis(np.einsum("...ij,...j,...kj->...ik", U, fl,
                                     np.conj(U)), (-2, -1), (0, 1))

    def _coefficient_grid(self, f, n: int) -> tuple[np.ndarray, float]:
        """Trapezoid coefficients of f(D), entry planes last (entry ``a mod
        n`` is ``c_a`` up to the aliasing ``sum_{b != 0} c_{a + b n}``), and
        max |f(D(theta_j))|, the size their transform rounds at."""
        values = self._apply_on_grid(f, n)
        return np.moveaxis(np.fft.fftn(
            values, axes=tuple(range(2, self.rank + 2)), norm="forward"),
            (0, 1), (-2, -1)), float(np.abs(values).max())

    def _coefficient_box(self, f: SchwartzFunction, R: int,
                         n: int) -> tuple[np.ndarray, float]:
        """:meth:`_coefficient_grid` for all c_a, a in [-R, R]^d."""
        coef, scale = self._coefficient_grid(f, n)
        idx = np.arange(-R, R + 1) % n
        return coef[np.ix_(*[idx] * self.rank)], scale

    def functional_calculus(self, f: SchwartzFunction, R: int,
                            tol: float = 1e-10, *,
                            strict: bool = True) -> CalculusResult:
        """Coefficients of f(D) on the ball of radius ``R``, by the
        trapezoid rule on the levels of ``calculus_ladder(max(24, 2R + 1))``
        (so the read box never aliases onto itself); the stop test is the
        agreement of the last two levels, and ``error`` adds to it the
        rounding floor of the last level's transform and
        ``f.evaluation_error``."""
        self._check_radius(R)
        group: FreeAbelianGroup = self.group
        ladder = calculus_ladder(max(24, 2 * R + 1))
        prev, scale = self._coefficient_box(f, R, ladder[0])
        err, converged, levels = math.inf, False, ladder[:1]
        for nodes in ladder[1:]:
            cur, scale = self._coefficient_box(f, R, nodes)
            err = float(np.abs(cur - prev).max())
            prev = cur
            levels.append(nodes)
            if converged := err <= 0.1 * tol:
                break
        err += (rounding_error(scale, levels[-1] ** self.rank)
                + f.evaluation_error)
        # the ball |g| <= R of the box, in the C order of np.ndindex
        box = np.indices((2 * R + 1,) * self.rank).reshape(self.rank, -1).T - R
        ball = group.array_length(box) <= R
        element = AlgebraElement._from_stack(
            group, self.dim, list(map(tuple, box[ball].tolist())),
            prev.reshape(-1, self.dim, self.dim)[ball])
        result = CalculusResult(element, err, tol, converged, self.backend,
                                {"levels": levels, "f": f.tag, "t": f.t})
        return self._finish(result, strict)

    def gap_certificate(self) -> GapCertificate:
        """Certified lower bound on ``min_theta min |eig D(theta)|``.

        For a unit vector ``v``, ``<v, D(theta)^2 v>`` is a real trigonometric
        polynomial with ``|d^2/d theta_k^2| <= Q_k = sum_g g_k^2 ||(D D)_g||``,
        so on each cell of the uniform grid ``theta_j = 2 pi j / n`` it lies
        above its multilinear interpolant, which is at least ``grid_min^2``,
        less ``(2 pi/n)^2/8 sum_k Q_k``.  Taking ``v`` an eigenvector of the
        least eigenvalue of ``D(theta)^2`` gives ``gap^2 >= grid_min^2 -
        slack`` for any block size: no eigenvalue need be smooth, simple or
        separated.  ``n`` doubles from ``_GAP_START_NODES`` until two positive
        levels agree to 1e-3 relative or ``n`` reaches ``_GRID_CAPS`` (2^16,
        2^10, 2^7 by rank, then 32).  A level builds only the hyperplanes
        ``g_0 mod n`` that carry coefficients and transforms axis 0 last, on
        column slabs, which gives ``ifftn`` of the wrapped box bit for bit
        (``_uniform_grid_min``); ``history`` records its ``nodes``,
        ``grid_min``, the squared-unit ``slack`` and ``certified``."""
        square = convolve(self.element, self.element)
        curvature = sum(sum(x * x for x in g) * nb
                        for g, nb in _block_norms(square).items())
        cap = _GRID_CAPS.get(self.rank, 32)
        n = min(_GAP_START_NODES, cap)
        prev_cert = -math.inf
        history = []
        while True:
            m = self._uniform_grid_min(n)
            slack = curvature * (2 * np.pi / n) ** 2 / 8
            cert = math.sqrt(max(0.0, m * m - slack))
            history.append({"nodes": n, "grid_min": m, "slack": slack,
                            "certified": cert})
            if (cert > 0 and prev_cert > 0
                    and abs(cert - prev_cert) <= 1e-3 * cert):
                break
            if n >= cap:
                break
            prev_cert = cert
            n *= 2
        return GapCertificate(cert, "symbol-grid-curvature",
                              {"history": history})

    def _uniform_grid_min(self, n: int) -> float:
        """min |eigenvalue| of ``D`` on the grid ``theta_j = 2 pi j / n``,
        uncached: a running minimum over slabs of :meth:`_symbol_slabs` of
        ``_GAP_SLAB`` points (one column if ``n`` is larger) of ``|D|``,
        ``||mu| - r|`` of the 2x2 closed form, or ``eigvalsh``."""
        m, best = self.dim, math.inf
        for ch in self._symbol_slabs(n, _GAP_SLAB):
            if m == 1:
                lam = ch[0].real
            elif m == 2:
                mu, _, _, r = _hermitian_2x2(*ch)
                lam = np.abs(mu) - r
            else:
                lam = np.linalg.eigvalsh(np.stack(ch, -1).reshape(-1, m, m))
            best = min(best, float(np.abs(lam).min()))
        return best


# ---------------------------------------------------------------------------
# finite cover backend
# ---------------------------------------------------------------------------


def enumerate_group(group: GroupModel, max_radius: int = 64) -> list:
    """All elements of a finite group model, via ball saturation."""
    prev = group.ball(0)
    for r in range(1, max_radius + 1):
        cur = group.ball(r)
        if len(cur) == len(prev):
            return cur
        prev = cur
    raise PreconditionError(
        f"{group!r} did not saturate within radius {max_radius}; "
        "finite covers require a finite group")


class FiniteCoverOperator(EquivariantOperator):
    """Hermitian matrix on ``l^2(G) (x) C^m`` for finite ``G``, commuting
    with the free deck representation ``(U_g psi)(x) = psi(g^-1 x)``.

    Stored as its convolution coefficients ``A_g`` (cover kernel
    ``H[x, y] = A(x y^-1)``); the cover matrix and deck unitaries are
    materialized on demand. The calculus is a dense eigendecomposition,
    averaged over the deck group by one gather of its blocks.
    """

    backend = "finite_cover"

    def __init__(self, element: AlgebraElement):
        super().__init__(element)
        self.elements = enumerate_group(self.group)
        self.index = {g: i for i, g in enumerate(self.elements)}
        self._eig = None
        self._rows = {}

    def cover_matrix(self) -> np.ndarray:
        m = self.dim
        n = len(self.elements)
        H = np.zeros((n * m, n * m), dtype=complex)
        zero = np.zeros((m, m), dtype=complex)
        for a, x in enumerate(self.elements):
            for b, y in enumerate(self.elements):
                g = self.group.multiply(x, self.group.inverse(y))
                H[a * m:(a + 1) * m, b * m:(b + 1) * m] = \
                    self.element.coeffs.get(g, zero)
        return H

    def deck_matrix(self, g) -> np.ndarray:
        m = self.dim
        n = len(self.elements)
        U = np.zeros((n * m, n * m), dtype=complex)
        eye = np.eye(m)
        for b, y in enumerate(self.elements):
            a = self.index[self.group.multiply(g, y)]
            U[a * m:(a + 1) * m, b * m:(b + 1) * m] = eye
        return U

    def eigensystem(self):
        if self._eig is None:
            lam, V = np.linalg.eigh(self.cover_matrix())
            self._eig = (lam, V)
        return self._eig

    def _deck_rows(self, R: int) -> tuple:
        """The members ``g_i`` of ball(R) that lie in the group, in ball
        order, and the ``(G, n)`` table ``index[g_i y_b]``; built once per
        ``R``."""
        if R not in self._rows:
            keys = [g for g in self.group.ball(R) if g in self.index]
            self._rows[R] = (keys, np.array(
                [[self.index[self.group.multiply(g, y)] for y in self.elements]
                 for g in keys], dtype=np.intp))
        return self._rows[R]

    def functional_calculus(self, f: SchwartzFunction, R: int,
                            tol: float = 1e-10, *,
                            strict: bool = True) -> CalculusResult:
        """``f(H)`` as the deck average ``A_g = mean_y F[g y, y]`` of the
        blocks of ``F = V f(lam) V^*``, for ``g`` in ball(R), gathered in
        one index through the table of :meth:`_deck_rows`.  ``error``
        bounds the entrywise error of each ``A_g``: the largest deviation
        of a block from its average (the equivariance defect of ``F``),
        plus the rounding floor of ``eigh`` and the product, plus the
        evaluation error of ``f``."""
        self._check_radius(R)
        lam, V = self.eigensystem()
        F = (V * (fl := f(lam))[None, :]) @ V.conj().T
        m = self.dim
        n = len(self.elements)
        keys, rows = self._deck_rows(R)
        blocks = F.reshape(n, m, n, m)[rows, :, np.arange(n), :]
        avg = blocks.mean(axis=1)
        defect = float(np.abs(blocks - avg[:, None]).max())
        element = AlgebraElement._from_stack(self.group, m, keys, avg)
        # eigh and V f(lam) V^* round at a few ulps of max |f| per dimension
        floor = _ROUNDING_ULPS * 2.0 ** -52 * float(np.abs(fl).max()) * n * m
        error = defect + floor + f.evaluation_error
        result = CalculusResult(element, error, tol, error <= tol,
                                self.backend, {"cover_dim": n * m})
        return self._finish(result, strict)

    def gap_certificate(self) -> GapCertificate:
        lam, _ = self.eigensystem()
        scale = max(1.0, float(np.abs(lam).max()))
        nonzero = np.abs(lam)[np.abs(lam) > _COVER_ZERO_TOL * scale]
        value = float(nonzero.min()) if len(nonzero) else math.inf
        return GapCertificate(value, "exact-eigenvalues",
                              {"eigenvalues": lam.tolist()})


# ---------------------------------------------------------------------------
# free convolution backend
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _chebyshev_nodes(n: int) -> np.ndarray:
    k = np.arange(n)
    return np.cos(np.pi * (k + 0.5) / n)


def chebyshev_fit(f: SchwartzFunction, lo: float, hi: float, degree: int):
    """Interpolate f on [lo, hi] at first-kind Chebyshev nodes; returns the
    coefficient vector in ``y = (x - mid) / half`` (midpoint and half-width
    of the interval) and the sup error measured on a dense grid."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = _chebyshev_nodes(degree + 1)
    vals = f(mid + half * nodes)
    j = np.arange(degree + 1)
    k = np.arange(degree + 1)
    cosines = np.cos(np.pi * np.outer(k, (j + 0.5)) / (degree + 1))
    coeffs = (2.0 / (degree + 1)) * (cosines @ vals)
    coeffs[0] *= 0.5
    dense = np.linspace(-1.0, 1.0, 4001)
    approx = np.polynomial.chebyshev.chebval(dense, coeffs)
    sup_err = float(np.abs(approx - f(mid + half * dense)).max())
    return coeffs, sup_err


class FreeConvolutionOperator(EquivariantOperator):
    """Finitely supported Hermitian convolution kernel on a free group,
    computed on ball truncations of the left-convolution action."""

    backend = "free_convolution"

    def __init__(self, element: AlgebraElement):
        if not isinstance(element.group, FreeGroup):
            raise PreconditionError(
                "free convolution models require a free group")
        super().__init__(element)
        self._moment_cache = {}

    @cached_property
    def enclosure(self) -> tuple:
        """``(mu, b, rho)``: spec D lies within ``b`` of the eigenvalues
        ``mu`` of ``A_e`` (Weyl), ``b`` bounding the kernel off the identity
        by the Schur test with weight ``rho^|x|``.  Its row sums
        ``sum_{g != e} ||A_g|| rho^(|gx| - |x|)`` depend on the first ``|g|``
        letters of ``x`` only, so ``ball(band)`` holds every row.  Rows are
        convex in ``log rho`` and equal at ``rho = 1``, past which the row
        of ``e`` grows: golden section over ``[e^-16, 1]`` picks ``rho``."""
        group, band = self.group, self.band
        rows = np.zeros((len(group.ball(band)), 2 * band + 1))
        for i, x in enumerate(group.ball(band)):
            for g, A in zip(self.element.keys, self.element.blocks):
                if g != group.identity:
                    k = (group.word_length(group.multiply(g, x))
                         - group.word_length(x))
                    rows[i, k + band] += np.linalg.norm(A, 2)
        exps = np.arange(-band, band + 1)
        b, s = _golden_min(lambda s: float((rows @ np.exp(s * exps)).max()),
                           _SCHUR_LOG_RHO_MIN, 0.0)
        mu = np.linalg.eigvalsh(self.element.coefficient(group.identity))
        b += _SCHUR_ROUNDING * (b + float(np.abs(mu).max()))
        return mu, b, math.exp(s)

    def spectral_hull(self) -> tuple:
        """``[min mu - b, max mu + b]`` from :attr:`enclosure`."""
        mu, b, _ = self.enclosure
        return float(mu.min()) - b, float(mu.max()) + b

    def _tables(self, radius: int) -> np.ndarray:
        """Row ``rank + s`` maps x to ``s x`` on ball(radius), or to the
        outside row N; row ``rank`` is the identity.  Breadth first, shell n
        + 1 lists, letter by letter, the ``s x`` of shell n not yet listed."""
        r = self.group.rank
        n = 1 + 2 * r * sum((2 * r - 1) ** k for k in range(radius))
        self.group._check_budget(n, _TRUNCATION_BUDGET, f"ball({radius})")
        steps = np.full((2 * r + 1, n + 1), n)
        steps[r], lo, hi = np.arange(n + 1), 0, 1
        for _ in range(radius):
            ss, xs = np.nonzero(steps[:, lo:hi] == n)
            kids = np.arange(hi, hi + len(xs))
            steps[ss, xs + lo] = kids
            steps[2 * r - ss, kids] = xs + lo
            lo, hi = hi, hi + len(xs)
        return steps

    def _moments(self, radius: int, R: int):
        """Yield ``T_k(X) e`` on ball(R), k = 0, 1, ..., by ``T_(k+1) = 2 X
        T_k - T_(k-1)`` on ball(radius), ``X = (D - mid) / half`` on the
        hull.  ``X`` gathers along ``g^-1`` through the outside row, kept 0,
        exactly: a reduced word that leaves the ball never comes back."""
        lo, hi = self.spectral_hull()
        half, shift = 0.5 * (hi - lo), (lo + hi) / (hi - lo)
        steps, r, m = self._tables(radius), self.group.rank, self.dim

        def walk(word, x):  # the rows of word x
            return reduce(lambda y, s: steps[r + s, y], word[::-1], x)

        rows = [walk(w, 0) for w in self.group.ball(R)]
        gathers = [walk(self.group.inverse(g), steps[r])
                   for g in self.element.keys]
        prev, cur, c = 0.0, np.zeros((m, steps.shape[1], m), complex), 1.0
        cur[:, 0] = np.eye(m)  # cur[i, x, k]: entry (i, k) of block x
        while True:
            yield cur[:, rows].transpose(1, 0, 2)
            out = -shift * cur
            for A, idx in zip(self.element.blocks / half, gathers):
                for i, j in zip(*np.nonzero(A)):
                    out[i] += A[i, j] * cur[j, idx]
            prev, cur, c = cur, c * out - prev, 2.0

    def functional_calculus(self, f: SchwartzFunction, R: int,
                            tol: float = 1e-10, *,
                            strict: bool = True) -> CalculusResult:
        """Chebyshev series of ``f`` on :meth:`spectral_hull`, summed over
        :meth:`_moments`, kept per ``(radius, R)`` and run on when a call
        needs a higher degree (the kernel polynomial method, Weisse et al.,
        Rev. Mod. Phys. 78, 2006).  Compressions keep their spectrum in that
        hull, so truncation moves ``T_k`` by at most 2, and not at all for
        ``k <= K``: no path of ``K`` steps from e to ball(R) leaves the ball.
        The error adds ``2 sum_{k>K} |c_k|`` and ``f.evaluation_error``."""
        self._check_radius(R)
        if _MAX_TRUNCATION < R + 4:
            raise PreconditionError(
                f"free-kernel truncation needs R <= {_MAX_TRUNCATION - 4}")
        lo, hi = self.spectral_hull()
        degree = _CHEB_START_DEGREE
        while True:
            coeffs, sup_err = chebyshev_fit(f, lo, hi, degree)
            if sup_err <= 0.05 * tol or degree >= _CHEB_MAX_DEGREE:
                break
            degree = int(math.ceil(degree * 1.5))
        radius = min(max(R + _TRUNCATION_PAD, R + self.band), _MAX_TRUNCATION)
        moments, run = self._moment_cache.setdefault(
            (radius, R), ([], self._moments(radius, R)))
        while len(moments) <= degree:
            moments.append(next(run))
        element = AlgebraElement._from_stack(
            self.group, self.dim, self.group.ball(R),
            np.tensordot(coeffs, np.stack(moments[:degree + 1]), 1))
        K = (2 * radius + 1 - R) // self.band if self.band else degree
        trunc_err = 2.0 * float(np.abs(coeffs[K + 1:]).sum())
        error = sup_err + trunc_err + f.evaluation_error
        result = CalculusResult(
            element, error, tol, error <= tol, self.backend,
            {"degree": degree, "cheb_sup_error": sup_err,
             "truncation_radius": radius, "truncation_bound": trunc_err,
             "hull": [lo, hi]})
        return self._finish(result, strict)

    def gap_certificate(self) -> GapCertificate:
        """``min |mu| - b`` from :attr:`enclosure`, or 0 if it reaches 0."""
        mu, b, rho = self.enclosure
        min_mu = float(np.abs(mu).min())
        return GapCertificate(max(0.0, min_mu - b), "weighted-schur",
                              {"min_abs_mu": min_mu, "schur_bound": b,
                               "rho": rho})


# ---------------------------------------------------------------------------
# oracle: dense truncation calculus
# ---------------------------------------------------------------------------


def _dense_truncation_eig(element: AlgebraElement, truncation_radius: int,
                          budget: int):
    group = element.group
    ball = group.ball(truncation_radius)
    m = element.dim
    n = len(ball) * m
    if n * n > budget:
        raise ResourceBudgetError(
            f"dense truncation needs a {n} x {n} matrix")
    index = {g: i for i, g in enumerate(ball)}
    H = np.zeros((n, n), dtype=complex)
    for g, A in zip(element.keys, element.blocks):
        for b, y in enumerate(ball):
            a = index.get(group.multiply(g, y))
            if a is not None:
                H[a * m:(a + 1) * m, b * m:(b + 1) * m] = A
    lam, V = np.linalg.eigh(H)
    return lam, V, ball, index


def dense_truncation_calculus_batch(element: AlgebraElement, fs, R: int,
                                    truncation_radius: int,
                                    budget: int = 200_000_000) -> list:
    """Oracle route for several functions at once: one dense
    eigendecomposition of the truncated convolution action, one coefficient
    read-out per function. Returns a list of ``{g: block}`` dicts.

    Deliberately structure-free (no quadrature, no Chebyshev, no symbol):
    production code never calls this, tests compare against it.
    """
    if truncation_radius < R:
        raise PreconditionError("truncation must cover the requested ball")
    group = element.group
    m = element.dim
    lam, V, ball, index = _dense_truncation_eig(element, truncation_radius,
                                                budget)
    e_idx = index[group.identity]
    results = []
    for f in fs:
        F_cols = (V * f(lam)[None, :]) @ \
            V.conj().T[:, e_idx * m:(e_idx + 1) * m]
        out = {}
        for g in group.ball(R):
            a = index[g]
            out[g] = np.array(F_cols[a * m:(a + 1) * m, :])
        results.append(out)
    return results


# ---------------------------------------------------------------------------
# class traces with tail certificates
# ---------------------------------------------------------------------------


@dataclass
class ClassTraceResult:
    """A delocalized trace over the class members inside a ball, plus a
    certified bound on the dropped tail and the calculus error."""

    value: complex
    tail_bound: float
    calculus_error: float
    terms: int
    diagnostics: dict = field(default_factory=dict)


def class_trace(op: EquivariantOperator, f: SchwartzFunction,
                cls: ConjugacyClass, R: int, tol: float = 1e-10, *,
                calculus: CalculusResult | None = None,
                strict: bool = False) -> ClassTraceResult:
    """``sum_{g in class, l(g) <= R} tr f(D)_g`` with a certified tail.

    On the hull [lo, hi] of :meth:`~EquivariantOperator.spectral_hull`,
    ``X = (D - mid) / half`` has ``||T_k(X)|| <= 1``, and ``T_k(X)_g = 0``
    for ``l(g) > k band`` (Demko, Moss & Smith, Math. Comp. 43, 1984).  With
    ``|c_k| <= 2 M rho^-k`` for the Chebyshev coefficients of ``f``, ``M``
    bounding ``|f|`` inside the Bernstein ellipse ``E_rho`` of the hull
    (Trefethen, *Approximation Theory and Approximation Practice*, 2013,
    Thm 8.1; :meth:`SchwartzFunction.log_ellipse_sup`), a dropped member
    has ``|tr f(D)_g| <= dim 2 M rho^(-l(g)/band) / (1 - 1/rho)``.  The
    tail sums that over the exact class counts in closed form
    (:meth:`~etalab.groups.ConjugacyClass.log_tail_sum`) and takes the
    least over ``log rho`` by golden section, in log space, so only a true
    overflow reads as inf.  It is exactly 0 when no member lies past R.
    """
    if cls.group != op.group:
        raise PreconditionError("class and operator live over different groups")
    if calculus is None:
        calculus = op.functional_calculus(f, R, tol, strict=strict)
    element = calculus.element
    members = cls.elements_within(R)
    value = 0.0 + 0.0j
    for g in members:
        M = element.coeffs.get(g)
        if M is not None:
            value += complex(np.trace(M))
    band, rate = op.band, cls.growth_rate
    # -inf at any convergent rate iff the ball holds the whole class; a
    # band of 0 leaves f(D) on the identity
    if band == 0 or cls.log_tail_sum(R, rate + 1.0) == -math.inf:
        tail, diagnostics = 0.0, {"exhausted": True}
    else:
        lo, hi = op.spectral_hull()

        def log_tail(s):
            return (math.log(2.0 * op.dim) + f.log_ellipse_sup(lo, hi, s)
                    - math.log(-math.expm1(-s))
                    + cls.log_tail_sum(R, s / band))

        log_bound, s = _golden_min(log_tail, band * rate,
                                   band * rate + _ELLIPSE_LOG_RHO_SPAN)
        tail = math.exp(log_bound) if log_bound < 709.0 else math.inf
        diagnostics = {"exhausted": False, "rho": math.exp(s),
                       "hull": [lo, hi], "class_rate": rate}
    if strict and not (tail <= tol):
        raise CertificateError(
            "class-trace-tail",
            f"tail bound {tail:.3e} exceeds tolerance {tol:.3e} at R={R}")
    return ClassTraceResult(value, tail, calculus.error, len(members),
                            diagnostics)


# ---------------------------------------------------------------------------
# shipped operator fixtures
# ---------------------------------------------------------------------------


def lattice_laplace_symbol() -> FourierSymbolOperator:
    """Scalar symbol 2 + cos(theta) on Z: spectrum [1, 3], gap 1."""
    group = FreeAbelianGroup(1)
    coeffs = {(0,): np.array([[2.0]]), (1,): np.array([[0.5]]),
              (-1,): np.array([[0.5]])}
    return FourierSymbolOperator(AlgebraElement(group, 1, coeffs))


def wilson_symbol(mass: float = 0.5) -> FourierSymbolOperator:
    """Chiral 2x2 symbol [[m, e^{i theta} - 1], [e^{-i theta} - 1, -m]] on Z;
    eigenvalues +-sqrt(m^2 + 2 - 2 cos theta), gap |m|."""
    group = FreeAbelianGroup(1)
    A0 = np.array([[mass, -1.0], [-1.0, -mass]], dtype=complex)
    A1 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    Am1 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    return FourierSymbolOperator(
        AlgebraElement(group, 2, {(0,): A0, (1,): A1, (-1,): Am1}))


def two_band_chern_symbol(mass: float = 1.0) -> FourierSymbolOperator:
    """Two-band symbol on Z^2 with a topologically twisted gap:

    ``H(t1, t2) = (mass - cos t1 - cos t2) sz + sin t1 sx + sin t2 sy``

    with eigenvalues ``+-sqrt((mass - cos t1 - cos t2)^2 + sin^2 t1 +
    sin^2 t2)``; for 0 < mass < 2 the gap is ``min(mass, 2 - mass)`` (1 at
    the default) and the Fermi projection carries a unit area pairing, so
    cocycle-weighted eta integrals on this model are genuinely nonzero.
    """
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    group = FreeAbelianGroup(2)
    coeffs = {
        (0, 0): mass * sz,
        (1, 0): -0.5 * sz - 0.5j * sx,
        (-1, 0): -0.5 * sz + 0.5j * sx,
        (0, 1): -0.5 * sz - 0.5j * sy,
        (0, -1): -0.5 * sz + 0.5j * sy,
    }
    return FourierSymbolOperator(AlgebraElement(group, 2, coeffs))


def anisotropic_symbol_3d() -> FourierSymbolOperator:
    """Scalar symmetry-broken symbol on Z^3:
    4 + cos t1 + 0.7 cos t2 + 0.5 cos t3 + 0.3 cos(t1 + t2);
    spectrum inside [1.5, 6.5]."""
    group = FreeAbelianGroup(3)
    half = {(1, 0, 0): 0.5, (0, 1, 0): 0.35, (0, 0, 1): 0.25,
            (1, 1, 0): 0.15}
    coeffs = {(0, 0, 0): np.array([[4.0]])}
    for g, c in half.items():
        coeffs[g] = np.array([[c]])
        coeffs[tuple(-x for x in g)] = np.array([[c]])
    return FourierSymbolOperator(AlgebraElement(group, 1, coeffs))


def free_group_model() -> FreeConvolutionOperator:
    """D = delta_a + delta_{a^-1} + delta_b + delta_{b^-1} + 4 delta_e on F_2;
    spectrum [4 - 2 sqrt(3), 4 + 2 sqrt(3)], gap about 0.536."""
    group = FreeGroup(2)
    coeffs = {group.identity: np.array([[4.0]])}
    for gen in group.generators():
        coeffs[gen] = np.array([[1.0]])
    return FreeConvolutionOperator(AlgebraElement(group, 1, coeffs))


def gapped_cover_model(seed: int) -> FiniteCoverOperator:
    """Random Hermitian cover model over a cyclic group of order <= 6,
    spectrally shifted into its widest interior gap.

    The shift centers the spectrum on the midpoint of the widest gap in
    the middle half of the eigenvalue ladder, so no eigenvalue lies
    within 0.1 of the origin and the delocalized eta is generically
    nonzero; seeds whose interior gaps are too narrow are deterministically
    re-drawn.  Total dimension stays at most 60.
    """
    rng = np.random.default_rng(seed)
    order = int(rng.integers(2, 7))
    fiber = int(rng.integers(2, 60 // order + 1))
    group = CyclicGroup(order)
    A0 = rng.normal(size=(fiber, fiber)) + 1j * rng.normal(size=(fiber, fiber))
    A0 = A0 + A0.conj().T
    A1 = rng.normal(size=(fiber, fiber)) + 1j * rng.normal(size=(fiber, fiber))
    if order == 2:
        A1 = A1 + A1.conj().T
        coeffs = {0: A0, 1: A1}
    else:
        coeffs = {0: A0, 1: A1, order - 1: A1.conj().T}
    op = FiniteCoverOperator(AlgebraElement(group, fiber, coeffs))
    lam, _ = op.eigensystem()
    n = len(lam)
    inner = range(n // 4, 3 * n // 4)
    k = max(inner, key=lambda i: lam[i + 1] - lam[i])
    if lam[k + 1] - lam[k] < 0.21:
        return gapped_cover_model(seed + 7919)
    coeffs[0] = coeffs[0] - 0.5 * (lam[k] + lam[k + 1]) * np.eye(fiber)
    op = FiniteCoverOperator(AlgebraElement(group, fiber, coeffs))
    assert float(np.abs(op.eigensystem()[0]).min()) > 0.1
    return op
