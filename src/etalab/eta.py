"""Delocalized eta invariants by certified quadrature of trace integrands.

The central object is the time integral

    eta = (2/sqrt(pi)) * int_0^inf  tr_<h>( D exp(-t^2 D^2) ) dt

for a gapped equivariant operator ``D`` and a nontrivial conjugacy class
``<h>``, together with its cocycle-weighted generalization

    eta_phi = (m!/(pi i)) * int_0^inf
              phi # tr( u'_t u_t^{-1} (x) ((u_t - 1)(x)(u_t^{-1} - 1))^{(x)m} ) dt

driven by the spectral-flow unitary ``u_t = -exp(i pi erf(t D))``.  Both go
through one driver, ``_certified_integral``: it cuts the tail at the first
point T of a half-integer ladder where a closed-form envelope built from the
gap certificate (and the cochain growth constants) drops below a tenth of
the tolerance, integrates [0, 1] and [1, T] adaptively, and records the
per-leg error budget next to the value.

The cocycle-weighted integrand pairs samples of f(D) on the uniform
calculus grid over Z^d, where the cochain acts by Fourier multipliers, and
certified calculi on a ball over F_r and finite covers.

The same cocycle pairing, integrated along the boundary loop of an
idempotent instead of the spectral flow, is ``tau_pair``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .cyclic import (CyclicCochain, Idempotent, certify_cyclic_cocycle,
                     moved_bound, pair_phi_tr)
from .errors import PreconditionError
from .group_algebra import AlgebraElement
from .groups import ConjugacyClass, GroupModel
from .operators import (
    EquivariantOperator,
    FiniteCoverOperator,
    FourierSymbolOperator,
    FreeConvolutionOperator,
    SchwartzFunction,
    calculus_ladder,
    class_trace,
    rounding_error,
)
from .quadpack import quad

TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)

# slot functions of the spectral flow u_t in the natural parametrization:
# dot = u' u^{-1}, then the leg u - 1; u is a unitary function of the
# self-adjoint D, so the other leg u^{-1} - 1 is (u - 1)^*
_DOT_TAG, _LEG_TAG = "udot_uinv", "ut_minus_1"


# ---------------------------------------------------------------------------
# gap thresholds
# ---------------------------------------------------------------------------


def threshold_sigma(rate: float, c_d: float) -> float:
    """Gap threshold ``2 * rate * c_d`` for one growth envelope (the
    displacement ratio tau is 1: the word metric is the displacement).

    Monotone increasing in the growth rate and in the propagation constant,
    and nonnegative whenever the inputs are.
    """
    if rate < 0 or c_d < 0:
        raise PreconditionError("growth rate and propagation constant must be >= 0")
    return 2.0 * rate * c_d


@dataclass
class GapThreshold:
    """Spectral-gap thresholds certifying convergence of the eta integrals.

    ``sigma_class`` guards the class trace (class growth rate only);
    ``sigma_cocycle`` additionally pays for a cocycle growth envelope
    (group rate + cochain rate). ``gap`` is the certified spectral gap the
    thresholds are compared against.
    """

    sigma_class: float
    sigma_cocycle: float | None
    gap: float
    constants: dict = field(default_factory=dict)

    @property
    def class_ok(self) -> bool:
        return self.gap > self.sigma_class

    @property
    def cocycle_ok(self) -> bool:
        if self.sigma_cocycle is None:
            raise PreconditionError("no cocycle threshold was computed")
        return self.gap > self.sigma_cocycle

    def to_json_dict(self) -> dict:
        return {
            "sigma_class": self.sigma_class,
            "sigma_cocycle": self.sigma_cocycle,
            "gap": self.gap,
            "constants": dict(self.constants),
        }


def gap_thresholds(op: EquivariantOperator, cls: ConjugacyClass,
                   phi: CyclicCochain | None = None, *,
                   gap: float | None = None) -> GapThreshold:
    """Thresholds from the exact growth rates and the operator's propagation.

    ``sigma_class = 2 K_class c_D`` with ``K_class`` the class's
    :attr:`~etalab.groups.ConjugacyClass.growth_rate`, and, when a cochain
    is given, ``sigma_cocycle = 2 (K_group + K_phi) c_D`` with ``K_phi``
    the exponential rate of its growth certificate (0 for sub-exponential
    kinds); both displacement ratios tau are 1 (word metric =
    displacement). On F_r with r >= 2 the class verdict of a nontrivial
    class cannot be true: ``sigma_class = log(2r - 1) c_D``, with
    ``c_D = band ||D||`` and band >= 1, exceeds every gap, which is at
    most ``||D||``.
    """
    group = op.element.group
    if cls.group != group:
        raise PreconditionError("class does not live on the operator's group")
    c_d = op.c_d
    class_rate, group_rate = cls.growth_rate, group.growth_rate
    sigma_class = threshold_sigma(class_rate, c_d)
    sigma_cocycle = None
    k_phi = 0.0
    if phi is not None:
        if phi.growth is None:
            raise PreconditionError(
                f"{phi.name} carries no growth certificate")
        k_phi = phi.growth.rate
        sigma_cocycle = threshold_sigma(group_rate + k_phi, c_d)
    measured = float(gap) if gap is not None else float(op.gap_certificate())
    return GapThreshold(
        sigma_class=sigma_class,
        sigma_cocycle=sigma_cocycle,
        gap=measured,
        constants={
            "class_rate": class_rate,
            "group_rate": group_rate,
            "cochain_rate": k_phi,
            "c_d": c_d,
            "tau_class": 1.0,
            "tau_group": 1.0,
        })


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class EtaReport:
    """A certified eta value with its full error budget.

    The integral is split at ``split_points = (0, 1, T)``: the two finite
    legs carry adaptive-quadrature error estimates (``small_t``, ``mid_t``)
    plus the integrated per-evaluation certificates (``calculus``, and for
    the class trace ``class_tail``), and everything beyond ``T`` is
    covered by the closed-form ``tail_bound`` whose ingredients are echoed
    in ``tail_constants``. ``samples`` holds every evaluated integrand point
    as ``(t, value, certified_abs_bound)``.
    """

    value: complex
    split_points: tuple
    interval_errors: dict
    tail_bound: float
    tail_constants: dict
    threshold: GapThreshold
    verdict: bool
    samples: list
    converged: bool
    diagnostics: dict = field(default_factory=dict)

    @property
    def error(self) -> float:
        return float(sum(self.interval_errors.values()) + self.tail_bound)

    def to_json_dict(self) -> dict:
        return {
            "value": {"re": float(self.value.real), "im": float(self.value.imag)},
            "error": self.error,
            "tail_bound": float(self.tail_bound),
            "threshold_verdict": bool(self.verdict),
        }


# ---------------------------------------------------------------------------
# quadrature helpers
# ---------------------------------------------------------------------------


def _complex_quad(func, a: float, b: float, *, epsabs: float,
                  epsrel: float = 1e-10) -> tuple[complex, float]:
    """Adaptive quadrature of a complex integrand; returns (value, error).

    The real and imaginary parts are integrated by two scalar passes, but
    ``func`` is evaluated once per distinct node within one call: the real
    pass fills a memo keyed by the exact float ``t`` and the imaginary pass
    reads it, so both returned parts come from the same samples. A
    ``func.pair(t1, t2)`` fills it a symmetric pair of the rule at a time.
    """
    if b <= a:
        return 0.0 + 0.0j, 0.0
    memo: dict = {}

    def sample(t: float) -> complex:
        if t not in memo:
            memo[t] = func(t)
        return memo[t]

    def part(take):  # the scalar integrand of one pass
        def g(t):
            return take(sample(t))
        if hasattr(func, "pair"):
            def pair(t1, t2):
                if t1 not in memo and t2 not in memo:
                    memo[t1], memo[t2] = func.pair(t1, t2)
                return take(sample(t1)), take(sample(t2))
            g.pair = pair
        return g

    re_val, re_err = quad(part(lambda v: v.real), a, b, epsabs=epsabs,
                          epsrel=epsrel, limit=200)
    im_val, im_err = quad(part(lambda v: v.imag), a, b, epsabs=epsabs,
                          epsrel=epsrel, limit=200)
    return complex(re_val, im_val), float(re_err + im_err)


def _tail_cut(tail_at, g0: float, target: float) -> float:
    """First T on the half-integer ladder from ``max(1, 1/(g0 sqrt 2))``
    with ``tail_at(T) <= target``; the ladder stops at 40."""
    t_cut = max(1.0, 1.0 / (g0 * math.sqrt(2.0)))
    while tail_at(t_cut) > target and t_cut < 40.0:
        t_cut += 0.5
    return t_cut


def _certified_integral(sample, tail_at, g0: float, *, tol: float,
                        quad_rel: float = 1e-10,
                        tail_frac: float = 0.1) -> dict:
    """``int_0^inf`` of a sampled integrand with its full error budget.

    ``sample(t)`` returns ``(value, {leg: certified error of the value})``
    (``sample.pair(t1, t2)``, if there is one, two of them), and
    ``tail_at(T)`` bounds ``int_T^inf |integrand|`` in closed form. The
    cut T comes from :func:`_tail_cut` at ``tol * tail_frac``; [0, 1] and
    [1, T] are integrated adaptively, and each named per-sample error is
    folded as its maximum over the samples times T. Returns the
    :class:`EtaReport` fields ``value``, ``split_points``,
    ``interval_errors``, ``tail_bound`` and ``converged``.
    """
    if not 0.0 < tail_frac < 1.0:
        raise PreconditionError(
            f"tail fraction must lie in (0, 1), got {tail_frac}")
    t_cut = _tail_cut(tail_at, g0, tol * tail_frac)
    worst: dict = {}

    def record(got: tuple) -> complex:
        val, errs = got
        for leg, err in errs.items():
            worst[leg] = max(worst.get(leg, 0.0), err)
        return val

    def integrand(t: float) -> complex:
        return record(sample(t))
    if hasattr(sample, "pair"):
        integrand.pair = lambda t1, t2: tuple(map(record, sample.pair(t1, t2)))

    small_val, small_err = _complex_quad(integrand, 0.0, 1.0,
                                         epsabs=tol * 0.3, epsrel=quad_rel)
    mid_val, mid_err = _complex_quad(integrand, 1.0, t_cut,
                                     epsabs=tol * 0.3, epsrel=quad_rel)
    interval_errors = {"small_t": small_err, "mid_t": mid_err}
    for leg, err in worst.items():
        interval_errors[leg] = err * t_cut
    tail = tail_at(t_cut)
    return {
        "value": small_val + mid_val,
        "split_points": (0.0, 1.0, t_cut),
        "interval_errors": interval_errors,
        "tail_bound": tail,
        "converged": bool(sum(interval_errors.values()) + tail <= tol),
    }


def _gapped_abs_sup(g0: float, norm: float, t: float) -> float:
    """sup of |x e^{-t^2 x^2}| over g0 <= |x| <= norm (gapped spectrum)."""
    if t <= 0:
        return norm
    x_star = 1.0 / (t * math.sqrt(2.0))
    if x_star <= g0:
        return g0 * math.exp(-(t * g0) ** 2)
    if x_star >= norm:
        return norm * math.exp(-(t * norm) ** 2)
    return x_star * math.exp(-0.5)


# ---------------------------------------------------------------------------
# the integrand engine
# ---------------------------------------------------------------------------


def _length_weights(growth, lengths: np.ndarray) -> np.ndarray:
    """Per-slot envelope weight w(l) with |phi| <= C * prod_i w(l_i)."""
    lengths = np.asarray(lengths, dtype=float)
    if growth.kind == "bounded":
        return np.ones_like(lengths)
    if growth.kind == "polynomial":
        return (1.0 + lengths) ** growth.k
    return np.exp(growth.k * lengths)


def _ball_weight_sum(group: GroupModel, radius: int, growth) -> float:
    """``sum_{g in B_radius} w(l(g))`` via exact shell counts, read off
    the word lengths of the ball in one pass."""
    shells = np.bincount([group.word_length(g) for g in group.ball(radius)],
                         minlength=radius + 1).tolist()
    total = 0.0
    for n, shell in enumerate(shells):
        if shell:
            total += shell * float(_length_weights(growth, np.array([n]))[0])
    return total


def _box_weight_sum(rank: int, n: int, growth) -> float:
    """``sum_{g in [-n/2, n/2)^rank} w(|g|_1)``: the l1 shell counts of the
    box are the rank-fold convolution of those of one axis."""
    axis = np.bincount(np.abs(np.arange(-(n // 2), n - n // 2)))
    shells = np.ones(1)
    for _ in range(rank):
        shells = np.convolve(shells, axis)
    return float(shells @ _length_weights(growth, np.arange(len(shells))))


def _weighted_slot_norm(a: AlgebraElement, growth) -> float:
    """``sum_g w(l(g)) |a_g|_1`` — the slot norm the envelope pairs with."""
    norms = a.trace_norms()
    if not norms:
        return 0.0
    group = a.group
    if group.has_array_codec:
        lengths = group.array_length(a.coords)
    else:
        lengths = np.array([group.word_length(g) for g in norms], dtype=float)
    vals = np.array(list(norms.values()), dtype=float)
    return float(np.sum(vals * _length_weights(growth, lengths)))


class _HigherIntegrand:
    """Memoized evaluator of the cocycle-weighted eta integrand.

    ``value(t)`` returns the prefactored integrand
    ``(m!/(pi i)) phi # tr(dot (x) (leg (x) leg_inv)^(x)m)`` at scale t in
    the natural parametrization with its certified per-evaluation error,
    as ``(value, {"calculus": error})``: the sample form of
    :func:`_certified_integral`. Only ``dot`` and ``leg`` are computed: the
    path value x is a unitary function of the self-adjoint D, and conj(f)(D)
    = f(D)^*, so ``leg_inv = x^{-1} - 1`` is the adjoint of ``leg``.

    With no ``radius`` (Z^d) the slots are samples on the calculus grid.
    Each node walks :func:`calculus_ladder` from one level below the one
    where the previous node converged, until two levels agree within
    ``per_eval_tol``, and reports the finer value, with that agreement plus
    the read-out's error (:meth:`_grid_pass`) as its error. :meth:`pair`
    serves two quadrature nodes with one pass per level for the levels
    their walks read first; the values are those of two single walks, bit
    for bit. On a ball (F_r,
    finite covers) each slot is a certified calculus, and the error is tracked
    through the multilinearity of the pairing (the inverse leg, a ``star``,
    keeps the leg's entrywise error and weighted norm). ``weight``, the W
    of :meth:`abs_bound` and :meth:`tail_at`, is dim^2 times the envelope
    weight summed over the ball, or over the grid box at the ladder's cap.
    """

    def __init__(self, op: EquivariantOperator, phi: CyclicCochain, m: int,
                 radius: int | None, tol: float):
        self.op = op
        self.phi = phi
        self.m = m
        self.radius = radius
        self.prefactor = math.factorial(m) / (math.pi * 1j)
        self.memo: dict = {}
        self.fold_scale = (math.factorial(m) / math.pi) * phi.growth.C
        self.norm = op.operator_norm_bound()
        if radius is None:
            self.ladder = calculus_ladder(24, op.rank)
            if len(self.ladder) < 2:
                raise PreconditionError(f"no calculus grid ladder on Z^{op.rank}")
            self.level, self.nodes, self.grid_memo = 1, {}, {}
            # A pair pass frees about 2.5 MB at n = 54, and glibc hands a
            # freed heap top back to the system once it exceeds twice the
            # largest mmapped block freed so far, so every pass faulted its
            # pages in again, at about the cost the pairs save. Freeing one
            # untouched 16 MB block raises that bar for the process.
            np.empty(16 << 20, np.uint8)
            self.per_eval_tol = tol * 1e-3
            weight = _box_weight_sum(op.rank, self.ladder[-1], phi.growth)
        else:
            self.per_eval_tol = max(1e-13, tol * 1e-7)
            weight = _ball_weight_sum(op.element.group, radius, phi.growth)
        self.weight = weight * op.element.dim ** 2

    def _slot(self, tag: str, t: float) -> tuple:
        """(element, certified error, weighted norm) of one calculus."""
        res = self.op.functional_calculus(SchwartzFunction(tag, t),
                                          self.radius, tol=self.per_eval_tol)
        return (res.element, res.error,
                _weighted_slot_norm(res.element, self.phi.growth))

    def _grid_pass(self, ts: list, n: int, readout: bool) -> list:
        """(integrand, read-out error) on the n^d grid at each node of
        ``ts``, from one pass whose slots carry an axis of t values. The
        error, None unless ``readout``, is the rounding floor plus the move
        of the pairing under the legs' evaluation error ``err``: 0 for the
        dot, ``err`` for a leg or its adjoint, and ``delta`` for a face
        product of the dot and at most 2m legs of norm at most 2."""
        def sample(tag):
            return self.op._apply_on_grid(SchwartzFunction(tag, np.array(ts)),
                                          n)

        slots, nodes = [sample(_DOT_TAG)], [{} for _ in ts]
        if self.m:
            leg = sample(_LEG_TAG)
            slots += [leg, np.conj(leg.swapaxes(0, 1))] * self.m
        err, k = SchwartzFunction(_LEG_TAG).evaluation_error, 2 * self.m
        moves = dict(zip(map(id, slots), [0.0] + [err] * k))
        for t, node in zip(ts, nodes if self.m and readout else ()):
            dot_sup = 2.0 * math.sqrt(math.pi) * _gapped_abs_sup(
                0.0, self.norm, t)
            node["delta"] = max(1.0, dot_sup) * ((2.0 + err) ** k - 2.0 ** k)
            node["moves"] = moves
        vals = self.prefactor * pair_phi_tr(self.phi, slots,
                                            _box_cache={"nodes": nodes})
        scale = abs(self.prefactor)
        return [(complex(val), rounding_error(
            scale * node["scale"], n ** self.op.rank) + scale * moved_bound(
            node) if readout else None) for val, node in zip(vals, nodes)]

    def value(self, t: float) -> tuple[complex, dict]:
        key = float(t)
        if key in self.memo:
            return self.memo[key]
        if self.radius is None:
            def level(n, readout):  # prefilled by pair(), or one node alone
                got = self.grid_memo.pop((key, n), None)
                if got is None or readout and got[1] is None:
                    got = self._grid_pass([key], n, readout)[0]
                return got
            i = max(self.level - 1, 0)
            coarse, _ = level(self.ladder[i], False)
            while True:
                i += 1
                val, read_err = level(self.ladder[i], True)
                fold = abs(val - coarse)
                if fold <= self.per_eval_tol or i == len(self.ladder) - 1:
                    break
                coarse = val
            self.level, n = i, self.ladder[i]
            self.nodes[n] = self.nodes.get(n, 0) + 1
            fold += read_err
        else:
            slots = [self._slot(_DOT_TAG, t)]
            if self.m:
                leg, err, norm = self._slot(_LEG_TAG, t)
                slots += [(leg, err, norm), (leg.star(), err, norm)] * self.m
            val = complex(self.prefactor * pair_phi_tr(
                self.phi, [w for w, _, _ in slots]))
            norms = [norm for _, _, norm in slots]
            fold = sum(err * self.weight
                       * math.prod(norms[:i] + norms[i + 1:])
                       for i, (_, err, _) in enumerate(slots))
            fold = float(fold * self.fold_scale)
        self.memo[key] = (val, {"calculus": fold})
        return self.memo[key]

    __call__ = value

    def pair(self, t1: float, t2: float) -> tuple:
        """``value`` at two nodes. On the grid, two new nodes first get one
        pass per level at the two levels where the walk of ``t1`` starts,
        which the walk of ``t2`` reads too unless ``t1`` climbs further."""
        ts = [float(t1), float(t2)]
        if self.radius is None and not self.memo.keys() & set(ts):
            i = max(self.level - 1, 0)
            for n, readout in zip(self.ladder[i:i + 2], (False, True)):
                for t, got in zip(ts, self._grid_pass(ts, n, readout)):
                    self.grid_memo[t, n] = got
        return self.value(t1), self.value(t2)

    def abs_bound(self, t: float, g0: float) -> float:
        """Closed-form certified bound on |integrand(t)| from the gap."""
        dot_sup = 2.0 * math.sqrt(math.pi) * _gapped_abs_sup(g0, self.norm, t)
        if t * g0 >= 1.0:
            leg_sup = math.sqrt(math.pi) * math.exp(-(t * g0) ** 2) / (t * g0)
        else:
            leg_sup = 2.0
        return (self.fold_scale * self.weight ** (2 * self.m + 1)
                * dot_sup * leg_sup ** (2 * self.m))

    def tail_at(self, t_cut: float, g0: float) -> float:
        """Closed-form bound on ``int_T^inf |integrand|``: the slot sups of :meth:`abs_bound` past the gap, with the Gaussian tail
        ``int_T^inf exp(-(2m+1) g0^2 t^2) dt`` in ``math.erfc``."""
        m = self.m
        a = (2 * m + 1) * g0 * g0
        dot = 2.0 * math.sqrt(math.pi) * g0
        legs = (math.sqrt(math.pi) / (t_cut * g0)) ** (2 * m)
        gauss = (math.sqrt(math.pi) / (2.0 * math.sqrt(a))
                 * math.erfc(math.sqrt(a) * t_cut))
        return (self.fold_scale * self.weight ** (2 * m + 1)
                * dot * legs * gauss)


def _positive_gap(op: EquivariantOperator) -> float:
    """The operator's gap certificate, refused unless > 0."""
    g0 = float(op.gap_certificate())
    if g0 <= 0:
        raise PreconditionError(
            f"gap certificate {g0} is not positive; eta needs an invertible "
            "operator")
    return g0


def _auto_radius(op: EquivariantOperator, min_radius: int) -> int:
    group = op.element.group
    band = max(op.element.propagation_radius(), 1)
    if isinstance(op, FiniteCoverOperator):
        return max(group.word_length(g) for g in op.elements)
    if isinstance(op, FreeConvolutionOperator):
        return max(min(8, min_radius + 2), min_radius)
    base = max(2 * band + 4, 8, min_radius)
    return base


def _build_integrand(op: EquivariantOperator, phi: CyclicCochain, m: int,
                     tol: float, radius: int | None) -> _HigherIntegrand:
    """The integrand engine: on the calculus grid for a Z^d symbol, which
    takes no radius, else on the given or the automatic radius."""
    if isinstance(op, FourierSymbolOperator):
        if radius is not None:
            raise PreconditionError(
                f"truncation radius {radius} does not apply: the Z^d higher "
                "eta pairs on the calculus grid (the grid route)")
    elif radius is None:
        radius = _auto_radius(op, 0 if phi.support_class is None
                              else phi.support_class.minimal_length())
    return _HigherIntegrand(op, phi, m, radius, tol)


# ---------------------------------------------------------------------------
# eta of a conjugacy class
# ---------------------------------------------------------------------------


def eta_class(op: EquivariantOperator, cls: ConjugacyClass, *,
              tol: float = 1e-8, radius: int | None = None,
              quad_rel: float = 1e-10, tail_frac: float = 0.1) -> EtaReport:
    """The delocalized eta of a gapped operator at a nontrivial class.

    ``(2/sqrt(pi)) int_0^inf tr_<h>(D exp(-t^2 D^2)) dt`` with the class
    trace evaluated through the certified functional calculus at every
    quadrature node. Preconditions: the class is nontrivial and the
    operator's own gap certificate is positive; that certificate is the gap
    of every bound below. The tail beyond the cut T is bounded by
    ``n_class * dim * erfc(gap * T)``.  The class members past the radius,
    which the class trace drops, enter as the ``class_tail`` leg, apart
    from ``calculus``: a Chebyshev bound on the Bernstein ellipses of the
    spectral hull (:func:`~etalab.operators.class_trace`), exactly 0 when
    the ball holds the whole class.  A calculus or tail that misses its
    target raises nothing: it widens ``error``, and ``converged`` is False
    when the legs and the tail exceed ``tol``.
    """
    group = op.element.group
    if cls.group != group:
        raise PreconditionError("class does not live on the operator's group")
    if cls.is_trivial:
        raise PreconditionError(
            "delocalized eta needs a nontrivial conjugacy class "
            "(the trivial class pairs with the local index, not computed here)")
    g0 = _positive_gap(op)
    r_used = radius if radius is not None else _auto_radius(
        op, cls.minimal_length())
    members = cls.elements_within(r_used)
    if not members:
        raise PreconditionError(
            f"no class members within truncation radius {r_used}")
    n_cls = len(members)
    fdim = op.element.dim
    norm = op.operator_norm_bound()
    per_eval_tol = max(1e-13, tol * 1e-3)
    samples: dict = {}

    def sample(t: float) -> tuple[complex, dict]:
        res = class_trace(op, SchwartzFunction("xgauss", t), cls, r_used,
                          tol=per_eval_tol)
        val = TWO_OVER_SQRT_PI * complex(res.value)
        samples[float(t)] = (val, TWO_OVER_SQRT_PI * n_cls * fdim
                             * _gapped_abs_sup(g0, norm, t))
        return val, {"calculus": TWO_OVER_SQRT_PI * res.calculus_error,
                     "class_tail": TWO_OVER_SQRT_PI * res.tail_bound}

    def tail_at(t_cut: float) -> float:
        return n_cls * fdim * math.erfc(g0 * t_cut)

    parts = _certified_integral(sample, tail_at, g0, tol=tol,
                                quad_rel=quad_rel, tail_frac=tail_frac)
    thresholds = gap_thresholds(op, cls, None, gap=g0)
    return EtaReport(
        **parts,
        tail_constants={
            "gap": g0,
            "class_members": n_cls,
            "fiber_dim": fdim,
            "T": parts["split_points"][-1],
            "formula": "n_class * dim * erfc(gap * T)",
        },
        threshold=thresholds,
        verdict=thresholds.class_ok,
        samples=sorted((t, v, b) for t, (v, b) in samples.items()),
        diagnostics={
            "radius": r_used,
            "evaluations": len(samples),
            "per_eval_tol": per_eval_tol,
        })


# ---------------------------------------------------------------------------
# higher eta
# ---------------------------------------------------------------------------


def _require_even_cocycle(phi: CyclicCochain) -> int:
    """m for a cocycle of even degree 2m with a growth certificate."""
    if phi.degree % 2 != 0:
        raise PreconditionError(
            f"{phi.name} has odd degree {phi.degree}: odd cocycles pair with "
            "idempotent paths (the even K-theory pairing), which this tool "
            "does not compute; eta takes even-degree cocycles")
    if phi.growth is None:
        raise PreconditionError(f"{phi.name} carries no growth certificate")
    return phi.degree // 2


def eta_higher(op: EquivariantOperator, phi: CyclicCochain, *,
               tol: float = 1e-8, radius: int | None = None, seed: int = 0,
               quad_rel: float = 1e-10, tail_frac: float = 0.1) -> EtaReport:
    """The cocycle-weighted eta driven by the spectral-flow unitaries.

    ``(m!/(pi i)) int_0^inf phi#tr(u'_t u_t^{-1} (x) ((u_t-1)(x)(u_t^{-1}-1))^(x)m) dt``
    for an even-degree cocycle with a growth certificate. Degree 0 with a
    class trace reproduces :func:`eta_class` by an independent route. Over
    Z^d the integrand is paired on the calculus grid, which takes no
    ``radius``.  The gap of the tail bound is the operator's own
    certificate, refused unless positive; a slot calculus that misses its
    target raises nothing and widens the ``calculus`` leg instead.
    """
    group = op.element.group
    if phi.group != group:
        raise PreconditionError("cochain does not live on the operator's group")
    m = _require_even_cocycle(phi)
    certify_cyclic_cocycle(phi, radius=2, samples=200, seed=seed, tol=1e-8)
    g0 = _positive_gap(op)
    engine = _build_integrand(op, phi, m, tol, radius)
    parts = _certified_integral(engine,
                                lambda t_cut: engine.tail_at(t_cut, g0), g0,
                                tol=tol, quad_rel=quad_rel,
                                tail_frac=tail_frac)
    cls = phi.support_class if phi.support_class is not None \
        else ConjugacyClass(group, group.identity)
    thresholds = gap_thresholds(op, cls, phi, gap=g0)
    grid = engine.radius is None
    return EtaReport(
        **parts,
        tail_constants={
            "gap": g0,
            "degree": phi.degree,
            "box_weight" if grid else "ball_weight": engine.weight,
            "envelope_C": phi.growth.C,
            "T": parts["split_points"][-1],
            "formula": "fold_scale * W^(2m+1) * dot_sup * leg_sup^(2m) "
                       "* gaussian_tail" + (", W = box_weight" * grid),
        },
        threshold=thresholds,
        verdict=thresholds.cocycle_ok,
        samples=sorted((t, v, engine.abs_bound(t, g0))
                       for t, (v, e) in engine.memo.items()),
        diagnostics={
            "evaluations": len(engine.memo),
            "per_eval_tol": engine.per_eval_tol,
            **({"grid_nodes": dict(sorted(engine.nodes.items()))} if grid
               else {"radius": engine.radius}),
        })


# ---------------------------------------------------------------------------
# pairing with the idempotent loop
# ---------------------------------------------------------------------------


def loop_coefficient(t: float) -> complex:
    """c(t) with  1 + c(t) p  =  exp(2 pi i (1-t) p);  c(1) = 0 exactly."""
    return cmath.exp(2j * math.pi * (1.0 - t)) - 1.0


def tau_pair(phi: CyclicCochain, p: Idempotent, *,
             tol: float = 1e-8) -> complex:
    """Pair an even cocycle with the boundary loop ``1 + c(t) p`` of p:

    ``tau_phi = (m!/(pi i)) int_0^1 phi#tr(x' x^{-1} (x) ((x-1)(x)(x^{-1}-1))^(x)m) dt``

    along the loop, which closes at the unit at t = 1 and is constant
    beyond. Every quadrature node pairs its own slots ``c(t) p`` and
    ``conj(c(t)) p`` by one :func:`pair_phi_tr` call; see
    :func:`_loop_integrand` for what the nodes of a pair share.
    """
    m = _require_even_cocycle(phi)
    if phi.group != p.group:
        raise PreconditionError("cochain and loop live on different groups")
    val, _ = _complex_quad(_loop_integrand(phi, p, m), 0.0, 1.0,
                           epsabs=tol / 4.0)
    return val


def _loop_integrand(phi: CyclicCochain, p: Idempotent, m: int):
    """The integrand of :func:`tau_pair`, with a ``pair`` hook. Since
    ``c(1 - t) = conj c(t)``, nodes ``t1 + t2 == 1`` pair the same two slot
    objects in swapped order, so their transforms are made once, through
    one box cache; other pairs are two single nodes. The cache keeps the
    transforms of the constant slot ``-2 pi i p`` for the whole integral
    and drops every other entry after each node or pair."""
    pe = p.element
    prefactor = math.factorial(m) / (math.pi * 1j)
    dot = pe * (-2j * math.pi)
    cache: dict = {}

    def pairings(*slot_lists) -> list:
        vals = [prefactor * pair_phi_tr(phi, ws, _box_cache=cache)
                for ws in slot_lists]
        for key in [k for k, (w, _) in cache.items() if w is not dot]:
            del cache[key]
        return vals

    def integrand(t: float) -> complex:
        c = loop_coefficient(t)
        return pairings([dot] + [pe * c, pe * c.conjugate()] * m)[0]

    def pair(t1: float, t2: float) -> tuple:
        if t1 + t2 != 1.0:
            return integrand(t1), integrand(t2)
        c = loop_coefficient(t1)
        a, b = pe * c, pe * c.conjugate()
        return tuple(pairings([dot] + [a, b] * m, [dot] + [b, a] * m))

    integrand.pair = pair
    return integrand
