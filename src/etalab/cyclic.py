"""Cyclic cochains on group algebras and their trace pairings.

A cochain of degree ``n`` is a multilinear functional on ``(n+1)``-tuples of
group elements, cyclic up to the sign ``(-1)^n``, optionally supported on
tuples whose product lies in a fixed conjugacy class (delocalized support),
and carrying a growth certificate. The module provides:

* the coboundary ``b`` (alternating face sum with the wrap term) and the
  degree-raising periodicity operator ``S = -1/((n+2)(n+1)) sum_{i<j} b_j b_i``
  built from the signed face maps;
* the trace pairing ``phi # tr`` against tuples of group-algebra elements,
  with four interchangeable evaluation routes: a literal support-tuple sum,
  a structural reduction of faces to algebra products of adjacent slots, an
  FFT convolution route for separable cochains over Z^d, and, for those
  cochains against slots sampled on a calculus grid, the pointwise product
  of the slots with each factor as a Fourier multiplier (``pair_grid``);
* the Chern pairing with idempotents, ``(2m)!/m! * phi#tr(p, ..., p)``;
* sampled cyclicity/cocycle certification and growth certification.

Face-map sign convention: the faces composing both ``b`` and ``S`` carry the
alternating signs ``(-1)^i`` (the wrap face, index ``n+1``, therefore carries
``(-1)^{n+1}``). With this reading ``b`` is the usual cyclic coboundary and
``S`` satisfies the idempotent-pairing identity
``(S phi)#tr(p^{x(2m+3)}) = 1/(2(2m+1)) phi#tr(p^{x(2m+1)})``, which the test
suite verifies numerically.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import add, mul

import numpy as np

from .errors import (
    CertificateError,
    PreconditionError,
    RepresentationError,
    ResourceBudgetError,
)
from .group_algebra import AlgebraElement, _dense_block_box, convolve
from .groups import ConjugacyClass, FreeAbelianGroup, GroupModel

DEFAULT_TUPLE_BUDGET = 2_000_000


# ---------------------------------------------------------------------------
# growth certificates
# ---------------------------------------------------------------------------


@dataclass
class CochainGrowth:
    """Declared envelope for |phi| in terms of the argument word lengths.

    kind ``bounded``:      |phi| <= C
    kind ``polynomial``:   |phi| <= C * prod_i (1 + l(g_i))^k
    kind ``exponential``:  |phi| <= C * exp(K * sum_i l(g_i))   (K stored in k)
    """

    kind: str
    C: float
    k: float = 0.0

    def __post_init__(self):
        if self.kind not in ("bounded", "polynomial", "exponential"):
            raise RepresentationError(f"unknown growth kind {self.kind!r}")

    def envelope_rows(self, lengths: np.ndarray) -> np.ndarray:
        """Vectorized envelope over an (N, arity) array of word lengths."""
        lengths = np.asarray(lengths, dtype=float)
        if self.kind == "bounded":
            return np.full(lengths.shape[0], self.C)
        if self.kind == "polynomial":
            return self.C * np.prod((1.0 + lengths) ** self.k, axis=1)
        return self.C * np.exp(self.k * lengths.sum(axis=1))

    @property
    def rate(self) -> float:
        """Exponential rate K (0 for sub-exponential kinds)."""
        return self.k if self.kind == "exponential" else 0.0

    def scaled(self, factor: float) -> "CochainGrowth":
        return CochainGrowth(self.kind, self.C * factor, self.k)

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "C": self.C, "k": self.k}


# ---------------------------------------------------------------------------
# cochains
# ---------------------------------------------------------------------------


class CyclicCochain:
    """A lazy cochain: an evaluator plus certificates and metadata.

    Parameters
    ----------
    group, degree, evaluator:
        ``evaluator`` maps a ``(degree+1)``-tuple of group elements to a
        complex number. It must be pure.
    support_class:
        Optional delocalized support: the cochain vanishes on tuples whose
        product lies outside this conjugacy class.
    growth:
        Optional :class:`CochainGrowth` envelope certificate.
    batch_evaluator:
        Optional vectorized evaluator over integer-array-encoded tuples
        (one ``(N, width)`` array per slot); used by samplers and pairings.
    pair_reduction:
        Optional structural rule: a function mapping a slot list ``ws`` to a
        list of ``(coefficient, base_cochain, new_ws)`` triples whose pairing
        values sum to ``phi # tr(ws)``. Set by :func:`_face_sum` for
        :func:`coboundary` and :func:`periodicity`.
    """

    def __init__(self, group: GroupModel, degree: int, evaluator, *,
                 support_class: ConjugacyClass | None = None,
                 growth: CochainGrowth | None = None,
                 name: str = "",
                 batch_evaluator=None,
                 pair_reduction=None):
        if degree < 0:
            raise RepresentationError("degree must be >= 0")
        self.group = group
        self.degree = int(degree)
        self.evaluator = evaluator
        self.support_class = support_class
        self.growth = growth
        self.name = name or f"cochain(deg={degree})"
        self.batch_evaluator = batch_evaluator
        self.pair_reduction = pair_reduction
        self.certificate = None  # set by certify_cyclic_cocycle
        self.cocycle_checks: dict = {}  # max_cocycle_violation per sample

    @property
    def arity(self) -> int:
        return self.degree + 1

    def __call__(self, args) -> complex:
        args = tuple(args)
        if len(args) != self.arity:
            raise PreconditionError(
                f"{self.name}: expected {self.arity} arguments, got {len(args)}")
        return complex(self.evaluator(args))

    def batch(self, arg_arrays) -> np.ndarray:
        """Vectorized evaluation over integer-encoded argument arrays."""
        if self.batch_evaluator is not None:
            return np.asarray(self.batch_evaluator(arg_arrays), dtype=complex)
        group = self.group
        if not group.has_array_codec:
            raise PreconditionError(
                f"{self.name}: no batch route for {group!r}")
        n_rows = len(arg_arrays[0])
        out = np.empty(n_rows, dtype=complex)
        for r in range(n_rows):
            out[r] = self.evaluator(tuple(group.array_decode_row(a[r])
                                          for a in arg_arrays))
        return out

    def __repr__(self):
        return f"CyclicCochain({self.name!r}, degree={self.degree})"


# ---------------------------------------------------------------------------
# face maps, coboundary, periodicity
# ---------------------------------------------------------------------------


def _slot_product(x, y):
    """Pointwise product of grid slots, convolution of algebra elements."""
    if isinstance(x, np.ndarray):
        return np.einsum("ik...,kj...->ij...", x, y)
    return convolve(x, y)


def _merge(seq, i: int, mul) -> list:
    """Unsigned face i: merge entries i, i+1 by ``mul`` for interior i; the
    last face multiplies the final entry into the first (wrap). ``mul`` is
    the group product, its array encoding, or the slot product (the pairing
    of a face is the pairing of its base against the merged slots)."""
    seq = list(seq)
    if i < len(seq) - 1:
        return seq[:i] + [mul(seq[i], seq[i + 1])] + seq[i + 2:]
    return [mul(seq[-1], seq[0])] + seq[1:-1]


def _face_sum(phi: CyclicCochain, faces: list, scale: float,
              name: str) -> CyclicCochain:
    """The cochain ``scale * sum_k s_k (phi o face_k)`` for ``faces`` a list
    of ``(s_k, path_k)`` pairs, a path being the face indices applied in
    order, with a tuple evaluator, a batch one over array codecs and a
    pairing reduction of coefficients ``scale * s_k``. The reduction
    memoizes slot products by operand ids, as slot lists repeat entries (the
    leg pattern); the memo keeps every product alive, so ids stay stable."""
    group = phi.group

    def apply(seq, path, mul):
        return reduce(lambda q, i: _merge(q, i, mul), path, seq)

    def ev(args):
        total = 0.0
        for s, path in faces:
            total += s * phi.evaluator(tuple(apply(args, path, group.multiply)))
        return scale * total

    batch = None
    if group.has_array_codec:
        def batch(arrays):
            total = np.zeros(len(arrays[0]), dtype=complex)
            for s, path in faces:
                total += s * phi.batch(apply(arrays, path, group.array_add))
            return scale * total

    def reduction(ws):
        memo: dict = {}

        def prod(x, y):
            key = (id(x), id(y))
            if key not in memo:
                memo[key] = _slot_product(x, y)
            return memo[key]

        return [(scale * s, phi, apply(ws, path, prod)) for s, path in faces]

    return CyclicCochain(
        group, phi.degree + len(faces[0][1]), ev,
        support_class=phi.support_class,
        growth=phi.growth and phi.growth.scaled(len(faces) * abs(scale)),
        name=name,
        batch_evaluator=batch,
        pair_reduction=reduction)


def coboundary(phi: CyclicCochain) -> CyclicCochain:
    """The cyclic coboundary b: alternating sum of the signed faces,
    including the wrap face with sign ``(-1)^{n+1}``."""
    faces = [((-1) ** i, (i,)) for i in range(phi.degree + 2)]
    return _face_sum(phi, faces, 1, f"b({phi.name})")


def periodicity(phi: CyclicCochain, *, check: bool = True, seed: int = 0,
                tol: float = 1e-9) -> CyclicCochain:
    """Connes' degree-raising operator
    ``S = -1/((n+2)(n+1)) sum_{0<=i<j} b_j b_i`` with signed faces.

    Requires the input to pass a sampled cocycle check (override with
    ``check=False`` for diagnostics only).
    """
    if check:
        violation, witness = max_cocycle_violation(phi, radius=2, samples=200,
                                                   seed=seed)
        if violation > tol:
            raise PreconditionError(
                f"{phi.name} is not a cocycle: |b phi| = {violation:.3e} "
                f"at {witness}")
    n = phi.degree
    faces = [((-1) ** (i + j), (j, i))
             for i in range(n + 2) for j in range(n + 3) if i < j]
    return _face_sum(phi, faces, -1.0 / ((n + 2) * (n + 1)), f"S({phi.name})")


# ---------------------------------------------------------------------------
# sampled certification
# ---------------------------------------------------------------------------


class _Sample:
    """A deterministic tuple sample, kept as rows of indices into the ball
    B_radius: exhaustive over B_radius^arity when small enough, otherwise
    all B_1 tuples (a prefix of the ball, which is sorted by length) plus
    seeded draws from B_radius. Over a group with an integer-array codec
    each slot is a gather from the encoded ball; otherwise the tuples are
    evaluated one by one."""

    def __init__(self, group, arity, radius, samples, seed,
                 exhaustive_budget=300_000):
        self.group = group
        self.ball = ball = group.ball(radius)
        self.exhaustive = len(ball) ** arity <= exhaustive_budget
        if self.exhaustive:
            self.rows = np.indices((len(ball),) * arity).reshape(arity, -1).T
        else:
            small = len(group.ball(1))
            rows = [np.indices((small,) * arity).reshape(arity, -1).T] \
                if small ** arity <= exhaustive_budget else []
            rng = np.random.default_rng(seed)
            rows.append(rng.integers(0, len(ball), size=(samples, arity)))
            self.rows = np.concatenate(rows)
        if group.has_array_codec:
            enc = group.array_encode(ball)
            self.slots = [enc[col] for col in self.rows.T]

    @cached_property
    def tuples(self) -> list:
        return [tuple(self.ball[i] for i in row) for row in self.rows.tolist()]

    def values(self, phi: CyclicCochain, rotate: int = 0) -> np.ndarray:
        """``phi`` on every tuple, its slots rotated left by ``rotate``."""
        if self.group.has_array_codec:
            return phi.batch(self.slots[rotate:] + self.slots[:rotate])
        return np.array([phi(t[rotate:] + t[:rotate]) for t in self.tuples],
                        dtype=complex)

    def lengths(self) -> np.ndarray:
        """The word length of every slot of every tuple, one row per tuple."""
        if self.group.has_array_codec:
            return np.stack([self.group.array_length(a) for a in self.slots],
                            axis=1)
        return np.array([[self.group.word_length(g) for g in t]
                         for t in self.tuples], dtype=float)

    def witness(self, k: int) -> tuple:
        return tuple(self.ball[i] for i in self.rows[k])


def max_cyclicity_violation(phi: CyclicCochain, radius: int = 2,
                            samples: int = 200, seed: int = 0):
    """Largest |phi(g1..gn,g0) - (-1)^n phi(g0..gn)| over sampled tuples,
    normalized by the largest sampled |phi|; returns (violation, witness)."""
    sample = _Sample(phi.group, phi.arity, radius, samples, seed)
    sign = (-1) ** phi.degree
    vals = sample.values(phi)
    rot_vals = sample.values(phi, rotate=1)
    scale = max(float(np.abs(vals).max(initial=0.0)), 1e-30)
    diffs = np.abs(rot_vals - sign * vals) / scale
    k = int(np.argmax(diffs))
    return float(diffs[k]), sample.witness(k)


def max_cocycle_violation(phi: CyclicCochain, radius: int = 2,
                          samples: int = 200, seed: int = 0):
    """Largest |(b phi)(tuple)| over sampled tuples, normalized by the
    largest sampled |phi| on its own tuples; returns (violation, witness).
    Kept on ``phi`` per sample; an exhaustive one takes no samples or seed."""
    sample = _Sample(phi.group, phi.arity + 1, radius, samples, seed)
    key = (radius,) if sample.exhaustive else (radius, samples, seed)
    if key not in phi.cocycle_checks:
        own = _Sample(phi.group, phi.arity, radius, samples, seed)
        scale = max(float(np.abs(own.values(phi)).max(initial=0.0)), 1e-30)
        vals = np.abs(sample.values(coboundary(phi))) / scale
        k = int(np.argmax(vals))
        phi.cocycle_checks[key] = (float(vals[k]), sample.witness(k))
    return phi.cocycle_checks[key]


def certify_cyclic_cocycle(phi: CyclicCochain, radius: int = 2,
                           samples: int = 200, seed: int = 0,
                           tol: float = 1e-9) -> dict:
    """Sampled cyclicity + cocycle certification; raises
    :class:`CertificateError` with a witness tuple on failure. A pass on
    ``phi`` covers a call at its radius and seed, fewer samples (a subset of
    its tuples) and no tighter tol."""
    done = phi.certificate
    if done and (done["radius"], done["seed"]) == (radius, seed) \
            and done["samples"] >= samples and done["tol"] <= tol:
        return done
    cyc, wit_c = max_cyclicity_violation(phi, radius, samples, seed)
    if cyc > tol:
        raise CertificateError("cyclicity", f"violation {cyc:.3e} on {phi.name}",
                               witness=wit_c)
    coc, wit_b = max_cocycle_violation(phi, radius, samples, seed)
    if coc > tol:
        raise CertificateError("cocycle", f"|b phi| = {coc:.3e} on {phi.name}",
                               witness=wit_b)
    phi.certificate = dict(cyclicity_violation=cyc, cocycle_violation=coc,
                           radius=radius, samples=samples, seed=seed, tol=tol)
    return phi.certificate


def growth_certify(phi: CyclicCochain, radius: int, *, samples: int = 20_000,
                   seed: int = 0, exhaustive_budget: int = 200_000) -> dict:
    """Verify the declared growth envelope ``|phi| <= envelope`` over
    B_radius^(degree+1) tuples (exhaustive when feasible, sampled beyond).

    Raises :class:`CertificateError` with a witness tuple on violation.
    """
    if phi.growth is None:
        raise PreconditionError(f"{phi.name} carries no growth certificate")
    group = phi.group
    sample = _Sample(group, phi.arity, radius, samples, seed,
                     exhaustive_budget)
    vals = np.abs(sample.values(phi))
    lengths = sample.lengths()
    envs = phi.growth.envelope_rows(lengths)
    excess = vals - envs * (1.0 + 1e-9) - 1e-30
    if np.any(excess > 0):
        k = int(np.argmax(excess))
        raise CertificateError(
            "growth", f"|phi|={vals[k]:.3e} exceeds envelope {envs[k]:.3e} "
            f"on {phi.name}", witness=sample.witness(k))
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(envs > 0, vals / np.maximum(envs, 1e-300), 0.0)
    worst_ratio = float(ratios.max(initial=0.0))
    return {"kind": phi.growth.kind, "C": phi.growth.C, "k": phi.growth.k,
            "radius": radius, "tuples_checked": len(sample.rows),
            "exhaustive": sample.exhaustive, "max_ratio": worst_ratio,
            "seed": seed}


# ---------------------------------------------------------------------------
# the trace pairing
# ---------------------------------------------------------------------------


def pair_phi_tr(phi: CyclicCochain, ws, *,
                _box_cache: dict | None = None) -> complex:
    """The trace pairing
    ``phi # tr(w_0, ..., w_n) = sum tr(w_0^{g_0} ... w_n^{g_n}) phi(g_0..g_n)``
    over support tuples.

    Cochains built by :func:`coboundary`/:func:`periodicity` are evaluated
    through their face reduction (faces become products of adjacent slots);
    separable cochains over Z^d contract by FFT convolution; everything else
    is a support-tuple sum within ``DEFAULT_TUPLE_BUDGET`` tuples (the naive
    oracle of the other routes). Slots on unitized paths are passed as their
    algebra parts (the adjoined unit contributes nothing).
    Over Z^d the slots may instead be samples on one uniform grid, entry
    planes first (``(d, d, n, ..., n)``); they pair through reductions down
    to :meth:`SeparableClassCochain.pair_grid`. A ``_box_cache`` passed by
    the caller shares slot boxes and transforms with later pairings of the
    same slot objects; its entries hold their slots (see
    :meth:`SeparableClassCochain.pair_separable`).
    """
    ws = list(ws)
    if len(ws) != phi.arity:
        raise PreconditionError(
            f"{phi.name} pairs with {phi.arity} slots, got {len(ws)}")
    grid = all(isinstance(w, np.ndarray) for w in ws)
    dims = {w.shape[:2] for w in ws} if grid else set()
    for w in [] if grid else ws:
        if not isinstance(w, AlgebraElement):
            raise PreconditionError(f"cannot pair against {type(w).__name__}")
        if w.group != phi.group:
            raise PreconditionError("slot group differs from cochain group")
        dims.add(w.dim)
    if len(dims) != 1:
        raise PreconditionError(f"inconsistent slot dimensions {sorted(dims)}")

    if phi.pair_reduction is not None:
        cache = {} if _box_cache is None else _box_cache
        total = 0.0 + 0.0j
        for coef, base, sub_ws in phi.pair_reduction(ws):
            total += coef * pair_phi_tr(base, sub_ws, _box_cache=cache)
        return total

    if isinstance(phi, SeparableClassCochain):
        pair = phi.pair_grid if grid else phi.pair_separable
        return pair(ws, box_cache=_box_cache)
    if grid:
        raise PreconditionError(f"{phi.name} does not reduce to a separable "
                                "class cochain, as the Z^d grid route needs")
    return _pair_tuple_sum(phi, ws, DEFAULT_TUPLE_BUDGET)


def _pair_tuple_sum(phi: CyclicCochain, ws: list, tuple_budget: int) -> complex:
    """The literal pairing: a sum over support tuples, at most
    ``tuple_budget`` of them. Over an abelian group a class is one element
    ``h``, so slots 1.. are enumerated and slot 0 is solved from them;
    otherwise every slot is enumerated and the tuples are filtered by the
    class."""
    group = phi.group
    supports = [w.support for w in ws]
    if any(not s for s in supports):
        return 0.0 + 0.0j
    cls = phi.support_class
    solve = cls is not None and group.is_abelian
    free = supports[1:] if solve else supports
    count = int(np.prod([len(s) for s in free], dtype=float))
    if count > tuple_budget:
        raise ResourceBudgetError(
            f"pairing needs {count} tuples; budget {tuple_budget}")
    total = 0.0 + 0.0j
    for args in itertools.product(*free):
        if cls is not None:
            acc = reduce(group.multiply, args, group.identity)
            if solve:
                g0 = group.multiply(cls.representative, group.inverse(acc))
                if g0 not in ws[0].coeffs:
                    continue
                args = (g0,) + args
            elif not cls.contains(acc):
                continue
        val = phi.evaluator(args)
        if val == 0.0:
            continue
        blocks = [w.coeffs[g] for w, g in zip(ws, args)]
        if ws[0].dim == 1:
            # Python complex scalars: NumPy's complex multiply can differ
            # from them in the last bit
            total += reduce(mul, (complex(b[0, 0]) for b in blocks)) * val
        else:
            total += complex(np.trace(reduce(np.matmul, blocks))) * val
    return total


# ---------------------------------------------------------------------------
# separable delocalized cochains over Z^d
# ---------------------------------------------------------------------------


class SeparableClassCochain(CyclicCochain):
    """A delocalized cochain over Z^d of the form

    ``phi(g_0..g_n) = [g_0 + ... + g_n = h] * sum_r c_r prod_k f_{r,k}(g_k)``

    where each factor ``f_{r,k}`` is a vectorized function of the lattice
    coordinates (``None`` meaning the constant 1). The trace pairing of such
    a cochain is a sum of FFT convolutions read off at ``h``.
    """

    def __init__(self, group: FreeAbelianGroup, degree: int, class_element,
                 terms, **kwargs):
        if not isinstance(group, FreeAbelianGroup):
            raise PreconditionError(
                "SeparableClassCochain requires a free abelian group")
        h = group.validate(class_element)
        self.class_h = h
        self._grid: dict = {}
        self.terms = [(complex(c), list(fs)) for c, fs in terms]
        for _, fs in self.terms:
            if len(fs) != degree + 1:
                raise RepresentationError(
                    f"term has {len(fs)} factors, expected {degree + 1}")
        h_row = np.asarray(h, dtype=np.int64)

        def batch(arrays):
            arrays = [np.asarray(a, dtype=np.int64) for a in arrays]
            sigma = arrays[0].copy()
            for a in arrays[1:]:
                sigma = sigma + a
            ind = np.all(sigma == h_row[None, :], axis=1)
            out = np.zeros(len(arrays[0]), dtype=complex)
            for c, fs in self.terms:
                term = np.full(len(arrays[0]), c, dtype=complex)
                for a, fn in zip(arrays, fs):
                    if fn is not None:
                        term = term * fn(tuple(a[:, k] for k in range(a.shape[1])))
                out += term
            out[~ind] = 0.0
            return out

        def ev(args):
            arrays = [np.asarray(g, dtype=np.int64).reshape(1, -1) for g in args]
            return complex(batch(arrays)[0])

        kwargs.setdefault("support_class", ConjugacyClass(group, h))
        super().__init__(group, degree, ev, batch_evaluator=batch, **kwargs)

    def pair_separable(self, ws, box_cache: dict | None = None) -> complex:
        """FFT route for slots of any block dimension. The pairing reads one
        entry of the linear convolution of the slots, whose support is
        ``[0, L_k)`` per axis, at the class point ``i_k``. A circular
        convolution on ``N_k`` points gives at ``i_k mod N_k`` the sum of the
        linear one over every point ``= i_k (mod N_k)``; ``i_k`` is the only
        one in the support once ``N_k > max(i_k, L_k - 1 - i_k)``, so the
        smallest such 5-smooth ``N_k`` reads it off exactly. A slot longer
        than ``N_k`` is cropped by ``fftn``, which is exact too: every tuple
        that reaches ``i_k`` has each slot coordinate in ``[0, i_k]``. Each
        weighted slot is transformed once onto that grid; the chain is
        multiplied entry plane by entry plane, traced, and read off by a
        single-point inverse DFT. A point outside the ``L_k`` box pairs to
        an exact zero. ``box_cache`` shares boxes and transforms across a
        face reduction, or across pairings of the same slots, by slot id;
        each entry holds its slot, so an entry under the id of a freed
        slot is made afresh."""
        rank = self.group.rank
        cache = {} if box_cache is None else box_cache

        def memo(key, w, make, *args):
            got = cache.get(key)
            if got is None or got[0] is not w:
                got = cache[key] = (w, make(*args))
            return got[1]

        mats = [memo(("box", id(w)), w, _dense_block_box, w) for w in ws]
        out_shape = tuple(sum(arr.shape[k] - 1 for arr, _ in mats) + 1
                          for k in range(rank))
        origin = tuple(sum(o[k] for _, o in mats) for k in range(rank))
        idx = tuple(int(h - o) for h, o in zip(self.class_h, origin))
        if not all(0 <= i < s for i, s in zip(idx, out_shape)):
            return 0.0 + 0.0j
        fft_shape = tuple(
            _fast_len(max(i, n - 1 - i) + 1) for i, n in zip(idx, out_shape))
        phases = [np.exp(2j * np.pi * np.arange(n) * (i % n) / n) / n
                  for n, i in zip(fft_shape, idx)]
        # one unoptimized einsum reads the class point without threaded BLAS
        axes = list(range(rank))
        operands = [x for k, p in enumerate(phases) for x in (p, [k])]

        def slot_fft(k, fn):
            arr, o = mats[k]
            if fn is not None:
                grids = np.indices(arr.shape[:rank], dtype=np.int64)
                weights = fn(tuple(grids + o.reshape((rank,) + (1,) * rank)))
                arr = arr * np.asarray(weights, dtype=complex)[..., None, None]
            # block entries first, so that each entry plane is contiguous
            return np.fft.fftn(np.moveaxis(arr, (-2, -1), (0, 1)), s=fft_shape,
                               axes=tuple(range(2, rank + 2)))

        total = 0.0 + 0.0j
        for c, fs in self.terms:
            field = _chain_trace(
                [memo(("fft", id(ws[k]), id(fn), fft_shape), ws[k], slot_fft,
                      k, fn) for k, fn in enumerate(fs)])
            total += c * complex(np.einsum(field, axes, *operands, []))
        return total

    def pair_grid(self, ws, box_cache: dict | None = None):
        """Route for slots sampled on the grid ``theta_j = 2 pi j / n``,
        entry planes first, then maybe an axis of nodes. A factor is a
        Fourier multiplier: the slot's FFT along the axes the factor varies
        on, times the factor at the signed indices, transformed back. Each
        term's chain is multiplied and traced, and coefficient ``h`` of a
        node is the grid mean of its field times ``e^{-i h.theta}``; over
        nodes, in an object array (face sums stay scalar). Node i records
        in ``box_cache["nodes"][i]`` (or ``box_cache``) ``"scale"``, the sum
        of ``|c_r| max |field|`` the read-out rounds at, and given a
        ``"delta"``, for :func:`moved_bound`, each term's slot norms and
        moves: ``"moves"[id(w)]`` or else ``"delta"``. A node keeps each
        slot with its norms, so the id of a freed slot never reads them."""
        cache = {} if box_cache is None else box_cache
        src, ids = ws, [id(w) for w in ws]
        one = ws[0].ndim == self.group.rank + 2
        if one:
            ws = [w[:, :, None] for w in ws]
        n, dim = ws[0].shape[-1], len(ws[0])
        nodes = [cache] if one else cache.setdefault(
            "nodes", [{} for _ in range(ws[0].shape[2])])
        phase = self._grid_factor(None, n)
        total = [0.0 + 0.0j] * len(nodes)
        for c, fs in self.terms:
            slots = [w if fn is None else self._weighted(w, fn, n)
                     for w, fn in zip(ws, fs)]
            field = _chain_trace(slots)
            keys = [(w_id, id(fn)) for w_id, fn in zip(ids, fs)]
            gains = [None if fn is None else self._grid_factor(fn, n)[2]
                     for fn in fs]
            fresh: dict = {}  # key -> the norms of every node, in one pass
            for i, node in enumerate(nodes):
                total[i] += c * np.vdot(phase, field[i])
                node["scale"] = (node.get("scale", 0.0)
                                 + abs(c) * float(np.abs(field[i]).max()))
                if node.get("delta"):
                    norms = node.setdefault("norms", {})
                    for key, w, slot in zip(keys, src, slots):
                        if norms.get(key, (None,))[0] is not w:
                            if key not in fresh:
                                fresh[key] = _hs_norms(slot)
                            norms[key] = (w, fresh[key][i])
                    moves = node.get("moves", {})
                    node.setdefault("terms", []).append((abs(c), [
                        norms[key][1] for key in keys], gains, dim, [
                        moves.get(w_id, node["delta"]) for w_id in ids]))
            del slots, field
        return complex(total[0]) if one else np.array(
            [complex(v) for v in total], dtype=object)

    def _weighted(self, w: np.ndarray, fn, n: int) -> np.ndarray:
        """The slot ``w`` times the Fourier multiplier of factor ``fn``."""
        mult, axes, _ = self._grid_factor(fn, n)
        coef = np.fft.fftn(w, axes=axes)
        coef *= mult
        return np.fft.ifftn(coef, axes=axes)

    def _grid_factor(self, fn, n: int):
        """Once per n^d grid: ``e^{i h.theta_j} / n^d`` for ``fn = None``;
        else the factor at the signed indices, the (negative) slot axes it
        varies on and its largest modulus and l2 norm."""
        key = (id(fn), n)
        if key not in self._grid:
            rank = self.group.rank
            signed = (np.arange(n) + n // 2) % n - n // 2
            coords = np.meshgrid(*[signed] * rank, indexing="ij")
            if fn is None:
                self._grid[key] = np.exp(2j * np.pi / n * sum(
                    x * h for x, h in zip(coords, self.class_h))) / n ** rank
                return self._grid[key]
            mult = np.broadcast_to(fn(tuple(coords)), (n,) * rank)
            axes = [k for k in range(rank) if (np.diff(mult, axis=k) != 0).any()]
            self._grid[key] = (mult, tuple(k - rank for k in axes), (
                float(np.abs(mult).max()), float(np.linalg.norm(mult))))
        return self._grid[key]


def moved_bound(cache: dict) -> float:
    """First-order bound on how far the pairings that
    :meth:`SeparableClassCochain.pair_grid` recorded in ``cache`` move when
    each slot moves by at most its recorded delta in operator norm at each
    grid point. A move has grid-RMS and sup Hilbert-Schmidt norms at most
    sqrt(d) delta, and by Parseval a multiplier M scales them by at most
    max |M| and |M|_2. Telescoping over the slots, each step is bounded by
    |tr(A_i A_j ...)| <= |A_i|_HS |A_j|_HS prod |A_l| and Cauchy-Schwarz on
    the grid mean, the other slots entering at their norms plus their moves,
    which covers both sides of the step; a lone slot pairs with the
    identity, of HS norm sqrt(d). Faces of ``b`` and ``S`` have coefficients
    of modulus at most 1, so the terms of a reduced pairing add up."""
    total = 0.0
    for c, norms, gains, dim, deltas in cache.get("terms", ()):
        root_d = math.sqrt(dim)
        moves = [(root_d * d, d) if g is None
                 else (root_d * d * g[0], root_d * d * g[1])
                 for d, g in zip(deltas, gains)]
        rms = [nm[0] + mv for nm, (mv, _) in zip(norms, moves)]
        sup = [nm[1] + mv for nm, (_, mv) in zip(norms, moves)]
        for i, (mv, _) in enumerate(moves):
            rest = [k for k in range(len(norms)) if k != i]
            total += c * mv * min(
                (rms[j] * math.prod(sup[k] for k in rest if k != j)
                 for j in rest), default=root_d)
    return total


def _hs_norms(s: np.ndarray) -> list:
    """Grid RMS and sup of the pointwise Hilbert-Schmidt norm of a slot,
    one pair per node (axis 2)."""
    v = np.ascontiguousarray(s).reshape(len(s) ** 2, s.shape[2], -1)
    h2 = np.einsum("ijk,ijk->jk", v.view(float), v.view(float))
    h2 = h2[:, 0::2] + h2[:, 1::2]  # real and imaginary parts
    return [(math.sqrt(float(row.mean())), math.sqrt(float(row.max())))
            for row in h2]


def _chain_trace(slots) -> np.ndarray:
    """``tr(s_0 ... s_k)`` of entry-plane-first slots, plane by plane. Each
    plane sum starts from its first term (``sum`` would add it to 0)."""
    dims = range(len(slots[0]))
    cur = slots[0]
    for F in slots[1:-1]:
        cur = [[reduce(add, (cur[i][k] * F[k][j] for k in dims))
                for j in dims] for i in dims]
    if len(slots) == 1:
        return reduce(add, (cur[i][i] for i in dims))
    return reduce(add, (cur[i][k] * slots[-1][k][i]
                        for i in dims for k in dims))


def _fast_len(n: int) -> int:
    """The smallest ``2^a 3^b 5^c >= n``, a length pocketfft transforms fast
    (``m`` is such a product iff it divides ``30^k`` for ``2^k > m``)."""
    m = max(n, 1)
    while pow(30, m.bit_length(), m):
        m += 1
    return m


# ---------------------------------------------------------------------------
# shipped cochain builders
# ---------------------------------------------------------------------------


def class_trace_cochain(cls: ConjugacyClass) -> CyclicCochain:
    """Degree-0 trace summing coefficients over a conjugacy class."""
    group = cls.group
    if isinstance(group, FreeAbelianGroup):
        return SeparableClassCochain(
            group, 0, cls.representative, [(1.0, [None])],
            growth=CochainGrowth("bounded", 1.0),
            name=f"tr<{group.element_to_text(cls.representative)}>")

    def ev(args):
        return 1.0 if cls.contains(args[0]) else 0.0

    batch = None
    if group.has_array_codec and group.is_abelian:
        rep = group.array_encode([cls.representative])[0]

        def batch(arrays):
            a = np.asarray(arrays[0], dtype=np.int64)
            return np.all(a == rep[None, :], axis=1).astype(complex)

    return CyclicCochain(group, 0, ev,
                         support_class=cls,
                         growth=CochainGrowth("bounded", 1.0),
                         name=f"tr<{group.element_to_text(cls.representative)}>",
                         batch_evaluator=batch)


def area_cocycle(group: FreeAbelianGroup, class_element, plane=(0, 1), *,
                 certify: bool = True, seed: int = 0) -> SeparableClassCochain:
    """Delocalized area 2-cochain on Z^d:

    ``phi(g0, g1, g2) = [g0+g1+g2 = h] * (g1_x g2_y - g1_y g2_x)``

    with (x, y) the chosen coordinate plane. Cyclicity and the cocycle
    identity require the class element to be transverse to the plane (its
    plane part must vanish); certification at build time rejects fixtures
    violating this with a witness tuple.
    """
    i, j = plane
    if not isinstance(group, FreeAbelianGroup):
        raise PreconditionError("area cocycle requires a free abelian group")
    if not (0 <= i < group.rank and 0 <= j < group.rank and i != j):
        raise PreconditionError(f"bad coordinate plane {plane}")
    h = group.validate(class_element)

    def x_of(c):
        return c[i].astype(complex)

    def y_of(c):
        return c[j].astype(complex)

    phi = SeparableClassCochain(
        group, 2, h,
        [(1.0, [None, x_of, y_of]), (-1.0, [None, y_of, x_of])],
        growth=CochainGrowth("polynomial", 1.0, 1.0),
        name=f"area[{i},{j}]<{group.element_to_text(h)}>")
    if certify:
        certify_cyclic_cocycle(phi, radius=2, samples=400, seed=seed)
    return phi


def random_delocalized_cochain(group: GroupModel, class_element, *,
                               rate: float, seed: int,
                               amplitude: float = 1.0) -> CyclicCochain:
    """A random degree-1 delocalized cochain of certified exponential growth.

    ``phi(g0, g1) = [g0 g1 = h] * (f(g0) - f(g1))`` with
    ``f(g) = amplitude * sin(a . g + b) * e^{rate * l(g)}`` for seeded
    coefficients a, b. The antisymmetry makes it exactly cyclic in degree 1;
    it is generally not a cocycle (its coboundary is the object of interest).
    """
    if not group.has_array_codec:
        raise PreconditionError("random cochain generator needs an "
                                "integer-array group encoding")
    h = group.validate(class_element)
    rng = np.random.default_rng(seed)
    width = group.array_width
    a = rng.uniform(0.5, 3.0, size=width)
    b = rng.uniform(0.0, 2 * np.pi)

    def f_of(coords):
        cols = np.stack(np.broadcast_arrays(
            *[np.asarray(c, dtype=float) for c in coords]), axis=-1)
        lengths = group.array_length(cols.astype(np.int64)
                                     .reshape(-1, width)).reshape(cols.shape[:-1])
        return amplitude * np.sin(cols @ a + b) * np.exp(rate * lengths)

    if isinstance(group, FreeAbelianGroup):
        return SeparableClassCochain(
            group, 1, h,
            [(1.0, [f_of, None]), (-1.0, [None, f_of])],
            growth=CochainGrowth("exponential", 2.0 * amplitude, rate),
            name=f"random-exp(seed={seed})")

    # every group with an array codec is abelian, so the class of h is {h}
    h_row = group.array_encode([h])[0]

    def batch(arrays):
        a0, a1 = arrays
        on_class = (group.array_add(a0, a1) == h_row).all(axis=1)
        return np.where(on_class, f_of(tuple(a0.T)) - f_of(tuple(a1.T)), 0.0)

    def ev(args):
        return batch([group.array_encode([g]) for g in args])[0]

    return CyclicCochain(group, 1, ev, support_class=ConjugacyClass(group, h),
                         growth=CochainGrowth("exponential", 2.0 * amplitude,
                                              rate),
                         name=f"random-exp(seed={seed})",
                         batch_evaluator=batch)


def table_cochain(group: GroupModel, degree: int, table: dict, *,
                  support_class: ConjugacyClass | None = None,
                  growth: CochainGrowth | None = None,
                  name: str = "table") -> CyclicCochain:
    """Dense small-degree cochain from an explicit tuple -> value table
    (absent tuples evaluate to zero)."""
    table = {tuple(group.validate(g) for g in key): complex(v)
             for key, v in table.items()}
    for key in table:
        if len(key) != degree + 1:
            raise RepresentationError(
                f"table key {key} has arity {len(key)}, expected {degree + 1}")

    def ev(args):
        return table.get(tuple(args), 0.0)

    return CyclicCochain(group, degree, ev, support_class=support_class,
                         growth=growth, name=name)


# ---------------------------------------------------------------------------
# idempotents and the Chern pairing
# ---------------------------------------------------------------------------


class Idempotent:
    """A matrix idempotent over the group algebra, validated on construction.

    ``element`` is an :class:`AlgebraElement` of block dimension m (the
    matrix size); idempotency ``p*p = p`` is enforced within ``tol``.
    """

    def __init__(self, element: AlgebraElement, tol: float = 1e-12):
        self._square_defect = element * element - element
        defect = self._square_defect.max_abs()
        if defect > tol:
            raise PreconditionError(
                f"not an idempotent: |p*p - p| = {defect:.3e} > {tol:.1e}")
        self.element = element
        self.defect = float(defect)

    @cached_property
    def trace_norms(self) -> tuple:
        """The summed trace norms of ``p`` and of ``p*p - p``."""
        return tuple(float(sum(x.trace_norms().values()))
                     for x in (self.element, self._square_defect))

    @property
    def group(self):
        return self.element.group

    @property
    def size(self) -> int:
        return self.element.dim

    @property
    def propagation_radius(self) -> int:
        return self.element.propagation_radius()

    def __repr__(self):
        return (f"Idempotent(group={self.group!r}, size={self.size}, "
                f"radius={self.propagation_radius})")


def connes_chern(phi: CyclicCochain, p: Idempotent) -> complex:
    """Chern pairing ``(2m)!/m! * phi#tr(p, ..., p)`` (2m+1 slots) for a
    degree-2m cocycle, checked to be one (``|b phi| <= 1e-9`` on 200
    tuples of radius 2)."""
    if phi.degree % 2 != 0:
        raise PreconditionError(
            "Chern pairing with idempotents needs an even-degree cocycle "
            "(odd-degree cochains pair with invertibles, not implemented)")
    if phi.group != p.group:
        raise PreconditionError("cochain and idempotent over different groups")
    violation, witness = max_cocycle_violation(phi)
    if violation > 1e-9:
        raise PreconditionError(
            f"{phi.name} is not a cocycle: |b phi| = {violation:.3e} at "
            f"{witness}")
    m = phi.degree // 2
    factor = math.factorial(2 * m) / math.factorial(m)
    return factor * pair_phi_tr(phi, [p.element] * (2 * m + 1))
