"""Finitely supported group-algebra elements and their weighted norms.

Elements are finite sums ``A = sum_g A_g g`` with dense complex matrix
coefficients of a uniform square dimension (``d = 1`` for the scalar group
algebra). The module provides exact convolution arithmetic, the involution,
and the norm family used throughout the package:

* ``lk_norm``   -- exponentially weighted l1 norm  sum_g e^{K l(g)} |A_g|_1;
* ``rd_norm``   -- rapid-decay norm  sqrt( sum_g |A_g|_1^2 (1+l(g))^{2p} );
* ``uc_norm_bounds`` -- unconditional tensor norm of two-leg elements,
  shipped as the per-support-point upper bound plus a sound elementary
  lower bound;
* ``norm_report``    -- all of these, and ``b``: rd_norm plus the uc upper
  bound of the geodesic quasiderivation.

``|M|_1`` is the trace norm (sum of singular values) of the coefficient
block. All norms are unconditional: they only see the trace norms of the
coefficients.

Layout, for every group: a tuple ``keys`` of N distinct points and one
read-only, C-contiguous complex array ``blocks`` of shape ``(N, d, d)``,
``blocks[i]`` being the coefficient at ``keys[i]``; ``TensorElement`` keys
pairs ``(g1, g2)``. The shape is checked once, when an element is built.
Arithmetic, cleanup, norms and the dense Z^d box (``_dense_block_box``) act
on ``blocks`` whole; ``coeffs`` is a read-only ``{g: block}`` view for
point lookups, made on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import PreconditionError, RepresentationError
from .groups import FreeAbelianGroup, GroupModel, group_from_json

#: Relative magnitude below which coefficients are dropped during cleanup.
ZERO_THRESHOLD = 1e-14


def _stack_blocks(values: list, dim: int) -> np.ndarray:
    """The ``(N, dim, dim)`` complex stack of N blocks (scalars for
    ``dim == 1``), or a :class:`RepresentationError`."""
    if not values:
        return np.zeros((0, dim, dim), dtype=complex)
    if dim == 1:
        values = [[[v]] if np.ndim(v) == 0 else v for v in values]
    try:
        blocks = np.array(values, dtype=complex)
    except (TypeError, ValueError):
        raise RepresentationError("coefficient blocks differ in shape")
    if blocks.shape[1:] != (dim, dim):
        raise RepresentationError(
            f"coefficient block has shape {blocks.shape[1:]}, "
            f"expected ({dim}, {dim})")
    return blocks


def _significant(blocks: np.ndarray, point) -> np.ndarray:
    """Indices of the blocks whose largest entry exceeds ``ZERO_THRESHOLD``
    times the largest entry of all (none if that is 0).  A NaN or infinite
    entry raises a :class:`RepresentationError` naming ``point(i)``, the
    group point of its block ``i``."""
    mags = np.abs(blocks).max(axis=(1, 2))
    peak = mags.max(initial=0.0)
    if not np.isfinite(peak):
        bad = int(np.flatnonzero(~np.isfinite(mags))[0])
        raise RepresentationError(
            f"coefficient at {point(bad)!r} is not finite")
    return np.flatnonzero(mags > peak * ZERO_THRESHOLD)


class _BlockStack:
    """``keys`` and ``blocks`` of the module layout, with the ``coeffs``
    view."""

    __slots__ = ("group", "dim", "keys", "blocks", "_coeffs", "_coords")

    def _adopt(self, group: GroupModel, dim: int, keys, blocks: np.ndarray):
        blocks = np.ascontiguousarray(blocks, dtype=complex)
        if blocks.shape != (len(keys), dim, dim):
            raise RepresentationError(
                f"{len(keys)} keys need blocks of shape "
                f"({len(keys)}, {dim}, {dim}), got {blocks.shape}")
        blocks.flags.writeable = False
        self.group, self.dim = group, dim
        self.keys, self.blocks = tuple(keys), blocks
        self._coeffs = self._coords = None

    @property
    def coeffs(self) -> MappingProxyType:
        """Read-only ``{key: block}`` view, in key order."""
        if self._coeffs is None:
            self._coeffs = MappingProxyType(dict(zip(self.keys, self.blocks)))
        return self._coeffs

    def _trace_norms(self) -> dict:
        """``{key: |block|_1}`` in key order: Python ``abs`` for 1x1 blocks,
        one stacked SVD otherwise."""
        if self.dim == 1:
            return {g: abs(z)
                    for g, z in zip(self.keys, self.blocks[:, 0, 0].tolist())}
        sums = np.linalg.svd(self.blocks, compute_uv=False).sum(axis=1)
        return dict(zip(self.keys, sums.tolist()))

    def __repr__(self):
        return (f"{type(self).__name__}({self.group!r}, dim={self.dim}, "
                f"support={len(self.keys)})")


class AlgebraElement(_BlockStack):
    """A finitely supported element of M_d(CG).

    Parameters
    ----------
    group:
        The underlying group model.
    dim:
        Coefficient block dimension d.
    coeffs:
        Map from group elements to (d, d) complex blocks (scalars if
        ``d == 1``). Entries of negligible relative magnitude are dropped
        on construction.
    """

    __slots__ = ()

    def __init__(self, group: GroupModel, dim: int, coeffs: dict | None = None,
                 cleanup: bool = True):
        coeffs = coeffs or {}
        self._adopt(group, int(dim), list(coeffs),
                    _stack_blocks(list(coeffs.values()), int(dim)))
        if cleanup:
            self.cleanup()

    # -- constructors -------------------------------------------------------

    @classmethod
    def _from_stack(cls, group: GroupModel, dim: int, keys,
                    blocks: np.ndarray, cleanup: bool = True):
        """The element ``sum_i blocks[i] keys[i]`` for distinct ``keys``;
        ``blocks`` is adopted without a copy when it already has the
        layout."""
        element = cls.__new__(cls)
        element._adopt(group, int(dim), keys, blocks)
        if cleanup:
            element.cleanup()
        return element

    @staticmethod
    def delta(group: GroupModel, g, coeff=1.0) -> "AlgebraElement":
        """Single-point element ``coeff * g``; a scalar ``coeff`` gives a 1x1
        block."""
        g = group.validate(g)
        block = np.asarray(coeff, dtype=complex)
        if block.ndim == 0:
            block = block * np.eye(1)
        return AlgebraElement(group, block.shape[0], {g: block})

    @staticmethod
    def identity(group: GroupModel, dim: int = 1) -> "AlgebraElement":
        return AlgebraElement.delta(group, group.identity, np.eye(dim))

    @staticmethod
    def from_terms(group: GroupModel, terms, dim: int = 1) -> "AlgebraElement":
        """Build from an iterable of (element, coefficient) pairs, summing
        repeated elements."""
        terms = list(terms)
        blocks = _stack_blocks(
            [np.asarray(c, dtype=complex) * np.eye(dim) if np.ndim(c) == 0
             else c for _, c in terms], dim)
        acc: dict = {}
        for (g, _), block in zip(terms, blocks):
            g = group.validate(g)
            acc[g] = acc[g] + block if g in acc else block
        return AlgebraElement(group, dim, acc)

    # -- structure ----------------------------------------------------------

    def cleanup(self) -> "AlgebraElement":
        """Drop coefficients of negligible relative magnitude, in place."""
        keep = _significant(self.blocks, self.keys.__getitem__)
        if len(keep) < len(self.keys):
            self._adopt(self.group, self.dim, [self.keys[i] for i in keep],
                        self.blocks[keep])
        return self

    @property
    def support(self) -> list:
        """Support elements, deterministically ordered."""
        return sorted(self.keys,
                      key=lambda g: (self.group.word_length(g),
                                     self.group.sort_key(g)))

    @property
    def coords(self) -> np.ndarray:
        """Read-only int64 ``(N, width)`` array codec of ``keys``, built at
        most once (groups with an array codec only)."""
        if self._coords is None:
            self._coords = self.group.array_encode(self.keys)
            self._coords.flags.writeable = False
        return self._coords

    def coefficient(self, g) -> np.ndarray:
        return self.coeffs.get(g, np.zeros((self.dim, self.dim), dtype=complex))

    def trace_norms(self) -> dict:
        return self._trace_norms()

    def propagation_radius(self) -> int:
        """Largest word length in the support (0 for the zero element)."""
        return max(map(self.group.word_length, self.keys), default=0)

    def max_abs(self) -> float:
        """Largest entrywise magnitude over all coefficients."""
        return float(np.abs(self.blocks).max(initial=0.0))

    # -- arithmetic ---------------------------------------------------------

    def _check_compatible(self, other: "AlgebraElement"):
        if self.group != other.group:
            raise PreconditionError("elements live over different groups")
        if self.dim != other.dim:
            raise PreconditionError(
                f"coefficient dimensions differ: {self.dim} vs {other.dim}")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_compatible(other)
        pos = {g: i for i, g in enumerate(self.keys)}
        rows = np.array([pos.setdefault(g, len(pos)) for g in other.keys],
                        dtype=np.int64)
        shared = rows < len(self.keys)
        blocks = np.empty((len(pos), self.dim, self.dim), dtype=complex)
        blocks[:len(self.keys)] = self.blocks
        blocks[rows[shared]] += other.blocks[shared]
        blocks[rows[~shared]] = other.blocks[~shared]
        return AlgebraElement._from_stack(self.group, self.dim, pos, blocks)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._from_stack(self.group, self.dim, self.keys,
                                          -self.blocks, cleanup=False)

    def scale(self, c) -> "AlgebraElement":
        return AlgebraElement._from_stack(self.group, self.dim, self.keys,
                                          c * self.blocks)

    def __rmul__(self, c) -> "AlgebraElement":
        if np.ndim(c) == 0:
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return convolve(self, other)
        if np.ndim(other) == 0:
            return self.scale(other)
        return NotImplemented

    def star(self) -> "AlgebraElement":
        """Involution: ``(A*)_g = (A_{g^-1})^dagger``."""
        return AlgebraElement._from_stack(
            self.group, self.dim, [self.group.inverse(g) for g in self.keys],
            self.blocks.conj().transpose(0, 2, 1), cleanup=False)

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return (self - self.star()).max_abs() <= tol

    # -- serialization ------------------------------------------------------

    @staticmethod
    def from_json(obj: dict) -> "AlgebraElement":
        try:
            group = group_from_json(obj["group"])
            dim = int(obj.get("dim", 1))
            return AlgebraElement.from_terms(group, [
                (group.element_from_json(entry["element"]),
                 np.reshape([complex(re, im) for re, im in entry["matrix"]],
                            (dim, dim)))
                for entry in obj["entries"]], dim)
        except (KeyError, TypeError, ValueError) as exc:
            raise RepresentationError(f"bad algebra element document: {exc}")


#: support-size product above which Z^d convolution switches to the FFT
#: route; below it the exact nested sum is both faster and noise-free.
FFT_CROSSOVER = 40_000


def _dense_block_box(A: AlgebraElement) -> tuple[np.ndarray, np.ndarray]:
    """Dense ``spatial + (dim, dim)`` coefficient array and its lattice
    origin for an element over Z^d (a single zero block at the origin for
    the zero element)."""
    rank = A.group.rank
    if not A.keys:
        return (np.zeros((1,) * rank + (A.dim, A.dim), dtype=complex),
                np.zeros(rank, dtype=np.int64))
    pts = A.coords
    lo = pts.min(axis=0)
    shape = tuple((pts.max(axis=0) - lo + 1).tolist()) + (A.dim, A.dim)
    arr = np.zeros(shape, dtype=complex)
    arr[tuple((pts - lo).T)] = A.blocks
    return arr, lo


def _convolve_lattice_fft(A: AlgebraElement, B: AlgebraElement) -> AlgebraElement:
    """Blockwise FFT convolution over Z^d: transform the spatial axes,
    matrix-multiply the blocks in frequency, transform back; a self-product
    (``B is A``) transforms once. The cleanup rule also strips the FFT
    roundoff noise; keys are made only for the blocks it keeps."""
    a, alo = _dense_block_box(A)
    b, blo = (a, alo) if B is A else _dense_block_box(B)
    rank = A.group.rank
    axes = tuple(range(rank))
    full = tuple(a.shape[k] + b.shape[k] - 1 for k in range(rank))
    fa = np.fft.fftn(a, s=full, axes=axes)
    fb = fa if B is A else np.fft.fftn(b, s=full, axes=axes)
    prod = np.einsum("...ik,...kj->...ij", fa, fb)
    del fa, fb
    out = np.fft.ifftn(prod, axes=axes)
    flat = out.reshape(-1, A.dim, A.dim)
    keep = _significant(flat, lambda i: tuple(
        (np.unravel_index(i, full) + alo + blo).tolist()))
    pts = np.indices(full).reshape(rank, -1).T[keep] + (alo + blo)
    return AlgebraElement._from_stack(A.group, A.dim,
                                      list(map(tuple, pts.tolist())),
                                      flat[keep], cleanup=False)


def convolve(A: AlgebraElement, B: AlgebraElement) -> AlgebraElement:
    """Group-algebra product ``(AB)_g = sum_{g1 g2 = g} A_{g1} B_{g2}``.

    Summation order is deterministic (supports are traversed in canonical
    order), so results are bitwise reproducible. Over Z^d, products whose
    support-size product exceeds ``FFT_CROSSOVER`` are routed through a
    blockwise FFT (same value up to roundoff at machine scale, dense
    support inside the bounding box).
    """
    A._check_compatible(B)
    group = A.group
    if (isinstance(group, FreeAbelianGroup)
            and len(A.keys) * len(B.keys) > FFT_CROSSOVER):
        return _convolve_lattice_fft(A, B)
    right = [(g2, B.coeffs[g2]) for g2 in B.support]
    out: dict = {}
    for g1 in A.support:
        M1 = A.coeffs[g1]
        for g2, M2 in right:
            g = group.multiply(g1, g2)
            prod = M1 @ M2
            out[g] = out[g] + prod if g in out else prod
    return AlgebraElement(group, A.dim, out)


# ---------------------------------------------------------------------------
# tensor (two-leg) elements and the quasiderivation
# ---------------------------------------------------------------------------


class TensorElement(_BlockStack):
    """A finitely supported element of M_d(CG) (x) CG over pairs (g1, g2);
    exactly zero blocks are dropped."""

    __slots__ = ()

    def __init__(self, group: GroupModel, dim: int, coeffs: dict | None = None):
        coeffs = coeffs or {}
        keys = list(coeffs)
        blocks = _stack_blocks(list(coeffs.values()), int(dim))
        keep = np.flatnonzero(np.abs(blocks).max(axis=(1, 2)) > 0.0)
        self._adopt(group, int(dim), [keys[i] for i in keep], blocks[keep])

    def trace_norms(self) -> dict:
        return self._trace_norms()


def quasiderivation(A: AlgebraElement, q: int = 0) -> TensorElement:
    """Geodesic splitting map ``Delta_q A = sum_g A_g sum_{(g1,g2)} g1 (x) g2``
    over all factorizations of each support point within slack ``q`` of a
    geodesic."""
    group = A.group
    out: dict = {}
    for g in A.support:
        M = A.coeffs[g]
        for pair in group.splittings(g, q):
            out[pair] = out[pair] + M if pair in out else M.copy()
    return TensorElement(group, A.dim, out)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def lk_norm(A: AlgebraElement, K: float) -> float:
    """Exponentially weighted norm ``sum_g e^{K l(g)} |A_g|_1``."""
    if K < 0:
        raise PreconditionError("K must be >= 0")
    return float(sum(np.exp(K * A.group.word_length(g)) * v
                     for g, v in sorted(A.trace_norms().items(),
                                        key=lambda kv: A.group.sort_key(kv[0]))))


def rd_norm(A: AlgebraElement, p: float) -> float:
    """Rapid-decay norm ``sqrt( sum_g |A_g|_1^2 (1 + l(g))^{2p} )``."""
    if p < 0:
        raise PreconditionError("p must be >= 0")
    total = sum(v * v * (1.0 + A.group.word_length(g)) ** (2.0 * p)
                for g, v in sorted(A.trace_norms().items(),
                                   key=lambda kv: A.group.sort_key(kv[0])))
    return float(np.sqrt(total))


def uc_norm_bounds(T: TensorElement, p: float) -> tuple[float, float]:
    """(lower, upper) bounds for the unconditional tensor norm.

    The upper bound is the per-support-point rank-one decomposition: each
    support pair contributes ``|T_{g1,g2}|_1 (1+l(g1))^p (1+l(g2))^p``. The
    lower bound is the largest single contribution, which is sound because
    any dominating decomposition must cover each support point. For an
    elementary tensor (single support pair) the bounds coincide.
    """
    if p < 0:
        raise PreconditionError("p must be >= 0")
    group = T.group
    upper = 0.0
    lower = 0.0
    for (g1, g2), v in sorted(T.trace_norms().items(),
                              key=lambda kv: (group.sort_key(kv[0][0]),
                                              group.sort_key(kv[0][1]))):
        term = v * (1.0 + group.word_length(g1)) ** p \
                 * (1.0 + group.word_length(g2)) ** p
        upper += term
        lower = max(lower, term)
    return lower, upper


@dataclass
class NormReport:
    """All norm values for one element at fixed parameters.

    ``b == rd + uc_of_delta`` exactly; ``uc_lower <= uc_of_delta`` is the
    sound elementary-tensor lower bound (the gap to the true infimum is
    reported, not bounded).
    """

    rd: float
    uc_of_delta: float
    uc_lower: float
    b: float
    lk: float
    p: float
    K: float
    q: int = 0

    def to_json_dict(self) -> dict:
        return {"rd": self.rd, "uc_upper": self.uc_of_delta,
                "uc_lower": self.uc_lower, "b": self.b, "lk": self.lk,
                "p": self.p, "K": self.K, "q": self.q}


def norm_report(A: AlgebraElement, p: float, K: float, q: int = 0) -> NormReport:
    """Evaluate the full norm family on one element."""
    rd = rd_norm(A, p)
    lower, upper = uc_norm_bounds(quasiderivation(A, q), p)
    lk = lk_norm(A, K)
    return NormReport(rd=rd, uc_of_delta=upper, uc_lower=lower,
                      b=rd + upper, lk=lk, p=p, K=K, q=q)
