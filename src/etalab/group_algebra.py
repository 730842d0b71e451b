"""Finitely supported group-algebra elements and their weighted norms.

Elements are finite sums ``A = sum_g A_g g`` with dense complex matrix
coefficients of a uniform square dimension (``d = 1`` for the scalar group
algebra). The module provides exact convolution arithmetic, the involution,
and the norm family used throughout the package:

* ``lk_norm``   -- exponentially weighted l1 norm  sum_g e^{K l(g)} |A_g|_1;
* ``rd_norm``   -- rapid-decay norm  sqrt( sum_g |A_g|_1^2 (1+l(g))^{2p} );
* ``uc_norm``   -- unconditional tensor norm of two-leg elements, shipped as
  the per-support-point upper bound plus a sound elementary lower bound;
* ``b_norm``    -- rd_norm plus the uc bound of the geodesic quasiderivation.

``|M|_1`` is the trace norm (sum of singular values) of the coefficient
block. All norms are unconditional: they only see the trace norms of the
coefficients, so they agree on ``A`` and on its absolute value
``|A| = sum_g |A_g|_1 g``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, RepresentationError
from .groups import FreeAbelianGroup, GroupModel, group_from_json, group_to_json

#: Relative magnitude below which coefficients are dropped during cleanup.
ZERO_THRESHOLD = 1e-14


def trace_norm(M: np.ndarray) -> float:
    """Sum of singular values of a dense block (absolute value for 1x1)."""
    if M.shape == (1, 1):
        return abs(complex(M[0, 0]))
    return float(np.linalg.svd(M, compute_uv=False).sum())


def _trace_norms(blocks: dict, dim: int) -> dict:
    """``{key: trace_norm(M)}`` over a dict of blocks, with one stacked SVD
    for matrix blocks."""
    if dim == 1 or not blocks:
        return {key: trace_norm(M) for key, M in blocks.items()}
    sums = np.linalg.svd(np.stack(list(blocks.values())),
                         compute_uv=False).sum(axis=1)
    return dict(zip(blocks, sums.tolist()))


def _as_block(value, dim: int) -> np.ndarray:
    block = np.asarray(value, dtype=complex)
    if block.ndim == 0:
        block = block.reshape(1, 1)
    if block.shape != (dim, dim):
        raise RepresentationError(
            f"coefficient block has shape {block.shape}, expected ({dim}, {dim})")
    return block


class AlgebraElement:
    """A finitely supported element of M_d(CG).

    Parameters
    ----------
    group:
        The underlying group model.
    dim:
        Coefficient block dimension d.
    coeffs:
        Map from group elements to (d, d) complex blocks. Entries of
        negligible relative magnitude are dropped on construction.
    """

    __slots__ = ("group", "dim", "coeffs")

    def __init__(self, group: GroupModel, dim: int, coeffs: dict | None = None,
                 cleanup: bool = True):
        self.group = group
        self.dim = int(dim)
        raw = coeffs or {}
        self.coeffs = {g: _as_block(M, self.dim) for g, M in raw.items()}
        if cleanup:
            self.cleanup()

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(group: GroupModel, dim: int = 1) -> "AlgebraElement":
        return AlgebraElement(group, dim, {})

    @staticmethod
    def delta(group: GroupModel, g, coeff=1.0, dim: int | None = None) -> "AlgebraElement":
        """Single-point element ``coeff * g``."""
        g = group.validate(g)
        block = np.asarray(coeff, dtype=complex)
        if block.ndim == 0:
            d = dim or 1
            block = block * np.eye(d)
        else:
            d = block.shape[0]
            if dim is not None and dim != d:
                raise RepresentationError(f"dim {dim} != block dim {d}")
        return AlgebraElement(group, d, {g: block})

    @staticmethod
    def identity(group: GroupModel, dim: int = 1) -> "AlgebraElement":
        return AlgebraElement.delta(group, group.identity, np.eye(dim))

    @staticmethod
    def from_terms(group: GroupModel, terms, dim: int = 1) -> "AlgebraElement":
        """Build from an iterable of (element, coefficient) pairs, summing
        repeated elements."""
        acc: dict = {}
        for g, c in terms:
            g = group.validate(g)
            block = _as_block(np.asarray(c, dtype=complex) * np.eye(dim)
                              if np.ndim(c) == 0 else c, dim)
            if g in acc:
                acc[g] = acc[g] + block
            else:
                acc[g] = block
        return AlgebraElement(group, dim, acc)

    # -- structure ----------------------------------------------------------

    def cleanup(self, threshold: float = ZERO_THRESHOLD) -> "AlgebraElement":
        """Drop coefficients of negligible relative magnitude, in place."""
        if not self.coeffs:
            return self
        keys = list(self.coeffs)
        mags = np.abs(np.stack([self.coeffs[g] for g in keys])) \
            .reshape(len(keys), -1).max(axis=1)
        peak = float(mags.max())
        if peak == 0.0:
            self.coeffs = {}
            return self
        cut = peak * threshold
        self.coeffs = {g: self.coeffs[g]
                       for g, m in zip(keys, mags) if m > cut}
        return self

    @property
    def support(self) -> list:
        """Support elements, deterministically ordered."""
        return sorted(self.coeffs,
                      key=lambda g: (self.group.word_length(g),
                                     self.group.sort_key(g)))

    def coefficient(self, g) -> np.ndarray:
        return self.coeffs.get(g, np.zeros((self.dim, self.dim), dtype=complex))

    def trace_norms(self) -> dict:
        return _trace_norms(self.coeffs, self.dim)

    def propagation_radius(self) -> int:
        """Largest word length in the support (0 for the zero element)."""
        if not self.coeffs:
            return 0
        return max(self.group.word_length(g) for g in self.coeffs)

    def max_abs(self) -> float:
        """Largest entrywise magnitude over all coefficients."""
        if not self.coeffs:
            return 0.0
        return float(max(np.abs(M).max() for M in self.coeffs.values()))

    def absolute(self) -> "AlgebraElement":
        """The scalar element ``|A| = sum_g |A_g|_1 g``."""
        return AlgebraElement(self.group, 1,
                              {g: np.array([[v]], dtype=complex)
                               for g, v in self.trace_norms().items()})

    # -- arithmetic ---------------------------------------------------------

    def _check_compatible(self, other: "AlgebraElement"):
        if self.group != other.group:
            raise PreconditionError("elements live over different groups")
        if self.dim != other.dim:
            raise PreconditionError(
                f"coefficient dimensions differ: {self.dim} vs {other.dim}")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_compatible(other)
        out = {g: M.copy() for g, M in self.coeffs.items()}
        for g, M in other.coeffs.items():
            out[g] = out[g] + M if g in out else M.copy()
        return AlgebraElement(self.group, self.dim, out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.group, self.dim,
                              {g: -M for g, M in self.coeffs.items()},
                              cleanup=False)

    def scale(self, c) -> "AlgebraElement":
        return AlgebraElement(self.group, self.dim,
                              {g: c * M for g, M in self.coeffs.items()})

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
        return AlgebraElement(
            self.group, self.dim,
            {self.group.inverse(g): M.conj().T for g, M in self.coeffs.items()},
            cleanup=False)

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return (self - self.star()).max_abs() <= tol

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        entries = []
        for g in self.support:
            M = self.coeffs[g]
            flat = [[float(z.real), float(z.imag)] for z in M.reshape(-1)]
            entries.append({"element": self.group.element_to_json(g),
                            "matrix": flat})
        return {"group": group_to_json(self.group), "dim": self.dim,
                "entries": entries}

    @staticmethod
    def from_json(obj: dict) -> "AlgebraElement":
        try:
            group = group_from_json(obj["group"])
            dim = int(obj.get("dim", 1))
            coeffs = {}
            for entry in obj["entries"]:
                g = group.element_from_json(entry["element"])
                flat = entry["matrix"]
                if len(flat) != dim * dim:
                    raise RepresentationError(
                        f"matrix for {entry['element']} has {len(flat)} entries, "
                        f"expected {dim * dim}")
                M = np.array([complex(re, im) for re, im in flat],
                             dtype=complex).reshape(dim, dim)
                coeffs[g] = coeffs[g] + M if g in coeffs else M
            return AlgebraElement(group, dim, coeffs)
        except (KeyError, TypeError, ValueError) as exc:
            raise RepresentationError(f"bad algebra element document: {exc}")

    def __repr__(self):
        return (f"AlgebraElement({self.group!r}, dim={self.dim}, "
                f"support={len(self.coeffs)})")


#: support-size product above which Z^d convolution switches to the FFT
#: route; below it the exact nested sum is both faster and noise-free.
FFT_CROSSOVER = 40_000


def _dense_block_box(A: AlgebraElement) -> tuple[np.ndarray, np.ndarray]:
    """Dense ``spatial + (dim, dim)`` coefficient array and its lattice
    origin for an element over Z^d (a single zero block at the origin for
    the zero element)."""
    rank = A.group.rank
    if not A.coeffs:
        return (np.zeros((1,) * rank + (A.dim, A.dim), dtype=complex),
                np.zeros(rank, dtype=np.int64))
    pts = np.array(list(A.coeffs), dtype=np.int64)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    shape = tuple(int(h - l + 1) for l, h in zip(lo, hi)) + (A.dim, A.dim)
    arr = np.zeros(shape, dtype=complex)
    rel = pts - lo[None, :]
    arr[tuple(rel[:, k] for k in range(pts.shape[1]))] = np.stack(
        list(A.coeffs.values()))
    return arr, lo


def _convolve_lattice_fft(A: AlgebraElement, B: AlgebraElement) -> AlgebraElement:
    """Blockwise FFT convolution over Z^d: transform the spatial axes,
    matrix-multiply the blocks in frequency, transform back. The relative
    cleanup threshold is applied in-routine (it also strips FFT roundoff
    noise), and the result is assembled without re-validating each block."""
    a, alo = _dense_block_box(A)
    b, blo = _dense_block_box(B)
    rank = A.group.rank
    axes = tuple(range(rank))
    full = tuple(a.shape[k] + b.shape[k] - 1 for k in range(rank))
    fa = np.fft.fftn(a, s=full, axes=axes)
    fb = np.fft.fftn(b, s=full, axes=axes)
    out = np.fft.ifftn(np.einsum("...ik,...kj->...ij", fa, fb), axes=axes)
    lo = alo + blo
    flat = out.reshape(-1, A.dim, A.dim)
    mags = np.abs(flat).max(axis=(1, 2))
    peak = float(mags.max()) if mags.size else 0.0
    keep = np.flatnonzero(mags > peak * ZERO_THRESHOLD) if peak > 0.0 \
        else np.zeros(0, dtype=np.int64)
    grid = np.stack(np.meshgrid(*[np.arange(n) for n in full],
                                indexing="ij"), axis=-1).reshape(-1, rank)
    pts = grid[keep] + lo[None, :]
    blocks = flat[keep]
    coeffs = {tuple(int(c) for c in pt): blocks[i]
              for i, pt in enumerate(pts)}
    result = AlgebraElement.__new__(AlgebraElement)
    result.group = A.group
    result.dim = A.dim
    result.coeffs = coeffs
    return result


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
            and len(A.coeffs) * len(B.coeffs) > FFT_CROSSOVER
            and A.coeffs and B.coeffs):
        return _convolve_lattice_fft(A, B)
    out: dict = {}
    for g1 in A.support:
        M1 = A.coeffs[g1]
        for g2 in B.support:
            g = group.multiply(g1, g2)
            prod = M1 @ B.coeffs[g2]
            out[g] = out[g] + prod if g in out else prod
    return AlgebraElement(group, A.dim, out)


# ---------------------------------------------------------------------------
# tensor (two-leg) elements and the quasiderivation
# ---------------------------------------------------------------------------


class TensorElement:
    """A finitely supported element of M_d(CG) (x) CG over pairs (g1, g2)."""

    __slots__ = ("group", "dim", "coeffs")

    def __init__(self, group: GroupModel, dim: int, coeffs: dict | None = None):
        self.group = group
        self.dim = int(dim)
        self.coeffs = {pair: _as_block(M, self.dim)
                       for pair, M in (coeffs or {}).items()}
        self.coeffs = {pair: M for pair, M in self.coeffs.items()
                       if np.abs(M).max() > 0.0}

    @property
    def support(self) -> list:
        def key(pair):
            g1, g2 = pair
            return (self.group.word_length(g1), self.group.sort_key(g1),
                    self.group.word_length(g2), self.group.sort_key(g2))
        return sorted(self.coeffs, key=key)

    def trace_norms(self) -> dict:
        return _trace_norms(self.coeffs, self.dim)

    def __repr__(self):
        return (f"TensorElement({self.group!r}, dim={self.dim}, "
                f"support={len(self.coeffs)})")


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


def uc_norm(T: TensorElement, p: float) -> float:
    """Canonical unconditional-tensor-norm value (the certified upper bound)."""
    return uc_norm_bounds(T, p)[1]


def b_norm(A: AlgebraElement, p: float, q: int = 0) -> float:
    """``rd_norm(A, p) + uc_norm(Delta_q A, p)`` exactly."""
    return rd_norm(A, p) + uc_norm(quasiderivation(A, q), p)


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
