"""Finitely generated group models with word metrics.

Four concrete models are provided, each with canonical hashable element
representations, deterministic ball/sphere enumeration, geodesic splittings,
exact conjugacy tests, and closed-form growth rates and class counts:

* :class:`FreeAbelianGroup` -- Z^d, elements are integer tuples, L1 length;
* :class:`CyclicGroup`      -- Z/k, elements are residues 0..k-1;
* :class:`FreeGroup`        -- F_r, elements are reduced words stored as
  tuples of nonzero signed generator indices;
* :class:`ProductGroup`     -- direct products of the above, componentwise.

All enumerations are deterministic (sorted by length, then by a per-model
canonical key) so that downstream quadratures and reports are reproducible.
Ball enumeration respects a hard element budget and raises
:class:`~etalab.errors.ResourceBudgetError` beyond it.
"""

from __future__ import annotations

import math
import string
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    PreconditionError,
    RepresentationError,
    ResourceBudgetError,
)

DEFAULT_BALL_BUDGET = 10**6

_LETTERS = string.ascii_lowercase


# ---------------------------------------------------------------------------
# group models
# ---------------------------------------------------------------------------


class GroupModel:
    """Abstract finitely generated group with a word metric.

    Subclasses implement the core operations; this base provides cached
    deterministic ball/sphere enumeration, splittings, and serialization
    plumbing shared by all models.
    """

    kind: str = "abstract"
    is_abelian: bool = False
    #: True when elements admit a fixed-width integer-vector encoding with
    #: componentwise addition (enables vectorized cochain evaluation).
    has_array_codec: bool = False
    #: Exponential growth rate of the spheres, lim log|S_n| / n: 0 for
    #: abelian and finite models, log(2r - 1) for F_r.
    growth_rate: float = 0.0

    def __init__(self):
        self._cache: dict = {}

    # -- core operations (subclass responsibility) --------------------------

    @property
    def identity(self):
        raise NotImplementedError

    def multiply(self, a, b):
        raise NotImplementedError

    def inverse(self, a):
        raise NotImplementedError

    def word_length(self, g) -> int:
        raise NotImplementedError

    def generators(self) -> list:
        """Symmetric generating set in deterministic order."""
        raise NotImplementedError

    def validate(self, g):
        """Return the canonical form of ``g`` or raise RepresentationError."""
        raise NotImplementedError

    def sort_key(self, g):
        """Total order key; ball enumeration sorts by (length, sort_key)."""
        raise NotImplementedError

    def _enumerate_ball(self, radius: int, budget: int) -> list:
        raise NotImplementedError

    @staticmethod
    def _check_budget(current: int, budget: int, context: str):
        if current > budget:
            raise ResourceBudgetError(
                f"{context}: enumeration exceeded budget of {budget} elements")

    def geodesic_points(self, g) -> list:
        """All x lying on some geodesic from the identity to ``g``.

        Characterized by additivity of the word length:
        ``word_length(x) + word_length(x^-1 g) == word_length(g)``.
        """
        raise NotImplementedError

    # -- serialization ------------------------------------------------------

    def element_to_text(self, g) -> str:
        raise NotImplementedError

    def element_from_text(self, s: str):
        raise NotImplementedError

    def element_to_json(self, g):
        raise NotImplementedError

    def element_from_json(self, obj):
        raise NotImplementedError

    # -- derived operations (shared) ----------------------------------------

    def ball(self, radius: int) -> list:
        """Deterministically ordered list of all elements of length <= radius,
        within ``DEFAULT_BALL_BUDGET`` elements (read at call time)."""
        if radius < 0:
            return []
        key = ("ball", radius)
        if key in self._cache:
            return self._cache[key]
        budget = DEFAULT_BALL_BUDGET
        elements = self._enumerate_ball(radius, budget)
        self._check_budget(len(elements), budget, f"ball(radius={radius}) on {self!r}")
        elements.sort(key=lambda g: (self.word_length(g), self.sort_key(g)))
        self._cache[key] = elements
        return elements

    def sphere(self, radius: int) -> list:
        """Elements of length exactly ``radius``, deterministically ordered."""
        return [g for g in self.ball(radius)
                if self.word_length(g) == radius]

    def splittings(self, g, q: int = 0) -> list:
        """All factorizations ``g = g1 * g2`` with ``g1`` within distance
        ``q`` of a point on some geodesic from the identity to ``g``.

        ``q = 0`` gives exactly the geodesic factorizations. Returns a
        deterministically ordered list of ``(g1, g2)`` pairs.
        """
        if q < 0:
            raise PreconditionError("splitting slack q must be >= 0")
        base = self.geodesic_points(g)
        if q == 0:
            firsts = base
        else:
            near = set()
            for p in base:
                for y in self.ball(q):
                    near.add(self.multiply(p, y))
            firsts = list(near)
        firsts.sort(key=lambda x: (self.word_length(x), self.sort_key(x)))
        return [(x, self.multiply(self.inverse(x), g)) for x in firsts]

    def conjugacy_class(self, h) -> "ConjugacyClass":
        return ConjugacyClass(self, self.validate(h))

    def __eq__(self, other):
        return type(self) is type(other) and self._signature() == other._signature()

    def __hash__(self):
        return hash((type(self).__name__, self._signature()))

    def _signature(self):
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self._signature()})"


class FreeAbelianGroup(GroupModel):
    """Z^d with the L1 word metric; elements are length-d integer tuples."""

    kind = "free_abelian"
    is_abelian = True
    has_array_codec = True

    def __init__(self, rank: int):
        super().__init__()
        if rank < 1:
            raise RepresentationError("rank must be >= 1")
        self.rank = int(rank)

    def _signature(self):
        return (self.rank,)

    @property
    def identity(self):
        return (0,) * self.rank

    def multiply(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def inverse(self, a):
        return tuple(-x for x in a)

    def word_length(self, g) -> int:
        return sum(abs(x) for x in g)

    def generators(self) -> list:
        gens = []
        for i in range(self.rank):
            e = [0] * self.rank
            e[i] = 1
            gens.append(tuple(e))
            e[i] = -1
            gens.append(tuple(e))
        return gens

    def validate(self, g):
        if (not isinstance(g, tuple) or len(g) != self.rank
                or not all(isinstance(x, (int, np.integer)) for x in g)):
            raise RepresentationError(
                f"expected a length-{self.rank} integer tuple, got {g!r}")
        return tuple(int(x) for x in g)

    def sort_key(self, g):
        return g

    def _enumerate_ball(self, radius: int, budget: int) -> list:
        out = []

        def rec(prefix, remaining, slots):
            if slots == 1:
                for x in range(-remaining, remaining + 1):
                    out.append(prefix + (x,))
                self._check_budget(len(out), budget, f"ball on {self!r}")
                return
            for x in range(-remaining, remaining + 1):
                rec(prefix + (x,), remaining - abs(x), slots - 1)

        rec((), radius, self.rank)
        return out

    def geodesic_points(self, g) -> list:
        # x is on a geodesic iff each coordinate lies between 0 and g_i.
        ranges = []
        for x in g:
            step = 1 if x >= 0 else -1
            ranges.append(range(0, x + step, step))
        out = []

        def rec(prefix, i):
            if i == self.rank:
                out.append(tuple(prefix))
                return
            for v in ranges[i]:
                rec(prefix + [v], i + 1)

        rec([], 0)
        return out

    # -- integer-array codec -------------------------------------------------

    @property
    def array_width(self) -> int:
        return self.rank

    def array_encode(self, elements: Sequence) -> np.ndarray:
        return np.asarray(list(elements), dtype=np.int64).reshape(-1, self.rank)

    def array_decode_row(self, row) -> tuple:
        return tuple(int(x) for x in row)

    def array_add(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        return A + B

    def array_length(self, A: np.ndarray) -> np.ndarray:
        return np.abs(A).sum(axis=-1)

    # -- serialization -------------------------------------------------------

    def element_to_text(self, g) -> str:
        return ",".join(str(x) for x in g)

    def element_from_text(self, s: str):
        try:
            return self.validate(tuple(int(tok) for tok in s.split(",")))
        except (ValueError, RepresentationError) as exc:
            raise RepresentationError(f"cannot parse {s!r} as Z^{self.rank}: {exc}")

    def element_to_json(self, g):
        return list(g)

    def element_from_json(self, obj):
        if not isinstance(obj, list):
            raise RepresentationError(f"expected list, got {obj!r}")
        return self.validate(tuple(obj))


class CyclicGroup(GroupModel):
    """Z/k with word length min(r, k-r); elements are residues 0..k-1."""

    kind = "cyclic"
    is_abelian = True
    has_array_codec = True

    def __init__(self, order: int):
        super().__init__()
        if order < 1:
            raise RepresentationError("order must be >= 1")
        self.order = int(order)

    def _signature(self):
        return (self.order,)

    @property
    def identity(self):
        return 0

    def multiply(self, a, b):
        return (a + b) % self.order

    def inverse(self, a):
        return (-a) % self.order

    def word_length(self, g) -> int:
        r = g % self.order
        return min(r, self.order - r)

    def generators(self) -> list:
        if self.order == 1:
            return []
        if self.order == 2:
            return [1]
        return [1, self.order - 1]

    def validate(self, g):
        if not isinstance(g, (int, np.integer)):
            raise RepresentationError(f"expected an integer residue, got {g!r}")
        return int(g) % self.order

    def sort_key(self, g):
        return g

    def _enumerate_ball(self, radius: int, budget: int) -> list:
        return [g for g in range(self.order) if self.word_length(g) <= radius]

    def geodesic_points(self, g) -> list:
        L = self.word_length(g)
        return [x for x in range(self.order)
                if self.word_length(x) + self.word_length((g - x) % self.order) == L]

    @property
    def array_width(self) -> int:
        return 1

    def array_encode(self, elements: Sequence) -> np.ndarray:
        return np.asarray(list(elements), dtype=np.int64).reshape(-1, 1)

    def array_decode_row(self, row) -> int:
        return int(row[0]) % self.order

    def array_add(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        return (A + B) % self.order

    def array_length(self, A: np.ndarray) -> np.ndarray:
        r = A[..., 0] % self.order
        return np.minimum(r, self.order - r)

    def element_to_text(self, g) -> str:
        return str(g)

    def element_from_text(self, s: str):
        try:
            return self.validate(int(s))
        except ValueError as exc:
            raise RepresentationError(f"cannot parse {s!r} as Z/{self.order}: {exc}")

    def element_to_json(self, g):
        return int(g)

    def element_from_json(self, obj):
        return self.validate(obj)


class FreeGroup(GroupModel):
    """F_r on letters a, b, c, ...; elements are reduced words.

    A word is a tuple of nonzero signed indices: ``i`` in 1..r is the i-th
    generator, ``-i`` its inverse. Words are kept freely reduced (no adjacent
    ``x, -x``).
    """

    kind = "free"
    is_abelian = False

    def __init__(self, rank: int):
        super().__init__()
        if rank < 1:
            raise RepresentationError("rank must be >= 1")
        if rank > 26:
            raise RepresentationError("rank must be <= 26 (letter labels)")
        self.rank = int(rank)
        self.growth_rate = math.log(2 * self.rank - 1)

    def _signature(self):
        return (self.rank,)

    @property
    def identity(self):
        return ()

    @staticmethod
    def _reduce(word: Iterable[int]) -> tuple:
        out: list[int] = []
        for x in word:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        return tuple(out)

    def multiply(self, a, b):
        return self._reduce(a + b)

    def inverse(self, a):
        return tuple(-x for x in reversed(a))

    def word_length(self, g) -> int:
        return len(g)

    def generators(self) -> list:
        out = []
        for i in range(1, self.rank + 1):
            out.append((i,))
            out.append((-i,))
        return out

    def validate(self, g):
        if not isinstance(g, tuple):
            raise RepresentationError(f"expected a tuple word, got {g!r}")
        for x in g:
            if not isinstance(x, (int, np.integer)) or x == 0 or abs(x) > self.rank:
                raise RepresentationError(f"bad letter {x!r} in word {g!r}")
        w = tuple(int(x) for x in g)
        if self._reduce(w) != w:
            raise RepresentationError(f"word {g!r} is not freely reduced")
        return w

    def sort_key(self, g):
        return g

    def _enumerate_ball(self, radius: int, budget: int) -> list:
        letters = [i for i in range(1, self.rank + 1)] + \
                  [-i for i in range(1, self.rank + 1)]
        out = [()]
        frontier = [()]
        for _ in range(radius):
            nxt = []
            for w in frontier:
                for x in letters:
                    if w and w[-1] == -x:
                        continue
                    nxt.append(w + (x,))
            out.extend(nxt)
            self._check_budget(len(out), budget, f"ball on {self!r}")
            frontier = nxt
        return out

    def geodesic_points(self, g) -> list:
        # The geodesic is unique in a tree: the prefixes of the reduced word.
        return [g[:i] for i in range(len(g) + 1)]

    def cyclic_reduction(self, g) -> tuple:
        w = list(g)
        while len(w) >= 2 and w[0] == -w[-1]:
            w = w[1:-1]
        return tuple(w)

    def element_to_text(self, g) -> str:
        if not g:
            return "e"
        out = []
        for x in g:
            letter = _LETTERS[abs(x) - 1]
            out.append(letter if x > 0 else letter.upper())
        return "".join(out)

    def element_from_text(self, s: str):
        s = s.strip()
        if s in ("", "e", "1"):
            return ()
        word = []
        for ch in s:
            if ch in " \t":
                continue
            lower = ch.lower()
            if lower not in _LETTERS[: self.rank]:
                raise RepresentationError(
                    f"bad letter {ch!r} for F_{self.rank} (use a..{_LETTERS[self.rank-1]}, "
                    "uppercase for inverses)")
            idx = _LETTERS.index(lower) + 1
            word.append(idx if ch.islower() else -idx)
        return self._reduce(word)

    def element_to_json(self, g):
        return list(g)

    def element_from_json(self, obj):
        if not isinstance(obj, list):
            raise RepresentationError(f"expected list of signed indices, got {obj!r}")
        return self._reduce(tuple(int(x) for x in obj))


class ProductGroup(GroupModel):
    """Direct product of group models; elements are tuples of components.

    Word length is the sum of component lengths (generators act in one
    component at a time).
    """

    kind = "product"

    def __init__(self, factors: Sequence[GroupModel]):
        super().__init__()
        if len(factors) < 1:
            raise RepresentationError("need at least one factor")
        self.factors = tuple(factors)
        self.is_abelian = all(f.is_abelian for f in self.factors)
        self.has_array_codec = all(f.has_array_codec for f in self.factors)
        self.growth_rate = max(f.growth_rate for f in self.factors)

    def _signature(self):
        return tuple((type(f).__name__, f._signature()) for f in self.factors)

    @property
    def identity(self):
        return tuple(f.identity for f in self.factors)

    def multiply(self, a, b):
        return tuple(f.multiply(x, y) for f, x, y in zip(self.factors, a, b))

    def inverse(self, a):
        return tuple(f.inverse(x) for f, x in zip(self.factors, a))

    def word_length(self, g) -> int:
        return sum(f.word_length(x) for f, x in zip(self.factors, g))

    def generators(self) -> list:
        out = []
        for i, f in enumerate(self.factors):
            for s in f.generators():
                e = list(self.identity)
                e[i] = s
                out.append(tuple(e))
        return out

    def validate(self, g):
        if not isinstance(g, tuple) or len(g) != len(self.factors):
            raise RepresentationError(
                f"expected a {len(self.factors)}-component tuple, got {g!r}")
        return tuple(f.validate(x) for f, x in zip(self.factors, g))

    def sort_key(self, g):
        return tuple(f.sort_key(x) for f, x in zip(self.factors, g))

    def _enumerate_ball(self, radius: int, budget: int) -> list:
        shells = []  # per factor: list over length of element lists
        for f in self.factors:
            ball = f.ball(radius)
            by_len: list[list] = [[] for _ in range(radius + 1)]
            for g in ball:
                by_len[f.word_length(g)].append(g)
            shells.append(by_len)

        out = []

        def rec(prefix, i, remaining):
            if i == len(self.factors):
                out.append(tuple(prefix))
                self._check_budget(len(out), budget, f"ball on {self!r}")
                return
            for L in range(remaining + 1):
                for g in shells[i][L]:
                    rec(prefix + [g], i + 1, remaining - L)

        rec([], 0, radius)
        return out

    def geodesic_points(self, g) -> list:
        # Additivity of a sum of subadditive terms forces componentwise
        # additivity, so geodesic points are products of factor geodesics.
        comps = [f.geodesic_points(x) for f, x in zip(self.factors, g)]
        out = []

        def rec(prefix, i):
            if i == len(self.factors):
                out.append(tuple(prefix))
                return
            for v in comps[i]:
                rec(prefix + [v], i + 1)

        rec([], 0)
        return out

    # -- integer-array codec (available when all factors have one) ----------

    @property
    def array_width(self) -> int:
        return sum(f.array_width for f in self.factors)

    def _slices(self):
        offs = []
        start = 0
        for f in self.factors:
            offs.append(slice(start, start + f.array_width))
            start += f.array_width
        return offs

    def array_encode(self, elements: Sequence) -> np.ndarray:
        elements = list(elements)
        cols = []
        for i, f in enumerate(self.factors):
            cols.append(f.array_encode([g[i] for g in elements]))
        return np.concatenate(cols, axis=1) if cols else np.zeros((len(elements), 0), np.int64)

    def array_decode_row(self, row) -> tuple:
        out = []
        for f, sl in zip(self.factors, self._slices()):
            out.append(f.array_decode_row(row[sl]))
        return tuple(out)

    def array_add(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        parts = [f.array_add(A[..., sl], B[..., sl])
                 for f, sl in zip(self.factors, self._slices())]
        return np.concatenate(parts, axis=-1)

    def array_length(self, A: np.ndarray) -> np.ndarray:
        total = np.zeros(A.shape[:-1], dtype=np.int64)
        for f, sl in zip(self.factors, self._slices()):
            total = total + f.array_length(A[..., sl])
        return total

    def element_to_text(self, g) -> str:
        return "|".join(f.element_to_text(x) for f, x in zip(self.factors, g))

    def element_from_text(self, s: str):
        parts = s.split("|")
        if len(parts) != len(self.factors):
            raise RepresentationError(
                f"expected {len(self.factors)} '|'-separated components in {s!r}")
        return tuple(f.element_from_text(p) for f, p in zip(self.factors, parts))

    def element_to_json(self, g):
        return [f.element_to_json(x) for f, x in zip(self.factors, g)]

    def element_from_json(self, obj):
        if not isinstance(obj, list) or len(obj) != len(self.factors):
            raise RepresentationError(f"expected {len(self.factors)}-item list")
        return tuple(f.element_from_json(x) for f, x in zip(self.factors, obj))


# ---------------------------------------------------------------------------
# group deserialization
# ---------------------------------------------------------------------------


def group_from_json(obj: dict) -> GroupModel:
    """The group model of a ``{"kind": ..., ...}`` description:
    ``free_abelian`` and ``free`` take a ``rank``, ``cyclic`` an ``order``
    and ``product`` a list of ``factors``."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise RepresentationError(f"bad group description: {obj!r}")
    kind = obj["kind"]
    try:
        if kind == "free_abelian":
            return FreeAbelianGroup(int(obj["rank"]))
        if kind == "cyclic":
            return CyclicGroup(int(obj["order"]))
        if kind == "free":
            return FreeGroup(int(obj["rank"]))
        if kind == "product":
            return ProductGroup([group_from_json(f) for f in obj["factors"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise RepresentationError(f"bad group description {obj!r}: {exc}")
    raise RepresentationError(f"unknown group kind {kind!r}")


# ---------------------------------------------------------------------------
# conjugacy
# ---------------------------------------------------------------------------


class ConjugacyClass:
    """The conjugacy class of a representative in a group model.

    Membership tests are exact per model: equality in abelian models,
    cyclic-word rotation in free groups, componentwise in products.
    """

    def __init__(self, group: GroupModel, representative):
        self.group = group
        self.representative = group.validate(representative)

    @property
    def is_trivial(self) -> bool:
        return self.representative == self.group.identity

    def contains(self, g) -> bool:
        return self._contains(self.group, self.representative, g)

    @staticmethod
    def _contains(group: GroupModel, h, g) -> bool:
        if isinstance(group, (FreeAbelianGroup, CyclicGroup)):
            return g == h
        if isinstance(group, FreeGroup):
            ch = group.cyclic_reduction(h)
            cg = group.cyclic_reduction(g)
            if len(ch) != len(cg):
                return False
            if not ch:
                return True
            return any(cg[i:] + cg[:i] == ch for i in range(len(cg)))
        if isinstance(group, ProductGroup):
            return all(ConjugacyClass._contains(f, hx, gx)
                       for f, hx, gx in zip(group.factors, h, g))
        raise PreconditionError(f"no conjugacy test for {group!r}")

    def elements_within(self, radius: int) -> list:
        """Class members of word length <= radius, deterministically ordered."""
        key = ("class_elems", self.representative, radius)
        if key in self.group._cache:
            return self.group._cache[key]
        if self.group.is_abelian:
            members = ([self.representative]
                       if self.group.word_length(self.representative) <= radius else [])
        else:
            members = [g for g in self.group.ball(radius) if self.contains(g)]
        self.group._cache[key] = members
        return members

    def shell_counts(self, radius: int) -> list:
        """Exact number of class members of each word length 0..radius.

        Abelian classes are single points. In F_r a cyclically reduced h of
        length l with p distinct rotations h' has p members of length l and
        p (2r-2) (2r-1)^(k-1) of length l + 2k: the reduced conjugates
        w h' w^-1, whose last letter of w is neither h'_1^-1 nor h'_l
        (Lyndon & Schupp, Combinatorial Group Theory, 1977, Ch. I). A
        product class is a product of classes, so its counts convolve."""
        group, h = self.group, self.representative
        counts = [0] * (radius + 1)
        if isinstance(group, ProductGroup):
            counts[0] = 1
            for f, x in zip(group.factors, h):
                c = ConjugacyClass(f, x).shell_counts(radius)
                counts = [sum(counts[i] * c[n - i] for i in range(n + 1))
                          for n in range(radius + 1)]
            return counts
        if not isinstance(group, FreeGroup) or not h:
            if group.word_length(h) <= radius:
                counts[group.word_length(h)] = 1
            return counts
        w = group.cyclic_reduction(h)
        p, r = len({w[i:] + w[:i] for i in range(len(w))}), group.rank
        for n in range(len(w), radius + 1, 2):
            k = (n - len(w)) // 2
            counts[n] = p * (2 * r - 2) * (2 * r - 1) ** (k - 1) if k else p
        return counts

    def log_tail_sum(self, radius: int, rate: float) -> float:
        """``log sum_{n > radius} shell_counts(n) e^(-rate n)`` in closed
        form: ``-inf`` if no member is longer than ``radius``, ``inf`` if
        ``rate <= growth_rate``.  Past the shortest length l an F_r class
        grows by exactly ``e^(2 growth_rate) = 2r - 1`` per two lengths, so
        with ``top = max(radius, l)`` the sum is its terms up to ``top + 2``,
        those past ``top`` divided by ``1 - (2r - 1) e^(-2 rate)``.  An
        abelian class is one point; other groups are refused."""
        if not (self.group.is_abelian or isinstance(self.group, FreeGroup)):
            raise PreconditionError(
                f"no closed-form class tail for {self.group!r}")
        if rate <= self.growth_rate:
            return math.inf
        top = max(radius, self.minimal_length())
        geometric = math.log(-math.expm1(2.0 * (self.growth_rate - rate)))
        terms = [math.log(c) - rate * n - geometric * (n > top)
                 for n, c in enumerate(self.shell_counts(top + 2))
                 if n > radius and c]
        return float(np.logaddexp.reduce(terms)) if terms else -math.inf

    @property
    def growth_rate(self) -> float:
        """Exponential growth rate of :meth:`shell_counts`: log(2r - 1) / 2
        for a nontrivial class of F_r, the largest factor rate for a
        product, else 0."""
        group, h = self.group, self.representative
        if isinstance(group, ProductGroup):
            return max(ConjugacyClass(f, x).growth_rate
                       for f, x in zip(group.factors, h))
        return group.growth_rate / 2 if isinstance(group, FreeGroup) and h \
            else 0.0

    def minimal_length(self) -> int:
        """Shortest word length in the class."""
        if isinstance(self.group, FreeGroup):
            return len(self.group.cyclic_reduction(self.representative))
        if self.group.is_abelian:
            return self.group.word_length(self.representative)
        if isinstance(self.group, ProductGroup):
            return sum(ConjugacyClass(f, x).minimal_length()
                       for f, x in zip(self.group.factors, self.representative))
        raise PreconditionError(f"no minimal length for {self.group!r}")

    def __repr__(self):
        return (f"ConjugacyClass({self.group!r}, "
                f"{self.group.element_to_text(self.representative)})")

    def __eq__(self, other):
        return (isinstance(other, ConjugacyClass)
                and self.group == other.group
                and self.contains(other.representative))

    def __hash__(self):
        # Classes with distinct representatives may be equal; hash only the group.
        return hash(("ConjugacyClass", self.group))
