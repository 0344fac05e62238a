"""Sequence-space models (l1, c0, l-infinity) with exact symbolic tails.

A vector is a finite prefix plus a symbolic tail describing all remaining
coordinates.  The public tail kinds are ``zero``, ``constant`` and
``geometric``; internally a tail is a constant plus a finite sum of
geometric terms, which is the smallest family containing those three
kinds that is exactly closed under addition and subtraction.  Lattice
operations (abs, min, max) are exact: the last index at which the
pointwise comparison can change regime is computed symbolically and the
prefix is extended past it, so no floating truncation ever occurs inside
an operation.

On these atomic models, convergence coordinate-by-coordinate is the
computable face of unbounded-order convergence, which makes the
convergence predicates decidable at a finite horizon up to an explicit
evidence grading: a verdict of "...-evidence" reports that no violation
was found within the horizon and budget, while negative verdicts carry
exact witnesses.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

__all__ = [
    "DisjointVerdict",
    "FunctionalNotBounded",
    "OcPartVerdict",
    "OrderNullVerdict",
    "SpaceModel",
    "Tail",
    "TailTooClose",
    "TailVector",
    "UoDualVerdict",
    "UoNullVerdict",
    "VectorSequence",
    "is_disjoint",
    "is_order_null",
    "is_uo_null",
    "membership",
    "model_norm",
    "oc_part_membership",
    "uo_dual_expected",
    "uo_dual_test",
]


class FunctionalNotBounded(ValueError):
    """The coordinatewise pairing diverges on unit-ball probes."""


class TailTooClose(ValueError):
    """Settling a tail's sign or supremum needs more than ``_MAX_OFFSET`` offsets.

    Geometric ratios that nearly coincide, or a ratio very close to 1,
    push that offset past any prefix worth building explicitly.
    """


# the largest tail offset an operation may expand into explicit coordinates
_MAX_OFFSET = 100_000


def _bounded_offset(j: float) -> int:
    """The offset ceil(j), at least 0; TailTooClose past the cap."""
    if j > _MAX_OFFSET:
        raise TailTooClose(f"tail needs offset {j:.3g} > {_MAX_OFFSET} to settle")
    return max(0, math.ceil(j))


def _sign(x: float) -> int:
    if x > 0.0:
        return 1
    if x < 0.0:
        return -1
    return 0


@dataclass(frozen=True)
class Tail:
    """Coordinates beyond the prefix: a constant plus geometric terms.

    ``terms`` is a tuple of (coefficient, ratio) pairs with distinct
    ratios in (0, 1), sorted by decreasing ratio; the tail value at
    offset j >= 0 is ``const + sum(a * r**j)``.  The named public kinds
    are the special cases zero (nothing), constant (no terms) and
    geometric (no constant, one term).
    """

    const: float = 0.0
    terms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if not math.isfinite(self.const):
            raise ValueError("tail constant must be finite")
        for a, r in self.terms:
            if not math.isfinite(a) or a == 0.0:
                raise ValueError("geometric coefficients must be finite and nonzero")
            if not 0.0 < r < 1.0:
                raise ValueError(f"geometric ratio must satisfy 0 < r < 1, got {r}")

    @staticmethod
    def make(const: float, terms) -> Tail:
        merged: dict[float, float] = {}
        for a, r in terms:
            if a == 0.0:
                continue
            merged[r] = merged.get(r, 0.0) + a
        cleaned = tuple(
            sorted(((a, r) for r, a in merged.items() if a != 0.0), key=lambda ar: -ar[1])
        )
        return Tail(float(const), cleaned)

    @property
    def kind(self) -> str:
        if not self.terms:
            return "zero" if self.const == 0.0 else "constant"
        if self.const == 0.0 and len(self.terms) == 1:
            return "geometric"
        return "mixed"

    @property
    def is_zero(self) -> bool:
        return self.const == 0.0 and not self.terms

    @property
    def vanishes(self) -> bool:
        """True when the tail tends to 0 coordinatewise."""
        return self.const == 0.0

    def value(self, j: int) -> float:
        return self.const + math.fsum(a * r**j for a, r in self.terms)

    def values(self, count: int) -> np.ndarray:
        j = np.arange(count, dtype=float)
        out = np.full(count, self.const)
        for a, r in self.terms:
            out += a * r**j
        return out

    def shift(self, d: int) -> Tail:
        if d == 0:
            return self
        return Tail.make(self.const, ((a * r**d, r) for a, r in self.terms))

    def back_value(self) -> float:
        """Value the tail would take one position before its start."""
        return self.const + math.fsum(a / r for a, r in self.terms)

    def shift_back(self) -> Tail:
        return Tail.make(self.const, ((a / r, r) for a, r in self.terms))

    def neg(self) -> Tail:
        return Tail.make(-self.const, ((-a, r) for a, r in self.terms))

    def add(self, other: Tail) -> Tail:
        return Tail.make(self.const + other.const, self.terms + other.terms)

    def scale(self, c: float) -> Tail:
        if c == 0.0:
            return Tail()
        return Tail.make(c * self.const, ((c * a, r) for a, r in self.terms))


def eventual_sign(tail: Tail) -> tuple[int, int]:
    """Conservative offset J and sign s with sign(tail(j)) = s for all j >= J.

    The dominant term is the constant, taken as a term with ratio 1, or
    failing that the term with the largest ratio.  Beyond J it exceeds
    twice the combined magnitude of the rest (or has fallen below 1e-300,
    past which nothing is resolved), so the sign is stable even under
    floating-point evaluation.  A log estimate gives J up to rounding, and
    a loop from there confirms it.
    """
    terms = tail.terms if tail.const == 0.0 else ((tail.const, 1.0),) + tail.terms
    if not terms:
        return 0, 0
    (a0, r0), rest = terms[0], terms[1:]
    total = math.fsum(abs(a) for a, _ in rest)
    J = 0
    if 2.0 * total > abs(a0):
        decay = math.log(max(r for _, r in rest) / r0)  # 0 only when the ratios are neighbouring floats
        J = _bounded_offset(math.log(abs(a0) / (2.0 * total)) / decay if decay else math.inf)
    while True:
        lead = abs(a0) * r0**J
        if lead > 2.0 * math.fsum(abs(a) * r**J for a, r in rest) or lead < 1e-300:
            return J, _sign(a0)
        J = _bounded_offset(J + 1)


@dataclass(frozen=True)
class TailVector:
    """Sequence-space element: finite prefix plus symbolic tail.

    Coordinate k (1-indexed) is prefix[k-1] for k <= len(prefix) and
    tail(k - len(prefix) - 1) beyond, so the first tail coordinate of a
    geometric tail equals its coefficient.  ``make`` keeps instances
    canonical: trailing prefix entries that match the tail's backward
    extension are absorbed, so structural equality is semantic equality
    for vectors built through the same operations.  ``abs`` does not
    absorb: it keeps the tail coordinates it settles as explicit prefix
    entries, so its result is exact and nonnegative at every coordinate.
    """

    prefix: tuple[float, ...]
    tail: Tail = field(default_factory=Tail)

    def __post_init__(self) -> None:
        for v in self.prefix:
            if not math.isfinite(v):
                raise ValueError("prefix entries must be finite")

    @staticmethod
    def make(prefix, tail: Tail) -> TailVector:
        buf = [float(v) for v in prefix]
        while buf and buf[-1] == tail.back_value():
            buf.pop()
            tail = tail.shift_back()
        return TailVector(tuple(buf), tail)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> TailVector:
        return cls((), Tail())

    @classmethod
    def from_prefix(cls, values) -> TailVector:
        return cls.make(values, Tail())

    @classmethod
    def constant(cls, c: float, prefix=()) -> TailVector:
        return cls.make(prefix, Tail.make(c, ()))

    @classmethod
    def geometric(cls, a: float, r: float, prefix=()) -> TailVector:
        if r == 0.0:
            return cls.make(tuple(prefix) + (float(a),), Tail())
        return cls.make(prefix, Tail.make(0.0, ((float(a), float(r)),)))

    @classmethod
    def unit(cls, k: int, value: float = 1.0) -> TailVector:
        if k < 1:
            raise ValueError("coordinates are 1-indexed")
        return cls.make((0.0,) * (k - 1) + (float(value),), Tail())

    @classmethod
    def ones(cls) -> TailVector:
        return cls.constant(1.0)

    # -- coordinate access -------------------------------------------------

    def value(self, k: int) -> float:
        if k < 1:
            raise ValueError("coordinates are 1-indexed")
        if k <= len(self.prefix):
            return self.prefix[k - 1]
        return self.tail.value(k - len(self.prefix) - 1)

    def head(self, n: int) -> np.ndarray:
        """First n coordinates as an array."""
        m = min(len(self.prefix), n)
        parts = [np.asarray(self.prefix[:m], dtype=float)]
        if n > m:
            parts.append(self.tail.values(n - m))
        return np.concatenate(parts) if len(parts) > 1 else parts[0]

    @property
    def is_zero(self) -> bool:
        return not self.prefix and self.tail.is_zero

    # -- exact lattice and vector algebra -----------------------------------

    def _aligned(self, other: TailVector):
        n = max(len(self.prefix), len(other.prefix))
        return (
            n,
            self.head(n),
            other.head(n),
            self.tail.shift(n - len(self.prefix)),
            other.tail.shift(n - len(other.prefix)),
        )

    def __add__(self, other: TailVector) -> TailVector:
        _, px, py, tx, ty = self._aligned(other)
        return TailVector.make(px + py, tx.add(ty))

    def __sub__(self, other: TailVector) -> TailVector:
        _, px, py, tx, ty = self._aligned(other)
        return TailVector.make(px - py, tx.add(ty.neg()))

    def __mul__(self, c: float) -> TailVector:
        return TailVector.make([c * v for v in self.prefix], self.tail.scale(c))

    __rmul__ = __mul__

    def __neg__(self) -> TailVector:
        return self * -1.0

    def __abs__(self) -> TailVector:
        """Pointwise |x|: |prefix|, then the J tail coordinates that settle
        the tail's sign, then the tail past J times that sign.

        The settled coordinates stay explicit.  Folding them back into the
        tail would rescale its coefficients by 1/r, which for non-dyadic
        ratios moves coordinates by an ulp, even below 0.
        """
        J, s = eventual_sign(self.tail)
        settled = tuple(abs(self.tail.value(j)) for j in range(J))
        tail = self.tail.shift(J)
        return TailVector(tuple(abs(v) for v in self.prefix) + settled, tail if s >= 0 else tail.neg())

    def _split(self, other: TailVector, pick, keep: int) -> TailVector:
        """Pointwise ``pick``, exact via the sign split of the difference.

        Past the offset J where x - y keeps the sign s, x's tail is kept when
        s * keep >= 0 (keep is -1 for np.minimum, +1 for np.maximum).
        """
        n, _, _, tx, ty = self._aligned(other)
        J, s = eventual_sign(tx.add(ty.neg()))
        head = pick(self.head(n + J), other.head(n + J))
        return TailVector.make(head, (tx if s * keep >= 0 else ty).shift(J))

    def meet(self, other: TailVector) -> TailVector:
        """Pointwise minimum."""
        return self._split(other, np.minimum, -1)

    def join(self, other: TailVector) -> TailVector:
        """Pointwise maximum."""
        return self._split(other, np.maximum, 1)

    # -- serialisation -------------------------------------------------------

    def to_json_dict(self) -> dict:
        t = self.tail
        if t.kind == "zero":
            tail = {"kind": "zero"}
        elif t.kind == "constant":
            tail = {"kind": "constant", "c": t.const}
        elif t.kind == "geometric":
            tail = {"kind": "geometric", "a": t.terms[0][0], "r": t.terms[0][1]}
        else:
            tail = {"kind": "mixed", "c": t.const, "terms": [list(ar) for ar in t.terms]}
        return {"prefix": list(self.prefix), "tail": tail}


class SpaceModel(str, Enum):
    ELL1 = "ell1"
    C0 = "c0"
    ELL_INFTY = "ellInfty"


def membership(x: TailVector, m: SpaceModel) -> bool:
    """Whether x belongs to the model (l1 and c0 need a vanishing tail)."""
    if m is SpaceModel.ELL_INFTY:
        return True
    return x.tail.vanishes


def model_norm(x: TailVector, m: SpaceModel) -> float:
    """Closed-form norm in the model; infinity is a value, not an error."""
    ax = abs(x)
    if m is SpaceModel.ELL1:
        if ax.tail.const != 0.0:
            return math.inf
        return math.fsum(ax.prefix) + math.fsum(a / (1.0 - r) for a, r in ax.tail.terms)
    return _sup(ax)


def _sup(ax: TailVector) -> float:
    """Supremum of a vector that is nonnegative everywhere (approached, maybe not attained)."""
    best = max(ax.prefix, default=0.0)
    tail = ax.tail
    j = 0
    while tail.terms:
        best = max(best, tail.value(j))
        envelope = tail.const + math.fsum(max(a, 0.0) * r**j for a, r in tail.terms)
        if envelope <= best or envelope - tail.const <= 1e-15 * max(1.0, tail.const):
            break
        j += 1
        _bounded_offset(j)
    return max(best, tail.const)


@dataclass(frozen=True)
class VectorSequence:
    """Finite horizon of sequence-space vectors, 1-indexed."""

    elements: tuple[TailVector, ...]
    declared_limit: TailVector | None = None
    name: str = "custom"

    @classmethod
    def from_generator(cls, gen, horizon: int, limit: TailVector | None = None, name: str = "custom") -> VectorSequence:
        return cls(tuple(gen(n) for n in range(1, horizon + 1)), limit, name)

    @property
    def horizon(self) -> int:
        return len(self.elements)

    def element(self, n: int) -> TailVector:
        return self.elements[n - 1]


@dataclass(frozen=True)
class UoNullVerdict:
    verdict: str  # "uo-null-evidence" | "not-uo-null"
    witness_coordinate: int | None = None
    witness_value: float = 0.0
    budget: int = 0
    window: tuple[int, int] = (0, 0)

    @property
    def is_null(self) -> bool:
        return self.verdict == "uo-null-evidence"


def is_uo_null(s: VectorSequence, m: SpaceModel, tol: float) -> UoNullVerdict:
    """Evidence that the sequence converges to 0 coordinate-by-coordinate.

    Checks every coordinate up to a budget (half the horizon, clipped to
    the prefix support) over a trailing window of indices, and checks the
    symbolic tails of the window elements.  Coordinates near the horizon
    are left unverified: a finite horizon cannot distinguish a marching
    single spike from a divergence there, and marching families are null.
    """
    h = s.horizon
    if h < 8:
        raise ValueError("horizon must be >= 8")
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    for n, x in enumerate(s.elements, start=1):
        if not membership(x, m):
            raise ValueError(f"element {n} of sequence {s.name!r} is not in {m.value}")
    window_len = max(4, h // 4)
    window = range(h - window_len + 1, h + 1)
    max_prefix = max((len(x.prefix) for x in s.elements), default=0)
    budget = max(4, min(h // 2, max_prefix + 4))
    win = (h - window_len + 1, h)

    for k in range(1, budget + 1):
        worst = max(abs(s.element(n).value(k)) for n in window)
        if worst > tol:
            return UoNullVerdict("not-uo-null", k, worst, budget, win)
    for n in window:
        x = s.element(n)
        sup = _sup(abs(TailVector((), x.tail)))
        if sup > tol:
            return UoNullVerdict("not-uo-null", len(x.prefix) + 1, sup, budget, win)
    return UoNullVerdict("uo-null-evidence", None, 0.0, budget, win)


@dataclass(frozen=True)
class OrderNullVerdict:
    verdict: str  # "order-null-evidence" | "not-order-null"
    uo: UoNullVerdict
    tail_sup: TailVector | None = None
    sup_stabilized: bool = False
    sup_in_model: bool = False

    @property
    def is_null(self) -> bool:
        return self.verdict == "order-null-evidence"


def is_order_null(s: VectorSequence, m: SpaceModel, tol: float) -> OrderNullVerdict:
    """Order convergence to 0: coordinatewise null plus an order-bounded tail.

    The dominating element is the lattice supremum of |x_n| over the tail
    half of the horizon, computed exactly.  It must belong to the model
    with a finite norm and stabilise: adding the last window of elements
    does not change it, so it is not escaping to ever-larger support.
    l-infinity is Dedekind complete, so there order-bounded means
    norm-bounded, and it is enough that the norm of the supremum
    stabilises: marching unit vectors of one size are order-null there,
    while n * e_n, whose supremum has a finite norm at every horizon, is
    not.
    """
    uo = is_uo_null(s, m, tol)
    h = s.horizon
    start = max(1, h // 2)
    window_len = max(1, h // 4)
    sup_partial = TailVector.zero()
    for n in range(start, h - window_len + 1):
        sup_partial = sup_partial.join(abs(s.element(n)))
    sup_full = sup_partial
    for n in range(h - window_len + 1, h + 1):
        sup_full = sup_full.join(abs(s.element(n)))
    stabilized = sup_partial == sup_full
    member = membership(sup_full, m) and model_norm(sup_full, m) < math.inf
    bounded = stabilized or (
        m is SpaceModel.ELL_INFTY and model_norm(sup_partial, m) == model_norm(sup_full, m)
    )
    ok = uo.is_null and member and bounded
    return OrderNullVerdict(
        "order-null-evidence" if ok else "not-order-null",
        uo,
        sup_full,
        stabilized,
        member,
    )


@dataclass(frozen=True)
class DisjointVerdict:
    disjoint: bool
    witness: tuple[int, int] | None = None


def is_disjoint(s: VectorSequence) -> DisjointVerdict:
    """Exact check that |x_n| ^ |x_m| = 0 for all n < m, by a sweep over supports.

    ``abs`` keeps the coordinates that settle the tail's sign in its
    prefix, so every coordinate of |x| is at least 0, and values are read
    as ``meet`` reads them, from ``head``.  Each element has one support
    set, its nonzero coordinates up to ``reach``, the longest prefix of the
    sequence: those of its prefix when its tail is zero, else those of
    ``head(reach)``.  Past ``reach`` only tails are nonzero, so two
    elements overlap iff their support sets meet or both tails are
    nonzero.

    The witness is the lexicographically first overlapping pair (i, j).
    The sweep visits j in order and finds the smallest earlier i that
    overlaps it, from the first element holding each coordinate and the
    first element with a nonzero tail; the first j reaching the overall
    smallest i is the witness's j.
    """
    if s.horizon < 2:
        raise ValueError("horizon must be >= 2")
    absolute = [abs(x) for x in s.elements]
    reach = max(len(ax.prefix) for ax in absolute)
    first: dict[int, int] = {}  # coordinate -> first element with it in its support
    first_tailed = None  # first element with a nonzero tail
    witness = None
    for j, ax in enumerate(absolute):
        values = ax.prefix if ax.tail.is_zero else ax.head(reach)
        support = [k for k, v in enumerate(values, start=1) if v != 0.0]
        hits = [first[k] for k in support if k in first]
        if not ax.tail.is_zero:
            if first_tailed is not None:
                hits.append(first_tailed)
            else:
                first_tailed = j
        if hits and (witness is None or min(hits) < witness[0]):
            witness = (min(hits), j)
        for k in support:
            first.setdefault(k, j)
    if witness is None:
        return DisjointVerdict(True, None)
    return DisjointVerdict(False, (witness[0] + 1, witness[1] + 1))


@dataclass(frozen=True)
class OcPartVerdict:
    member: bool
    witness_blocks: tuple[TailVector, ...] = ()
    witness_norm_bound: float = 0.0


def oc_part_membership(x: TailVector, m: SpaceModel) -> OcPartVerdict:
    """Membership of x in the order-continuous part of the model.

    l1 and c0 are order continuous, so every member qualifies.  In
    l-infinity the order-continuous part is c0: a non-vanishing tail
    yields an explicit disjoint sequence inside [0, |x|] whose sup-norms
    stay bounded away from 0.
    """
    if not membership(x, m):
        raise ValueError(f"x is not a member of {m.value}")
    if m is not SpaceModel.ELL_INFTY or x.tail.vanishes:
        return OcPartVerdict(True)
    ax = abs(x)
    values = [ax.tail.value(j) for j in range(8)]
    blocks = tuple(TailVector.unit(len(ax.prefix) + 1 + j, v) for j, v in enumerate(values))
    return OcPartVerdict(False, blocks, min(values))


def uo_dual_expected(m: SpaceModel) -> SpaceModel:
    """The sequence space whose members are exactly the boundedly
    uo-continuous functionals on the model."""
    return {
        SpaceModel.ELL1: SpaceModel.C0,
        SpaceModel.C0: SpaceModel.ELL1,
        SpaceModel.ELL_INFTY: SpaceModel.ELL1,
    }[m]


# -- falsification search over norm-bounded disjoint families ----------------

_DUAL_DELTA = 1e-6
# the budgets uo_dual_test takes; the cap bounds a family's entries (at most
# about 10,500, for the dyadic blocks, 0.25 MB as three arrays), and up to
# 64 families stay cached
MIN_BUDGET, MAX_BUDGET = 100, 1000


def _unit_vector_family(m: SpaceModel, budget: int, seed: int):
    return [(n, [1.0]) for n in range(budget)]


def _dyadic_block_family(m: SpaceModel, budget: int, seed: int):
    out = []
    pos = 0
    for n in range(budget):
        length = 2 ** (n % 6)
        level = 1.0 / length if m is SpaceModel.ELL1 else 1.0
        out.append((pos, [level] * length))
        pos += length
    return out


def _random_block_family(m: SpaceModel, budget: int, seed: int):
    rng = random.Random(seed)
    out = []
    pos = 0
    for _ in range(budget):
        pos += rng.randrange(0, 3)
        length = rng.randrange(1, 9)
        raw = [rng.uniform(0.2, 1.0) * rng.choice((-1.0, 1.0)) for _ in range(length)]
        scale = math.fsum(abs(v) for v in raw) if m is SpaceModel.ELL1 else max(abs(v) for v in raw)
        out.append((pos, [v / scale for v in raw]))
        pos += length
    return out


_FAMILIES = (
    ("unit-vectors", _unit_vector_family),
    ("dyadic-blocks", _dyadic_block_family),
    ("random-blocks", _random_block_family),
)


@lru_cache(maxsize=64)
def _family_entries(family: str, model: SpaceModel, budget: int, seed: int):
    """A family's nonzero entries as flat arrays: element index, coordinate, value.

    A builder gives one block per element, its first 0-based coordinate and
    its values, in increasing coordinate order.
    """
    blocks = dict(_FAMILIES)[family](model, budget, seed)
    element = np.repeat(np.arange(budget), [len(vals) for _, vals in blocks])
    coordinate = np.array([start + k for start, vals in blocks for k in range(len(vals))])
    value = np.array([v for _, vals in blocks for v in vals])
    return element, coordinate, value


@dataclass(frozen=True)
class UoDualVerdict:
    verdict: str  # "consistent" | "violated"
    generator: str | None = None
    witness_indices: tuple[int, ...] = ()
    witness_values: tuple[float, ...] = ()
    delta: float = _DUAL_DELTA
    seed: int = 0
    budget: int = 0

    @property
    def consistent(self) -> bool:
        return self.verdict == "consistent"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "generator": self.generator,
            "witness": list(self.witness_indices),
            "witness_values": list(self.witness_values),
            "delta": self.delta,
            "seed": self.seed,
            "budget": self.budget,
        }


def uo_dual_test(phi: TailVector, m: SpaceModel, budget: int, seed: int) -> UoDualVerdict:
    """Falsification search for bounded uo-continuity of a functional.

    Generates norm-bounded disjoint sequences (unit vectors, dyadic
    blocks, seeded random blocks) and watches |phi(x_n)|.  Each element is
    one finite block, a first coordinate and its values, so x_n pairs with
    phi over the block alone.  A functional outside the uo-dual keeps some
    subsequence away from 0; we flag a violation when at least half of the
    last quarter of pairings exceed delta = 1e-6.  Families are scanned in
    a fixed deterministic order, and the witness is exact and replayable
    from the seed.  ``budget``, the number of elements per family, lies in
    [100, 1000].
    """
    if not MIN_BUDGET <= budget <= MAX_BUDGET:
        raise ValueError(f"budget must lie in [{MIN_BUDGET}, {MAX_BUDGET}], got {budget}")
    if m in (SpaceModel.C0, SpaceModel.ELL_INFTY) and not phi.tail.vanishes:
        raise FunctionalNotBounded(
            f"functional with non-vanishing tail is unbounded on the {m.value} unit ball"
        )

    for family_name, _ in _FAMILIES:
        # the deterministic families do not depend on the seed; share them
        cache_seed = seed if family_name == "random-blocks" else 0
        element, coordinate, value = _family_entries(family_name, m, budget, cache_seed)
        reach = int(coordinate[-1]) + 1
        values = np.bincount(element, value * phi.head(reach)[coordinate], minlength=budget)
        tail_start = 3 * budget // 4
        tail_vals = np.abs(values[tail_start:])
        hits = np.nonzero(tail_vals >= _DUAL_DELTA)[0]
        if 2 * len(hits) >= len(tail_vals):
            idx = tuple(int(i) + tail_start + 1 for i in hits[:8])
            vals = tuple(float(values[i - 1]) for i in idx)
            return UoDualVerdict("violated", family_name, idx, vals, _DUAL_DELTA, seed, budget)
    return UoDualVerdict("consistent", None, (), (), _DUAL_DELTA, seed, budget)
