"""Finite probability spaces and random variables with exact integration.

Nonatomic behaviour is approximated by dyadic refinements of [0, 1]: a
dyadic space at level L has 2**L equal cells, and refining a random
variable replicates cell values across subcells, so integrals are
preserved exactly.  General weighted spaces are supported but cannot be
refined.  All types are immutable and all operations are pure.

A space's weights and a variable's values are read-only float64 arrays, so
refinement and the pointwise operations are single numpy calls; integrals
and pairings stay exact by compensated summation of the elementwise
products.  Dyadic spaces are built and validated once per level and then
shared: ``ProbabilitySpace.dyadic(L)`` returns the same object every time.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "IncompatibleSpaces",
    "NotDyadic",
    "ProbabilitySpace",
    "RandomVariable",
    "common_refinement",
    "integrate",
    "pairing",
    "refine",
]

_WEIGHT_TOL = 1e-12

# dyadic spaces kept alive by ProbabilitySpace.dyadic; a level-13 space
# holds 8,192 weights, 64 KB
_DYADIC_CACHE = 32


class IncompatibleSpaces(ValueError):
    """Neither random variable's space refines to the other's."""


class NotDyadic(ValueError):
    """Operation requires a dyadic discretisation of [0, 1]."""


def check_tol(tol: float, positive: bool = False) -> None:
    """Raise ValueError unless ``tol >= 0``, or ``tol > 0`` when ``positive``; NaN fails both."""
    if not (tol > 0 if positive else tol >= 0):
        raise ValueError(f"tol must be {'>' if positive else '>='} 0, got {tol!r}")


@dataclass(frozen=True, eq=False)
class ProbabilitySpace:
    """Finite weighted sample space.

    ``weights`` is a read-only float64 copy of the probabilities given, one
    per point, finite, > 0 and summing to one within 1e-12; spaces with equal
    weights and ``level`` are equal.  ``level`` is set only for dyadic
    discretisations of [0, 1]: exactly ``2**level`` cells of weight ``2**-level``.
    """

    weights: np.ndarray
    level: int | None = None

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or not w.size:
            raise ValueError("weights must be a nonempty sequence of reals")
        bad = ~(np.isfinite(w) & (w > 0.0))
        if bad.any():
            raise ValueError(f"weights must be finite and > 0, got {w[bad][0]}")
        total = math.fsum(w)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"weights sum to {total!r}, not 1 within 1e-12")
        if self.level is not None:
            n, cell = 2**self.level, 2.0**-self.level
            if w.size != n or (w != cell).any():
                raise ValueError(f"dyadic space at level {self.level} needs {n} cells of weight {cell}")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @classmethod
    def dyadic(cls, level: int) -> ProbabilitySpace:
        """The 2**level equal cells of [0, 1); one shared object per level."""
        return _dyadic(operator.index(level))

    @classmethod
    def uniform(cls, n: int) -> ProbabilitySpace:
        """n equally likely points (not refinable: no dyadic level)."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return cls(np.full(n, 1.0 / n))

    @property
    def size(self) -> int:
        return self.weights.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProbabilitySpace):
            return NotImplemented
        return self is other or (self.level == other.level and np.array_equal(self.weights, other.weights))

    def __hash__(self) -> int:
        # weights are > 0, so equal arrays have equal bytes
        return hash((self.level, self.weights.tobytes()))


@lru_cache(maxsize=_DYADIC_CACHE)
def _dyadic(level: int) -> ProbabilitySpace:
    if level < 0:
        raise ValueError("level must be >= 0")
    return ProbabilitySpace(np.full(2**level, 2.0**-level), level)


@dataclass(frozen=True, eq=False)
class RandomVariable:
    """Real values on the point set of a probability space.

    ``array`` is a read-only float64 copy of the values given, one per
    sample point, all finite.  The constructor accepts any sequence or
    array of reals.  Two variables are equal when their spaces are equal
    and their values compare equal; ``values`` gives the values as a tuple.
    """

    space: ProbabilitySpace
    array: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.array, dtype=float)
        if arr.shape != (self.space.size,):
            raise ValueError("one value per sample point required")
        if not np.isfinite(arr).all():
            raise ValueError("values must be finite (no NaN or infinity)")
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    @classmethod
    def from_values(cls, space: ProbabilitySpace, values) -> RandomVariable:
        return cls(space, values)

    @classmethod
    def constant(cls, space: ProbabilitySpace, c: float) -> RandomVariable:
        return cls(space, np.full(space.size, float(c)))

    @classmethod
    def zero(cls, space: ProbabilitySpace) -> RandomVariable:
        return cls.constant(space, 0.0)

    @classmethod
    def ones(cls, space: ProbabilitySpace) -> RandomVariable:
        return cls.constant(space, 1.0)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self.array.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, RandomVariable):
            return NotImplemented
        return self.space == other.space and bool(np.array_equal(self.array, other.array))

    def __hash__(self) -> int:
        return hash((self.space, self.values))

    def abs(self) -> RandomVariable:
        return RandomVariable(self.space, np.abs(self.array))

    def __add__(self, other: RandomVariable) -> RandomVariable:
        f, g = common_refinement(self, other)
        with np.errstate(over="ignore"):
            return RandomVariable(f.space, f.array + g.array)

    def __sub__(self, other: RandomVariable) -> RandomVariable:
        f, g = common_refinement(self, other)
        with np.errstate(over="ignore"):
            return RandomVariable(f.space, f.array - g.array)

    def __mul__(self, scalar: float) -> RandomVariable:
        with np.errstate(over="ignore", invalid="ignore"):
            return RandomVariable(self.space, float(scalar) * self.array)

    __rmul__ = __mul__


def integrate(f: RandomVariable) -> float:
    """Expectation of ``f``: the weighted sum of its values.

    Computed with compensated summation so the result does not depend on
    incidental evaluation order and refinement preserves it exactly.
    """
    return math.fsum((f.array * f.space.weights).tolist())


def refine(f: RandomVariable, level: int) -> RandomVariable:
    """Replicate each cell value of a dyadic variable down to ``level``."""
    if f.space.level is None:
        raise NotDyadic("only dyadic spaces can be refined")
    if level < f.space.level:
        raise ValueError(f"cannot refine level {f.space.level} down to {level}")
    if level == f.space.level:
        return f
    space = ProbabilitySpace.dyadic(level)
    return RandomVariable(space, np.repeat(f.array, 2 ** (space.level - f.space.level)))


def common_refinement(f: RandomVariable, g: RandomVariable) -> tuple[RandomVariable, RandomVariable]:
    """Bring two variables onto one space, refining dyadic levels as needed."""
    if f.space == g.space:
        return f, g
    if f.space.level is not None and g.space.level is not None:
        level = max(f.space.level, g.space.level)
        return refine(f, level), refine(g, level)
    raise IncompatibleSpaces("variables live on different spaces and at least one is not dyadic")


def pairing(f: RandomVariable, g: RandomVariable) -> float:
    """The bilinear duality pairing: the integral of the product f*g."""
    f, g = common_refinement(f, g)
    return math.fsum((f.array * g.array * f.space.weights).tolist())
