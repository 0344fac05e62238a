"""Lower-semicontinuity checks along norm-bounded a.e.-convergent sequences,
canonical test sequences, and extraction of a.e.-convergent subsequences.

Sequences live on dyadic refinements of [0, 1].  The generators cover the
standard phenomena: spikes (norm-bounded, a.e. null, expectation 1),
typewriter blocks (norm-null, nowhere convergent), oscillation (no a.e.
limit, constant distance from 0), and constants.

``extract_ae_subsequence`` realises the constructive step that turns a
sequence converging to the limit in a strictly positive weighted L1 sense
into an a.e.-convergent subsequence: indices are chosen greedily so the
k-th certificate integral is at most 2**-k, which makes the certificate
series summable; the pointwise verdict then re-checks convergence at
every cell of the finest generated level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convex import ConvexFunctional, UnknownName
from .measure import (
    ProbabilitySpace,
    RandomVariable,
    check_tol,
    common_refinement,
    integrate,
    refine,
)
from .orlicz import OrliczFunction, luxemburg_norm

__all__ = [
    "ExtractionResult",
    "ExtractionStalled",
    "LscReport",
    "NormBoundReport",
    "NotConvergent",
    "NotNormBounded",
    "TestSequence",
    "UnknownName",
    "check_bounded_uo_lsc",
    "extract_ae_subsequence",
    "generate",
    "verify_norm_bounded",
]


# distance from the limit above which a cell counts as visited in the a.e. check
_AE_TOL = 1e-9
# L1 norm above which an element breaks the norm-boundedness hypothesis of the lsc check
_NORM_BOUND = 1e6
# the shortest and the longest horizon the checks below take: the lsc
# check's work grows with the square of the horizon
MIN_N_MAX = 16
MAX_N_MAX = 4_096


class NotConvergent(ValueError):
    """The sequence has no declared limit to compare against."""


class NotNormBounded(RuntimeError):
    """Sequence norms exceed the configured bound; the hypothesis fails."""


class ExtractionStalled(RuntimeError):
    """No remaining index meets the current certificate bound."""


@dataclass(frozen=True, eq=False)
class TestSequence:
    """A sequence of random variables on dyadic spaces, 1-indexed.

    ``generator`` must return element n on a space of level at least
    ceil(log2 n).  ``declared_limit`` is None for a sequence with no
    almost everywhere limit.
    """

    name: str
    generator: callable
    declared_limit: RandomVariable | None = None

    def element(self, n: int) -> RandomVariable:
        if n < 1:
            raise ValueError("elements are 1-indexed")
        return self.generator(n)


def _level(n: int) -> int:
    """The smallest level L with 2**L >= n, by integer arithmetic only."""
    return (n - 1).bit_length()


def _spike_element(n: int) -> RandomVariable:
    """n * indicator of [0, 1/n], realised with an exact unit integral.

    The boundary cell carries the exact dyadic remainder of the mass, so
    the integral equals 1 for every n, not only for powers of two.
    """
    level = _level(n)
    cells = 2**level
    width = 2.0**-level
    full = cells // n
    values = np.zeros(cells)
    values[:full] = float(n)
    remainder = 1.0 - full * n * width
    if remainder > 0.0 and full < cells:
        values[full] = remainder / width
    return RandomVariable(ProbabilitySpace.dyadic(level), values)


def _typewriter_element(n: int) -> RandomVariable:
    """Stage k = floor(log2 n) sweeps 2**k blocks of width 2**-k.

    The within-stage start position rotates with the stage index, so the
    subsequence picked by the greedy certificate extraction (the first
    index of each stage) moves across [0, 1] instead of nesting at 0.
    Every stage still sweeps every block exactly once, so every cell is
    hit once per stage and the full sequence converges nowhere.
    """
    k = n.bit_length() - 1
    i = n - 2**k
    block = (i + k) % (2**k) if k > 0 else 0
    level = _level(n)  # k, or k + 1 when n is not a power of two
    width = 2 ** (level - k)
    values = np.zeros(2**level)
    values[block * width : (block + 1) * width] = 1.0
    return RandomVariable(ProbabilitySpace.dyadic(level), values)


def _oscillating_element(n: int) -> RandomVariable:
    level = max(1, _level(n))
    cells = 2**level
    values = np.zeros(cells)
    values[: cells // 2] = -1.0 if n % 2 else 1.0
    return RandomVariable(ProbabilitySpace.dyadic(level), values)


def generate(name: str, limit_value: RandomVariable | None = None) -> TestSequence:
    """Canonical test sequences by name.

    spike       n * 1_[0,1/n]; limit 0, L1 norm exactly 1.
    typewriter  sweeping indicator blocks; no a.e. limit (no declared limit).
    oscillating (-1)^n * 1_[0,1/2]; no a.e. limit (no declared limit).
    constant    constant sequence equal to ``limit_value``.
    """
    zero = RandomVariable.zero(ProbabilitySpace.dyadic(0))
    if name == "spike":
        return TestSequence("spike", _spike_element, zero)
    if name == "typewriter":
        return TestSequence("typewriter", _typewriter_element)
    if name == "oscillating":
        return TestSequence("oscillating", _oscillating_element)
    if name == "constant":
        if limit_value is None:
            raise NotConvergent("constant sequence needs limit_value")
        f = limit_value

        def element(n: int, f=f) -> RandomVariable:
            if f.space.level is not None and 2**f.space.level < n:
                return refine(f, _level(n))
            return f

        return TestSequence("constant", element, f)
    raise UnknownName(f"no sequence generator named {name!r}")


@dataclass(frozen=True, eq=False)
class LscReport:
    """Finite-horizon comparison of rho at the limit with liminf rho(f_n)."""

    name: str
    n_max: int
    values: tuple[float, ...]
    liminf: float
    rho_at_limit: float
    verdict: str  # "satisfied-evidence" | "violated"
    tol: float

    @property
    def violated(self) -> bool:
        return self.verdict == "violated"


def _check_n_max(n_max: int) -> None:
    if not MIN_N_MAX <= n_max <= MAX_N_MAX:
        raise ValueError(f"n_max must lie in [{MIN_N_MAX}, {MAX_N_MAX}]")


def check_bounded_uo_lsc(
    rho: ConvexFunctional,
    s: TestSequence,
    n_max: int,
    tol: float,
) -> LscReport:
    """Test rho(limit) <= liminf rho(f_n) along a norm-bounded sequence.

    The liminf at a finite horizon is estimated as the minimum over the
    last half of the evaluated indices; tol separates a genuine violation
    from estimation noise.  The L1 norms of the elements must stay below
    1e6, otherwise the boundedness hypothesis fails (NotNormBounded) and
    the comparison would be meaningless.
    """
    _check_n_max(n_max)
    check_tol(tol)
    if s.declared_limit is None:
        raise NotConvergent(f"sequence {s.name!r} has no declared limit")
    values = []
    for n in range(1, n_max + 1):
        f = s.element(n)
        l1 = integrate(f.abs())
        if l1 > _NORM_BOUND:
            raise NotNormBounded(f"element {n} has L1 norm {l1:g} > bound {_NORM_BOUND:g}")
        values.append(rho.evaluate(f))
    liminf = min(values[n_max // 2 :])
    at_limit = rho.evaluate(s.declared_limit)
    verdict = "violated" if at_limit > liminf + tol else "satisfied-evidence"
    return LscReport(s.name, n_max, tuple(values), liminf, at_limit, verdict, tol)


@dataclass(frozen=True, eq=False)
class ExtractionResult:
    """Extracted indices with their certificates and the pointwise verdict.

    ``certificates[k-1] <= 2**-k`` holds for every position k by
    construction and can be re-checked from the report.  The a.e. verdict
    records, for every cell of the finest generated level, whether the
    extracted values converge to the limit there; a cell tolerates visits
    in fewer than half of the last-half positions, since the final
    extracted element always covers some cell.
    """

    indices: tuple[int, ...]
    certificates: tuple[float, ...]
    level: int
    ae_ok: bool
    failing_cells: tuple[int, ...]


def extract_ae_subsequence(
    s: TestSequence,
    phi_weight: RandomVariable | None,
    limit: RandomVariable | None,
    n_max: int,
) -> ExtractionResult:
    """Greedy extraction of a fast-converging subsequence, then an a.e. check.

    The certificate of index n is the integral of |f_n - limit| against the
    strictly positive weight; position k demands a certificate at most
    2**-k, and the smallest qualifying index after the previous pick is
    taken.  If qualifying indices run out before the horizon is exhausted,
    the weighted distances are not tending to 0 and ExtractionStalled is
    raised.  Summability of the certificates is what forces almost
    everywhere convergence; the verdict re-checks it cell by cell, where
    a distance above 1e-9 counts as a visit.
    """
    _check_n_max(n_max)
    if limit is None:
        limit = s.declared_limit
    if limit is None:
        raise NotConvergent(f"sequence {s.name!r} has no declared limit; pass one explicitly")
    if phi_weight is None:
        phi_weight = RandomVariable.ones(ProbabilitySpace.dyadic(0))
    if not (phi_weight.array > 0.0).all():
        raise ValueError("phi_weight must be strictly positive at every point")

    refined = {}  # element level -> the common space, and limit and weight values there

    def certificate(f: RandomVariable) -> float:
        """``pairing(|f - limit|, phi_weight)`` bit for bit, refining limit and weight once per level."""
        if f.space.level not in refined:
            _, lim = common_refinement(f, limit)
            lim, weight = common_refinement(lim, phi_weight)
            refined[f.space.level] = (lim.space, lim.array, weight.array)
        space, lim, weight = refined[f.space.level]
        if f.space != space:
            f = refine(f, space.level)
        return math.fsum((np.abs(f.array - lim) * weight * space.weights).tolist())

    indices: list[int] = []
    certificates: list[float] = []
    chosen: list[RandomVariable] = []
    prev = 0
    k = 1
    while prev < n_max:
        bound = 2.0**-k
        pick = None
        for n in range(prev + 1, n_max + 1):
            f = s.element(n)
            c = certificate(f)
            if c <= bound:
                pick = (n, c, f)
                break
        if pick is None:
            raise ExtractionStalled(
                f"no index in ({prev}, {n_max}] has certificate <= 2**-{k}; "
                "the weighted distances do not tend to 0"
            )
        prev, cert, f = pick
        indices.append(prev)
        certificates.append(cert)
        chosen.append(f)
        k += 1

    level = max([limit.space.level or 0] + [f.space.level or 0 for f in chosen])
    lim_fine = refine(limit, level) if limit.space.level is not None else limit
    diffs = np.array([np.abs(refine(f, level).array - lim_fine.array) for f in chosen])
    half = len(indices) // 2
    tail_rows = diffs[half:]
    violations = (tail_rows > _AE_TOL).sum(axis=0)
    allowed = tail_rows.shape[0] / 2.0
    failing = tuple(int(c) for c in np.nonzero(violations > allowed)[0])
    return ExtractionResult(tuple(indices), tuple(certificates), level, not failing, failing)


@dataclass(frozen=True, eq=False)
class NormBoundReport:
    """Running Luxemburg norms of the sequence and a boundedness verdict."""

    norms: tuple[float, ...]
    bound: float
    verdict: str  # "bounded" | "unbounded-evidence"


def verify_norm_bounded(
    s: TestSequence,
    phi: OrliczFunction,
    n_max: int,
    tol: float = 1e-6,
) -> NormBoundReport:
    """Max Luxemburg norm over the horizon, flagging monotone growth.

    The flag is evidence only: the running maximum growing through the
    last quarter of the horizon (beyond bisection noise) suggests the
    sequence is not norm bounded under this Orlicz function.
    """
    _check_n_max(n_max)
    norms = [luxemburg_norm(s.element(n), phi, tol).value for n in range(1, n_max + 1)]
    running = np.maximum.accumulate(norms)
    q = max(1, n_max // 4)
    grew = running[-1] > running[-q] * (1.0 + 1e-3) + 10.0 * tol
    return NormBoundReport(
        tuple(norms), float(running[-1]), "unbounded-evidence" if grew else "bounded"
    )
