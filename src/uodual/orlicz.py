"""Orlicz functions, their exact conjugates, and Luxemburg norms.

An Orlicz function is convex, nondecreasing, vanishes at 0 and is not
identically 0.  The conjugate ``psi(t) = sup { s*t - phi(s) : s >= 0 }``
is read on a truncated s-range at an exact maximiser per t, by kind
(closed forms for power and exp phi, knots for sampled phi).  The Luxemburg norm
``inf { lam > 0 : E[phi(|f|/lam)] <= 1 }`` is bracketed by one walk from
sup|f| by factors of 2, which raises ModularDegenerate once it leaves the
positive finite floats, and then closed to width tol or to adjacent floats
by a safeguarded secant (Illinois regula falsi on log modular against
log lam); the upper bracket endpoint is returned, a conservative
over-estimate of the infimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import RandomVariable, check_tol

__all__ = [
    "DomainExceeded",
    "GridTooCoarse",
    "LuxemburgResult",
    "ModularDegenerate",
    "OrliczFunction",
    "conjugate",
    "luxemburg_norm",
]

_CONVEXITY_TOL = 1e-9
# the bend _check_convex allows per unit of |y| read: rounded samples of convex builtins bend by up to 1 eps
_ROUNDING = 4 * math.ulp(1.0)
# relative inset of a secant probe next to a bracket end: above the rounding
# of a modular of thousands of cells, whose log falls at least as fast as
# log lam (phi(s)/s is nondecreasing), so a probe this far past a secant
# point that lands on the norm has the modular on the other side of 1
_NEAR = 2.0**-40
# the coarsest and the finest grid conjugate takes: its arrays hold 2 * grid_size + 1 floats
MIN_GRID_SIZE = 64
MAX_GRID_SIZE = 65_536


class GridTooCoarse(RuntimeError):
    """The conjugate's t grid resolves nothing: its range is too narrow for its knots, or psi is 0 on it."""


class DomainExceeded(ValueError):
    """Argument lies beyond the function's trusted domain cap."""


class ModularDegenerate(RuntimeError):
    """The modular does not cross 1 at any positive finite scale the factor-2 walk reaches."""


def _check_convex(s: np.ndarray, y: np.ndarray, tol: float) -> np.ndarray:
    """The slopes of the samples y between the knots s, once they are found convex.

    Raise ValueError at the first inner knot s where the slope after s,
    times the step before s, falls below the steepest slope before s times
    that step by more than ``tol * max(1, |y|)`` plus a rounding allowance,
    ``_ROUNDING`` (4 eps) times each of the three |y| it reads.  Measured
    from the running maximum, not the previous slope, slow bends add up and
    are refused once their sum passes that bound.
    """
    steps = np.diff(s)
    slopes = np.diff(y) / steps
    rounding = _ROUNDING * np.abs(y)  # scaled before the three are added, which could overflow
    allowed = tol * np.maximum(1.0, np.abs(y[1:-1])) + rounding[:-2] + rounding[1:-1] + rounding[2:]
    bent = (np.maximum.accumulate(slopes[:-1]) - slopes[1:]) * steps[:-1] > allowed
    if np.any(bent):
        raise ValueError(f"sampled values violate convexity on the grid at s={s[1 + np.argmax(bent)]:.6g}")
    return slopes


@dataclass(frozen=True, eq=False)
class OrliczFunction:
    """Convex nondecreasing function with phi(0) = 0.

    Three kinds: ``power`` (scale * s**p), ``exp`` (exp(rate*s) - 1), and
    ``sampled`` (linear interpolation on a strictly increasing grid, linear
    extrapolation beyond the last knot), whose knots ``grid_s`` and
    ``grid_y`` are read-only float64 arrays; equality goes by value.
    ``domain_cap`` marks the largest argument with a trusted value; sampled
    functions are extrapolated but not trusted beyond it.
    """

    kind: str
    p: float = 1.0
    scale: float = 1.0
    rate: float = 1.0
    grid_s: np.ndarray | None = None
    grid_y: np.ndarray | None = None
    domain_cap: float = math.inf

    def __post_init__(self) -> None:
        for name in ("grid_s", "grid_y"):
            knots = getattr(self, name)
            if knots is not None:
                knots = np.array(knots, dtype=float)
                knots.flags.writeable = False
                object.__setattr__(self, name, knots)

    @classmethod
    def power(cls, p: float, scale: float = 1.0) -> OrliczFunction:
        if not 1 <= p < math.inf:
            raise ValueError("power exponent must be finite and >= 1 for convexity")
        if not 0 < scale < math.inf:
            raise ValueError("scale must be finite and > 0")
        return cls("power", p=float(p), scale=float(scale))

    @classmethod
    def exponential(cls, rate: float = 1.0) -> OrliczFunction:
        if not 0 < rate < math.inf:
            raise ValueError("rate must be finite and > 0")
        # exp overflows past ~709/rate; cap the trusted range accordingly
        return cls("exp", rate=float(rate), domain_cap=700.0 / rate)

    @classmethod
    def sampled(cls, grid_s, grid_y, domain_cap: float | None = None) -> OrliczFunction:
        s = np.array(grid_s, dtype=float)
        y = np.array(grid_y, dtype=float)
        if s.ndim != 1 or s.shape != y.shape or s.size < 2:
            raise ValueError("sampled grid needs at least two matching knots")
        for name, knots in (("abscissae", s), ("values", y)):
            if not np.isfinite(knots).all():
                raise ValueError(f"sample {name} must be finite (no NaN or infinity)")
        if not (np.diff(s) > 0.0).all():
            raise ValueError("sample abscissae must be strictly increasing")
        cap = float(s[-1]) if domain_cap is None else float(domain_cap)
        if not cap >= 0.0:
            raise ValueError(f"domain_cap must be >= 0, got {cap!r}")
        if s[0] != 0.0 or abs(y[0]) > 1e-12:
            raise ValueError("sampled Orlicz function must start at phi(0) = 0")
        if np.any(np.diff(y) < -1e-12 * max(1.0, float(np.max(np.abs(y))))):
            raise ValueError("sampled values must be nondecreasing")
        if np.max(y) <= 0.0:
            raise ValueError("Orlicz function must not be identically 0")
        _check_convex(s, y, _CONVEXITY_TOL)
        return cls("sampled", grid_s=s, grid_y=y, domain_cap=cap)

    def _key(self) -> tuple:
        knots = (None if k is None else tuple(k.tolist()) for k in (self.grid_s, self.grid_y))
        return (self.kind, self.p, self.scale, self.rate, self.domain_cap, *knots)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OrliczFunction):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __call__(self, s):
        """Evaluate at s >= 0 (scalar or array); negative inputs are clipped to 0."""
        arr = np.maximum(np.asarray(s, dtype=float), 0.0)
        if self.kind == "power":
            out = self.scale * arr**self.p
        elif self.kind == "exp":
            with np.errstate(over="ignore"):
                out = np.expm1(self.rate * arr)
        elif self.kind == "sampled":
            gs, gy = self.grid_s, self.grid_y
            out = np.interp(arr, gs, gy)
            # np.interp clamps; extend the last segment linearly instead
            last_slope = (gy[-1] - gy[-2]) / (gs[-1] - gs[-2])
            beyond = arr > gs[-1]
            if np.any(beyond):  # a zero slope is kept off overflowing arguments: 0 * inf is NaN
                extended = gy[-1] + last_slope * (arr - gs[-1]) if last_slope else np.full_like(out, gy[-1])
                out = np.where(beyond, extended, out)
        else:  # pragma: no cover - kinds are fixed by the constructors
            raise ValueError(f"unknown kind {self.kind!r}")
        return float(out) if np.isscalar(s) or np.ndim(s) == 0 else out

    def describe(self) -> str:
        if self.kind == "power":
            return f"{self.scale:g}*s^{self.p:g}"
        if self.kind == "exp":
            return f"exp({self.rate:g}*s)-1"
        return f"sampled[{len(self.grid_s)} knots, cap {self.domain_cap:g}]"


@dataclass(frozen=True)
class LuxemburgResult:
    """Outcome of a Luxemburg norm computation.

    ``value`` is the upper endpoint of the final bracket (0 for the zero
    vector), so the modular at ``value`` is always <= 1.
    """

    value: float
    bracket: tuple[float, float]
    modular_at_value: float


def _grid_maximum(t_grid: np.ndarray, s_grid: np.ndarray, phi_s: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """Per t, the index of the maximum of ``t*s_k - phi_s[k]`` over the knots ``s_grid``.

    The row rises up to the knot where the running maximum of the sample
    ``slopes`` first reaches t, and falls from the knot where their running
    minimum from the right passes t; the maximiser lies between the two,
    each found by one ``searchsorted`` of t.  On convex samples they are
    one knot (Lucet's linear-time Legendre transform).  Each row is
    evaluated as t*s_grid - phi_s over that knot +-2 knots, widened to
    every knot between the two or whose slope lies within rounding of t,
    so float ties (collinear runs) settle on the first index, as an argmax
    over every s_k would.
    """
    last_knot, s_max = s_grid.size - 1, s_grid[-1]
    # slope band: t*s - phi rounds at about eps * (|phi| + |t| s_max), so a
    # slope nearer t than that over the shortest step can hide a float tie
    tie = 1e-12 * (np.max(np.abs(phi_s)) + np.max(np.abs(t_grid)) * s_max) / np.min(np.diff(s_grid))
    first = np.searchsorted(np.maximum.accumulate(slopes), t_grid - tie)
    last = np.searchsorted(np.minimum.accumulate(slopes[::-1])[::-1], t_grid + tie, side="right")
    window = np.clip(first[:, None] + np.arange(-2, 3), 0, last_knot)
    near = t_grid[:, None] * s_grid[window] - phi_s[window]
    arg = window[np.arange(t_grid.size), np.argmax(near, axis=1)]
    for i in np.flatnonzero(first != last):
        a, b = max(first[i] - 2, 0), min(last[i] + 2, last_knot)
        arg[i] = a + np.argmax(t_grid[i] * s_grid[a : b + 1] - phi_s[a : b + 1])
    return arg


def _maximisers(phi: OrliczFunction, t_grid: np.ndarray, s_max: float, tol: float):
    """Per t, a maximiser s* of ``t*s - phi(s)`` on [0, s_max], and phi(s*), exactly by kind.

    For sampled phi, linear between its knots, s* is the best of its knots
    below s_max and s_max itself, which takes the slope of its segment: its
    rounded value, a short step past a knot, can bend far more.
    """
    if phi.kind == "sampled":
        below = np.searchsorted(phi.grid_s, s_max)
        slopes = _check_convex(phi.grid_s[: below + 1], phi.grid_y[: below + 1], tol)
        s = np.append(phi.grid_s[:below], s_max)
        y = np.asarray(phi(s))
        arg = _grid_maximum(t_grid, s, y, np.append(slopes, slopes[-1])[:below])
        return s[arg], y[arg]
    if phi.kind == "power":
        # phi'(s*) = t; for p = 1 the slope is c, which t stays below
        s = np.zeros_like(t_grid) if phi.p == 1 else (t_grid / (phi.scale * phi.p)) ** (1 / (phi.p - 1))
    else:  # exp: phi'(s*) = t, and s* = 0 where t is at most phi'(0) = a
        s = np.log(np.maximum(t_grid / phi.rate, 1.0)) / phi.rate
    s = np.minimum(s, s_max)  # s* >= 0 by construction
    return s, np.asarray(phi(s))


def conjugate(
    phi: OrliczFunction,
    s_max: float,
    grid_size: int,
    tol: float = 1e-6,
) -> OrliczFunction:
    """Legendre conjugate ``psi(t) = sup { s*t - phi(s) : 0 <= s <= s_max }``.

    The supremum over all s >= 0 is truncated at ``s_max``; the returned
    sampled function is therefore trusted only for t up to roughly the
    slope of phi at ``s_max`` (recorded as its domain cap).  Each of its
    2 * grid_size + 1 knots is ``t*s* - phi(s*)`` at an exact maximiser s*:
    the inverse of phi' for power and exp phi (their Young pairs), and for
    sampled phi a knot, which needs its knots convex up to s_max: ``tol``
    bounds the drop of each slope below the steepest before it, times the
    step, at ``tol * max(1, |phi|)`` plus a rounding allowance (power and
    exp are convex, and ``tol`` checks nothing for them).
    Refusals: GridTooCoarse when [0, t_max] cannot hold the knots strictly
    increasing (t_max <= 0 included) or psi is 0 on all of it (phi near
    linear up to ``s_max``), and ValueError naming the first knot where a
    sampled phi is not convex.
    """
    if not s_max > 0:
        raise ValueError("s_max must be > 0")
    if not MIN_GRID_SIZE <= grid_size <= MAX_GRID_SIZE:
        raise ValueError(f"grid_size must lie in [{MIN_GRID_SIZE}, {MAX_GRID_SIZE}]")
    check_tol(tol)
    h = s_max / grid_size
    slope = (phi(s_max) - phi(s_max - h)) / h
    if not math.isfinite(slope):
        raise DomainExceeded(f"phi overflows before s_max={s_max:g}; lower s_max")
    t_max = 0.95 * slope
    t_grid = np.linspace(0.0, t_max, 2 * grid_size + 1)
    if not np.all(np.diff(t_grid) > 0.0):
        raise GridTooCoarse(f"conjugate range [0, t_max={t_max:.6g}] is too narrow for grid_size={grid_size}")
    s, phi_s = _maximisers(phi, t_grid, s_max, tol)
    values = np.maximum(t_grid * s - phi_s, 0.0)
    if np.max(values) <= 0.0:  # t_max is at most the slope of phi at 0
        raise GridTooCoarse(
            f"conjugate is 0 on its whole range [0, {t_max:.6g}]: phi is near linear up to s_max={s_max:g}"
        )
    return OrliczFunction.sampled(t_grid, values, domain_cap=t_max)


def _modular(abs_values: np.ndarray, weights: np.ndarray, phi: OrliczFunction, lam: float) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(phi(abs_values / lam))
    if np.any(np.isnan(vals)):
        return math.inf
    return float(np.dot(weights, vals))


def _log_modular(m: float) -> float:
    """log m, or NaN where m is 0 or inf and has no finite logarithm."""
    return math.log(m) if 0.0 < m < math.inf else math.nan


def luxemburg_norm(f: RandomVariable, phi: OrliczFunction, tol: float) -> LuxemburgResult:
    """Luxemburg norm of ``f``: the smallest scale lam with E[phi(|f|/lam)] <= 1.

    The modular lam -> M(lam) = E[phi(|f|/lam)] is nonincreasing, so one
    walk from sup|f| doubles lam while M is above 1 and halves it while it
    is at most 1, raising ModularDegenerate if lam reaches 0 or inf (about
    2,100 steps at most).  Its last two scales bracket the norm, lo with
    M > 1 and hi with M <= 1, and the bracket closes to width ``tol``, or
    to adjacent floats, by regula falsi on log M against log lam with the
    Illinois rule: exact in one step for power phi, where M is a power of
    lam.  Each probe lies at least one float, and a relative 2**-40 (at
    most tol/2), inside the bracket, so a secant point on the norm closes
    the bracket in one more step, and after a step that did not halve the
    bracket it lies tol/2 inside, so the side a secant leaves stale closes
    too.  The probe is the midpoint instead where a bracket end has M of 0
    or inf, or after three steps in a row that did not halve the bracket:
    every fourth step at the latest halves it, so closing the walk's
    bracket takes at most four evaluations per halving, where bisection
    takes one.  No scale is evaluated twice.  The returned value is the upper bracket
    endpoint.
    """
    check_tol(tol, positive=True)
    abs_values = np.abs(f.array)
    weights = f.space.weights
    if not np.any(abs_values > 0.0):
        return LuxemburgResult(0.0, (0.0, 0.0), 0.0)

    lam = float(np.max(abs_values))
    m = _modular(abs_values, weights, phi, lam)
    if m == 1.0:
        return LuxemburgResult(lam, (lam, lam), m)
    factor = 2.0 if m > 1.0 else 0.5
    while True:
        prev, m_prev, lam = lam, m, lam * factor
        if not 0.0 < lam < math.inf:
            raise ModularDegenerate(
                "modular stays above 1 for all probed scales"
                if factor > 1.0
                else "modular is <= 1 for every probed scale; phi vanishes on the range of |f|/lam"
            )
        m = _modular(abs_values, weights, phi, lam)
        if (m > 1.0) != (factor > 1.0):
            break
    # the two last scales, not lo and 2 * lo: halving a subnormal rounds
    (lo, m_lo), (hi, m_hi) = sorted(((prev, m_prev), (lam, m)))

    g_lo, g_hi = _log_modular(m_lo), _log_modular(m_hi)  # > 0 and <= 0 where finite
    moved = slow = 0  # the side the last probe moved (+1 lo, -1 hi), and steps in a row that did not halve
    while hi - lo > tol:
        mid = 0.5 * (lo + hi) if hi < 2.0**1023 else 0.5 * lo + 0.5 * hi  # lo + hi may overflow
        if not lo < mid < hi:  # lo and hi are adjacent floats
            break
        lam = mid
        if slow < 3 and g_lo > g_hi:  # False when either is NaN
            lam = lo * (hi / lo) ** (g_lo / (g_lo - g_hi))
            # at least one float inside each end (lo and hi are not adjacent), and a
            # relative _NEAR (at most tol/2), or tol/2 after a step that did not halve
            inset = 0.5 * tol if slow else min(0.5 * tol, _NEAR * hi)
            lam = max(lam, lo + inset, math.nextafter(lo, math.inf))
            lam = min(lam, hi - inset, math.nextafter(hi, 0.0))
        width = hi - lo
        m = _modular(abs_values, weights, phi, lam)
        if m > 1.0:
            if moved > 0:  # hi is stale: halve its log modular (Illinois)
                g_hi *= 0.5
            lo, g_lo, moved = lam, _log_modular(m), 1
        else:
            if moved < 0:
                g_lo *= 0.5
            hi, m_hi, g_hi, moved = lam, m, _log_modular(m), -1
        slow = 0 if lam == mid or hi - lo <= 0.5 * width else slow + 1
    return LuxemburgResult(hi, (lo, hi), m_hi)
