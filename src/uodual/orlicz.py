"""Orlicz functions, conjugates by numerical Legendre transform, and Luxemburg norms.

An Orlicz function is convex, nondecreasing, vanishes at 0 and is not
identically 0.  The conjugate ``psi(t) = sup { s*t - phi(s) : s >= 0 }``
is computed on a truncated s-range.  Its grid maximum comes from the
lower convex hull of the samples of phi and one ``searchsorted`` of t
into the hull slopes (linear in the grid size), and is then refined by
the section search of ``convex`` (the objective is concave in s, so each
row stops once concavity certifies its value).  The Luxemburg norm
``inf { lam > 0 : E[phi(|f|/lam)] <= 1 }`` is bracketed by
doubling/halving and then bisected; the upper bracket endpoint is
returned, a conservative over-estimate of the infimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .convex import section_max
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
# the coarsest grid conjugate takes
MIN_GRID_SIZE = 64


class GridTooCoarse(RuntimeError):
    """Grid refinement moved a conjugate value psi by more than ``tol * (1 + |psi|)``."""


class DomainExceeded(ValueError):
    """Argument lies beyond the function's trusted domain cap."""


class ModularDegenerate(RuntimeError):
    """The modular never straddles 1 over the probed scale range."""


@dataclass(frozen=True)
class OrliczFunction:
    """Convex nondecreasing function with phi(0) = 0.

    Three kinds: ``power`` (scale * s**p), ``exp`` (exp(rate*s) - 1), and
    ``sampled`` (linear interpolation on a strictly increasing grid, linear
    extrapolation beyond the last knot).  ``domain_cap`` marks the largest
    argument with a trusted value; sampled functions are extrapolated but
    not trusted beyond it.
    """

    kind: str
    p: float = 1.0
    scale: float = 1.0
    rate: float = 1.0
    grid_s: tuple[float, ...] | None = None
    grid_y: tuple[float, ...] | None = None
    domain_cap: float = math.inf

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
    def sampled(
        cls,
        grid_s,
        grid_y,
        domain_cap: float | None = None,
    ) -> OrliczFunction:
        s = tuple(float(v) for v in grid_s)
        y = tuple(float(v) for v in grid_y)
        if len(s) != len(y) or len(s) < 2:
            raise ValueError("sampled grid needs at least two matching knots")
        if any(b <= a for a, b in zip(s, s[1:])):
            raise ValueError("sample abscissae must be strictly increasing")
        fn = cls(
            "sampled",
            grid_s=s,
            grid_y=y,
            domain_cap=float(domain_cap) if domain_cap is not None else s[-1],
        )
        fn._validate_grid()
        return fn

    @cached_property
    def _knots(self) -> tuple[np.ndarray, np.ndarray]:
        """``grid_s`` and ``grid_y`` of a sampled function as read-only arrays."""
        s = np.array(self.grid_s, dtype=float)
        y = np.array(self.grid_y, dtype=float)
        s.flags.writeable = y.flags.writeable = False
        return s, y

    def _validate_grid(self) -> None:
        s, y = self._knots
        if s[0] != 0.0 or abs(y[0]) > 1e-12:
            raise ValueError("sampled Orlicz function must start at phi(0) = 0")
        if np.any(np.diff(y) < -1e-12 * max(1.0, float(np.max(np.abs(y))))):
            raise ValueError("sampled values must be nondecreasing")
        if np.max(y) <= 0.0:
            raise ValueError("Orlicz function must not be identically 0")
        # midpoint convexity on the grid: second differences of the slopes
        slopes = np.diff(y) / np.diff(s)
        scale = np.maximum(1.0, np.abs(y[1:-1]))
        if np.any(np.diff(slopes) * np.diff(s)[:-1] < -_CONVEXITY_TOL * scale):
            raise ValueError("sampled values violate convexity on the grid")

    def __call__(self, s):
        """Evaluate at s >= 0 (scalar or array); negative inputs are clipped to 0."""
        arr = np.asarray(s, dtype=float)
        arr = np.maximum(arr, 0.0)
        if self.kind == "power":
            out = self.scale * arr**self.p
        elif self.kind == "exp":
            with np.errstate(over="ignore"):
                out = np.expm1(self.rate * arr)
        elif self.kind == "sampled":
            gs, gy = self._knots
            out = np.interp(arr, gs, gy)
            # np.interp clamps; extend the last segment linearly instead
            last_slope = (gy[-1] - gy[-2]) / (gs[-1] - gs[-2])
            beyond = arr > gs[-1]
            if np.any(beyond):
                if last_slope == 0.0:  # avoid 0 * inf on overflowing arguments
                    extended = np.full_like(out, gy[-1])
                else:
                    extended = gy[-1] + last_slope * (arr - gs[-1])
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

    ``value`` is the upper endpoint of the final bisection bracket (0 for
    the zero vector), so the modular at ``value`` is always <= 1.
    """

    value: float
    bracket: tuple[float, float]
    modular_at_value: float


def _lower_hull(x: list[float], y: list[float]) -> list[int]:
    """Indices of the vertices of the lower convex hull of the points (x_k, y_k).

    One monotone-chain pass over abscissae in increasing order; a point on
    or above the chord of its neighbours is dropped, so the left end of a
    collinear run stays a vertex.
    """
    hull: list[int] = []
    for k, (xk, yk) in enumerate(zip(x, y)):
        while len(hull) >= 2:
            i, j = hull[-2], hull[-1]
            if (y[j] - y[i]) * (xk - x[i]) < (yk - y[i]) * (x[j] - x[i]):
                break
            hull.pop()
        hull.append(k)
    return hull


def _conjugate_values(phi: OrliczFunction, t_grid: np.ndarray, s_max: float, grid_size: int) -> np.ndarray:
    s_grid = np.linspace(0.0, s_max, grid_size + 1)
    phi_s = np.asarray(phi(s_grid))
    # The grid maximiser of t*s_k - phi_s[k] is the lower-hull vertex where
    # the hull slopes first reach t (Lucet's linear-time Legendre transform).
    # Each row is then evaluated as t*s_grid - phi_s over that vertex +-2
    # grid points, widened to every vertex whose slope lies within rounding
    # of t, so float ties (collinear runs) settle on the first index, as an
    # argmax over every s_k would.
    hull = np.array(_lower_hull(s_grid.tolist(), phi_s.tolist()))
    slopes = np.maximum.accumulate(np.diff(phi_s[hull]) / np.diff(s_grid[hull]))
    # slope band: t*s - phi rounds at about eps * (|phi| + |t| s_max), so a
    # slope nearer t than that over one grid step can hide a float tie
    tie = 1e-12 * (np.max(np.abs(phi_s)) + np.max(np.abs(t_grid)) * s_max) * grid_size / s_max
    first = hull[np.searchsorted(slopes, t_grid - tie)]
    last = hull[np.searchsorted(slopes, t_grid + tie, side="right")]
    window = np.clip(first[:, None] + np.arange(-2, 3), 0, grid_size)
    near = t_grid[:, None] * s_grid[window] - phi_s[window]
    pick = (np.arange(t_grid.size), np.argmax(near, axis=1))
    arg = window[pick]
    grid_best = near[pick]
    for i in np.flatnonzero(first != last):
        a, b = max(first[i] - 2, 0), min(last[i] + 2, grid_size)
        row = t_grid[i] * s_grid[a : b + 1] - phi_s[a : b + 1]
        arg[i] = a + np.argmax(row)
        grid_best[i] = row[arg[i] - a]

    def objective(rows, s_vals: np.ndarray) -> np.ndarray:
        return t_grid[rows, None] * s_vals - np.asarray(phi(s_vals))

    # the search starts from the grid maximum and never falls below it
    lo, hi = np.zeros(t_grid.size), np.full(t_grid.size, s_max)
    _, refined = section_max(objective, lo, hi, s_grid[arg], grid_best, hi / grid_size)
    values = np.maximum(refined, 0.0)
    values[0] = 0.0  # sup_s(-phi(s)) is attained at s = 0
    return values


def conjugate(
    phi: OrliczFunction,
    s_max: float,
    grid_size: int,
    tol: float = 1e-6,
) -> OrliczFunction:
    """Legendre conjugate ``psi(t) = sup { s*t - phi(s) : 0 <= s <= s_max }``.

    The supremum over all s >= 0 is truncated at ``s_max``; the returned
    sampled function is therefore trusted only for t up to roughly the
    slope of phi at ``s_max`` (recorded as its domain cap).  Each value is
    the grid maximum, read off the lower convex hull of the samples of phi
    by one ``searchsorted`` of t into the hull slopes, then refined by a
    section search that stops once concavity certifies the value.
    Everything is recomputed on a doubled grid; if that moves any value
    psi by more than ``tol * (1 + |psi|)`` the grid is too coarse and
    GridTooCoarse is raised.  GridTooCoarse is also raised when psi is 0
    on its whole range (phi linear, or too flat below ``s_max``), as when
    the range is empty.
    """
    if not s_max > 0:
        raise ValueError("s_max must be > 0")
    if grid_size < MIN_GRID_SIZE:
        raise ValueError(f"grid_size must be >= {MIN_GRID_SIZE}")
    check_tol(tol)
    h = s_max / grid_size
    slope = (phi(s_max) - phi(s_max - h)) / h
    if not math.isfinite(slope):
        raise DomainExceeded(f"phi overflows before s_max={s_max:g}; lower s_max")
    t_max = 0.95 * slope
    if t_max <= 0:
        raise GridTooCoarse("phi is flat up to s_max; conjugate range is empty")
    t_grid = np.linspace(0.0, t_max, grid_size + 1)
    coarse = _conjugate_values(phi, t_grid, s_max, grid_size)
    fine_t = np.linspace(0.0, t_max, 2 * grid_size + 1)
    fine = _conjugate_values(phi, fine_t, s_max, 2 * grid_size)
    # relative to the value, so that large but representable values can pass
    drift = np.abs(fine[::2] - coarse)
    allowed = tol * (1.0 + np.abs(fine[::2]))
    if np.any(drift > allowed):
        i = int(np.argmax(drift > allowed))
        raise GridTooCoarse(
            f"doubling the grid moved the conjugate value at t={t_grid[i]:.6g} by {drift[i]:.3e}"
            f" > tol*(1+|psi|)={allowed[i]:.3e}"
        )
    if np.max(fine) <= 0.0:  # t_max is at most the slope of phi at 0
        raise GridTooCoarse(
            f"conjugate is 0 on its whole range [0, {t_max:.6g}]: phi is near linear up to s_max={s_max:g}"
        )
    return OrliczFunction.sampled(fine_t, fine, domain_cap=t_max)


def _modular(abs_values: np.ndarray, weights: np.ndarray, phi: OrliczFunction, lam: float) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(phi(abs_values / lam))
    if np.any(np.isnan(vals)):
        return math.inf
    return float(np.dot(weights, vals))


def luxemburg_norm(f: RandomVariable, phi: OrliczFunction, tol: float) -> LuxemburgResult:
    """Luxemburg norm of ``f``: the smallest scale lam with E[phi(|f|/lam)] <= 1.

    The modular lam -> E[phi(|f|/lam)] is nonincreasing, so the norm is
    bracketed by doubling/halving from sup|f| and then bisected to width
    ``tol``.  The returned value is the upper bracket endpoint.
    """
    check_tol(tol, positive=True)
    abs_values = np.abs(f.array)
    weights = f.space.weight_array
    if not np.any(abs_values > 0.0):
        return LuxemburgResult(0.0, (0.0, 0.0), 0.0)

    lam = float(np.max(abs_values))
    m = _modular(abs_values, weights, phi, lam)
    if m == 1.0:
        return LuxemburgResult(lam, (lam, lam), m)
    if m > 1.0:
        hi = lam
        for _ in range(1200):
            hi *= 2.0
            if _modular(abs_values, weights, phi, hi) <= 1.0:
                break
        else:
            raise ModularDegenerate("modular stays above 1 for all probed scales")
        lo = hi / 2.0
    else:
        lo = lam
        for _ in range(1200):
            lo /= 2.0
            if lo > 0.0 and _modular(abs_values, weights, phi, lo) > 1.0:
                break
        else:
            raise ModularDegenerate(
                "modular is <= 1 for every probed scale; phi vanishes on the range of |f|/lam"
            )
        hi = lo * 2.0

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _modular(abs_values, weights, phi, mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return LuxemburgResult(hi, (lo, hi), _modular(abs_values, weights, phi, hi))
