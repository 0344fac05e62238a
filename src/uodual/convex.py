"""Convex functionals on finite spaces, numerical Fenchel conjugation, and
dual-representation checking.

The conjugate ``rho*(g) = sup_f ( <f,g> - rho(f) )`` is estimated by
multi-start coordinate ascent inside a box.  Every line the ascent
searches has one shape, the points ``clip(f + t d)`` of the box through
the current point f, with t on the interval that keeps ``f + t d`` inside
it.  Each line is one section search from t = 0 (the current point, with
its known value) across the whole line, which stops when concavity
certifies the value (the objective is concave on lines for convex rho):
by the neighbour drops of the best scan point on smooth lines, and by a
secant envelope at a kink or on a flat run, so the piecewise-linear lines
of AVaR and the worst case stop after one or two scans.
Sweeps along the coordinate directions repeat while a row moves, then a
polish along pair and diagonal directions escapes the ridge points that
coordinate moves cannot leave on piecewise-linear objectives.  Sweeps
and polish share one batched walk over the rows of a direction matrix: a
row's next lines from its current point are searched together, at most
``_POLISH_LINES`` per call, and the first that gains moves it, exactly as
one line at a time would.  An ascent that ends on the box boundary is
flagged "possibly infinite" rather than reported as a finite supremum.

The search runs in lockstep: every (dual point, start) pair of one
``ConjugateField.compute`` call is a row of one ascent, and each scan is
a single numpy call over the rows still moving.  Rows never interact, so
each follows the path a search of its own point from its own start would
take, and a grid computed whole or in parts gives the same bits; its
transient arrays grow linearly with the grid.  ``fenchel_conjugate`` is
the one-point grid.  Functionals score a ``(rows, n)`` matrix of
candidates through ``ConvexFunctional.rows``: the builtins do it in one
call (a logsumexp, max or mean along an axis, AVaR by a row sort), and a
functional given only a scalar ``evaluate`` is called once per row.

The biconjugate over a finite dual grid is a lower bound for the true
lower-semicontinuous convex hull; ``dual_representation_check`` compares
it with rho itself and reports any probe where the gap exceeds the
tolerance.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .measure import ProbabilitySpace, RandomVariable, check_tol, integrate

__all__ = [
    "ConjugateField",
    "ConjugateValue",
    "ConvexFunctional",
    "DualRepReport",
    "EmptyDualGrid",
    "SearchConfig",
    "SearchDiverged",
    "UnknownName",
    "biconjugate",
    "builtin",
    "builtin_names",
    "density_lattice",
    "dual_representation_check",
    "fenchel_conjugate",
]


class SearchDiverged(RuntimeError):
    """Restarts disagreed beyond tolerance with no boundary escape."""


class EmptyDualGrid(ValueError):
    """Biconjugation requires at least one finite conjugate value."""


class UnknownName(ValueError):
    """No builtin functional or sequence generator with that name."""


@dataclass(frozen=True, eq=False)
class ConvexFunctional:
    """Proper convex functional given by an evaluation oracle.

    ``evaluate`` maps a RandomVariable to an extended real (math.inf for
    points outside the effective domain).  ``witness`` produces a point
    with finite value on any compatible space (properness); every
    conjugate search starts there, and raises ValueError if it is not
    finite (after clipping to the search box).  When a
    closed-form conjugate or a maximising dual point is known they are
    attached as oracles for testing and for building adapted dual grids;
    they are never used inside the numerical conjugation itself.
    ``evaluate_rows``, when given, maps a space and a ``(k, n)`` matrix
    to the k values of its rows at once and must agree with ``evaluate``.
    At least one of the two oracles is required: without ``evaluate``, it
    is the value of ``evaluate_rows`` on the one-row matrix of the point.
    """

    name: str
    evaluate: callable | None = None
    witness: callable = RandomVariable.zero
    known_conjugate: callable | None = None
    dual_witness: callable | None = None
    cash_invariant: bool = False
    evaluate_rows: callable | None = None

    def __post_init__(self) -> None:
        if self.evaluate is None:
            rows = self.evaluate_rows
            if rows is None:
                raise ValueError(f"functional {self.name!r} needs evaluate or evaluate_rows")
            object.__setattr__(self, "evaluate", lambda f: float(rows(f.space, f.array[None, :])[0]))

    def rows(self, space: ProbabilitySpace, matrix: np.ndarray) -> np.ndarray:
        """Values at every row of ``matrix``; one ``evaluate`` per row without a batched form."""
        if self.evaluate_rows is not None:
            return self.evaluate_rows(space, matrix)
        values = [self.evaluate(RandomVariable(space, r)) for r in matrix]
        return np.array(values, dtype=float)


# the largest |coordinate| of a search box: further out, the rounding noise
# of <f,g> - rho(f) passes the walk's 1e-12 gain rule, so the ascent drifts
# along flat ridges to the box edge and misreads finite conjugates
MAX_BOX = 4096.0


@dataclass(frozen=True)
class SearchConfig:
    """The search box and the seed of the random start; defaults suit spaces of up to ~8 points.

    ``box`` must be an interval ``(lo, hi)`` with lo < hi inside
    ``[-MAX_BOX, MAX_BOX]``, or the constructor raises ValueError: the
    section search narrows its bracket from the width hi - lo, and the
    ascent cannot tell gains from rounding noise further out.  ``seed``
    draws the one random start that every dual point shares.
    """

    box: tuple[float, float] = (-64.0, 64.0)
    seed: int = 0

    def __post_init__(self) -> None:
        lo, hi = self.box
        if not (lo < hi and math.isfinite(hi - lo)):
            raise ValueError(f"box must be an interval (lo, hi) with lo < hi and a finite width, got {self.box!r}")
        if max(abs(lo), abs(hi)) > MAX_BOX:
            raise ValueError(f"box must lie inside [-{MAX_BOX:g}, {MAX_BOX:g}], got {self.box!r}")


# coordinate sweeps per polish round
_MAX_SWEEPS = 40
# relative spread allowed between the restarts of one point
_VALUE_TOL = 1e-5
# scan points per row and call of the section search
_SECTION_POINTS = 16
# rows of one section-search call: bounds its (rows, points + 1) scan at 8,192 values.
# On the 2,925 points of density_lattice(dyadic(2), 1/6) a ConjugateField.compute peaked at
# 5.1 / 5.7 / 5.6 MiB traced with this queue, 14.2 / 31.3 / 28.7 without (worst-case / AVaR / entropic)
_SECTION_ROWS = 8192 // (_SECTION_POINTS + 1)
# share of the box width within which a maximiser counts as on the boundary
_BOUNDARY_MARGIN = 1e-6
# columns of a call's scan: the even points, then the envelope probe
_COLUMNS = np.arange(_SECTION_POINTS + 1.0)
# the even points j-1, j+1, j-2, j+2 and j as columns of a scan padded by two,
# and the envelope's reach in steps from j, one step either side inside the
# scan (built from lists: a first numpy ufunc call at import raised the
# resident memory of programs that import the package and never search)
_NEAR = np.array([[1], [3], [0], [4], [2]])
_UP = np.array([1.0] * (_SECTION_POINTS - 1) + [0.0])
_DOWN = np.array([0.0] + [-1.0] * (_SECTION_POINTS - 1))


def section_max(fun, lo: np.ndarray, hi: np.ndarray, x: np.ndarray, v: np.ndarray, h: np.ndarray):
    """Vectorised section search for per-row maxima of concave slices on ``[lo, hi]``.

    ``fun(idx, xs)`` evaluates the rows ``idx`` (an index array) at a
    matrix of abscissae, one matrix row per row.  Each row starts from its
    best point ``x``, of value ``v``, and a concave slice peaks in
    ``[x - h, x + h]`` (``h = hi - lo`` spans all of ``[lo, hi]``).  Each
    call takes at most ``_SECTION_ROWS`` rows and scans, per row,
    ``_SECTION_POINTS`` even points of the bracket cut to the box plus one
    envelope probe; ``x`` moves only on a strict gain and ``h`` becomes
    the scan's spacing.  The maximum lies within one step of the best even
    point x_j, and concavity bounds it twice over:

    - by ``v`` plus the larger neighbour drop of x_j, when x_j has both;
    - by the envelope: the secants through x_{j-2}, x_{j-1} and through
      x_{j+1}, x_{j+2}, each where both values are finite, lie above the
      slice within one step of x_j, so the largest value of their minimum
      there bounds the maximum.  The bound is exact on a slice with one
      kink among these points, and on a flat run, whose secant is level,
      also one that starts at the first scan point.  A row keeps the least
      bound of its calls, and the point where this call's bound is
      attained is the probe of its next call.

    A row stops when either bound exceeds ``v`` by at most
    1e-13 (1 + |v|).  Otherwise it stops at a bracket of 1e-15 relative, a
    few ulps of ``x``, or it rejoins the queue of rows for a later call.
    A bracket whose points are all -inf simply shrinks around ``x``.
    Returns ``(x, v)``; ``v`` is never below the start and is ``fun`` at
    ``x``.
    """
    x, v, h = (np.array(a, dtype=float) for a in (x, v, h))
    probe, bound = x.copy(), np.full(x.size, np.inf)
    P, width = _SECTION_POINTS, min(x.size, _SECTION_ROWS)
    # a call's even points padded by two -inf columns each side, and the flat
    # offsets of the rows of that block and of the call's abscissae
    scan = np.full((width, P + 4), -np.inf)
    at_scan, at_xs = np.arange(width) * (P + 4), np.arange(width) * (P + 1)
    pending = np.arange(x.size)  # queue: a call takes its head, rows going on rejoin the back
    with np.errstate(invalid="ignore", divide="ignore"):
        while pending.size:
            rows, pending = pending[:_SECTION_ROWS], pending[_SECTION_ROWS:]
            n, xr, hr = rows.size, x[rows], h[rows]
            a = np.maximum(lo[rows], xr - hr)
            b = np.minimum(hi[rows], xr + hr)
            h[rows] = step = (b - a) / (P - 1)
            xs = a[:, None] + step[:, None] * _COLUMNS
            xs[:, P - 1] = b  # a box end is scanned exactly
            xs[:, P] = probe[rows]
            values = fun(rows, xs)
            even = scan[:n]
            even[:, 2:-2] = values[:, :P]
            # the best even point; a row of -inf has its argmax in the padding, and j = 0
            j = np.maximum(np.argmax(even, axis=1) - 2, 0)
            near = np.ravel(even)[at_scan[:n] + j + _NEAR]  # f at j-1, j+1, j-2, j+2, j
            xj = np.ravel(xs)[at_xs[:n] + j]
            # the best point is x_j or the probe, and x moves only on a strict gain
            up = values[:, P] > near[4]
            top = np.where(up, values[:, P], near[4])
            better = top > v[rows]
            x[rows] = xr = np.where(better, np.where(up, xs[:, P], xj), xr)
            v[rows] = vr = np.where(better, top, v[rows])
            del values  # freed now, not held through the next call's objective
            # at u steps from x_j the secants are L0 + sl u and R0 - sr u; one
            # with a non-finite value is +inf, and the bound is their minimum
            # where they cross, cut to the steps the scan has around x_j
            slope = near[:2] - near[2:4]
            known = np.isfinite(slope)
            sl, sr = slope = np.where(known, slope, 0.0)
            L0, R0 = np.where(known, near[:2], np.inf) + slope
            u = np.fmax(np.fmin((R0 - L0) / (sl + sr), _UP[j]), _DOWN[j])
            bound[rows] = br = np.fmin(bound[rows], np.minimum(L0 + sl * u, R0 - sr * u))
            probe[rows] = np.minimum(np.maximum(xj + u * step, a), b)
            drop = near[4] - np.minimum(near[0], near[1])
            certified = np.fmin(drop, br - vr) <= 1e-13 * (1.0 + np.abs(vr))
            # written so that a NaN bracket fails the test and stops too
            wide = 2.0 * step >= 1e-15 * (1.0 + np.abs(xr))
            pending = np.concatenate([pending, rows[wide & ~certified]])
    return x, v


def _pair_directions(n: int) -> np.ndarray:
    """The polish directions, one per row: the diagonal, then e_i - e_j and e_i + e_j for i < j."""
    e = np.eye(n)
    pairs = [e[i] + s * e[j] for i in range(n) for j in range(i + 1, n) for s in (-1.0, 1.0)]
    return np.array([np.ones(n), *pairs])


def _objective(score, wg: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """``<f,g> - rho(f)`` for a ``(k, m, n)`` block of probes f.

    Row r of the block is paired with ``wg[r]``, the weights times its dual point g.
    """
    k, m, n = probes.shape
    return np.einsum("kmn,kn->km", probes, wg) - score(probes.reshape(k * m, n)).reshape(k, m)


def _span(base: np.ndarray, d: np.ndarray, lo: float, hi: float):
    """Per row, the least and greatest t with ``base + t d`` in the box ``[lo, hi]``.

    A zero coordinate of d never leaves the box, so it bounds nothing.
    """
    up, down = np.full(d.shape, np.inf), np.full(d.shape, -np.inf)
    np.divide(np.where(d > 0, hi - base, lo - base), d, out=up, where=d != 0)
    np.divide(np.where(d > 0, lo - base, hi - base), d, out=down, where=d != 0)
    return np.max(down, axis=1), np.min(up, axis=1)


def _walk(objective, f, val, sub, dirs: np.ndarray, box: tuple[float, float]) -> np.ndarray:
    """Move each row of ``sub`` along the lines ``clip(f + t d)`` of the rows d of ``dirs``, in order.

    A line through a row's point f runs over the t that keep ``f + t d``
    inside ``box``, and ``objective(r, probes)`` gives the values of rows
    ``r`` at its points; it is one ``section_max`` from t = 0, with the
    row's value, across the whole line.  While a row has not moved, its
    next lines all start from the same point, so they are searched as one
    batch: at most ``_POLISH_LINES`` lines per call, and at least one per
    row.  Each row takes the first line whose gain clears rounding noise
    and searches the lines after it again from its new point, so the
    moves are exactly those of one line at a time.  Updates ``f`` and
    ``val`` in place and returns the mask, over all rows, of those that
    moved.
    """
    lo, hi = box
    moved_any = np.zeros(f.shape[0], dtype=bool)
    pending, next_line = sub, np.zeros(sub.size, dtype=int)
    while pending.size:
        width = max(1, _POLISH_LINES // pending.size)
        tried = next_line[:, None] + np.arange(width)  # (pending row, line)
        lines = np.nonzero(tried < len(dirs))
        base, d = f[pending[lines[0]]], dirs[tried[lines]]
        t_lo, t_hi = _span(base, d, lo, hi)
        open_ = t_hi > t_lo
        gain = np.zeros(tried.shape, dtype=bool)
        ends, values = np.empty(tried.shape + f.shape[1:]), np.empty(tried.shape)
        if open_.any():
            at = (lines[0][open_], lines[1][open_])
            owner, base, d = pending[at[0]], base[open_], d[open_]

            def line(idx, ts):
                # built in place: one (lines, points, n) block, as large as the scores' input;
                # clipped by two ufuncs, which cost less than np.clip at this size
                probes = ts[:, :, None] * d[idx, None, :]
                probes += base[idx, None, :]
                np.maximum(probes, lo, out=probes)
                return objective(owner[idx], np.minimum(probes, hi, out=probes))

            t_lo, t_hi = t_lo[open_], t_hi[open_]
            x, v = section_max(line, t_lo, t_hi, np.zeros(t_lo.size), val[owner], t_hi - t_lo)
            ends[at], values[at] = np.clip(base + x[:, None] * d, lo, hi), v
            # improvements must clear rounding noise, or flat objectives would
            # drift to the box and be misread as unbounded
            gain[at] = v > val[owner] + 1e-12 * (1.0 + np.abs(val[owner]))
        # the first gaining line moves its row; the row's later lines
        # started from the old point and are searched again
        hit = gain.argmax(axis=1)
        moved = gain[np.arange(pending.size), hit]
        r = pending[moved]
        f[r], val[r] = ends[moved, hit[moved]], values[moved, hit[moved]]
        moved_any[r] = True
        next_line = np.where(moved, next_line + hit + 1, next_line + width)
        keep = next_line < len(dirs)
        pending, next_line = pending[keep], next_line[keep]
    return moved_any


def _ascend(score, wg: np.ndarray, starts: np.ndarray, box: tuple[float, float]):
    """Coordinate ascent of ``_objective`` from every row of ``starts`` at once.

    Sweeps walk the n coordinate directions while a row moves; the polish
    then walks the pair and diagonal directions, and a polish move starts
    another round.  Rows run in lockstep but never interact.  Returns the
    final points and their values, one row per start.
    """
    f = np.clip(starts, *box)
    rows, n = f.shape
    val = _objective(score, wg, f[:, None, :])[:, 0]
    axes, pairs = np.eye(n), _pair_directions(n)

    def objective(r, probes):
        return _objective(score, wg[r], probes)

    active = np.arange(rows)
    with np.errstate(invalid="ignore"):
        for _ in range(3):
            sweeping = active
            for _ in range(_MAX_SWEEPS):
                if sweeping.size == 0:
                    break
                sweeping = sweeping[_walk(objective, f, val, sweeping, axes, box)[sweeping]]
            active = active[_walk(objective, f, val, active, pairs, box)[active]]
            if active.size == 0:
                break
    return f, val


@dataclass(frozen=True)
class ConjugateValue:
    """One conjugate evaluation: best value found plus search diagnostics."""

    value: float
    possibly_infinite: bool
    start_values: tuple[float, ...]


# lines of one walk call, in the sweeps and the polish alike: bounds the
# speculative (row, line) batch, whose scan blocks the row evaluators copy
# several times; the temporaries grow with the cap, while the saving
# levels off above a few dozen lines
_POLISH_LINES = 48


@dataclass(frozen=True, eq=False)
class ConjugateField:
    """Conjugate values over a grid of dual points.

    ``dual_matrix`` holds one dual point per row; ``values`` are extended
    reals (math.inf where the search flagged a possibly infinite value or
    an oracle returned infinity).
    """

    space: ProbabilitySpace
    dual_matrix: np.ndarray
    values: np.ndarray
    boundary_flags: np.ndarray
    reports: tuple = ()

    @classmethod
    def compute(
        cls,
        rho: ConvexFunctional,
        dual_points,
        config: SearchConfig | None = None,
    ) -> ConjugateField:
        """Conjugates at every dual point, searched together in one lockstep ascent.

        Every dual point is searched from three starts: the properness
        witness, the (clipped) point itself and one random point drawn from
        ``config.seed``, the same for every point.  Start k of point p is
        row ``3p + k`` of the ascent; rows never interact, so a point's
        search does not depend on the rest of the grid.  The witness must
        have a finite value, or the search could not leave it: ValueError
        otherwise.  If a point's best maximiser sits on the box boundary
        while the objective still climbs there, its supremum may be
        infinite and it is flagged; otherwise disagreeing restarts raise
        SearchDiverged for the first such point.
        """
        points = list(dual_points)
        if not points:
            raise EmptyDualGrid("no dual points supplied")
        space = points[0].space
        if any(p.space != space for p in points):
            raise ValueError("dual points must share one space")
        duals = np.array([p.array for p in points])
        cfg = config or SearchConfig()
        lo, hi = cfg.box
        count, n = duals.shape
        witness = np.clip(rho.witness(space).array, lo, hi)
        score = functools.partial(rho.rows, space)
        if not np.isfinite(score(witness[None, :])[0]):
            raise ValueError(f"{rho.name!r} is not finite at its properness witness")
        random_start = np.random.default_rng(cfg.seed).uniform(lo / 8.0, hi / 8.0, n)
        starts = np.stack([np.broadcast_to(s, duals.shape) for s in (witness, duals, random_start)], axis=1)
        wg = duals * space.weights
        f, val = _ascend(score, np.repeat(wg, 3, axis=0), starts.reshape(-1, n), cfg.box)
        f, val = f.reshape(count, 3, n), val.reshape(count, 3)
        best = np.argmax(val, axis=1)
        best_f, best_v = f[np.arange(count), best], val[np.arange(count), best]

        # a maximiser on the box edge means "possibly infinite" only when the
        # objective is still climbing there; an optimum that merely sits at the
        # edge (e.g. a log pushed toward -inf with zero weight) stays finite
        margin = _BOUNDARY_MARGIN * (hi - lo)
        step = (hi - lo) / 256.0
        at_lo = best_f <= lo + margin
        edge_p, edge_i = np.nonzero(at_lo | (best_f >= hi - margin))
        flags = np.zeros(count, dtype=bool)
        if edge_p.size:
            inner = best_f[edge_p]
            inner[np.arange(edge_p.size), edge_i] += np.where(at_lo[edge_p, edge_i], step, -step)
            with np.errstate(invalid="ignore"):
                drop = best_v[edge_p] - _objective(score, wg[edge_p], inner[:, None, :])[:, 0]
            flags[edge_p[drop > 1e-7 * (1.0 + np.abs(best_v[edge_p]))]] = True

        reports = []
        for p, (v, starts_v) in enumerate(zip(best_v.tolist(), val.tolist())):
            finite = [x for x in starts_v if x > -math.inf]
            if not flags[p] and max(finite) - min(finite) > _VALUE_TOL * (1.0 + abs(v)):
                raise SearchDiverged(
                    f"restarts for {rho.name!r} disagree: {sorted(finite)} with no boundary escape"
                )
            reports.append(ConjugateValue(v, bool(flags[p]), tuple(starts_v)))
        return cls(space, duals, np.where(flags, np.inf, best_v), flags, tuple(reports))

    def __len__(self) -> int:
        return self.dual_matrix.shape[0]


def fenchel_conjugate(
    rho: ConvexFunctional,
    g: RandomVariable,
    config: SearchConfig | None = None,
) -> ConjugateValue:
    """Estimate ``sup_f ( <f,g> - rho(f) )`` over the search box.

    The one-point grid of ``ConjugateField.compute``, whose docstring
    states the starts, the "possibly infinite" flag and the errors.
    """
    return ConjugateField.compute(rho, [g], config).reports[0]


def biconjugate(field: ConjugateField, f: RandomVariable) -> float:
    """Max of ``<f,g> - rho*(g)`` over the dual grid.

    A lower bound for the lsc convex hull of rho at f; adding dual points
    can only increase it.  Rows with infinite conjugate values contribute
    nothing and are skipped.
    """
    if f.space != field.space:
        raise ValueError("probe must live on the dual grid's space")
    finite = np.isfinite(field.values)
    if len(field) == 0 or not np.any(finite):
        raise EmptyDualGrid("no finite conjugate values on the dual grid")
    scores = field.dual_matrix[finite] @ (field.space.weights * f.array)
    return float(np.max(scores - field.values[finite]))


@dataclass(frozen=True, eq=False)
class DualRepReport:
    """Per-probe gaps rho(f) - rho**(f) and the graded verdict.

    ``conjugates`` is the field the check built; it is not serialised.
    """

    gaps: tuple[float, ...]
    rho_values: tuple[float, ...]
    biconjugate_values: tuple[float, ...]
    verdict: str  # "representable-evidence" | "gap-found"
    witness: int | None
    tol: float
    conjugates: ConjugateField | None = dataclasses.field(default=None, repr=False)

    @property
    def max_gap(self) -> float:
        return max(self.gaps)

    def to_dict(self) -> dict:
        return {
            "probes": [
                {"rho": r, "biconjugate": b}
                for r, b in zip(self.rho_values, self.biconjugate_values)
            ],
            "gaps": list(self.gaps),
            "verdict": self.verdict,
            "witness": self.witness,
            "tol": self.tol,
        }


def dual_representation_check(
    rho: ConvexFunctional,
    probes,
    dual_points,
    tol: float,
    config: SearchConfig | None = None,
) -> DualRepReport:
    """Compare rho with its biconjugate over a finite dual grid.

    A gap above tol at any probe (including an infinite gap at a probe
    where rho is declared infinite but the hull is finite) is a witness
    that rho is not represented by the dual grid at this resolution.
    An empty list of probes raises ValueError before any search.
    """
    check_tol(tol)
    probes = list(probes)
    if not probes:
        raise ValueError("probes must hold at least one point")
    conjugates = ConjugateField.compute(rho, dual_points, config)
    rho_vals = tuple(rho.evaluate(f) for f in probes)
    bi_vals = tuple(biconjugate(conjugates, f) for f in probes)
    gaps = tuple(r - b for r, b in zip(rho_vals, bi_vals))
    witness = next((i for i, gap in enumerate(gaps) if gap > tol), None)
    verdict = "representable-evidence" if witness is None else "gap-found"
    return DualRepReport(gaps, rho_vals, bi_vals, verdict, witness, tol, conjugates)


# -- dual grids ---------------------------------------------------------------

# the largest conjugate search the CLI starts: each start of a dual point
# polishes along n(n - 1) + 1 lines of n cells, so a search costs about
# (dual points) x cells^2 line searches, each of them longer with the cells
MAX_SEARCH_CELLS = 64
MAX_SEARCH_WORK = 50_000


def check_search_size(cells: int, points: int) -> None:
    """ValueError unless a search of ``points`` dual points on ``cells`` cells is within the bound."""
    limit = MAX_SEARCH_WORK // cells**2 if cells <= MAX_SEARCH_CELLS else 0
    if points > limit:
        raise ValueError(
            f"a search on {cells} cells takes at most {limit:,} dual points"
            f" ({MAX_SEARCH_WORK:,} / cells^2, and at most {MAX_SEARCH_CELLS} cells)"
        )


def lattice_units(weight: float, step: float) -> int:
    """Steps of ``step`` in the unit mass on cells of ``weight``; ValueError unless it divides."""
    if not step > 0:
        raise ValueError("step must be > 0")
    units = round(1.0 / (step * weight))
    if abs(units * step * weight - 1.0) > 1e-9:
        raise ValueError("step must divide the total mass")
    return units


def lattice_size(n: int, units: int, limit: int) -> int:
    """C(units + n - 1, n - 1), the points of a density lattice, or a count above ``limit``.

    The count is a running product that stops once it passes the limit,
    so a refusal takes a few steps however large the lattice.
    """
    # C(units + n - 1, k) for k = 1 .. min(units, n - 1): exact, and never decreasing
    top, count = units + n - 1, 1
    for k in range(1, min(units, n - 1) + 1):
        count = count * (top - k + 1) // k
        if count > limit:
            break
    return count


def density_lattice(space: ProbabilitySpace, step: float) -> list[RandomVariable]:
    """All densities on the space whose values are multiples of ``step``.

    A density g satisfies g >= 0 and E[g] = 1.  Only spaces with equal
    weights are supported.  The densities are the ways to share
    ``units = 1 / (step * weight)`` steps among the n cells, C(units + n - 1,
    n - 1) of them, listed in lexicographic order of the cell counts; a
    lattice of more than 2,000,000 points raises ValueError before any is
    built, after the few steps of ``lattice_size``.
    """
    n = space.size
    w = float(space.weights[0])
    if (space.weights != w).any():
        raise ValueError("density lattices need equal weights")
    units = lattice_units(w, step)
    if lattice_size(n, units, 2_000_000) > 2_000_000:
        raise ValueError("density lattice too large: more than 2,000,000 points")
    out: list[RandomVariable] = []
    # stars and bars: n - 1 bars among units + n - 1 slots; cell counts are the gaps
    for bars in itertools.combinations(range(units + n - 1), n - 1):
        edges = (-1, *bars, units + n - 1)
        counts = [b - a - 1 for a, b in zip(edges, edges[1:])]
        out.append(RandomVariable.from_values(space, [c * step for c in counts]))
    return out


# -- builtin functionals ------------------------------------------------------


def _avar_taken(matrix: np.ndarray, weights: np.ndarray, alpha: float):
    """Per row, the cells sorted worst first and the mass alpha takes from each."""
    order = np.argsort(-matrix, axis=1, kind="stable")
    w = weights[order]
    return order, np.minimum(w, np.maximum(alpha - (np.cumsum(w, axis=1) - w), 0.0))


def _avar_tail_density(f: RandomVariable, alpha: float) -> RandomVariable:
    """The maximising density: mass 1/alpha on the worst-outcome cells."""
    weights = f.space.weights
    (order,), (taken,) = _avar_taken(f.array[None, :], weights, alpha)
    g = np.zeros(f.space.size)
    g[order] = taken / (alpha * weights[order])
    return RandomVariable.from_values(f.space, g)


def _is_density(g: RandomVariable, tol: float = 1e-9) -> bool:
    return bool(np.all(g.array >= -tol)) and abs(integrate(g) - 1.0) <= tol


def _expectation() -> ConvexFunctional:
    return ConvexFunctional(
        name="expectation",
        evaluate=integrate,
        evaluate_rows=lambda space, m: m @ space.weights,
        known_conjugate=lambda g: 0.0 if float(np.max(np.abs(g.array - 1.0))) <= 1e-9 else math.inf,
        dual_witness=lambda f: RandomVariable.ones(f.space),
        cash_invariant=True,
    )


def _neg_expectation() -> ConvexFunctional:
    return ConvexFunctional(
        name="neg-expectation",
        evaluate=lambda f: -integrate(f),
        evaluate_rows=lambda space, m: -(m @ space.weights),
        known_conjugate=lambda g: 0.0 if float(np.max(np.abs(g.array + 1.0))) <= 1e-9 else math.inf,
        dual_witness=lambda f: RandomVariable.constant(f.space, -1.0),
    )


def _entropic(beta: float = 1.0) -> ConvexFunctional:
    if not beta > 0:
        raise ValueError("beta must be > 0")

    def evaluate_rows(space: ProbabilitySpace, m: np.ndarray) -> np.ndarray:
        x = beta * m
        top = np.max(x, axis=1)
        return (top + np.log(np.exp(x - top[:, None]) @ space.weights)) / beta

    def known_conjugate(g: RandomVariable) -> float:
        if not _is_density(g):
            return math.inf
        arr = np.clip(g.array, 0.0, None)
        ent = np.where(arr > 0.0, arr * np.log(np.where(arr > 0.0, arr, 1.0)), 0.0)
        return float(np.dot(g.space.weights, ent)) / beta

    def dual_witness(f: RandomVariable) -> RandomVariable:
        x = beta * f.array
        x = x - np.max(x)
        expo = np.exp(x)
        z = float(np.dot(f.space.weights, expo))
        return RandomVariable.from_values(f.space, expo / z)

    return ConvexFunctional(
        name=f"entropic(beta={beta:g})",
        evaluate_rows=evaluate_rows,
        known_conjugate=known_conjugate,
        dual_witness=dual_witness,
        cash_invariant=True,
    )


def _avar(alpha: float = 0.5) -> ConvexFunctional:
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")

    def evaluate_rows(space: ProbabilitySpace, m: np.ndarray) -> np.ndarray:
        order, taken = _avar_taken(m, space.weights, alpha)
        return np.einsum("ij,ij->i", taken, m[np.arange(m.shape[0])[:, None], order]) / alpha

    def known_conjugate(g: RandomVariable) -> float:
        ok = _is_density(g) and bool(np.all(g.array <= 1.0 / alpha + 1e-9))
        return 0.0 if ok else math.inf

    return ConvexFunctional(
        name=f"avar(alpha={alpha:g})",
        evaluate_rows=evaluate_rows,
        known_conjugate=known_conjugate,
        dual_witness=lambda f: _avar_tail_density(f, alpha),
        cash_invariant=True,
    )


def _worst_case() -> ConvexFunctional:
    def evaluate_rows(space: ProbabilitySpace, m: np.ndarray) -> np.ndarray:
        return np.max(m, axis=1)

    def dual_witness(f: RandomVariable) -> RandomVariable:
        i = int(np.argmax(f.array))
        g = np.zeros(f.space.size)
        g[i] = 1.0 / f.space.weights[i]
        return RandomVariable.from_values(f.space, g)

    return ConvexFunctional(
        name="worst-case",
        evaluate_rows=evaluate_rows,
        known_conjugate=lambda g: 0.0 if _is_density(g) else math.inf,
        dual_witness=dual_witness,
        cash_invariant=True,
    )


def _supnorm_ball(open_ball: bool, radius: float = 1.0) -> ConvexFunctional:
    if not radius > 0:
        raise ValueError("radius must be > 0")

    def evaluate_rows(space: ProbabilitySpace, m: np.ndarray) -> np.ndarray:
        peak = np.max(np.abs(m), axis=1)
        inside = peak < radius if open_ball else peak <= radius
        return np.where(inside, 0.0, math.inf)

    def known_conjugate(g: RandomVariable) -> float:
        # support function of the (closed) ball; the open ball has the same conjugate
        return radius * float(np.dot(g.space.weights, np.abs(g.array)))

    return ConvexFunctional(
        name=("open-ball" if open_ball else "supnorm-ball") + f"(radius={radius:g})",
        evaluate_rows=evaluate_rows,
        known_conjugate=known_conjugate,
        dual_witness=lambda f: RandomVariable.zero(f.space),
    )


# name -> (constructor, the keyword parameters it takes)
_BUILTINS = {
    "expectation": (_expectation, ()),
    "neg-expectation": (_neg_expectation, ()),
    "entropic": (_entropic, ("beta",)),
    "avar": (_avar, ("alpha",)),
    "worst-case": (_worst_case, ()),
    "supnorm-ball": (functools.partial(_supnorm_ball, False), ("radius",)),
    "open-ball": (functools.partial(_supnorm_ball, True), ("radius",)),
}


def builtin(name: str, **params) -> ConvexFunctional:
    """Test zoo of convex functionals with closed-form conjugate oracles.

    A keyword that no builtin takes raises ValueError.  A keyword that
    another builtin takes (``beta``, ``alpha``, ``radius``) is ignored, so
    one parameter set can be passed to every functional.
    """
    if name not in _BUILTINS:
        raise UnknownName(f"no builtin functional named {name!r}")
    unknown = sorted(set(params).difference(*(takes for _, takes in _BUILTINS.values())))
    if unknown:
        raise ValueError(f"no builtin functional takes {', '.join(map(repr, unknown))}")
    make, takes = _BUILTINS[name]
    return make(**{k: params[k] for k in takes if k in params})


def builtin_names() -> tuple[str, ...]:
    return tuple(_BUILTINS)
