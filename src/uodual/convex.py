"""Convex functionals on finite spaces, numerical Fenchel conjugation, and
dual-representation checking.

The conjugate ``rho*(g) = sup_f ( <f,g> - rho(f) )`` is estimated by
multi-start coordinate ascent inside a box: each coordinate is maximised
by a coarse scan plus golden-section refinement (the objective is concave
in each coordinate for convex rho), sweeps repeat until stationary, and a
polish pass along pair and diagonal directions escapes the ridge points
that pure coordinate moves cannot leave on piecewise-linear objectives.
An ascent that ends on the box boundary is flagged "possibly infinite"
rather than reported as a finite supremum.

The search runs in lockstep: every (dual point, start) pair of one
``ConjugateField.compute`` call is a row of one matrix, and each scan,
golden-section step and recentring is a single numpy call over the rows
still moving.  Rows never interact, so each follows the path a search of
its own point from its own start would take; ``fenchel_conjugate`` is the
one-point case.  Functionals score a ``(rows, n)`` matrix of candidates
through ``ConvexFunctional.rows``: the builtins do it in one call (a
logsumexp, max or mean along an axis, AVaR by a row sort), and a
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

from .measure import ProbabilitySpace, RandomVariable, integrate

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
    with finite value on any compatible space (properness).  When a
    closed-form conjugate or a maximising dual point is known they are
    attached as oracles for testing and for building adapted dual grids;
    they are never used inside the numerical conjugation itself.
    ``evaluate_rows``, when given, maps a space and a ``(k, n)`` matrix
    to the k values of its rows at once and must agree with ``evaluate``.
    """

    name: str
    evaluate: callable
    witness: callable = RandomVariable.zero
    known_conjugate: callable | None = None
    dual_witness: callable | None = None
    cash_invariant: bool = False
    evaluate_rows: callable | None = None

    def rows(self, space: ProbabilitySpace, matrix: np.ndarray) -> np.ndarray:
        """Values at every row of ``matrix``; one ``evaluate`` per row without a batched form."""
        if self.evaluate_rows is not None:
            return self.evaluate_rows(space, matrix)
        values = [self.evaluate(RandomVariable(space, r)) for r in matrix]
        return np.array(values, dtype=float)


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the conjugate search; defaults suit spaces of up to ~8 points."""

    box: tuple[float, float] = (-64.0, 64.0)
    extra_starts: int = 1
    seed: int = 0


# coordinate sweeps per polish round, and the relative gain that counts as movement
_MAX_SWEEPS = 40
_SWEEP_TOL = 1e-12
# relative spread allowed between the restarts of one point
_VALUE_TOL = 1e-5
# scan points per coordinate line and golden-section steps after the scans
_COARSE_POINTS = 21
_GOLDEN_ITERS = 60
# share of the box width within which a maximiser counts as on the boundary
_BOUNDARY_MARGIN = 1e-6

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_RECENTRE_LEVELS = 80


def golden_section_max(fun, a, b, iterations: int, centre=None):
    """Vectorised golden-section search for per-row maxima of concave slices.

    ``fun(idx, x)`` evaluates the rows selected by ``idx`` (an index array,
    or a full slice) at a matrix of abscissae, one matrix row per selected
    row.  Each row shrinks its bracket ``[a, b]`` until it is narrower than
    1e-13 relative or ``iterations`` run out; a row that has stopped is no
    longer evaluated.  With ``centre`` given, rows whose two first probes
    are both -inf (indicator slices) are recentred first: the bracket
    halves toward the centre, and the first of 80 levels with a finite
    probe is kept (the last one if none is).  The levels have the closed
    form ``centre + (a - centre) / 2**k``, so all are evaluated in one call.
    Returns ``(x, value)``, the better of the two final probes of each row.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    rows = slice(None)  # every row is alive until the first one stops
    f1, f2 = fun(rows, np.stack([x1, x2], axis=1)).T.copy()
    if centre is not None:
        stuck = np.flatnonzero(~(f1 > -np.inf) & ~(f2 > -np.inf))
        if stuck.size:
            c = centre[stuck, None]
            halving = 0.5 ** np.arange(1, _RECENTRE_LEVELS + 1)
            la = c + (a[stuck, None] - c) * halving
            lb = c + (b[stuck, None] - c) * halving
            l1 = lb - _GOLDEN * (lb - la)
            l2 = la + _GOLDEN * (lb - la)
            lf1, lf2 = np.split(fun(stuck, np.concatenate([l1, l2], axis=1)), 2, axis=1)
            finite = (lf1 > -np.inf) | (lf2 > -np.inf)
            level = np.where(finite.any(axis=1), finite.argmax(axis=1), _RECENTRE_LEVELS - 1)
            pick = (np.arange(stuck.size), level)
            a[stuck], b[stuck], x1[stuck], x2[stuck] = la[pick], lb[pick], l1[pick], l2[pick]
            f1[stuck], f2[stuck] = lf1[pick], lf2[pick]
    x_out = np.empty(a.size)
    v_out = np.empty(a.size)

    def settle(rows, x1, x2, f1, f2):
        second = f2 > f1
        x_out[rows] = np.where(second, x2, x1)
        v_out[rows] = np.where(second, f2, f1)

    alive = np.arange(a.size)
    for _ in range(iterations):
        # f1 < f2: the maximum lies right of x1, and x2 becomes the inner probe
        right = f1 < f2
        a, b = np.where(right, x1, a), np.where(right, b, x2)
        width = b - a
        gap = _GOLDEN * width
        probe = np.where(right, a + gap, b - gap)
        fp = fun(rows, probe[:, None])[:, 0]
        x1, x2 = np.where(right, x2, probe), np.where(right, probe, x1)
        f1, f2 = np.where(right, f2, fp), np.where(right, fp, f1)
        done = width < 1e-13 * (1.0 + np.abs(b))
        if done.any():
            settle(alive[done], x1[done], x2[done], f1[done], f2[done])
            keep = ~done
            alive, a, b, x1, x2, f1, f2 = (v[keep] for v in (alive, a, b, x1, x2, f1, f2))
            rows = alive
            if alive.size == 0:
                break
    settle(alive, x1, x2, f1, f2)
    return x_out, v_out


def _scan(fun, xs: np.ndarray, best_x: np.ndarray, best_v: np.ndarray):
    """Per row, move to the best scanned point (the first of equals) if it beats the current best."""
    rows = np.arange(xs.shape[0])
    values = fun(rows, xs)
    j = np.argmax(values, axis=1)
    top = values[rows, j]
    better = top > best_v
    return np.where(better, xs[rows, j], best_x), np.where(better, top, best_v)


def _maximize_1d(fun, lo: np.ndarray, hi: np.ndarray, x0: np.ndarray):
    """Two-stage scan then golden-section refinement of concave 1-D slices, per row.

    The scans guard against slices that are -inf on most of the box
    (indicator functionals), where golden section alone could discard the
    finite region.  The current point x0 is always a candidate, so the
    surrounding ascent never regresses.
    """
    coarse = np.linspace(lo, hi, _COARSE_POINTS, axis=1)
    first = np.concatenate([x0[:, None], coarse], axis=1)
    best_x, best_v = _scan(fun, first, x0, np.full(x0.size, -np.inf))
    step = (hi - lo) / (_COARSE_POINTS - 1)
    a = np.maximum(lo, best_x - step)
    b = np.minimum(hi, best_x + step)
    best_x, best_v = _scan(fun, np.linspace(a, b, 9, axis=1), best_x, best_v)
    fine = (b - a) / 8.0
    a = np.maximum(lo, best_x - fine)
    b = np.minimum(hi, best_x + fine)
    x, v = golden_section_max(fun, a, b, _GOLDEN_ITERS, centre=best_x)
    better = v > best_v
    return np.where(better, x, best_x), np.where(better, v, best_v)


def _pair_directions(n: int) -> list[np.ndarray]:
    dirs = [np.ones(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = np.zeros(n)
            d[i], d[j] = 1.0, -1.0
            dirs.append(d)
            e = np.zeros(n)
            e[i], e[j] = 1.0, 1.0
            dirs.append(e)
    return dirs


def _objective(score, wg: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """``<f,g> - rho(f)`` for a ``(k, m, n)`` block of probes f.

    Row r of the block is paired with ``wg[r]``, the weights times its dual point g.
    """
    k, m, n = probes.shape
    return np.einsum("kmn,kn->km", probes, wg) - score(probes.reshape(k * m, n)).reshape(k, m)


def _ascend(score, wg: np.ndarray, starts: np.ndarray, box: tuple[float, float]):
    """Coordinate ascent of ``_objective`` from every row of ``starts`` at once.

    Rows run in lockstep but never interact: a row leaves the sweeps when
    its own sweep goes stationary and leaves the rounds when its own
    polish finds no move, as a search of that row alone would.  Returns
    the final points and their objective values, one row per start.
    """
    lo, hi = box
    f = np.clip(starts, lo, hi)
    rows, n = f.shape
    val = _objective(score, wg, f[:, None, :])[:, 0]

    def move(sub, x0, t_lo, t_hi, probe):
        """Maximise along one line per row of ``sub``; ``probe(base, x)`` builds the points."""
        base, w = f[sub], wg[sub]

        def fun(idx, xs):
            return _objective(score, w[idx], probe(base[idx], xs))

        x, v = _maximize_1d(fun, t_lo, t_hi, x0)
        # improvements must clear rounding noise, or flat objectives would
        # drift to the box and be misread as unbounded
        accepted = v > val[sub] + 1e-12 * (1.0 + np.abs(val[sub]))
        moved = sub[accepted]
        f[moved] = probe(base[accepted], x[accepted, None])[:, 0]
        val[moved] = v[accepted]
        return moved

    def coordinate(i):
        def probe(base, xs):
            out = np.repeat(base[:, None, :], xs.shape[1], axis=1)
            out[:, :, i] = xs
            return out

        return probe

    def along(d):
        return lambda base, ts: np.clip(base[:, None, :] + ts[:, :, None] * d, lo, hi)

    active = np.arange(rows)
    with np.errstate(invalid="ignore"):
        for _ in range(3):
            sweeping = active
            for _ in range(_MAX_SWEEPS):
                if sweeping.size == 0:
                    break
                before = val[sweeping]
                box_lo, box_hi = np.full(sweeping.size, lo), np.full(sweeping.size, hi)
                for i in range(n):
                    move(sweeping, f[sweeping, i], box_lo, box_hi, coordinate(i))
                after = val[sweeping]
                sweeping = sweeping[~(after - before <= _SWEEP_TOL * (1.0 + np.abs(after)))]
            # pair/diagonal polish after the sweeps go stationary: coordinate
            # moves alone can stall on the tie ridges of piecewise-linear
            # objectives; a successful polish move triggers another round
            polished = np.zeros(rows, dtype=bool)
            for d in _pair_directions(n):
                safe = np.where(d != 0.0, d, 1.0)
                cur = f[active]
                up = np.where(d > 0, (hi - cur) / safe, np.where(d < 0, (lo - cur) / safe, np.inf))
                down = np.where(d > 0, (lo - cur) / safe, np.where(d < 0, (hi - cur) / safe, -np.inf))
                t_hi = np.min(up, axis=1)
                t_lo = np.max(down, axis=1)
                open_ = t_hi > t_lo
                if open_.any():
                    sub = active[open_]
                    polished[move(sub, np.zeros(sub.size), t_lo[open_], t_hi[open_], along(d))] = True
            active = active[polished[active]]
            if active.size == 0:
                break
    return f, val


@dataclass(frozen=True)
class ConjugateValue:
    """One conjugate evaluation: best value found plus search diagnostics."""

    value: float
    possibly_infinite: bool
    argmax: tuple[float, ...]
    start_values: tuple[float, ...]


# search rows of one lockstep ascent: bounds the scan and recentring
# matrices, whose size grows with the dual grid
_BATCH_ROWS = 1024


def _conjugates(
    rho: ConvexFunctional, space: ProbabilitySpace, duals: np.ndarray, cfg: SearchConfig
) -> list[ConjugateValue]:
    """Conjugates at every row of ``duals``, in grid order, by lockstep batches of points."""
    step = max(1, _BATCH_ROWS // (3 + cfg.extra_starts))
    return [cv for i in range(0, len(duals), step) for cv in _lockstep(rho, space, duals[i : i + step], cfg)]


def _lockstep(
    rho: ConvexFunctional, space: ProbabilitySpace, duals: np.ndarray, cfg: SearchConfig
) -> list[ConjugateValue]:
    """Conjugates at every row of ``duals``, searched together in lockstep.

    Every dual point starts from the origin, the properness witness, the
    (clipped) point itself and seeded random points, the same for every
    point; duplicate starts of a point are searched once.  One ascent runs
    over all (point, start) rows.  If a point's best maximiser sits on the
    box boundary its supremum may be infinite and it is flagged; otherwise
    disagreeing restarts raise SearchDiverged for the first such point.
    """
    lo, hi = cfg.box
    n = space.size
    rng = np.random.default_rng(cfg.seed)
    extra = [rng.uniform(lo / 8.0, hi / 8.0, n) for _ in range(cfg.extra_starts)]
    witness = rho.witness(space).array
    owner, starts = [], []
    for p, g in enumerate(duals):
        seen: set[tuple[float, ...]] = set()
        for start in [np.zeros(n), witness, np.clip(g, lo, hi), *extra]:
            key = tuple(np.round(start, 12).tolist())
            if key not in seen:
                seen.add(key)
                owner.append(p)
                starts.append(start)
    wg = duals * space.weight_array

    def score(matrix):
        return rho.rows(space, matrix)

    f, val = _ascend(score, wg[owner], np.array(starts), cfg.box)
    bounds = np.searchsorted(owner, np.arange(len(duals) + 1))
    best = np.array([s + int(np.argmax(val[s:e])) for s, e in zip(bounds[:-1], bounds[1:])])
    best_f, best_v = f[best], val[best]

    # a maximiser on the box edge means "possibly infinite" only when the
    # objective is still climbing there; an optimum that merely sits at the
    # edge (e.g. a log pushed toward -inf with zero weight) stays finite
    margin = _BOUNDARY_MARGIN * (hi - lo)
    step = (hi - lo) / 256.0
    at_lo = best_f <= lo + margin
    edge_p, edge_i = np.nonzero(at_lo | (best_f >= hi - margin))
    on_boundary = np.zeros(len(duals), dtype=bool)
    if edge_p.size:
        inner = best_f[edge_p]
        inner[np.arange(edge_p.size), edge_i] += np.where(at_lo[edge_p, edge_i], step, -step)
        with np.errstate(invalid="ignore"):
            drop = best_v[edge_p] - _objective(score, wg[edge_p], inner[:, None, :])[:, 0]
        on_boundary[edge_p[drop > 1e-7 * (1.0 + np.abs(best_v[edge_p]))]] = True

    out = []
    for p, (s, e) in enumerate(zip(bounds[:-1], bounds[1:])):
        values = val[s:e].tolist()
        v = float(best_v[p])
        finite = [x for x in values if x > -math.inf]
        if not on_boundary[p] and finite and max(finite) - min(finite) > _VALUE_TOL * (1.0 + abs(v)):
            raise SearchDiverged(
                f"restarts for {rho.name!r} disagree: {sorted(finite)} with no boundary escape"
            )
        out.append(ConjugateValue(v, bool(on_boundary[p]), tuple(best_f[p].tolist()), tuple(values)))
    return out


def fenchel_conjugate(
    rho: ConvexFunctional,
    g: RandomVariable,
    config: SearchConfig | None = None,
) -> ConjugateValue:
    """Estimate ``sup_f ( <f,g> - rho(f) )`` over the search box.

    A one-point call into the lockstep engine behind
    ``ConjugateField.compute``: the same starts, the "possibly infinite"
    flag when the maximiser is still climbing at the box boundary, and
    SearchDiverged when restarts disagree without such an escape.
    """
    return _conjugates(rho, g.space, g.array[None, :], config or SearchConfig())[0]


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
        points = list(dual_points)
        if not points:
            raise EmptyDualGrid("no dual points supplied")
        space = points[0].space
        if any(p.space != space for p in points):
            raise ValueError("dual points must share one space")
        matrix = np.array([p.array for p in points])
        reports = _conjugates(rho, space, matrix, config or SearchConfig())
        flags = np.array([cv.possibly_infinite for cv in reports], dtype=bool)
        values = np.array([math.inf if cv.possibly_infinite else cv.value for cv in reports])
        return cls(space, matrix, values, flags, tuple(reports))

    def __len__(self) -> int:
        return self.dual_matrix.shape[0]


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
    scores = field.dual_matrix[finite] @ (field.space.weight_array * f.array)
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
    """
    conjugates = ConjugateField.compute(rho, dual_points, config)
    gaps = []
    rho_vals = []
    bi_vals = []
    witness = None
    for i, f in enumerate(probes):
        r = rho.evaluate(f)
        b = biconjugate(conjugates, f)
        gap = r - b
        gaps.append(gap)
        rho_vals.append(r)
        bi_vals.append(b)
        if witness is None and gap > tol:
            witness = i
    verdict = "representable-evidence" if witness is None else "gap-found"
    return DualRepReport(tuple(gaps), tuple(rho_vals), tuple(bi_vals), verdict, witness, tol, conjugates)


# -- dual grids ---------------------------------------------------------------


def density_lattice(space: ProbabilitySpace, step: float) -> list[RandomVariable]:
    """All densities on the space whose values are multiples of ``step``.

    A density g satisfies g >= 0 and E[g] = 1.  Only spaces with equal
    weights are supported.  The densities are the ways to share
    ``units = 1 / (step * weight)`` steps among the n cells, C(units + n - 1,
    n - 1) of them, listed in lexicographic order of the cell counts; a
    lattice of more than 2,000,000 points raises ValueError before any is
    built.
    """
    n = space.size
    w = space.weights[0]
    if any(wi != w for wi in space.weights):
        raise ValueError("density lattices need equal weights")
    if not step > 0:
        raise ValueError("step must be > 0")
    units = round(1.0 / (step * w))
    if abs(units * step * w - 1.0) > 1e-9:
        raise ValueError("step must divide the total mass")
    if math.comb(units + n - 1, n - 1) > 2_000_000:
        raise ValueError("density lattice too large")
    out: list[RandomVariable] = []
    # stars and bars: n - 1 bars among units + n - 1 slots; cell counts are the gaps
    for bars in itertools.combinations(range(units + n - 1), n - 1):
        edges = (-1, *bars, units + n - 1)
        counts = [b - a - 1 for a, b in zip(edges, edges[1:])]
        out.append(RandomVariable.from_values(space, [c * step for c in counts]))
    return out


# -- builtin functionals ------------------------------------------------------


def _pointwise(evaluate_rows):
    """The scalar evaluate of a batched one: its value on a one-row matrix."""
    return lambda f: float(evaluate_rows(f.space, f.array[None, :])[0])


def _avar_taken(matrix: np.ndarray, weights: np.ndarray, alpha: float):
    """Per row, the cells sorted worst first and the mass alpha takes from each."""
    order = np.argsort(-matrix, axis=1, kind="stable")
    w = weights[order]
    return order, np.minimum(w, np.maximum(alpha - (np.cumsum(w, axis=1) - w), 0.0))


def _avar_tail_density(f: RandomVariable, alpha: float) -> RandomVariable:
    """The maximising density: mass 1/alpha on the worst-outcome cells."""
    weights = f.space.weight_array
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
        evaluate_rows=lambda space, m: m @ space.weight_array,
        known_conjugate=lambda g: 0.0 if float(np.max(np.abs(g.array - 1.0))) <= 1e-9 else math.inf,
        dual_witness=lambda f: RandomVariable.ones(f.space),
        cash_invariant=True,
    )


def _neg_expectation() -> ConvexFunctional:
    return ConvexFunctional(
        name="neg-expectation",
        evaluate=lambda f: -integrate(f),
        evaluate_rows=lambda space, m: -(m @ space.weight_array),
        known_conjugate=lambda g: 0.0 if float(np.max(np.abs(g.array + 1.0))) <= 1e-9 else math.inf,
        dual_witness=lambda f: RandomVariable.constant(f.space, -1.0),
    )


def _entropic(beta: float = 1.0) -> ConvexFunctional:
    if not beta > 0:
        raise ValueError("beta must be > 0")

    def evaluate_rows(space: ProbabilitySpace, m: np.ndarray) -> np.ndarray:
        x = beta * m
        top = np.max(x, axis=1)
        return (top + np.log(np.exp(x - top[:, None]) @ space.weight_array)) / beta

    def known_conjugate(g: RandomVariable) -> float:
        if not _is_density(g):
            return math.inf
        arr = np.clip(g.array, 0.0, None)
        ent = np.where(arr > 0.0, arr * np.log(np.where(arr > 0.0, arr, 1.0)), 0.0)
        return float(np.dot(g.space.weight_array, ent)) / beta

    def dual_witness(f: RandomVariable) -> RandomVariable:
        x = beta * f.array
        x = x - np.max(x)
        expo = np.exp(x)
        z = float(np.dot(f.space.weight_array, expo))
        return RandomVariable.from_values(f.space, expo / z)

    return ConvexFunctional(
        name=f"entropic(beta={beta:g})",
        evaluate=_pointwise(evaluate_rows),
        evaluate_rows=evaluate_rows,
        known_conjugate=known_conjugate,
        dual_witness=dual_witness,
        cash_invariant=True,
    )


def _avar(alpha: float = 0.5) -> ConvexFunctional:
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")

    def evaluate_rows(space: ProbabilitySpace, m: np.ndarray) -> np.ndarray:
        order, taken = _avar_taken(m, space.weight_array, alpha)
        return np.einsum("ij,ij->i", taken, m[np.arange(m.shape[0])[:, None], order]) / alpha

    def known_conjugate(g: RandomVariable) -> float:
        ok = _is_density(g) and bool(np.all(g.array <= 1.0 / alpha + 1e-9))
        return 0.0 if ok else math.inf

    return ConvexFunctional(
        name=f"avar(alpha={alpha:g})",
        evaluate=_pointwise(evaluate_rows),
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
        evaluate=_pointwise(evaluate_rows),
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
        return radius * float(np.dot(g.space.weight_array, np.abs(g.array)))

    return ConvexFunctional(
        name=("open-ball" if open_ball else "supnorm-ball") + f"(radius={radius:g})",
        evaluate=_pointwise(evaluate_rows),
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
