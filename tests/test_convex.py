import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from uodual import convex
from uodual.convex import (
    ConjugateField,
    ConvexFunctional,
    EmptyDualGrid,
    SearchConfig,
    SearchDiverged,
    UnknownName,
    biconjugate,
    builtin,
    builtin_names,
    density_lattice,
    dual_representation_check,
    fenchel_conjugate,
)
from uodual.measure import ProbabilitySpace, RandomVariable, integrate, pairing

SP4 = ProbabilitySpace.dyadic(2)
SP1 = ProbabilitySpace.dyadic(0)


def rv(values, space=SP4):
    return RandomVariable.from_values(space, values)


ZOO = [
    ("expectation", {}),
    ("neg-expectation", {}),
    ("entropic", {"beta": 0.5}),
    ("entropic", {"beta": 2.0}),
    ("avar", {"alpha": 0.3}),
    ("avar", {"alpha": 1.0}),
    ("worst-case", {}),
    ("supnorm-ball", {"radius": 1.0}),
    ("open-ball", {"radius": 1.0}),
]
SPACES = [SP1, ProbabilitySpace.dyadic(1), SP4, ProbabilitySpace((0.5, 0.3, 0.2))]


def reference_value(name, params, f):
    """Independent oracle: the zoo by textbook formulas, one variable at a time."""
    w, x = f.space.weights, f.values
    if name in ("expectation", "neg-expectation"):
        mean = math.fsum(a * b for a, b in zip(w, x))
        return mean if name == "expectation" else -mean
    if name == "entropic":
        beta = params["beta"]
        top = max(x)
        return top + math.log(math.fsum(a * math.exp(beta * (b - top)) for a, b in zip(w, x))) / beta
    if name == "avar":
        remaining, acc = params["alpha"], 0.0
        for b, a in sorted(zip(x, w), key=lambda ba: -ba[0]):
            take = min(a, remaining)
            acc += take * b
            remaining -= take
        return acc / params["alpha"]
    if name == "worst-case":
        return max(x)
    peak = max(abs(b) for b in x)
    inside = peak < params["radius"] if name == "open-ball" else peak <= params["radius"]
    return 0.0 if inside else math.inf


@st.composite
def zoo_batches(draw):
    """A zoo member, a space and a batch of rows with ties and ball-boundary values."""
    name, params = draw(st.sampled_from(ZOO))
    space = draw(st.sampled_from(SPACES))
    # quarter-steps tie often and hit the unit ball's edge exactly
    cell = st.one_of(
        st.integers(min_value=-12, max_value=12).map(lambda k: k / 4.0),
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    )
    rows = draw(st.lists(st.lists(cell, min_size=space.size, max_size=space.size), min_size=1, max_size=6))
    return name, params, space, np.array(rows, dtype=float)


def dense_grid_conjugate(rho, g, bound=6.0, step=0.25):
    """Independent oracle: brute-force sup over a full coordinate lattice."""
    axis = np.arange(-bound, bound + step / 2, step)
    w = g.space.weights
    best = -math.inf
    grids = np.meshgrid(*([axis] * g.space.size), indexing="ij")
    points = np.stack([a.ravel() for a in grids], axis=1)
    for f_vals in points:
        f = RandomVariable.from_values(g.space, f_vals)
        val = float(np.dot(w * g.array, f_vals)) - rho.evaluate(f)
        best = max(best, val)
    return best


def _sequential_ascend(score, wg, starts, box, counts=None):
    """Reference for ``convex._ascend``: every line is searched on its own.

    A sweep runs one ``section_max`` per coordinate direction e_i, on
    ``[lo - f_i, hi - f_i]`` from t = 0, and repeats while it gains more
    than 1e-12 relative.  Every round then runs one ``section_max`` per
    pair or diagonal direction over all rows still active; ``counts``,
    when given, tallies those polish calls and the rounds.
    """
    lo, hi = box
    f = np.clip(starts, lo, hi)
    rows, n = f.shape
    val = convex._objective(score, wg, f[:, None, :])[:, 0]

    def move(sub, t_lo, t_hi, probe):
        base, w = f[sub], wg[sub]

        def fun(idx, xs):
            return convex._objective(score, w[idx], probe(base[idx], xs))

        x, v = convex.section_max(fun, t_lo, t_hi, np.zeros(sub.size), val[sub], t_hi - t_lo)
        accepted = v > val[sub] + 1e-12 * (1.0 + np.abs(val[sub]))
        moved = sub[accepted]
        f[moved] = probe(base[accepted], x[accepted, None])[:, 0]
        val[moved] = v[accepted]
        return moved

    def along(d):
        return lambda base, ts: np.clip(base[:, None, :] + ts[:, :, None] * d, lo, hi)

    active = np.arange(rows)
    with np.errstate(invalid="ignore"):
        for _ in range(3):
            sweeping = active
            for _ in range(convex._MAX_SWEEPS):
                if sweeping.size == 0:
                    break
                before = val[sweeping]
                for i, e in enumerate(np.eye(n)):
                    cur = f[sweeping, i]
                    move(sweeping, lo - cur, hi - cur, along(e))
                after = val[sweeping]
                sweeping = sweeping[~(after - before <= 1e-12 * (1.0 + np.abs(after)))]
            if counts is not None:
                counts["rounds"] += 1
            polished = np.zeros(rows, dtype=bool)
            for d in convex._pair_directions(n):
                safe = np.where(d != 0.0, d, 1.0)
                cur = f[active]
                up = np.where(d > 0, (hi - cur) / safe, np.where(d < 0, (lo - cur) / safe, np.inf))
                down = np.where(d > 0, (lo - cur) / safe, np.where(d < 0, (hi - cur) / safe, -np.inf))
                t_hi = np.min(up, axis=1)
                t_lo = np.max(down, axis=1)
                open_ = t_hi > t_lo
                if open_.any():
                    if counts is not None:
                        counts["polish"] += 1
                    sub = active[open_]
                    polished[move(sub, t_lo[open_], t_hi[open_], along(d))] = True
            active = active[polished[active]]
            if active.size == 0:
                break
    return f, val


class TestFenchelConjugate:
    def test_linear_functional_conjugate(self):
        g0 = rv([1.0, 2.0, -1.0, 0.5])
        rho = ConvexFunctional("linear", evaluate=lambda f: pairing(f, g0))
        cv = fenchel_conjugate(rho, g0)
        assert not cv.possibly_infinite
        assert abs(cv.value) <= 1e-9
        off = fenchel_conjugate(rho, rv([1.0, 2.0, -1.0, 0.75]))
        assert off.possibly_infinite

    def test_quadratic_closed_form(self):
        rho = ConvexFunctional("quadratic", evaluate=lambda f: 0.5 * pairing(f, f))
        rng = np.random.default_rng(2)
        for _ in range(6):
            g = rv(rng.uniform(-3, 3, 4))
            cv = fenchel_conjugate(rho, g)
            assert not cv.possibly_infinite
            assert abs(cv.value - 0.5 * pairing(g, g)) <= 1e-6

    def test_quadratic_against_dense_grid(self):
        sp2 = ProbabilitySpace.dyadic(1)
        rho = ConvexFunctional("quadratic", evaluate=lambda f: 0.5 * pairing(f, f))
        g = RandomVariable.from_values(sp2, [1.5, -2.0])
        cv = fenchel_conjugate(rho, g)
        oracle = dense_grid_conjugate(rho, g, bound=6.0, step=0.05)
        assert cv.value >= oracle - 1e-9
        assert abs(cv.value - 0.5 * pairing(g, g)) <= 1e-6

    def test_entropic_relative_entropy_conjugate(self):
        rho = builtin("entropic", beta=1.0)
        rng = np.random.default_rng(3)
        for _ in range(5):
            raw = rng.uniform(0.05, 2.0, 4)
            dens = raw / float(np.dot(SP4.weights, raw))
            g = rv(dens)
            cv = fenchel_conjugate(rho, g)
            assert not cv.possibly_infinite
            assert abs(cv.value - rho.known_conjugate(g)) <= 1e-5

    def test_entropic_non_density_flagged(self):
        rho = builtin("entropic", beta=1.0)
        assert fenchel_conjugate(rho, rv([1.1] * 4)).possibly_infinite
        assert fenchel_conjugate(rho, rv([2.0, 2.0, 0.5, -0.5])).possibly_infinite

    @staticmethod
    def above_five(**witness):
        """The indicator of {f >= 5}, whose conjugate at -1 is -5."""
        def evaluate(f):
            return 0.0 if np.all(f.array >= 5) else math.inf

        return ConvexFunctional("above-5", evaluate=evaluate, **witness)

    def test_witness_outside_the_domain_is_refused(self):
        # the default witness 0 lies outside the domain: every start was -inf, and the
        # conjugate at -1 came out as -inf, unflagged
        with pytest.raises(ValueError, match="above-5"):
            fenchel_conjugate(self.above_five(), rv([-1.0] * 4))

    def test_witness_inside_the_domain_finds_the_conjugate(self):
        rho = self.above_five(witness=lambda s: RandomVariable.constant(s, 6.0))
        cv = fenchel_conjugate(rho, rv([-1.0] * 4))
        assert not cv.possibly_infinite
        assert cv.value == pytest.approx(-5.0, abs=1e-9)

    def test_search_diverged_on_nonconvex_oracle(self):
        # two finite basins, mutually invisible along every scanned line
        # direction (axes and diagonals); restarts end in different basins
        sp2 = ProbabilitySpace.dyadic(1)
        a_center = np.array([0.0, 0.0])
        b_center = np.array([15.0, 7.0])

        def two_basins(f):
            v = np.asarray(f.values)
            if np.linalg.norm(v - a_center) <= 1.0:
                return -5.0
            if np.linalg.norm(v - b_center) <= 1.0:
                return -3.0
            return math.inf

        rho = ConvexFunctional("two-basins", evaluate=two_basins)
        g = RandomVariable.from_values(sp2, b_center)
        with pytest.raises(SearchDiverged):
            fenchel_conjugate(rho, g)


class TestSearchConfig:
    # the last box has finite ends, but its width overflows to inf, and the
    # section search spun forever on it
    @pytest.mark.parametrize(
        "box", [(0.0, 0.0), (5.0, -5.0), (-math.inf, math.inf), (-64.0, math.nan), (-1e308, 1e308)]
    )
    def test_box_must_be_a_finite_interval(self, box):
        # an empty box used to return 0.0 unflagged for a conjugate of log 2; the others
        # failed inside numpy or with OverflowError
        with pytest.raises(ValueError, match="box"):
            SearchConfig(box=box)

    @pytest.mark.parametrize("box", [(-10_000.0, 10_000.0), (0.0, 1e12), (-4096.5, -4000.0)])
    def test_box_must_lie_inside_the_trusted_range(self, box):
        # at |f| ~ 1e4 the ascent drifted on rounding noise: gap-found at box 10000,
        # SearchDiverged from box 1e12 on
        with pytest.raises(ValueError, match=r"box must lie inside \[-4096, 4096\]"):
            SearchConfig(box=box)
        assert SearchConfig(box=(-convex.MAX_BOX, convex.MAX_BOX)).box == (-4096.0, 4096.0)

    def test_valid_configs_are_kept(self):
        cfg = SearchConfig(box=(-1.0, 2.0), seed=3)
        assert cfg.box == (-1.0, 2.0) and cfg.seed == 3
        cv = fenchel_conjugate(builtin("entropic", beta=1.0), rv([2.0, 2.0, 0.0, 0.0]), SearchConfig())
        assert cv.value == pytest.approx(math.log(2.0), abs=1e-6) and not cv.possibly_infinite


class TestConjugateField:
    def test_compute(self):
        rho = builtin("expectation")
        pts = [RandomVariable.ones(SP4), rv([2.0, 0.0, 1.0, 1.0])]
        field = ConjugateField.compute(rho, pts)
        assert len(field) == 2
        assert field.values[0] == pytest.approx(0.0, abs=1e-9)
        assert math.isinf(field.values[1])

    def test_empty_grid_rejected(self):
        with pytest.raises(EmptyDualGrid):
            ConjugateField.compute(builtin("expectation"), [])

    def test_values_above_minus_infinity(self):
        rho = builtin("entropic", beta=2.0)
        field = ConjugateField.compute(rho, density_lattice(SP4, 1.0))
        assert np.all(field.values > -math.inf)

    def test_convex_along_dual_segments(self):
        rho = builtin("entropic", beta=1.0)
        g0 = rv([1.0] * 4)
        g1 = rv([2.0, 1.0, 0.5, 0.5])
        mid = rv([1.5, 1.0, 0.75, 0.75])
        field = ConjugateField.compute(rho, [g0, mid, g1])
        assert field.values[1] <= 0.5 * (field.values[0] + field.values[2]) + 1e-6


class TestBiconjugate:
    def test_linear_recovered_exactly(self):
        g0 = rv([1.0, 2.0, -1.0, 0.5])
        rho = ConvexFunctional("linear", evaluate=lambda f: pairing(f, g0))
        field = ConjugateField.compute(rho, [g0])
        f = rv([0.5, 1.0, -2.0, 3.0])
        assert biconjugate(field, f) == pytest.approx(pairing(f, g0), abs=1e-9)

    def test_quadratic_grid_resolution_bound(self):
        rho = ConvexFunctional("quadratic", evaluate=lambda f: 0.5 * pairing(f, f))
        axis = np.arange(-4.0, 4.0 + 0.125, 0.25)
        matrix = np.stack([a.ravel() for a in np.meshgrid(*([axis] * 4), indexing="ij")], axis=1)
        values = 0.5 * (matrix**2 @ SP4.weights)
        field = ConjugateField(SP4, matrix, values, np.isinf(values))
        rng = np.random.default_rng(4)
        for _ in range(10):
            f = rv(rng.uniform(-3.5, 3.5, 4))
            bi = biconjugate(field, f)
            direct = rho.evaluate(f)
            assert bi <= direct + 1e-12
            assert direct - bi <= 0.05

    def test_open_interval_yields_closed_hull(self):
        rho = builtin("open-ball", radius=1.0)
        grid = [RandomVariable.from_values(SP1, [v]) for v in np.arange(-4.0, 4.01, 0.5)]
        field = ConjugateField.compute(rho, grid)
        boundary = RandomVariable.from_values(SP1, [1.0])
        assert rho.evaluate(boundary) == math.inf
        assert abs(biconjugate(field, boundary)) <= 1e-6

    def test_no_finite_values_rejected(self):
        rho = builtin("expectation")
        field = ConjugateField.compute(rho, [rv([2.0, 0.0, 1.0, 1.0])])
        with pytest.raises(EmptyDualGrid):
            biconjugate(field, rv([1.0] * 4))

    def test_monotone_in_dual_grid(self):
        rho = builtin("entropic", beta=1.0)
        cfg = SearchConfig()
        probes = [rv([0.5, -0.5, 1.0, 0.0]), rv([0.0, 0.0, 0.0, 0.0])]
        coarse = density_lattice(SP4, 1.0)
        fine = density_lattice(SP4, 0.5)
        f_coarse = ConjugateField.compute(rho, coarse, cfg)
        f_fine = ConjugateField.compute(rho, fine, cfg)
        for f in probes:
            assert biconjugate(f_fine, f) >= biconjugate(f_coarse, f) - 1e-9


class TestDualRepresentation:
    def test_expectation_is_representable(self):
        rho = builtin("expectation")
        probes = [rv([0.5, -0.5, 1.0, 0.0]), RandomVariable.zero(SP4)]
        grid = density_lattice(SP4, 0.5)
        rep = dual_representation_check(rho, probes, grid, 1e-6)
        assert rep.verdict == "representable-evidence"
        assert rep.max_gap <= 1e-6

    def test_entropic_with_adapted_grid(self):
        rho = builtin("entropic", beta=1.0)
        rng = np.random.default_rng(6)
        probes = [rv(rng.uniform(-1, 1, 4)) for _ in range(4)]
        grid = density_lattice(SP4, 0.5) + [rho.dual_witness(f) for f in probes]
        rep = dual_representation_check(rho, probes, grid, 1e-3, SearchConfig())
        assert rep.verdict == "representable-evidence"
        assert all(g >= -1e-3 for g in rep.gaps)

    def test_open_ball_gap_found_at_boundary(self):
        rho = builtin("open-ball", radius=1.0)
        inside = RandomVariable.from_values(SP1, [0.5])
        boundary = RandomVariable.from_values(SP1, [1.0])
        grid = [RandomVariable.from_values(SP1, [v]) for v in np.arange(-4.0, 4.01, 0.5)]
        rep = dual_representation_check(rho, [inside, boundary], grid, 1e-3)
        assert rep.verdict == "gap-found"
        assert rep.witness == 1
        assert rep.gaps[0] <= 1e-3
        assert math.isinf(rep.gaps[1])
        assert len(rep.conjugates) == len(grid) and "conjugates" not in rep.to_dict()

    def test_empty_probe_list_refused_before_the_search(self, monkeypatch):
        # it read representable-evidence with no gaps, and max_gap raised a bare
        # "max() arg is an empty sequence"
        monkeypatch.setattr(ConjugateField, "compute", None)
        with pytest.raises(ValueError, match="probes"):
            dual_representation_check(builtin("expectation"), [], density_lattice(SP4, 0.5), 1e-6)

    def test_tol_validated(self):
        # a NaN tol used to read the gap at a probe outside the ball as representable
        rho = builtin("supnorm-ball")
        probe = RandomVariable.constant(SP4, 3.0)
        for tol in (math.nan, -1.0):
            with pytest.raises(ValueError, match="tol"):
                dual_representation_check(rho, [probe], [RandomVariable.zero(SP4)], tol)


class TestBatchedEvaluation:
    @settings(max_examples=300, deadline=None)
    @given(zoo_batches())
    @example(("worst-case", {}, SP4, np.array([[1.0, 1.0, 1.0, -2.0], [0.5, 0.5, 0.5, 0.5]])))
    @example(("avar", {"alpha": 0.5}, SP4, np.array([[1.0, 1.0, 1.0, -2.0]] * 3)))
    @example(("supnorm-ball", {"radius": 1.0}, SP4, np.array([[1.0, -1.0, 0.0, 0.5], [1.5, 0.0, 0.0, 0.0]])))
    def test_rows_match_scalar_evaluate(self, batch):
        name, params, space, matrix = batch
        rho = builtin(name, **params)
        batched = rho.rows(space, matrix)
        assert batched.shape == (matrix.shape[0],)
        for row, value in zip(matrix, batched):
            f = RandomVariable.from_values(space, row)
            scalar = rho.evaluate(f)
            ref = reference_value(name, params, f)
            for got in (value, scalar):
                if math.isinf(ref):
                    assert got == ref, (name, row)
                else:
                    assert got == pytest.approx(ref, rel=1e-12, abs=1e-12), (name, row)

    def test_scalar_only_functional_uses_adapter(self):
        calls = []

        def evaluate(f):
            calls.append(f.values)
            return 0.5 * pairing(f, f)

        rho = ConvexFunctional("quadratic", evaluate=evaluate)
        matrix = np.array([[1.0, 2.0, 0.0, -1.0], [0.5, 0.5, 0.5, 0.5]])
        assert rho.rows(SP4, matrix).tolist() == [0.75, 0.125]
        assert calls == [tuple(matrix[0]), tuple(matrix[1])]

    def test_batched_only_functional_derives_evaluate(self):
        rho = ConvexFunctional("mean", evaluate_rows=lambda space, m: m @ space.weights)
        assert rho.evaluate(rv([1.0, 2.0, 0.0, -1.0])) == 0.5
        with pytest.raises(ValueError, match="evaluate"):
            ConvexFunctional("no-oracle")


class TestLockstepEngine:
    MIXED = [
        rv([1.0] * 4),
        rv([4.0, 0.0, 0.0, 0.0]),
        rv([2.0, 1.0, 0.5, 0.5]),
        rv([1.1] * 4),
        rv([2.0, 2.0, 0.5, -0.5]),
        rv([0.0, 0.0, 2.0, 2.0]),
    ]

    def assert_field_matches_points(self, rho, grid, cfg):
        field = ConjugateField.compute(rho, grid, cfg)
        for i, g in enumerate(grid):
            cv = fenchel_conjugate(rho, g, cfg)
            assert field.boundary_flags[i] == cv.possibly_infinite, i
            assert field.reports[i].value == pytest.approx(cv.value, rel=1e-9, abs=1e-9), i
            assert field.reports[i].start_values == pytest.approx(cv.start_values, rel=1e-9, abs=1e-9), i
        return field

    def test_builtin_field_matches_single_points(self):
        rho = builtin("entropic", beta=1.0)
        field = self.assert_field_matches_points(rho, self.MIXED, SearchConfig())
        assert field.boundary_flags.tolist() == [False, False, False, True, True, False]

    def test_scalar_only_field_matches_single_points(self):
        entropic = builtin("entropic", beta=1.0)
        rho = ConvexFunctional("entropic-scalar", evaluate=entropic.evaluate)
        field = self.assert_field_matches_points(rho, self.MIXED[:4], SearchConfig())
        for i, g in enumerate(self.MIXED[:4]):
            oracle = entropic.known_conjugate(g)
            if math.isinf(oracle):
                assert field.boundary_flags[i]
            else:
                assert field.values[i] == pytest.approx(oracle, abs=1e-5)

    def test_grid_split_in_halves_gives_the_same_bits(self):
        # 401 points, more than one batch of the old 256-point cap
        grid = density_lattice(ProbabilitySpace.dyadic(1), 0.005)
        for name in ("worst-case", "avar", "entropic"):
            rho = builtin(name)
            whole = ConjugateField.compute(rho, grid)
            halves = [ConjugateField.compute(rho, part) for part in (grid[:200], grid[200:])]
            assert repr(whole.reports) == repr(halves[0].reports + halves[1].reports), name
            assert whole.values.tobytes() == b"".join(h.values.tobytes() for h in halves), name
            flags = [b for h in halves for b in h.boundary_flags.tolist()]
            assert whole.boundary_flags.tolist() == flags, name

    def test_supnorm_balls_match_support_function(self):
        grid = [rv([1.0, -2.0, 0.5, 0.0]), rv([-3.0, -1.0, 2.5, 4.0]), RandomVariable.zero(SP4)]
        for name in ("supnorm-ball", "open-ball"):
            rho = builtin(name, radius=2.0)
            field = ConjugateField.compute(rho, grid)
            assert not np.any(field.boundary_flags), name
            for i, g in enumerate(grid):
                assert field.values[i] == pytest.approx(rho.known_conjugate(g), abs=1e-4), (name, i)


@st.composite
def concave_slices(draw):
    """One concave slice of a line: ``(fun, lo, hi, critical, edge)``, with the start at t = 0.

    The box is drawn inside [-64, 64] and shifted so that the start, drawn
    in it, sits at 0.  ``critical`` holds the abscissae where the maximum
    can sit off a dense grid (the vertex, the kinks, the ends of the finite
    interval), and ``edge`` names the box end that is the unique
    maximiser, if one is.  The tent and the flat run are the slices the
    envelope stop certifies; the indicator's -inf runs must not pass it.
    """
    lo = draw(st.floats(-64.0, 60.0))
    hi = draw(st.floats(lo + 1.0, 64.0))
    # lo + (hi - lo) * u can round past hi, so drawn points are capped at hi
    x0 = min(hi, lo + (hi - lo) * draw(st.floats(0.0, 1.0)))
    lo, hi = lo - x0, hi - x0
    d = draw(st.floats(-10.0, 10.0))
    family = draw(st.sampled_from(["quadratic", "plateau", "indicator", "edge", "tent", "flat"]))
    edge = None
    if family in ("quadratic", "edge"):
        a = draw(st.floats(1e-2, 1e2))
        if family == "quadratic":
            c = draw(st.floats(lo - 20.0, hi + 20.0))
        else:
            edge = draw(st.sampled_from(["lo", "hi"]))
            beyond = draw(st.sampled_from([0.0, 1e-9, 1.0, 50.0]))
            c = lo - beyond if edge == "lo" else hi + beyond

        def fun(x):
            return d - a * (x - c) ** 2

        critical = [c]
    elif family == "plateau":
        # min of three affine pieces, the middle one flat: a plateau on [p1, p2]
        p1 = draw(st.floats(lo - 10.0, hi + 10.0))
        p2 = p1 + draw(st.sampled_from([0.0, 1e-6, 0.1, 5.0]))
        m1, m2 = draw(st.floats(0.01, 4.0)), draw(st.floats(0.01, 4.0))

        def fun(x):
            return d + np.minimum(np.minimum(m1 * (x - p1), 0.0), -m2 * (x - p2))

        critical = [p1, p2]
    elif family == "tent":
        # one kink, at the start or at a drawn point: the envelope of the secants
        # either side meets there
        c = draw(st.one_of(st.just(0.0), st.floats(lo, hi)))
        m1, m2 = draw(st.floats(0.01, 4.0)), draw(st.floats(0.01, 4.0))

        def fun(x):
            return d + np.minimum(m1 * (x - c), -m2 * (x - c))

        critical = [c]
    elif family == "flat":
        # level from lo to past the third point of the first scan, then falling:
        # a flat run that starts at scan index 0
        p = lo + (hi - lo) * draw(st.floats(2.0 / (convex._SECTION_POINTS - 1), 1.5))
        m = draw(st.floats(0.01, 4.0))

        def fun(x):
            return d + np.minimum(0.0, -m * (x - p))

        critical = [lo, p]
    else:
        # linear on a sub-interval around the start narrower than one step of the
        # first scan, -inf elsewhere
        width = (hi - lo) / (convex._SECTION_POINTS - 1) * draw(st.floats(1e-3, 0.99))
        left = max(lo, -width * draw(st.floats(0.0, 1.0)))
        right = min(hi, left + width)
        m = draw(st.floats(-4.0, 4.0))

        def fun(x):
            return np.where((x >= left) & (x <= right), d + m * x, -np.inf)

        critical = [left, right]
    return fun, lo, hi, critical, edge


class TestSectionSearch:
    """``convex.section_max`` from t = 0 across the whole line against a dense-grid reference."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(concave_slices(), min_size=1, max_size=4))
    def test_maximum_of_concave_slices(self, slices):
        funs = [s[0] for s in slices]
        lo, hi = (np.array([s[i] for s in slices]) for i in (1, 2))

        def rows(idx, xs):
            return np.array([funs[i](x) for i, x in zip(idx, xs)])

        start = np.array([float(fun(np.array([0.0]))[0]) for fun in funs])
        x, v = convex.section_max(rows, lo, hi, np.zeros(lo.size), start, hi - lo)
        for k, (fun, a, b, critical, edge) in enumerate(slices):
            grid = np.concatenate([np.linspace(a, b, 4001), np.clip(critical, a, b)])
            reference = float(np.max(fun(grid)))
            assert abs(v[k] - reference) <= 1e-12 * (1.0 + abs(v[k])), (k, v[k], reference)
            assert v[k] >= fun(0.0)
            assert fun(np.array([x[k]]))[0] == v[k]
            if edge is not None:
                # the possibly-infinite test needs a maximiser on the box end to
                # land there, or on a float tie with it inside the boundary margin
                end = a if edge == "lo" else b
                tie = v[k] == fun(end) and abs(x[k] - end) <= convex._BOUNDARY_MARGIN * (b - a)
                assert x[k] == end or tie, (x[k], end)


    @pytest.mark.parametrize(
        "fun, most",
        [
            (lambda x: -np.abs(x), 1),  # a kink at the start, whose value is known
            (lambda x: np.minimum(2.0 * (x - 3.7), 0.5 * (3.7 - x)), 2),  # a kink between scan points
            (lambda x: np.minimum(0.0, 5.0 - x), 1),  # level from the box end past the third scan point
        ],
        ids=["kink-at-start", "kink-between-points", "flat-from-box-end"],
    )
    def test_kinks_and_flat_runs_stop_within_two_calls(self, fun, most):
        # the neighbour drops alone ran these down to the 1e-15 bracket, about 19 calls
        calls = []

        def rows(idx, xs):
            calls.append(idx.size)
            return fun(xs)

        lo, hi = np.array([-10.0]), np.array([10.0])
        _, v = convex.section_max(rows, lo, hi, np.zeros(1), fun(np.zeros(1)), hi - lo)
        assert len(calls) <= most and abs(v[0]) <= 1e-13


class TestBatchedPolish:
    """The batched polish of ``convex._ascend`` against the one-direction-at-a-time reference."""

    SP8 = ProbabilitySpace.dyadic(3)

    def avar8(self):
        rho = builtin("avar", alpha=0.25)
        probe = RandomVariable.from_values(self.SP8, np.random.default_rng(7).uniform(-1.5, 1.5, 8))
        mass = RandomVariable.from_values(self.SP8, [8.0] + [0.0] * 7)
        return rho, [RandomVariable.ones(self.SP8), mass, rho.dual_witness(probe)]

    def fields(self, monkeypatch, rho, grid, cfg=None):
        """The field of the program, then the field of the reference polish."""
        batched = ConjugateField.compute(rho, grid, cfg)
        with monkeypatch.context() as m:
            m.setattr(convex, "_ascend", _sequential_ascend)
            return batched, ConjugateField.compute(rho, grid, cfg)

    @staticmethod
    def assert_identical(a, b):
        # repr tells -0.0 from 0.0 and prints every float to the last bit
        assert repr(a.reports) == repr(b.reports)
        assert a.values.tobytes() == b.values.tobytes()
        assert a.boundary_flags.tolist() == b.boundary_flags.tolist()

    @pytest.mark.parametrize("name", builtin_names())
    def test_mixed_grid_under_every_builtin(self, name, monkeypatch):
        self.assert_identical(*self.fields(monkeypatch, builtin(name), TestLockstepEngine.MIXED))

    def test_eight_cell_avar_grid(self, monkeypatch):
        batched, reference = self.fields(monkeypatch, *self.avar8())
        self.assert_identical(batched, reference)
        assert batched.boundary_flags.tolist() == [False, True, False]

    def test_scalar_only_functional(self, monkeypatch):
        rho = ConvexFunctional("entropic-scalar", evaluate=builtin("entropic", beta=1.0).evaluate)
        grid = TestLockstepEngine.MIXED[:4]
        self.assert_identical(*self.fields(monkeypatch, rho, grid, SearchConfig()))

    def test_line_cap_does_not_change_the_field(self, monkeypatch):
        rho, grid = self.avar8()
        whole = ConjugateField.compute(rho, grid)
        for cap in (1, 10_000):  # one line per row, and every remaining line at once
            monkeypatch.setattr(convex, "_POLISH_LINES", cap)
            self.assert_identical(ConjugateField.compute(rho, grid), whole)

    def program_calls(self, monkeypatch):
        """The program's ``section_max`` calls on the 8-cell AVaR grid: (sweeps, polish).

        A call belongs to the walk it runs in; the sweeps walk the n coordinate directions.
        """
        calls, walks = [], []
        walk, inner = convex._walk, convex.section_max

        def tagged(objective, f, val, sub, dirs, box):
            walks.append("sweep" if len(dirs) == f.shape[1] else "polish")
            return walk(objective, f, val, sub, dirs, box)

        with monkeypatch.context() as m:
            m.setattr(convex, "_walk", tagged)
            m.setattr(convex, "section_max", lambda *a: calls.append(walks[-1]) or inner(*a))
            ConjugateField.compute(*self.avar8())
        return calls.count("sweep"), calls.count("polish")

    def reference_calls(self, monkeypatch):
        """The reference's ``section_max`` calls on the same grid: (sweeps, polish, rounds)."""
        calls, counts = [], {"polish": 0, "rounds": 0}
        inner = convex.section_max
        with monkeypatch.context() as m:
            m.setattr(convex, "section_max", lambda *a: calls.append(1) or inner(*a))
            m.setattr(convex, "_ascend", lambda *a: _sequential_ascend(*a, counts=counts))
            ConjugateField.compute(*self.avar8())
        return len(calls) - counts["polish"], counts["polish"], counts["rounds"]

    def test_polish_calls_per_round(self, monkeypatch):
        # the two engines make the same moves in the same rounds, but not the same sweep calls
        _, polish = self.program_calls(monkeypatch)
        _, reference, rounds = self.reference_calls(monkeypatch)
        assert reference >= 50 * rounds  # 57 directions on 8 cells
        assert polish <= 15 * rounds

    def test_sweeps_share_the_batched_walk(self, monkeypatch):
        # the sweeps used to run one call per coordinate, as the reference does
        sweeps, _ = self.program_calls(monkeypatch)
        reference, _, _ = self.reference_calls(monkeypatch)
        assert sweeps <= reference / 2

    @staticmethod
    def gibbs4():
        """Entropic rho on 4 cells with the Gibbs densities of three probes: interior dual points."""
        rho = builtin("entropic", beta=1.0)
        rng = np.random.default_rng(3)
        gibbs = [rho.dual_witness(rv(rng.uniform(-1.5, 1.5, 4))) for _ in range(3)]
        return rho, [RandomVariable.ones(SP4), *gibbs]

    @pytest.mark.parametrize("grid", ["avar8", "gibbs4"])
    def test_objective_calls_per_line(self, monkeypatch, grid):
        # golden section took about 62 calls per line, evaluating one point per row in each
        calls = {"objective": 0, "lines": 0}

        def counted(key, inner):
            def call(*args):
                calls[key] += 1
                return inner(*args)

            return call

        with monkeypatch.context() as m:
            m.setattr(convex, "_objective", counted("objective", convex._objective))
            m.setattr(convex, "section_max", counted("lines", convex.section_max))
            ConjugateField.compute(*getattr(self, grid)())
        # the envelope certifies the kinks of AVaR lines in one or two scans
        assert calls["objective"] <= {"avar8": 4, "gibbs4": 20}[grid] * calls["lines"]


class TestBuiltins:
    def test_names_and_unknown(self):
        for name in builtin_names():
            assert builtin(name).name.startswith(name.split("(")[0])
        with pytest.raises(UnknownName):
            builtin("nonsense")

    def test_keyword_no_builtin_takes_is_rejected(self):
        # a misspelt or retired keyword used to be dropped silently
        with pytest.raises(ValueError, match="bata"):
            builtin("entropic", bata=2.0)
        with pytest.raises(ValueError, match="open"):
            builtin("supnorm-ball", open=True)

    def test_keyword_another_builtin_takes_is_ignored(self):
        shared = {"beta": 2.0, "alpha": 0.25, "radius": 3.0}
        assert builtin("expectation", **shared).name == builtin("expectation").name
        assert builtin("avar", **shared).name == builtin("avar", alpha=0.25).name
        assert builtin("open-ball", **shared).name == builtin("open-ball", radius=3.0).name

    def test_expectation_of_constants(self):
        assert builtin("expectation").evaluate(RandomVariable.constant(SP4, 3.5)) == pytest.approx(3.5)

    def test_entropic_fixes_constants(self):
        for beta in (0.5, 1.0, 2.0):
            rho = builtin("entropic", beta=beta)
            assert rho.evaluate(RandomVariable.constant(SP4, -1.25)) == pytest.approx(-1.25)

    def test_avar_mean_of_worst_half(self):
        rho = builtin("avar", alpha=0.5)
        two = ProbabilitySpace.uniform(2)
        f = RandomVariable.from_values(two, [0.0, 1.0])
        # oracle: enumerate densities bounded by 1/alpha on a fine grid
        best = -math.inf
        for g1 in np.arange(0.0, 2.001, 0.001):
            g2 = 2.0 - g1
            if 0 <= g2 <= 2.0:
                best = max(best, 0.5 * (g1 * 0.0 + g2 * 1.0))
        assert rho.evaluate(f) == pytest.approx(best) == pytest.approx(1.0)

    def test_avar_alpha_one_is_expectation(self):
        rho = builtin("avar", alpha=1.0)
        rng = np.random.default_rng(8)
        for _ in range(10):
            f = rv(rng.uniform(-3, 3, 4))
            assert rho.evaluate(f) == pytest.approx(integrate(f), abs=1e-12)

    def test_avar_params_validated(self):
        with pytest.raises(ValueError, match="alpha"):
            builtin("avar", alpha=1.5)
        for bad in (0.0, math.nan):
            with pytest.raises(ValueError, match="beta"):
                builtin("entropic", beta=bad)
            for ball in ("supnorm-ball", "open-ball"):
                with pytest.raises(ValueError, match="radius"):
                    builtin(ball, radius=bad)

    def test_worst_case_max(self):
        rho = builtin("worst-case")
        assert rho.evaluate(rv([0.0, 3.0, -1.0, 2.0])) == 3.0

    def test_supnorm_ball_indicator(self):
        closed = builtin("supnorm-ball", radius=1.0)
        assert closed.evaluate(rv([1.0, -1.0, 0.0, 0.5])) == 0.0
        assert closed.evaluate(rv([1.5, 0.0, 0.0, 0.0])) == math.inf
        opened = builtin("open-ball", radius=1.0)
        assert opened.evaluate(rv([1.0, 0.0, 0.0, 0.0])) == math.inf

    def test_cash_invariance(self):
        rng = np.random.default_rng(9)
        for name, params in [("expectation", {}), ("entropic", {"beta": 2.0}), ("avar", {"alpha": 0.25})]:
            rho = builtin(name, **params)
            assert rho.cash_invariant
            for _ in range(5):
                f = rv(rng.uniform(-2, 2, 4))
                c = float(rng.uniform(-3, 3))
                shifted = f + RandomVariable.constant(SP4, c)
                assert rho.evaluate(shifted) == pytest.approx(rho.evaluate(f) + c, abs=1e-8)

    def test_proper_witness_has_finite_value(self):
        for name in builtin_names():
            rho = builtin(name)
            for space in (SP1, SP4):
                assert math.isfinite(rho.evaluate(rho.witness(space))), name

    def test_midpoint_convexity_on_sampled_segments(self):
        rng = np.random.default_rng(14)
        for name, params in [
            ("expectation", {}),
            ("neg-expectation", {}),
            ("entropic", {"beta": 1.0}),
            ("avar", {"alpha": 0.5}),
            ("worst-case", {}),
        ]:
            rho = builtin(name, **params)
            for _ in range(20):
                f = rv(rng.uniform(-3, 3, 4))
                g = rv(rng.uniform(-3, 3, 4))
                mid = 0.5 * (f + g)
                lhs = rho.evaluate(mid)
                rhs = 0.5 * (rho.evaluate(f) + rho.evaluate(g))
                assert lhs <= rhs + 1e-8, name

    def test_dual_witness_attains_conjugate(self):
        rng = np.random.default_rng(10)
        for name, params in [("expectation", {}), ("entropic", {"beta": 1.0}), ("avar", {"alpha": 0.5}), ("worst-case", {})]:
            rho = builtin(name, **params)
            for _ in range(5):
                f = rv(rng.uniform(-2, 2, 4))
                g = rho.dual_witness(f)
                conj = rho.known_conjugate(g)
                assert not math.isinf(conj)
                assert pairing(f, g) - conj == pytest.approx(rho.evaluate(f), abs=1e-9)


class TestFenchelYoung:
    def test_inequality_on_random_pairs(self):
        rng = np.random.default_rng(12)
        rho = builtin("entropic", beta=1.0)
        gs = []
        for _ in range(8):
            raw = rng.uniform(0.05, 2.0, 4)
            gs.append(rv(raw / float(np.dot(SP4.weights, raw))))
        field = ConjugateField.compute(rho, gs)
        for i, g in enumerate(gs):
            for _ in range(25):
                f = rv(rng.uniform(-4, 4, 4))
                assert pairing(f, g) <= rho.evaluate(f) + field.values[i] + 1e-7


class TestLattices:
    def test_density_lattice_members_are_densities(self):
        grid = density_lattice(SP4, 0.5)
        for g in grid:
            assert all(v >= 0 for v in g.values)
            assert integrate(g) == pytest.approx(1.0, abs=1e-12)
        assert len(grid) == len({g.values for g in grid})

    def test_density_lattice_step_must_divide(self):
        with pytest.raises(ValueError, match="divide"):
            density_lattice(SP4, 0.3)

    @pytest.mark.parametrize("level, step", [(0, 1.0), (1, 0.5), (2, 1.0), (2, 0.5), (2, 0.25), (3, 1.0)])
    def test_density_lattice_matches_recursive_enumeration(self, level, step):
        space = ProbabilitySpace.dyadic(level)
        units = round(space.size / step)
        expected = []

        def emit(prefix, remaining, cells_left):
            if cells_left == 1:
                expected.append(prefix + [remaining * step])
                return
            for c in range(remaining + 1):
                emit(prefix + [c * step], remaining - c, cells_left - 1)

        emit([], units, space.size)
        assert [list(g.values) for g in density_lattice(space, step)] == expected

    @pytest.mark.parametrize("level, step", [(2, 0.01), (5, 0.5)])
    def test_oversized_density_lattice_raises_before_building(self, level, step, monkeypatch):
        # C(403, 3) = 10,827,401 and C(95, 31) ~ 1e25 points: the count is
        # checked before the first RandomVariable is built
        def refuse(*args, **kwargs):
            raise AssertionError("a lattice point was built")

        monkeypatch.setattr(convex.RandomVariable, "from_values", refuse)
        with pytest.raises(ValueError, match="too large"):
            density_lattice(ProbabilitySpace.dyadic(level), step)

    def test_density_lattice_step_must_be_positive(self):
        with pytest.raises(ValueError, match="> 0"):
            density_lattice(SP4, -0.5)
