import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from uodual import orlicz
from uodual.measure import ProbabilitySpace, RandomVariable, integrate, pairing
from uodual.orlicz import (
    DomainExceeded,
    GridTooCoarse,
    ModularDegenerate,
    OrliczFunction,
    conjugate,
    luxemburg_norm,
)


def unchecked(grid_s, grid_y):
    """A sampled function from the dataclass constructor, whose knots nothing validates."""
    s, y = tuple(map(float, grid_s)), tuple(map(float, grid_y))
    return OrliczFunction("sampled", grid_s=s, grid_y=y, domain_cap=s[-1])


# Orlicz functions of the Luxemburg bracket property: the three kinds, a
# fast exp (log M is far from linear in log lam, so the secant is slow), a
# sampled one that vanishes on [0, 1] (its modular is 0 at large scales),
# and a conjugate, sampled from a Legendre transform
LUX_PHIS = [
    OrliczFunction.power(1.0),
    OrliczFunction.power(1.5, 0.3),
    OrliczFunction.power(3.0, 7.0),
    OrliczFunction.exponential(0.7),
    OrliczFunction.exponential(40.0),
    OrliczFunction.sampled([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 1.0, 3.0]),
    conjugate(OrliczFunction.power(2.0, 1.3), 8.0, 64),
]


def slow_bend(c=0.9e-9, n=1000):
    """Knots 0..n whose slopes start at 1 and each fall by c * y_k, then a steep last piece.

    Every second difference is within ``c * y_k``, but the slopes fall by
    about ``c * n**2 / 2`` in all.
    """
    y, slope = [0.0, 1.0], 1.0
    for k in range(1, n - 1):
        slope -= c * y[k]
        y.append(y[k] + slope)
    y.append(y[-1] + 10.0)
    return np.arange(n + 1.0), np.array(y)


def brute_conjugate(phi, t, s_max, n=1_000_000):
    """Independent oracle: plain sup of s*t - phi(s) over a dense s-grid."""
    s = np.linspace(0.0, s_max, n)
    return float(np.max(s * t - np.asarray(phi(s))))


def young(phi, t):
    """The Young conjugate of a power or exp phi at t >= 0, in closed form."""
    if phi.kind == "power":
        p, c = phi.p, phi.scale
        return (p - 1.0) * c * (t / (c * p)) ** (p / (p - 1.0))
    r = np.maximum(t / phi.rate, 1.0)
    return r * np.log(r) - r + 1.0


def knot_maximum(phi, t_grid, s_max):
    """Reference for a sampled phi: per t, the first maximiser and the maximum of ``t*c_k - phi(c_k)``.

    The c_k are phi's knots below s_max and s_max itself, and every row is
    read at every one of them.
    """
    c = np.append(phi.grid_s[phi.grid_s < s_max], s_max)
    rows = t_grid[:, None] * c - np.asarray(phi(c))
    arg = np.argmax(rows, axis=1)
    return c[arg], rows[np.arange(t_grid.size), arg]


class TestOrliczFunction:
    def test_power_evaluates(self):
        phi = OrliczFunction.power(3, 1 / 3)
        assert phi(0.0) == 0.0
        assert phi(2.0) == pytest.approx(8 / 3)

    def test_exponential_evaluates(self):
        phi = OrliczFunction.exponential()
        assert phi(0.0) == 0.0
        assert phi(1.0) == pytest.approx(math.e - 1)

    def test_power_requires_convexity(self):
        for p in (0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="convexity"):
                OrliczFunction.power(p)

    def test_scale_and_rate_must_be_positive(self):
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="scale"):
                OrliczFunction.power(2, bad)
            with pytest.raises(ValueError, match="rate"):
                OrliczFunction.exponential(bad)

    def test_sampled_interpolates_and_extrapolates(self):
        phi = OrliczFunction.sampled([0, 1, 2], [0, 1, 3])
        assert phi(0.5) == pytest.approx(0.5)
        assert phi(1.5) == pytest.approx(2.0)
        assert phi(3.0) == pytest.approx(5.0)  # last-segment slope 2

    def test_sampled_must_start_at_zero(self):
        with pytest.raises(ValueError, match="phi\\(0\\)"):
            OrliczFunction.sampled([0.5, 1], [0, 1])

    def test_sampled_rejects_nonconvex(self):
        cases = [
            ([0, 1, 2, 3], [0, 2, 3, 3.5], 1),
            # the rounding allowance is scaled before it is summed, which would overflow
            ([0, 1, 2, 3, 4], [0, 1e307, 7e307, 1.2e308, 1.3e308], 2),
            # no one bend is past 1e-9 * y, but the slopes fall 4.5e-4 in all
            (*slow_bend(), 2),
        ]
        for grid_s, grid_y, bend in cases:
            with pytest.raises(ValueError, match=f"convexity on the grid at s={bend}$"):
                OrliczFunction.sampled(grid_s, grid_y)

    def test_sampled_rejects_identically_zero(self):
        with pytest.raises(ValueError, match="identically 0"):
            OrliczFunction.sampled([0, 1, 2], [0, 0, 0])

    def test_sampled_rejects_non_finite_input(self):
        # each was accepted: with a NaN knot phi(1.5) was NaN, and the
        # Luxemburg norm came back as inf instead of an error
        cases = [
            ([0, 1, math.nan], [0, 1, 3], None, "abscissae"),
            ([0, 1, 2], [0, math.nan, 3], None, "values"),
            ([0, 1, 2], [0, 1, math.inf], None, "values"),
            ([0, 1, 2], [0, 1, 3], math.nan, "domain_cap"),
            ([0, 1, 2], [0, 1, 3], -1.0, "domain_cap"),
        ]
        for grid_s, grid_y, cap, name in cases:
            with pytest.raises(ValueError, match=name):
                OrliczFunction.sampled(grid_s, grid_y, domain_cap=cap)

    def test_sampled_evaluation_reads_cached_knots_bit_for_bit(self):
        def reference(phi, s):
            # the evaluation as it read its knots before: fresh arrays per call
            arr = np.maximum(np.asarray(s, dtype=float), 0.0)
            gs, gy = np.asarray(phi.grid_s), np.asarray(phi.grid_y)
            out = np.interp(arr, gs, gy)
            last_slope = (gy[-1] - gy[-2]) / (gs[-1] - gs[-2])
            beyond = arr > gs[-1]
            if np.any(beyond):
                if last_slope == 0.0:
                    extended = np.full_like(out, gy[-1])
                else:
                    extended = gy[-1] + last_slope * (arr - gs[-1])
                out = np.where(beyond, extended, out)
            return out

        rng = np.random.default_rng(5)
        psi = conjugate(OrliczFunction.power(1.5), 8.0, 256)
        flat = unchecked([0, 1, 2], [0, 1, 1])  # last slope 0
        for phi in (psi, flat, OrliczFunction.sampled([0, 0.5, 1.25], [0, 0.25, 1.0])):
            cap = phi.grid_s[-1]
            probes = np.concatenate([rng.uniform(-1.0, 2.0 * cap, 500), np.array(phi.grid_s), [cap * 1e300]])
            assert phi(probes).tobytes() == reference(phi, probes).tobytes()
            for t in probes[:20].tolist():
                assert phi(t) == float(reference(phi, t))
        gs, gy = psi.grid_s, psi.grid_y
        assert not gs.flags.writeable and not gy.flags.writeable
        assert gs.dtype == gy.dtype == np.float64
        again = OrliczFunction.sampled(psi.grid_s, psi.grid_y, domain_cap=psi.domain_cap)
        assert again == psi and hash(again) == hash(psi)


class TestConjugate:
    def test_quadratic_is_self_conjugate(self):
        phi = OrliczFunction.power(2, 0.5)
        psi = conjugate(phi, 8.0, 4096)
        for t in np.linspace(0.0, 5.0, 200):
            assert abs(psi(t) - 0.5 * t * t) <= 1e-6

    def test_cubic_against_brute_force_and_closed_form(self):
        phi = OrliczFunction.power(3, 1 / 3)
        psi = conjugate(phi, 4.0, 1024)
        for t in np.linspace(0.25, 4.0, 25):
            assert abs(psi(t) - brute_conjugate(phi, t, 4.0)) <= 1e-5
            assert abs(psi(t) - (2 / 3) * t**1.5) <= 1e-5

    def test_exponential_against_brute_force_and_closed_form(self):
        phi = OrliczFunction.exponential()
        psi = conjugate(phi, 3.0, 2048)

        def closed(t):
            return 0.0 if t <= 1.0 else t * math.log(t) - t + 1.0

        for t in np.linspace(0.0, 8.0, 33):
            assert abs(psi(t) - brute_conjugate(phi, t, 3.0)) <= 1e-5
            assert abs(psi(t) - closed(t)) <= 1e-5

    def test_conjugate_vanishes_at_zero_and_is_convex(self):
        psi = conjugate(OrliczFunction.power(1.5, 1 / 1.5), 16.0, 256)
        assert psi(0.0) == 0.0
        y = np.asarray(psi.grid_y)
        assert np.all(np.diff(y) >= -1e-12)

    def test_biconjugation_recovers_parametric_functions(self):
        # s_max trades the trusted range against knot spacing; the
        # exponential needs a short range to keep its conjugate's
        # curvature resolved
        cases = [
            (OrliczFunction.power(1.5, 1 / 1.5), 6.0),
            (OrliczFunction.power(2, 0.5), 6.0),
            (OrliczFunction.power(3, 1 / 3), 6.0),
            (OrliczFunction.exponential(), 2.5),
        ]
        for phi, s_max in cases:
            psi = conjugate(phi, s_max, 1024)
            back = conjugate(psi, psi.domain_cap, 1024)
            for s in np.linspace(0.25, 2.0, 50):
                assert abs(back(s) - phi(s)) <= 1e-4, phi.describe()

    @pytest.mark.parametrize("grid", [256, 1024])
    @pytest.mark.parametrize(
        "phi, s_max",
        [
            (OrliczFunction.power(1.5, 0.7), 8.0),
            (OrliczFunction.power(2.0), 8.0),
            (OrliczFunction.power(3.0, 1 / 3), 6.0),
            (OrliczFunction.exponential(1.3), 3.0),
        ],
        ids=["p1.5", "p2", "p3", "exp"],
    )
    def test_matches_dense_sweep_bit_for_bit(self, phi, s_max, grid):
        # power and exp knots are read at the inverse of phi', so they meet
        # the Young closed form up to rounding
        psi = conjugate(phi, s_max, grid)
        ref = young(phi, psi.grid_s)
        assert np.all(np.abs(psi.grid_y - ref) <= 1e-14 * (1.0 + np.abs(ref)))
        assert psi.grid_y[0] == 0.0 and psi.grid_s.size == 2 * grid + 1

    @settings(max_examples=60, deadline=None)
    @given(
        knots=st.lists(
            st.tuples(st.floats(0.05, 3.0), st.integers(-8, 8)), min_size=1, max_size=10
        ),
        s_max=st.floats(0.5, 25.0),
        t_range=st.tuples(st.floats(-4.0, 0.0), st.floats(0.0, 8.0)),
        t_count=st.integers(1, 300),
    )
    def test_convex_grid_maximum_matches_dense_sweep(self, knots, s_max, t_range, t_count):
        # validation bypassed: the knots are convex but may fall, and
        # slopes drawn from few values give collinear runs that t meets
        s = np.concatenate([[0.0], np.cumsum([dx for dx, _ in knots])])
        slopes = np.sort([k for _, k in knots]) / 2.0
        phi = unchecked(s, np.concatenate([[0.0], np.cumsum(slopes * np.diff(s))]))
        t_grid = np.sort(np.concatenate([np.linspace(*t_range, t_count), slopes]))
        got_s, got_y = orlicz._maximisers(phi, t_grid, s_max, orlicz._CONVEXITY_TOL)
        want_s, want = knot_maximum(phi, t_grid, s_max)
        assert got_s.tobytes() == want_s.tobytes()
        assert (t_grid * got_s - got_y).tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        runs=st.lists(
            st.tuples(st.integers(1, 40), st.sampled_from([-30, 0]), st.integers(-8, 8)), min_size=1, max_size=10
        ),
        t_range=st.tuples(st.floats(-4.0, 0.0), st.floats(0.0, 8.0)),
        nudge=st.floats(1e-9, 1e-6),
    )
    def test_nonconvex_grid_maximum_matches_dense_sweep(self, runs, t_range, nudge):
        # the knots need not be convex, monotone or evenly spaced: the
        # maximiser lies between where the slopes' running maximum and their
        # running minimum from the right cross t, however far apart the two
        # are.  Each run is n steps of 2**e (1 or 2**-30) on which phi has slope v/2, so
        # knots and slopes are exact; a t nudged off a slope ties the knots
        # of a run of short steps in float, within the band of the shortest step
        counts = [n for n, _, _ in runs]
        steps = np.repeat([2.0**e for _, e, _ in runs], counts)
        slopes = np.repeat([v / 2.0 for *_, v in runs], counts)
        s_grid = np.concatenate([[0.0], np.cumsum(steps)])
        phi_s = np.concatenate([[0.0], np.cumsum(slopes * steps)])
        t_grid = np.sort(np.concatenate([np.linspace(*t_range, 200), slopes - nudge, slopes + nudge]))
        arg = orlicz._grid_maximum(t_grid, s_grid, phi_s, np.diff(phi_s) / np.diff(s_grid))
        assert arg.tobytes() == np.argmax(t_grid[:, None] * s_grid - phi_s, axis=1).tobytes()

    def test_slow_bend_within_tol_is_searched_to_the_dense_bits(self):
        # at the default tol these knots pass the convexity check, yet for
        # t just below 1 the slopes' running maximum first reaches t at s=0
        phi = unchecked(*slow_bend())
        psi = conjugate(phi, 1000.0, 2000)
        assert psi.grid_y.tobytes() == knot_maximum(phi, psi.grid_s, 1000.0)[1].tobytes()
        near = np.flatnonzero((psi.grid_s > 0.999) & (psi.grid_s <= 1.0))
        assert near.size and psi.grid_y[near[0]] > 0.02  # a search from s=0 reads about 0
        assert abs(psi.grid_y[near[0]] - brute_conjugate(phi, psi.grid_s[near[0]], 1000.0)) <= 1e-5

    _KNOTS = 6.2 * np.linspace(0.0, 1.0, 1001) ** 1.5

    @pytest.mark.parametrize(
        "s_max", [2.6, 9.5, float(np.nextafter(_KNOTS[130], 7.0))], ids=["between-knots", "past-last-knot", "ulp-past"]
    )
    def test_sampled_conjugate_is_the_knot_maximum(self, s_max):
        # t*s - phi(s) is linear between knots, so its sup on [0, s_max] lies
        # on a knot below s_max or at s_max, even off the knots and past them;
        # one float past a knot, the rounded phi(s_max) bent away from convex
        phi = OrliczFunction.sampled(self._KNOTS, self._KNOTS**2.5 / 3.0)
        psi = conjugate(phi, s_max, 256)
        assert psi.grid_y.tobytes() == knot_maximum(phi, psi.grid_s, s_max)[1].tobytes()
        assert abs(psi(psi.domain_cap) - brute_conjugate(phi, psi.domain_cap, s_max)) <= 1e-5

    def test_search_refuses_nonconvex_samples(self):
        # the knot maximum reads the knots' slopes, so the knots must be convex
        phi = unchecked((0, 1, 1.5, 2, 3), (0, 1, 0.5, 2, 6))
        with pytest.raises(ValueError, match="convexity on the grid at s=1$"):
            orlicz._maximisers(phi, np.linspace(-1.0, 5.0, 50), 3.0, orlicz._CONVEXITY_TOL)

    def test_collinear_ties_settle_on_the_first_index(self):
        # t equal to the slope of a linear piece ties every knot of that
        # piece up to rounding; the dense argmax picks the first of the
        # float maxima, which can lie far from either end of the piece
        rng = np.random.default_rng(11)
        for _ in range(60):
            s = np.unique(np.concatenate([[0.0], rng.integers(1, 20, 4).astype(float)]))
            slopes = np.sort(rng.integers(0, 6, s.size - 1)).astype(float) / rng.choice([1, 3, 4])
            fine = np.unique(np.concatenate([s, rng.uniform(0.0, s[-1], int(rng.integers(64, 600)))]))
            phi = unchecked(fine, np.interp(fine, s, np.concatenate([[0.0], np.cumsum(slopes * np.diff(s))])))
            t_grid = np.unique(np.concatenate([slopes, slopes + 1e-15, np.linspace(0.0, slopes[-1] + 1, 40)]))
            s_max = float(s[-1] + rng.uniform(-3.0, 3.0))
            got_s, got_y = orlicz._maximisers(phi, t_grid, s_max, orlicz._CONVEXITY_TOL)
            want_s, want = knot_maximum(phi, t_grid, s_max)
            assert got_s.tobytes() == want_s.tobytes()
            assert (t_grid * got_s - got_y).tobytes() == want.tobytes()

    def test_memory_is_linear_in_the_grid(self):
        # the dense sweep peaked at 184 MB here (its chunk buffer)
        phi = OrliczFunction.power(2.0)
        tracemalloc.start()
        try:
            conjugate(phi, 8.0, 8192)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_grid_size_validated(self):
        # arrays of 2 * grid_size + 1 floats, so grid_size is bounded above too
        for grid_size in (32, 63, 65_537):
            with pytest.raises(ValueError, match="grid_size must lie in"):
                conjugate(OrliczFunction.power(2), 4.0, grid_size)
        for s_max in (-1.0, math.nan):
            with pytest.raises(ValueError, match="s_max must be > 0"):
                conjugate(OrliczFunction.power(2), s_max, 128)

    def test_tol_validated(self):
        # with a NaN tol the convexity check could never fire
        for tol in (math.nan, -1.0):
            with pytest.raises(ValueError, match="tol must be >= 0"):
                conjugate(OrliczFunction.power(2), 16.0, 64, tol=tol)

    _BUMPY_DIP = 5.0 * 65 / 128

    @pytest.mark.parametrize(
        "grid_s, grid_y, bend, s_max, grid",
        [
            pytest.param(
                [0, 1, _BUMPY_DIP - 1e-3, _BUMPY_DIP, _BUMPY_DIP + 1e-3, 4, 5],
                [0, 0.5, 0.6, 0.05, 0.7, 0.8, 3.0], 1.0, 5.0, 64, id="bumpy",
            ),
            *(
                pytest.param(s, y, bend, 3.0, grid, id=f"{name}-{grid}")
                for name, s, y, bend in [
                    ("kink", (0, 1, 2, 3), (0, 1, 1.2, 5), 1.0),
                    ("dip", (0, 1, 1.5, 2, 3), (0, 1, 0.5, 2, 6), 1.0),
                    ("wiggle", (0, 0.5, 1, 1.25, 1.5, 3), (0, 0.2, 0.5, 1.6, 1.7, 8), 1.25),
                ]
                for grid in (64, 100, 128)
            ),
        ],
    )
    def test_nonconvex_samples_are_refused(self, grid_s, grid_y, bend, s_max, grid):
        # validation bypassed; kink and dip returned a psi, and wiggle was
        # refused only by the knot check of psi or, at grid 128, as GridTooCoarse
        for tol in (1e-6, 0.0):
            with pytest.raises(ValueError, match="convexity on the grid at s=") as err:
                conjugate(unchecked(grid_s, grid_y), s_max, grid, tol=tol)
            assert abs(float(str(err.value).rpartition("=")[2]) - bend) <= s_max / grid

    def test_tol_zero_returns_the_default_bits(self):
        # tol bounds only the bend of the samples of phi, and these are convex
        phi = OrliczFunction.power(1.5, 0.3)
        psi, ref = conjugate(phi, 4.0, 64, tol=0), conjugate(phi, 4.0, 64)
        assert psi.grid_s.tobytes() == ref.grid_s.tobytes() and psi.grid_y.tobytes() == ref.grid_y.tobytes()
        assert psi.domain_cap == ref.domain_cap

    def test_searches_once(self, monkeypatch):
        evaluate, shapes = OrliczFunction.__call__, []

        def recorded(phi, s):
            shapes.append(np.shape(s))
            return evaluate(phi, s)

        sampled = conjugate(OrliczFunction.power(2.0), 8.0, 64)
        monkeypatch.setattr(OrliczFunction, "__call__", recorded)
        for phi in (OrliczFunction.power(2.0), OrliczFunction.exponential(0.5), sampled):
            shapes.clear()
            psi = conjugate(phi, 8.0, 256)
            assert psi.grid_s.size == 513
            # two scalars for the slope at s_max, and one array: phi at s* or at the knots
            assert [len(shape) for shape in shapes] == [0, 0, 1], phi.describe()

    @pytest.mark.parametrize("phi, s_max", [(OrliczFunction.power(1), 16.0), (OrliczFunction.exponential(0.5), 0.1)])
    def test_conjugate_zero_on_its_range_raises_grid_too_coarse(self, phi, s_max):
        # psi is 0 on all of [0, t_max], which OrliczFunction.sampled refused with a bare ValueError
        with pytest.raises(GridTooCoarse, match="0 on its whole range"):
            conjugate(phi, s_max, 64)

    @pytest.mark.parametrize(
        "phi",
        [OrliczFunction.power(1, 0.3), OrliczFunction.power(1, 3.7), OrliczFunction.exponential(1e-300)],
        ids=["power-0.3", "power-3.7", "exp"],
    )
    def test_linear_phi_at_tol_zero_raises_grid_too_coarse(self, phi):
        # the rounded samples dip below their chord by an ulp, which the
        # convexity check allows for even at tol=0
        with pytest.raises(GridTooCoarse, match="conjugate is 0 on its whole range"):
            conjugate(phi, 16.0, 512, tol=0)

    @pytest.mark.parametrize(
        "phi", [OrliczFunction.power(2, 1e-322), unchecked([0, 1, 2], [0, 1, 1]), unchecked([0, 1, 2], [0, 1, 0.5])],
        ids=["subnormal", "flat", "falling"],
    )
    def test_narrow_conjugate_range_raises_grid_too_coarse(self, phi):
        # t_max is subnormal, 0 or negative: the knots of psi cannot strictly increase
        with pytest.raises(GridTooCoarse, match="too narrow for grid_size=64"):
            conjugate(phi, 2.0, 64)

    def test_grid_drift_is_relative_to_the_value(self):
        # psi reaches about 1e219 here; its error is relative to the value
        psi = conjugate(OrliczFunction.exponential(0.5), 1000.0, 512)
        t = 0.5 * psi.domain_cap
        assert 1e216 < psi(t) < math.inf
        assert abs(psi(t) - brute_conjugate(OrliczFunction.exponential(0.5), t, 1000.0)) <= 1e-9 * psi(t)

    def test_overflowing_phi_raises_domain_exceeded(self):
        # exp(s) - 1 overflows to inf before s = 800, so the slope at s_max is not finite
        with pytest.raises(DomainExceeded, match="overflows"):
            conjugate(OrliczFunction.exponential(), 800.0, 64)


class TestYoungGap:
    def test_gap_nonnegative_at_zero(self):
        phi = OrliczFunction.power(2, 0.5)
        psi = conjugate(phi, 8.0, 256)
        for t in np.linspace(0.0, 5.0, 20):
            assert phi(0.0) + psi(t) >= -1e-7  # s = 0, so s*t = 0

    def test_quadratic_equality_point(self):
        phi = OrliczFunction.power(2, 0.5)
        psi = conjugate(phi, 4.0, 4096)
        # equality holds at t = phi'(s); for s = t = 1 the gap vanishes
        assert abs(phi(1.0) + psi(1.0) - 1.0) <= 1e-7

    def test_random_sweep_nonnegative(self):
        phi = OrliczFunction.power(3, 1 / 3)
        psi = conjugate(phi, 4.0, 1024)
        rng = np.random.default_rng(3)
        for _ in range(200):
            s = float(rng.uniform(0, 3))
            t = float(rng.uniform(0, psi.domain_cap))
            assert phi(s) + psi(t) - s * t >= -1e-7


class TestLuxemburgNorm:
    def test_zero_vector(self):
        sp = ProbabilitySpace.dyadic(2)
        res = luxemburg_norm(RandomVariable.zero(sp), OrliczFunction.power(2), 1e-9)
        assert res.value == 0.0

    def test_l1_case_matches_integral(self):
        # for phi(s) = s the norm is the L1 norm: E[|f|/lam] = 1 at lam = E[|f|]
        rng = np.random.default_rng(5)
        phi = OrliczFunction.power(1)
        for _ in range(25):
            sp = ProbabilitySpace.dyadic(int(rng.integers(1, 5)))
            f = RandomVariable.from_values(sp, rng.uniform(-3, 3, sp.size))
            res = luxemburg_norm(f, phi, 1e-9)
            assert abs(res.value - integrate(f.abs())) <= 1e-8

    def test_unit_vector_under_square(self):
        sp = ProbabilitySpace.uniform(4)
        res = luxemburg_norm(RandomVariable.ones(sp), OrliczFunction.power(2), 1e-9)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_bracket_and_modular_invariants(self):
        rng = np.random.default_rng(6)
        tol = 1e-8
        for _ in range(50):
            sp = ProbabilitySpace.dyadic(3)
            f = RandomVariable.from_values(sp, rng.uniform(-4, 4, 8))
            res = luxemburg_norm(f, OrliczFunction.power(2), tol)
            lo, hi = res.bracket
            assert hi - lo <= tol
            assert res.value == hi
            assert res.modular_at_value <= 1.0 + 10 * tol

    def test_matches_p_norm_for_power_phi(self):
        rng = np.random.default_rng(8)
        for p in (1.5, 2.0, 3.0):
            phi = OrliczFunction.power(p)
            for _ in range(10):
                sp = ProbabilitySpace.dyadic(3)
                f = RandomVariable.from_values(sp, rng.uniform(-2, 2, 8))
                pnorm = integrate(RandomVariable(sp, np.abs(f.array) ** p)) ** (1 / p)
                res = luxemburg_norm(f, phi, 1e-9)
                assert abs(res.value - pnorm) <= 2e-9

    def test_homogeneity_monotonicity_subadditivity(self):
        rng = np.random.default_rng(9)
        phi = OrliczFunction.exponential()
        tol = 1e-8
        for _ in range(25):
            sp = ProbabilitySpace.dyadic(2)
            f = RandomVariable.from_values(sp, rng.uniform(-2, 2, 4))
            g = RandomVariable.from_values(sp, rng.uniform(-2, 2, 4))
            c = float(rng.uniform(0.25, 4))
            nf = luxemburg_norm(f, phi, tol).value
            ng = luxemburg_norm(g, phi, tol).value
            assert abs(luxemburg_norm(c * f, phi, tol).value - c * nf) <= 2 * tol * max(1, c)
            dominated = RandomVariable(sp, tuple(min(abs(a), abs(b)) for a, b in zip(f.values, g.values)))
            assert luxemburg_norm(dominated, phi, tol).value <= min(nf, ng) + 2 * tol
            assert luxemburg_norm(f + g, phi, tol).value <= nf + ng + 4 * tol

    def test_orlicz_holder(self):
        rng = np.random.default_rng(10)
        phi = OrliczFunction.power(3, 1 / 3)
        psi = conjugate(phi, 8.0, 1024)
        tol = 1e-8
        for _ in range(50):
            sp = ProbabilitySpace.dyadic(3)
            f = RandomVariable.from_values(sp, rng.uniform(-4, 4, 8))
            g = RandomVariable.from_values(sp, rng.uniform(-4, 4, 8))
            nf = luxemburg_norm(f, phi, tol).value
            ng = luxemburg_norm(g, psi, tol).value
            assert abs(pairing(f, g)) <= 2 * nf * ng + 1e-6

    @pytest.fixture
    def capped_calls(self, monkeypatch):
        """Count the calls of phi, and raise after 5,000 so that a search that never ends fails."""
        calls = []
        real = OrliczFunction.__call__

        def capped(self, s):
            calls.append(s)
            if len(calls) > 5000:
                raise RuntimeError("phi called more than 5,000 times")
            return real(self, s)

        monkeypatch.setattr(OrliczFunction, "__call__", capped)
        return calls

    def test_downward_bracket_evaluates_each_scale_once(self, capped_calls):
        # sup|f| = 0.002 has modular < 1, so the bracket halves downward; the
        # scale that ends the halving is not evaluated a second time.  The
        # secant is exact for power phi: it lands on the norm sqrt(2.5e-6),
        # where the modular rounds above 1, and the probe 2**-40 relative
        # above closes
        f = RandomVariable.from_values(ProbabilitySpace.uniform(2), [0.001, 0.002])
        res = luxemburg_norm(f, OrliczFunction.power(2), 1e-8)
        assert len(capped_calls) == 4
        assert len({s.tobytes() for s in capped_calls}) == 4
        assert res.value == res.bracket[1] == 0.0015811388300860086
        assert res.bracket[0] == 0.0015811388300841895

    @pytest.fixture
    def probes(self, capped_calls, monkeypatch):
        """The (scale, modular) of each modular evaluation, in order, on top of the capped phi calls."""
        probes = []
        real = orlicz._modular

        def recorded(abs_values, weights, phi, lam):
            probes.append((lam, real(abs_values, weights, phi, lam)))
            return probes[-1][1]

        monkeypatch.setattr(orlicz, "_modular", recorded)
        return probes

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        phi=st.sampled_from(LUX_PHIS),
        scale=st.floats(-30.0, 30.0).map(lambda e: 10.0**e),
        level=st.integers(0, 6),
        data=st.data(),
        rel_tol=st.sampled_from([1e-2, 1e-9, 1e-15, 1e-300]),
    )
    def test_bracket_contract(self, capped_calls, probes, phi, scale, level, data, rel_tol):
        capped_calls.clear()
        probes.clear()
        sp = ProbabilitySpace.dyadic(level)
        cells = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=sp.size, max_size=sp.size))
        cells = [c if abs(c) >= 1e-6 else 0.0 for c in cells]
        assume(any(cells))
        f = RandomVariable(sp, scale * np.array(cells))
        tol = max(rel_tol * scale, math.ulp(0.0))
        res = luxemburg_norm(f, phi, tol)
        # one phi call per modular, and no scale evaluated twice
        scales = [lam for lam, _ in probes]
        assert len(capped_calls) == len(scales) == len(set(scales))
        lo, hi = res.bracket
        assert res.value == hi
        assert hi - lo <= tol or np.nextafter(lo, math.inf) == hi
        assert res.modular_at_value == probes[scales.index(hi)][1] <= 1.0
        if lo == hi:  # only where the modular at sup|f| is exactly 1
            assert len(probes) == 1
            return
        assert probes[scales.index(lo)][1] > 1.0
        # at most four evaluations per halving of the bracket the factor-2 walk ends with
        above = [m > 1.0 for _, m in probes]
        end = above.index(not above[0])
        lo0, hi0 = sorted((scales[end - 1], scales[end]))
        halvings = max(math.ceil(math.log2((hi0 - lo0) / max(tol, math.ulp(lo0)))), 0)
        assert len(probes) - end - 1 <= 4 * (halvings + 1)

    @pytest.mark.parametrize("phi", [
        OrliczFunction.power(1.5), OrliczFunction.power(2), OrliczFunction.power(3), OrliczFunction.exponential(),
    ], ids=lambda phi: phi.describe())
    def test_evaluation_count_guard(self, capped_calls, phi):
        # the secant takes 4 evaluations under power phi and 8 under exp on
        # this f; bisection took about 34
        f = RandomVariable(ProbabilitySpace.dyadic(12), np.random.default_rng(12).uniform(0.0, 1.0, 4096))
        luxemburg_norm(f, phi, 1e-9)
        assert len(capped_calls) <= 8

    @pytest.mark.parametrize("values, tol", [
        ([1.0, -2.0, 3.0, 0.0], 1e-300),
        ([1.0, -2.0, 3.0, 0.0], 5e-324),
        # the bracket (7.5e307, 1.5e308) has lo + hi = inf
        ([1.5e308, 1e308], 1e-6),
    ])
    def test_tol_below_float_spacing_ends_at_adjacent_floats(self, capped_calls, values, tol):
        # the bisection used to spin once its midpoint rounded onto lo or hi, or overflowed
        f = RandomVariable.from_values(ProbabilitySpace.uniform(len(values)), values)
        res = luxemburg_norm(f, OrliczFunction.power(2), tol)
        lo, hi = res.bracket
        assert np.nextafter(lo, math.inf) == hi == res.value
        assert res.modular_at_value <= 1.0

    def test_subnormal_bracket_keeps_the_last_scale_walked(self, capped_calls):
        # halving 5u (u the least subnormal) rounds to 2u; the bracket used to
        # be (2u, 4u), where the modular is 1.25, and the norm 5u was missed
        u = math.ulp(0.0)
        f = RandomVariable.from_values(ProbabilitySpace.dyadic(0), [10 * u])
        res = luxemburg_norm(f, OrliczFunction.power(1, 0.5), 1e-300)
        assert res.value == 5 * u
        assert res.modular_at_value == 1.0

    def test_walk_past_the_float_range_is_degenerate(self, capped_calls):
        # the modular is 1e310 / lam, so no finite scale brings it to 1; the
        # doubling used to overflow to inf, where the modular is 0, and report inf
        f = RandomVariable.from_values(ProbabilitySpace.dyadic(0), [1e10])
        with pytest.raises(ModularDegenerate, match="stays above 1"):
            luxemburg_norm(f, OrliczFunction.power(1, 1e300), 1e-8)

    def test_degenerate_phi_reported(self):
        # flat-zero sampled function (validation bypassed): the modular
        # never reaches 1, which must be reported rather than guessed
        flat = unchecked([0, 1], [0, 0])
        sp = ProbabilitySpace.uniform(2)
        f = RandomVariable.from_values(sp, [0.5, 0.25])
        with pytest.raises(ModularDegenerate):
            luxemburg_norm(f, flat, 1e-8)

    def test_tol_must_be_positive(self):
        sp = ProbabilitySpace.uniform(2)
        for tol in (0.0, math.nan):
            with pytest.raises(ValueError, match="tol"):
                luxemburg_norm(RandomVariable.ones(sp), OrliczFunction.power(2), tol)
