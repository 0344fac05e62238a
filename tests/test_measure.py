import dataclasses
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uodual.measure import (
    IncompatibleSpaces,
    NotDyadic,
    ProbabilitySpace,
    RandomVariable,
    common_refinement,
    integrate,
    pairing,
    refine,
)


def direct_weighted_sum(values, weights):
    """Independent oracle: plain positional sum of value*weight."""
    total = 0.0
    for v, w in zip(values, weights):
        total += v * w
    return total


class TestProbabilitySpace:
    def test_dyadic_has_equal_cells(self):
        sp = ProbabilitySpace.dyadic(3)
        assert sp.size == 8
        assert all(w == 0.125 for w in sp.weights)
        assert sp.level == 3

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            ProbabilitySpace((0.5, 0.6))

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError, match="> 0"):
            ProbabilitySpace((1.0, 0.0))

    def test_dyadic_cell_count_checked(self):
        with pytest.raises(ValueError, match="dyadic"):
            ProbabilitySpace((1 / 3,) * 3, level=1)

    def test_weights_are_one_read_only_array(self):
        sp = ProbabilitySpace((0.2, 0.3, 0.5))
        assert [f.name for f in dataclasses.fields(sp)] == ["weights", "level"]
        assert sp.weights.dtype == np.float64 and sp.weights.shape == (3,)
        with pytest.raises(ValueError):
            sp.weights[0] = 0.5

    def test_equality_and_hash_by_value(self):
        a, b = ProbabilitySpace.uniform(3), ProbabilitySpace.uniform(3)
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert ProbabilitySpace.uniform(4) != ProbabilitySpace.dyadic(2)
        assert ProbabilitySpace((0.25, 0.75)) != ProbabilitySpace((0.75, 0.25))

    def test_dyadic_levels_allocate_only_their_weights(self):
        # levels 0-12 hold 8,191 weights, 64 KB; a string label per cell
        # would add about 0.6 MB
        code = (
            "import tracemalloc\n"
            "from uodual.measure import ProbabilitySpace\n"
            "tracemalloc.start()\n"
            "spaces = [ProbabilitySpace.dyadic(level) for level in range(13)]\n"
            "print(tracemalloc.get_traced_memory()[1])\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True)
        assert int(out.stdout) <= 200_000

    def test_dyadic_spaces_are_shared(self):
        assert ProbabilitySpace.dyadic(5) is ProbabilitySpace.dyadic(5)
        assert ProbabilitySpace.dyadic(np.int64(5)) is ProbabilitySpace.dyadic(5)

    def test_dyadic_level_checked_after_caching(self):
        ProbabilitySpace.dyadic(2)
        with pytest.raises(TypeError):
            ProbabilitySpace.dyadic(2.0)
        with pytest.raises(ValueError, match=">= 0"):
            ProbabilitySpace.dyadic(-1)


class TestRandomVariable:
    def test_values_length_checked(self):
        sp = ProbabilitySpace.uniform(3)
        with pytest.raises(ValueError, match="per sample point"):
            RandomVariable(sp, (1.0, 2.0))

    def test_values_must_be_finite(self):
        sp = ProbabilitySpace.uniform(2)
        with pytest.raises(ValueError, match="finite"):
            RandomVariable(sp, (1.0, math.nan))
        with pytest.raises(ValueError, match="finite"):
            RandomVariable(sp, (1.0, math.inf))

    def test_overflow_rejected_without_warnings(self):
        sp = ProbabilitySpace.dyadic(1)
        f = RandomVariable(sp, (1e308, -1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for build in (
                lambda: RandomVariable(sp, np.array([1.0, -math.inf])),
                lambda: RandomVariable(sp, np.array([math.nan, 0.0])),
                lambda: 1e308 * f,
                lambda: f * -1e308,
                lambda: math.inf * RandomVariable.zero(sp),
                lambda: f + f,
                lambda: f - (-1.0) * f,
            ):
                with pytest.raises(ValueError, match="finite"):
                    build()

    def test_construction_copies_input(self):
        sp = ProbabilitySpace.dyadic(2)
        source = np.array([1.0, 2.0, 3.0, 4.0])
        f = RandomVariable(sp, source)
        source[0] = 99.0
        assert f.values == (1.0, 2.0, 3.0, 4.0)
        assert not np.shares_memory(f.array, source)

    def test_array_is_read_only(self):
        f = RandomVariable.from_values(ProbabilitySpace.dyadic(1), [1.0, 2.0])
        assert f.array.dtype == np.float64
        with pytest.raises(ValueError):
            f.array[0] = 5.0
        with pytest.raises(AttributeError):
            f.array = np.zeros(2)

    def test_tuple_and_array_inputs_agree(self):
        sp = ProbabilitySpace.dyadic(2)
        f = RandomVariable(sp, (0.5, -1.0, 0.0, 2.0))
        g = RandomVariable(sp, np.array([0.5, -1.0, -0.0, 2.0]))
        assert f == g and hash(f) == hash(g)
        assert len({f, g}) == 1
        assert f != RandomVariable(sp, (0.5, -1.0, 0.0, 2.5))
        assert f != RandomVariable(ProbabilitySpace.uniform(4), (0.5, -1.0, 0.0, 2.0))

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="per sample point"):
            RandomVariable(ProbabilitySpace.dyadic(2), np.ones((2, 2)))


class TestIntegrate:
    def test_zero_function(self):
        sp = ProbabilitySpace((0.2, 0.3, 0.5))
        assert integrate(RandomVariable.zero(sp)) == 0.0

    def test_total_mass(self):
        sp = ProbabilitySpace((0.2, 0.3, 0.5))
        assert integrate(RandomVariable.ones(sp)) == pytest.approx(1.0, abs=1e-15)

    def test_spike_has_unit_mass(self):
        # n * 1_[0,1/n] with n = 4 at level 2: oracle 4 * (1/4)
        sp = ProbabilitySpace.dyadic(2)
        f = RandomVariable.from_values(sp, [4.0, 0.0, 0.0, 0.0])
        assert integrate(f) == direct_weighted_sum(f.values, sp.weights) == 1.0


class TestRefine:
    def test_same_level_is_identity(self):
        f = RandomVariable.from_values(ProbabilitySpace.dyadic(1), [2.0, 3.0])
        assert refine(f, 1) is f

    def test_replication(self):
        f = RandomVariable.from_values(ProbabilitySpace.dyadic(1), [2.0, 3.0])
        assert refine(f, 2).values == (2.0, 2.0, 3.0, 3.0)

    def test_non_dyadic_rejected(self):
        f = RandomVariable.ones(ProbabilitySpace.uniform(3))
        with pytest.raises(NotDyadic):
            refine(f, 2)

    def test_coarsening_rejected(self):
        f = RandomVariable.ones(ProbabilitySpace.dyadic(3))
        with pytest.raises(ValueError, match="refine"):
            refine(f, 2)

    def test_refine_preserves_integral(self):
        rng = np.random.default_rng(42)
        for level in range(0, 10):
            sp = ProbabilitySpace.dyadic(level)
            f = RandomVariable.from_values(sp, rng.uniform(-5, 5, sp.size))
            base = integrate(f)
            for target in range(level, min(level + 4, 13)):
                assert abs(integrate(refine(f, target)) - base) <= 1e-14


class TestPairing:
    def test_pairing_with_zero(self):
        sp = ProbabilitySpace.dyadic(2)
        f = RandomVariable.from_values(sp, [1.0, -2.0, 3.0, 4.0])
        assert pairing(f, RandomVariable.zero(sp)) == 0.0

    def test_pairing_with_one_is_integral(self):
        sp = ProbabilitySpace.dyadic(3)
        rng = np.random.default_rng(1)
        g = RandomVariable.from_values(sp, rng.uniform(-2, 2, 8))
        assert pairing(RandomVariable.ones(sp), g) == pytest.approx(integrate(g), abs=1e-15)

    def test_interval_overlap(self):
        # 1_[0,1/2] against 1_[1/4,3/4] at level 2: overlap mass is one cell
        sp = ProbabilitySpace.dyadic(2)
        f = RandomVariable.from_values(sp, [1, 1, 0, 0])
        g = RandomVariable.from_values(sp, [0, 1, 1, 0])
        oracle = direct_weighted_sum([a * b for a, b in zip(f.values, g.values)], sp.weights)
        assert pairing(f, g) == oracle == 0.25

    def test_mixed_levels_refine_automatically(self):
        f = RandomVariable.from_values(ProbabilitySpace.dyadic(1), [1.0, 0.0])
        g = RandomVariable.from_values(ProbabilitySpace.dyadic(2), [0.0, 1.0, 1.0, 0.0])
        assert pairing(f, g) == 0.25

    def test_incompatible_spaces(self):
        f = RandomVariable.ones(ProbabilitySpace.uniform(3))
        g = RandomVariable.ones(ProbabilitySpace.uniform(4))
        with pytest.raises(IncompatibleSpaces):
            pairing(f, g)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(32):
            level = int(rng.integers(0, 5))
            sp = ProbabilitySpace.dyadic(level)
            f = RandomVariable.from_values(sp, rng.uniform(-8, 8, sp.size))
            g = RandomVariable.from_values(sp, rng.uniform(-8, 8, sp.size))
            assert pairing(f, g) == pairing(g, f)

    def test_holder_type_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(64):
            sp = ProbabilitySpace.dyadic(int(rng.integers(0, 6)))
            f = RandomVariable.from_values(sp, rng.uniform(-4, 4, sp.size))
            g = RandomVariable.from_values(sp, rng.uniform(-4, 4, sp.size))
            assert abs(pairing(f, g)) <= float(np.max(np.abs(f.array))) * integrate(g.abs()) + 1e-12


@st.composite
def rv_pairs(draw):
    level = draw(st.integers(min_value=0, max_value=4))
    sp = ProbabilitySpace.dyadic(level)
    vals = st.floats(min_value=-16, max_value=16, allow_nan=False)
    f = RandomVariable.from_values(sp, [draw(vals) for _ in range(sp.size)])
    g = RandomVariable.from_values(sp, [draw(vals) for _ in range(sp.size)])
    return f, g


class TestBilinearity:
    @settings(max_examples=50, deadline=None)
    @given(pair=rv_pairs(), c=st.floats(min_value=-4, max_value=4, allow_nan=False))
    def test_scaling(self, pair, c):
        f, g = pair
        assert pairing(c * f, g) == pytest.approx(c * pairing(f, g), abs=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(pair=rv_pairs())
    def test_additivity(self, pair):
        f, g = pair
        h = RandomVariable.ones(f.space)
        lhs = pairing(f + h, g)
        assert lhs == pytest.approx(pairing(f, g) + pairing(h, g), abs=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(pair=rv_pairs())
    def test_common_refinement_is_stable(self, pair):
        f, g = pair
        a, b = common_refinement(f, g)
        assert a.space == b.space
        assert integrate(a) == pytest.approx(integrate(f), abs=1e-13)


# -- the array-backed operations against a pure-Python tuple reference --------


def bits(values) -> tuple[str, ...]:
    """Exact bit patterns of floats (tells -0.0 from 0.0)."""
    return tuple(float(v).hex() for v in values)


def ref_refine(values: tuple, reps: int) -> tuple:
    return tuple(v for v in values for _ in range(reps))


def ref_common(f: RandomVariable, g: RandomVariable) -> tuple[tuple, tuple, tuple]:
    """Values of f and g replicated to the finer level, and its weights."""
    level = max(f.space.level, g.space.level)
    a = ref_refine(f.values, 2 ** (level - f.space.level))
    b = ref_refine(g.values, 2 ** (level - g.space.level))
    return a, b, (2.0**-level,) * len(a)


@st.composite
def mixed_level_pairs(draw):
    vals = st.floats(min_value=-1e100, max_value=1e100, allow_nan=False)
    out = []
    for _ in range(2):
        sp = ProbabilitySpace.dyadic(draw(st.integers(min_value=0, max_value=5)))
        out.append(RandomVariable(sp, tuple(draw(vals) for _ in range(sp.size))))
    return tuple(out)


class TestArrayMatchesTupleReference:
    @settings(max_examples=150, deadline=None)
    @given(
        pair=mixed_level_pairs(),
        c=st.floats(min_value=-1e100, max_value=1e100, allow_nan=False),
        extra=st.integers(min_value=0, max_value=3),
    )
    def test_bit_for_bit(self, pair, c, extra):
        f, g = pair
        a, b, w = ref_common(f, g)
        assert integrate(f).hex() == math.fsum(v * wi for v, wi in zip(f.values, f.space.weights)).hex()
        assert pairing(f, g).hex() == math.fsum(x * y * wi for x, y, wi in zip(a, b, w)).hex()
        target = f.space.level + extra
        fine = refine(f, target)
        assert fine.space is ProbabilitySpace.dyadic(target)
        assert bits(fine.values) == bits(ref_refine(f.values, 2**extra))
        assert bits(f.abs().values) == bits(abs(v) for v in f.values)
        assert bits((f + g).values) == bits(x + y for x, y in zip(a, b))
        assert bits((f - g).values) == bits(x - y for x, y in zip(a, b))
        assert bits((c * f).values) == bits(c * v for v in f.values)
        assert bits((f * c).values) == bits(c * v for v in f.values)
