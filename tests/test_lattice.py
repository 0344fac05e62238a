import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uodual.lattice import (
    DisjointVerdict,
    FunctionalNotBounded,
    SpaceModel,
    Tail,
    TailTooClose,
    TailVector,
    VectorSequence,
    eventual_sign,
    is_disjoint,
    is_order_null,
    is_uo_null,
    membership,
    model_norm,
    oc_part_membership,
    uo_dual_expected,
    uo_dual_test,
)

ORACLE_TERMS = 10_000


def truncated(x: TailVector, n: int = ORACLE_TERMS) -> np.ndarray:
    """Independent oracle: materialise the first n coordinates directly."""
    out = np.empty(n)
    for k in range(1, n + 1):
        out[k - 1] = x.value(k)
    return out


@st.composite
def tail_vectors(draw):
    prefix = draw(st.lists(st.integers(min_value=-8, max_value=8), max_size=4))
    prefix = [float(v) / 2.0 for v in prefix]
    kind = draw(st.sampled_from(["zero", "constant", "geometric"]))
    if kind == "zero":
        return TailVector.from_prefix(prefix)
    if kind == "constant":
        c = draw(st.integers(min_value=-8, max_value=8)) / 2.0
        return TailVector.constant(c, prefix)
    a = draw(st.integers(min_value=-8, max_value=8)) / 2.0
    r = draw(st.sampled_from([0.125, 0.25, 0.5, 0.75]))
    return TailVector.geometric(a, r, prefix)


class TestTailCanonicalisation:
    def test_constant_zero_normalises_to_zero(self):
        assert TailVector.constant(0.0).tail.kind == "zero"

    def test_geometric_zero_coefficient_normalises(self):
        assert TailVector.geometric(0.0, 0.5).tail.kind == "zero"

    def test_geometric_ratio_zero_materialises(self):
        x = TailVector.geometric(3.0, 0.0)
        assert x.prefix == (3.0,) and x.tail.kind == "zero"

    def test_ratio_range_enforced(self):
        with pytest.raises(ValueError, match="ratio"):
            Tail.make(0.0, ((1.0, 1.0),))
        with pytest.raises(ValueError, match="ratio"):
            TailVector.geometric(1.0, -0.5)

    def test_trailing_prefix_absorbed(self):
        # (1, 0.5) followed by Geometric(0.25, 1/2) is one geometric sequence
        x = TailVector.geometric(0.25, 0.5, prefix=(1.0, 0.5))
        assert x == TailVector.geometric(1.0, 0.5)

    def test_trailing_zeros_absorbed(self):
        assert TailVector.from_prefix([1.0, 0.0, 0.0]) == TailVector.from_prefix([1.0])

    def test_coordinates_follow_the_convention(self):
        x = TailVector.geometric(1.0, 0.5, prefix=(7.0,))
        assert [x.value(k) for k in range(1, 5)] == [7.0, 1.0, 0.5, 0.25]

    def test_json_dict_all_kinds(self):
        cases = [
            (TailVector.zero(), {"prefix": [], "tail": {"kind": "zero"}}),
            (TailVector.from_prefix([1.0, -2.0]), {"prefix": [1.0, -2.0], "tail": {"kind": "zero"}}),
            (TailVector.constant(3.0, (0.5,)), {"prefix": [0.5], "tail": {"kind": "constant", "c": 3.0}}),
            (TailVector.geometric(2.0, 0.25), {"prefix": [], "tail": {"kind": "geometric", "a": 2.0, "r": 0.25}}),
            (
                TailVector.constant(1.0) + TailVector.geometric(1.0, 0.5),
                {"prefix": [], "tail": {"kind": "mixed", "c": 1.0, "terms": [[1.0, 0.5]]}},
            ),
        ]
        for x, expected in cases:
            assert x.to_json_dict() == expected


class TestEventualSign:
    def test_constant_dominates(self):
        tail = Tail.make(-1.0, ((4.0, 0.5),))
        j, s = eventual_sign(tail)
        assert s == -1
        assert all(tail.value(k) < 0 for k in range(j, j + 50))

    def test_leading_ratio_dominates(self):
        tail = Tail.make(0.0, ((1.0, 0.75), (-10.0, 0.5)))
        j, s = eventual_sign(tail)
        assert s == 1
        assert all(tail.value(k) > 0 for k in range(j, j + 50))

    def test_close_ratios_and_large_imbalance(self):
        # slow crossover: the lead term needs thousands of steps to win
        cases = [
            Tail.make(0.0, ((1.0, 0.99), (-1e6, 0.98))),
            Tail.make(1e-6, ((-1e5, 0.97),)),
            Tail.make(0.0, ((-2.0, 0.95), (1e3, 0.9), (-1e4, 0.5))),
        ]
        for tail in cases:
            j, s = eventual_sign(tail)
            assert s != 0
            for k in (j, j + 1, j + 7, j + 100):
                value = tail.value(k)
                assert value == 0.0 or math.copysign(1.0, value) == s

    def test_sign_split_keeps_meet_correct_on_slow_crossovers(self):
        # branch selection is protected by the 2x dominance margin even
        # though scalar and vectorised pow can differ in the last place
        x = TailVector.geometric(1.0, 0.99)
        y = TailVector.geometric(1e4, 0.98)
        m = x.meet(y)
        for k in list(range(1, 50)) + [500, 1000, 2000]:
            expected = min(x.value(k), y.value(k))
            assert m.value(k) == pytest.approx(expected, rel=1e-12), k


    def test_near_coincident_ratios_raise_instead_of_expanding(self):
        # the sign settles only after ~6.9e14 offsets: abs() used to ask for
        # petabytes and the l1 norm used to loop without end
        x = TailVector.make((), Tail.make(0.0, ((1.0, 0.1), (-1.0, 0.1 + 1e-16))))
        with pytest.raises(TailTooClose):
            eventual_sign(x.tail)
        with pytest.raises(TailTooClose):
            abs(x)
        with pytest.raises(TailTooClose):
            model_norm(x, SpaceModel.ELL1)

    def test_ratio_next_to_one_raises(self):
        tail = Tail.make(1.0, ((-4.0, math.nextafter(1.0, 0.0)),))
        with pytest.raises(TailTooClose):
            eventual_sign(tail)


COEFFICIENTS = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)


@st.composite
def close_ratio_tails(draw):
    """Tails whose ratios nearly coincide, directly or through products.

    Either two ratios a relative gap apart (down to neighbouring floats),
    or the product of a geometric tail (a, r1) with a tail c + (b, r2),
    which has the terms (c*a, r1) and (a*b, r1*r2), plus a term at the
    decimal rounding of the product ratio.
    """
    a, b = draw(st.sampled_from(COEFFICIENTS)), draw(st.sampled_from(COEFFICIENTS))
    if draw(st.booleans()):
        r = draw(st.floats(min_value=0.05, max_value=0.9))
        gap = draw(st.sampled_from((0.0, 1e-16, 1e-12, 1e-9, 1e-6, 1e-4, 1e-2)))
        s = max(r + r * gap, math.nextafter(r, 1.0))
        const = draw(st.sampled_from((0.0, 1e-6, -1.0)))
        return Tail.make(const, ((a, r), (b, s)))
    r1, r2 = (draw(st.sampled_from((0.1, 0.2, 0.3, 0.6, 0.7, 0.9))) for _ in range(2))
    c = draw(st.sampled_from((0.0, 1.0)))
    product = Tail.make(0.0, ((c * a, r1), (a * b, r1 * r2)))
    return product.add(Tail.make(0.0, ((draw(st.sampled_from(COEFFICIENTS)), round(r1 * r2, 12)),)))


class TestCloseRatios:
    @settings(max_examples=100, deadline=None)
    @given(t=close_ratio_tails(), u=close_ratio_tails())
    def test_ops_return_or_raise_tail_too_close(self, t, u):
        # every offset is capped, so no allocation or loop may follow a
        # float-derived index: each operation returns or raises TailTooClose
        x, y = TailVector.make((1.0,), t), TailVector.make((), u)
        ops = [
            lambda: abs(x),
            lambda: x.meet(y),
            lambda: x.join(y),
            lambda: is_disjoint(VectorSequence((TailVector.unit(1), x, y))),
        ] + [lambda m=m: model_norm(x, m) for m in SpaceModel]
        for op in ops:
            try:
                op()
            except TailTooClose:
                pass


class TestModelNorm:
    def test_zero_vector(self):
        for m in SpaceModel:
            assert model_norm(TailVector.zero(), m) == 0.0

    def test_finite_prefix_ell1(self):
        assert model_norm(TailVector.from_prefix([1.0, -2.0]), SpaceModel.ELL1) == 3.0

    def test_geometric_series_ell1(self):
        x = TailVector.geometric(1.0, 0.5)
        norm = model_norm(x, SpaceModel.ELL1)
        assert norm == 2.0
        assert norm == pytest.approx(float(np.abs(truncated(x)).sum()), abs=1e-10)

    def test_constant_tail_ell1_is_infinite(self):
        assert model_norm(TailVector.ones(), SpaceModel.ELL1) == math.inf

    def test_sup_norms(self):
        x = TailVector.geometric(-4.0, 0.5, prefix=(1.0,))
        assert model_norm(x, SpaceModel.ELL_INFTY) == 4.0
        assert model_norm(TailVector.ones(), SpaceModel.C0) == 1.0

    def test_membership_rules(self):
        geo = TailVector.geometric(1.0, 0.5)
        assert membership(geo, SpaceModel.ELL1)
        assert membership(geo, SpaceModel.C0)
        ones = TailVector.ones()
        assert not membership(ones, SpaceModel.ELL1)
        assert not membership(ones, SpaceModel.C0)
        assert membership(ones, SpaceModel.ELL_INFTY)

    @settings(max_examples=60, deadline=None)
    @given(x=tail_vectors())
    def test_ell1_norm_matches_truncation(self, x):
        norm = model_norm(x, SpaceModel.ELL1)
        approx = float(np.abs(truncated(x)).sum())
        if math.isinf(norm):
            assert x.tail.const != 0.0
        else:
            assert norm == pytest.approx(approx, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(x=tail_vectors())
    def test_sup_norm_matches_truncation(self, x):
        norm = model_norm(x, SpaceModel.ELL_INFTY)
        assert norm == pytest.approx(float(np.max(np.abs(truncated(x)))), abs=1e-12)


# non-dyadic tails that are 0 before their sign settles: the exact float
# sum of the tail is 0 there (the first at coordinate 2, the second at
# coordinate 1), while folding that 0 back into the tail would read just
# above or just below 0; and the product of the tails 0.3 + (-0.7, 0.6)
# and 1.1 + (0.2, 0.45), written out term by term
FOLDED_TAILS = (
    Tail.make(0.33, ((-1.3, 0.3), (0.3, 0.2))),
    Tail.make(0.2, ((-0.1, 0.3), (-0.1, 0.2))),
    Tail.make(0.3 * 1.1, ((0.3 * 0.2, 0.45), (1.1 * -0.7, 0.6), (-0.7 * 0.2, 0.6 * 0.45))),
)


@st.composite
def cancelling_tails(draw):
    """A constant plus two non-dyadic terms whose exact float sum is 0 at offset j."""
    values = st.sampled_from((0.3, -0.7, 1.1, -0.1, 0.6, -1.3, 0.2))
    ratios = st.sampled_from((0.1, 0.2, 1 / 3, 0.45, 0.6, 0.7))
    (a, r), (b, q) = ((draw(values), draw(ratios)) for _ in range(2))
    j = draw(st.integers(min_value=0, max_value=2))
    return Tail.make(-math.fsum((a * r**j, b * q**j)), ((a, r), (b, q)))


@st.composite
def sign_settling_vectors(draw):
    """A dyadic prefix followed by a non-dyadic tail that changes sign before it settles."""
    prefix = [v / 2.0 for v in draw(st.lists(st.integers(min_value=-8, max_value=8), max_size=3))]
    return TailVector.make(prefix, draw(st.one_of(st.sampled_from(FOLDED_TAILS), cancelling_tails())))


class TestLatticeOps:
    def test_meet_with_zero_for_positive(self):
        x = TailVector.geometric(2.0, 0.5, prefix=(1.0, 3.0))
        assert x.meet(TailVector.zero()).is_zero

    def test_constant_meets_geometric_switchover(self):
        x = TailVector.constant(1.0)
        y = TailVector.geometric(4.0, 0.5)
        m = x.meet(y)
        assert m == TailVector.geometric(1.0, 0.5, prefix=(1.0, 1.0))
        pointwise = np.minimum(truncated(x, 1000), truncated(y, 1000))
        assert np.array_equal(truncated(m, 1000), pointwise)

    def test_abs_of_finite_vector(self):
        assert abs(TailVector.from_prefix([-1.0, 2.0])) == TailVector.from_prefix([1.0, 2.0])

    def test_abs_keeps_prefix_its_tail_could_absorb(self):
        # |x| = (2, 1.5, 1.125, ...) is geometric(2, 0.75); folding the 2
        # would rescale the tail and move coordinates from 35 on by an ulp
        x = TailVector.geometric(-1.5, 0.75, prefix=(2.0,))
        assert abs(x).prefix == (2.0,)
        assert np.array_equal(truncated(abs(x), 200), np.abs(truncated(x, 200)))

    def test_mixed_tail_sums_are_exact(self):
        x = TailVector.constant(1.0)
        y = TailVector.geometric(4.0, 0.5)
        z = x + y
        assert z.tail.kind == "mixed"
        assert np.array_equal(truncated(z, 2000), truncated(x, 2000) + truncated(y, 2000))

    @settings(max_examples=60, deadline=None)
    @given(x=tail_vectors(), y=tail_vectors())
    def test_add_and_subtract_match_truncation(self, x, y):
        n = 200
        tx, ty = truncated(x, n), truncated(y, n)
        np.testing.assert_allclose(truncated(x + y, n), tx + ty, rtol=0, atol=1e-12)
        np.testing.assert_allclose(truncated(x - y, n), tx - ty, rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(x=tail_vectors(), y=tail_vectors())
    def test_meet_join_match_truncation(self, x, y):
        n = 200
        tx, ty = truncated(x, n), truncated(y, n)
        np.testing.assert_allclose(truncated(x.meet(y), n), np.minimum(tx, ty), rtol=0, atol=1e-12)
        np.testing.assert_allclose(truncated(x.join(y), n), np.maximum(tx, ty), rtol=0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(x=st.one_of(tail_vectors(), sign_settling_vectors()), c=st.integers(min_value=-6, max_value=6))
    def test_abs_and_scaling_match_truncation(self, x, c):
        # |x| is exact and nonnegative on every coordinate it writes out;
        # past them its tail is x's tail shifted by J, which moves
        # non-dyadic values by an ulp when J > 0
        n = 200
        absolute, expected = abs(x), np.abs(truncated(x, n))
        k = len(absolute.prefix)
        assert (truncated(absolute, n) >= 0.0).all() and (absolute.head(n) >= 0.0).all()
        np.testing.assert_array_equal(truncated(absolute, k), expected[:k])
        atol = 0 if k == len(x.prefix) else 1e-15
        np.testing.assert_allclose(truncated(absolute, n)[k:], expected[k:], rtol=0, atol=atol)
        np.testing.assert_allclose(
            truncated(x * (c / 2.0), n), (c / 2.0) * truncated(x, n), rtol=0, atol=1e-12
        )

    def test_ops_match_long_truncation_oracle(self):
        rng = random.Random(29)
        for _ in range(12):
            xs = []
            for _ in range(2):
                prefix = [rng.uniform(-4, 4) for _ in range(rng.randrange(0, 4))]
                kind = rng.randrange(3)
                if kind == 0:
                    xs.append(TailVector.from_prefix(prefix))
                elif kind == 1:
                    xs.append(TailVector.constant(rng.uniform(-2, 2), prefix))
                else:
                    xs.append(
                        TailVector.geometric(rng.uniform(-2, 2), rng.uniform(0.1, 0.9), prefix)
                    )
            x, y = xs
            tx, ty = truncated(x), truncated(y)
            np.testing.assert_allclose(truncated(x + y), tx + ty, rtol=0, atol=1e-12)
            np.testing.assert_allclose(truncated(x - y), tx - ty, rtol=0, atol=1e-12)
            np.testing.assert_allclose(truncated(x.meet(y)), np.minimum(tx, ty), rtol=0, atol=1e-12)
            np.testing.assert_allclose(truncated(x.join(y)), np.maximum(tx, ty), rtol=0, atol=1e-12)
            np.testing.assert_allclose(truncated(abs(x)), np.abs(tx), rtol=0, atol=0)

    @settings(max_examples=40, deadline=None)
    @given(x=tail_vectors(), y=tail_vectors())
    def test_lattice_identities(self, x, y):
        assert x.meet(y) == y.meet(x)
        assert x.join(y) == y.join(x)
        assert x.meet(y) + x.join(y) == x + y


# tails for disjointness: constant, geometric, two-term tails that cross 0
# (the first is 0 at offset 1), and a mixed tail that is 0 at offset 0
SPARSE_TAILS = (
    Tail.make(1.5, ()),
    Tail.make(-0.5, ()),
    Tail.make(0.0, ((1.0, 0.5),)),
    Tail.make(0.0, ((1.0, 0.5), (-2.0, 0.25))),
    Tail.make(0.0, ((-1.0, 0.5), (2.0, 0.25))),
    Tail.make(1.0, ((-1.0, 0.5),)),
)


@st.composite
def sparse_sequences(draw):
    """Short sequences of blocks at random offsets, a third of them with a tail.

    Blocks may hold zeros, and a tail may start before another element's
    last nonzero prefix coordinate.
    """
    elements = []
    for _ in range(draw(st.integers(min_value=2, max_value=6))):
        offset = draw(st.integers(min_value=0, max_value=12))
        block = draw(st.lists(st.sampled_from((0.0, 1.0, -0.5, 2.0)), max_size=3))
        tail = draw(st.one_of(
            st.sampled_from((Tail(),) * 12 + SPARSE_TAILS + FOLDED_TAILS), cancelling_tails()
        ))
        elements.append(TailVector.make((0.0,) * offset + tuple(block), tail))
    return VectorSequence(tuple(elements))


def first_meeting_pair(s: VectorSequence):
    """Reference: the first pair (i, j), i < j, whose exact meet |x_i| ^ |x_j| is not 0."""
    absolute = [abs(x) for x in s.elements]
    for i, j in itertools.combinations(range(len(absolute)), 2):
        if not absolute[i].meet(absolute[j]).is_zero:
            return i + 1, j + 1
    return None


def units(horizon, scale=1.0):
    return VectorSequence.from_generator(lambda n: TailVector.unit(n, scale), horizon, name="units")


class TestUoNull:
    def test_unit_vectors_are_uo_null(self):
        v = is_uo_null(units(64), SpaceModel.ELL1, 1e-9)
        assert v.verdict == "uo-null-evidence"

    def test_divergent_coordinate_is_witnessed(self):
        s = VectorSequence.from_generator(lambda n: TailVector.unit(1, float(n)), 32)
        v = is_uo_null(s, SpaceModel.ELL1, 1e-9)
        assert v.verdict == "not-uo-null"
        assert v.witness_coordinate == 1

    def test_shrinking_constants_in_ell_infty(self):
        s = VectorSequence.from_generator(lambda n: TailVector.constant(1.0 / n), 64)
        assert is_uo_null(s, SpaceModel.ELL_INFTY, 1 / 16).verdict == "uo-null-evidence"

    def test_constant_tail_witnessed_symbolically(self):
        s = VectorSequence.from_generator(lambda n: TailVector.ones(), 32)
        v = is_uo_null(s, SpaceModel.ELL_INFTY, 1e-9)
        assert v.verdict == "not-uo-null"

    def test_horizon_must_be_reasonable(self):
        with pytest.raises(ValueError, match="horizon"):
            is_uo_null(units(4), SpaceModel.ELL1, 1e-9)

    def test_membership_validated(self):
        s = VectorSequence.from_generator(lambda n: TailVector.ones(), 16)
        with pytest.raises(ValueError, match="not in ell1"):
            is_uo_null(s, SpaceModel.ELL1, 1e-9)


class TestOrderNull:
    def test_unit_vectors_not_order_null(self):
        # uo-null, but the tail supremum keeps growing in support
        v = is_order_null(units(64), SpaceModel.ELL1, 1e-9)
        assert v.verdict == "not-order-null"
        assert v.uo.is_null
        assert not v.sup_stabilized

    def test_unit_vectors_order_null_in_ell_infty(self):
        # l-infinity is Dedekind complete: the marching units are dominated
        # by the constant 1.5, so uo-null means order-null although their
        # tail supremum never stabilises
        v = is_order_null(units(64, 1.5), SpaceModel.ELL_INFTY, 1e-9)
        assert v.verdict == "order-null-evidence"
        assert not v.sup_stabilized
        assert v.sup_in_model
        for m in (SpaceModel.ELL1, SpaceModel.C0):
            assert is_order_null(units(64, 1.5), m, 1e-9).verdict == "not-order-null"

    def test_growing_unit_vectors_not_order_null_in_ell_infty(self):
        # n * e_n is uo-null but not norm-bounded, so not order-bounded:
        # its tail supremum has a finite norm at every horizon, 48 after
        # the first window and 64 after the last
        s = VectorSequence.from_generator(lambda n: TailVector.unit(n, float(n)), 64)
        v = is_order_null(s, SpaceModel.ELL_INFTY, 1e-9)
        assert v.uo.is_null and v.sup_in_model
        assert v.verdict == "not-order-null"

    def test_shrinking_single_coordinate(self):
        s = VectorSequence.from_generator(lambda n: TailVector.unit(1, 1.0 / n), 64)
        assert is_order_null(s, SpaceModel.ELL1, 1 / 16).verdict == "order-null-evidence"

    def test_shrinking_constants_in_ell_infty(self):
        s = VectorSequence.from_generator(lambda n: TailVector.constant(1.0 / n), 64)
        v = is_order_null(s, SpaceModel.ELL_INFTY, 1 / 16)
        assert v.verdict == "order-null-evidence"
        assert v.sup_in_model

    def test_order_null_implies_uo_null_on_random_families(self):
        rng = random.Random(5)
        for trial in range(30):
            kind = rng.randrange(3)
            if kind == 0:
                scale = rng.uniform(0.5, 2.0)
                s = VectorSequence.from_generator(
                    lambda n, c=scale: TailVector.unit(n, c), 32
                )
            elif kind == 1:
                s = VectorSequence.from_generator(
                    lambda n: TailVector.unit(rng.randrange(1, 4), 1.0 / n**2), 32
                )
            else:
                s = VectorSequence.from_generator(
                    lambda n: TailVector.geometric(1.0 / n, 0.5), 32
                )
            order = is_order_null(s, SpaceModel.ELL1, 1 / 8)
            if order.is_null:
                assert order.uo.is_null


class TestDisjoint:
    def test_unit_vectors_disjoint(self):
        assert is_disjoint(units(32)).disjoint

    def test_identical_supports_witnessed(self):
        s = VectorSequence.from_generator(lambda n: TailVector.ones(), 8)
        v = is_disjoint(s)
        assert not v.disjoint
        assert v.witness == (1, 2)

    def test_dyadic_blocks_disjoint(self):
        def block(n):
            start, length = 2**n, 2**n
            return TailVector.make((0.0,) * (start - 1) + (1.0,) * length, Tail())

        s = VectorSequence.from_generator(block, 8)
        assert is_disjoint(s).disjoint

    def test_disjoint_implies_uo_null(self):
        rng = random.Random(11)
        for trial in range(20):
            gap = rng.randrange(1, 3)
            vals = [rng.uniform(0.5, 2.0) for _ in range(40)]
            s = VectorSequence.from_generator(
                lambda n, g=gap, v=vals: TailVector.unit(g * n, v[n - 1]), 32
            )
            assert is_disjoint(s).disjoint
            assert is_uo_null(s, SpaceModel.ELL1, 1e-9).is_null

    def test_only_first_and_last_overlap(self):
        s = VectorSequence.from_generator(
            lambda n: TailVector.unit(n if n < 16 else 1, -2.0 if n == 16 else 1.0), 16
        )
        assert is_disjoint(s) == DisjointVerdict(False, (1, 16))

    def test_two_tails_overlap(self):
        s = VectorSequence((
            TailVector.unit(1),
            TailVector.geometric(1.0, 0.5, prefix=(0.0, 0.0)),
            TailVector.unit(2),
            TailVector.constant(-1.0, prefix=(0.0,) * 5),
        ))
        assert is_disjoint(s) == DisjointVerdict(False, (2, 4))

    def test_geometric_tail_meets_later_unit_vector(self):
        s = VectorSequence((
            TailVector.geometric(1.0, 0.5, prefix=(0.0,) * 4),
            TailVector.unit(1),
            TailVector.unit(3),
            TailVector.unit(9, -0.5),
        ))
        assert is_disjoint(s) == DisjointVerdict(False, (1, 4))

    def test_zero_folded_into_a_tail(self):
        # |x| = (1, 0, 1/8, ...): the tail's sign settles at coordinate 4,
        # and abs keeps the zero at coordinate 2 in its prefix
        x = TailVector.make((), Tail.make(0.0, ((1.0, 0.5), (-2.0, 0.25))))
        assert abs(x).prefix == (1.0, 0.0, 0.125)
        assert is_disjoint(VectorSequence((x, TailVector.unit(2)))).disjoint
        assert is_disjoint(VectorSequence((TailVector.unit(2), x))).disjoint
        s = VectorSequence((x, TailVector.unit(2), TailVector.unit(3)))
        assert is_disjoint(s) == DisjointVerdict(False, (1, 3))

    def test_tails_with_close_ratios_overlap(self):
        # both tails are eventually positive, so no sign split is needed
        s = VectorSequence((TailVector.geometric(1.0, 0.5), TailVector.geometric(1.0, 0.5 + 1e-9)))
        assert is_disjoint(s) == DisjointVerdict(False, (1, 2))

    def test_tail_too_close_raises(self):
        x = TailVector.make((), Tail.make(0.0, ((1.0, 0.1), (-1.0, 0.1 + 1e-16))))
        with pytest.raises(TailTooClose):
            is_disjoint(VectorSequence((TailVector.unit(1), TailVector.unit(1), x)))

    @pytest.mark.parametrize("tail", FOLDED_TAILS[:2])
    def test_folded_zero_read_as_meet_reads(self, tail):
        # abs keeps the zero of the tail as an explicit prefix entry, and
        # the sweep reads every coordinate of |x| as meet does; folded back
        # into the tail, the second tail's zero would read -1.4e-17, and
        # x would not be disjoint from the zero vector
        x = TailVector.make((), tail)
        absolute = abs(x)
        assert 0.0 in absolute.prefix
        assert (absolute.head(len(absolute.prefix) + 9) >= 0.0).all()
        assert absolute.meet(TailVector.zero()).is_zero
        k = absolute.prefix.index(0.0) + 1
        for other in (TailVector.zero(), TailVector.unit(1), TailVector.unit(k), TailVector.unit(9)):
            for s in (VectorSequence((x, other)), VectorSequence((other, x))):
                pair = first_meeting_pair(s)
                assert is_disjoint(s) == DisjointVerdict(pair is None, pair)

    @settings(max_examples=300, deadline=None)
    @given(s=sparse_sequences())
    def test_matches_pairwise_meets(self, s):
        pair = first_meeting_pair(s)
        assert is_disjoint(s) == DisjointVerdict(pair is None, pair)


class TestOcPart:
    def test_zero_is_member(self):
        assert oc_part_membership(TailVector.zero(), SpaceModel.ELL_INFTY).member

    def test_ell1_and_c0_always_members(self):
        x = TailVector.geometric(1.0, 0.5, prefix=(3.0,))
        assert oc_part_membership(x, SpaceModel.ELL1).member
        assert oc_part_membership(x, SpaceModel.C0).member

    def test_constant_tail_not_member_with_witness(self):
        v = oc_part_membership(TailVector.constant(1.0), SpaceModel.ELL_INFTY)
        assert not v.member
        assert len(v.witness_blocks) == 8
        assert v.witness_norm_bound >= 0.5
        seq = VectorSequence(v.witness_blocks)
        assert is_disjoint(seq).disjoint
        for b in v.witness_blocks:
            assert model_norm(b, SpaceModel.ELL_INFTY) >= v.witness_norm_bound

    def test_vanishing_tail_is_member(self):
        x = TailVector.geometric(1.0, 0.5)
        assert oc_part_membership(x, SpaceModel.ELL_INFTY).member

    def test_agrees_with_c0_membership(self):
        rng = random.Random(3)
        for _ in range(200):
            kind = rng.randrange(3)
            prefix = [rng.uniform(-4, 4) for _ in range(rng.randrange(0, 4))]
            if kind == 0:
                x = TailVector.from_prefix(prefix)
            elif kind == 1:
                x = TailVector.constant(rng.choice([-1.0, 0.0, 2.0]), prefix)
            else:
                x = TailVector.geometric(rng.uniform(-2, 2), rng.uniform(0.1, 0.9), prefix)
            verdict = oc_part_membership(x, SpaceModel.ELL_INFTY)
            assert verdict.member == membership(x, SpaceModel.C0)


class TestUoDual:
    def test_expected_lookup(self):
        assert uo_dual_expected(SpaceModel.ELL1) is SpaceModel.C0
        assert uo_dual_expected(SpaceModel.C0) is SpaceModel.ELL1
        assert uo_dual_expected(SpaceModel.ELL_INFTY) is SpaceModel.ELL1

    def test_ones_on_ell1_violated_by_unit_vectors(self):
        v = uo_dual_test(TailVector.ones(), SpaceModel.ELL1, 160, seed=0)
        assert v.verdict == "violated"
        assert v.generator == "unit-vectors"
        assert all(x == 1.0 for x in v.witness_values)

    def test_nonvanishing_tail_on_ell1_violated(self):
        phi = TailVector.constant(-0.5, prefix=(3.0, 1.0))
        v = uo_dual_test(phi, SpaceModel.ELL1, 160, seed=0)
        assert v.verdict == "violated"

    def test_c0_member_is_consistent_on_ell1(self):
        v = uo_dual_test(TailVector.geometric(1.0, 0.5), SpaceModel.ELL1, 200, seed=0)
        assert v.verdict == "consistent"

    def test_unit_functional_consistent_on_c0(self):
        assert uo_dual_test(TailVector.unit(1), SpaceModel.C0, 160, seed=0).consistent

    def test_unbounded_functional_rejected(self):
        with pytest.raises(FunctionalNotBounded):
            uo_dual_test(TailVector.ones(), SpaceModel.ELL_INFTY, 160, seed=0)
        with pytest.raises(FunctionalNotBounded):
            uo_dual_test(TailVector.constant(0.25), SpaceModel.C0, 160, seed=0)

    def test_vanishing_tail_with_close_ratios_is_bounded(self):
        # the tail vanishes, so the functional is bounded; settling the sign
        # of its two nearly equal ratios would raise TailTooClose
        phi = TailVector.make((), Tail.make(0.0, ((1.0, 0.1), (-1.0, 0.1 + 1e-16))))
        with pytest.raises(TailTooClose):
            model_norm(phi, SpaceModel.ELL1)
        for model in SpaceModel:
            assert uo_dual_test(phi, model, 160, seed=0).consistent, model

    def test_budget_validated(self):
        with pytest.raises(ValueError, match="budget"):
            uo_dual_test(TailVector.unit(1), SpaceModel.ELL1, 50, seed=0)

    def test_members_of_expected_dual_are_consistent(self):
        rng = random.Random(17)
        for model in SpaceModel:
            for i in range(12):
                prefix = [rng.uniform(-3, 3) for _ in range(rng.randrange(0, 5))]
                phi = TailVector.geometric(
                    rng.uniform(-2.0, 2.0), rng.uniform(0.05, 0.85), prefix
                )
                v = uo_dual_test(phi, model, 200, seed=100 + i)
                assert v.consistent, (model, phi, v)

    def test_determinism_under_seed(self):
        phi = TailVector.geometric(1.0, 0.5)
        a = uo_dual_test(phi, SpaceModel.ELL1, 160, seed=9)
        b = uo_dual_test(phi, SpaceModel.ELL1, 160, seed=9)
        assert a == b
