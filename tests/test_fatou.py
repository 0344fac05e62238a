import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uodual import convex
from uodual.convex import builtin
from uodual.fatou import TestSequence as Sequence
from uodual.fatou import (
    _BLOCK_VALUES,
    _level,
    ExtractionStalled,
    NotConvergent,
    NotNormBounded,
    UnknownName,
    check_bounded_uo_lsc,
    extract_ae_subsequence,
    generate,
    verify_norm_bounded,
)
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
from uodual.orlicz import OrliczFunction

ZERO = RandomVariable.zero(ProbabilitySpace.dyadic(0))


@st.composite
def certificate_runs(draw):
    """Values c_1..c_n_max drawn at, just below and just above the thresholds 2**-k, and 0."""
    n_max = draw(st.integers(16, 24))
    value = st.builds(
        lambda k, nudge, sign: sign * nudge(2.0**-k),
        st.integers(0, 26),
        st.sampled_from([
            lambda t: t,
            lambda t: np.nextafter(t, 0.0),
            lambda t: np.nextafter(t, math.inf),
            lambda t: 0.75 * t,
            lambda t: 0.0,
        ]),
        st.sampled_from([1.0, -1.0]),
    )
    return draw(st.lists(value, min_size=n_max, max_size=n_max))


def nested_greedy(certs):
    """Position k takes the first index after the previous pick with certificate <= 2**-k.

    Returns the picks, and the stall message when the picks run out before the horizon.
    """
    n_max = len(certs)
    picks, prev, k = [], 0, 1
    while prev < n_max:
        later = [n for n in range(prev + 1, n_max + 1) if certs[n - 1] <= 2.0**-k]
        if not later:
            return picks, (
                f"no index in ({prev}, {n_max}] has certificate <= 2**-{k}; "
                "the weighted distances do not tend to 0"
            )
        prev = later[0]
        picks.append(prev)
        k += 1
    return picks, None


class TestGenerators:
    def test_unknown_name(self):
        # one class for unknown functionals and generators, so the CLI catches both
        assert UnknownName is convex.UnknownName
        with pytest.raises(UnknownName):
            generate("sawtooth")

    def test_spike_mass_is_exactly_one(self):
        spike = generate("spike")
        for n in range(1, 65):
            f = spike.element(n)
            assert f.space.level >= math.ceil(math.log2(n))
            assert integrate(f.abs()) == 1.0

    def test_spike_declared_limit_is_zero(self):
        spike = generate("spike")
        assert spike.declared_limit is not None
        assert integrate(spike.declared_limit.abs()) == 0.0

    def test_spike_support_shrinks(self):
        spike = generate("spike")
        f = spike.element(8)
        assert f.values[0] == 8.0
        assert all(v == 0.0 for v in f.values[1:])

    def test_typewriter_blocks_have_shrinking_mass(self):
        tw = generate("typewriter")
        for n in range(1, 129):
            stage = n.bit_length() - 1
            assert integrate(tw.element(n).abs()) == 2.0**-stage

    def test_typewriter_sweeps_every_cell_each_stage(self):
        # each stage sweeps [0, 1] exactly once, so every level-3 cell is
        # hit 2**(stage-3) times per stage: the full sequence converges
        # nowhere
        tw = generate("typewriter")
        assert tw.declared_limit is None
        for stage in range(3, 7):
            hits = np.zeros(8)
            for n in range(2**stage, 2 ** (stage + 1)):
                hits += refine(tw.element(n), 7).array.reshape(8, -1).max(axis=1)
            assert np.array_equal(hits, np.full(8, 2.0 ** (stage - 3)))

    def test_oscillating_alternates(self):
        osc = generate("oscillating")
        assert integrate(osc.element(2)) == 0.5
        assert integrate(osc.element(3)) == -0.5
        assert osc.declared_limit is None

    def test_constant_sequence(self):
        f = RandomVariable.from_values(ProbabilitySpace.dyadic(1), [1.0, -2.0])
        cs = generate("constant", f)
        assert cs.declared_limit is f
        assert integrate(cs.element(1)) == integrate(f)
        assert cs.element(16).space.level == 4  # refined to cover the index

    def test_constant_requires_value(self):
        with pytest.raises(ValueError, match="limit_value"):
            generate("constant")


def float_level(n: int) -> int:
    """The level as the generators computed it before: from a float log2."""
    return math.ceil(math.log2(n)) if n > 1 else 0


def reference_elements(n: int) -> dict[str, list[float]]:
    """Element values of spike, typewriter and oscillating built cell by cell."""
    level = float_level(n)
    cells, width = 2**level, 2.0**-level
    full = cells // n
    spike = [0.0] * cells
    for j in range(full):
        spike[j] = float(n)
    remainder = 1.0 - full * n * width
    if remainder > 0.0 and full < cells:
        spike[full] = remainder / width
    k = n.bit_length() - 1
    block = (n - 2**k + k) % (2**k) if k > 0 else 0
    block_width = 2 ** (level - k)
    typewriter = [0.0] * cells
    for j in range(block * block_width, (block + 1) * block_width):
        typewriter[j] = 1.0
    osc_cells = 2 ** max(1, level)
    sign = -1.0 if n % 2 else 1.0
    oscillating = [sign] * (osc_cells // 2) + [0.0] * (osc_cells - osc_cells // 2)
    return {"spike": spike, "typewriter": typewriter, "oscillating": oscillating}


class TestIntegerLevels:
    def test_level_is_exact_where_the_float_form_is_not(self):
        assert _level(1) == 0 and _level(2) == 1 and _level(3) == 2 and _level(4) == 2
        # log2(2**53 + 1) rounds to 53.0, so the float form asks for too few cells
        assert float_level(2**53 + 1) == 53
        assert _level(2**53 + 1) == 54
        assert _level(2**53) == 53

    def test_elements_match_the_cell_by_cell_construction(self):
        seqs = {name: generate(name) for name in ("spike", "typewriter", "oscillating")}
        base = RandomVariable.from_values(ProbabilitySpace.dyadic(2), [1.0, -2.0, 0.5, 3.0])
        constant = generate("constant", base)
        for n in range(1, 4097):
            level = float_level(n)
            assert _level(n) == level
            for name, values in reference_elements(n).items():
                f = seqs[name].element(n)
                assert f.space is ProbabilitySpace.dyadic(max(level, 1 if name == "oscillating" else 0))
                assert np.array_equal(f.array, values), (name, n)
            spike = seqs["spike"].element(n)
            assert integrate(spike) == 1.0
            c = constant.element(n)
            assert c.space.level == max(level, 2)
            assert np.array_equal(c.array, np.repeat(base.array, 2 ** (c.space.level - 2)))


class TestCheckBoundedUoLsc:
    def test_neg_expectation_spike_violated(self):
        rep = check_bounded_uo_lsc(builtin("neg-expectation"), generate("spike"), 32, 1e-9)
        assert rep.verdict == "violated"
        assert rep.liminf == -1.0
        assert rep.rho_at_limit == 0.0

    def test_expectation_spike_satisfied(self):
        rep = check_bounded_uo_lsc(builtin("expectation"), generate("spike"), 32, 1e-9)
        assert rep.verdict == "satisfied-evidence"
        assert rep.liminf == 1.0

    def test_constant_sequence_always_satisfied_with_equality(self):
        f = RandomVariable.from_values(ProbabilitySpace.dyadic(2), [1.0, 0.0, -1.0, 2.0])
        cs = generate("constant", f)
        for rho in (builtin("expectation"), builtin("entropic", beta=1.0), builtin("avar", alpha=0.5)):
            rep = check_bounded_uo_lsc(rho, cs, 16, 1e-9)
            assert rep.verdict == "satisfied-evidence"
            assert rep.liminf == pytest.approx(rep.rho_at_limit, abs=1e-12)

    def test_representable_builtins_satisfied_on_spike(self):
        for rho in (
            builtin("expectation"),
            builtin("entropic", beta=0.5),
            builtin("entropic", beta=2.0),
            builtin("avar", alpha=0.25),
            builtin("avar", alpha=1.0),
            builtin("worst-case"),
        ):
            rep = check_bounded_uo_lsc(rho, generate("spike"), 24, 1e-9)
            assert rep.verdict == "satisfied-evidence", rho.name

    def test_no_declared_limit_rejected(self):
        with pytest.raises(NotConvergent):
            check_bounded_uo_lsc(builtin("expectation"), generate("typewriter"), 32, 1e-9)

    def test_norm_bound_enforced(self):
        blowup = Sequence(
            "blowup",
            lambda n: RandomVariable.constant(ProbabilitySpace.dyadic(max(0, math.ceil(math.log2(n)))), 1e6 * n),
            ZERO,
        )
        with pytest.raises(NotNormBounded, match="element 2 "):
            check_bounded_uo_lsc(builtin("expectation"), blowup, 16, 1e-9)

    @staticmethod
    def recording(rho):
        """A copy of rho whose ``evaluate_rows`` records the shape of each matrix it is given."""
        shapes, inner = [], rho.evaluate_rows

        def evaluate_rows(space, m):
            shapes.append(m.shape)
            return inner(space, m)

        return dataclasses.replace(rho, evaluate_rows=evaluate_rows), shapes

    @staticmethod
    def constants(level_of, value_of=float):
        """A sequence of constant elements, recording the indices it generates."""
        generated = []

        def element(n):
            generated.append(n)
            return RandomVariable.constant(ProbabilitySpace.dyadic(level_of(n)), value_of(n))

        return Sequence("constants", element, ZERO), generated

    def test_norm_bound_names_the_first_element_inside_a_block(self):
        # 16 elements of 4 cells share one block; rho never sees it
        s, _ = self.constants(lambda n: 2, lambda n: 2e6 if n in (5, 9) else 1.0)
        rho, shapes = self.recording(builtin("expectation"))
        with pytest.raises(NotNormBounded, match="element 5 has L1 norm 2e\\+06"):
            check_bounded_uo_lsc(rho, s, 16, 1e-9)
        assert shapes == []

    def test_norm_bound_names_the_first_element_after_a_clean_block(self):
        # 1,024 cells a row: elements 1-4 fill a block and are evaluated, 6 is the first to break the bound
        s, _ = self.constants(lambda n: 10, lambda n: 2e6 if n >= 6 else 1.0)
        rho, shapes = self.recording(builtin("expectation"))
        with pytest.raises(NotNormBounded, match="element 6 "):
            check_bounded_uo_lsc(rho, s, 16, 1e-9)
        assert shapes == [(4, 1024)]

    def test_scalar_only_functional_keeps_its_values(self):
        rho = convex.ConvexFunctional("max-plus-mean", evaluate=lambda f: float(np.max(f.array)) + integrate(f))
        s = generate("spike")
        rep = check_bounded_uo_lsc(rho, s, 40, 1e-9)
        assert rep.values == tuple(rho.evaluate(s.element(n)) for n in range(1, 41))

    def test_spaces_up_and_down_keep_index_order(self):
        s, generated = self.constants(lambda n: 3 if n % 2 else 1)
        for rho in (builtin("expectation"), convex.ConvexFunctional("mean", evaluate=integrate)):
            generated.clear()
            rep = check_bounded_uo_lsc(rho, s, 20, 1e-9)
            assert rep.values == tuple(float(n) for n in range(1, 21))
            assert generated == list(range(1, 21))

    @pytest.mark.parametrize("name", convex.builtin_names())
    def test_blocks_match_element_by_element_evaluation(self, name):
        rho = builtin(name)
        # values that sum with rounding: a block sum of a refined copy can
        # differ from fsum in the last bit, upward for one sign and downward
        # for the other
        limits = [
            RandomVariable.from_values(ProbabilitySpace.dyadic(3), sign * np.random.default_rng(0).normal(0.0, 3.0, 8))
            for sign in (1.0, -1.0)
        ]
        for s, n_max in [(generate("spike"), 256)] + [(generate("constant", limit), 128) for limit in limits]:
            ref = np.array([rho.evaluate(s.element(n)) for n in range(1, n_max + 1)])
            at_limit = rho.evaluate(s.declared_limit)
            for tol in (1e-9, 0.0):
                rep = check_bounded_uo_lsc(rho, s, n_max, tol)
                values = np.array(rep.values)
                finite = np.isfinite(ref)
                assert np.array_equal(values[~finite], ref[~finite])
                assert np.all(np.abs(values[finite] - ref[finite]) <= 1e-15 * (1.0 + np.abs(ref[finite])))
                # the verdict of element-by-element evaluation, also at tol = 0
                expected = "violated" if at_limit > min(ref[n_max // 2 :]) + tol else "satisfied-evidence"
                assert (rep.liminf, rep.rho_at_limit, rep.verdict) == (min(ref[n_max // 2 :]), at_limit, expected)

    def test_one_rows_call_per_block(self):
        # spike elements 1..256 lie on levels 0..8; a block holds 4,096 // 2**level of them
        rho, shapes = self.recording(builtin("entropic"))
        check_bounded_uo_lsc(rho, generate("spike"), 256, 1e-9)
        per_level = np.bincount([_level(n) for n in range(1, 257)])
        blocks = sum(math.ceil(k / max(1, _BLOCK_VALUES >> level)) for level, k in enumerate(per_level))
        assert len(shapes) <= blocks == 17
        assert sum(rows for rows, _ in shapes) == 256
        assert max(rows * cells for rows, cells in shapes) <= _BLOCK_VALUES

    def test_memory_stays_within_blocks(self):
        # a block holds 32 KB; stacking level 12 of this horizon whole would take 64 MB
        rho, s = builtin("entropic"), generate("spike")
        tracemalloc.start()
        try:
            check_bounded_uo_lsc(rho, s, 4096, 1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024

    def test_n_max_validated(self):
        # the work grows with the square of n_max, which had no upper bound
        for n_max in (8, 4097):
            with pytest.raises(ValueError, match="n_max"):
                check_bounded_uo_lsc(builtin("expectation"), generate("spike"), n_max, 1e-9)

    def test_tol_validated(self):
        # a NaN tol used to read every comparison as satisfied
        for tol in (math.nan, -1.0):
            with pytest.raises(ValueError, match="tol"):
                check_bounded_uo_lsc(builtin("neg-expectation"), generate("spike"), 32, tol)

    def test_report_roundtrip(self):
        rep = check_bounded_uo_lsc(builtin("neg-expectation"), generate("spike"), 16, 1e-9)
        data = dataclasses.asdict(rep)
        assert data["verdict"] == "violated"
        assert len(data["values"]) == 16


class TestExtraction:
    def test_typewriter_certificates_and_ae_verdict(self):
        res = extract_ae_subsequence(generate("typewriter"), None, ZERO, 256)
        assert res.indices == (2, 4, 8, 16, 32, 64, 128, 256)
        assert all(c <= 2.0**-k for k, c in enumerate(res.certificates, start=1))
        assert res.level == 8
        assert res.ae_ok
        assert res.failing_cells == ()

    def test_constant_sequence_extracts_everything(self):
        f = RandomVariable.from_values(ProbabilitySpace.dyadic(1), [0.5, -0.5])
        cs = generate("constant", f)
        res = extract_ae_subsequence(cs, None, f, 20)
        assert res.indices == tuple(range(1, 21))
        assert all(c == 0.0 for c in res.certificates)
        assert res.ae_ok

    def test_oscillating_stalls(self):
        with pytest.raises(ExtractionStalled, match="2\\*\\*-2"):
            extract_ae_subsequence(generate("oscillating"), None, ZERO, 64)

    def test_spike_stalls_immediately(self):
        # the weighted distance to 0 is constantly 1: no certificate exists
        with pytest.raises(ExtractionStalled):
            extract_ae_subsequence(generate("spike"), None, ZERO, 64)

    def test_weight_must_be_strictly_positive(self):
        w = RandomVariable.from_values(ProbabilitySpace.dyadic(1), [1.0, 0.0])
        with pytest.raises(ValueError, match="strictly positive"):
            extract_ae_subsequence(generate("typewriter"), w, ZERO, 32)

    def test_limit_required(self):
        with pytest.raises(NotConvergent):
            extract_ae_subsequence(generate("typewriter"), None, None, 32)

    def test_n_max_validated(self):
        # n_max = 0 failed inside numpy, and a spike horizon of 4,097 built
        # every element before it stalled
        for n_max in (0, 4097):
            with pytest.raises(ValueError, match="n_max must lie in"):
                extract_ae_subsequence(generate("spike"), None, ZERO, n_max)

    def test_weighting_changes_certificates(self):
        # weight concentrated off the blocks shrinks the certificates
        w = RandomVariable.from_values(ProbabilitySpace.dyadic(1), [0.5, 1.5])
        res = extract_ae_subsequence(generate("typewriter"), w, ZERO, 64)
        assert all(c <= 2.0**-k for k, c in enumerate(res.certificates, start=1))

    def test_certificates_match_pairing_bit_for_bit(self):
        tw = generate("typewriter")
        w = RandomVariable.from_values(ProbabilitySpace.dyadic(2), [0.25, 1.75, 0.5, 1.5])
        lim = RandomVariable.from_values(ProbabilitySpace.dyadic(1), [0.0, 1e-3])
        res = extract_ae_subsequence(tw, w, lim, 128)
        for k, n in enumerate(res.indices, start=1):
            f, g = common_refinement(tw.element(n), lim)
            cert = pairing(RandomVariable(f.space, np.abs(f.array - g.array)), w)
            assert cert.hex() == res.certificates[k - 1].hex()

    def test_certificates_recheckable_from_report(self):
        tw = generate("typewriter")
        res = extract_ae_subsequence(tw, None, ZERO, 128)
        for k, n in enumerate(res.indices, start=1):
            cert = integrate(tw.element(n).abs())
            assert cert == res.certificates[k - 1]

    @settings(max_examples=300, deadline=None)
    @given(certificate_runs())
    def test_single_pass_matches_nested_greedy(self, values):
        # element n is the constant c_n on one cell and the limit is 0, so
        # its certificate is |c_n|; each element is generated once, in order
        generated = []

        def element(n):
            generated.append(n)
            return RandomVariable.from_values(ProbabilitySpace.dyadic(0), [values[n - 1]])

        n_max = len(values)
        certs = [abs(c) for c in values]
        picks, stall = nested_greedy(certs)
        seq = Sequence("synthetic", element, ZERO)
        if stall is None:
            res = extract_ae_subsequence(seq, None, None, n_max)
            assert res.indices == tuple(picks)
            assert res.certificates == tuple(certs[n - 1] for n in picks)
        else:
            with pytest.raises(ExtractionStalled) as err:
                extract_ae_subsequence(seq, None, None, n_max)
            assert str(err.value) == stall
        assert generated == list(range(1, n_max + 1))


    def test_memory_holds_no_picks_by_cells_float_matrix(self):
        # every index of a constant sequence is picked; stacking each pick
        # refined to level 10 as floats peaked at about 16 MiB
        f = RandomVariable(ProbabilitySpace.dyadic(10), np.random.default_rng(3).normal(size=1024))
        s = generate("constant", f)
        tracemalloc.start()
        try:
            res = extract_ae_subsequence(s, None, f, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(res.indices) == 1024 and res.ae_ok
        assert peak < 4 * 2**20

    def test_memory_caps_blocks_at_the_refined_size(self):
        # one-cell elements against a level-10 weight: a block of 1,024 of
        # them would hold 1,024 x 1,024 floats once refined to the weight
        s = Sequence("halves", lambda n: RandomVariable(ProbabilitySpace.dyadic(0), [2.0 ** -(n + 2)]), ZERO)
        w = RandomVariable.ones(ProbabilitySpace.dyadic(10))
        tracemalloc.start()
        try:
            res = extract_ae_subsequence(s, w, None, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.indices == tuple(range(1, 1025))
        assert peak < 2**20

    @staticmethod
    def reference_verdict(s, limit, indices):
        """(level, ae_ok, failing_cells) from every pick refined and stacked as floats."""
        chosen = [s.element(n) for n in indices]
        level = max([limit.space.level] + [f.space.level for f in chosen])
        lim = refine(limit, level).array
        diffs = np.array([np.abs(refine(f, level).array - lim) for f in chosen])
        tail = diffs[len(chosen) // 2 :] > 1e-9
        failing = tuple(np.flatnonzero(tail.sum(axis=0) > tail.shape[0] / 2.0).tolist())
        return level, not failing, failing

    def noisy_sequence(self, limit):
        """Elements on levels that go up and down, nearing ``limit`` on sparse cells."""
        rng = np.random.default_rng(11)
        levels = rng.integers(0, 7, size=129)

        def element(n):
            r = np.random.default_rng(100 + n)
            level = int(levels[n]) if n > 8 else 1
            base = refine(limit, level).array if level >= limit.space.level else np.zeros(2**level)
            noise = r.normal(size=2**level) * (r.random(2**level) < 0.3) * 0.7**n
            return RandomVariable(ProbabilitySpace.dyadic(level), base + noise)

        return Sequence("noisy", element, limit)

    def test_ae_verdict_matches_stacked_reference(self):
        rng = np.random.default_rng(5)
        w = RandomVariable(ProbabilitySpace.dyadic(10), rng.uniform(0.5, 1.5, 1024))
        # typewriter: the limit is finer than the early elements and the
        # weight finer than all; every pick is 2e-9 from the limit on its cell 2
        lim = RandomVariable(ProbabilitySpace.dyadic(3), [0.0, 0.0, 2e-9, 0.0, 0.0, 0.0, 0.0, 1e-12])
        tw = generate("typewriter")
        res = extract_ae_subsequence(tw, w, lim, 256)
        assert res.level == 8  # the weight's level 10 never enters it
        assert res.failing_cells == tuple(range(64, 96))
        assert (res.level, res.ae_ok, res.failing_cells) == self.reference_verdict(tw, lim, res.indices)
        lim = RandomVariable(ProbabilitySpace.dyadic(3), rng.normal(size=8))
        noisy = self.noisy_sequence(lim)
        res = extract_ae_subsequence(noisy, w, None, 128)
        assert res.level == 6
        assert (res.level, res.ae_ok, res.failing_cells) == self.reference_verdict(noisy, lim, res.indices)

    def test_ae_verdict_names_the_failing_cells(self):
        # a weight of 1e-300 on the one cell where f sits lets every index
        # pass, so that cell is visited by every pick
        f = RandomVariable.from_values(ProbabilitySpace.dyadic(2), [1.0, 0.0, 0.0, 0.0])
        w = RandomVariable.from_values(ProbabilitySpace.dyadic(2), [1e-300, 1.0, 1.0, 1.0])
        s = generate("constant", f)
        res = extract_ae_subsequence(s, w, ZERO, 64)
        assert res.indices == tuple(range(1, 65))
        assert not res.ae_ok
        assert res.failing_cells == tuple(range(16))  # cell 0 of level 2 at level 6
        assert (res.level, res.ae_ok, res.failing_cells) == self.reference_verdict(s, ZERO, res.indices)

    def test_non_dyadic_spaces_are_refused(self):
        # on one shared space every certificate is computed, then the
        # verdict cannot refine; a second space is refused by the walk
        three, five = ProbabilitySpace.uniform(3), ProbabilitySpace.uniform(5)
        calls = []

        def element(n, space=three):
            calls.append(n)
            return RandomVariable(space, np.full(space.size, 2.0 ** -(n + 2)))

        zero, w = RandomVariable.zero(three), RandomVariable.ones(three)
        with pytest.raises(NotDyadic, match="only dyadic spaces can be refined"):
            extract_ae_subsequence(Sequence("shared", element, zero), w, None, 32)
        assert calls == list(range(1, 33))
        moving = Sequence("moving", lambda n: element(n, three if n < 5 else five), zero)
        with pytest.raises(IncompatibleSpaces):
            extract_ae_subsequence(moving, w, None, 32)


class TestLiminfEstimate:
    def test_estimate_monotone_under_index_subsets(self):
        # the estimator keeps only indices past the horizon midpoint, so
        # restricting to a subset can only raise the estimated liminf
        import random as _random

        rng = _random.Random(31)
        n_max = 32
        rep = check_bounded_uo_lsc(builtin("entropic", beta=1.0), generate("spike"), n_max, 1e-9)

        def estimate(indices):
            late = [rep.values[i - 1] for i in indices if i > n_max // 2]
            return min(late) if late else math.inf

        full = estimate(range(1, n_max + 1))
        assert full == rep.liminf
        for _ in range(50):
            subset = sorted(rng.sample(range(1, n_max + 1), rng.randrange(4, n_max)))
            assert estimate(subset) >= full - 1e-9


class TestVerifyNormBounded:
    def test_n_max_validated(self):
        # n_max = 0 raised a bare IndexError, and 4,097 ran to the end
        for n_max in (0, 4097):
            with pytest.raises(ValueError, match="n_max must lie in"):
                verify_norm_bounded(generate("constant", ZERO), OrliczFunction.power(2), n_max)

    def test_spike_is_l1_bounded_with_bound_one(self):
        rep = verify_norm_bounded(generate("spike"), OrliczFunction.power(1), 48, tol=1e-8)
        assert rep.verdict == "bounded"
        assert rep.bound == pytest.approx(1.0, abs=1e-6)

    def test_spike_is_l2_unbounded(self):
        rep = verify_norm_bounded(generate("spike"), OrliczFunction.power(2), 48)
        assert rep.verdict == "unbounded-evidence"
        # closed form: the norm grows like sqrt(n) at powers of two
        assert rep.norms[31] == pytest.approx(math.sqrt(32.0), abs=1e-5)

    def test_constant_bound_is_the_norm(self):
        f = RandomVariable.from_values(ProbabilitySpace.dyadic(1), [2.0, -1.0])
        rep = verify_norm_bounded(generate("constant", f), OrliczFunction.power(2), 24)
        from uodual.orlicz import luxemburg_norm

        assert rep.verdict == "bounded"
        assert rep.bound == pytest.approx(luxemburg_norm(f, OrliczFunction.power(2), 1e-6).value, abs=1e-9)


class TestLscConsistencyWithDualRepresentation:
    def test_representable_functionals_are_never_violated(self):
        # functionals whose dual representation checks out on the same
        # space family must pass the lsc check along spike and constants
        from uodual.convex import SearchConfig, density_lattice, dual_representation_check

        space = ProbabilitySpace.dyadic(2)
        rng = np.random.default_rng(21)
        probes = [RandomVariable.zero(space)] + [
            RandomVariable.from_values(space, rng.uniform(-1, 1, 4)) for _ in range(2)
        ]
        const = generate("constant", RandomVariable.from_values(space, [0.5, -0.25, 1.0, 0.0]))
        for rho in (builtin("expectation"), builtin("entropic", beta=1.0), builtin("avar", alpha=0.5)):
            grid = density_lattice(space, 1.0) + [rho.dual_witness(f) for f in probes]
            rep = dual_representation_check(rho, probes, grid, 1e-3, SearchConfig())
            assert rep.verdict == "representable-evidence", rho.name
            for seq in (generate("spike"), const):
                lsc = check_bounded_uo_lsc(rho, seq, 16, 1e-9)
                assert lsc.verdict == "satisfied-evidence", (rho.name, seq.name)
