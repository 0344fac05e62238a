"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail line
per criterion, including wall time against the budget.
"""

import json
import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from uodual.convex import (
    ConjugateField,
    SearchConfig,
    builtin,
    density_lattice,
    dual_representation_check,
)
from uodual.fatou import (
    ExtractionStalled,
    check_bounded_uo_lsc,
    extract_ae_subsequence,
    generate,
    verify_norm_bounded,
)
from uodual.lattice import (
    SpaceModel,
    TailVector,
    VectorSequence,
    is_disjoint,
    is_order_null,
    is_uo_null,
    membership,
    oc_part_membership,
    uo_dual_expected,
    uo_dual_test,
)
from uodual.measure import ProbabilitySpace, RandomVariable, pairing
from uodual.orlicz import OrliczFunction, conjugate, luxemburg_norm


@contextmanager
def criterion(number: int, name: str, limit_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} FAIL: {name}")
        raise
    elapsed = time.monotonic() - start
    ok = elapsed <= limit_s
    print(f"\nACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {name} ({elapsed:.2f}s, limit {limit_s:.0f}s)")
    assert ok, f"{name}: runtime {elapsed:.2f}s exceeds {limit_s}s"


def test_criterion_1_conjugacy_suite():
    with criterion(1, "conjugacy suite", 5.0):
        cases = [
            # (phi, s_max, grid, closed-form psi, probe range)
            (OrliczFunction.power(1.5, 1 / 1.5), 6.0, 1024, lambda t: t**3 / 3, (0.25, 2.2)),
            (OrliczFunction.power(2, 0.5), 6.0, 1024, lambda t: t * t / 2, (0.25, 4.0)),
            (OrliczFunction.power(3, 1 / 3), 6.0, 1024, lambda t: (2 / 3) * t**1.5, (0.25, 4.0)),
            (
                OrliczFunction.exponential(),
                3.0,
                1024,
                lambda t: 0.0 if t <= 1.0 else t * math.log(t) - t + 1.0,
                (0.0, 8.0),
            ),
        ]
        for phi, s_max, grid, closed, (t_lo, t_hi) in cases:
            psi = conjugate(phi, s_max, grid)
            for t in np.linspace(t_lo, t_hi, 200):
                assert abs(psi(t) - closed(t)) <= 1e-4, phi.describe()
            back = conjugate(psi, psi.domain_cap, grid)
            for s in np.linspace(0.25, 2.0, 200):
                assert abs(back(s) - phi(s)) <= 1e-4, phi.describe()


def test_criterion_2_luxemburg_suite():
    with criterion(2, "Luxemburg suite", 10.0):
        tol = 1e-8
        rng = np.random.default_rng(2024)
        phi_props = OrliczFunction.power(2)

        for level, count in ((3, 250), (6, 250)):
            space = ProbabilitySpace.dyadic(level)
            for _ in range(count):
                f = RandomVariable.from_values(space, rng.uniform(-4, 4, space.size))
                g = RandomVariable.from_values(space, rng.uniform(-4, 4, space.size))
                c = float(rng.uniform(0.25, 4.0))
                nf = luxemburg_norm(f, phi_props, tol).value
                ng = luxemburg_norm(g, phi_props, tol).value
                # absolute homogeneity
                assert abs(luxemburg_norm(c * f, phi_props, tol).value - c * nf) <= 2 * tol * max(1.0, c)
                # monotonicity on a dominated vector
                u = rng.uniform(0.0, 1.0, space.size)
                dominated = RandomVariable.from_values(space, u * np.asarray(g.values))
                assert luxemburg_norm(dominated, phi_props, tol).value <= ng + 2 * tol
                # subadditivity
                assert luxemburg_norm(f + g, phi_props, tol).value <= nf + ng + 4 * tol

        # agreement with p-norms for phi(s) = s^p
        for p in (1.5, 2.0, 3.0):
            phi = OrliczFunction.power(p)
            space = ProbabilitySpace.dyadic(3)
            for _ in range(30):
                f = RandomVariable.from_values(space, rng.uniform(-3, 3, 8))
                pnorm = sum(
                    abs(v) ** p * w for v, w in zip(f.values, space.weights)
                ) ** (1 / p)
                assert abs(luxemburg_norm(f, phi, tol).value - pnorm) <= 2 * tol

        # Orlicz-Hoelder against the numerically conjugated function
        phi = OrliczFunction.power(2)
        psi = conjugate(phi, 8.0, 1024)
        for _ in range(200):
            space = ProbabilitySpace.dyadic(int(rng.integers(2, 5)))
            f = RandomVariable.from_values(space, rng.uniform(-4, 4, space.size))
            g = RandomVariable.from_values(space, rng.uniform(-4, 4, space.size))
            nf = luxemburg_norm(f, phi, tol).value
            ng = luxemburg_norm(g, psi, tol).value
            assert abs(pairing(f, g)) <= 2 * nf * ng + 1e-6


def test_criterion_3_uo_dual_table_suite():
    with criterion(3, "uo-dual table suite", 5.0):
        rng = random.Random(33)
        budget = 150
        for model in SpaceModel:
            target = uo_dual_expected(model)
            for i in range(50):
                prefix = [rng.uniform(-3, 3) for _ in range(rng.randrange(0, 6))]
                phi = TailVector.geometric(
                    rng.uniform(-3.0, 3.0), rng.uniform(0.05, 0.85), prefix
                )
                assert membership(phi, target)
                verdict = uo_dual_test(phi, model, budget, seed=i)
                assert verdict.consistent, (model.value, i)

        ones = uo_dual_test(TailVector.ones(), SpaceModel.ELL1, budget, seed=0)
        assert ones.verdict == "violated"
        assert ones.witness_values and all(v == 1.0 for v in ones.witness_values)
        for c in (0.5, -2.0):
            tailphi = TailVector.constant(c, prefix=(1.0, -1.0))
            v = uo_dual_test(tailphi, SpaceModel.ELL1, budget, seed=1)
            assert v.verdict == "violated", c

        # order-continuous part of l-infinity agrees with c0 membership
        for i in range(200):
            kind = rng.randrange(3)
            prefix = [rng.uniform(-4, 4) for _ in range(rng.randrange(0, 4))]
            if kind == 0:
                x = TailVector.from_prefix(prefix)
            elif kind == 1:
                x = TailVector.constant(rng.choice([-1.5, 0.0, 1.0]), prefix)
            else:
                x = TailVector.geometric(rng.uniform(-2, 2), rng.uniform(0.1, 0.9), prefix)
            assert oc_part_membership(x, SpaceModel.ELL_INFTY).member == membership(x, SpaceModel.C0)


def _generated_sequences(rng: random.Random, count: int, horizon: int):
    for i in range(count):
        kind = i % 5
        if kind == 0:
            scale = rng.uniform(0.5, 2.0)
            yield VectorSequence.from_generator(
                lambda n, c=scale: TailVector.unit(n, c), horizon, name=f"units-{i}"
            )
        elif kind == 1:
            gap = rng.randrange(2, 4)
            vals = [rng.uniform(0.5, 2.0) for _ in range(horizon)]
            yield VectorSequence.from_generator(
                lambda n, g=gap, v=vals: TailVector.unit(g * n, v[n - 1]),
                horizon,
                name=f"blocks-{i}",
            )
        elif kind == 2:
            k = rng.randrange(1, 4)
            yield VectorSequence.from_generator(
                lambda n, k=k: TailVector.unit(k, 1.0 / n), horizon, name=f"decay-{i}"
            )
        elif kind == 3:
            yield VectorSequence.from_generator(
                lambda n: TailVector.geometric(1.0 / n, 0.5), horizon, name=f"geo-{i}"
            )
        else:
            c = rng.uniform(0.5, 2.0)
            yield VectorSequence.from_generator(
                lambda n, c=c: TailVector.geometric(c, 0.5), horizon, name=f"fixed-{i}"
            )


def test_criterion_4_uo_calculus_suite():
    with criterion(4, "uo-calculus suite", 5.0):
        rng = random.Random(44)
        tol = 1 / 8
        for seq in _generated_sequences(rng, 100, 24):
            disjoint = is_disjoint(seq).disjoint
            uo = is_uo_null(seq, SpaceModel.ELL1, tol)
            order = is_order_null(seq, SpaceModel.ELL1, tol)
            if disjoint:
                assert uo.is_null, seq.name
            if order.is_null:
                assert uo.is_null, seq.name
            if uo.is_null and order.sup_stabilized and order.sup_in_model:
                assert order.is_null, seq.name

        units = VectorSequence.from_generator(lambda n: TailVector.unit(n), 64)
        assert is_uo_null(units, SpaceModel.ELL1, 1e-9).is_null
        assert not is_order_null(units, SpaceModel.ELL1, 1e-9).is_null


def test_criterion_5_fenchel_moreau_suite():
    with criterion(5, "Fenchel-Moreau suite", 60.0):
        cfg = SearchConfig(seed=5)
        rng = np.random.default_rng(55)
        sp2 = ProbabilitySpace.dyadic(1)
        sp4 = ProbabilitySpace.dyadic(2)
        functionals = [
            (builtin("entropic", beta=0.5), sp2),
            (builtin("entropic", beta=1.0), sp4),
            (builtin("entropic", beta=2.0), sp2),
            (builtin("avar", alpha=0.25), sp4),
            (builtin("avar", alpha=0.5), sp4),
            (builtin("avar", alpha=1.0), sp2),
            (builtin("expectation"), sp4),
        ]
        fy_pairs = 0
        for rho, space in functionals:
            probes = [RandomVariable.zero(space)] + [
                RandomVariable.from_values(space, rng.uniform(-1.5, 1.5, space.size))
                for _ in range(3)
            ]
            grid = density_lattice(space, 0.5 if space.size == 2 else 1.0)
            grid = grid + [rho.dual_witness(f) for f in probes]

            field = ConjugateField.compute(rho, grid, cfg)
            for i, g in enumerate(grid):
                oracle = rho.known_conjugate(g)
                if math.isinf(oracle):
                    assert math.isinf(field.values[i]), (rho.name, g.values)
                else:
                    assert abs(field.values[i] - oracle) <= 1e-4, (rho.name, g.values)

            rep = dual_representation_check(rho, probes, grid, 1e-3, cfg)
            assert rep.verdict == "representable-evidence", rho.name
            assert rep.max_gap <= 1e-3, rho.name

            finite = [i for i in range(len(grid)) if math.isfinite(field.values[i])]
            for i in finite[:12]:
                g = grid[i]
                for _ in range(20):
                    f = RandomVariable.from_values(space, rng.uniform(-4, 4, space.size))
                    assert pairing(f, g) <= rho.evaluate(f) + field.values[i] + 1e-7
                    fy_pairs += 1
        assert fy_pairs >= 1000, fy_pairs

        # the open interval's biconjugate is its closed hull: gap at the edge
        sp1 = ProbabilitySpace.dyadic(0)
        ball = builtin("open-ball", radius=1.0)
        grid = [RandomVariable.from_values(sp1, [v]) for v in np.arange(-4.0, 4.01, 0.5)]
        inside = RandomVariable.from_values(sp1, [0.5])
        edge = RandomVariable.from_values(sp1, [1.0])
        rep = dual_representation_check(ball, [inside, edge], grid, 1e-3, cfg)
        assert rep.verdict == "gap-found"
        assert rep.witness == 1
        assert math.isinf(rep.gaps[1])


def test_criterion_6_fatou_suite():
    with criterion(6, "Fatou suite", 10.0):
        spike = generate("spike")
        neg = check_bounded_uo_lsc(builtin("neg-expectation"), spike, 32, 1e-9)
        assert neg.verdict == "violated"
        assert neg.liminf == -1.0
        assert neg.rho_at_limit == 0.0

        representable = [
            builtin("expectation"),
            builtin("entropic", beta=0.5),
            builtin("entropic", beta=1.0),
            builtin("entropic", beta=2.0),
            builtin("avar", alpha=0.25),
            builtin("avar", alpha=0.5),
            builtin("avar", alpha=1.0),
            builtin("worst-case"),
        ]
        const = generate(
            "constant",
            RandomVariable.from_values(ProbabilitySpace.dyadic(2), [0.5, -0.25, 1.0, 0.0]),
        )
        for rho in representable:
            for seq in (spike, const):
                rep = check_bounded_uo_lsc(rho, seq, 32, 1e-9)
                assert rep.verdict == "satisfied-evidence", (rho.name, seq.name)

        l1 = verify_norm_bounded(spike, OrliczFunction.power(1), 48, tol=1e-8)
        assert l1.verdict == "bounded"
        assert abs(l1.bound - 1.0) <= 1e-6
        l2 = verify_norm_bounded(spike, OrliczFunction.power(2), 48)
        assert l2.verdict == "unbounded-evidence"


def test_criterion_7_extraction_suite():
    with criterion(7, "extraction suite", 10.0):
        zero = RandomVariable.zero(ProbabilitySpace.dyadic(0))
        res = extract_ae_subsequence(generate("typewriter"), None, zero, 256)
        assert all(c <= 2.0**-k for k, c in enumerate(res.certificates, start=1))
        assert res.level == 8
        assert res.ae_ok
        assert res.failing_cells == ()

        with pytest.raises(ExtractionStalled):
            extract_ae_subsequence(generate("oscillating"), None, zero, 256)


def test_criterion_8_determinism_and_exit_codes(tmp_path):
    with criterion(8, "determinism and exit codes", 120.0):
        def run_cli(args):
            return subprocess.run(
                [sys.executable, "-m", "uodual", *args],
                capture_output=True,
                text=True,
                timeout=300,
            )

        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        first = run_cli(["suite", "--seed", "7", "--out", str(out_a)])
        second = run_cli(["suite", "--seed", "7", "--out", str(out_b)])
        assert first.returncode == 0, first.stderr
        assert second.returncode == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert json.loads(out_a.read_text())["results"]["all_ok"] is True

        ok = run_cli(["norm", "--phi", "power:2", "--values", "1,2"])
        assert ok.returncode == 0
        violation = run_cli(["fatou", "--rho", "neg-expectation", "--seq", "spike", "--n-max", "16"])
        assert violation.returncode == 2
        error = run_cli(["fatou", "--rho", "nonsense"])
        assert error.returncode == 1
