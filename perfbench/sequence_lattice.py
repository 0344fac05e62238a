"""sequence-lattice: uo-dual verdicts, disjointness and null checks on TailVector sequences.

This is pure-Python symbolic tail algebra: ``eventual_sign``, prefix
extension, the O(h^2) exact meets of ``is_disjoint`` and the cached
family mat-vec of ``uo_dual_test``.  ``convex`` and ``orlicz`` do no work
here.

Vectors are generated as specs ``(prefix, tail constant, ((a, r), ...))``
that the checkers read directly; the program receives the TailVectors
built from them.
"""

from __future__ import annotations

import math
import random

import oracles
from harness import Meter, Trace, median

BUDGET = 160
# the search seed of uo_dual_test: one fixed random-block family, so that the
# cost of a pass does not depend on the run's seed (which seeds the functionals)
TEST_SEED = 0
DELTA = 1e-6  # the pairing level that uo_dual_test reads as non-vanishing
MODELS = ("ell1", "c0", "ellInfty")
FAMILIES = ("unit-vectors", "dyadic-blocks", "random-blocks")
HORIZON = 64

# Known false negative: these l1 functionals lie in every model's uo-dual,
# but their slowly decaying pairings stay above DELTA within the budget, so
# uo_dual_test reports "violated".  They run on every pass and are counted
# as failed, not as incorrect.
SLOW_DECAY_RATIOS = (0.95, 0.97, 0.99, 0.999)


def _geometric(rng: random.Random, max_prefix: int = 8):
    prefix = tuple(rng.uniform(-2.0, 2.0) for _ in range(rng.randrange(0, max_prefix + 1)))
    a = rng.uniform(0.2, 2.0) * rng.choice((-1.0, 1.0))
    return prefix, 0.0, ((a, rng.uniform(0.1, 0.8)),)


def _functionals(rng: random.Random):
    out = [("geometric", _geometric(rng)) for _ in range(16)]
    for _ in range(2):
        prefix = tuple(rng.uniform(-2.0, 2.0) for _ in range(rng.randrange(0, 4)))
        out.append(("constant", (prefix, rng.uniform(0.2, 2.0) * rng.choice((-1.0, 1.0)), ())))
    for _ in range(2):
        k = rng.randrange(1, 41)
        out.append(("unit", ((0.0,) * (k - 1) + (rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0)),), 0.0, ())))
    out.append(("ones", ((), 1.0, ())))
    return out


def _disjointness_specs(rng: random.Random):
    """Three horizon-64 sequences with a fixed support layout and seeded values."""
    def value():
        return rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))

    def block(start: int, length: int):
        return (0.0,) * (start - 1) + tuple(value() for _ in range(length)), 0.0, ()

    def tail_after(k: int):
        return (0.0,) * k, 0.0, ((value(), rng.uniform(0.1, 0.8)),)

    blocks = [block(3 * n - 2, 3) for n in range(1, HORIZON)] + [tail_after(3 * HORIZON)]
    units = [block(2 * n, 1) for n in range(1, HORIZON)] + [tail_after(2 * HORIZON + 1)]
    # element 51 is moved onto the last coordinate of element 30's block
    overlap = [block(3 * n - 2, 3) for n in range(1, HORIZON)] + [tail_after(3 * HORIZON)]
    overlap[50] = block(3 * 30, 2)
    return [("blocks", blocks), ("units", units), ("overlap", overlap)]


def _scaled(spec, c: float):
    prefix, const, terms = spec
    return tuple(c * v for v in prefix), c * const, tuple((c * a, r) for a, r in terms)


def _null_specs(rng: random.Random):
    """(name, element specs, tolerance) for marching, decaying, geometric and constant sequences."""
    s = rng.uniform(0.5, 2.0)
    k = rng.randrange(1, 6)
    q = rng.uniform(0.5, 0.8)
    base = _geometric(rng, max_prefix=3)
    prefix, _, terms = _geometric(rng, max_prefix=2)
    const = ((rng.uniform(0.2, 2.0),) + prefix, 0.0, terms)  # nonzero first coordinate
    h = range(1, HORIZON + 1)
    return [
        ("marching", [((0.0,) * (n - 1) + (s,), 0.0, ()) for n in h], 1e-9),
        ("decaying", [((0.0,) * (k - 1) + (s / n,), 0.0, ()) for n in h], s / 40.0),
        ("geometric", [_scaled(base, q**n) for n in h], 1e-3),
        ("constant", [const for _ in h], 1e-3),
    ]


def expected_null(name: str, model: str) -> tuple[str, str | None]:
    """uo and order verdicts from the theory; None where the order check is left out.

    Marching unit vectors are uo-null everywhere but not order bounded in
    l1 or c0; in l-infinity they are order-null, which the program's
    finite-horizon stabilisation rule cannot see, so that case is not run.
    """
    if name == "marching":
        return "uo-null-evidence", (None if model == "ellInfty" else "not-order-null")
    if name == "constant":
        return "not-uo-null", "not-order-null"
    return "uo-null-evidence", "order-null-evidence"


def make_inputs(seed: int, uodual) -> dict:
    rng = random.Random(seed)
    TV, Tail = uodual.TailVector, uodual.lattice.Tail

    def build(spec):
        prefix, const, terms = spec
        return TV.make(prefix, Tail.make(const, terms))

    functionals = _functionals(rng) + [("slow-decay", ((), 0.0, ((1.0, r),))) for r in SLOW_DECAY_RATIOS]
    VS = uodual.VectorSequence
    return {
        "functionals": [(kind, spec, build(spec)) for kind, spec in functionals],
        "disjoint": [(name, specs, VS(tuple(build(s) for s in specs), None, name))
                     for name, specs in _disjointness_specs(rng)],
        "null": [(name, specs, tol, VS(tuple(build(s) for s in specs), None, name))
                 for name, specs, tol in _null_specs(rng)],
        "models": [uodual.SpaceModel(m) for m in MODELS],
    }


def run_pass(inputs: dict, uodual, meter: Meter) -> list:
    from uodual.lattice import FunctionalNotBounded

    trace = meter.trace
    records = []
    for kind, spec, phi in inputs["functionals"]:
        norms = (
            meter.call("uo_dual_verdicts", "lattice.model_norm", uodual.model_norm, phi,
                       inputs["models"][0], ops=0),
            meter.call("uo_dual_verdicts", "lattice.model_norm", uodual.model_norm, phi,
                       inputs["models"][2], ops=0),
        )
        verdicts = []
        for model in inputs["models"]:
            try:
                v = meter.call("uo_dual_verdicts", "lattice.uo_dual_test", uodual.uo_dual_test,
                               phi, model, BUDGET, TEST_SEED)
            except FunctionalNotBounded:
                v = "FunctionalNotBounded"
            verdicts.append(v)
            if trace is not None:
                scanned = 0 if isinstance(v, str) else (
                    len(FAMILIES) if v.consistent else FAMILIES.index(v.generator) + 1
                )
                trace.count("lattice.families_scanned", scanned)
        records.append(("uo", kind, spec, norms, verdicts))

    for name, specs, seq in inputs["disjoint"]:
        verdict = meter.call("disjointness_checks", "lattice.is_disjoint", uodual.is_disjoint, seq)
        if trace is not None:
            absolute = [trace.time("lattice.abs", abs, x) for x in seq.elements]
            for x, y in zip(absolute, absolute[1:]):
                trace.time("lattice.meet", x.meet, y)
        records.append(("disjoint", name, specs, verdict))

    for name, specs, tol, seq in inputs["null"]:
        for model in inputs["models"]:
            uo = meter.call("null_checks", "lattice.null_check", uodual.is_uo_null, seq, model, tol)
            order = None
            if expected_null(name, model.value)[1] is not None:
                order = meter.call("null_checks", "lattice.null_check", uodual.is_order_null, seq, model, tol)
            records.append(("null", name, specs, tol, model.value, uo, order))
    return records


def check_witness(spec, model: str, v) -> list[str]:
    """Replay a violation: the witnesses are the first hits >= DELTA in the last quarter.

    Every functional the workload expects to be violated has a constant
    tail, which the unit vectors (the first family scanned) catch.
    """
    if v.generator != "unit-vectors":
        return [f"{model}: witness family {v.generator}, expected unit-vectors"]
    pairings = [oracles.coord(spec, n) for n in range(1, BUDGET + 1)]  # <phi, e_n> = phi_n
    start = 3 * BUDGET // 4
    hits = [n for n in range(start + 1, BUDGET + 1) if abs(pairings[n - 1]) >= DELTA]
    errors = []
    if 2 * len(hits) < BUDGET - start:
        errors.append(f"{model}: only {len(hits)} pairings >= delta in the last quarter")
    if list(v.witness_indices) != hits[:8]:
        errors.append(f"{model}: witness {list(v.witness_indices)}, replay gives {hits[:8]}")
    for n, val in zip(v.witness_indices, v.witness_values):
        ref = pairings[n - 1] if 1 <= n <= BUDGET else math.nan
        if not abs(val - ref) <= 1e-12 * abs(ref) or abs(val) < DELTA:
            errors.append(f"{model}: witness value {val!r} at {n}, replay gives {ref!r}")
    return errors


def check_uo(kind: str, spec, norms, verdicts) -> tuple[list[str], int]:
    """Expected verdicts from the closed form; known slow-decay cases count as failed."""
    errors, failed = [], 0
    label = f"uo-dual of {kind} {spec}"
    l1, sup = oracles.ell1_norm(spec), oracles.sup_norm(spec)
    if not (norms[0] == l1 or abs(norms[0] - l1) <= 1e-12 * l1):
        errors.append(f"{label}: l1 norm {norms[0]!r}, expected {l1!r}")
    if norms[1] != sup:
        errors.append(f"{label}: sup norm {norms[1]!r}, expected {sup!r}")
    in_c0 = spec[1] == 0.0
    for model, v in zip(MODELS, verdicts):
        # on l1 the uo-dual is c0; on c0 and l-infinity it is l1, and a
        # non-vanishing tail is not even a bounded functional there
        if model == "ell1":
            expected = "consistent" if in_c0 else "violated"
        else:
            expected = "consistent" if in_c0 else "FunctionalNotBounded"
        got = v if isinstance(v, str) else v.verdict
        if got != expected:
            if kind == "slow-decay":
                failed += 1
            else:
                errors.append(f"{label} on {model}: {got}, expected {expected}")
        elif got == "violated":
            errors += [f"{label}: {e}" for e in check_witness(spec, model, v)]
    return errors, failed


def check_disjoint(name: str, specs, verdict) -> list[str]:
    expected = oracles.first_overlap(specs)
    if verdict.disjoint != (expected is None) or (verdict.witness and tuple(verdict.witness)) != expected:
        return [f"is_disjoint({name}): {verdict.disjoint} {verdict.witness}, supports give {expected}"]
    if expected is not None:
        i, j = expected
        if oracles.supports_meet(oracles.support(specs[i - 1]), oracles.support(specs[j - 1])) is None:
            return [f"is_disjoint({name}): witness {expected} shares no coordinate"]
    return []


def check_null(name: str, specs, tol: float, model: str, uo, order) -> list[str]:
    label = f"{name} in {model}"
    want_uo, want_order = expected_null(name, model)
    errors = []
    if uo.verdict != want_uo:
        errors.append(f"{label}: {uo.verdict}, expected {want_uo}")
    lo, hi = uo.window
    window = specs[lo - 1 : hi]
    if uo.verdict == "not-uo-null" and uo.witness_coordinate is not None:
        k = uo.witness_coordinate

        def worst(j):
            return max(abs(oracles.coord(s, j)) for s in window)

        if worst(k) <= tol or any(worst(j) > tol for j in range(1, k)):
            errors.append(f"{label}: coordinate {k} is not the first above tol")
        if not abs(uo.witness_value - worst(k)) <= 1e-12 * worst(k):
            errors.append(f"{label}: witness value {uo.witness_value!r}, replay {worst(k)!r}")
    if want_order is not None:
        if order is None or order.verdict != want_order:
            errors.append(f"{label}: order verdict {order and order.verdict}, expected {want_order}")
        elif want_order == "order-null-evidence":
            tail = specs[HORIZON // 2 - 1 :]
            width = max(len(s[0]) for s in tail) + 3
            for j in range(1, width + 1):
                ref = max(abs(oracles.coord(s, j)) for s in tail)
                if abs(order.tail_sup.value(j) - ref) > 1e-12 * ref:
                    errors.append(f"{label}: sup of the tail at {j} is {order.tail_sup.value(j)!r}, not {ref!r}")
                    break
    return errors


def check_pass(inputs: dict, records: list, state: dict) -> tuple[list[str], int]:
    errors, failed = [], 0
    for rec in records:
        if rec[0] == "uo":
            errs, n = check_uo(*rec[1:])
            errors += errs
            failed += n
        elif rec[0] == "disjoint":
            errors += check_disjoint(*rec[1:])
        else:
            errors += check_null(*rec[1:])
    return errors, failed


def per_layer(trace: Trace, passes: int, warm: Trace) -> dict:
    return {
        "lattice.uo_dual_test_us": trace.mean_us("lattice.uo_dual_test"),
        "lattice.uo_dual_first_call_ms": 1e3 * warm.first.get("lattice.uo_dual_test", 0.0),
        "lattice.families_scanned": trace.counts["lattice.families_scanned"] / passes,
        "lattice.is_disjoint_ms": trace.mean_ms("lattice.is_disjoint"),
        "lattice.abs_us": trace.mean_us("lattice.abs"),
        "lattice.meet_us": trace.mean_us("lattice.meet"),
        "lattice.null_check_ms": trace.mean_ms("lattice.null_check"),
    }


def detail(meters: list[Meter]) -> dict:
    return {
        f"{kind}_per_s": median(m.ops[kind] / m.seconds[kind] for m in meters)
        for kind in ("uo_dual_verdicts", "disjointness_checks", "null_checks")
    }
