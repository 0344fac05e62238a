"""function-space: Orlicz conjugates, Luxemburg norms, Fatou checks and a.e. extraction.

This exercises the numpy sweep and ternary refinement of
``orlicz.conjugate``, the bracketing and bisection of ``luxemburg_norm``
on a few large variables (2^10 to 2^12 cells), and the element-by-element
paths of ``fatou``.  ``convex`` is used only through single ``evaluate``
calls, so a change that speeds up the conjugate search of
fenchel-moreau but slows a plain evaluation shows here.
"""

from __future__ import annotations

import math

import numpy as np

import oracles
from harness import Meter, Trace, counted_orlicz, median, timed_evaluate, timed_generator

CONJ_GRIDS = (256, 512, 1024)
CONJ_POWERS = (1.5, 2.0, 3.0)
POWER_S_MAX = 8.0
CONJ_TOL = 1e-6  # the program's own grid-drift tolerance
TOL_CONJ = 1e-8  # knot values against the closed form, relative to 1 + |psi|

LUX_LEVELS = (10, 11, 12)
LUX_TOL = 1e-9
LSC_N_MAX = 256
CONST_N_MAX = 128
EXTRACT_N_MAX = (128, 256)


def _orlicz(uodual, spec):
    kind, p, c, a = spec
    return uodual.OrliczFunction.power(p, c) if kind == "power" else uodual.OrliczFunction.exponential(a)


def make_inputs(seed: int, uodual) -> dict:
    rng = np.random.default_rng(seed)
    # an Orlicz function is given as (kind, p, scale c, rate a)
    conj = []
    for p in CONJ_POWERS:
        spec = ("power", p, float(rng.uniform(0.25, 4.0)), 0.0)
        conj += [{"spec": spec, "grid": grid, "s_max": POWER_S_MAX} for grid in CONJ_GRIDS]
    a = float(rng.uniform(0.5, 2.0))
    conj += [{"spec": ("exp", 0.0, 0.0, a), "grid": grid, "s_max": 4.0 / a} for grid in CONJ_GRIDS]
    for task in conj:
        task["phi"] = _orlicz(uodual, task["spec"])

    # Luxemburg: three power functions and one exponential; the first power is
    # paired with its closed-form conjugate for Orlicz-Hoelder
    lux_phis = [("power", p, float(rng.uniform(0.25, 4.0)), 0.0) for p in CONJ_POWERS]
    lux_phis.append(("exp", 0.0, 0.0, float(rng.uniform(0.5, 2.0))))
    _, p0, c0, _ = lux_phis[0]
    q = p0 / (p0 - 1.0)
    psi0 = ("power", q, (p0 - 1.0) * c0 * (c0 * p0) ** -q, 0.0)
    lux = [
        {
            "level": level,
            "f": rng.uniform(-2.0, 2.0, 2**level),
            "g": rng.normal(0.0, 1.0, 2**level),
            "scale": float(rng.uniform(0.25, 4.0)),
            "weights": np.full(2**level, 2.0**-level),
        }
        for level in LUX_LEVELS
    ]

    limit = rng.uniform(-1.0, 1.0, 8)
    zoo = [
        ("expectation", {}),
        ("neg-expectation", {}),
        ("entropic", {"beta": float(rng.uniform(0.5, 2.0))}),
        ("avar", {"alpha": float(rng.uniform(0.1, 0.9))}),
        ("worst-case", {}),
        ("supnorm-ball", {"radius": 1.0}),
    ]
    limit_rv = uodual.RandomVariable.from_values(uodual.ProbabilitySpace.dyadic(3), limit)
    return {
        "conj": conj,
        "lux_phis": lux_phis,
        "lux_objects": [_orlicz(uodual, spec) for spec in lux_phis],
        "psi0_object": _orlicz(uodual, psi0),
        "lux": lux,
        "zoo": zoo,
        "rhos": [uodual.builtin(name, **params) for name, params in zoo],
        "limit": limit,
        "spike": uodual.generate("spike"),
        "constant": uodual.generate("constant", limit_rv),
        "typewriter": uodual.generate("typewriter"),
        "oscillating": uodual.generate("oscillating"),
        "zero": uodual.RandomVariable.zero(uodual.ProbabilitySpace.dyadic(0)),
    }


def run_pass(inputs: dict, uodual, meter: Meter) -> list:
    from uodual.fatou import ExtractionStalled

    trace = meter.trace
    records = []

    def counted(phi, counter):
        return phi if trace is None else counted_orlicz(phi, trace, counter)

    for task in inputs["conj"]:
        psi = meter.call(
            "orlicz_conjugates", f"orlicz.conjugate.{task['grid']}", uodual.conjugate,
            counted(task["phi"], "orlicz.conjugate_phi"), task["s_max"], task["grid"], CONJ_TOL,
        )
        records.append(("conj", task, np.asarray(psi.grid_s), np.asarray(psi.grid_y)))

    RV, space_of = uodual.RandomVariable, uodual.ProbabilitySpace.dyadic
    phis = [counted(phi, "orlicz.norm_phi") for phi in inputs["lux_objects"]]
    psi0 = counted(inputs["psi0_object"], "orlicz.norm_phi")
    for task in inputs["lux"]:
        level, kind = task["level"], "luxemburg_norms"
        f = meter.call(kind, f"measure.construct.{2**level}", RV.from_values, space_of(level), task["f"], ops=0)
        g = meter.call(kind, f"measure.construct.{2**level}", RV.from_values, space_of(level), task["g"], ops=0)
        norms = [meter.call(kind, "orlicz.luxemburg", uodual.luxemburg_norm, f, phi, LUX_TOL) for phi in phis]
        scaled = meter.call(kind, "measure.scale", f.__mul__, task["scale"], ops=0)
        fine = meter.call(kind, "measure.refine", uodual.refine, f, level + 1, ops=0)
        extra = [
            meter.call(kind, "orlicz.luxemburg", uodual.luxemburg_norm, scaled, phis[0], LUX_TOL),
            meter.call(kind, "orlicz.luxemburg", uodual.luxemburg_norm, fine, phis[0], LUX_TOL),
            meter.call(kind, "orlicz.luxemburg", uodual.luxemburg_norm, g, psi0, LUX_TOL),
        ]
        fa = meter.call(kind, "measure.abs", f.abs, ops=0)
        ga = meter.call(kind, "measure.abs", g.abs, ops=0)
        pair = meter.call(kind, "measure.pairing", uodual.pairing, fa, ga, ops=0)
        mean = meter.call(kind, "measure.integrate", uodual.integrate, f, ops=0)
        records.append(("lux", task, norms, extra, pair, mean, np.asarray(fine.values)))

    rhos = inputs["rhos"] if trace is None else [timed_evaluate(r, trace) for r in inputs["rhos"]]
    for seq_name, n_max in (("spike", LSC_N_MAX), ("constant", CONST_N_MAX)):
        seq = inputs[seq_name] if trace is None else timed_generator(inputs[seq_name], trace)
        for spec, rho in zip(inputs["zoo"], rhos):
            rep = meter.call("lsc_checks", "fatou.lsc", uodual.check_bounded_uo_lsc, rho, seq, n_max, 1e-9)
            records.append(("lsc", seq_name, spec, n_max, rep))

    for n_max in EXTRACT_N_MAX:
        for name in ("typewriter", "oscillating"):
            seq = inputs[name] if trace is None else timed_generator(inputs[name], trace)
            before = trace.calls["fatou.element"] if trace is not None else 0
            if name == "typewriter":
                res = meter.call("extractions", "fatou.extract", uodual.extract_ae_subsequence,
                                 seq, None, inputs["zero"], n_max)
            else:
                res = meter.expect("extractions", "fatou.extract", ExtractionStalled,
                                   uodual.extract_ae_subsequence, seq, None, inputs["zero"], n_max)
            if trace is not None:
                trace.count("fatou.extraction_elements", trace.calls["fatou.element"] - before)
            records.append(("extract", name, n_max, res))
    return records


def check_conjugate(task: dict, knots, values) -> list[str]:
    kind, p, c, a = task["spec"]
    ref = oracles.power_conjugate(p, c, knots) if kind == "power" else oracles.exp_conjugate(a, knots)
    err = np.abs(values - ref) / (1.0 + np.abs(ref))
    if not np.all(err <= TOL_CONJ):
        i = int(np.argmax(err))
        return [f"conjugate of {task['spec']} on grid {task['grid']}: "
                f"psi({knots[i]!r}) = {values[i]!r}, closed form {ref[i]!r}"]
    return []


def check_luxemburg(inputs: dict, task: dict, norms, extra, pair: float, mean: float, fine) -> list[str]:
    f, g, w, c = task["f"], task["g"], task["weights"], task["scale"]
    errors = []
    label = f"Luxemburg on {f.size} cells"
    for spec, res in zip(inputs["lux_phis"], norms):
        true = oracles.luxemburg_true(*spec, f, w)
        if not true * (1.0 - 1e-12) <= res.value <= true * (1.0 + 1e-12) + LUX_TOL:
            errors.append(f"{label}, {spec}: value {res.value!r} outside [{true!r}, +tol]")
        if oracles.modular(*spec, f, w, res.value) > 1.0 + 1e-12:
            errors.append(f"{label}, {spec}: modular at the value exceeds 1")
    n0 = norms[0].value
    scaled, fine_norm, g_norm = (r.value for r in extra)
    if abs(scaled - c * n0) > 2.0 * LUX_TOL * max(1.0, c) + 1e-12 * c * n0:
        errors.append(f"{label}: ||c f|| = {scaled!r} but c ||f|| = {c * n0!r}")
    if abs(fine_norm - n0) > 2.0 * LUX_TOL:
        errors.append(f"{label}: the norm moved under refinement ({fine_norm!r} vs {n0!r})")
    if not np.array_equal(fine, np.repeat(f, 2)):
        errors.append(f"{label}: refine did not replicate each cell value")
    true_pair = math.fsum(np.abs(f) * np.abs(g) * w)
    if abs(pair - true_pair) > 1e-12 * true_pair:
        errors.append(f"{label}: E|fg| = {pair!r}, expected {true_pair!r}")
    if pair > 2.0 * n0 * g_norm + 1e-9:
        errors.append(f"{label}: Orlicz-Hoelder fails, E|fg| = {pair!r} > 2 {n0!r} {g_norm!r}")
    if mean != math.fsum(f * w):
        errors.append(f"{label}: E f = {mean!r}, expected {math.fsum(f * w)!r}")
    return errors


def check_lsc(inputs: dict, seq_name: str, spec, n_max: int, rep) -> list[str]:
    """Verdicts from the theory, and every rho(f_n) recomputed from its own formula."""
    name, params = spec
    label = f"lsc {name} along {seq_name}"
    if seq_name == "spike":
        own = [oracles.rho_value(name, params, *oracles.spike(n)) for n in range(1, n_max + 1)]
        at_limit = 0.0
    else:
        value = oracles.rho_value(name, params, inputs["limit"], np.full(8, 0.125))
        own, at_limit = [value] * n_max, value
    vals = np.asarray(rep.values, dtype=float)
    ref = np.asarray(own)
    finite = np.isfinite(ref)
    errors = []
    if vals.size != n_max or not np.array_equal(np.isfinite(vals), finite) or not np.all(
        np.abs(vals[finite] - ref[finite]) <= 1e-9 * (1.0 + np.abs(ref[finite]))
    ):
        errors.append(f"{label}: rho(f_n) differs from the recomputed values")
    if abs(rep.rho_at_limit - at_limit) > 1e-12 * (1.0 + abs(at_limit)):
        errors.append(f"{label}: rho(limit) = {rep.rho_at_limit!r}, expected {at_limit!r}")
    liminf = min(own[n_max // 2 :])
    if not (liminf == rep.liminf or abs(rep.liminf - liminf) <= 1e-9 * (1.0 + abs(liminf))):
        errors.append(f"{label}: liminf {rep.liminf!r}, expected {liminf!r}")
    # along the spike, E[-f_n] = -1 for every n while -E[0] = 0: the one violation
    expected = "violated" if (seq_name, name) == ("spike", "neg-expectation") else "satisfied-evidence"
    if rep.verdict != expected:
        errors.append(f"{label}: verdict {rep.verdict}, theory says {expected}")
    return errors


def check_extraction(name: str, n_max: int, res) -> list[str]:
    label = f"extraction on {name} to {n_max}"
    if name == "oscillating":
        return [] if res is not None else [f"{label}: did not raise ExtractionStalled"]
    errors = []
    idx, certs = list(res.indices), list(res.certificates)
    if any(b <= a for a, b in zip(idx, idx[1:])):
        errors.append(f"{label}: indices not strictly increasing")
    if idx != oracles.greedy_typewriter_indices(n_max):
        errors.append(f"{label}: indices {idx} are not the greedy choice")
    own = [oracles.typewriter_certificate(n) for n in idx]
    if len(certs) != len(idx) or any(c != o for c, o in zip(certs, own)):
        errors.append(f"{label}: certificates {certs} differ from the recomputed {own}")
    if any(c > 2.0**-k for k, c in enumerate(certs, start=1)):
        errors.append(f"{label}: a certificate exceeds 2^-k")
    if not res.ae_ok:
        errors.append(f"{label}: a.e. verdict fails on cells {res.failing_cells}")
    return errors


def check_pass(inputs: dict, records: list, state: dict) -> tuple[list[str], int]:
    errors = []
    for rec in records:
        if rec[0] == "conj":
            errors += check_conjugate(*rec[1:])
        elif rec[0] == "lux":
            errors += check_luxemburg(inputs, *rec[1:])
        elif rec[0] == "lsc":
            errors += check_lsc(inputs, *rec[1:])
        else:
            errors += check_extraction(*rec[1:])
    return errors, 0


def per_layer(trace: Trace, passes: int, warm: Trace) -> dict:
    conj = sum(trace.calls[f"orlicz.conjugate.{g}"] for g in CONJ_GRIDS)
    out = {f"orlicz.conjugate_ms.{g}": trace.mean_ms(f"orlicz.conjugate.{g}") for g in CONJ_GRIDS}
    out.update({
        "orlicz.phi_calls_per_conjugate": trace.counts["orlicz.conjugate_phi"] / conj,
        "orlicz.luxemburg_us": trace.mean_us("orlicz.luxemburg"),
        "orlicz.modular_evals_per_norm": trace.counts["orlicz.norm_phi"] / trace.calls["orlicz.luxemburg"],
        "measure.construct_us.1024": trace.mean_us("measure.construct.1024"),
        "measure.integrate_us": trace.mean_us("measure.integrate"),
        "measure.pairing_us": trace.mean_us("measure.pairing"),
        "measure.refine_us": trace.mean_us("measure.refine"),
        "convex.evaluate_us": trace.mean_us("convex.evaluate"),
        "fatou.lsc_ms": trace.mean_ms("fatou.lsc"),
        "fatou.extract_ms": trace.mean_ms("fatou.extract"),
        "fatou.element_calls_per_extraction":
            trace.counts["fatou.extraction_elements"] / trace.calls["fatou.extract"],
        "fatou.element_us": trace.mean_us("fatou.element"),
    })
    return out


def detail(meters: list[Meter]) -> dict:
    return {
        f"{kind}_per_s": median(m.ops[kind] / m.seconds[kind] for m in meters)
        for kind in ("orlicz_conjugates", "luxemburg_norms", "lsc_checks", "extractions")
    }
