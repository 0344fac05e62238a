"""fenchel-moreau: conjugates, biconjugates and the dualrep command on the risk-measure zoo.

Almost all of the time goes to the coordinate-ascent search behind each
conjugate, which calls ``evaluate`` thousands of times per dual point and
builds a tiny RandomVariable for every call.  The zoo covers a smooth
functional (entropic), piecewise-linear ones (AVaR, worst case: the
polish path) and an indicator (the sup-norm ball: the -inf recentring
path); the point-mass grid points give AVaR +inf conjugates (the
boundary-flag path), the rest are finite.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

import oracles
from harness import Meter, Trace, median, timed_evaluate

# (dyadic level, functional, parameters, probes, lattice part of the dual grid)
ZOO = (
    (2, "entropic", {"beta": 0.5}, 2, "masses"),
    (2, "entropic", {"beta": 2.0}, 2, "masses"),
    (2, "avar", {"alpha": 0.5}, 2, "masses"),
    (2, "worst-case", {}, 2, "masses"),
    (2, "supnorm-ball", {"radius": 2.0}, 1, "uniform"),
    (3, "avar", {"alpha": 0.25}, 1, "uniform+mass"),
)

TOL_CONJ = 1e-4  # conjugate against its closed form (acceptance criterion 5)
TOL_FM = 1e-3  # |rho - rho**| at the probes, with their witnesses on the grid
TOL_FY = 1e-7  # Fenchel-Young slack

CLI_TOL = 1e-3


def cli_argv(seed: int) -> list[str]:
    return [
        "dualrep", "--functional", "entropic", "--beta", "1", "--space-level", "1",
        "--dual-grid-step", "1.0", "--probes", "3", "--tol", str(CLI_TOL), "--seed", str(seed),
    ]


def _lattice(level: int, kind: str) -> list[np.ndarray]:
    """Points of the density lattice: point masses (extreme points) and the barycentre."""
    n = 2**level
    mass = [np.where(np.arange(n) == i, float(n), 0.0) for i in range(n)]
    return {"masses": [mass[0], mass[n // 2]], "uniform": [np.ones(n)], "uniform+mass": [np.ones(n), mass[0]]}[kind]


def make_inputs(seed: int, uodual) -> dict:
    """Seeded probes, their dual witnesses and the grids, as program objects."""
    rng = np.random.default_rng(seed)
    tasks = []
    for level, name, params, n_probes, lattice in ZOO:
        space = uodual.ProbabilitySpace.dyadic(level)
        w = np.full(2**level, 2.0**-level)
        probes = [rng.uniform(-1.5, 1.5, 2**level) for _ in range(n_probes)]
        grid = _lattice(level, lattice) + [oracles.dual_witness(name, params, f, w) for f in probes]
        tasks.append({
            "name": name,
            "params": params,
            "weights": w,
            "probes": probes,
            "grid": grid,
            "rho": uodual.builtin(name, **params),
            "probe_rvs": [uodual.RandomVariable.from_values(space, f) for f in probes],
            "grid_rvs": [uodual.RandomVariable.from_values(space, g) for g in grid],
        })
    return {"seed": seed, "tasks": tasks, "config": uodual.SearchConfig(seed=seed), "argv": cli_argv(seed)}


def run_pass(inputs: dict, uodual, meter: Meter) -> list:
    from uodual import cli
    from uodual.convex import ConjugateField, biconjugate

    trace = meter.trace
    records = []
    for task in inputs["tasks"]:
        rho = task["rho"] if trace is None else timed_evaluate(task["rho"], trace, uodual.RandomVariable)
        field = meter.call(
            "dual_points", "convex.compute", ConjugateField.compute, rho, task["grid_rvs"],
            inputs["config"], ops=len(task["grid_rvs"]),
        )
        bis = [
            meter.call("dual_points", "convex.biconjugate", biconjugate, field, f, ops=0)
            for f in task["probe_rvs"]
        ]
        if trace is not None:
            trace.count("convex.points", len(field))
            trace.count("convex.restarts", sum(len(r.start_values) for r in field.reports))
            trace.count("convex.boundary", int(np.sum(field.boundary_flags)))
        records.append(("task", task, field.values.copy(), field.boundary_flags.copy(), bis))

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if trace is not None:
            trace.time("cli.parse_config", cli.parse_config, inputs["argv"])
        code = meter.call("dualrep", "cli.run", cli.main, inputs["argv"])
    records.append(("cli", code, buf.getvalue()))
    return records


def check_task(task: dict, values, flags, biconjugates) -> list[str]:
    """Closed-form conjugates, +inf flags, Fenchel-Young and Fenchel-Moreau at the probes."""
    name, params, w = task["name"], task["params"], task["weights"]
    label = f"{name}{params} on {w.size} cells"
    errors = []
    for i, g in enumerate(task["grid"]):
        ref = oracles.conjugate_value(name, params, g, w)
        if math.isinf(ref):
            if not flags[i]:
                errors.append(f"{label}: +inf conjugate at grid point {i} not flagged (got {values[i]!r})")
        elif flags[i] or not abs(values[i] - ref) <= TOL_CONJ:
            errors.append(f"{label}: conjugate at grid point {i} is {values[i]!r}, closed form {ref!r}")
    for j, f in enumerate(task["probes"]):
        rho_f = oracles.rho_value(name, params, f, w)
        for i, g in enumerate(task["grid"]):
            if math.isfinite(values[i]) and rho_f + values[i] < math.fsum(f * g * w) - TOL_FY:
                errors.append(f"{label}: Fenchel-Young fails at probe {j}, grid point {i}")
        if not abs(rho_f - biconjugates[j]) <= TOL_FM:
            errors.append(f"{label}: rho={rho_f!r} but biconjugate={biconjugates[j]!r} at probe {j}")
    return errors


def check_cli(code: int, text: str, state: dict) -> list[str]:
    """Exit code 0, a representable verdict that holds up, and the same bytes on every pass."""
    errors = []
    if code != 0:
        errors.append(f"dualrep exited {code}")
    reference = state.setdefault("cli_text", text)
    if text != reference:
        errors.append("dualrep report differs from the first pass")
    try:
        res = json.loads(text)["results"]
    except (ValueError, KeyError) as exc:
        return errors + [f"dualrep report unreadable: {exc}"]
    gaps = [p["rho"] - p["biconjugate"] for p in res["probes"]]
    if res["verdict"] != "representable-evidence" or max(gaps) > CLI_TOL or min(gaps) < -CLI_TOL:
        errors.append(f"dualrep verdict {res['verdict']} with gaps {gaps}")
    # the first two probes of the command are 0 and the constant 0.5; entropic is cash invariant
    if abs(res["probes"][0]["rho"]) > 1e-12 or abs(res["probes"][1]["rho"] - 0.5) > 1e-12:
        errors.append("dualrep rho at the constant probes is not their value")
    return errors


def check_pass(inputs: dict, records: list, state: dict) -> tuple[list[str], int]:
    errors = []
    for rec in records:
        if rec[0] == "task":
            errors += check_task(*rec[1:])
        else:
            errors += check_cli(rec[1], rec[2], state)
    return errors, 0


def per_layer(trace: Trace, passes: int, warm: Trace) -> dict:
    points = trace.counts["convex.points"]
    search = trace.seconds["convex.compute"] - trace.seconds["convex.evaluate_wrapper"]
    return {
        "measure.construct_us.4": trace.mean_us("measure.construct.4"),
        "measure.construct_us.8": trace.mean_us("measure.construct.8"),
        "convex.evaluate_calls_per_point": trace.calls["convex.evaluate"] / points,
        "convex.evaluate_us": trace.mean_us("convex.evaluate"),
        "convex.search_us_per_point": 1e6 * search / points,
        "convex.restarts_per_point": trace.counts["convex.restarts"] / points,
        "convex.boundary_points": trace.counts["convex.boundary"] / passes,
        "convex.biconjugate_us": trace.mean_us("convex.biconjugate"),
        "cli.parse_config_us": trace.mean_us("cli.parse_config"),
        "cli.run_s": trace.mean_ms("cli.run") / 1e3,
    }


def detail(meters: list[Meter]) -> dict:
    """The workload's own rates: dual points per second and the dualrep latency."""
    return {
        "dual_points_per_s": median(m.ops["dual_points"] / m.seconds["dual_points"] for m in meters),
        "dualrep_s": median(m.seconds["dualrep"] for m in meters),
    }
