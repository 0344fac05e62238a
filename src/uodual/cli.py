"""Command-line front end: deterministic experiment runner with JSON reports.

Commands: ``conjugate``, ``norm``, ``dualrep``, ``fatou``, ``uodual-test``
and ``suite``.  Every run with the same configuration and seed produces a
byte-identical report; wall time is therefore printed to stderr (with
``--timing``) and kept null inside the report itself.

Exit codes: 0 when all verdicts are satisfied/consistent, 2 when a
mathematical counterexample was found (violated / gap-found), 1 on
configuration or runtime errors.  The distinction lets CI assert expected
counterexamples without conflating them with crashes.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .convex import (
    MAX_SEARCH_WORK,
    SearchConfig,
    UnknownName,
    builtin,
    check_search_size,
    density_lattice,
    dual_representation_check,
    lattice_size,
    lattice_units,
)
from .fatou import (
    MIN_N_MAX,
    ExtractionStalled,
    NotConvergent,
    check_bounded_uo_lsc,
    extract_ae_subsequence,
    generate,
)
from .lattice import (
    MAX_BUDGET,
    MIN_BUDGET,
    SpaceModel,
    TailVector,
    VectorSequence,
    is_disjoint,
    is_order_null,
    is_uo_null,
    uo_dual_expected,
    uo_dual_test,
)
from .measure import ProbabilitySpace, RandomVariable, check_tol
from .orlicz import MIN_GRID_SIZE, OrliczFunction, conjugate, luxemburg_norm

__all__ = ["ConfigInvalid", "ExperimentConfig", "main", "parse_config", "run"]


class ConfigInvalid(ValueError):
    """Configuration failed to parse or validate; message names the field."""


_SCHEMAS: dict[str, dict[str, tuple[type, object]]] = {
    "conjugate": {
        "phi": (str, "power:2"),
        "s_max": (float, 16.0),
        "grid_size": (int, 512),
        "tol": (float, 1e-6),
        "probes": (int, 9),
    },
    "norm": {
        "phi": (str, "power:2"),
        "values": (str, "1"),
        "tol": (float, 1e-8),
    },
    "dualrep": {
        "functional": (str, "entropic"),
        "beta": (float, 1.0),
        "alpha": (float, 0.5),
        "radius": (float, 1.0),
        "space_level": (int, 2),
        "dual_grid_step": (float, 0.5),
        "box": (float, 64.0),
        "tol": (float, 1e-3),
        "probes": (int, 4),
    },
    "fatou": {
        "rho": (str, "expectation"),
        "seq": (str, "spike"),
        "beta": (float, 1.0),
        "alpha": (float, 0.5),
        "n_max": (int, 32),
        "tol": (float, 1e-9),
    },
    "uodual-test": {
        "model": (str, "ell1"),
        "phi": (str, "ones"),
        "budget": (int, 160),
    },
    "suite": {},
}


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    params: dict
    seed: int
    out: str | None
    timing: bool = False


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _as_int(value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"must be an integer, got {value!r}")
    return value


def _as_float(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value!r}")
    return value


def _as_str(value):
    if not isinstance(value, str):
        raise ValueError(f"must be a string, got {value!r}")
    return value


# schema type -> strict converter; a flag's text is read with the type
# itself first, then converted like a config-file value
_CONVERT = {int: _as_int, float: _as_float, str: _as_str}

# the range the library accepts for each field it bounds, read from the library
_BOUNDS = {
    "grid_size": (MIN_GRID_SIZE, math.inf),
    "probes": (1, math.inf),
    "space_level": (0, math.inf),
    "n_max": (MIN_N_MAX, math.inf),
    "budget": (MIN_BUDGET, MAX_BUDGET),
}


def parse_config(argv: list[str] | None = None) -> ExperimentConfig:
    """Parse command-line flags, merging an optional JSON config file.

    Precedence: built-in defaults, then config-file values, then explicit
    flags.  Malformed JSON raises ConfigInvalid naming the byte offset.
    Every field, ``seed`` included, is converted strictly, from a flag or
    from the file alike: an int field takes only an integer (not a bool or
    a float), a float field an int or a finite float (not a bool), a
    string field a string.  A field whose range the library bounds must
    then pass the library's own check.  A value that fails raises
    ConfigInvalid naming the field; so does an ``out`` that is not a string.
    """
    parser = argparse.ArgumentParser(
        prog="uodual",
        description="Numerical experiments in unbounded-order duality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, schema in _SCHEMAS.items():
        p = sub.add_parser(command, help=f"run the {command} experiment")
        for key, (typ, default) in schema.items():
            p.add_argument(_flag(key), default=None, help=f"default: {default!r}")
        p.add_argument("--seed", default=None, help="default: 0")
        p.add_argument("--out", type=str, default=None, help="report path (default: stdout)")
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--timing", action="store_true", help="print wall time to stderr")
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise ConfigInvalid("unrecognised or malformed command-line flags") from exc
        raise
    schema = _SCHEMAS[ns.command]

    file_values: dict = {}
    if ns.config is not None:
        try:
            with open(ns.config, "r", encoding="utf-8") as fh:
                text = fh.read()
            file_values = json.loads(text)
        except OSError as exc:
            raise ConfigInvalid(f"config: cannot read {ns.config!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(
                f"config: malformed JSON in {ns.config!r} at byte offset {exc.pos}: {exc.msg}"
            ) from exc
        if not isinstance(file_values, dict):
            raise ConfigInvalid("config: top-level JSON value must be an object")

    params: dict = {}
    for key, (typ, default) in {**schema, "seed": (int, 0)}.items():
        convert = _CONVERT[typ]
        flag = getattr(ns, key)
        try:
            if flag is not None:
                params[key] = convert(typ(flag))
            else:
                params[key] = convert(file_values.get(key, default))
            value = params[key]
            if key in _BOUNDS and not _BOUNDS[key][0] <= value <= _BOUNDS[key][1]:
                raise ValueError("must lie in [{}, {}], got {!r}".format(*_BOUNDS[key], value))
            if key == "s_max" and not value > 0:  # conjugate truncates the sup at s_max > 0
                raise ValueError(f"must be > 0, got {value!r}")
            if key == "tol":
                check_tol(value, positive=ns.command == "norm")  # luxemburg_norm needs tol > 0
            if key == "dual_grid_step":
                lattice_units(2.0 ** -params["space_level"], value)
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise ConfigInvalid(f"config field {key!r}: {exc}") from exc
    unknown = set(file_values) - set(schema) - {"seed", "out", "command"}
    if unknown:
        raise ConfigInvalid(f"config: unknown fields {sorted(unknown)}")

    seed = params.pop("seed")
    out = ns.out if ns.out is not None else file_values.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigInvalid(f"config field 'out': must be a path string, got {out!r}")
    return ExperimentConfig(ns.command, params, seed, out, ns.timing)


# -- input parsing helpers ----------------------------------------------------


def _parse_orlicz(spec: str) -> OrliczFunction:
    parts = spec.split(":")
    try:
        if parts[0] == "power":
            p = float(parts[1]) if len(parts) > 1 else 2.0
            scale = float(parts[2]) if len(parts) > 2 else 1.0
            return OrliczFunction.power(p, scale)
        if parts[0] == "exp":
            rate = float(parts[1]) if len(parts) > 1 else 1.0
            return OrliczFunction.exponential(rate)
    except (ValueError, IndexError) as exc:
        raise ConfigInvalid(f"phi: bad Orlicz spec {spec!r}: {exc}") from exc
    raise ConfigInvalid(f"phi: unknown Orlicz spec {spec!r} (use power:P[:SCALE] or exp[:RATE])")


def _parse_functional(name: str, params: dict):
    try:
        return builtin(name, **{k: params[k] for k in ("beta", "alpha", "radius") if k in params})
    except (UnknownName, ValueError) as exc:
        raise ConfigInvalid(f"functional: {exc}") from exc


def _parse_tail_vector(spec: str) -> TailVector:
    parts = spec.split(":")
    try:
        if spec == "ones":
            return TailVector.ones()
        if spec == "zero":
            return TailVector.zero()
        if parts[0] == "e" or (parts[0].startswith("e") and parts[0][1:].isdigit()):
            k = int(parts[0][1:]) if parts[0][1:] else int(parts[1])
            return TailVector.unit(k)
        if parts[0] == "geometric":
            return TailVector.geometric(float(parts[1]), float(parts[2]))
        if parts[0] == "constant":
            return TailVector.constant(float(parts[1]))
        if parts[0] == "prefix":
            return TailVector.from_prefix([float(v) for v in parts[1].split(",")])
    except (ValueError, IndexError) as exc:
        raise ConfigInvalid(f"phi: bad vector spec {spec!r}: {exc}") from exc
    raise ConfigInvalid(
        f"phi: unknown vector spec {spec!r} "
        "(use ones|zero|e<K>|geometric:A:R|constant:C|prefix:V1,V2,...)"
    )


def _parse_model(name: str) -> SpaceModel:
    try:
        return SpaceModel(name)
    except ValueError as exc:
        raise ConfigInvalid(f"model: unknown model {name!r} (use ell1|c0|ellInfty)") from exc


# -- command handlers ---------------------------------------------------------


def _run_conjugate(params: dict, seed: int):
    phi = _parse_orlicz(params["phi"])
    psi = conjugate(phi, params["s_max"], params["grid_size"], params["tol"])
    t_probes = np.linspace(0.0, 0.8 * psi.domain_cap, params["probes"])
    results = {
        "phi": phi.describe(),
        "domain_cap": psi.domain_cap,
        "probe_t": t_probes.tolist(),
        "probe_psi": [float(psi(t)) for t in t_probes],
        "knots": len(psi.grid_s),
    }
    return results, ["ok"], 0


def _run_norm(params: dict, seed: int):
    phi = _parse_orlicz(params["phi"])
    try:
        values = [float(v) for v in params["values"].split(",")]
    except ValueError as exc:
        raise ConfigInvalid(f"values: {exc}") from exc
    f = RandomVariable.from_values(ProbabilitySpace.uniform(len(values)), values)
    res = luxemburg_norm(f, phi, params["tol"])
    results = {
        "phi": phi.describe(),
        "value": res.value,
        "bracket": list(res.bracket),
        "modular_at_value": res.modular_at_value,
    }
    return results, ["ok"], 0


def _run_dualrep(params: dict, seed: int):
    rho = _parse_functional(params["functional"], params)
    box = abs(params["box"])
    try:
        cfg = SearchConfig(box=(-box, box), seed=seed)
    except ValueError as exc:
        raise ConfigInvalid(f"config field 'box': {exc}") from exc
    # count the grid built below, and refuse it before anything is built
    cells = 2 ** params["space_level"]
    if rho.cash_invariant:
        units = lattice_units(2.0 ** -params["space_level"], params["dual_grid_step"])
        base, points = "density lattice", lattice_size(cells, units, MAX_SEARCH_WORK)
    else:
        base, points = "dual grid", 1  # the zero point
    witnesses = params["probes"] if rho.dual_witness is not None else 0
    for field, grid, count in (("space_level", base, points), ("probes", "dual grid", points + witnesses)):
        try:
            check_search_size(cells, count)
        except ValueError as exc:
            raise ConfigInvalid(f"config field '{field}': {grid} too large: {exc}") from exc
    space = ProbabilitySpace.dyadic(params["space_level"])
    rng = np.random.default_rng(seed)
    # the first `probes` of: zero, the constant 0.5, then random points
    probes = [RandomVariable.zero(space), RandomVariable.constant(space, 0.5)][: params["probes"]]
    for _ in range(params["probes"] - len(probes)):
        probes.append(RandomVariable.from_values(space, rng.uniform(-1.5, 1.5, space.size)))
    if rho.cash_invariant:
        grid = density_lattice(space, params["dual_grid_step"])
    else:
        grid = [RandomVariable.zero(space)]
    if rho.dual_witness is not None:
        grid = grid + [rho.dual_witness(f) for f in probes]
    report = dual_representation_check(rho, probes, grid, params["tol"], cfg)
    results = {
        "functional": rho.name,
        "dual_points": len(grid),
        "max_gap": report.max_gap,
        **report.to_dict(),
    }
    code = 0 if report.verdict == "representable-evidence" else 2
    return results, [report.verdict], code


def _run_fatou(params: dict, seed: int):
    rho = _parse_functional(params["rho"], params)
    try:
        report = check_bounded_uo_lsc(rho, generate(params["seq"]), params["n_max"], params["tol"])
    except (UnknownName, NotConvergent) as exc:
        raise ConfigInvalid(f"seq: {exc}") from exc
    results = {"functional": rho.name, **asdict(report)}
    return results, [report.verdict], 2 if report.violated else 0


def _run_uodual_test(params: dict, seed: int):
    model = _parse_model(params["model"])
    phi = _parse_tail_vector(params["phi"])
    verdict = uo_dual_test(phi, model, params["budget"], seed)
    results = {
        "model": model.value,
        "phi": phi.to_json_dict(),
        "expected_dual": uo_dual_expected(model).value,
        **verdict.to_dict(),
    }
    return results, [verdict.verdict], 0 if verdict.consistent else 2


# -- the smoke suite ----------------------------------------------------------


def _item(name: str, ok: bool, observed: str, expected: str, **details) -> dict:
    return {
        "name": name,
        "ok": bool(ok),
        "observed": observed,
        "expected": expected,
        "details": details,
    }


def _suite_conjugacy() -> dict:
    phi = OrliczFunction.power(2, 0.5)
    psi = conjugate(phi, 8.0, 512)
    ts = np.linspace(0.0, 6.0, 61)
    err = max(abs(psi(t) - 0.5 * t * t) for t in ts)
    return _item("conjugacy-quadratic", err <= 1e-4, f"max_err={err:.2e}", "<=1e-4")

def _suite_luxemburg(seed: int) -> dict:
    phi = OrliczFunction.power(2)
    space = ProbabilitySpace.dyadic(3)
    rng = np.random.default_rng(seed + 1)
    tol = 1e-8
    worst = 0.0
    for _ in range(25):
        f = RandomVariable.from_values(space, rng.uniform(-2, 2, space.size))
        g = RandomVariable.from_values(space, rng.uniform(-2, 2, space.size))
        c = float(rng.uniform(0.25, 4.0))
        nf = luxemburg_norm(f, phi, tol).value
        ng = luxemburg_norm(g, phi, tol).value
        ncf = luxemburg_norm(c * f, phi, tol).value
        nsum = luxemburg_norm(f + g, phi, tol).value
        worst = max(worst, abs(ncf - c * nf) - 2 * tol * max(1.0, c))
        worst = max(worst, nsum - (nf + ng) - 4 * tol)
    return _item("luxemburg-properties", worst <= 0.0, f"excess={worst:.2e}", "<=0")


def _suite_uo_dual_table(seed: int) -> dict:
    rng = random.Random(seed + 2)
    ok = True
    notes = []
    for model in SpaceModel:
        for i in range(5):
            prefix = [rng.uniform(-2, 2) for _ in range(rng.randrange(0, 4))]
            member = TailVector.geometric(rng.uniform(0.2, 2.0), rng.uniform(0.1, 0.8), prefix)
            verdict = uo_dual_test(member, model, 160, seed + i)
            if not verdict.consistent:
                ok = False
                notes.append(f"{model.value}: member flagged by {verdict.generator}")
    ones_verdict = uo_dual_test(TailVector.ones(), SpaceModel.ELL1, 160, seed)
    if ones_verdict.consistent:
        ok = False
        notes.append("ell1: constant-one functional not flagged")
    return _item("uo-dual-table", ok, "; ".join(notes) or "as expected", "members consistent, ones violated")


def _suite_uo_calculus(seed: int) -> dict:
    rng = random.Random(seed + 3)
    notes = []
    for i in range(10):
        scale = rng.uniform(0.5, 2.0)
        seq = VectorSequence.from_generator(
            lambda n, s=scale: TailVector.unit(n, s), 24, name=f"units-{i}"
        )
        if not is_disjoint(seq).disjoint:
            notes.append(f"seq {i}: not disjoint")
        if not is_uo_null(seq, SpaceModel.ELL1, 1e-9).is_null:
            notes.append(f"seq {i}: disjoint but not uo-null")
    decay = VectorSequence.from_generator(lambda n: TailVector.unit(1, 1.0 / n), 24)
    if not is_order_null(decay, SpaceModel.ELL1, 0.2).is_null:
        notes.append("decaying spike not order-null")
    return _item("uo-calculus", not notes, "; ".join(notes) or "as expected", "implications hold")


def _suite_fenchel(seed: int) -> dict:
    space = ProbabilitySpace.dyadic(2)
    rho = builtin("entropic", beta=1.0)
    rng = np.random.default_rng(seed + 4)
    probes = [RandomVariable.zero(space)] + [
        RandomVariable.from_values(space, rng.uniform(-1, 1, 4)) for _ in range(2)
    ]
    grid = density_lattice(space, 1.0) + [rho.dual_witness(f) for f in probes]
    cfg = SearchConfig(seed=seed)
    rep = dual_representation_check(rho, probes, grid, 1e-3, cfg)
    err = 0.0
    for g, cv in zip(grid, rep.conjugates.reports):
        oracle = rho.known_conjugate(g)
        if math.isinf(oracle):
            if not (cv.possibly_infinite or cv.value > 1e3):
                err = max(err, math.inf)
        else:
            err = max(err, abs(cv.value - oracle))
    ok = err <= 1e-4 and rep.verdict == "representable-evidence"
    return _item(
        "fenchel-entropic", ok, f"oracle_err={err:.2e}, gap={rep.max_gap:.2e}", "err<=1e-4, gap<=1e-3"
    )


def _suite_fatou() -> dict:
    neg = check_bounded_uo_lsc(builtin("neg-expectation"), generate("spike"), 32, 1e-9)
    pos = check_bounded_uo_lsc(builtin("expectation"), generate("spike"), 32, 1e-9)
    ok = (
        neg.violated
        and abs(neg.liminf + 1.0) <= 1e-9
        and abs(neg.rho_at_limit) <= 1e-12
        and not pos.violated
    )
    return _item(
        "fatou-spike",
        ok,
        f"neg: {neg.verdict} liminf={neg.liminf:.3g}; pos: {pos.verdict}",
        "neg violated at -1 vs 0, pos satisfied",
    )


def _suite_extraction() -> dict:
    tw = generate("typewriter")
    zero = RandomVariable.zero(ProbabilitySpace.dyadic(0))
    res = extract_ae_subsequence(tw, None, zero, 64)
    certs_ok = all(c <= 2.0**-k for k, c in enumerate(res.certificates, start=1))
    try:
        extract_ae_subsequence(generate("oscillating"), None, zero, 64)
        stalled = False
    except ExtractionStalled:
        stalled = True
    ok = certs_ok and res.ae_ok and stalled
    return _item(
        "extraction-typewriter",
        ok,
        f"certs_ok={certs_ok}, ae={res.ae_ok}, oscillating_stalled={stalled}",
        "certificates within bounds, a.e. verdict passes, oscillating stalls",
    )


def _run_suite(params: dict, seed: int):
    items = [
        _suite_conjugacy(),
        _suite_luxemburg(seed),
        _suite_uo_dual_table(seed),
        _suite_uo_calculus(seed),
        _suite_fenchel(seed),
        _suite_fatou(),
        _suite_extraction(),
    ]
    ok = all(item["ok"] for item in items)
    verdicts = ["pass" if item["ok"] else "fail" for item in items]
    return {"items": items, "all_ok": ok}, verdicts, 0 if ok else 2


_HANDLERS = {
    "conjugate": _run_conjugate,
    "norm": _run_norm,
    "dualrep": _run_dualrep,
    "fatou": _run_fatou,
    "uodual-test": _run_uodual_test,
    "suite": _run_suite,
}


def run(config: ExperimentConfig) -> tuple[dict, int]:
    """Dispatch a validated configuration and assemble the report."""
    results, verdicts, code = _HANDLERS[config.command](config.params, config.seed)
    report = {
        "schema": "uodual/1",
        "version": __version__,
        "command": config.command,
        "config": {**config.params, "seed": config.seed},
        "results": results,
        "verdicts": verdicts,
        "wall_time_s": None,
    }
    return report, code


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    try:
        config = parse_config(argv)
        report, code = run(config)
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        if config.out:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except ConfigInvalid as exc:
        print(f"uodual: config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - error channel is the exit code
        print(f"uodual: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if config.timing:
        print(f"uodual: wall time {time.monotonic() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
