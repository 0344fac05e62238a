"""Benchmark command for uodual.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from ``src/``
of that checkout and from nowhere else.  One process runs one workload:
it generates the inputs from the seed, runs one checked warm-up pass
(set-up ends there), then repeats whole passes of the same task list
until ``--seconds`` have gone by, checking every output of every pass.
The last line of stdout is the result as JSON; the line before it holds
the workload's own per-operation rates.
"""

from __future__ import annotations

import os
import sys

# one thread everywhere: set before numpy (and its BLAS) is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

from harness import Meter, Trace, clock, median, peak_rss_mb, process_age_s  # noqa: E402

WORKLOADS = {
    "fenchel-moreau": "fenchel_moreau",
    "function-space": "function_space",
    "sequence-lattice": "sequence_lattice",
}

# every per-layer metric, with its unit; a workload that makes no call into a
# layer reports that layer's metrics as 0
PER_LAYER = {
    "measure.construct_us.4": "us",
    "measure.construct_us.8": "us",
    "measure.construct_us.1024": "us",
    "measure.integrate_us": "us",
    "measure.pairing_us": "us",
    "measure.refine_us": "us",
    "convex.evaluate_calls_per_point": "count",
    "convex.evaluate_us": "us",
    "convex.search_us_per_point": "us",
    "convex.restarts_per_point": "count",
    "convex.boundary_points": "count",
    "convex.biconjugate_us": "us",
    "orlicz.conjugate_ms.256": "ms",
    "orlicz.conjugate_ms.512": "ms",
    "orlicz.conjugate_ms.1024": "ms",
    "orlicz.phi_calls_per_conjugate": "count",
    "orlicz.luxemburg_us": "us",
    "orlicz.modular_evals_per_norm": "count",
    "fatou.lsc_ms": "ms",
    "fatou.extract_ms": "ms",
    "fatou.element_calls_per_extraction": "count",
    "fatou.element_us": "us",
    "lattice.uo_dual_test_us": "us",
    "lattice.uo_dual_first_call_ms": "ms",
    "lattice.families_scanned": "count",
    "lattice.is_disjoint_ms": "ms",
    "lattice.abs_us": "us",
    "lattice.meet_us": "us",
    "lattice.null_check_ms": "ms",
    "cli.parse_config_us": "us",
    "cli.run_s": "s",
    "trace.overhead_ratio": "ratio",
}


def import_program(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    try:
        import uodual
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import uodual from {src}: {exc}") from exc
    if Path(uodual.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: uodual was imported from {uodual.__file__}, not from {src}")
    return uodual


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    started = clock()
    age_at_start = process_age_s()
    args = parse_args(argv)
    uodual = import_program(Path(__file__).resolve().parent.parent)
    wl = importlib.import_module(WORKLOADS[args.workload])

    errors: list[str] = []
    state: dict = {}
    inputs = wl.make_inputs(args.seed, uodual)

    def checked_pass(meter: Meter, gc_off: bool) -> int | None:
        """Run and check one pass; the number of failed operations, or None if it raised."""
        if gc_off:
            gc.disable()
        try:
            records = wl.run_pass(inputs, uodual, meter)
        except Exception as exc:  # noqa: BLE001 - a crash is reported as an incorrect run
            errors.append(f"pass raised {type(exc).__name__}: {exc}")
            return None
        finally:
            gc.enable()
        errs, n_failed = wl.check_pass(inputs, records, state)
        errors.extend(errs)
        return n_failed

    warm_trace = Trace()
    crashed = checked_pass(Meter(warm_trace if args.trace else None), gc_off=False) is None
    setup_s = (age_at_start or 0.0) + clock() - started

    gc.collect()
    gc.freeze()
    trace = Trace()
    untraced: list[Meter] = []
    traced: list[Meter] = []
    failed = 0
    deadline = clock() + args.seconds
    while not crashed and (clock() < deadline or not untraced or (args.trace and not traced)):
        # a traced run alternates untraced and traced passes, for the overhead
        use_trace = bool(args.trace) and len(traced) < len(untraced)
        meter = Meter(trace if use_trace else None)
        n_failed = checked_pass(meter, gc_off=True)
        if n_failed is None:
            break
        failed += n_failed
        (traced if use_trace else untraced).append(meter)
        gc.collect()

    metrics = {}  # stays empty if the program raised before the passes the metrics need
    if untraced and not args.trace:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            "pass_s": {"value": median(m.total_seconds for m in untraced), "unit": "s"},
        }
    elif untraced and traced:
        layer = dict.fromkeys(PER_LAYER, 0.0)
        layer.update(wl.per_layer(trace, len(traced), warm_trace))
        layer["trace.overhead_ratio"] = median(m.total_seconds for m in traced) / median(
            m.total_seconds for m in untraced
        )
        metrics = {name: {"value": value, "unit": PER_LAYER[name]} for name, value in layer.items()}
    for err in errors[:20]:
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    detail = {"workload": args.workload, "passes": len(untraced), "traced_passes": len(traced)}
    if untraced:
        detail.update(wl.detail(untraced))
        detail["pass_s_each"] = [m.total_seconds for m in untraced]
    print(json.dumps({"detail": detail}))
    result = {
        "correct": not errors,
        "attempted": sum(m.total_ops for m in untraced + traced),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
