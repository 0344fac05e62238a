"""The benchmark's checkers accept right outputs and reject perturbed ones.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import uodual  # noqa: E402

import fenchel_moreau as fm  # noqa: E402
import function_space as fs  # noqa: E402
import oracles  # noqa: E402
import sequence_lattice as sl  # noqa: E402

# -- fenchel-moreau ---------------------------------------------------------------


@pytest.fixture(scope="module")
def fm_inputs():
    return fm.make_inputs(3, uodual)


def closed_form_outputs(task):
    """What a correct program returns for a task: closed forms and the true rho at the probes."""
    w = task["weights"]
    values = np.array([oracles.conjugate_value(task["name"], task["params"], g, w) for g in task["grid"]])
    flags = np.isinf(values)
    bis = [oracles.rho_value(task["name"], task["params"], f, w) for f in task["probes"]]
    return values, flags, bis


def test_fm_closed_forms_pass_and_perturbations_fail(fm_inputs):
    for task in fm_inputs["tasks"]:
        values, flags, bis = closed_form_outputs(task)
        assert fm.check_task(task, values, flags, bis) == []
        i = int(np.argmax(np.isfinite(values)))
        moved = values.copy()
        moved[i] += 10 * fm.TOL_CONJ
        assert fm.check_task(task, moved, flags, bis), "conjugate moved by 10 tol"
        bad_bis = list(bis)
        bad_bis[0] -= 10 * fm.TOL_FM
        assert fm.check_task(task, values, flags, bad_bis), "biconjugate off by 10 tol"


def test_fm_unflagged_infinite_conjugate_fails(fm_inputs):
    task = next(t for t in fm_inputs["tasks"] if t["name"] == "avar")
    values, flags, bis = closed_form_outputs(task)
    assert flags.any()
    unflagged = flags.copy()
    i = int(np.argmax(flags))
    unflagged[i] = False
    finite = values.copy()
    finite[i] = 64.0
    assert fm.check_task(task, finite, unflagged, bis)


def test_fm_fenchel_young_violation_fails(fm_inputs):
    task = next(t for t in fm_inputs["tasks"] if t["name"] == "entropic")
    values, flags, bis = closed_form_outputs(task)
    low = values - 1.0
    errors = fm.check_task(task, low, flags, bis)
    assert any("Fenchel-Young" in e for e in errors)


def test_fm_program_output_passes(fm_inputs):
    from uodual.convex import ConjugateField, biconjugate

    task = fm_inputs["tasks"][2]  # AVaR: finite and +inf conjugates
    field = ConjugateField.compute(task["rho"], task["grid_rvs"], fm_inputs["config"])
    bis = [biconjugate(field, f) for f in task["probe_rvs"]]
    assert fm.check_task(task, field.values, field.boundary_flags, bis) == []


def test_fm_cli_report_checks():
    import contextlib
    import io

    from uodual import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(fm.cli_argv(3))
    text = buf.getvalue()
    state: dict = {}
    assert fm.check_cli(code, text, state) == []
    assert fm.check_cli(code, text, state) == []
    assert fm.check_cli(code, text.replace('"seed": 3', '"seed": 4'), state), "bytes changed"
    assert fm.check_cli(2, text, state), "exit code 2"
    assert fm.check_cli(code, text.replace("representable-evidence", "gap-found"), {}), "verdict flipped"


# -- function-space ---------------------------------------------------------------


@pytest.fixture(scope="module")
def fs_inputs():
    return fs.make_inputs(3, uodual)


def test_fs_conjugate_checks(fs_inputs):
    for task in fs_inputs["conj"]:
        psi = uodual.conjugate(task["phi"], task["s_max"], task["grid"], fs.CONJ_TOL)
        knots, values = np.asarray(psi.grid_s), np.asarray(psi.grid_y)
        assert fs.check_conjugate(task, knots, values) == []
        moved = values.copy()
        moved[len(moved) // 2] += 10 * fs.TOL_CONJ * (1.0 + abs(moved[len(moved) // 2]))
        assert fs.check_conjugate(task, knots, moved), "conjugate moved by 10 tol"


def _lux_outputs(inputs, task):
    space = uodual.ProbabilitySpace.dyadic(task["level"])
    f = uodual.RandomVariable.from_values(space, task["f"])
    g = uodual.RandomVariable.from_values(space, task["g"])
    norms = [uodual.luxemburg_norm(f, phi, fs.LUX_TOL) for phi in inputs["lux_objects"]]
    fine = uodual.refine(f, task["level"] + 1)
    extra = [
        uodual.luxemburg_norm(f * task["scale"], inputs["lux_objects"][0], fs.LUX_TOL),
        uodual.luxemburg_norm(fine, inputs["lux_objects"][0], fs.LUX_TOL),
        uodual.luxemburg_norm(g, inputs["psi0_object"], fs.LUX_TOL),
    ]
    pair = uodual.pairing(f.abs(), g.abs())
    return norms, extra, pair, uodual.integrate(f), np.asarray(fine.values)


def test_fs_luxemburg_checks(fs_inputs):
    task = fs_inputs["lux"][0]
    norms, extra, pair, mean, fine = _lux_outputs(fs_inputs, task)
    assert fs.check_luxemburg(fs_inputs, task, norms, extra, pair, mean, fine) == []
    for k, spec in enumerate(fs_inputs["lux_phis"]):
        true = oracles.luxemburg_true(*spec, task["f"], task["weights"])
        below = list(norms)
        below[k] = SimpleNamespace(value=true - fs.LUX_TOL / 2)
        assert fs.check_luxemburg(fs_inputs, task, below, extra, pair, mean, fine), "value below the norm"
        above = list(norms)
        above[k] = SimpleNamespace(value=true + 3 * fs.LUX_TOL)
        assert fs.check_luxemburg(fs_inputs, task, above, extra, pair, mean, fine), "value above true + tol"
    assert fs.check_luxemburg(fs_inputs, task, norms, extra, pair * 1.001, mean, fine), "pairing off"
    assert fs.check_luxemburg(fs_inputs, task, norms, extra, pair, mean, np.roll(fine, 1)), "refine wrong"
    bad = [SimpleNamespace(value=extra[0].value * 1.01)] + extra[1:]
    assert fs.check_luxemburg(fs_inputs, task, norms, bad, pair, mean, fine), "homogeneity off"


def test_fs_lsc_checks(fs_inputs):
    for seq_name, n_max in (("spike", 32), ("constant", 32)):
        for spec, rho in zip(fs_inputs["zoo"], fs_inputs["rhos"]):
            rep = uodual.check_bounded_uo_lsc(rho, fs_inputs[seq_name], n_max, 1e-9)
            assert fs.check_lsc(fs_inputs, seq_name, spec, n_max, rep) == []
            flipped = "satisfied-evidence" if rep.verdict == "violated" else "violated"
            bad = SimpleNamespace(**{**vars(rep), "verdict": flipped})
            assert fs.check_lsc(fs_inputs, seq_name, spec, n_max, bad), "verdict flipped"
            values = list(rep.values)
            values[-1] = values[-1] + 1.0 if math.isfinite(values[-1]) else 0.0
            bad = SimpleNamespace(**{**vars(rep), "values": tuple(values)})
            assert fs.check_lsc(fs_inputs, seq_name, spec, n_max, bad), "a value changed"


def test_fs_extraction_checks(fs_inputs):
    res = uodual.extract_ae_subsequence(fs_inputs["typewriter"], None, fs_inputs["zero"], 64)
    assert fs.check_extraction("typewriter", 64, res) == []
    shifted = SimpleNamespace(**{**vars(res), "indices": tuple(i + 1 for i in res.indices)})
    assert fs.check_extraction("typewriter", 64, shifted), "indices shifted by one"
    certs = list(res.certificates)
    certs[0] *= 2
    assert fs.check_extraction("typewriter", 64, SimpleNamespace(**{**vars(res), "certificates": tuple(certs)}))
    assert fs.check_extraction("typewriter", 64, SimpleNamespace(**{**vars(res), "ae_ok": False}))
    assert fs.check_extraction("oscillating", 64, object()) == []
    assert fs.check_extraction("oscillating", 64, None), "oscillating did not stall"


# -- sequence-lattice ---------------------------------------------------------------


@pytest.fixture(scope="module")
def sl_inputs():
    return sl.make_inputs(3, uodual)


def _uo_outputs(inputs, phi):
    from uodual.lattice import FunctionalNotBounded

    norms = (uodual.model_norm(phi, inputs["models"][0]), uodual.model_norm(phi, inputs["models"][2]))
    verdicts = []
    for model in inputs["models"]:
        try:
            verdicts.append(uodual.uo_dual_test(phi, model, sl.BUDGET, sl.TEST_SEED))
        except FunctionalNotBounded:
            verdicts.append("FunctionalNotBounded")
    return norms, verdicts


def test_sl_uo_checks(sl_inputs):
    for kind, spec, phi in sl_inputs["functionals"]:
        norms, verdicts = _uo_outputs(sl_inputs, phi)
        errors, failed = sl.check_uo(kind, spec, norms, verdicts)
        assert errors == []
        assert failed == (3 if kind == "slow-decay" else 0)
        v = verdicts[0]
        if kind == "ones":
            shifted = SimpleNamespace(**{**vars(v), "witness_indices": tuple(i + 1 for i in v.witness_indices)})
            assert sl.check_uo(kind, spec, norms, [shifted] + verdicts[1:])[0], "witness shifted by one"
            consistent = SimpleNamespace(verdict="consistent", consistent=True)
            assert sl.check_uo(kind, spec, norms, [consistent] + verdicts[1:])[0], "verdict flipped"
        if kind == "geometric":
            violated = SimpleNamespace(verdict="violated", generator="unit-vectors",
                                       witness_indices=(121,), witness_values=(1.0,))
            assert sl.check_uo(kind, spec, norms, [violated] + verdicts[1:])[0], "verdict flipped"
            assert sl.check_uo(kind, spec, (norms[0] * 1.01, norms[1]), verdicts)[0], "l1 norm off"
            assert sl.check_uo(kind, spec, (norms[0], norms[1] + 0.1), verdicts)[0], "sup norm off"


def test_sl_disjoint_checks(sl_inputs):
    for name, specs, seq in sl_inputs["disjoint"]:
        v = uodual.is_disjoint(seq)
        assert sl.check_disjoint(name, specs, v) == []
        if v.disjoint:
            assert sl.check_disjoint(name, specs, SimpleNamespace(disjoint=False, witness=(1, 2)))
        else:
            i, j = v.witness
            assert sl.check_disjoint(name, specs, SimpleNamespace(disjoint=False, witness=(i, j + 1)))
            assert sl.check_disjoint(name, specs, SimpleNamespace(disjoint=True, witness=None))


def test_sl_null_checks(sl_inputs):
    for name, specs, tol, seq in sl_inputs["null"]:
        for model in sl_inputs["models"]:
            uo = uodual.is_uo_null(seq, model, tol)
            order = None
            if sl.expected_null(name, model.value)[1] is not None:
                order = uodual.is_order_null(seq, model, tol)
            assert sl.check_null(name, specs, tol, model.value, uo, order) == []
            flipped = "uo-null-evidence" if uo.verdict == "not-uo-null" else "not-uo-null"
            bad = SimpleNamespace(**{**vars(uo), "verdict": flipped})
            assert sl.check_null(name, specs, tol, model.value, bad, order), "verdict flipped"
            if uo.witness_coordinate is not None:
                bad = SimpleNamespace(**{**vars(uo), "witness_coordinate": uo.witness_coordinate + 1})
                assert sl.check_null(name, specs, tol, model.value, bad, order), "witness shifted"
            if order is not None and order.is_null:
                bad_sup = SimpleNamespace(verdict=order.verdict, tail_sup=order.tail_sup * 1.5)
                assert sl.check_null(name, specs, tol, model.value, uo, bad_sup), "sup changed"
