import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from uodual.cli import _SCHEMAS, ConfigInvalid, main, parse_config, run
from uodual.convex import builtin_names


# every field of every command, seed included: (command, field, schema type)
FIELDS = [
    (command, key, typ)
    for command, schema in _SCHEMAS.items()
    for key, typ in [*((k, t) for k, (t, _) in schema.items()), ("seed", int)]
]
# config-file values each type must refuse, and one it must take with its converted form
BAD_FILE_VALUES = {
    int: [20.7, 20.0, True, "20", None, [20]],
    float: [True, False, "1.5", None, [1.5], 10**400],
    str: [1, 1.5, True, None, ["x"]],
}
# in every field's range: grid_size >= 64, budget in [100, 1000], and a
# dual_grid_step that divides the mass of the default level-2 space
GOOD_FILE_VALUE = {int: (200, 200), float: (2, 2.0), str: ("x", "x")}
BAD_FLAG_TEXT = {int: ["20.7", "true", "1e3"], float: ["true", "one", "inf"], str: []}


def run_cli(args, timeout=300):
    proc = subprocess.run(
        [sys.executable, "-m", "uodual", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config(["fatou"])
        assert cfg.command == "fatou"
        assert cfg.params["rho"] == "expectation"
        assert cfg.params["n_max"] == 32
        assert cfg.seed == 0

    def test_flags_override_defaults(self):
        cfg = parse_config(["fatou", "--rho", "neg-expectation", "--n-max", "20", "--seed", "3"])
        assert cfg.params["rho"] == "neg-expectation"
        assert cfg.params["n_max"] == 20
        assert cfg.seed == 3

    def test_config_file_merging_and_flag_precedence(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"rho": "neg-expectation", "tol": 1e-6, "seed": 5}))
        cfg = parse_config(["fatou", "--config", str(path), "--tol", "1e-8"])
        assert cfg.params["rho"] == "neg-expectation"
        assert cfg.params["tol"] == 1e-8  # flag wins over file
        assert cfg.seed == 5

    def test_malformed_json_names_byte_offset(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rho": }')
        with pytest.raises(ConfigInvalid, match="byte offset 8"):
            parse_config(["fatou", "--config", str(path)])

    def test_unknown_config_fields_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"frobnicate": 1}))
        with pytest.raises(ConfigInvalid, match="frobnicate"):
            parse_config(["fatou", "--config", str(path)])

    def test_non_finite_float_names_the_field(self, tmp_path):
        with pytest.raises(ConfigInvalid, match="'tol'"):
            parse_config(["norm", "--tol", "nan"])
        path = tmp_path / "cfg.json"
        path.write_text('{"box": Infinity}')
        with pytest.raises(ConfigInvalid, match="'box'"):
            parse_config(["dualrep", "--config", str(path)])

    @pytest.mark.parametrize("field, value", [
        ("seed", "abc"),
        ("seed", None),
        ("seed", 1.7),
        ("seed", True),
        ("out", 3),
    ])
    def test_seed_and_out_types_name_the_field(self, tmp_path, field, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({field: value}))
        with pytest.raises(ConfigInvalid, match=f"'{field}'"):
            parse_config(["norm", "--config", str(path)])

    @pytest.mark.parametrize("command, field, typ", FIELDS)
    def test_every_field_is_converted_strictly(self, tmp_path, capsys, command, field, typ):
        # config-file values used to go through the schema type, so 20.7 ran as 20 and true as 1
        path = tmp_path / "cfg.json"
        for value in BAD_FILE_VALUES[typ]:
            path.write_text(json.dumps({field: value}))
            assert main([command, "--config", str(path)]) == 1, value
            err = capsys.readouterr().err
            assert err.startswith(f"uodual: config error: config field '{field}':"), (value, err)
        for text in BAD_FLAG_TEXT[typ]:
            assert main([command, "--" + field.replace("_", "-"), text]) == 1, text
            assert capsys.readouterr().err.startswith(f"uodual: config error: config field '{field}':"), text
        value, converted = GOOD_FILE_VALUE[typ]
        path.write_text(json.dumps({field: value}))
        cfg = parse_config([command, "--config", str(path)])
        got = cfg.seed if field == "seed" else cfg.params[field]
        assert got == converted and type(got) is typ

    def test_missing_config_file(self):
        with pytest.raises(ConfigInvalid, match="cannot read"):
            parse_config(["fatou", "--config", "/nonexistent.json"])


class TestRun:
    def test_fatou_violation_exit_code(self):
        cfg = parse_config(["fatou", "--rho", "neg-expectation", "--seq", "spike", "--n-max", "16"])
        report, code = run(cfg)
        assert code == 2
        assert report["verdicts"] == ["violated"]
        assert report["results"]["liminf"] == -1.0
        assert report["schema"] == "uodual/1"

    def test_fatou_satisfied_exit_code(self):
        cfg = parse_config(["fatou", "--rho", "expectation", "--seq", "spike", "--n-max", "16"])
        report, code = run(cfg)
        assert code == 0
        assert report["verdicts"] == ["satisfied-evidence"]

    def test_uodual_test_witness(self):
        cfg = parse_config(["uodual-test", "--model", "ell1", "--phi", "ones", "--budget", "120"])
        report, code = run(cfg)
        assert code == 2
        assert report["results"]["generator"] == "unit-vectors"
        assert report["results"]["expected_dual"] == "c0"

    def test_uodual_test_member_consistent(self):
        cfg = parse_config(["uodual-test", "--model", "ell1", "--phi", "geometric:1:0.5"])
        report, code = run(cfg)
        assert code == 0
        assert report["verdicts"] == ["consistent"]

    def test_norm_command(self):
        cfg = parse_config(["norm", "--phi", "power:1", "--values", "1,-2,3,0"])
        report, code = run(cfg)
        assert code == 0
        assert report["results"]["value"] == pytest.approx(1.5, abs=1e-7)

    def test_conjugate_command(self):
        cfg = parse_config(["conjugate", "--phi", "power:2:0.5", "--s-max", "8", "--grid-size", "512"])
        report, code = run(cfg)
        assert code == 0
        ts = report["results"]["probe_t"]
        psis = report["results"]["probe_psi"]
        for t, p in zip(ts, psis):
            assert p == pytest.approx(0.5 * t * t, abs=1e-4)

    def test_dualrep_representable(self):
        cfg = parse_config(["dualrep", "--functional", "entropic", "--beta", "1",
                            "--space-level", "1", "--dual-grid-step", "0.5"])
        report, code = run(cfg)
        assert code == 0
        assert report["verdicts"] == ["representable-evidence"]

    def test_dualrep_runs_exactly_the_probes_asked_for(self):
        # --probes 1 reported "probes": 1 over two probe results and 167 dual points
        report, code = run(parse_config(["dualrep", "--probes", "1"]))
        assert code == 0 and report["config"]["probes"] == 1
        assert len(report["results"]["probes"]) == 1 and report["results"]["dual_points"] == 166

    def test_wall_time_is_null_for_determinism(self):
        cfg = parse_config(["norm", "--values", "1"])
        report, _ = run(cfg)
        assert report["wall_time_s"] is None

    def test_verdicts_come_from_the_enumerated_sets(self):
        known = {
            "ok",
            "pass",
            "fail",
            "consistent",
            "violated",
            "representable-evidence",
            "gap-found",
            "satisfied-evidence",
        }
        commands = [
            ["norm", "--values", "1,2"],
            ["fatou", "--rho", "neg-expectation", "--seq", "spike", "--n-max", "16"],
            ["uodual-test", "--model", "ell1", "--phi", "ones", "--budget", "120"],
            ["dualrep", "--functional", "expectation", "--space-level", "1"],
        ]
        for argv in commands:
            report, _ = run(parse_config(argv))
            assert set(report["verdicts"]) <= known, argv


class TestCliProcess:
    def test_exit_code_zero(self):
        proc = run_cli(["norm", "--phi", "power:2", "--values", "1,2"])
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["command"] == "norm"

    def test_exit_code_two_on_counterexample(self):
        proc = run_cli(["fatou", "--rho", "neg-expectation", "--seq", "spike", "--n-max", "16"])
        assert proc.returncode == 2

    def test_exit_code_one_on_config_error(self):
        proc = run_cli(["fatou", "--rho", "nonsense"])
        assert proc.returncode == 1
        assert "config error" in proc.stderr

    def test_unknown_sequence_is_config_error(self):
        proc = run_cli(["fatou", "--seq", "nope"])
        assert proc.returncode == 1
        assert "uodual: config error: seq:" in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["dualrep", "--tol", "nan"],
        ["fatou", "--tol", "nan"],
        ["norm", "--tol", "nan"],
        ["norm", "--phi", "power:nan"],
        # these three used to report a norm of 1.0 for 1*s^inf, or fail at run time
        ["norm", "--phi", "power:inf"],
        ["norm", "--phi", "power:2:inf"],
        ["norm", "--phi", "exp:inf"],
        # these two exited 1 as an uncaught ValueError
        ["norm", "--values", "nan"],
        ["norm", "--values", "1,inf"],
    ])
    def test_non_finite_float_is_config_error(self, argv):
        proc = run_cli(argv)
        assert proc.returncode == 1
        assert "config error" in proc.stderr

    @pytest.mark.parametrize("argv, field", [
        (["conjugate", "--grid-size", "10"], "grid_size"),
        (["conjugate", "--tol", "-1"], "tol"),
        (["dualrep", "--tol", "-1"], "tol"),
        (["norm", "--tol", "-1"], "tol"),
        (["norm", "--tol", "0"], "tol"),
        (["fatou", "--tol", "-1"], "tol"),
        (["fatou", "--n-max", "5"], "n_max"),
        (["uodual-test", "--budget", "5"], "budget"),
        (["uodual-test", "--budget", "5000"], "budget"),
        (["dualrep", "--space-level", "-1"], "space_level"),
        (["dualrep", "--dual-grid-step", "0.3"], "dual_grid_step"),
        (["conjugate", "--s-max", "0"], "s_max"),
        (["conjugate", "--s-max", "-1"], "s_max"),
        (["conjugate", "--probes", "-1"], "probes"),
        # this one ran with the two fixed probes and exited 0
        (["dualrep", "--probes", "-1"], "probes"),
        # these ran, dualrep with the two fixed probes, and exited 0
        (["dualrep", "--probes", "0"], "probes"),
        (["conjugate", "--probes", "0"], "probes"),
        # the first two failed in numpy's default_rng, and uodual-test ran and exited 0
        (["dualrep", "--seed", "-1"], "seed"),
        (["suite", "--seed", "-1"], "seed"),
        (["uodual-test", "--seed", "-1"], "seed"),
        # these three had no upper bound: arrays of 2 * grid_size + 1 floats,
        # work quadratic in n_max and a Python loop over the probes
        (["conjugate", "--grid-size", "65537"], "grid_size"),
        (["fatou", "--n-max", "4097"], "n_max"),
        (["conjugate", "--probes", "65537"], "probes"),
    ])
    def test_out_of_range_value_is_config_error(self, argv, field, capsys):
        # the library refused these at run time, as "uodual: error: ValueError: ..."
        with pytest.raises(ConfigInvalid, match=f"config field '{field}'"):
            parse_config(argv)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"uodual: config error: config field '{field}':")
        assert captured.out == ""

    @pytest.mark.parametrize("level", [5, 16])
    def test_oversized_density_lattice_is_config_error(self, level, capsys):
        # the level parses, and only a cash-invariant functional builds the
        # lattice; the refusal was "uodual: error: ValueError: ..."
        assert main(["dualrep", "--space-level", str(level)]) == 1
        captured = capsys.readouterr()
        expected = "uodual: config error: config field 'space_level': density lattice too large"
        assert captured.err.startswith(expected)
        assert captured.out == ""

    @pytest.mark.parametrize("argv, field", [
        (["dualrep", "--functional", "supnorm-ball", "--space-level", "7"], "space_level"),
        (["dualrep", "--space-level", "3", "--dual-grid-step", "0.5"], "space_level"),
        (["dualrep", "--functional", "worst-case", "--space-level", "3", "--dual-grid-step", "1"], "space_level"),
        (["dualrep", "--probes", "4000"], "probes"),
    ])
    def test_oversized_search_is_refused_before_it_starts(self, argv, field, capsys):
        # the first three searched for about a minute, over five minutes and 74 s;
        # in the last, only the probes' witnesses take the grid past the bound
        started = time.monotonic()
        assert main(argv) == 1
        assert time.monotonic() - started < 5.0
        captured = capsys.readouterr()
        assert captured.err.startswith(f"uodual: config error: config field '{field}':")
        assert "at most 64 cells" in captured.err and captured.out == ""

    def test_empty_search_box_is_config_error(self, capsys):
        # --box 0 used to search the single point 0 and report representable-evidence
        assert main(["dualrep", "--box", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("uodual: config error: config field 'box':")
        assert captured.out == ""

    def test_overflowing_search_box_is_config_error(self, capsys):
        # the box width 2e308 overflows to inf, and the section search never narrowed it
        assert main(["dualrep", "--box", "1e308"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("uodual: config error: config field 'box':")
        assert captured.out == ""

    @pytest.mark.parametrize("box", ["10000", "1e12"])
    def test_search_box_past_4096_is_config_error(self, box, capsys):
        # rounding noise at |f| ~ 1e4 let the ascent drift to the box edge: 10000
        # exited 2 with gap-found, and 1e12 exited 1 with SearchDiverged
        assert main(["dualrep", "--box", box]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("uodual: config error: config field 'box': box must lie inside")
        assert captured.out == ""

    def test_unit_vector_past_the_offset_cap_is_config_error(self, capsys):
        # e<K> built a prefix of K floats: e2000000 took 1.6 s and 224 MB
        assert main(["uodual-test", "--phi", "e100001"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("uodual: config error: phi: bad vector spec 'e100001':")
        assert captured.out == ""
        assert main(["uodual-test", "--phi", "e100000"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["verdict"] == "consistent"

    @pytest.mark.parametrize("seq", ["typewriter", "oscillating", "constant"])
    def test_sequence_without_limit_is_config_error(self, seq, capsys):
        # the CLI has no limit to give these sequences, so the lsc check cannot run
        assert main(["fatou", "--seq", seq]) == 1
        assert capsys.readouterr().err.startswith("uodual: config error: seq:")

    def test_exit_code_one_on_runtime_error(self):
        # exp overflows before s_max, so the conjugate cannot be sampled
        proc = run_cli(["conjugate", "--phi", "exp", "--s-max", "1000"])
        assert proc.returncode == 1
        assert "uodual: error: DomainExceeded" in proc.stderr

    def test_norm_tol_below_float_spacing_exits_zero(self):
        # the bisection used to spin forever once its midpoint rounded onto an endpoint
        proc = run_cli(["norm", "--tol", "1e-300", "--values", "1,-2,3,0"], timeout=60)
        assert proc.returncode == 0

    def test_norm_past_the_float_range_is_modular_degenerate(self):
        # the doubling used to overflow to inf and report a norm of Infinity
        proc = run_cli(["norm", "--phi", "power:1:1e300", "--values", "1e10"], timeout=60)
        assert proc.returncode == 1
        assert "uodual: error: ModularDegenerate" in proc.stderr

    @pytest.mark.parametrize("scale", ["1e-322", "1e-323", "5e-324"])
    def test_subnormal_conjugate_range_is_grid_too_coarse(self, scale, capsys):
        # t_max is subnormal, so the knots of psi repeat; the knot check of
        # psi used to refuse them as "abscissae must be strictly increasing"
        assert main(["conjugate", "--phi", f"power:2:{scale}"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("uodual: error: GridTooCoarse: conjugate range [0, t_max=")
        assert "is too narrow for grid_size=512" in captured.err and captured.out == ""

    def test_conjugate_tol_zero_matches_default(self, capsys):
        assert main(["conjugate", "--phi", "power:1.01", "--tol", "0"]) == 0
        at_zero = json.loads(capsys.readouterr().out)
        assert main(["conjugate", "--phi", "power:1.01"]) == 0
        assert at_zero["config"]["tol"] == 0.0
        assert at_zero["results"] == json.loads(capsys.readouterr().out)["results"]

    def test_report_written_to_out(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli(["norm", "--values", "2", "--out", str(out)])
        assert proc.returncode == 0
        assert json.loads(out.read_text())["results"]["value"] == pytest.approx(2.0, abs=1e-7)

    def test_unwritable_out_is_an_error_not_a_traceback(self, tmp_path, capsys):
        # the report used to be written outside main's error handling
        assert main(["norm", "--out", str(tmp_path / "missing" / "x.json")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("uodual: error: FileNotFoundError:")
        assert "Traceback" not in captured.err and captured.out == ""

    def test_help_exits_zero(self):
        proc = run_cli(["--help"])
        assert proc.returncode == 0
        assert "conjugate" in proc.stdout and "suite" in proc.stdout

    def test_unknown_flag_is_config_error(self):
        proc = run_cli(["fatou", "--frobnicate", "1"])
        assert proc.returncode != 0

    def test_in_process_main_matches_subprocess(self, tmp_path, capsys):
        code = main(["fatou", "--rho", "neg-expectation", "--seq", "spike", "--n-max", "16",
                     "--out", str(tmp_path / "r.json")])
        assert code == 2


# values each field may take, bounded so that every run finishes in seconds
_NAMES = st.sampled_from(builtin_names())
_VALUES = {
    "phi": st.sampled_from(["power:2", "power:1", "power:3:0.5", "power:1.5:4", "exp", "exp:0.5"]),
    "s_max": st.floats(0.1, 1000.0),
    "grid_size": st.integers(64, 1024),
    "tol": st.floats(1e-9, 0.1),
    "probes": st.integers(0, 8),
    "values": st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6).map(lambda v: ",".join(map(repr, v))),
    "functional": _NAMES,
    "rho": _NAMES,
    "beta": st.floats(0.01, 5.0),
    "alpha": st.floats(0.01, 1.0),
    "radius": st.floats(0.01, 5.0),
    "space_level": st.integers(0, 2),
    "dual_grid_step": st.sampled_from([0.5, 1.0, 2.0]),
    "box": st.floats(-100.0, 100.0),
    "seq": st.sampled_from(["spike", "typewriter", "oscillating", "constant"]),
    "n_max": st.integers(16, 64),
    "model": st.sampled_from(["ell1", "c0", "ellInfty"]),
    "budget": st.integers(100, 1000),
    "seed": st.integers(0, 2**32),
}
# uodual-test reads its phi as a sequence-space vector, not as an Orlicz function
_VECTORS = st.sampled_from([
    "ones", "zero", "e3", "geometric:1:0.5", "geometric:1:0.99", "constant:0.5", "prefix:1,-2",
])
# malformed or out-of-range values of each schema type, drawn now and then in place of the above
_BAD = {
    str: st.sampled_from(["nonsense", "power:0.5", "power:inf", "exp:inf", "", "1,x"]),
    int: st.integers(-5, 0),
    float: st.sampled_from([-1.0, 0.0, 0.3, 1e300]),
}
_JUNK = st.sampled_from([None, True, "x", [1], {"a": 1}])  # the wrong JSON type for any field
_TYPES = {key: typ for schema in _SCHEMAS.values() for key, (typ, _) in schema.items()} | {"seed": int}


def _rarely(draw):
    return draw(st.integers(0, 9)) == 0


@st.composite
def invocations(draw):
    """An argv for one command and the text of its config file (None for no file).

    Each field keeps its default, comes from a flag, or comes from the file.
    """
    command = draw(st.sampled_from(sorted(_SCHEMAS)))
    argv, file_values = [command], {}
    for key in [*_SCHEMAS[command], "seed"]:
        route = draw(st.sampled_from(["default", "flag", "file"]))
        if route == "default":
            continue
        good = _VECTORS if (command, key) == ("uodual-test", "phi") else _VALUES[key]
        value = draw(_BAD[_TYPES[key]] if _rarely(draw) else good)
        if route == "flag":
            argv.append(f"--{key.replace('_', '-')}={value}")
        else:
            file_values[key] = draw(_JUNK) if _rarely(draw) else value
    if draw(st.booleans()):
        argv.append("--timing")
    text = None
    if file_values or draw(st.booleans()):
        text = json.dumps(file_values)
        if _rarely(draw):
            text = draw(st.sampled_from([text[:-1], "[1]", '{"frobnicate": 1}']))
    return argv, text


class TestExitCodeContract:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(invocations())
    def test_every_invocation_keeps_the_contract(self, invocation):
        argv, text = invocation
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            if text is not None:
                path = os.path.join(tmp, "config.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                argv = [*argv, "--config", path]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1, 2), (argv, text, err.getvalue())
        assert "Traceback" not in err.getvalue(), (argv, text)
        if out.getvalue():
            assert json.loads(out.getvalue())["schema"] == "uodual/1", (argv, text)
