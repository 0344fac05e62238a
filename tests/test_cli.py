import json
import subprocess
import sys

import pytest

from uodual.cli import ConfigInvalid, main, parse_config, run


def run_cli(args, tmp_path=None):
    proc = subprocess.run(
        [sys.executable, "-m", "uodual", *args],
        capture_output=True,
        text=True,
        timeout=300,
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
    ])
    def test_non_finite_float_is_config_error(self, argv):
        proc = run_cli(argv)
        assert proc.returncode == 1
        assert "config error" in proc.stderr

    def test_exit_code_one_on_runtime_error(self):
        # typewriter has no declared limit: the lsc check cannot run
        proc = run_cli(["fatou", "--rho", "expectation", "--seq", "typewriter"])
        assert proc.returncode == 1
        assert "NotConvergent" in proc.stderr

    def test_report_written_to_out(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli(["norm", "--values", "2", "--out", str(out)])
        assert proc.returncode == 0
        assert json.loads(out.read_text())["results"]["value"] == pytest.approx(2.0, abs=1e-7)

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
