"""Command-line surface: flags, config files, exit codes, file outputs."""

import json
import os
from dataclasses import asdict, replace

import numpy as np
import pytest

from lvfront import cli
from lvfront.pulse import PULSE_CONFIG


@pytest.fixture()
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestUsageErrors:
    def test_malformed_params(self, capsys):
        assert cli.main(["speed", "--params", "1,0.5,abc,1"]) == 1
        assert cli.main(["speed", "--params", "1,0.5,1"]) == 1
        capsys.readouterr()

    def test_nonpositive_params(self, capsys):
        assert cli.main(["speed", "--params", "1,-0.5,0.5,1"]) == 1
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_bad_mode(self, capsys):
        assert cli.main(["certify", "--mode", "upside-down"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("flags", [
        ["--grid", "0"], ["--grid", "1"], ["--grid", "-5"],
        ["--tol", "-1"], ["--domain=10,-10"], ["--config", "string_tol.json"],
    ])
    def test_bad_operator_flags(self, flags, in_tmp, monkeypatch, capsys):
        def no_certify(*args, **kwargs):
            raise AssertionError("certified despite a bad flag")

        (in_tmp / "string_tol.json").write_text(json.dumps({"tol": "1e-7"}))
        monkeypatch.setattr(cli, "certify", no_certify)
        code = cli.main(["solve", "--params", "1,0.5,0.5,1", "--speed", "3.0"] + flags)
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


class TestSpeed:
    def test_admissible_exits_zero(self, capsys):
        assert cli.main(["speed", "--params", "1,0.5,0.5,1",
                         "--speed", "4.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["critical_speed"] == 2.0
        assert payload["decay_rates"]["lambda1"] == pytest.approx(0.2344, abs=1e-3)
        assert payload["run_config"]["params"] == [1.0, 0.5, 0.5, 1.0]

    def test_subcritical_exits_two(self, capsys):
        assert cli.main(["speed", "--params", "1,0.5,0.5,1",
                         "--speed", "1.9"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["reason"] == "complex linearization roots"

    def test_defaults_to_critical_speed(self, capsys):
        assert cli.main(["speed", "--params", "1,0.5,0.5,1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["speed"] == payload["critical_speed"]


class TestCertify:
    def test_writes_passing_certificate(self, in_tmp, capsys):
        assert cli.main(["certify", "--params", "1,0.5,0.5,1",
                         "--speed", "3.0", "--out", "cert.json"]) == 0
        capsys.readouterr()
        payload = json.loads((in_tmp / "cert.json").read_text())
        assert payload["verdict"] == "pass"
        assert payload["case"] == "Supercritical"
        assert payload["run_config"]["mode"] == "default"

    def test_out_of_regime_exits_two(self, capsys):
        assert cli.main(["certify", "--params", "1,2,2,1",
                         "--speed", "3.0"]) == 2
        capsys.readouterr()


class TestSolve:
    def test_full_pipeline_files(self, in_tmp, capsys):
        code = cli.main(["solve", "--params", "1,0.5,0.5,1", "--speed", "3.0",
                         "--grid", "4401", "--tol", "1e-9", "--out", "prof"])
        capsys.readouterr()
        assert code == 0
        head = json.loads((in_tmp / "prof.json").read_text())
        assert head["converged"]
        assert head["shape_class"] == "MonotoneBoth"
        assert head["tail_report"]["passed"]
        assert head["alarms"] == {"interior_box_monotone": True,
                                  "oscillation_coupling": True}
        data = np.loadtxt(in_tmp / "prof.csv", delimiter=",", skiprows=1)
        assert data.shape[1] == 3
        assert abs(data[-1, 1] - 2.0 / 3.0) < 1e-6  # right end near u*

    def test_header_reports_final_shifts(self, in_tmp, capsys):
        code = cli.main(["solve", "--params", "1,0.5,0.5,1", "--speed", "3.0",
                         "--grid", "4401", "--tol", "1e-9", "--out", "prof"])
        capsys.readouterr()
        assert code == 0
        head = json.loads((in_tmp / "prof.json").read_text())
        beta_u, beta_v = head["beta_used"]
        # 1.05 * (u*, v*) once the pair has closed on a monotone front
        assert beta_u == pytest.approx(0.7, abs=1e-6)
        assert beta_v == pytest.approx(0.7, abs=1e-6)

    def test_config_file_overrides_flags(self, in_tmp, capsys):
        cfg = {"speed": 3.0, "grid": 4401, "tol": 1e-9, "out": "viacfg"}
        (in_tmp / "run.json").write_text(json.dumps(cfg))
        code = cli.main(["solve", "--params", "1,0.5,0.5,1", "--speed", "1.0",
                         "--config", "run.json"])
        capsys.readouterr()
        assert code == 0
        head = json.loads((in_tmp / "viacfg.json").read_text())
        assert head["speed"] == 3.0
        assert head["run_config"]["speed"] == 3.0

    def test_subcritical_exits_two(self, in_tmp, capsys):
        assert cli.main(["solve", "--params", "1,0.5,0.5,1",
                         "--speed", "1.0"]) == 2
        capsys.readouterr()

    def test_certify_error_goes_to_out_json(self, in_tmp, capsys):
        assert cli.main(["solve", "--params", "1,0.5,0.5,1",
                         "--speed", "1.0", "--out", "crit"]) == 2
        capsys.readouterr()
        assert "error" in json.loads((in_tmp / "crit.json").read_text())
        assert not (in_tmp / "crit").exists()

    def test_critical_speed_converges(self, in_tmp, capsys):
        # the slowly contracting pair at s* is handed over to Newton
        code = cli.main(["solve", "--params", "1,0.5,0.5,1", "--speed", "2",
                         "--grid", "6401", "--domain=-60,100", "--out", "crit"])
        capsys.readouterr()
        assert code == 0
        head = json.loads((in_tmp / "crit.json").read_text())
        assert head["converged"]
        assert head["iterations"] < 5000
        assert head["tail_report"]["passed"]
        assert "handover" not in head

    def test_escape_error_goes_to_out_json(self, in_tmp, capsys):
        # s* on the default grid escapes its envelopes within a few steps
        assert cli.main(["solve", "--params", "1,0.5,0.5,1",
                         "--speed", "2", "--out", "crit"]) == 3
        capsys.readouterr()
        assert "error" in json.loads((in_tmp / "crit.json").read_text())
        assert not (in_tmp / "crit").exists()


class TestScan:
    def test_matrix_and_axes(self, in_tmp, capsys):
        code = cli.main(["scan", "--params", "1,0.5,0.5,1",
                         "--s-range", "4.0,5.0,3", "--gap-range", "0.02,0.3,4",
                         "--mu2", "1.909090909090909", "--q2", "2.6",
                         "--out", "scan"])
        capsys.readouterr()
        assert code == 0
        axes = json.loads((in_tmp / "scan.json").read_text())
        assert len(axes["s_values"]) == 3
        assert len(axes["gap_values"]) == 4
        assert axes["holds_any"]  # tiny gap overshoots at these knobs
        rows = (in_tmp / "scan.csv").read_text().strip().splitlines()
        assert rows[0].startswith("gap,")
        assert len(rows) == 5

    def test_empty_range(self, in_tmp, capsys):
        code = cli.main(["scan", "--params", "1,0.5,0.5,1",
                         "--s-range", "4.0,5.0,0", "--gap-range", "0.1,0.2,0",
                         "--out", "scan"])
        capsys.readouterr()
        assert code == 0
        assert not json.loads((in_tmp / "scan.json").read_text())["holds_any"]

    def test_determinism(self, in_tmp, capsys):
        args = ["scan", "--params", "1,0.5,0.5,1", "--s-range", "3.0,5.0,4",
                "--gap-range", "0.05,0.2,4"]
        assert cli.main(args + ["--out", "one"]) == 0
        assert cli.main(args + ["--out", "two"]) == 0
        capsys.readouterr()
        csv1 = (in_tmp / "one.csv").read_bytes()
        csv2 = (in_tmp / "two.csv").read_bytes()
        assert csv1 == csv2


class TestPulse:
    def test_unreachable_target_exits_one(self, capsys):
        code = cli.main(["pulse", "--params", "1,0.5,0.99995,1",
                         "--speed", "2.5"])
        capsys.readouterr()
        assert code == 1

    def test_critical_speed_exits_one(self, capsys):
        code = cli.main(["pulse", "--params", "1,0.5,0.9,1", "--speed", "2"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")

    def test_short_continuation_directory(self, in_tmp, capsys):
        code = cli.main(["pulse", "--params", "1,0.5,0.5,1", "--speed", "2.5",
                         "--target", "b_to_a", "--steps", "2",
                         "--out", "pulse_out"])
        capsys.readouterr()
        assert code == 0
        summary = json.loads((in_tmp / "pulse_out" / "summary.json").read_text())
        assert summary["passed"]
        assert summary["failure_index"] is None
        assert len(summary["steps"]) == 2
        assert summary["tail_case"]["case"] in (1, 2, 3, 4)
        assert os.path.exists(in_tmp / "pulse_out" / "step_00.csv")
        assert os.path.exists(in_tmp / "pulse_out" / "step_01.json")

    def test_operator_flag_keeps_pulse_grid(self, in_tmp, capsys):
        code = cli.main(["pulse", "--params", "1,0.5,0.9,1", "--speed", "2.5",
                         "--steps", "2", "--tol", "1e-7", "--out", "pulse_out"])
        capsys.readouterr()
        assert code == 0
        head = json.loads((in_tmp / "pulse_out" / "step_00.json").read_text())
        assert head["config"] == asdict(replace(PULSE_CONFIG, tol=1e-7))
