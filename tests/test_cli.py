"""Command-line surface: flags, config files, exit codes, file outputs."""

import importlib
import json
import math
import os
import re
from dataclasses import asdict, replace

import numpy as np
import pytest

from lvfront import cli, pulse, solve as solve_mod
from lvfront.certify import certify
from lvfront.envelopes import build_envelopes, min_decay_rate
from lvfront.model import SystemParams
from lvfront.solve import CLIP_ABORT_TOL
from lvfront.pulse import PULSE_CONFIG

#: the module, which the package's certify function shadows
certify_module = importlib.import_module("lvfront.certify")


def strict_loads(text):
    """json.loads that refuses the non-standard constants Infinity and NaN."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


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
        ["--domain=-inf,100"], ["--tol", "inf"],
    ])
    def test_bad_operator_flags(self, flags, in_tmp, monkeypatch, capsys):
        def no_certify(*args, **kwargs):
            raise AssertionError("certified despite a bad flag")

        (in_tmp / "string_tol.json").write_text(json.dumps({"tol": "1e-7"}))
        monkeypatch.setattr(cli, "certify", no_certify)
        code = cli.main(["solve", "--params", "1,0.5,0.5,1", "--speed", "3.0"] + flags)
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["pulse", "--params", "1,0.5,0.9,1", "--speed", "2.5", "--steps", "0"],
        ["pulse", "--params", "1,0.5,0.9,1", "--speed", "2.5", "--steps=-3"],
        ["pulse", "--params", "1,0.5,0.9,1", "--speed", "2.5", "--config", "float_steps.json"],
        ["certify", "--params", "1,0.5,0.5,1", "--config", "string_speed.json"],
        ["solve", "--params", "1,0.5,0.5,1", "--config", "nan_speed.json"],
        ["speed", "--params", "1,0.5,0.5,1", "--speed", "nan"],
        ["scan", "--params", "1,0.5,0.5,1", "--mu2", "nan"],
        ["scan", "--params", "1,0.5,0.5,1", "--mu2", "inf"],
        ["scan", "--params", "1,0.5,0.5,1", "--q2", "nan"],
        # flags and config keys that the subcommand does not read
        ["certify", "--params", "1,0.5,0.5,1", "--speed", "3", "--grid", "5"],
        ["certify", "--params", "1,0.5,0.5,1", "--speed", "3", "--domain=0,1"],
        ["certify", "--params", "1,0.5,0.5,1", "--speed", "3", "--tol", "7"],
        ["speed", "--params", "1,0.5,0.5,1", "--mode", "nonmonotone-v"],
        ["scan", "--params", "1,0.5,0.5,1", "--speed", "3"],
        ["scan", "--params", "1,0.5,0.5,1", "--grid", "4401"],
        ["pulse", "--params", "1,0.5,0.9,1", "--speed", "2.5", "--mode", "nonmonotone-u"],
        ["certify", "--params", "1,0.5,0.5,1", "--config", "grid_key.json"],
        ["scan", "--params", "1,0.5,0.5,1", "--config", "speed_key.json"],
        ["certify", "--params", "1,0.5,0.5,1", "--config", "command_key.json"],
        # config files that cannot be read or hold no JSON object
        ["certify", "--config", "missing.json"],
        ["certify", "--config", "five.json"],
        # config values that fail their flag's test
        ["certify", "--config", "bogus_mode.json"],
        ["certify", "--config", "string_params.json"],
        ["certify", "--config", "null_params.json"],
        ["certify", "--config", "bool_params.json"],
        ["certify", "--params", "1,0.5,0.5,1", "--speed", "3", "--config", "int_out.json"],
        ["scan", "--params", "1,0.5,0.5,1", "--s-range", "4,5,-1"],
    ])
    def test_bad_values_exit_one_before_certifying(self, argv, in_tmp, monkeypatch, capsys):
        def no_certify(*args, **kwargs):
            raise AssertionError("certified despite a bad value")

        configs = {
            "grid_key.json": '{"speed": 3.0, "grid": 5}',
            "speed_key.json": '{"speed": 3.0}',
            "command_key.json": '{"command": "solve"}',
            "float_steps.json": '{"steps": 2.5}',
            "string_speed.json": '{"speed": "3"}',
            "nan_speed.json": '{"speed": NaN}',
            "five.json": "5",
            "bogus_mode.json": '{"mode": "bogus"}',
            "string_params.json": '{"params": ["1", "0.5", "0.5", "1"]}',
            "null_params.json": '{"params": null}',
            "bool_params.json": '{"params": [true, 0.5, 0.5, 1]}',
            # an integer out would be opened as that file descriptor
            "int_out.json": '{"out": 987654}',
        }
        for name, text in configs.items():
            (in_tmp / name).write_text(text)
        monkeypatch.setattr(cli, "certify", no_certify)
        monkeypatch.setattr(pulse, "certify", no_certify)
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert sorted(os.listdir(in_tmp)) == sorted(configs)  # nothing written

    @pytest.mark.parametrize("config", ['{"mu2": "2"}', '{"q2": NaN}', '{"mu2": true}',
                                        '{"s_range": 5}', '{"s_range": [2.1, 5, 2.7]}'])
    def test_bad_scan_knobs_in_config_exit_one(self, config, in_tmp, capsys):
        (in_tmp / "knobs.json").write_text(config)
        assert cli.main(["scan", "--params", "1,0.5,0.5,1", "--config", "knobs.json"]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (in_tmp / "scan.csv").exists()


class TestSpeed:
    def test_admissible_exits_zero(self, capsys):
        assert cli.main(["speed", "--params", "1,0.5,0.5,1",
                         "--speed", "4.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["critical_speed"] == 2.0
        assert payload["decay_rates"]["lambda1"] == pytest.approx(0.2344, abs=1e-3)
        assert payload["run_config"]["params"] == [1.0, 0.5, 0.5, 1.0]

    def test_subcritical_exits_two(self, capsys):
        # the gate is exact at s* = 2: 2 - 1e-13 is refused too
        for speed in ("1.9", "1.9999999999999"):
            assert cli.main(["speed", "--params", "1,0.5,0.5,1", "--speed", speed]) == 2
            payload = json.loads(capsys.readouterr().out)
            assert payload["admissible"] is False
            assert payload["reason"] == "complex linearization roots"

    def test_overflowing_speed_exits_two_in_strict_json(self, capsys):
        assert cli.main(["speed", "--params", "1,0.5,0.5,1", "--speed", "1e300"]) == 2
        payload = strict_loads(capsys.readouterr().out)
        assert payload["admissible"] is False
        assert payload["reason"] == "speed squared overflows"
        assert "decay_rates" not in payload

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

    def test_header_reports_final_shifts(self, in_tmp, capsys, monkeypatch):
        code = cli.main(["solve", "--params", "1,0.5,0.5,1", "--speed", "3.0",
                         "--grid", "4401", "--tol", "1e-9", "--out", "prof"])
        capsys.readouterr()
        assert code == 0
        head = json.loads((in_tmp / "prof.json").read_text())
        beta_u, beta_v = head["beta_used"]
        # 1.05 * (u*, v*) once the pair has closed on a monotone front
        assert beta_u == pytest.approx(0.7, abs=1e-6)
        assert beta_v == pytest.approx(0.7, abs=1e-6)
        # the bracket: the pair handed over at step 21 closes below tol
        assert head["handover"] == "accepted"
        assert 0.0 < head["pair_gap"] < 1e-9
        # a fast pair, which Picard alone closes in 44 steps, is handed over
        # at step 21 too, and its answer is Picard's to within tol
        fast = ["solve", "--params", "1,0.1,0.1,1", "--speed", "3.0", "--grid", "4401",
                "--tol", "1e-4"]
        code = cli.main(fast + ["--out", "fast"])
        capsys.readouterr()
        assert code == 0
        head = json.loads((in_tmp / "fast.json").read_text())
        assert head["handover"] == "accepted" and head["newton_exit"] == "converged"
        assert head["iterations"] == solve_mod.NEWTON_WARMUP + 1
        assert 0.0 < head["pair_gap"] < 1e-4
        monkeypatch.setattr(solve_mod, "NEWTON_WARMUP", math.inf)
        assert cli.main(fast + ["--out", "picard"]) == 0
        capsys.readouterr()
        assert json.loads((in_tmp / "picard.json").read_text())["handover"] == "none"
        got, want = (np.loadtxt(in_tmp / f"{name}.csv", delimiter=",", skiprows=1)
                     for name in ("fast", "picard"))
        assert np.abs(got[:, 1:] - want[:, 1:]).max() < 1e-4

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

    def test_config_strings_and_lists_record_the_flags_run_config(self, in_tmp, capsys):
        flags = ["--params", "1,0.5,0.5,1", "--domain=-60,80"]
        configs = {"strings": {"params": "1,0.5,0.5,1", "domain": "-60,80"},
                   "lists": {"params": [1.0, 0.5, 0.5, 1.0], "domain": [-60.0, 80.0]}}
        common = ["--speed", "3.0", "--grid", "1601"]
        assert cli.main(["solve"] + flags + common + ["--out", "flags"]) == 0
        for name, cfg in configs.items():
            (in_tmp / f"cfg_{name}.json").write_text(json.dumps(dict(cfg, out=name)))
            assert cli.main(["solve", "--config", f"cfg_{name}.json"] + common) == 0
        capsys.readouterr()

        def run_config(out):
            recorded = json.loads((in_tmp / f"{out}.json").read_text())["run_config"]
            assert recorded.pop("out") == out
            return recorded

        assert run_config("strings") == run_config("lists") == run_config("flags")

    def test_subcritical_exits_two(self, in_tmp, capsys):
        assert cli.main(["solve", "--params", "1,0.5,0.5,1",
                         "--speed", "1.0"]) == 2
        capsys.readouterr()

    def test_unentered_box_writes_null_in_strict_json(self, in_tmp, capsys):
        # far above s* the default right edge cuts the tail short, so the
        # innermost box is never entered and the tail check fails
        assert cli.main(["solve", "--params", "1,0.5,0.5,1", "--speed", "10"]) == 2
        capsys.readouterr()
        head = strict_loads((in_tmp / "profile.json").read_text())
        assert head["converged"] and not head["tail_report"]["passed"]
        entries = head["tail_report"]["entry_abscissas"]
        assert entries[-1] is None
        assert all(x is None or math.isfinite(x) for x in entries)

    def test_certify_error_goes_to_out_json(self, in_tmp, capsys):
        assert cli.main(["solve", "--params", "1,0.5,0.5,1",
                         "--speed", "1.0", "--out", "crit"]) == 2
        capsys.readouterr()
        assert "error" in json.loads((in_tmp / "crit.json").read_text())
        assert not (in_tmp / "crit").exists()

    def test_failed_certificate_goes_to_out_json(self, in_tmp, monkeypatch, capsys):
        # an s* envelope set whose u bump has half its q-hat fails the
        # u_lower inequality; nothing is solved
        env = certify_module.select_and_build(SystemParams(1.0, 0.5, 0.5, 1.0), 2.0)
        env = build_envelopes(env.system, 2.0,
                              replace(env.params, u=replace(env.params.u, q=0.5 * env.params.u.q)))
        monkeypatch.setattr(certify_module, "select_and_build", lambda *args: env)
        assert cli.main(["solve", "--params", "1,0.5,0.5,1", "--speed", "2",
                         "--out", "crit"]) == 2
        capsys.readouterr()
        cert = json.loads((in_tmp / "crit.json").read_text())["certificate"]
        assert cert["verdict"] == "fail"
        assert cert["reason"].startswith("u_lower = ")
        assert not (in_tmp / "crit.csv").exists()

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
        assert head["handover"] == "accepted"
        assert 0.0 < head["pair_gap"] < 1e-8

    def test_header_reports_the_newton_run(self, in_tmp, capsys):
        # the benchmark's non-monotone front: its one hand-over, at step 21,
        # is one Newton run of 7 steps, the last a chord step on the sixth
        # factorisation
        config = {"params": [1.0, 25.0 / 26.0, 0.5, 1.0], "speed": 4.5,
                  "mode": "nonmonotone-v", "domain": [-120.0, 2600.0], "grid": 54401,
                  "tol": 1e-10, "out": "front"}
        (in_tmp / "front_config.json").write_text(json.dumps(config))
        assert cli.main(["solve", "--config", "front_config.json"]) == 0
        capsys.readouterr()
        head = json.loads((in_tmp / "front.json").read_text())
        assert head["iterations"] == 21 and head["handover"] == "accepted"
        assert (head["newton_steps"], head["newton_factors"]) == (7, 6)
        assert head["newton_exit"] == "converged"

    def test_escape_error_goes_to_out_json(self, in_tmp, capsys):
        # s* on the default grid escapes its envelopes within a few steps
        assert cli.main(["solve", "--params", "1,0.5,0.5,1",
                         "--speed", "2", "--out", "crit"]) == 3
        capsys.readouterr()
        error = json.loads((in_tmp / "crit.json").read_text())["error"]
        assert not (in_tmp / "crit").exists()
        # the message says where: size, component, xi and h of the worst clip
        found = re.fullmatch(r"iteration escaped envelope: clip of (\S+) in ([uv]) of the "
                             r"(upper|lower) pair at xi = (\S+) \(h = (\S+)\)", error)
        assert found, error
        assert float(found.group(1)) > CLIP_ABORT_TOL
        # the CLI's default domain for this solve
        env = certify(SystemParams(1.0, 0.5, 0.5, 1.0), 2.0).envelope
        left = min(-60.0, min(env.join_points) - 45.0 / min_decay_rate(env))
        assert left <= float(found.group(4)) <= 120.0
        assert float(found.group(5)) == pytest.approx((120.0 - left) / 2800, rel=1e-2)


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

    def test_refused_pin_at_critical_speed_does_not_hold(self, in_tmp, capsys):
        # speeds below s* = 2 are clamped to s*, where the a*d < 1 v bump
        # takes q2 = 0.9 below its floor: those cells read holds = False,
        # as the supercritical cells do, instead of ending the scan
        code = cli.main(["scan", "--params", "0.5,0.25,1,1", "--s-range", "1.5,3,4",
                         "--gap-range", "0.01,0.2,3", "--q2", "0.9", "--out", "scan"])
        capsys.readouterr()
        assert code == 0
        assert not json.loads((in_tmp / "scan.json").read_text())["holds_any"]
        holds = np.loadtxt(in_tmp / "scan.csv", delimiter=",", skiprows=1)[:, 1:]
        assert holds.shape == (3, 4) and not holds.any()

    def test_gap_beyond_a_exits_one(self, in_tmp, capsys):
        code = cli.main(["scan", "--params", "1,0.5,0.5,1", "--gap-range", "0.02,1.5,3"])
        assert code == 1
        assert capsys.readouterr().err == "error: a - b gap exceeds a: b must stay positive\n"
        assert not os.listdir(in_tmp)

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

    def test_small_a_v_pulse_widens_its_left_edge(self, in_tmp, capsys):
        # its envelopes reach past iterate's limit on [-80, 600]; the left
        # edge moves out at h = 0.04
        code = cli.main(["pulse", "--params", "0.4,0.2,1,1", "--speed", "2.5",
                         "--target", "b_to_a", "--out", "pulse_out"])
        capsys.readouterr()
        assert code == 0
        summary = json.loads((in_tmp / "pulse_out" / "summary.json").read_text())
        assert summary["passed"]
        config = json.loads((in_tmp / "pulse_out" / "step_00.json").read_text())["config"]
        assert config["left"] < PULSE_CONFIG.left - 200.0
        assert config["right"] == PULSE_CONFIG.right
        h = (config["right"] - config["left"]) / (config["n_points"] - 1)
        assert h == pytest.approx(0.04, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_small_a_v_pulse_with_a_constant_limit_floor(self, in_tmp, capsys):
        # the limit floor is its constant term, so q is Q_SAFETY times it;
        # the first step's damped Newton hand-over is accepted at step 21
        # without a warning
        code = cli.main(["pulse", "--params", "0.3,0.15,1,1", "--speed", "2.5",
                         "--target", "b_to_a", "--out", "pulse_out"])
        assert not capsys.readouterr().err
        assert code == 0
        summary = json.loads((in_tmp / "pulse_out" / "summary.json").read_text())
        assert summary["passed"]
        assert summary["iterations"][0] == 21
        assert summary["handover"][0] == "accepted"

    def test_uncertified_step_fails_the_pulse(self, in_tmp, monkeypatch, capsys):
        calls = []

        def second_fails(*args, **kwargs):
            cert = certify(*args, **kwargs)
            calls.append(cert)
            return replace(cert, verdict="fail") if len(calls) == 2 else cert

        monkeypatch.setattr(pulse, "certify", second_fails)
        code = cli.main(["pulse", "--params", "1,0.5,0.5,1", "--speed", "2.5",
                         "--target", "b_to_a", "--steps", "2", "--out", "pulse_out"])
        capsys.readouterr()
        assert code == 2
        summary = json.loads((in_tmp / "pulse_out" / "summary.json").read_text())
        assert summary["failure_index"] is None and all(summary["floor_ok"])
        assert not summary["passed"]

    @pytest.mark.parametrize("speed", ["2.000001", "2.0000000005"])
    @pytest.mark.parametrize("domain", [[], ["--domain=-200,600"]])
    def test_dead_band_speed_is_refused_while_planning(self, in_tmp, capsys, speed, domain):
        # the frozen constants build no envelope set: nothing is solved
        code = cli.main(["pulse", "--params", "1,0.5,0.5,1", "--speed", speed,
                         "--out", "pulse_out"] + domain)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: delta above envelope maximum\n"
        assert not captured.out
        assert not (in_tmp / "pulse_out").exists()

    def test_error_during_the_run_exits_three(self, in_tmp, capsys):
        # a given domain is not widened, and this one is too small
        code = cli.main(["pulse", "--params", "1,0.5,0.9,1", "--speed", "2.5",
                         "--domain=-5,600", "--out", "pulse_out"])
        out = json.loads(capsys.readouterr().out)
        assert code == 3
        assert out["error"] == "domain too small"
        assert not (in_tmp / "pulse_out").exists()

    def test_unconverged_step_exits_three(self, in_tmp, monkeypatch, capsys):
        monkeypatch.setattr(cli, "PULSE_CONFIG", replace(PULSE_CONFIG, max_iters=5))
        code = cli.main(["pulse", "--params", "1,0.5,0.9,1", "--speed", "2.5",
                         "--out", "pulse_out"])
        capsys.readouterr()
        assert code == 3
        summary = json.loads((in_tmp / "pulse_out" / "summary.json").read_text())
        assert summary["failure_index"] == 0
        assert summary["iterations"] == [5]
        assert not summary["passed"]

    def test_operator_flag_keeps_pulse_grid(self, in_tmp, capsys):
        code = cli.main(["pulse", "--params", "1,0.5,0.9,1", "--speed", "2.5",
                         "--steps", "2", "--tol", "1e-7", "--out", "pulse_out"])
        capsys.readouterr()
        assert code == 0
        head = json.loads((in_tmp / "pulse_out" / "step_00.json").read_text())
        assert head["config"] == asdict(replace(PULSE_CONFIG, tol=1e-7))
