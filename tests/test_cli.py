import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import zedsim
from zedsim.cli import build_parser, main
from zedsim.config import DeviceConfig, config_hash
from zedsim.scheduler import Thresholds, plan
from zedsim.traces import load_trace, sweep_thresholds


@pytest.fixture()
def trace_file(tmp_path):
    path = tmp_path / "trace.csv"
    assert main(["gen-trace", "--n", "60", "--seed", "7", "--out", str(path)]) == 0
    return path


@pytest.fixture()
def harvest_file(tmp_path):
    path = tmp_path / "harvest.csv"
    path.write_text("t_start_s,i_h_ma\n0.0,0.0\n50.0,2.0\n")
    return path


def _rows(path):
    with open(path) as fh:
        first = fh.readline()
        assert first.startswith("# config_sha256=")
        return list(csv.DictReader(fh))


class TestGenTrace:
    def test_writes_calibrated_trace(self, trace_file, capsys):
        trace = load_trace(trace_file)
        assert len(trace) == 60

    def test_stats_printed(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        main(["gen-trace", "--n", "50", "--out", str(out)])
        captured = capsys.readouterr().out
        assert captured.splitlines()[0] == f"wrote 50 instances to {out}"
        assert "acc_at_half_ex1=" in captured
        assert "person_fraction=" in captured

    def test_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["gen-trace", "--n", "2000", "--seed", "0", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "2f3d91fe45e105c7883e8aaf28be69ccddeeb2edb8a4b05102e2453a39c0e483")


class TestRun:
    def test_artifacts_and_byte_identical_rerun(self, tmp_path, trace_file, harvest_file):
        out = tmp_path / "out"
        argv = [
            "run", "--trace", str(trace_file), "--harvest", str(harvest_file),
            "--horizon", "60", "--out", str(out),
        ]
        assert main(argv) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"trajectory.csv", "totals.txt", "resolved_config.json"}
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(argv) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_blank_lines_in_inputs_are_skipped(self, tmp_path, trace_file, harvest_file):
        written = []
        for name, blank in (("plain", ""), ("blank", "\n")):
            out = tmp_path / name
            out.mkdir()
            argv = ["run", "--horizon", "60", "--out", str(out)]
            for flag, path in (("--trace", trace_file), ("--harvest", harvest_file)):
                copy = out / path.name
                copy.write_text("".join(line + blank for line in path.read_text().splitlines(True)))
                argv += [flag, str(copy)]
            assert main(argv) == 0
            written.append([(out / f).read_bytes() for f in ("totals.txt", "trajectory.csv")])
        assert written[0] == written[1]

    def test_totals_contents(self, tmp_path, trace_file, capsys):
        out = tmp_path / "out"
        main(["run", "--trace", str(trace_file), "--horizon", "30", "--out", str(out)])
        text = (out / "totals.txt").read_text()
        assert capsys.readouterr().out == text
        assert "config_sha256=" in text
        assert "completed_pipelines=3" in text
        assert "power_failures=0" in text

    def test_trajectory_header_and_hash(self, tmp_path, trace_file):
        out = tmp_path / "out"
        main(["run", "--trace", str(trace_file), "--horizon", "30", "--out", str(out)])
        with open(out / "trajectory.csv") as fh:
            header = fh.readline()
            assert header.startswith("# config_sha256=")
            assert fh.readline().strip() == "time_s,v_c,mode,event"
        text = (out / "resolved_config.json").read_text()
        resolved = json.loads(text)
        assert resolved["device"]["capacitor"]["capacitance_farads"] == 1.5
        assert text == json.dumps(resolved, indent=2, sort_keys=True) + "\n"
        # every artifact carries the hash of the configuration resolved_config.json holds
        digest = resolved.pop("config_sha256")
        assert digest == config_hash(resolved)
        assert header == f"# config_sha256={digest}\n"
        assert (out / "totals.txt").read_text().startswith(f"config_sha256={digest}\n")

    def test_constant_harvest_is_a_one_segment_file(self, tmp_path, trace_file):
        harvest = tmp_path / "harvest.csv"
        harvest.write_text("t_start_s,i_h_ma\n0.0,2.0\n")
        totals = []
        for name, flags in (("flag", ["--harvest-ma", "2"]),
                            ("file", ["--harvest", str(harvest)])):
            out = tmp_path / name
            assert main(["run", "--trace", str(trace_file), "--initial-v", "3.6",
                         "--horizon", "60", *flags, "--out", str(out)]) == 0
            totals.append((out / "totals.txt").read_text())
        assert totals[0] == totals[1]
        assert "harvested_j=0.0\n" not in totals[0]

    def test_missing_trace_is_clean_error(self, tmp_path, capsys):
        assert main(["run", "--trace", str(tmp_path / "nope.csv")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_policy_and_gating_flags(self, tmp_path, trace_file):
        for policy in ("policy-i", "policy-ii"):
            out = tmp_path / policy
            assert main([
                "run", "--trace", str(trace_file), "--horizon", "30",
                "--policy", policy, "--out", str(out),
            ]) == 0
        out = tmp_path / "ls"
        assert main([
            "run", "--trace", str(trace_file), "--horizon", "30",
            "--gating", "load-switch", "--out", str(out),
        ]) == 0
        text = (out / "totals.txt").read_text()
        assert "completed_pipelines=3" in text


class TestRejectsMalformedInputs:
    """Each malformed input is a clean error with exit status 2."""

    def _run(self, tmp_path, trace_file, *extra):
        return main(["run", "--trace", str(trace_file), "--out", str(tmp_path / "out"), *extra])

    @pytest.mark.parametrize("rows", ["0.0,nan\n", "0.0,1.0\ninf,2.0\n"])
    def test_non_finite_harvest_file(self, tmp_path, trace_file, capsys, rows):
        harvest = tmp_path / "harvest.csv"
        harvest.write_text("t_start_s,i_h_ma\n" + rows)
        assert self._run(tmp_path, trace_file, "--harvest", str(harvest)) == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "out" / "totals.txt").exists()

    def test_non_finite_harvest_current(self, tmp_path, trace_file, capsys):
        assert self._run(tmp_path, trace_file, "--harvest-ma", "nan") == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--horizon", "--initial-v"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_run_settings(self, tmp_path, trace_file, capsys, flag, value):
        assert self._run(tmp_path, trace_file, flag, value) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_capacitance(self, tmp_path, trace_file, capsys, value):
        out = tmp_path / "out"
        assert main([
            "sweep-capacitance", "--trace", str(trace_file), "--horizon", "30",
            "--capacitance", value, "--jobs", "1", "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert "finite" in err
        assert err == (f"error: --capacitance {value}: "
                       f"energy C*v_max^2/2 must be finite, got C={value}, v_max=4.5\n")
        assert not (out / "sweep_capacitance.csv").exists()

    @pytest.mark.parametrize("value, message", [
        # a point too small for one measurement, before a sound one
        ("0.0001,1.5", "--capacitance 0.0001: capacitor: the v_off..v_on band holds "
                       "0.0001203 J, less than one 0.0008934 J measurement"),
        ("0", "--capacitance 0.0: capacitance must be positive, got 0.0"),
    ], ids=["too-small", "zero"])
    def test_a_point_that_breaks_the_device_is_named(self, tmp_path, trace_file, capsys,
                                                     value, message):
        out = tmp_path / "out"
        assert main([
            "sweep-capacitance", "--trace", str(trace_file), "--horizon", "30",
            "--capacitance", value, "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "sweep_capacitance.csv").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--horizon", "-1"], "horizon must be positive"),
        (["--initial-v", "5"], "initial_v=5.0 outside [v_off=3.6, v_max=4.5]"),
        (["--horizon", "nan"], "horizon_seconds must be finite, got nan"),
        # a run flag is judged before any point, also before a point that breaks the device
        (["--horizon", "-1", "--capacitance", "0.0001"], "horizon must be positive"),
    ], ids=["negative-horizon", "initial-v-above-v-max", "nan-horizon", "before-a-point"])
    def test_a_run_flag_fault_names_the_flag_not_a_point(self, tmp_path, trace_file, capsys,
                                                         flags, message):
        out = tmp_path / "out"
        assert main(["sweep-capacitance", "--trace", str(trace_file), "--capacitance", "0.1",
                     *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_a_config_of_unsound_capacitance_sweeps_sound_points(self, tmp_path, trace_file,
                                                                 capsys):
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({"capacitor": {"capacitance_farads": 0.0001}}))
        assert main(["validate", "--config", str(cfg)]) == 2
        out = tmp_path / "out"
        assert main(["sweep-capacitance", "--config", str(cfg), "--trace", str(trace_file),
                     "--horizon", "30", "--capacitance", "0.5,1.5", "--out", str(out)]) == 0
        assert "wrote 4 rows" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--gamma1", "--capacitance"])
    @pytest.mark.parametrize("value", ["nan:0.5:0.1", "0.1:nan:0.1", "0.1:0.5:nan",
                                       "0.1:inf:0.1"])
    def test_non_finite_range(self, tmp_path, trace_file, capsys, flag, value):
        command = "sweep-thresholds" if flag == "--gamma1" else "sweep-capacitance"
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--trace", str(trace_file), flag, value, "--out", str(out)])
        assert exc.value.code == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--gamma1", "--gamma2", "--capacitance"])
    # about 10^300 points, which are rejected before any is built, and one too many
    @pytest.mark.parametrize("value", ["0:0.5:1e-300", "1:1001:1"])
    def test_range_of_too_many_points(self, tmp_path, trace_file, capsys, flag, value):
        command = "sweep-capacitance" if flag == "--capacitance" else "sweep-thresholds"
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--trace", str(trace_file), flag, value, "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "more than 1000 points" in err and "Traceback" not in err
        assert not out.exists()

    def test_range_of_zero_step(self, tmp_path, trace_file, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["sweep-thresholds", "--trace", str(trace_file), "--gamma1", "0:0.5:0",
                  "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "with step > 0" in err and "points" not in err
        assert not out.exists()

    def test_range_of_two_parts(self, tmp_path, trace_file, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["sweep-thresholds", "--trace", str(trace_file), "--gamma1", "0.1:0.5",
                  "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "range must be start:stop:step" in err and "Traceback" not in err
        assert not out.exists()

    def test_negative_jobs(self, tmp_path, trace_file, capsys):
        out = tmp_path / "out"
        assert main([
            "sweep-capacitance", "--trace", str(trace_file), "--horizon", "30",
            "--capacitance", "0.5", "--jobs", "-1", "--out", str(out),
        ]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (out / "sweep_capacitance.csv").exists()

    @pytest.mark.parametrize("flag", ["--gamma1", "--gamma2"])
    def test_empty_threshold_grid(self, tmp_path, trace_file, capsys, flag):
        out = tmp_path / "out"
        assert main(["sweep-thresholds", "--trace", str(trace_file), flag, "",
                     "--out", str(out)]) == 2
        assert "empty threshold grid" in capsys.readouterr().err
        assert not (out / "sweep_thresholds.csv").exists()

    @pytest.mark.parametrize("argv, files, problem", [
        (["run"], {"--config": "[]"}, "config root must be a JSON object"),
        (["run"], {"--config": '{"capacitor": 5}'}, "capacitor: must be an object"),
        (["run"], {"--config": '{"stages": {"led_red": 3}}'}, "stages.led_red: must be an object"),
        (["run"], {"--config": '{"idle_current_amps": -1e-6}'}, "idle_current_amps: must be >= 0"),
        (["run"], {"--config": '{"stages": {"measurement": {"supply_volts": 0}}}'},
         "stages.measurement: supply voltage must be positive"),
        (["run"], {"--config": '{"schedule": {"window_seconds": 0}}'},
         "schedule: window duration must be positive"),
        (["run"], {"--config": '{"capacitor": {"v_on": 5}}'},
         "capacitor: thresholds must satisfy 0 < v_off < v_on < v_max"),
        (["run"],
         {"--config": '{"schedule": {"window_seconds": 3.0}, "schedule": {"n_attempts": 5}}'},
         "duplicate key 'schedule'"),
        (["run"], {"--config": '{"schedule": {"deadline_seconds": -1}}'}, "deadline must be >= 0"),
        (["run", "--horizon", "0"], {}, "horizon must be positive"),
        (["run"], {"--trace": "id,o1,o2,label\n0,0.5,0.5\n"}, ":2: expected 4 fields, got 3"),
        # a byte-order mark is read as part of the first column's name
        (["run"], {"--trace": "\ufeffid,o1,o2,label\n0,0.5,0.5,1\n"},
         ":1: expected header id,o1,o2,label, read ['\\ufeffid', 'o1', 'o2', 'label']"),
        (["run"], {"--harvest": "t_start_s,i_h_ma\n0.0,1.0,2.0\n"},
         ":2: expected 2 fields, got 3"),
        (["run"], {"--harvest": "t_start_s,i_h_ma\n"},
         "profile needs matching, non-empty time and current lists"),
        # the horizon holds no window, so only the header check can reject the file
        (["run", "--horizon", "5"], {"--trace": ""},
         ":1: expected header id,o1,o2,label, read None"),
        (["run"], {"--trace": "id,o1,o2,label\n"},
         "trace has 0 instances but the horizon holds 20 windows"),
        (["sweep-thresholds"], {"--trace": "id,o1,o2,label\n"}, "trace must be non-empty"),
        (["sweep-capacitance", "--capacitance="], {}, "empty capacitance grid"),
        # numpy would ask for 7.45 GiB per array
        (["gen-trace", "--n", "1000000000"], {}, "n must be in [1, 10000000], got 1000000000"),
    ], ids=["config-root-list", "capacitor-number", "stage-number", "negative-idle-current",
            "zero-supply", "zero-window", "capacitor-v-on-above-v-max", "duplicate-section",
            "negative-deadline", "zero-horizon", "trace-3-fields", "trace-with-bom",
            "harvest-3-fields", "header-only-harvest", "empty-trace-file", "header-only-trace-run",
            "header-only-trace-sweep", "empty-capacitance-grid", "gen-trace-above-the-cap"])
    def test_rejected_before_any_output(self, tmp_path, trace_file, capsys, argv, files,
                                        problem):
        for flag, content in files.items():
            path = tmp_path / f"input{flag}"
            path.write_text(content)
            argv = [*argv, flag, str(path)]
        if argv[0] != "gen-trace" and "--trace" not in files:
            argv += ["--trace", str(trace_file)]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert problem in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_header_only_trace_warns_in_one_line(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("id,o1,o2,label\n")
        # the horizon holds no window, so the run succeeds on an empty trace; the
        # warning is one line whatever filter is installed, even one that raises it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--trace", str(trace), "--horizon", "5",
                         "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == f"warning: {trace}: trace file has no data rows\n"

    def test_header_only_trace_warns_before_the_sweep_rejects_it(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("id,o1,o2,label\n")
        out = tmp_path / "out"
        assert main(["sweep-thresholds", "--trace", str(trace), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"warning: {trace}: trace file has no data rows\n"
                                           "error: trace must be non-empty\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_config_problem_is_reported_before_the_trace_is_read(self, tmp_path, capsys,
                                                                 command):
        tree = {"schedule": {"window_seconds": 3.0}}
        config, trace, out = tmp_path / "c.json", tmp_path / "bad.csv", tmp_path / "out"
        config.write_text(json.dumps(tree))
        trace.write_text("id,o1,o2,label\n0,0.5,0.5\n")  # 3 fields: rejected when read
        assert main([command, "--config", str(config), "--trace", str(trace),
                     "--out", str(out)]) == 2
        problems = DeviceConfig.from_dict(tree).problems()
        assert capsys.readouterr().err == f"error: {'; '.join(problems)}\n"
        assert not out.exists()

    def test_negative_generator_seed(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["gen-trace", "--n", "10", "--seed", "-1", "--out", str(out)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--seed", "1"],
        ["sweep-thresholds", "--horizon", "5"],
    ])
    def test_removed_flags(self, tmp_path, trace_file, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--trace", str(trace_file), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_string_capacitance(self, tmp_path, trace_file, capsys, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"capacitor": {"capacitance_farads": "1.5"}}))
        argv = [command, "--config", str(cfg)]
        if command == "run":
            argv += ["--trace", str(trace_file), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "capacitor.capacitance_farads: must be a finite number" in capsys.readouterr().err

    def test_stored_energy_overflow(self, tmp_path, trace_file, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"capacitor": {"v_max": 1e200}}))
        assert self._run(tmp_path, trace_file, "--config", str(cfg), "--initial-v", "1e199") == 2
        err = capsys.readouterr().err
        assert "C*v_max^2/2 must be finite" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "totals.txt").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_attempts_closer_than_one_measurement(self, tmp_path, trace_file, capsys, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schedule": {"n_attempts": 100000000}}))
        argv = [command, "--config", str(cfg)]
        if command == "run":
            argv += ["--trace", str(trace_file), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "closer than one 0.004145 s measurement" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_attempts_above_the_cap(self, tmp_path, trace_file, capsys, command):
        # 4 s / 1001 attempts still holds a 10 us measurement: only the cap fires
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schedule": {"n_attempts": 1001},
                                   "stages": {"measurement": {"duration_seconds": 1e-5}}}))
        argv = [command, "--config", str(cfg)]
        if command == "run":
            argv += ["--trace", str(trace_file), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "1001 attempts per window, more than 1000" in err
        assert "closer than one" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("config, problem", [
        # a 1 nF buffer latches on and off ~550 000 times a second under a 1 mA idle draw
        ({"capacitor": {"capacitance_farads": 1e-9}, "idle_current_amps": 1e-3},
         "less than one 0.0008934 J measurement"),
        ({"idle_current_amps": 0.1}, "draws more than the measurement's 0.06531 A"),
        # a 10 us measurement fits the band, but the idle draw empties it in 10 us
        ({"stages": {"measurement": {"duration_seconds": 1e-5}},
          "capacitor": {"capacitance_farads": 1.81e-6}, "idle_current_amps": 0.065},
         "for 1.015e-05 s, less than 0.1 s"),
    ])
    def test_supply_that_would_chatter(self, tmp_path, trace_file, capsys, command, config,
                                       problem):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [command, "--config", str(cfg)]
        if command == "run":
            argv += ["--trace", str(trace_file), "--harvest-ma", "0.1", "--horizon", "1",
                     "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert problem in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("stage, entry", [
        # power 1e300 V * 1e300 A overflows; the unchecked escalation drove v_c to nan
        ("led_green", {"current_amps": 1e300, "supply_volts": 1e300}),
        ("inference_ex1_to_ex2", {"current_amps": 1e300, "supply_volts": 1e300}),
        # finite power 1e280 W, but supply * duration overflows the energy
        ("led_green", {"current_amps": 1e-20, "duration_seconds": 1e10, "supply_volts": 1e300}),
    ])
    def test_stage_power_or_energy_overflow(self, tmp_path, trace_file, capsys, command, stage,
                                            entry):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"stages": {stage: entry}}))
        argv = [command, "--config", str(cfg)]
        if command == "run":
            argv += ["--trace", str(trace_file), "--policy", "policy-ii", "--horizon", "100",
                     "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"stages.{stage}: power and energy must be finite" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, content, problem", [
        ("--trace", b"id,o1,o2,label\n0,0.5\xff,0.5,1\n", "can't decode byte 0xff"),
        ("--harvest", b"t_start_s,i_h_ma\n0.0,1.\xff0\n", "can't decode byte 0xff"),
        ("--config", b'{"capacitor": {"v_max": 4.\xff5}}', "can't decode byte 0xff"),
        ("--trace", b"id,o1,o2,label\n0,0.5,0.5," + b"1" * 200_000 + b"\n",
         "field larger than field limit"),
        ("--config", b"[" * 200_000, "maximum recursion depth"),
        ("--config", b'{"capacitor": {"v_max": ' + b"4" * 5000 + b"}}",
         "integer string conversion"),
    ], ids=["trace-0xff", "harvest-0xff", "config-0xff", "trace-long-field", "config-nesting",
            "config-5000-digits"])
    def test_unreadable_input_file(self, tmp_path, trace_file, harvest_file, capsys, flag,
                                   content, problem):
        path = tmp_path / "input"
        path.write_bytes(content)
        files = {"--trace": trace_file, "--harvest": harvest_file, flag: path}
        argv = ["run", *(arg for pair in files.items() for arg in map(str, pair))]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{path}: " in err and problem in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_integer_no_float_holds(self, tmp_path, trace_file, capsys, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"capacitor": {"v_max": ' + "4" * 400 + "}}")
        argv = [command, "--config", str(cfg)]
        if command == "run":
            argv += ["--trace", str(trace_file), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "capacitor.v_max: must be a finite number" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestValidate:
    def test_defaults_ok(self, capsys):
        assert main(["validate"]) == 0
        assert "ok: config_sha256=" in capsys.readouterr().out

    def test_broken_config_names_invariant(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text(json.dumps({"schedule": {"window_seconds": 3.0}}))
        assert main(["validate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "deadline + execution time >= window" in err

    @pytest.mark.parametrize("farads, unreachable", [
        # 119.41 mJ usable at v_max: short of every load-switch admission
        # once its 0.89 mJ measurement is paid (policy I's shallow path
        # 118.95 mJ, the proposed one 119.84 mJ with the escalation
        # measurement, the baseline 124.23 mJ)
        (0.03276, ("proposed[load_switch]", "policy_i[load_switch]",
                   "policy_ii[load_switch]", "baseline[mosfet]", "baseline[load_switch]")),
        # 120.34 mJ usable at v_max covers the proposed load-switch option,
        # but not once the admission measurement has been paid; policy I's
        # shallow option and its measurement, 119.85 mJ, still fit
        (0.033016, ("proposed[load_switch]", "policy_ii[load_switch]",
                    "baseline[mosfet]", "baseline[load_switch]")),
    ])
    def test_unreachable_admission_diagnosed(self, tmp_path, capsys, farads, unreachable):
        cfg = tmp_path / "small.json"
        cfg.write_text(json.dumps({"capacitor": {"capacitance_farads": farads}}))
        assert main(["validate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        for name in unreachable:
            assert f"invalid: {name}: requirement" in err
        # the mosfet paths of the two-exit variants still fit
        assert "proposed[mosfet]" not in err and "policy_i[mosfet]" not in err
        # and every path not named fits: the cheapest option of each is the one checked
        assert [line.split(":")[1].strip() for line in err.splitlines()] == list(unreachable)

    def test_reachability_is_exact_at_the_boundary(self, tmp_path, capsys):
        # the smallest capacitance whose usable energy at v_max covers the
        # proposed load-switch admission and its measurement is accepted, and
        # the float one ulp below it is not
        device = DeviceConfig.default()
        admission = plan(device, "proposed", "load_switch").admission
        need = min(admission.needs) + device.stage_energy("measurement")
        cap = device.capacitor

        def usable(farads):
            return 0.5 * farads * (cap.v_max * cap.v_max) - 0.5 * farads * (cap.v_off * cap.v_off)

        farads = need / usable(1.0)
        while usable(farads) < need:
            farads = math.nextafter(farads, math.inf)
        while usable(math.nextafter(farads, 0.0)) >= need:
            farads = math.nextafter(farads, 0.0)
        cfg = tmp_path / "cfg.json"
        for c, diagnosed in ((farads, False), (math.nextafter(farads, 0.0), True)):
            cfg.write_text(json.dumps({"capacitor": {"capacitance_farads": c}}))
            main(["validate", "--config", str(cfg)])
            assert ("invalid: proposed[load_switch]: requirement" in capsys.readouterr().err
                    ) == diagnosed

    def test_unknown_key_diagnosed(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text(json.dumps({"capacitanse": {}}))
        assert main(["validate", "--config", str(cfg)]) == 2
        assert "unknown" in capsys.readouterr().err

    @pytest.mark.parametrize("text, problem", [
        ('{"capacitor": {"v_off": 3.6, "v_off": 3.5}}', "capacitor: duplicate key 'v_off'"),
        ('{"stages": {"led_red": {"current_amps": 1e-3, "current_amps": 2e-3}}}',
         "stages.led_red: duplicate key 'current_amps'"),
        ('{"stages": {"led_red": {}, "led_red": {}}}', "stages: duplicate key 'led_red'"),
        ('{"schedule": {}, "schedule": {}}', "duplicate key 'schedule'"),
        # of two keys given twice, the first to repeat is named
        ('{"thresholds": {"gamma2": 0.8, "gamma1": 0.2, "gamma2": 0.9, "gamma1": 0.1}}',
         "thresholds: duplicate key 'gamma2'"),
    ], ids=["section", "stage", "stages", "root", "first-of-two"])
    def test_a_duplicate_key_names_its_section(self, tmp_path, capsys, text, problem):
        cfg = tmp_path / "dup.json"
        cfg.write_text(text)
        assert main(["validate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"invalid: {problem}\n"


class TestSweeps:
    def test_range_at_the_point_limit_keeps_every_point(self):
        args = build_parser().parse_args(
            ["sweep-thresholds", "--trace", "trace.csv", "--gamma1", "1:1000:1"])
        assert args.gamma1 == [float(k) for k in range(1, 1001)]

    def test_range_stop_is_inclusive_within_a_billionth_of_a_step(self):
        args = build_parser().parse_args(
            ["sweep-capacitance", "--trace", "trace.csv", "--capacitance", "0:0.999999999:1"])
        assert args.capacitance == [0.0, 1.0]

    @pytest.mark.parametrize("text, points", [
        ("1e-10:5e-10:1e-10", [float(f"{k}e-10") for k in range(1, 6)]),
        ("1e-13:5e-13:1e-13", [float(f"{k}e-13") for k in range(1, 6)]),
        ("0:1e-11:1e-12", [float(f"{k}e-12") for k in range(11)]),
    ])
    def test_range_is_the_same_at_any_scale(self, text, points):
        args = build_parser().parse_args(
            ["sweep-capacitance", "--trace", "trace.csv", "--capacitance", text])
        assert args.capacitance == points

    def test_threshold_sweep_grid_and_spot_check(self, tmp_path, trace_file, capsys):
        out = tmp_path / "out"
        assert main([
            "sweep-thresholds", "--trace", str(trace_file),
            "--gamma1", "0.1:0.5:0.05", "--gamma2", "0.5:0.9:0.05",
            "--out", str(out),
        ]) == 0
        assert capsys.readouterr().out == f"wrote 81 cells to {out / 'sweep_thresholds.csv'}\n"
        rows = _rows(out / "sweep_thresholds.csv")
        assert len(rows) == 81
        # deterministic row-major ordering: gamma1 outer, gamma2 inner
        assert [r["gamma2"] for r in rows[:3]] == ["0.5", "0.55", "0.6"]
        # spot-check three cells against the library sweep
        trace = load_trace(trace_file)
        for row in (rows[0], rows[40], rows[80]):
            th = Thresholds(float(row["gamma1"]), float(row["gamma2"]))
            (cell,) = sweep_thresholds(trace, [th])
            assert int(row["n_ex1"]) == cell.n_ex1
            assert int(row["n_ex2"]) == cell.n_ex2
            if row["acc_ex1"] == "":
                assert cell.acc_ex1 is None
            else:
                assert float(row["acc_ex1"]) == pytest.approx(cell.acc_ex1)

    def test_single_cell_sweep(self, tmp_path, trace_file):
        out = tmp_path / "out"
        assert main([
            "sweep-thresholds", "--trace", str(trace_file),
            "--gamma1", "0.3", "--gamma2", "0.7", "--out", str(out),
        ]) == 0
        assert len(_rows(out / "sweep_thresholds.csv")) == 1

    def test_capacitance_sweep(self, tmp_path, trace_file, capsys):
        out = tmp_path / "out"
        assert main([
            "sweep-capacitance", "--trace", str(trace_file),
            "--capacitance", "0.1,1.5", "--horizon", "60",
            "--initial-v", "4.0", "--harvest-ma", "2.0",
            "--jobs", "1", "--out", str(out),
        ]) == 0
        assert capsys.readouterr().out == f"wrote 4 rows to {out / 'sweep_capacitance.csv'}\n"
        rows = _rows(out / "sweep_capacitance.csv")
        assert len(rows) == 4  # 2 capacitances x 2 variants
        assert {r["variant"] for r in rows} == {"baseline", "proposed"}
        for c in ("0.1", "1.5"):
            by_variant = {r["variant"]: r for r in rows if r["c_farads"] == c}
            assert (
                int(by_variant["proposed"]["completed_pipelines"])
                >= int(by_variant["baseline"]["completed_pipelines"])
            )

    def test_capacitance_sweep_is_the_same_for_any_jobs(self, tmp_path, trace_file):
        # every point runs in this process, whatever --jobs asks for
        argv = ["sweep-capacitance", "--trace", str(trace_file), "--horizon", "30",
                "--capacitance", "0.1,0.5,1.5", "--harvest-ma", "1.0"]
        written = []
        for jobs in ("8", "1"):
            out = tmp_path / f"jobs{jobs}"
            assert main([*argv, "--jobs", jobs, "--out", str(out)]) == 0
            written.append((out / "sweep_capacitance.csv").read_bytes())
        assert written[0] == written[1]


class TestLayerAttribution:
    """The benchmark times ``simulate`` by wrapping ``zedsim.cli.simulate``, so
    every simulation a command runs must go through that name."""

    @pytest.mark.parametrize("argv, calls", [
        (["sweep-capacitance", "--capacitance", "0.1,0.5,1.5",
          "--variants", "proposed", "baseline"], 6),
        (["run"], 1),
        (["compare", "--variants", "baseline", "proposed", "policy-i"], 3),
        (["compare", "--variants", "proposed", "proposed"], 1),
    ])
    def test_each_simulation_calls_cli_simulate(self, tmp_path, trace_file, monkeypatch,
                                                argv, calls):
        seen = []
        simulate = zedsim.cli.simulate

        def counted(*args):
            seen.append(args)
            return simulate(*args)

        monkeypatch.setattr(zedsim.cli, "simulate", counted)
        assert main([*argv, "--trace", str(trace_file), "--horizon", "30",
                     "--out", str(tmp_path / "out")]) == 0
        assert len(seen) == calls


class TestCompare:
    def test_comparison_artifacts(self, tmp_path, trace_file, capsys):
        out = tmp_path / "out"
        assert main([
            "compare", "--trace", str(trace_file), "--horizon", "60",
            "--variants", "baseline", "proposed", "--out", str(out),
        ]) == 0
        assert capsys.readouterr().out == (
            "baseline: energy=0.750099 J completed=6 failures=0 accuracy=1.0\n"
            "proposed: energy=0.493168 J completed=6 failures=0 accuracy=1.0\n")
        rows = _rows(out / "comparison.csv")
        assert [r["variant"] for r in rows] == ["baseline", "proposed"]
        assert float(rows[1]["energy_delta_pct"]) < 0
        assert (out / "totals_baseline.txt").exists()
        assert (out / "totals_proposed.txt").exists()
        # the resolved config is the reference variant's, the first listed
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["policy_variant"] == "baseline"

    def test_rows_and_deltas(self, tmp_path):
        trace = tmp_path / "trace.csv"
        assert main(["gen-trace", "--n", "5000", "--seed", "7", "--out", str(trace)]) == 0
        out = tmp_path / "out"
        assert main([
            "compare", "--trace", str(trace), "--horizon", "100", "--initial-v", "4.5",
            "--harvest-ma", "0", "--variants", "baseline", "proposed", "--out", str(out),
        ]) == 0
        base, proposed = _rows(out / "comparison.csv")
        assert (base["energy_delta_pct"], base["completed_delta"]) == ("0.0", "0")
        energy = [float(r["energy_consumed_j"]) for r in (base, proposed)]
        assert proposed["energy_delta_pct"] == repr(100.0 * (energy[1] - energy[0]) / energy[0])
        assert float(proposed["energy_delta_pct"]) < 0
        completed = [int(r["completed_pipelines"]) for r in (base, proposed)]
        assert int(proposed["completed_delta"]) == completed[1] - completed[0] >= 0


    def test_reference_that_consumes_nothing(self, tmp_path, trace_file):
        # latched off at v_off with no harvest, no variant draws a joule: no energy
        # delta exists against a 0 J reference, so the field is empty
        out = tmp_path / "out"
        assert main(["compare", "--trace", str(trace_file), "--initial-v", "3.6",
                     "--harvest-ma", "0", "--horizon", "100", "--out", str(out)]) == 0
        rows = _rows(out / "comparison.csv")
        assert [r["energy_consumed_j"] for r in rows] == ["0.0", "0.0"]
        assert [r["energy_delta_pct"] for r in rows] == ["", ""]

    def test_accuracy_delta_needs_both_accuracies(self, tmp_path, trace_file):
        # 119.41 mJ usable at v_max and no harvest: the mosfet paths of the two-exit
        # variants complete pipelines, the baseline's load-switch capture never starts
        cfg = tmp_path / "small.json"
        cfg.write_text(json.dumps({"capacitor": {"capacitance_farads": 0.03276}}))

        def compare(*variants):
            out = tmp_path / "-".join(variants)
            assert main(["compare", "--config", str(cfg), "--trace", str(trace_file),
                         "--harvest-ma", "0", "--horizon", "60", "--variants", *variants,
                         "--out", str(out)]) == 0
            return _rows(out / "comparison.csv")

        proposed, baseline, policy_ii = compare("proposed", "baseline", "policy-ii")
        assert int(proposed["completed_pipelines"]) > 0 and baseline["completed_pipelines"] == "0"
        assert [proposed["accuracy_delta"], baseline["accuracy_delta"]] == ["0.0", ""]
        assert policy_ii["accuracy_delta"] == repr(
            float(policy_ii["accuracy_total"]) - float(proposed["accuracy_total"]))
        assert [r["accuracy_delta"] for r in compare("baseline", "proposed")] == ["", ""]

    def test_variant_listed_twice(self, tmp_path, trace_file):
        out = tmp_path / "out"
        assert main(["compare", "--trace", str(trace_file), "--horizon", "60",
                     "--variants", "proposed", "proposed", "--out", str(out)]) == 0
        rows = _rows(out / "comparison.csv")
        assert len(rows) == 2 and rows[0] == rows[1]
        assert rows[1]["energy_delta_pct"] == "0.0"
        assert [p.name for p in out.glob("totals_*.txt")] == ["totals_proposed.txt"]


class TestEveryFlagIsRead:
    """Each subcommand's handler reads every option its parser accepts."""

    @staticmethod
    def _unread(argv):
        reads = set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                reads.add(name)
                return super().__getattribute__(name)

        args = build_parser().parse_args(argv, namespace=Recording())
        reads.clear()  # argparse itself reads the namespace while parsing
        assert args.func(args) == 0
        return set(vars(args)) - {"command", "func"} - reads

    @pytest.mark.parametrize("argv", [
        ["run", "--horizon", "30"],
        ["compare", "--horizon", "30"],
        ["sweep-thresholds", "--gamma1", "0.3", "--gamma2", "0.7"],
        ["sweep-capacitance", "--horizon", "30", "--capacitance", "0.5", "--jobs", "1"],
    ])
    def test_simulation_commands(self, tmp_path, trace_file, argv):
        argv = [*argv, "--trace", str(trace_file), "--out", str(tmp_path / "out")]
        assert self._unread(argv) == set()

    def test_gen_trace_and_validate(self, tmp_path):
        assert self._unread(["gen-trace", "--n", "20", "--out", str(tmp_path / "t.csv")]) == set()
        assert self._unread(["validate"]) == set()


class TestAcrossProcesses:
    def test_same_bytes_under_any_hash_seed(self, tmp_path, trace_file, harvest_file):
        # the hash seed orders sets of strings; no artifact, table or stdout may follow it
        code = ("import json, sys, zedsim.cli\n"
                "for argv in json.loads(sys.argv[1]):\n"
                "    assert zedsim.cli.main(argv) == 0\n")
        common = ["--trace", str(trace_file), "--harvest", str(harvest_file), "--horizon", "60"]
        written = []
        for seed in ("0", "1"):
            out = tmp_path / f"seed{seed}"
            commands = [["run", *common, "--out", str(out / "run")],
                        ["compare", *common, "--variants", "baseline", "proposed", "policy-i",
                         "policy-ii", "--out", str(out / "compare")]]
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": str(Path(zedsim.__file__).parents[1])}
            done = subprocess.run([sys.executable, "-c", code, json.dumps(commands)], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            files = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
            written.append((files, done.stdout))
        assert len(written[0][0]) == 9  # run: 3 files; compare: config, table, 4 totals
        assert written[0] == written[1]


class TestStartup:
    def test_commands_that_read_a_trace_load_no_heavy_module(self, tmp_path, trace_file):
        # importing the CLI, a run with its trajectory, a comparison and both
        # sweeps in one process load none of these: numpy only generates a
        # trace, no command starts a process pool, and dataclasses and inspect
        # are import cost that no command needs
        code = (
            "import json, sys, zedsim.cli\n"
            "lazy = {'numpy', 'concurrent.futures.process', 'dataclasses', 'inspect'}\n"
            "print('loaded', sorted(lazy & set(sys.modules)))\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert zedsim.cli.main(argv) == 0\n"
            "    print('loaded', sorted(lazy & set(sys.modules)))\n"
        )
        common = ["--trace", str(trace_file), "--horizon", "30", "--out", str(tmp_path / "out")]
        commands = [
            ["run", *common],
            ["compare", *common],
            ["sweep-capacitance", *common, "--capacitance", "0.5", "--jobs", "2"],
            ["sweep-thresholds", "--trace", str(trace_file), "--out", str(tmp_path / "out")],
        ]
        env = {**os.environ, "PYTHONPATH": str(Path(zedsim.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code, json.dumps(commands)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        loaded = [line for line in done.stdout.splitlines() if line.startswith("loaded")]
        assert loaded == ["loaded []"] * 5

    @pytest.mark.parametrize("module, loads", [
        ("zedsim.pmu", ["zedsim", "zedsim.errors", "zedsim.pmu"]),
        ("zedsim.traces", ["zedsim", "zedsim.errors", "zedsim.pmu", "zedsim.traces"]),
        ("zedsim.scheduler", ["zedsim", "zedsim.errors", "zedsim.pmu", "zedsim.scheduler",
                              "zedsim.traces"]),
        ("zedsim.config", ["zedsim", "zedsim.config", "zedsim.errors", "zedsim.pmu",
                           "zedsim.scheduler", "zedsim.traces"]),
    ], ids=["pmu", "traces", "scheduler", "config"])
    def test_importing_a_module_loads_only_its_dependencies(self, module, loads):
        # the package itself imports nothing, and imports run one way: the supply
        # model pulls in no trace, the trace module no scheduler, the scheduler no
        # config and the config no engine
        code = (f"import sys, {module}\n"
                "print(*(m for m in sys.modules if m.split('.')[0] == 'zedsim'))\n")
        env = {**os.environ, "PYTHONPATH": str(Path(zedsim.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert sorted(done.stdout.split()) == loads
