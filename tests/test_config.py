import json
import math
import re
import sys

import pytest
from hypothesis import given
from test_boundary import config_trees
from test_scheduler import admission_options

from zedsim.cli import main
from zedsim.config import (
    STAGE_NAMES,
    DeviceConfig,
    config_hash,
    derive_escalation_stage,
    load_config,
)
from zedsim.errors import ZedSimError
from zedsim.scheduler import GATINGS, VARIANTS, Split, plan, requirement, worst_case_time
from zedsim.sim import SimConfig


class TestDefaults:
    def test_default_is_valid(self):
        assert DeviceConfig.default().problems() == []

    def test_default_values(self):
        d = DeviceConfig.default()
        assert d.capacitor.capacitance_farads == 1.5
        assert d.capacitor.v_off == 3.6
        assert d.capacitor.v_on == 3.92
        assert d.capacitor.v_max == 4.5
        assert d.schedule.window_seconds == 10.0
        assert d.schedule.deadline_seconds == 4.0
        assert d.schedule.n_attempts == 20
        assert (d.thresholds.gamma1, d.thresholds.gamma2) == (0.3, 0.7)

    def test_escalation_stage_derived_from_profiles(self):
        d = DeviceConfig.default()
        esc = d.stages["inference_ex1_to_ex2"]
        ex1, ex2 = d.stages["inference_ex1"], d.stages["inference_ex2"]
        assert esc.duration_seconds == pytest.approx(
            ex2.duration_seconds - ex1.duration_seconds, rel=1e-12
        )
        assert esc.energy_joules == pytest.approx(
            ex2.energy_joules - ex1.energy_joules, rel=1e-12
        )

    def test_derivation_rejects_non_monotone_profiles(self):
        d = DeviceConfig.default()
        with pytest.raises(ZedSimError, match="stages.inference_ex2: must take longer"):
            derive_escalation_stage(d.stages["inference_ex2"], d.stages["inference_ex1"])

    @pytest.mark.parametrize("ex2", [
        {"current_amps": 0.008, "duration_seconds": 0.5},  # no longer than the shallow exit
        {"current_amps": 0.002, "duration_seconds": 1.0},  # no dearer, to the bit
    ], ids=["equal-durations", "equal-energies"])
    def test_derivation_rejects_a_deep_exit_no_longer_or_no_dearer(self, tmp_path, capsys, ex2):
        stages = {"inference_ex1": {"current_amps": 0.004, "duration_seconds": 0.5},
                  "inference_ex2": ex2}
        message = ("stages.inference_ex2: must take longer and cost more than "
                   "stages.inference_ex1")
        with pytest.raises(ZedSimError) as info:
            DeviceConfig.from_dict({"stages": stages})
        assert str(info.value) == message
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"stages": stages}))
        assert main(["validate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"invalid: {message}\n"

    def test_measurement_energy_matches_characterization(self):
        assert DeviceConfig.default().stage_energy("measurement") == pytest.approx(
            0.8934e-3, rel=1e-9
        )

    def test_capture_gating_energy_ratio(self):
        d = DeviceConfig.default()
        ratio = d.stage_energy("capture_preprocess") / d.stage_energy(
            "capture_preprocess_load_switch"
        )
        assert ratio == pytest.approx(0.660, abs=5e-3)


# sha256 of the default resolved tree, the hash that heads every artifact of a
# default run; it moves only when a key, a default or the tree's shape does
DEFAULT_CONFIG_SHA256 = "af5a19bdce914fb4c63614ff52fb5a29bdd0005b30dd0eedf26233f81f6fb343"


class TestSerialization:
    def test_default_hash_is_pinned(self):
        assert config_hash(DeviceConfig.default().to_dict()) == DEFAULT_CONFIG_SHA256

    @given(config_trees())
    def test_round_trip(self, tree):
        try:
            d = DeviceConfig.from_dict(tree)
        except ZedSimError:
            return
        assert DeviceConfig.from_dict(d.to_dict()) == d
        assert DeviceConfig.from_dict(json.loads(json.dumps(d.to_dict()))) == d

    def test_partial_dict_takes_defaults(self):
        d = DeviceConfig.from_dict({"capacitor": {"capacitance_farads": 0.1}})
        assert d.capacitor.capacitance_farads == 0.1
        assert d.capacitor.v_off == 3.6
        assert d.schedule.n_attempts == 20

    def test_unknown_keys_rejected(self):
        with pytest.raises(ZedSimError, match="unknown"):
            DeviceConfig.from_dict({"capacitanse": 1.0})
        with pytest.raises(ZedSimError, match="unknown"):
            DeviceConfig.from_dict({"schedule": {"windows": 5}})
        with pytest.raises(ZedSimError, match="unknown"):
            DeviceConfig.from_dict({"stages": {"nonexistent_stage": {}}})

    def test_timestep_key_is_gone(self):
        # the engine integrates exactly; a step length is no longer a setting
        with pytest.raises(ZedSimError, match="unknown"):
            DeviceConfig.from_dict({"timestep_seconds": 1e-3})
        assert "timestep_seconds" not in DeviceConfig.default().to_dict()

    @pytest.mark.parametrize("data, path", [
        ({"capacitor": {"capacitance_farads": "1.5"}}, "capacitor.capacitance_farads"),
        ({"capacitor": {"v_off": None}}, "capacitor.v_off"),
        ({"thresholds": {"gamma1": True}}, "thresholds.gamma1"),
        ({"schedule": {"window_seconds": float("nan")}}, "schedule.window_seconds"),
        ({"stages": {"led_red": {"current_amps": [1]}}}, "stages.led_red.current_amps"),
        ({"converter_efficiency": "0.9"}, "converter_efficiency"),
        ({"idle_current_amps": float("inf")}, "idle_current_amps"),
    ])
    def test_non_numeric_values_rejected(self, data, path):
        with pytest.raises(ZedSimError, match=f"{path}: must be a finite number"):
            DeviceConfig.from_dict(data)

    def test_largest_float_accepted(self):
        largest = sys.float_info.max
        d = DeviceConfig.from_dict({"schedule": {"guard_delta_joules": largest}})
        assert d.schedule.guard_delta_joules == largest

    def test_float_attempt_count_rejected(self):
        with pytest.raises(ZedSimError, match=r"n_attempts must be an integer >= 1, got 20\.0"):
            DeviceConfig.from_dict({"schedule": {"n_attempts": 20.0}})

    @pytest.mark.parametrize("stages, problem", [
        ({"led_red": {"current_amps": -1e-3}}, "stages.led_red: current must be >= 0"),
        ({"measurement": {"duration_seconds": -1.0}},
         "stages.measurement: duration must be >= 0"),
        ({"capture_preprocess": {"supply_volts": 0.0}},
         "stages.capture_preprocess: supply voltage must be positive"),
        ({"led_green": {"current_amps": 1e300, "supply_volts": 1e300}},
         "stages.led_green: power and energy must be finite"),
        # a sound deep exit whose extra energy overflows the derived escalation's power
        ({"inference_ex2": {"supply_volts": 1e300, "current_amps": 1e8}},
         "stages.inference_ex1_to_ex2: power and energy must be finite"),
    ], ids=["negative-current", "negative-duration", "zero-supply", "infinite-power",
            "derived-escalation"])
    def test_a_stage_fault_names_the_stage(self, stages, problem):
        with pytest.raises(ZedSimError) as excinfo:
            DeviceConfig.from_dict({"stages": stages})
        assert str(excinfo.value) == problem

    def test_stage_override_keeps_other_fields(self):
        d = DeviceConfig.from_dict({"stages": {"led_red": {"duration_seconds": 0.2}}})
        assert d.stages["led_red"].duration_seconds == 0.2
        assert d.stages["led_red"].current_amps == 1.1912e-3

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"thresholds": {"gamma1": 0.2, "gamma2": 0.8}}))
        d = load_config(path)
        assert d.thresholds.gamma1 == 0.2

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ZedSimError, match=re.escape(f"{path}: not valid JSON (")):
            load_config(path)

    def test_hash_is_stable_and_sensitive(self):
        d = DeviceConfig.default()
        h1 = config_hash(d.to_dict())
        h2 = config_hash(d.to_dict())
        assert h1 == h2
        h3 = config_hash(d.with_capacitance(0.1).to_dict())
        assert h3 != h1


_BAND_3J = {"capacitance_farads": 2.0, "v_off": 1.0, "v_on": 2.0, "v_max": 4.0}
_BAND_BELOW_3J = {**_BAND_3J, "v_on": math.nextafter(2.0, 0.0)}
_MEASUREMENT_AMPS = DeviceConfig.default().stages["measurement"].current_amps


def _measurement(current, duration):
    """A measurement stage override at a 1 V rail."""
    return {"stages": {"measurement": {"supply_volts": 1.0, "current_amps": current,
                                       "duration_seconds": duration}}}


_IDLE_30W = {"converter_efficiency": 0.5, "idle_current_amps": 15.0,
             **_measurement(30.0, 0.03125)}


class TestValidation:
    def test_deadline_plus_execution_must_fit_window(self):
        d = DeviceConfig.from_dict({"schedule": {"window_seconds": 3.0}})
        problems = d.problems()
        assert any("deadline + execution time >= window" in p for p in problems)
        with pytest.raises(ZedSimError, match="window") as exc:
            SimConfig(d, 4.5, 100.0)
        assert str(exc.value) == "; ".join(problems)

    @pytest.mark.parametrize("schedule, ok", [
        ({"n_attempts": 965}, True),  # 4 s / 965 still holds one 4.145 ms measurement
        ({"n_attempts": 966}, False),
        ({"n_attempts": 1, "deadline_seconds": 0.0}, True),
        ({"n_attempts": 2, "deadline_seconds": 0.0}, False),
    ])
    def test_attempts_no_closer_than_one_measurement(self, schedule, ok):
        problems = DeviceConfig.from_dict({"schedule": schedule}).problems()
        assert (problems == []) == ok
        assert all("closer than one" in p for p in problems)

    @pytest.mark.parametrize("name", STAGE_NAMES)
    def test_missing_stage_is_the_one_problem(self, name):
        d = DeviceConfig.default()
        d = d._replace(stages={k: v for k, v in d.stages.items() if k != name})
        assert d.problems() == [f"stages.{name}: missing stage profile"]

    def test_deadline_plus_execution_exactly_the_window(self):
        # a window equal to the very sum problems() computes is too short; one ulp more fits
        d = DeviceConfig.default()
        t_exe = max(worst_case_time(d, (plan(d, v, g).admission,))
                    for v in VARIANTS for g in GATINGS)
        edge = d.schedule.deadline_seconds + t_exe
        for window, ok in ((edge, False), (math.nextafter(edge, math.inf), True)):
            problems = d._replace(schedule=d.schedule._replace(window_seconds=window)).problems()
            assert (problems == []) == ok
            assert all("deadline + execution time >= window" in p for p in problems)

    def test_attempts_exactly_one_measurement_apart(self):
        # n a power of two: the deadline n measurements long divides back exactly
        measure = DeviceConfig.default().stages["measurement"].duration_seconds
        edge = measure * 512
        for deadline, ok in ((edge, True), (math.nextafter(edge, 0.0), False)):
            schedule = {"n_attempts": 512, "deadline_seconds": deadline}
            assert (DeviceConfig.from_dict({"schedule": schedule}).problems() == []) == ok

    @pytest.mark.parametrize("edge, beyond, problem", [
        # a 3 J band (1 J stored at v_off, 4 J at v_on) and a 3 J measurement
        ({"capacitor": _BAND_3J, **_measurement(24.0, 0.125)},
         {"capacitor": _BAND_BELOW_3J, **_measurement(24.0, 0.125)}, "less than one"),
        # an idle current as large as the measurement's
        ({"idle_current_amps": _MEASUREMENT_AMPS},
         {"idle_current_amps": math.nextafter(_MEASUREMENT_AMPS, 1.0)}, "draws more than"),
        # the 3 J band under a 30 W idle draw, 15 A at 1 V through a converter of
        # efficiency 0.5, which empties it in 0.1 s
        ({"capacitor": _BAND_3J, **_IDLE_30W}, {"capacitor": _BAND_BELOW_3J, **_IDLE_30W},
         "idle draw for"),
        # the cap on admission instants, which 10 us measurements leave the only rule
        ({"schedule": {"n_attempts": 1000}, "stages": {"measurement": {"duration_seconds": 1e-5}}},
         {"schedule": {"n_attempts": 1001}, "stages": {"measurement": {"duration_seconds": 1e-5}}},
         "more than 1000"),
    ], ids=["band-holds-one-measurement", "idle-current", "band-feeds-idle", "attempt-cap"])
    def test_supply_and_schedule_rules_at_their_edges(self, edge, beyond, problem):
        assert DeviceConfig.from_dict(edge).problems() == []
        problems = DeviceConfig.from_dict(beyond).problems()
        assert len(problems) == 1 and problem in problems[0]

    def test_deadline_checked_under_every_gating(self):
        # a slow load-switch capture overruns the window only under that
        # gating; the mosfet paths and the baseline still fit
        d = DeviceConfig.from_dict(
            {"stages": {"capture_preprocess_load_switch": {"duration_seconds": 5.18}}}
        )
        problems = d.problems()
        assert len(problems) == 3
        for variant in ("proposed", "policy_i", "policy_ii"):
            assert any(f"{variant!r} under 'load_switch'" in p for p in problems)

    def test_requirements(self):
        d = DeviceConfig.default()
        (attempt,) = admission_options("proposed")
        # the shallow path with the worst LED, plus the escalation measurement
        expected = (
            d.stage_energy("capture_preprocess")
            + d.stage_energy("inference_ex1")
            + d.stage_energy("led_red")
            + d.stage_energy("measurement")
        )
        assert requirement(d, attempt) == pytest.approx(expected, rel=1e-12)
        (attempt,) = admission_options("baseline")
        assert requirement(d, attempt) == pytest.approx(
            d.stage_energy("capture_preprocess_load_switch")
            + d.stage_energy("inference_ex2")
            + d.stage_energy("led_red"),
            rel=1e-12,
        )
        deep, shallow = admission_options("policy_i")
        assert requirement(d, shallow) < requirement(d, deep)

    def test_requirements_are_sized_for_the_buffer(self):
        # the buffer pays each rail joule divided by the converter efficiency
        rail = DeviceConfig.default()
        lossy = DeviceConfig.from_dict({"converter_efficiency": 0.5})
        assert lossy.stage_energy("measurement") == pytest.approx(
            2.0 * rail.stage_energy("measurement"), rel=1e-12)
        for variant in VARIANTS:
            for gating in GATINGS:
                for option in admission_options(variant, gating):
                    assert requirement(lossy, option) == pytest.approx(
                        2.0 * requirement(rail, option), rel=1e-12)
                    split = option[-1]
                    if isinstance(split, Split):
                        (check,) = split.ambiguous
                        (escalate,) = check.options
                        assert requirement(lossy, escalate) == pytest.approx(
                            2.0 * requirement(rail, escalate), rel=1e-12)

    def test_gating_changes_budget(self):
        d = DeviceConfig.default()
        for variant in ("proposed", "policy_i", "policy_ii"):
            for mosfet, load_switch in zip(admission_options(variant, "mosfet"),
                                           admission_options(variant, "load_switch")):
                assert requirement(d, load_switch) > requirement(d, mosfet)
        # the baseline captures behind the load switch under either flag
        assert admission_options("baseline", "mosfet") == admission_options(
            "baseline", "load_switch")

    def test_bad_efficiency(self):
        d = DeviceConfig.from_dict({"converter_efficiency": 1.5})
        assert any("converter_efficiency" in p for p in d.problems())
