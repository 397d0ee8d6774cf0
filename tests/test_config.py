import json

import pytest
from hypothesis import given
from test_boundary import config_trees

from zedsim.config import DeviceConfig, config_hash, derive_escalation_stage, load_config
from zedsim.energy import state_energy
from zedsim.errors import ConfigError, ZedSimError
from zedsim.scheduler import GATINGS, VARIANTS, Split, plan, requirement


def admission_options(variant, gating="mosfet"):
    return plan(DeviceConfig.default(), variant, gating)[0].options


class TestDefaults:
    def test_default_is_valid(self):
        DeviceConfig.default().validate()

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
        assert state_energy(esc) == pytest.approx(
            state_energy(ex2) - state_energy(ex1), rel=1e-12
        )

    def test_derivation_rejects_non_monotone_profiles(self):
        d = DeviceConfig.default()
        with pytest.raises(ConfigError):
            derive_escalation_stage(d.stages["inference_ex2"], d.stages["inference_ex1"])

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
        with pytest.raises(ConfigError, match="unknown"):
            DeviceConfig.from_dict({"capacitanse": 1.0})
        with pytest.raises(ConfigError, match="unknown"):
            DeviceConfig.from_dict({"schedule": {"windows": 5}})
        with pytest.raises(ConfigError, match="unknown"):
            DeviceConfig.from_dict({"stages": {"nonexistent_stage": {}}})

    def test_timestep_key_is_gone(self):
        # the engine integrates exactly; a step length is no longer a setting
        with pytest.raises(ConfigError, match="unknown"):
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
        with pytest.raises(ConfigError, match=f"{path}: must be a finite number"):
            DeviceConfig.from_dict(data)

    def test_float_attempt_count_rejected(self):
        with pytest.raises(ConfigError, match="schedule.n_attempts: must be an integer"):
            DeviceConfig.from_dict({"schedule": {"n_attempts": 20.0}})

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
        with pytest.raises(ConfigError):
            load_config(path)

    def test_hash_is_stable_and_sensitive(self):
        d = DeviceConfig.default()
        h1 = config_hash(d.to_dict())
        h2 = config_hash(d.to_dict())
        assert h1 == h2
        h3 = config_hash(d.with_capacitance(0.1).to_dict())
        assert h3 != h1


class TestValidation:
    def test_deadline_plus_execution_must_fit_window(self):
        d = DeviceConfig.from_dict({"schedule": {"window_seconds": 3.0}})
        problems = d.problems()
        assert any("deadline + execution time >= window" in p for p in problems)
        with pytest.raises(ConfigError, match="window"):
            d.validate()

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
