"""The energy model against the paper's numbers, across the modules that hold
it: the buffer's stored and usable energy (``CapacitorSpec``'s methods, which
the engine, the ledger and admission read, and the Euler oracle's own copies),
each stage's energy from its characterization row (``config``), the
requirements the plans check before they run (``scheduler``), and the
invariants of the records behind them."""

import pytest
from test_pmu import SPEC
from test_scheduler import admission_options

from euler_oracle import stored_energy, usable_energy
from zedsim.config import STAGE_NAMES, DeviceConfig, StageProfile
from zedsim.errors import ZedSimError
from zedsim.pmu import CapacitorSpec
from zedsim.scheduler import GATINGS, VARIANTS, requirement

SMALL = CapacitorSpec(0.1, 3.6, 3.92, 4.5)
# each value case runs against both implementations, (spec, v) -> J: the
# simulator's and the oracle's, which alone checks its domain and clamps at v_off
STORED = (CapacitorSpec.energy, stored_energy)
USABLE = (CapacitorSpec.usable, usable_energy)


class TestStoredEnergy:
    def test_direct_substitution(self):
        for stored in STORED:
            assert stored(SPEC, 4.5) == pytest.approx(15.1875, rel=1e-12)

    def test_zero(self):
        for stored in STORED:
            assert stored(SPEC, 0.0) == 0.0

    def test_small_capacitor(self):
        for stored in STORED:
            assert stored(SMALL, 4.0) == pytest.approx(0.8, rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ZedSimError, match=r"voltage 4\.6 outside \[0, 4\.5\]"):
            stored_energy(SPEC, 4.6)
        with pytest.raises(ZedSimError, match=r"voltage -0\.1 outside \[0, 4\.5\]"):
            stored_energy(SPEC, -0.1)

    def test_strictly_increasing(self):
        vs = [i * 4.5 / 50 for i in range(51)]
        for stored in STORED:
            es = [stored(SPEC, v) for v in vs]
            assert all(b > a for a, b in zip(es, es[1:]))


class TestUsableEnergy:
    def test_table_values(self):
        for usable in USABLE:
            assert usable(SPEC, 4.5) == pytest.approx(5.4675, rel=1e-12)

    def test_at_floor(self):
        for usable in USABLE:
            assert usable(SPEC, 3.6) == 0.0

    def test_clamped_below_floor(self):
        assert usable_energy(SPEC, 3.0) == 0.0

    def test_matches_stored_difference_above_floor(self):
        for stored, usable in zip(STORED, USABLE):
            for v in [3.6, 3.7, 4.0, 4.37, 4.5]:
                assert usable(SPEC, v) == pytest.approx(
                    stored(SPEC, v) - stored(SPEC, SPEC.v_off), abs=1e-12
                )


class TestStateEnergy:
    def test_shallow_inference_row(self):
        p = StageProfile(5.6646e-3, 0.4341, 3.3)
        assert p.energy_joules == pytest.approx(8.118e-3, rel=5e-3)

    def test_deep_inference_row(self):
        p = StageProfile(5.8884e-3, 0.6891, 3.3)
        assert p.energy_joules == pytest.approx(13.390e-3, rel=5e-3)

    def test_zero_duration(self):
        assert StageProfile(1.0, 0.0, 3.3).energy_joules == 0.0

    def test_identity_with_product(self):
        p = StageProfile(0.0123, 0.456, 3.3)
        assert p.energy_joules == p.supply_volts * p.duration_seconds * p.current_amps


def escalation_check(gating="mosfet"):
    """The check the proposed plan makes before leaving the shallow exit."""
    (attempt,) = admission_options("proposed", gating)
    split = attempt[-1]
    (check,) = split.ambiguous
    return check


class TestRequiredEnergy:
    """The plans' requirements against hand sums of the published rows."""

    def setup_method(self):
        self.device = DeviceConfig.default()

    def test_full_run_worst_led(self):
        # capture, shallow inference and the red LED, plus the escalation
        # measurement an ambiguous score spends before it can fall back
        expected = (72.896 + 8.118 + 0.3931 + 0.8934) * 1e-3
        (attempt,) = admission_options("proposed")
        assert requirement(self.device, attempt) == pytest.approx(expected, rel=5e-3)
        assert expected == pytest.approx(82.30e-3, abs=1e-5)

    def test_all_zero_profiles(self):
        zero = DeviceConfig.from_dict(
            {"stages": {name: {"current_amps": 0.0} for name in STAGE_NAMES}}
        )
        for variant in VARIANTS:
            for gating in GATINGS:
                for option in admission_options(variant, gating):
                    assert requirement(zero, option) == 0.0
        assert requirement(zero, escalation_check().options[0]) == 0.0

    def test_load_switch_substitution(self):
        expected = (110.442 + 8.118 + 0.3931 + 0.8934) * 1e-3
        for variant in ("proposed", "policy_ii"):
            (attempt,) = admission_options(variant, "load_switch")
            assert requirement(self.device, attempt) == pytest.approx(expected, rel=5e-3)
        assert expected == pytest.approx(119.84e-3, abs=1e-5)

    def test_escalation_worst_led(self):
        expected = ((13.390 - 8.118) + 0.1182 + 0.3931) * 1e-3
        (escalate,) = escalation_check().options
        assert requirement(self.device, escalate) == pytest.approx(expected, rel=5e-3)

    def test_escalation_blue_led(self):
        # the result LED is charged at the dearer colour, here the blue one
        device = DeviceConfig.from_dict({"stages": {"led_red": {"current_amps": 0.0}}})
        expected = ((13.390 - 8.118) + 0.1182 + 0.1885) * 1e-3
        (escalate,) = escalation_check().options
        assert requirement(device, escalate) == pytest.approx(expected, rel=5e-3)

    def test_escalation_additivity(self):
        # the shallow path plus the escalation requirement never exceed the
        # deep run that policy I admits
        ex1_path = (
            self.device.stages["capture_preprocess"].energy_joules
            + self.device.stages["inference_ex1"].energy_joules
        )
        (escalate,) = escalation_check().options
        deep, _ = admission_options("policy_i")
        full_deep = (72.896 + 13.390 + 0.1182 + 0.3931) * 1e-3
        assert requirement(self.device, deep) == pytest.approx(full_deep, rel=5e-3)
        assert ex1_path + requirement(self.device, escalate) <= requirement(self.device, deep) + 1e-12

    def test_policy_i_depths_and_baseline(self):
        deep, shallow = admission_options("policy_i")
        assert requirement(self.device, shallow) == pytest.approx(
            (72.896 + 8.118 + 0.3931) * 1e-3, rel=5e-3)
        assert requirement(self.device, deep) == pytest.approx(
            (72.896 + 13.390 + 0.1182 + 0.3931) * 1e-3, rel=5e-3)
        # the single-exit baseline always captures behind the load switch
        for gating in GATINGS:
            (attempt,) = admission_options("baseline", gating)
            assert requirement(self.device, attempt) == pytest.approx(
                (110.442 + 13.390 + 0.3931) * 1e-3, rel=5e-3)


class TestTypes:
    def test_capacitor_invariants(self):
        with pytest.raises(ZedSimError, match="capacitance must be positive, got 0.0"):
            CapacitorSpec(0.0, 3.6, 3.92, 4.5)
        order = "thresholds must satisfy 0 < v_off < v_on < v_max"
        with pytest.raises(ZedSimError, match=order):
            CapacitorSpec(1.5, 3.92, 3.6, 4.5)
        with pytest.raises(ZedSimError, match=order):
            CapacitorSpec(1.5, 3.6, 4.5, 4.5)
        with pytest.raises(ZedSimError, match=order):
            CapacitorSpec(1.5, 3.6, 3.6, 4.5)
        with pytest.raises(ZedSimError, match=order):
            CapacitorSpec(1.5, 0.0, 3.92, 4.5)

    def test_capacitor_energy_at_v_max_must_be_finite(self):
        # v_max*v_max overflows, or C*v_max^2/2 does; just inside, both hold
        for farads, v_max in [(1.5, 1e200), (1e-300, 1e200), (1e308, 4.5)]:
            with pytest.raises(ZedSimError, match="finite"):
                CapacitorSpec(farads, 3.6, 3.92, v_max)
        CapacitorSpec(1e-300, 3.6, 3.92, 1e154)

    def test_stage_invariants(self):
        with pytest.raises(ZedSimError, match="current must be >= 0"):
            StageProfile(-1e-3, 0.1)
        with pytest.raises(ZedSimError, match="duration must be >= 0"):
            StageProfile(1e-3, -0.1)

    def test_budget_invariants(self):
        # every requirement the plans give is non-negative and covers each
        # stage it runs before its next check
        device = DeviceConfig.default()
        for variant in VARIANTS:
            for gating in GATINGS:
                for option in admission_options(variant, gating):
                    need = requirement(device, option)
                    stages = [step for step in option if isinstance(step, str)]
                    assert need >= sum(map(device.stage_energy, stages)) > 0
        deep, shallow = admission_options("policy_i")
        assert requirement(device, shallow) <= requirement(device, deep)
