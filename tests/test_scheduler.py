import math

import pytest

from euler_oracle import harvest_current_at, usable_energy
from zedsim.config import DeviceConfig
from zedsim.pmu import CapacitorSpec, HarvestProfile
from zedsim.scheduler import (
    Check,
    Exit,
    ExitTaken,
    ScheduleConfig,
    _choose,
    candidate_start_times,
    plan,
    run_window,
)
from zedsim.sim import _Engine
from zedsim.traces import InferenceInstance


class TestCandidateStartTimes:
    def test_adaptive_grid(self):
        cfg = ScheduleConfig(10.0, 4.0, 20)
        times = candidate_start_times(0.0, cfg)
        assert len(times) == 20
        assert times == pytest.approx([0.2 * i for i in range(20)], abs=1e-12)

    def test_fixed_rule_single_point(self):
        cfg = ScheduleConfig(10.0, 4.0, 1)
        assert candidate_start_times(10.0, cfg) == [10.0]

    def test_degenerate_deadline(self):
        cfg = ScheduleConfig(10.0, 0.0, 1)
        assert candidate_start_times(0.0, cfg) == [0.0]


class TestTryAdmit:
    """An admission attempt against a compiled check: the usable energy must
    reach the option's need."""

    @staticmethod
    def admits(usable, need):
        return _choose(Check(((Exit(ExitTaken.EX1),),), needs=(need,)), usable) is not None

    def test_ample(self):
        assert self.admits(5.4675, 81.407e-3)

    def test_empty(self):
        assert not self.admits(0.0, 1e-9)

    def test_boundary_inclusive(self):
        assert self.admits(81.407e-3, 81.407e-3)


def _engine(device, harvest, v0):
    return _Engine(device, harvest, v0)


def run_proposed(clock, device, instance):
    """One window of the proposed policy under the mosfet gate."""
    return run_window(0, clock, device, instance, plan(device, "proposed", "mosfet"))


def spent(engine):
    """Load energy of the engine's closed record; the engine starts with the window."""
    consumed, *_ = engine.close().ledger()
    return consumed


def admission_requirement(device):
    """The proposed policy's admission requirement under the mosfet gate, by
    hand: the shallow path with the dearer LED, plus the measurement an
    ambiguous score spends on its escalation check."""
    return sum(map(device.stage_energy, (
        "capture_preprocess", "inference_ex1", "led_red", "measurement")))


class TestRunWindow:
    def test_happy_path_confident_instance(self):
        device = DeviceConfig.default()
        clock = _engine(device, HarvestProfile.constant(0.0), 4.5)
        inst = InferenceInstance(0, 0.9, 0.9, 1)
        out = run_proposed(clock, device, inst)
        assert out.started_at == 0.0
        assert not out.deferred and not out.power_failure
        assert out.decision.exit_taken is ExitTaken.EX1
        assert out.decision.prediction == 1
        expected = sum(
            device.stage_energy(n)
            for n in ("measurement", "capture_preprocess", "inference_ex1", "led_blue")
        )
        assert spent(clock) == pytest.approx(expected, rel=1e-9)
        assert out.correct is True

    def test_all_candidates_fail_costs_n_measurements(self):
        # enabled at v_on but the usable reserve is below the requirement
        device = DeviceConfig.default().with_capacitance(0.05)
        clock = _engine(device, HarvestProfile.constant(0.0), 3.92)
        e_before = usable_energy(device.capacitor, clock._v)
        assert e_before < admission_requirement(device)
        out = run_proposed(clock, device, InferenceInstance(0, 0.9, 0.9, 1))
        assert out.deferred and out.started_at is None and out.decision is None
        n = device.schedule.n_attempts
        meas = device.stage_energy("measurement")
        assert spent(clock) == pytest.approx(n * meas, rel=1e-9)
        # deferral leaves the buffer untouched apart from those debits
        e_after = usable_energy(device.capacitor, clock._v)
        assert e_before - e_after == pytest.approx(n * meas, rel=1e-9)

    def test_disabled_outputs_skip_candidates_for_free(self):
        device = DeviceConfig.default()
        clock = _engine(device, HarvestProfile.constant(0.0), 3.7)  # below v_on: latched off
        out = run_proposed(clock, device, InferenceInstance(0, 0.9, 0.9, 1))
        assert out.deferred
        assert spent(clock) == 0.0
        assert clock._v == 3.7

    def test_admission_at_late_candidate_under_rising_harvest(self):
        # harvest burst shortly before candidate 7 lifts the buffer over the
        # requirement; candidates 0..6 fail and each costs one measurement
        device = DeviceConfig.default().with_capacitance(0.1)
        device = device.__class__(
            capacitor=CapacitorSpec(0.1, 3.6, 3.65, 4.5),
            stages=device.stages,
            thresholds=device.thresholds,
            schedule=device.schedule,
        )
        e_req = admission_requirement(device)
        v0 = math.sqrt(3.6**2 + 2 * (e_req - 0.02) / 0.1)  # 20 mJ short
        harvest = HarvestProfile.from_pairs([(0.0, 0.0), (1.35, 0.2)])
        clock = _engine(device, harvest, v0)
        inst = InferenceInstance(0, 0.9, 0.9, 1)
        out = run_proposed(clock, device, inst)

        expected_i = _first_admitted_candidate_oracle(device, harvest, v0)
        assert expected_i == 7
        assert out.started_at == candidate_start_times(0.0, device.schedule)[expected_i]
        assert out.started_at == pytest.approx(1.4, abs=1e-12)
        assert not out.deferred and out.decision is not None

    def test_single_pipeline_per_window(self):
        device = DeviceConfig.default()
        clock = _engine(device, HarvestProfile.constant(0.0), 4.5)
        run_proposed(clock, device, InferenceInstance(0, 0.5, 0.5, 1))
        captures = [e for e in clock.events if e[1] == "stage:capture_preprocess"]
        admits = [e for e in clock.events if e[1] == "admit"]
        assert len(captures) == 1 and len(admits) == 1


def _first_admitted_candidate_oracle(device, harvest, v0, substeps=4):
    """Independent coarse integrator replaying the admission protocol."""
    cap = device.capacitor
    c = cap.capacitance_farads
    dt = 1e-3 / substeps
    e = 0.5 * c * v0**2
    floor = 0.5 * c * cap.v_off**2
    t = 0.0
    meas = device.stages["measurement"]
    p_meas = meas.supply_volts * meas.current_amps
    for i, s in enumerate(candidate_start_times(0.0, device.schedule)):
        while t < s - 1e-12:
            step = min(dt, s - t)
            e += harvest_current_at(harvest, t) * math.sqrt(2 * e / c) * step
            t += step
        # measurement debit spread over its duration
        end = t + meas.duration_seconds
        while t < end - 1e-12:
            step = min(dt, end - t)
            e += (harvest_current_at(harvest, t) * math.sqrt(2 * e / c) - p_meas) * step
            t += step
        if e - floor >= admission_requirement(device) + device.schedule.guard_delta_joules:
            return i
    return None
