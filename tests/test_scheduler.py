import math
import random

import pytest

from euler_oracle import harvest_current_at, usable_energy
from zedsim.config import DeviceConfig
from zedsim.pmu import CapacitorSpec, HarvestProfile
from zedsim.scheduler import (
    Check,
    ExitDecision,
    ExitTaken,
    ScheduleConfig,
    Thresholds,
    WindowOutcome,
    _choose,
    candidate_start_times,
    evaluate_ex1,
    plan,
    run_window,
)
from zedsim.sim import _Engine
from zedsim.traces import NO_PERSON, PERSON

DEVICE = DeviceConfig.default()
# escalation stage, green LED and the dearer (red) result LED
ESCALATION_J = sum(map(DEVICE.stage_energy, ("inference_ex1_to_ex2", "led_green", "led_red")))


def admission_options(variant, gating="mosfet"):
    """The options of the admission check of ``variant``'s plan on the default device."""
    return plan(DeviceConfig.default(), variant, gating).admission.options


class TestEvaluateEx1:
    def test_confident_person(self):
        assert evaluate_ex1(0.95, Thresholds(0.3, 0.7)) == PERSON

    def test_boundary_no_person(self):
        assert evaluate_ex1(0.3, Thresholds(0.3, 0.7)) == NO_PERSON

    def test_degenerate_band_person_wins(self):
        assert evaluate_ex1(0.5, Thresholds(0.5, 0.5)) == PERSON

    def test_ambiguous_open_interval(self):
        th = Thresholds(0.3, 0.7)
        assert evaluate_ex1(0.31, th) is None
        assert evaluate_ex1(0.69, th) is None
        assert evaluate_ex1(0.7, th) == PERSON


class ScriptedClock:
    """The clock protocol of ``run_window``, reading usable energy from a
    script; a measurement with no reading left browns out, and so does the
    stage named ``fail_at``."""

    def __init__(self, readings, fail_at=None):
        self.readings = list(readings)
        self.fail_at = fail_at
        self.time = 0.0
        self.outputs_enabled = True
        self.events = []

    def advance_to(self, t):
        self.time = t

    def run_stage(self, name):
        return name != self.fail_at and (name != "measurement" or bool(self.readings))

    def usable_energy(self):
        return self.readings.pop(0)

    def log_event(self, label):
        self.events.append(label)


def decide(variant, scores, readings, device=DEVICE):
    """One window of ``variant`` with a single admission instant."""
    one_attempt = device._replace(schedule=device.schedule._replace(n_attempts=1))
    return run_window(0, ScriptedClock(readings), scores, plan(one_attempt, variant, "mosfet"))


class TestPolicyISelect:
    """Policy I admits the deepest path whose requirement the reading covers:
    81.407 mJ shallow and 86.797 mJ deep under the mosfet gate."""

    def test_deep_feasible(self):
        out = decide("policy_i", (0.2, 0.9), [86.9e-3])
        assert out.decision == ExitDecision(ExitTaken.EX2, PERSON)
        assert out.admission_usable == 86.9e-3

    def test_only_shallow_feasible(self):
        out = decide("policy_i", (0.2, 0.9), [84e-3])
        assert out.decision == ExitDecision(ExitTaken.EX1, NO_PERSON)

    def test_nothing_feasible(self):
        out = decide("policy_i", (0.2, 0.9), [81e-3])
        assert out.deferred and out.decision is None

    def test_bad_order(self):
        # a shallow path dearer than the deep one is no error: the options
        # are tried in the plan's order, deep first
        device = DeviceConfig.from_dict({"stages": {
            "inference_ex1": {"current_amps": 0.1},
            "inference_ex1_to_ex2": {"current_amps": 1e-3, "duration_seconds": 0.1},
        }})
        out = decide("policy_i", (0.9, 0.9), [0.3], device)
        assert out.decision.exit_taken is ExitTaken.EX2


class TestDecideProposed:
    def test_confident_early_exit(self):
        scores = (0.9, 0.9)
        out = decide("proposed", scores, [100.0])
        d = out.decision
        assert d.exit_taken is ExitTaken.EX1
        assert d.prediction == PERSON
        # no escalation requested, so none denied
        assert out.escalation_usable is None and d.exit_taken is not ExitTaken.EX1_FALLBACK

    def test_ambiguous_escalates(self):
        scores = (0.55, 0.2)
        out = decide("proposed", scores, [100.0, 100.0])
        d = out.decision
        assert d.exit_taken is ExitTaken.EX2
        assert d.prediction == NO_PERSON
        assert out.escalation_usable is not None  # escalation requested

    def test_escalation_denied_falls_back(self):
        scores = (0.55, 0.2)
        out = decide("proposed", scores, [100.0, 1e-6])
        d = out.decision
        assert d.exit_taken is ExitTaken.EX1_FALLBACK
        assert d.prediction == PERSON  # 0.5 <= o1 < gamma2
        # escalation requested, then denied
        assert out.escalation_usable is not None and d.exit_taken is ExitTaken.EX1_FALLBACK
        assert out.escalation_usable == 1e-6

    def test_admission_boundary_is_the_compiled_need(self):
        # a reading equal to the compiled float admits, one ulp less defers
        (need,) = plan(DEVICE, "proposed", "mosfet").admission.needs
        scores = (0.9, 0.9)
        assert decide("proposed", scores, [need]).started_at == 0.0
        assert decide("proposed", scores, [math.nextafter(need, 0.0)]).deferred

    def test_admission_denied(self):
        scores = (0.9, 0.9)
        out = decide("proposed", scores, [0.0])
        assert out.deferred and out.decision is None and out.started_at is None

    def test_window_that_no_instant_admits_logs_defer(self):
        scores = (0.9, 0.9)
        clock = ScriptedClock([0.0])
        one_attempt = DEVICE._replace(schedule=DEVICE.schedule._replace(n_attempts=1))
        assert run_window(0, clock, scores, plan(one_attempt, "proposed", "mosfet")).deferred
        assert clock.events == ["window:0", "defer"]

    def test_measurement_brownout_defers(self):
        # the admission reading never arrives: the window is deferred, not failed
        scores = (0.9, 0.9)
        clock = ScriptedClock([])
        one_attempt = DEVICE._replace(schedule=DEVICE.schedule._replace(n_attempts=1))
        out = run_window(0, clock, scores, plan(one_attempt, "proposed", "mosfet"))
        assert out.deferred and not out.power_failure
        assert clock.events == ["window:0", "measurement_brownout"]

    def test_energy_safety_property(self):
        # a deep exit is never reported when the second reading is short
        rng = random.Random(5)
        need = ESCALATION_J + DEVICE.schedule.guard_delta_joules
        for _ in range(500):
            scores = (rng.random(), rng.random())
            second = rng.uniform(0.0, 2.0 * need)
            d = decide("proposed", scores, [1.0, second]).decision
            if d.exit_taken is ExitTaken.EX2:
                assert second >= need

    def test_policy_ii_always_escalates_on_ambiguity(self):
        scores = (0.55, 0.2)
        out = decide("policy_ii", scores, [1.0, 0.0])
        assert out.decision.exit_taken is ExitTaken.EX2
        assert out.escalation_usable == 0.0

    def test_determinism(self):
        rng = random.Random(9)
        pairs = [(rng.random(), rng.random()) for _ in range(100)]
        device = DEVICE._replace(thresholds=Thresholds(0.2, 0.8))
        a = [decide("proposed", p, [1.0, 1.0], device) for p in pairs]
        b = [decide("proposed", p, [1.0, 1.0], device) for p in pairs]
        assert a == b


class TestPowerFailureAfterAdmission:
    """A pipeline that browns out once admitted is a power failure: it consumed
    its input but made no call."""

    @pytest.mark.parametrize("variant, scores, readings, fail_at, escalation_usable", [
        # the escalation measurement of an ambiguous instance gets no reading
        ("proposed", (0.55, 0.2), [1.0], None, None),
        ("proposed", (0.9, 0.9), [1.0], "capture_preprocess", None),
        # the result LED of each exit browns out
        ("proposed", (0.9, 0.9), [1.0], "led_blue", None),
        ("proposed", (0.55, 0.2), [1.0, 1.0], "led_red", 1.0),
        ("proposed", (0.55, 0.2), [1.0, 0.0], "led_blue", 0.0),
        ("baseline", (0.2, 0.9), [1.0], "led_blue", None),
    ], ids=["escalation-measurement", "capture", "led-ex1", "led-ex2", "led-fallback",
            "led-baseline"])
    def test_no_decision(self, variant, scores, readings, fail_at, escalation_usable):
        clock = ScriptedClock(readings, fail_at)
        one_attempt = DEVICE._replace(schedule=DEVICE.schedule._replace(n_attempts=1))
        out = run_window(0, clock, scores, plan(one_attempt, variant, "mosfet"))
        assert out.power_failure and not out.deferred
        assert out == WindowOutcome(0.0, None, 1.0, escalation_usable)
        assert clock.events == ["window:0", "admit", "power_failure"]


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

    def test_baseline_tries_one_instant(self):
        # the baseline admits at the window's start or not at all; the other
        # variants measure at every instant of the schedule before deferring
        assert DEVICE.schedule.n_attempts > 1
        scores = (0.9, 0.9)
        for variant in ("baseline", "policy_i", "policy_ii", "proposed"):
            compiled = plan(DEVICE, variant, "mosfet")
            tried = 1 if variant == "baseline" else DEVICE.schedule.n_attempts
            assert compiled.schedule == DEVICE.schedule._replace(n_attempts=tried)
            clock = ScriptedClock([0.0] * (tried + 1))
            assert run_window(3, clock, scores, compiled).deferred
            assert clock.readings == [0.0]  # one reading per instant tried


class TestTryAdmit:
    """An admission attempt against a compiled check: the usable energy must
    reach the option's need."""

    @staticmethod
    def admits(usable, need):
        return _choose(Check(((ExitTaken.EX1,),), needs=(need,)), usable) is not None

    def test_ample(self):
        assert self.admits(5.4675, 81.407e-3)

    def test_empty(self):
        assert not self.admits(0.0, 1e-9)

    def test_boundary_inclusive(self):
        assert self.admits(81.407e-3, 81.407e-3)


def _engine(device, harvest, v0):
    return _Engine(device, harvest, v0)


def run_proposed(clock, device, scores):
    """One window of the proposed policy under the mosfet gate."""
    return run_window(0, clock, scores, plan(device, "proposed", "mosfet"))


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
        scores = (0.9, 0.9)
        out = run_proposed(clock, device, scores)
        assert out.started_at == 0.0
        assert not out.deferred and not out.power_failure
        assert out.decision.exit_taken is ExitTaken.EX1
        assert out.decision.prediction == 1
        expected = sum(
            device.stage_energy(n)
            for n in ("measurement", "capture_preprocess", "inference_ex1", "led_blue")
        )
        assert spent(clock) == pytest.approx(expected, rel=1e-9)

    def test_all_candidates_fail_costs_n_measurements(self):
        # enabled at v_on but the usable reserve is below the requirement
        device = DeviceConfig.default().with_capacitance(0.05)
        clock = _engine(device, HarvestProfile.constant(0.0), 3.92)
        e_before = usable_energy(device.capacitor, clock._v)
        assert e_before < admission_requirement(device)
        out = run_proposed(clock, device, (0.9, 0.9))
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
        out = run_proposed(clock, device, (0.9, 0.9))
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
        scores = (0.9, 0.9)
        out = run_proposed(clock, device, scores)

        expected_i = _first_admitted_candidate_oracle(device, harvest, v0)
        assert expected_i == 7
        assert out.started_at == candidate_start_times(0.0, device.schedule)[expected_i]
        assert out.started_at == pytest.approx(1.4, abs=1e-12)
        assert not out.deferred and out.decision is not None

    def test_single_pipeline_per_window(self):
        device = DeviceConfig.default()
        clock = _engine(device, HarvestProfile.constant(0.0), 4.5)
        run_proposed(clock, device, (0.5, 0.5))
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
