import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from trace_columns import trace_of
from zedsim.config import DeviceConfig
from zedsim.errors import DomainError
from zedsim.scheduler import (
    ExitDecision,
    ExitTaken,
    Thresholds,
    evaluate_ex1,
    plan,
    run_window,
)
from zedsim.traces import (
    NO_PERSON,
    PERSON,
    GeneratorSpec,
    InferenceInstance,
    SweepCell,
    balanced_call,
    generate_trace,
    sweep_thresholds,
)

DEVICE = DeviceConfig.default()
# escalation stage, green LED and the dearer (red) result LED
ESCALATION_J = sum(map(DEVICE.stage_energy, ("inference_ex1_to_ex2", "led_green", "led_red")))


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


def decide(variant, inst, readings, device=DEVICE):
    """One window of ``variant`` with a single admission instant."""
    one_attempt = device._replace(schedule=device.schedule._replace(n_attempts=1))
    return run_window(0, ScriptedClock(readings), one_attempt, inst,
                      plan(one_attempt, variant, "mosfet"))


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


class TestFallbackAndEx2:
    def test_fallback_tie_is_person(self):
        assert balanced_call(0.5) == PERSON

    def test_fallback_below(self):
        assert balanced_call(0.49) == NO_PERSON

    def test_fallback_upper_band(self):
        assert balanced_call(0.69) == PERSON

    def test_ex2_tie_is_person(self):
        assert balanced_call(0.5) == PERSON

    def test_ex2_extremes(self):
        assert balanced_call(0.0) == NO_PERSON
        assert balanced_call(1.0) == PERSON


class TestPolicyISelect:
    """Policy I admits the deepest path whose requirement the reading covers:
    81.407 mJ shallow and 86.797 mJ deep under the mosfet gate."""

    def test_deep_feasible(self):
        out = decide("policy_i", InferenceInstance(0, 0.2, 0.9, 1), [86.9e-3])
        assert out.decision == ExitDecision(ExitTaken.EX2, PERSON)
        assert out.admission_usable == 86.9e-3

    def test_only_shallow_feasible(self):
        out = decide("policy_i", InferenceInstance(0, 0.2, 0.9, 1), [84e-3])
        assert out.decision == ExitDecision(ExitTaken.EX1, NO_PERSON)

    def test_nothing_feasible(self):
        out = decide("policy_i", InferenceInstance(0, 0.2, 0.9, 1), [81e-3])
        assert out.deferred and out.decision is None

    def test_bad_order(self):
        # a shallow path dearer than the deep one is no error: the options
        # are tried in the plan's order, deep first
        device = DeviceConfig.from_dict({"stages": {
            "inference_ex1": {"current_amps": 0.1},
            "inference_ex1_to_ex2": {"current_amps": 1e-3, "duration_seconds": 0.1},
        }})
        out = decide("policy_i", InferenceInstance(0, 0.9, 0.9, 1), [0.3], device)
        assert out.decision.exit_taken is ExitTaken.EX2


class TestDecideProposed:
    def test_confident_early_exit(self):
        inst = InferenceInstance(0, 0.9, 0.9, 1)
        out = decide("proposed", inst, [100.0])
        d = out.decision
        assert d.exit_taken is ExitTaken.EX1
        assert d.prediction == PERSON
        # no escalation requested, so none denied
        assert out.escalation_usable is None and d.exit_taken is not ExitTaken.EX1_FALLBACK

    def test_ambiguous_escalates(self):
        inst = InferenceInstance(0, 0.55, 0.2, 0)
        out = decide("proposed", inst, [100.0, 100.0])
        d = out.decision
        assert d.exit_taken is ExitTaken.EX2
        assert d.prediction == NO_PERSON
        assert out.escalation_usable is not None  # escalation requested

    def test_escalation_denied_falls_back(self):
        inst = InferenceInstance(0, 0.55, 0.2, 0)
        out = decide("proposed", inst, [100.0, 1e-6])
        d = out.decision
        assert d.exit_taken is ExitTaken.EX1_FALLBACK
        assert d.prediction == PERSON  # 0.5 <= o1 < gamma2
        # escalation requested, then denied
        assert out.escalation_usable is not None and d.exit_taken is ExitTaken.EX1_FALLBACK
        assert out.escalation_usable == 1e-6

    def test_admission_boundary_is_the_compiled_need(self):
        # a reading equal to the compiled float admits, one ulp less defers
        (need,) = plan(DEVICE, "proposed", "mosfet")[0].needs
        inst = InferenceInstance(0, 0.9, 0.9, 1)
        assert decide("proposed", inst, [need]).started_at == 0.0
        assert decide("proposed", inst, [math.nextafter(need, 0.0)]).deferred

    def test_admission_denied(self):
        inst = InferenceInstance(0, 0.9, 0.9, 1)
        out = decide("proposed", inst, [0.0])
        assert out.deferred and out.decision is None and out.started_at is None

    def test_measurement_brownout_defers(self):
        # the admission reading never arrives: the window is deferred, not failed
        inst = InferenceInstance(0, 0.9, 0.9, 1)
        clock = ScriptedClock([])
        one_attempt = DEVICE._replace(schedule=DEVICE.schedule._replace(n_attempts=1))
        out = run_window(0, clock, one_attempt, inst, plan(one_attempt, "proposed", "mosfet"))
        assert out.deferred and not out.power_failure
        assert clock.events == ["window:0", "measurement_brownout"]

    def test_energy_safety_property(self):
        # a deep exit is never reported when the second reading is short
        rng = random.Random(5)
        need = ESCALATION_J + DEVICE.schedule.guard_delta_joules
        for _ in range(500):
            inst = InferenceInstance(0, rng.random(), rng.random(), rng.randint(0, 1))
            second = rng.uniform(0.0, 2.0 * need)
            d = decide("proposed", inst, [1.0, second]).decision
            if d.exit_taken is ExitTaken.EX2:
                assert second >= need

    def test_policy_ii_always_escalates_on_ambiguity(self):
        inst = InferenceInstance(0, 0.55, 0.2, 0)
        out = decide("policy_ii", inst, [1.0, 0.0])
        assert out.decision.exit_taken is ExitTaken.EX2
        assert out.escalation_usable == 0.0

    def test_determinism(self):
        rng = random.Random(9)
        instances = [
            InferenceInstance(i, rng.random(), rng.random(), rng.randint(0, 1))
            for i in range(100)
        ]
        device = DEVICE._replace(thresholds=Thresholds(0.2, 0.8))
        a = [decide("proposed", i, [1.0, 1.0], device) for i in instances]
        b = [decide("proposed", i, [1.0, 1.0], device) for i in instances]
        assert a == b


class TestPowerFailureAfterAdmission:
    """A pipeline that browns out once admitted is a power failure: it consumed
    its instance but made no call."""

    @pytest.mark.parametrize("variant, inst, readings, fail_at, escalation_usable", [
        # the escalation measurement of an ambiguous instance gets no reading
        ("proposed", InferenceInstance(0, 0.55, 0.2, 0), [1.0], None, None),
        ("proposed", InferenceInstance(0, 0.9, 0.9, 1), [1.0], "capture_preprocess", None),
        # the result LED of each exit browns out
        ("proposed", InferenceInstance(0, 0.9, 0.9, 1), [1.0], "led_blue", None),
        ("proposed", InferenceInstance(0, 0.55, 0.2, 0), [1.0, 1.0], "led_red", 1.0),
        ("proposed", InferenceInstance(0, 0.55, 0.2, 0), [1.0, 0.0], "led_blue", 0.0),
        ("baseline", InferenceInstance(0, 0.2, 0.9, 1), [1.0], "led_blue", None),
    ], ids=["escalation-measurement", "capture", "led-ex1", "led-ex2", "led-fallback",
            "led-baseline"])
    def test_no_decision(self, variant, inst, readings, fail_at, escalation_usable):
        clock = ScriptedClock(readings, fail_at)
        one_attempt = DEVICE._replace(schedule=DEVICE.schedule._replace(n_attempts=1))
        out = run_window(0, clock, one_attempt, inst, plan(one_attempt, variant, "mosfet"))
        assert out.power_failure and not out.deferred
        assert out.decision is None and out.correct is None
        assert out.started_at == 0.0 and out.instance_id == 0
        assert out.escalation_usable == escalation_usable
        assert clock.events == ["window:0", "admit", "power_failure"]


@pytest.fixture(scope="module")
def calibrated_trace():
    return generate_trace(GeneratorSpec(5000, 0.7265, 0.8309, 0.5386, 7))


class TestSweep:
    def test_degenerate_band_matches_single_threshold(self, calibrated_trace):
        (cell,) = sweep_thresholds(calibrated_trace, [Thresholds(0.5, 0.5)])
        assert cell.n_ex2 == 0
        single = sum(
            (inst.o1 >= 0.5) == bool(inst.label) for inst in calibrated_trace
        ) / len(calibrated_trace)
        assert cell.acc_total == pytest.approx(single, abs=1e-12)
        assert cell.acc_total == cell.acc_ex1
        assert cell.acc_ex2 is None

    def test_everything_escalates(self):
        trace = trace_of([
            InferenceInstance(0, 0.4, 0.9, 1),
            InferenceInstance(1, 0.6, 0.1, 0),
            InferenceInstance(2, 0.5, 0.5, 1),
        ])
        (cell,) = sweep_thresholds(trace, [Thresholds(0.0, 1.0)])
        assert cell.n_ex1 == 0
        assert cell.acc_ex1 is None
        assert cell.acc_total == cell.acc_ex2 == 1.0

    def test_wide_band_beats_degenerate_on_calibrated_trace(self, calibrated_trace):
        wide, degenerate = sweep_thresholds(
            calibrated_trace, [Thresholds(0.1, 0.9), Thresholds(0.5, 0.5)]
        )
        assert wide.acc_total >= degenerate.acc_total

    def test_partition_property(self, calibrated_trace):
        rng = random.Random(3)
        grid = [
            Thresholds(rng.uniform(0, 0.5), rng.uniform(0.5, 1.0)) for _ in range(25)
        ]
        for cell in sweep_thresholds(calibrated_trace, grid):
            assert cell.n_ex1 + cell.n_ex2 == len(calibrated_trace)

    def test_monotone_escalation_with_band_widening(self, calibrated_trace):
        bands = [Thresholds(0.5 - w, 0.5 + w) for w in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)]
        counts = [c.n_ex2 for c in sweep_thresholds(calibrated_trace, bands)]
        assert counts == sorted(counts)

    def test_empty_trace_rejected(self):
        with pytest.raises(DomainError):
            sweep_thresholds(trace_of([]), [Thresholds(0.3, 0.7)])


def _sweep_oracle(trace, grid):
    """Reference sweep: every instance through evaluate_ex1/balanced_call, per cell."""
    cells = []
    for th in grid:
        n_ex1 = n_ex2 = ok_ex1 = ok_ex2 = 0
        for inst in trace:
            call = evaluate_ex1(inst.o1, th)
            if call is None:
                n_ex2 += 1
                ok_ex2 += balanced_call(inst.o2) == inst.label
            else:
                n_ex1 += 1
                ok_ex1 += call == inst.label
        cells.append(
            SweepCell(
                th.gamma1,
                th.gamma2,
                ok_ex1 / n_ex1 if n_ex1 else None,
                ok_ex2 / n_ex2 if n_ex2 else None,
                (ok_ex1 + ok_ex2) / len(trace),
                n_ex1,
                n_ex2,
            )
        )
    return cells


# scores hit the grid values often, so ties at gamma1 and gamma2 occur
GRID_VALUES = (0.0, 0.1, 0.3, 0.45, 0.5, 0.55, 0.7, 0.9, 1.0)
tie_scores = st.one_of(st.sampled_from(GRID_VALUES), st.floats(0.0, 1.0))
sweep_rows = st.lists(st.tuples(tie_scores, tie_scores, st.integers(0, 1)), min_size=1,
                      max_size=40)
grid_cells = st.one_of(
    st.builds(Thresholds, st.sampled_from([g for g in GRID_VALUES if g <= 0.5]),
              st.sampled_from([g for g in GRID_VALUES if g >= 0.5])),
    st.builds(Thresholds, st.floats(0.0, 0.5), st.floats(0.5, 1.0)),
)


@given(sweep_rows, st.lists(grid_cells, max_size=8))
@example([(0.4, 0.9, 1), (0.6, 0.1, 0)], [])  # (0, 1) leaves exit 1 empty
def test_sweep_matches_per_instance_oracle(rows, drawn):
    trace = trace_of(InferenceInstance(k, *row) for k, row in enumerate(rows))
    # (0.5, 0.5) leaves exit 2 empty; (0, 1) sends all but the poles to it
    grid = [Thresholds(0.5, 0.5), Thresholds(0.0, 1.0)] + drawn
    cells = sweep_thresholds(trace, iter(grid))
    assert cells == _sweep_oracle(trace, grid)
    for cell in cells:
        assert type(cell.n_ex1) is int and type(cell.n_ex2) is int
        assert type(cell.acc_total) is float
        for acc in (cell.acc_ex1, cell.acc_ex2):
            assert acc is None or type(acc) is float


class TestTypes:
    def test_instance_bounds(self):
        with pytest.raises(DomainError):
            InferenceInstance(3, 1.2, 0.5, 1)
        with pytest.raises(DomainError):
            InferenceInstance(3, 0.5, -0.1, 1)
        with pytest.raises(DomainError):
            InferenceInstance(3, 0.5, 0.5, 2)

    def test_threshold_bounds(self):
        with pytest.raises(DomainError):
            Thresholds(0.6, 0.7)
        with pytest.raises(DomainError):
            Thresholds(0.3, 0.4)
