import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from zedsim.config import DeviceConfig
from zedsim.energy import EnergyBudget
from zedsim.errors import DomainError
from zedsim.policy import (
    NO_PERSON,
    PERSON,
    ExitDecision,
    ExitTaken,
    InferenceInstance,
    Region,
    SweepCell,
    Thresholds,
    decide_policy_ii,
    decide_proposed,
    evaluate_ex1,
    evaluate_ex2,
    fallback_label,
    policy_i_select,
    sweep_thresholds,
)
from zedsim.traces import GeneratorSpec, generate_trace

BUDGET = DeviceConfig.default().budget()


def make_oracle(values):
    it = iter(values)
    return lambda: next(it)


class TestEvaluateEx1:
    def test_confident_person(self):
        assert evaluate_ex1(0.95, Thresholds(0.3, 0.7)) is Region.PERSON

    def test_boundary_no_person(self):
        assert evaluate_ex1(0.3, Thresholds(0.3, 0.7)) is Region.NO_PERSON

    def test_degenerate_band_person_wins(self):
        assert evaluate_ex1(0.5, Thresholds(0.5, 0.5)) is Region.PERSON

    def test_ambiguous_open_interval(self):
        th = Thresholds(0.3, 0.7)
        assert evaluate_ex1(0.31, th) is Region.AMBIGUOUS
        assert evaluate_ex1(0.69, th) is Region.AMBIGUOUS
        assert evaluate_ex1(0.7, th) is Region.PERSON


class TestFallbackAndEx2:
    def test_fallback_tie_is_person(self):
        assert fallback_label(0.5) == PERSON

    def test_fallback_below(self):
        assert fallback_label(0.49) == NO_PERSON

    def test_fallback_upper_band(self):
        assert fallback_label(0.69) == PERSON

    def test_ex2_tie_is_person(self):
        assert evaluate_ex2(0.5) == PERSON

    def test_ex2_extremes(self):
        assert evaluate_ex2(0.0) == NO_PERSON
        assert evaluate_ex2(1.0) == PERSON


class TestPolicyISelect:
    def test_deep_feasible(self):
        assert policy_i_select(13.4e-3, 8.118e-3, 13.390e-3) is ExitTaken.EX2

    def test_only_shallow_feasible(self):
        assert policy_i_select(10e-3, 8.118e-3, 13.390e-3) is ExitTaken.EX1

    def test_nothing_feasible(self):
        assert policy_i_select(0.0, 8.118e-3, 13.390e-3) is ExitTaken.NONE

    def test_bad_order(self):
        with pytest.raises(DomainError):
            policy_i_select(1.0, 2.0, 1.0)


class TestDecideProposed:
    def test_confident_early_exit(self):
        inst = InferenceInstance(0, 0.9, 0.9, 1)
        d = decide_proposed(inst, Thresholds(0.3, 0.7), BUDGET, make_oracle([100.0]))
        assert d.exit_taken is ExitTaken.EX1
        assert d.prediction == PERSON
        assert not d.escalation_requested and not d.energy_denied

    def test_ambiguous_escalates(self):
        inst = InferenceInstance(0, 0.55, 0.2, 0)
        d = decide_proposed(inst, Thresholds(0.3, 0.7), BUDGET, make_oracle([100.0, 100.0]))
        assert d.exit_taken is ExitTaken.EX2
        assert d.prediction == NO_PERSON
        assert d.escalation_requested

    def test_escalation_denied_falls_back(self):
        inst = InferenceInstance(0, 0.55, 0.2, 0)
        d = decide_proposed(inst, Thresholds(0.3, 0.7), BUDGET, make_oracle([100.0, 1e-6]))
        assert d.exit_taken is ExitTaken.EX1_FALLBACK
        assert d.prediction == PERSON  # 0.5 <= o1 < gamma2
        assert d.energy_denied and d.escalation_requested

    def test_admission_denied(self):
        inst = InferenceInstance(0, 0.9, 0.9, 1)
        d = decide_proposed(inst, Thresholds(0.3, 0.7), BUDGET, make_oracle([0.0]))
        assert d.exit_taken is ExitTaken.NONE
        assert d.prediction is None and d.energy_denied

    def test_oracle_failure_is_fault(self):
        inst = InferenceInstance(0, 0.9, 0.9, 1)
        d = decide_proposed(inst, Thresholds(0.3, 0.7), BUDGET, make_oracle([]))
        assert d.exit_taken is ExitTaken.NONE and d.fault

    def test_energy_safety_property(self):
        # a deep exit is never reported when the second reading is short
        rng = random.Random(5)
        th = Thresholds(0.3, 0.7)
        need = BUDGET.e_req_escalate + BUDGET.guard_delta
        for _ in range(500):
            inst = InferenceInstance(0, rng.random(), rng.random(), rng.randint(0, 1))
            second = rng.uniform(0.0, 2.0 * need)
            d = decide_proposed(inst, th, BUDGET, make_oracle([1.0, second]))
            if d.exit_taken is ExitTaken.EX2:
                assert second >= need

    def test_policy_ii_always_escalates_on_ambiguity(self):
        inst = InferenceInstance(0, 0.55, 0.2, 0)
        d = decide_policy_ii(inst, Thresholds(0.3, 0.7))
        assert d.exit_taken is ExitTaken.EX2

    def test_determinism(self):
        rng = random.Random(9)
        instances = [
            InferenceInstance(i, rng.random(), rng.random(), rng.randint(0, 1))
            for i in range(100)
        ]
        th = Thresholds(0.2, 0.8)
        a = [decide_proposed(i, th, BUDGET, make_oracle([1.0, 1.0])) for i in instances]
        b = [decide_proposed(i, th, BUDGET, make_oracle([1.0, 1.0])) for i in instances]
        assert a == b


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
        trace = [
            InferenceInstance(0, 0.4, 0.9, 1),
            InferenceInstance(1, 0.6, 0.1, 0),
            InferenceInstance(2, 0.5, 0.5, 1),
        ]
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
            sweep_thresholds([], [Thresholds(0.3, 0.7)])


def _sweep_oracle(trace, grid):
    """Reference sweep: every instance through evaluate_ex1/evaluate_ex2, per cell."""
    cells = []
    for th in grid:
        n_ex1 = n_ex2 = ok_ex1 = ok_ex2 = 0
        for inst in trace:
            region = evaluate_ex1(inst.o1, th)
            if region is Region.AMBIGUOUS:
                n_ex2 += 1
                ok_ex2 += evaluate_ex2(inst.o2) == inst.label
            else:
                n_ex1 += 1
                pred = PERSON if region is Region.PERSON else NO_PERSON
                ok_ex1 += pred == inst.label
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
    trace = [InferenceInstance(k, *row) for k, row in enumerate(rows)]
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

    def test_decision_consistency(self):
        with pytest.raises(DomainError):
            ExitDecision(ExitTaken.NONE, PERSON)
        with pytest.raises(DomainError):
            ExitDecision(ExitTaken.EX1, None)
