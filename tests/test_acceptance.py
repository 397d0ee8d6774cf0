"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines. Criteria 9
and 10 (ledger closure, bit-for-bit replay) are checked for every simulation
run of criteria 4-7, which a module-scoped fixture builds once, so each of
them checks all of the runs whichever tests are selected and in whatever order.
"""

import math
import random

import pytest

from conftest import time_limited
from trace_columns import Row, rows, trace_of
from zedsim.config import DeviceConfig
from zedsim.pmu import HarvestProfile
from zedsim.scheduler import Thresholds, evaluate_ex1
from zedsim.sim import SimConfig, simulate
from zedsim.traces import balanced_call, sweep_thresholds

DEVICE = DeviceConfig.default()

# measured per-state energy of the reference device, mJ
PUBLISHED_MJ = {
    "capture_preprocess": 72.896,
    "capture_preprocess_load_switch": 110.442,
    "inference_ex1": 8.118,
    "inference_ex2": 13.390,
    "measurement": 0.8934,
    "led_green": 0.1182,
    "led_blue": 0.1885,
    "led_red": 0.3931,
}

# five 200-s piecewise-constant harvest levels (mA); the >4 mA intervals must
# drive the buffer into saturation
STAIRCASE_MA = [0.0, 10.0, 3.0, 6.0, 0.0]


def run_inputs(trace):
    """(label, cfg, harvest, trace) of each simulation criteria 4-7 check."""
    zero = HarvestProfile.constant(0.0)
    yield "c4-proposed", SimConfig(DEVICE, 4.5, 200.0, "proposed"), zero, trace
    yield "c4-baseline", SimConfig(DEVICE, 4.5, 200.0, "baseline"), zero, trace

    for c in (0.1, 0.25, 0.5, 1.0, 1.5):
        device = DEVICE.with_capacitance(c)
        for variant in ("proposed", "baseline"):
            yield (f"c5-{variant}-{c}", SimConfig(device, 4.0, 200.0, variant),
                   HarvestProfile.constant(2e-3), trace)

    device = DEVICE.with_capacitance(0.1)
    harvest = HarvestProfile.from_pairs(
        [(i * 200.0, ma * 1e-3) for i, ma in enumerate(STAIRCASE_MA)]
    )
    yield "c6-adaptive", SimConfig(device, 4.0, 1000.0, "proposed"), harvest, trace
    one_attempt = device._replace(schedule=device.schedule._replace(n_attempts=1))
    yield "c6-fixed", SimConfig(one_attempt, 4.0, 1000.0, "proposed"), harvest, trace

    rng = random.Random(20260809)
    for i in range(100):
        device, v0, harvest, instances = _random_scenario(rng)
        yield f"c7-{i}", SimConfig(device, v0, 60.0, "proposed"), harvest, instances
    device, v0, harvest, instances = _adversarial_setup()
    yield "c7-adversarial-ii", SimConfig(device, v0, 10.0, "policy_ii"), harvest, instances
    yield "c7-adversarial-prop", SimConfig(device, v0, 10.0, "proposed"), harvest, instances


@pytest.fixture(scope="module")
def runs(calibrated_trace):
    """label -> (cfg, harvest, trace, result) of every run of criteria 4-7."""
    built = {}
    with time_limited():  # a run that hangs fails the criteria instead of the suite
        for label, cfg, harvest, trace in run_inputs(calibrated_trace):
            result = simulate(cfg, harvest, trace)
            assert abs(result.totals.ledger_residual_j) < 1e-6, f"ledger open for {label}"
            built[label] = (cfg, harvest, trace, result)
    return built


def result_of(runs, label):
    return runs[label][-1]


def report(number, name, ok, detail=""):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    return ok


def test_criterion_1_stage_energy_consistency():
    worst = 0.0
    for name, energy_mj in PUBLISHED_MJ.items():
        got = DEVICE.stages[name].energy_joules
        rel = abs(got - energy_mj * 1e-3) / (energy_mj * 1e-3)
        worst = max(worst, rel)
    ok = worst <= 0.005
    assert report(1, "stage-energy consistency", ok, f"(worst rel error {worst:.2e})")


def test_criterion_2_power_gating_delta():
    ratio = DEVICE.stage_energy("capture_preprocess") / DEVICE.stage_energy(
        "capture_preprocess_load_switch"
    )
    ok = abs(ratio - 0.660) <= 0.005
    assert report(2, "power-gating delta", ok, f"(ratio {ratio:.4f})")


def test_criterion_3_inference_time_factor():
    t1 = DEVICE.stages["inference_ex1"].duration_seconds
    t2 = DEVICE.stages["inference_ex2"].duration_seconds
    esc = DEVICE.stages["inference_ex1_to_ex2"].duration_seconds
    ratio = t2 / t1
    ok = abs(ratio - 1.587) <= 0.005 and abs((t1 + esc) / t1 - ratio) < 1e-9
    assert report(3, "inference-time factor", ok, f"(ratio {ratio:.4f})")


def _expected_energy_per_policy(device, trace, n_windows):
    """Closed-form per-window energy oracle from the trace's exit pattern.

    Independent of the simulation engine: sums stage energies per instance
    assuming every window is admitted and every escalation is feasible, which
    holds for the criterion-4 setup (full buffer, horizon energy well inside
    the usable reserve).
    """
    th = device.thresholds
    meas = device.stage_energy("measurement")
    led = {1: device.stage_energy("led_blue"), 0: device.stage_energy("led_red")}
    proposed = baseline = 0.0
    for inst in rows(trace)[:n_windows]:
        e = meas + device.stage_energy("capture_preprocess") + device.stage_energy("inference_ex1")
        pred = evaluate_ex1(inst.o1, th)
        if pred is None:
            e += meas + device.stage_energy("inference_ex1_to_ex2") + device.stage_energy("led_green")
            pred = balanced_call(inst.o2)
        proposed += e + led[pred]
        pred_b = balanced_call(inst.o2)
        baseline += (
            meas
            + device.stage_energy("capture_preprocess_load_switch")
            + device.stage_energy("inference_ex2")
            + led[pred_b]
        )
    return proposed, baseline


def test_criterion_4_energy_reduction_vs_baseline(runs, calibrated_trace):
    prop, base = result_of(runs, "c4-proposed"), result_of(runs, "c4-baseline")
    assert prop.totals.completed_pipelines == base.totals.completed_pipelines == 20
    reduction = 1.0 - prop.totals.energy_consumed_j / base.totals.energy_consumed_j

    e_prop, e_base = _expected_energy_per_policy(DEVICE, calibrated_trace, 20)
    assert prop.totals.energy_consumed_j == pytest.approx(e_prop, rel=1e-9)
    assert base.totals.energy_consumed_j == pytest.approx(e_base, rel=1e-9)
    oracle_reduction = 1.0 - e_prop / e_base
    assert reduction == pytest.approx(oracle_reduction, abs=1e-9)

    ok = abs(reduction - 0.296) <= 0.05
    assert report(4, "energy reduction vs single-exit baseline", ok,
                  f"(reduction {reduction * 100:.1f}%, oracle {oracle_reduction * 100:.1f}%)")


def test_criterion_5_completed_pipelines_dominance(runs):
    pairs = []
    for c in (0.1, 0.25, 0.5, 1.0, 1.5):
        p, b = result_of(runs, f"c5-proposed-{c}"), result_of(runs, f"c5-baseline-{c}")
        pairs.append((c, p.totals.completed_pipelines, b.totals.completed_pipelines))
    ok = all(p >= b for _, p, b in pairs)
    assert report(5, "completed-pipelines dominance", ok, f"({pairs})")


def test_criterion_6_scheduling_rule_dominance(runs):
    adaptive, fixed = result_of(runs, "c6-adaptive"), result_of(runs, "c6-fixed")

    def per_interval(result):
        counts = [0] * len(STAIRCASE_MA)
        for w in result.windows:
            if w.started_at is not None and not w.power_failure:
                counts[int(w.started_at // 200.0)] += 1
        return counts

    ca, cf = per_interval(adaptive), per_interval(fixed)
    dominance = all(a >= f for a, f in zip(ca, cf))

    saturation = True
    for result in (adaptive, fixed):
        peaks = [0.0] * len(STAIRCASE_MA)
        for t, v, _ in result.trajectory:
            peaks[min(int(t // 200.0), len(peaks) - 1)] = max(
                peaks[min(int(t // 200.0), len(peaks) - 1)], v
            )
        for level, peak in zip(STAIRCASE_MA, peaks):
            if level > 4.0 and peak < DEVICE.capacitor.v_max - 1e-9:
                saturation = False
    ok = dominance and saturation
    assert report(6, "scheduling-rule dominance", ok,
                  f"(adaptive {ca} vs fixed {cf}; saturation {saturation})")


def _random_scenario(rng):
    c = rng.uniform(0.05, 1.5)
    device = DEVICE.with_capacitance(c)._replace(thresholds=Thresholds(
        round(rng.uniform(0.0, 0.5), 3), round(rng.uniform(0.5, 1.0), 3)
    ))
    v0 = rng.uniform(device.capacitor.v_off, device.capacitor.v_max)
    segments = [(0.0, rng.uniform(0.0, 8e-3))]
    for k in range(1, 4):
        segments.append((k * 15.0, rng.uniform(0.0, 8e-3)))
    harvest = HarvestProfile.from_pairs(segments)
    trace = trace_of(
        Row(i, rng.random(), rng.random(), rng.randint(0, 1))
        for i in range(6)
    )
    return device, v0, harvest, trace


def _adversarial_setup():
    """Buffer sized for one shallow run; an ambiguous instance then demands
    escalation that the remaining charge cannot carry."""
    device = DEVICE.with_capacitance(0.05)
    shallow = sum(map(device.stage_energy, ("capture_preprocess", "inference_ex1", "led_red")))
    need = device.stage_energy("measurement") * 2 + shallow + 1e-3
    v0 = math.sqrt(device.capacitor.v_off**2 + 2 * need / 0.05)
    trace = trace_of([Row(0, 0.55, 0.9, 1)])
    return device, v0, HarvestProfile.constant(0.0), trace


def test_criterion_7_no_power_failure_invariant(runs):
    total_failures = sum(result_of(runs, f"c7-{i}").totals.power_failures for i in range(100))
    proposed_ok = total_failures == 0

    risky, safe = result_of(runs, "c7-adversarial-ii"), result_of(runs, "c7-adversarial-prop")
    adversarial_ok = risky.totals.power_failures >= 1 and safe.totals.power_failures == 0

    ok = proposed_ok and adversarial_ok
    assert report(
        7, "no-power-failure invariant", ok,
        f"(proposed failures {total_failures}/100 runs; "
        f"unguarded escalation failures {risky.totals.power_failures})",
    )


def test_criterion_8_threshold_degeneracy_and_monotonicity(calibrated_trace):
    (degenerate,) = sweep_thresholds(calibrated_trace, [Thresholds(0.5, 0.5)])
    degeneracy = degenerate.n_ex2 == 0
    for o1 in calibrated_trace.o1:
        single = 1 if o1 >= 0.5 else 0
        degeneracy &= evaluate_ex1(o1, Thresholds(0.5, 0.5)) == single

    widths = (0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
    cells = sweep_thresholds(
        calibrated_trace, [Thresholds(0.5 - w, 0.5 + w) for w in widths]
    )
    monotone = all(a.n_ex2 <= b.n_ex2 for a, b in zip(cells, cells[1:]))

    wide, narrow = sweep_thresholds(
        calibrated_trace, [Thresholds(0.1, 0.9), Thresholds(0.45, 0.55)]
    )
    trend = wide.acc_total >= narrow.acc_total

    ok = degeneracy and monotone and trend
    assert report(
        8, "threshold degeneracy and monotonicity", ok,
        f"(acc wide {wide.acc_total:.4f} >= acc narrow {narrow.acc_total:.4f})",
    )


def test_criterion_9_energy_ledger_closure(runs):
    residuals = [abs(result.totals.ledger_residual_j) for *_, result in runs.values()]
    ok = max(residuals) < 1e-6
    assert report(
        9, "energy ledger closure", ok,
        f"({len(residuals)} runs, worst residual {max(residuals):.2e} J)",
    )


def test_criterion_10_determinism(runs):
    failures = []
    for label, (cfg, harvest, trace, result) in runs.items():
        if simulate(cfg, harvest, trace) != result:
            failures.append(label)
    ok = not failures
    assert report(10, "determinism", ok, f"({len(runs)} runs replayed bit-for-bit)"), failures
