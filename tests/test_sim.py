import math
import random
import tracemalloc

import pytest

from euler_oracle import initial_state, step, usable_energy
from zedsim.cli import write_trajectory_csv
from zedsim.config import DeviceConfig
from zedsim.energy import CapacitorSpec
from zedsim.errors import ConfigError, DomainError
from zedsim.pmu import HarvestProfile, charge_time
from zedsim.policy import (
    NO_PERSON,
    PERSON,
    ExitDecision,
    ExitTaken,
    InferenceInstance,
    Region,
    Thresholds,
    evaluate_ex1,
    evaluate_ex2,
    fallback_label,
)
from zedsim.sim import SimConfig, _Engine, _fsum, energy_ledger_residual, simulate
from zedsim.traces import GeneratorSpec, generate_trace

DEVICE = DeviceConfig.default()


@pytest.fixture(scope="module")
def trace5000():
    return generate_trace(GeneratorSpec(5000, 0.7265, 0.8309, 0.5386, 7))


def stage_sum(device, *names):
    return sum(map(device.stage_energy, names))


def decide_proposed(inst, device, readings):
    """Replay oracle of the proposed policy: its decision from the usable
    energy read at admission and, for an ambiguous shallow score, before
    escalating. None when the admission reading is short."""
    readings = iter(readings)
    guard = device.schedule.guard_delta_joules
    # the shallow path with the dearer LED, plus the escalation measurement
    admit = stage_sum(device, "capture_preprocess", "inference_ex1", "led_red", "measurement")
    if next(readings) < admit + guard:
        return None
    region = evaluate_ex1(inst.o1, device.thresholds)
    if region is not Region.AMBIGUOUS:
        return ExitDecision(ExitTaken.EX1, PERSON if region is Region.PERSON else NO_PERSON)
    escalate = stage_sum(device, "inference_ex1_to_ex2", "led_green", "led_red")
    if next(readings) >= escalate + guard:
        return ExitDecision(ExitTaken.EX2, evaluate_ex2(inst.o2))
    return ExitDecision(ExitTaken.EX1_FALLBACK, fallback_label(inst.o1))


def tight_budget_device():
    """Small buffer sized so one shallow run fits but escalation does not."""
    device = DEVICE.with_capacitance(0.05)
    shallow = stage_sum(device, "capture_preprocess", "inference_ex1", "led_red")
    need = device.stage_energy("measurement") + shallow + 2e-3
    v0 = math.sqrt(device.capacitor.v_off**2 + 2 * need / 0.05)
    return device, v0


class TestSimulate:
    def test_saturates_at_ceiling_under_strong_harvest(self, trace5000):
        device = DEVICE.with_capacitance(0.1)
        cfg = SimConfig(device, 4.0, 150.0, "proposed")
        harvest = HarvestProfile.from_pairs([(0.0, 1e-3), (50.0, 5e-3)])
        result = simulate(cfg, harvest, trace5000)
        strong = [v for t, v, _ in result.trajectory if t >= 60.0]
        assert max(strong) == device.capacitor.v_max
        assert result.totals.clamp_loss_j > 0

    def test_zero_harvest_at_floor_is_flat(self, trace5000):
        cfg = SimConfig(DEVICE, 3.6, 200.0, "proposed")
        result = simulate(cfg, HarvestProfile.constant(0.0), trace5000)
        assert result.totals.completed_pipelines == 0
        assert result.totals.power_failures == 0
        assert result.totals.energy_consumed_j == 0.0
        assert all(v == 3.6 for _, v, _ in result.trajectory)

    @pytest.mark.parametrize("initial_v, horizon", [
        (4.5, math.nan), (4.5, math.inf), (math.nan, 200.0), (math.inf, 200.0),
    ])
    def test_non_finite_config_rejected(self, initial_v, horizon):
        with pytest.raises(ConfigError, match="finite"):
            SimConfig(DEVICE, initial_v, horizon)

    def test_trace_shorter_than_windows_rejected(self):
        cfg = SimConfig(DEVICE, 4.5, 200.0)
        with pytest.raises(ConfigError, match="windows"):
            simulate(cfg, HarvestProfile.constant(0.0), [])

    def test_totals_partition(self, trace5000):
        cfg = SimConfig(DEVICE, 4.5, 200.0, "proposed")
        result = simulate(cfg, HarvestProfile.constant(2e-3), trace5000)
        t = result.totals
        assert t.n_ex1 + t.n_ex2 + t.n_fallback == t.completed_pipelines
        assert t.completed_pipelines + t.deferred_windows + t.power_failures >= t.n_windows
        for w in result.windows:
            assert w.deferred == (w.started_at is None)

    def test_trajectory_knots_are_the_piece_starts(self, trace5000):
        harvest = HarvestProfile.constant(2e-3)
        for horizon in (50.0, 20.005):
            result = simulate(SimConfig(DEVICE, 4.5, horizon, "proposed"), harvest, trace5000)
            t0, v0, current, power, _ = result.trajectory.columns
            knots = [(t, v) for t, v, _ in result.trajectory]
            # the engine's stored floats, the last row the state the run closes in
            assert knots == [*zip(t0, v0)]
            assert (t0[-1], current[-1], power[-1]) == (horizon, 0.0, 0.0)
            assert len(result.trajectory) == len(knots)
            # with harvest, every event happens at a knot: a stage or window starts a
            # piece (a static dark stretch is one piece, whatever events it spans)
            assert {t for t, _ in result.events} <= {t for t, _ in knots}

    def test_idle_current_drains_only_while_enabled(self):
        small = DEVICE._replace(idle_current_amps=5e-3)
        cfg = SimConfig(small._replace(schedule=small.schedule._replace(window_seconds=100.0)),
                        4.5, 50.0, "proposed")
        result = simulate(cfg, HarvestProfile.constant(0.0), [])
        rail = DEVICE.stage("measurement").supply_volts
        expected = rail * 5e-3 * 50.0
        assert result.totals.energy_consumed_j == pytest.approx(expected, rel=1e-6)
        # latched-off device draws nothing
        cfg_off = cfg._replace(initial_v=3.7)
        off = simulate(cfg_off, HarvestProfile.constant(0.0), [])
        assert off.totals.energy_consumed_j == 0.0

    def test_converter_efficiency_scales_buffer_draw(self):
        lossy = DEVICE._replace(converter_efficiency=0.5)
        cfg = SimConfig(DEVICE, 4.5, 10.0, "proposed")
        trace = [InferenceInstance(0, 0.9, 0.9, 1)]
        ideal = simulate(cfg, HarvestProfile.constant(0.0), trace)
        halved = simulate(cfg._replace(device=lossy), HarvestProfile.constant(0.0), trace)
        assert halved.totals.energy_consumed_j == pytest.approx(
            2.0 * ideal.totals.energy_consumed_j, rel=1e-9
        )

    def test_ledger_closes(self, trace5000):
        for harvest in (HarvestProfile.constant(0.0), HarvestProfile.constant(2e-3)):
            cfg = SimConfig(DEVICE.with_capacitance(0.25), 4.3, 120.0, "proposed")
            result = simulate(cfg, harvest, trace5000)
            assert abs(energy_ledger_residual(result)) < 1e-6

    def test_totals_no_float_holds_are_a_domain_error(self, trace5000):
        # fsum raises on an intermediate overflow and on inf - inf; both are nan
        assert math.isnan(_fsum([1.7e308, 1.7e308], [-1e308]))
        assert math.isnan(_fsum([math.inf], [-math.inf]))
        cfg = SimConfig(DEVICE, 4.5, 1000.0, "proposed")
        with pytest.raises(DomainError, match="energy totals not finite"):
            simulate(cfg, HarvestProfile.constant(1.7e308), trace5000)

    def test_ledger_closes_to_one_ulp_over_a_week(self):
        # seven days of a clipped-sine harvest peaking at 5 mA, in 600 s windows:
        # a long horizon with few windows, over which rounding would accumulate
        day = 86400.0
        sine = [5e-3 * max(0.0, math.sin(math.pi * (h + 0.5 - 6.0) / 12.0)) for h in range(24)]
        harvest = HarvestProfile.from_pairs(
            [(d * day + h * day / 24, i) for d in range(7) for h, i in enumerate(sine)])
        device = DEVICE._replace(schedule=DEVICE.schedule._replace(window_seconds=600.0))
        trace = generate_trace(GeneratorSpec(1008, 0.7265, 0.8309, 0.5386, 0))
        result = simulate(SimConfig(device, 4.5, 7 * day, "proposed"), harvest, trace)
        assert result.totals.n_windows == 1008
        assert abs(energy_ledger_residual(result)) <= math.ulp(result.totals.harvested_j)

    def test_wall_time_gap_between_exits(self, trace5000):
        cfg = SimConfig(DEVICE, 4.5, 200.0, "proposed")
        result = simulate(cfg, HarvestProfile.constant(2e-3), trace5000)
        exit_events = [(t, lab) for t, lab in result.events if lab.startswith("exit:")]
        durations = {}
        for w in result.windows:
            if w.started_at is None or w.decision is None:
                continue
            t_exit = next(t for t, lab in exit_events if t > w.started_at)
            durations.setdefault(w.decision.exit_taken, []).append(t_exit - w.started_at)
        assert ExitTaken.EX1 in durations and ExitTaken.EX2 in durations
        gap = min(durations[ExitTaken.EX2]) - min(durations[ExitTaken.EX1])
        expected = sum(
            DEVICE.stage(n).duration_seconds
            for n in ("measurement", "inference_ex1_to_ex2", "led_green")
        )
        assert gap == pytest.approx(expected, abs=1e-9)

    def test_inference_duration_ratio(self):
        t1 = DEVICE.stage("inference_ex1").duration_seconds
        t2 = DEVICE.stage("inference_ex2").duration_seconds
        esc = DEVICE.stage("inference_ex1_to_ex2").duration_seconds
        assert (t1 + esc) / t1 == pytest.approx(t2 / t1, rel=1e-12)
        assert t2 / t1 == pytest.approx(1.587, abs=5e-3)

    def test_decisions_match_pure_policy_replay(self, trace5000):
        # the engine's windowed decisions must agree with the pure decision
        # function when fed the engine's own measured energies
        trace_by_id = {i.id: i for i in trace5000}

        def audit(result, device):
            kinds = set()
            for w in result.windows:
                if w.decision is None:
                    continue
                inst = trace_by_id[w.instance_id]
                readings = [w.admission_usable, w.escalation_usable]
                d = decide_proposed(inst, device, readings)
                assert d == w.decision
                # an escalation was requested, and read, exactly for an ambiguous score
                ambiguous = evaluate_ex1(inst.o1, device.thresholds) is Region.AMBIGUOUS
                assert (w.escalation_usable is not None) == ambiguous
                kinds.add(d.exit_taken)
            return kinds

        ample = simulate(
            SimConfig(DEVICE, 4.5, 200.0, "proposed"), HarvestProfile.constant(2e-3), trace5000
        )
        kinds = audit(ample, DEVICE)

        # a buffer sized for one shallow run only: the ambiguous instance is
        # denied escalation at the second measurement
        device, v0 = tight_budget_device()
        inst = InferenceInstance(0, 0.55, 0.9, 1)
        trace_by_id[0] = inst
        tight = simulate(
            SimConfig(device, v0, 10.0, "proposed"), HarvestProfile.constant(0.0), [inst]
        )
        kinds |= audit(tight, device)
        assert kinds == {ExitTaken.EX1, ExitTaken.EX2, ExitTaken.EX1_FALLBACK}

    def test_narrowing_band_never_costs_more(self, trace5000):
        energies = []
        for g1, g2 in ((0.45, 0.55), (0.3, 0.7), (0.1, 0.9)):
            cfg = SimConfig(DEVICE._replace(thresholds=Thresholds(g1, g2)), 4.5, 100.0, "proposed")
            energies.append(
                simulate(cfg, HarvestProfile.constant(2e-3), trace5000).totals.energy_consumed_j
            )
        assert energies == sorted(energies)

    def test_policy_ii_fails_where_proposed_falls_back(self):
        device, v0 = tight_budget_device()
        trace = [InferenceInstance(0, 0.55, 0.9, 1)]
        harvest = HarvestProfile.constant(0.0)
        risky = simulate(SimConfig(device, v0, 10.0, "policy_ii"), harvest, trace)
        assert risky.totals.power_failures == 1
        assert risky.totals.completed_pipelines == 0
        safe = simulate(SimConfig(device, v0, 10.0, "proposed"), harvest, trace)
        assert safe.totals.power_failures == 0
        assert safe.totals.n_fallback == 1
        assert abs(energy_ledger_residual(risky)) < 1e-6

    def test_escalation_ending_ulps_before_v_off_is_a_power_failure(self):
        # a 1.65 W escalation drains the buffer; find where it starts, then end it
        # one to five ulps before its v_off crossing
        def device(duration):
            return DeviceConfig.from_dict({
                "schedule": {"window_seconds": 60.0},
                "stages": {"inference_ex1_to_ex2": {"current_amps": 0.5,
                                                    "duration_seconds": duration}}})

        trace = [InferenceInstance(0, 0.5, 0.9, 1)]
        harvest = HarvestProfile.constant(0.0)
        first = simulate(SimConfig(device(10.0), 4.5, 60.0, "policy_ii"), harvest, trace)
        start = next(t for t, label in first.events if label == "stage:inference_ex1_to_ex2")
        t0, v0, *_ = first.trajectory.columns
        v_start = v0[list(t0).index(start)]
        duration = charge_time(v_start, 3.6, 0.0, 0.5 * 3.3, 1.5)
        for _ in range(5):
            duration = math.nextafter(duration, 0.0)
            cfg = SimConfig(device(duration), 4.5, 60.0, "policy_ii")
            assert simulate(cfg, harvest, trace).totals.power_failures == 1

    def test_no_power_failures_proposed_random_scenarios(self, trace5000):
        rng = random.Random(99)
        for _ in range(5):
            c = rng.choice([0.1, 0.5, 1.0])
            v0 = rng.uniform(3.6, 4.5)
            segs = [(0.0, rng.uniform(0, 6e-3))]
            for s in range(1, 4):
                segs.append((s * 25.0, rng.uniform(0, 6e-3)))
            cfg = SimConfig(DEVICE.with_capacitance(c), v0, 100.0, "proposed")
            result = simulate(cfg, HarvestProfile.from_pairs(segs), trace5000)
            assert result.totals.power_failures == 0

    def test_fixed_rule_start_implies_adaptive_start(self, trace5000):
        rng = random.Random(17)
        for _ in range(10):
            c = rng.choice([0.1, 0.5, 1.5])
            v0 = rng.uniform(3.6, 4.5)
            harvest = HarvestProfile.constant(rng.uniform(0, 4e-3))
            device = DEVICE.with_capacitance(c)
            one_attempt = device._replace(schedule=device.schedule._replace(n_attempts=1))
            fixed = simulate(SimConfig(one_attempt, v0, 10.0), harvest, trace5000)
            adaptive = simulate(SimConfig(device, v0, 10.0), harvest, trace5000)
            if fixed.windows[0].started_at is not None:
                assert adaptive.windows[0].started_at == fixed.windows[0].started_at


class TestPolicyIVariant:
    def test_policy_i_runs_deep_when_ample(self, trace5000):
        cfg = SimConfig(DEVICE, 4.5, 100.0, "policy_i")
        t = simulate(cfg, HarvestProfile.constant(2e-3), trace5000).totals
        assert t.completed_pipelines == 10
        assert t.n_ex2 == 10  # ample energy always selects the deep exit

    def test_policy_i_shallow_when_deep_infeasible(self):
        device = DEVICE.with_capacitance(0.05)
        d1 = stage_sum(device, "capture_preprocess", "inference_ex1", "led_red")
        d2 = stage_sum(device, "capture_preprocess", "inference_ex2", "led_green", "led_red")
        meas = device.stage_energy("measurement")
        need = meas + 0.5 * (d1 + d2)  # between the two depth requirements
        v0 = math.sqrt(3.6**2 + 2 * need / 0.05)
        trace = [InferenceInstance(0, 0.9, 0.9, 1)]
        t = simulate(
            SimConfig(device, v0, 10.0, "policy_i"), HarvestProfile.constant(0.0), trace
        ).totals
        assert t.completed_pipelines == 1
        assert t.n_ex1 == 1
        assert t.power_failures == 0


class TestReplay:
    def test_replay_exact(self, trace5000):
        cfg = SimConfig(DEVICE, 4.5, 100.0, "proposed")
        harvest = HarvestProfile.constant(2e-3)
        result = simulate(cfg, harvest, trace5000)
        assert simulate(cfg, harvest, trace5000) == result

    def test_replay_with_different_trace_fails_with_diff(self, trace5000):
        cfg = SimConfig(DEVICE, 4.5, 100.0, "proposed")
        harvest = HarvestProfile.constant(0.0)
        result = simulate(cfg, harvest, trace5000)
        other = generate_trace(GeneratorSpec(5000, 0.7265, 0.8309, 0.5386, 8))
        assert simulate(cfg, harvest, other) != result

    def test_one_ulp_in_one_piece_is_reported(self, trace5000):
        cfg = SimConfig(DEVICE, 4.5, 100.0, "proposed")
        harvest = HarvestProfile.constant(2e-3)
        result = simulate(cfg, harvest, trace5000)
        start_v = result.trajectory.columns[1]  # each piece's start voltage
        k = len(start_v) // 2
        start_v[k] = math.nextafter(start_v[k], math.inf)
        assert simulate(cfg, harvest, trace5000) != result

    def test_euler_oracle_converges_to_exact_run(self, trace5000):
        # replay the run's stage loads through the Euler step: its error in
        # the final voltage halves with the step, toward the exact engine
        cfg = SimConfig(DEVICE, 4.0, 20.0, "proposed")
        harvest = HarvestProfile.constant(8e-3)
        result = simulate(cfg, harvest, trace5000)
        assert simulate(cfg, harvest, trace5000) == result
        assert result.totals.completed_pipelines == 2

        loads = []
        for t, label in result.events:
            if label.startswith("stage:"):
                prof = DEVICE.stage(label[len("stage:"):])
                loads.append((t, t + prof.duration_seconds, prof.power_watts))
        spec = DEVICE.capacitor
        errors = []
        for dt in (2e-3, 1e-3, 5e-4):
            state, k = initial_state(4.0, spec), 0
            while 20.0 - state.time > 1e-12:
                t = state.time
                while k < len(loads) and loads[k][1] <= t + 1e-12:
                    k += 1
                busy = k < len(loads) and loads[k][0] <= t + 1e-12
                nxt = loads[k][busy] if k < len(loads) else 20.0
                state = step(state, spec, 8e-3, loads[k][2] if busy else 0.0, min(dt, nxt - t))
            errors.append(state.v_c - list(result.trajectory)[-1][1])
        assert 0 < abs(errors[-1]) < 1e-7
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine == pytest.approx(2.0, rel=0.01)


class TestEngineMatchesPmuStep:
    def test_pure_harvest_span_equivalence(self):
        # a zero-window run is pure charging, v rising at i/C: the engine is
        # exact, and the Euler step's error halves with its length
        device = DEVICE.with_capacitance(0.8)
        harvest = HarvestProfile.from_pairs([(0.0, 2e-3), (2.5, 30e-3)])
        cfg = SimConfig(device, 4.0, 5.0, "proposed")
        result = simulate(cfg, harvest, [])
        exact = 4.0 + (2e-3 * 2.5 + 30e-3 * 2.5) / 0.8  # 4.1 V
        assert list(result.trajectory)[-1][:2] == (5.0, pytest.approx(exact, rel=1e-14))

        spec = device.capacitor
        errors = []
        for dt in (1e-3, 5e-4, 2.5e-4):
            state = initial_state(4.0, spec)
            end, boundary = 5.0, 2.5
            while end - state.time > 1e-12:
                crossed = boundary <= state.time + 1e-12
                h = min(dt, end - state.time)
                if not crossed and boundary - state.time < h:
                    h = boundary - state.time
                state = step(state, spec, 30e-3 if crossed else 2e-3, 0.0, h)
            assert state.time == pytest.approx(5.0, abs=1e-9)
            errors.append(exact - state.v_c)
        assert 0 < errors[0] < 1e-6
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine == pytest.approx(2.0, rel=0.01)


def low_v_on_device(capacitance):
    """Default stages on a buffer whose outputs turn on at 3.65 V."""
    return DEVICE._replace(capacitor=CapacitorSpec(capacitance, 3.6, 3.65, 4.5))


class TestEventEngine:
    def test_stage_fails_at_v_off_crossing_instant(self):
        device = low_v_on_device(0.05)
        engine = _Engine(device, HarvestProfile.constant(1e-3), 3.7)
        assert engine.outputs_enabled
        p = device.stage("capture_preprocess").power_watts
        i, v0, v_off = 1e-3, 3.7, 3.6
        t_fail = (0.05 / i) * ((v_off - v0) + (p / i) * math.log((i * v_off - p) / (i * v0 - p)))
        assert 0 < t_fail < device.stage("capture_preprocess").duration_seconds
        assert not engine.run_stage("capture_preprocess")
        assert engine.time == pytest.approx(t_fail, rel=1e-12)
        assert engine._v == v_off and not engine.outputs_enabled
        consumed, harvested, _, _, e1 = engine.close().ledger()
        assert consumed == pytest.approx(p * t_fail, rel=1e-12)
        e0 = 0.5 * 0.05 * v0**2
        assert e1 == 0.5 * 0.05 * v_off**2
        assert e0 + harvested - e1 - consumed == pytest.approx(0.0, abs=1e-15)

    def test_stage_ulps_short_of_v_off_fails_exactly_when_the_latch_turns_off(self):
        # a stage that ends a few ulps before its v_off crossing may have its end
        # voltage rounded onto v_off: the latch then turns off, and the stage fails
        device = DEVICE.with_capacitance(0.05)
        capture = device.stage("capture_preprocess")
        duration = charge_time(3.95, 3.6, 0.0, capture.power_watts, 0.05)
        succeeded = []
        for _ in range(5):
            duration = math.nextafter(duration, 0.0)
            stages = {**device.stages,
                      "capture_preprocess": capture._replace(duration_seconds=duration)}
            engine = _Engine(device._replace(stages=stages), HarvestProfile.constant(0.0), 3.95)
            ok = engine.run_stage("capture_preprocess")
            assert ok == engine.outputs_enabled
            assert ok or engine._v == 3.6
            succeeded.append(ok)
        assert not succeeded[0]  # one ulp short, the end voltage rounds onto v_off

    def test_idle_draw_latches_off_then_recovers_at_v_on(self):
        device = low_v_on_device(0.1)._replace(idle_current_amps=5e-3)
        i = 1e-3
        p_idle = 3.3 * 5e-3
        t_off = charge_time(3.7, 3.6, i, p_idle, 0.1)
        t_on = t_off + 0.1 * (3.65 - 3.6) / i  # latched off: no draw, v rises at i/C

        def advanced(*ends):
            engine = _Engine(device, HarvestProfile.constant(i), 3.7)
            for end in ends:
                engine.advance_to(end)
            return engine

        engine = advanced(t_off + 1.0)
        assert not engine.outputs_enabled
        assert engine._v == pytest.approx(3.6 + i * 1.0 / 0.1, rel=1e-14)
        consumed, *_ = engine.close().ledger()
        assert consumed == pytest.approx(p_idle * t_off, rel=1e-12)
        engine = advanced(t_off + 1.0, t_on + 0.5)
        assert engine.outputs_enabled
        trajectory = engine.close()
        consumed, *_ = trajectory.ledger()
        assert consumed == pytest.approx(p_idle * (t_off + 0.5), rel=1e-9)
        knots = list(trajectory)
        # latched off at v_off, still off at the advance_to split, on again at
        # v_on, and past v_on the idle draw outweighs the harvest again
        assert [m for _, _, m in knots] == [
            "operate", "cold_start", "hysteresis_off", "operate", "hysteresis_on"]
        assert knots[1][:2] == (pytest.approx(t_off, rel=1e-12), 3.6)
        assert knots[2][:2] == (t_off + 1.0, pytest.approx(3.6 + i * 1.0 / 0.1, rel=1e-14))
        assert knots[3][:2] == (pytest.approx(t_on, rel=1e-9), 3.65)

    def test_buffer_pins_at_v_max_and_books_clamp_loss(self):
        device = DEVICE.with_capacitance(0.1)
        engine = _Engine(device, HarvestProfile.constant(30e-3), 4.4)
        engine.advance_to(10.0)
        t_full = 0.1 * 0.1 / 30e-3
        assert engine._v == 4.5
        trajectory = engine.close()
        _, _, clamp_loss, _, _ = trajectory.ledger()
        assert clamp_loss == pytest.approx(30e-3 * 4.5 * (10.0 - t_full), rel=1e-12)
        start, full, end = trajectory
        assert start == (0.0, 4.4, "operate")
        assert full[0] == pytest.approx(1 / 3, rel=1e-12) and full[1:] == (4.5, "full")
        assert end == (10.0, 4.5, "full")

    def test_advance_to_now_or_earlier_does_nothing(self):
        engine = _Engine(DEVICE, HarvestProfile.constant(1e-3), 4.0)
        engine.advance_to(2.0)
        pieces = [list(column) for column in engine.pieces]
        for t in (2.0, 1.0, 0.0):
            engine.advance_to(t)
        assert engine.time == 2.0 and engine.events == []
        assert [list(column) for column in engine.pieces] == pieces

    def test_harvest_boundary_one_ulp_after_a_stage_gets_its_own_knot(self):
        # times compare exactly: the new current starts at the boundary, not before
        end = DEVICE.stage("measurement").duration_seconds
        boundary = math.nextafter(end, math.inf)
        engine = _Engine(DEVICE, HarvestProfile((0.0, boundary), (1e-3, 2e-3)), 4.0)
        assert engine.run_stage("measurement")
        engine.advance_to(1.0)
        t0, _, current, _, _ = engine.close().columns
        assert list(t0) == [0.0, end, boundary, 1.0]
        assert list(current) == [1e-3, 1e-3, 2e-3, 0.0]


class TestTrajectoryMemory:
    def test_writer_peak_does_not_grow_with_horizon(self, tmp_path, trace5000):
        # the rows are streamed as they are formatted, so only the piece record grows
        peaks = []
        for horizon in (1200.0, 4800.0):
            cfg = SimConfig(DEVICE, 4.0, horizon, "proposed")
            result = simulate(cfg, HarvestProfile.constant(2e-3), trace5000)
            tracemalloc.start()
            try:
                write_trajectory_csv(result, tmp_path / "trajectory.csv", "0" * 64)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 1e6, peaks
