"""Invariants of the simulator over generated devices, harvest profiles and
traces: ledger closure, the totals' partition, no power failures under the
variants that check energy before every stage, escalation exactly when the
reading covers it, exact replay, agreement with the Euler oracle, runs that
scale exactly with the units of time, current and voltage, and trajectory
knots that agree with the closed form and reach the CSV whole and in time
order."""

import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from euler_oracle import initial_state, step
from zedsim.cli import write_trajectory_csv
from zedsim.config import DeviceConfig
from zedsim.pmu import HarvestProfile, charge_time
from zedsim.policy import ExitTaken, InferenceInstance, Thresholds
from zedsim.scheduler import GATINGS, VARIANTS, Check, Split, plan, requirement
from zedsim.sim import SimConfig, energy_ledger_residual, simulate

DEVICE = DeviceConfig.default()
V_OFF, V_MAX = DEVICE.capacitor.v_off, DEVICE.capacitor.v_max
MAX_HARVEST = 10e-3
RAIL = DEVICE.stage("measurement").supply_volts


@st.composite
def devices(draw):
    device = DEVICE.with_capacitance(draw(st.floats(0.05, 1.5)))
    return device._replace(
        thresholds=Thresholds(draw(st.floats(0.0, 0.5)), draw(st.floats(0.5, 1.0))),
        schedule=device.schedule._replace(n_attempts=draw(st.integers(1, 20))),
        idle_current_amps=draw(st.sampled_from([0.0, 0.0, 1e-4, 2e-3])),
        converter_efficiency=draw(st.sampled_from([1.0, 0.9, 0.6])),
    )


@st.composite
def harvests(draw, horizon):
    gaps = draw(st.lists(st.floats(0.05, horizon), max_size=4))
    starts = [0.0]
    for gap in gaps:
        starts.append(starts[-1] + gap)
    currents = draw(st.lists(st.floats(0.0, MAX_HARVEST), min_size=len(starts),
                             max_size=len(starts)))
    return HarvestProfile(tuple(starts), tuple(currents))


scores = st.floats(0.0, 1.0)
instances = st.tuples(scores, scores, st.integers(0, 1))


@st.composite
def scenarios(draw, variants=VARIANTS):
    horizon = draw(st.floats(5.0, 60.0))
    device = draw(devices())
    rows = draw(st.lists(instances, min_size=6, max_size=6))
    trace = [InferenceInstance(k, *row) for k, row in enumerate(rows)]
    variant = draw(st.sampled_from(variants))
    cfg = SimConfig(device, draw(st.floats(V_OFF, V_MAX)), horizon, variant)
    return cfg, draw(harvests(horizon)), trace


@st.composite
def near_admission(draw):
    """Proposed-policy scenarios on a small buffer that starts within a few mJ
    of its first admission, under a harvest too weak to refill it within a
    pipeline, so that escalations are both granted and denied."""
    cfg, _, trace = draw(scenarios(variants=("proposed",)))
    harvest = HarvestProfile.constant(draw(st.floats(0.0, 0.3e-3)))
    gating = draw(st.sampled_from(GATINGS))
    c = draw(st.floats(0.05, 0.1))
    device = cfg.device.with_capacitance(c)
    admission, _ = plan(device, "proposed", gating)
    need = requirement(device, (admission,)) + device.schedule.guard_delta_joules
    usable = max(need + draw(st.floats(-1e-3, 8e-3)), 0.0)
    v0 = min(math.sqrt(V_OFF**2 + 2 * usable / c), V_MAX)
    return cfg._replace(device=device, initial_v=v0, gating_variant=gating), harvest, trace


def checks(steps):
    """Every check in ``steps``, nested ones included."""
    for step in steps:
        if isinstance(step, Check):
            yield step
            for end in (*step.options, step.otherwise or ()):
                yield from checks(end)
        elif isinstance(step, Split):
            yield from checks(step.ambiguous)


@given(devices(), st.one_of(st.just(0.0), st.floats(1e-12, 0.05)))
def test_compiled_needs_are_the_walked_requirements(device, guard):
    device = device._replace(schedule=device.schedule._replace(guard_delta_joules=guard))
    for variant in VARIANTS:
        for gating in GATINGS:
            admission, _ = plan(device, variant, gating)
            found = list(checks((admission,)))
            assert len(found) == (2 if variant in ("proposed", "policy_ii") else 1)
            for check in found:
                assert len(check.needs) == len(check.options)
                for option, need in zip(check.options, check.needs):
                    assert need == requirement(device, option) + guard


def assert_ledger_closes_and_totals_partition(result):
    t = result.totals
    assert abs(energy_ledger_residual(result)) < 1e-9
    # each account is a sum of closed-form differences, exact to roundoff
    assert min(t.harvested_j, t.energy_consumed_j, t.clamp_loss_j) >= -1e-12
    assert t.completed_pipelines + t.deferred_windows + t.power_failures == t.n_windows
    assert t.n_ex1 + t.n_ex2 + t.n_fallback == t.completed_pipelines
    assert all(V_OFF <= v <= V_MAX for _, v, _ in result.trajectory)


@given(scenarios())
def test_ledger_closes_and_totals_partition(scenario):
    assert_ledger_closes_and_totals_partition(simulate(*scenario))


@given(near_admission())
def test_proposed_near_admission_never_fails_closes_and_replays(scenario):
    # where the proposed policy falls back to the shallow exit for want of energy
    cfg, harvest, trace = scenario
    result = simulate(cfg, harvest, trace)
    assert result.totals.power_failures == 0
    assert_ledger_closes_and_totals_partition(result)
    assert simulate(cfg, harvest, trace) == result


@given(scenarios(variants=("proposed",)))
def test_proposed_never_power_fails(scenario):
    cfg, harvest, trace = scenario
    assert simulate(cfg, harvest, trace).totals.power_failures == 0


@given(scenarios(variants=("policy_i", "baseline")))
def test_policy_i_and_baseline_never_power_fail(scenario):
    # like the proposed policy, both admit only what the buffer can finish
    cfg, harvest, trace = scenario
    assert simulate(cfg, harvest, trace).totals.power_failures == 0


@given(scenarios(variants=("proposed",)), st.floats(0.0, 12e-3))
def test_escalates_exactly_when_the_reading_covers_it(scenario, spare):
    cfg, harvest, trace = scenario
    # a small buffer that starts with its outputs on, just above the first
    # admission (its measurement, the shallow path and the escalation
    # measurement), so that escalation is both granted and denied
    device = cfg.device.with_capacitance(0.05)
    admit = sum(map(device.stage_energy, (
        "measurement", "capture_preprocess", "inference_ex1", "led_red", "measurement")))
    v0 = math.sqrt(V_OFF**2 + 2 * (admit + spare) / 0.05)
    cfg = cfg._replace(device=device, initial_v=min(v0, V_MAX))
    # escalation stage, green LED and the dearer result LED, by hand
    need = (
        device.stage_energy("inference_ex1_to_ex2")
        + device.stage_energy("led_green")
        + max(device.stage_energy("led_blue"), device.stage_energy("led_red"))
        + device.schedule.guard_delta_joules
    )
    for w in simulate(cfg, harvest, trace).windows:
        if w.escalation_usable is not None:
            assert (w.decision.exit_taken is ExitTaken.EX2) == (w.escalation_usable >= need)


def test_admission_covers_converter_losses():
    # found by the property above: with the requirements sized at the rail,
    # the one admitted pipeline ran the buffer down to v_off
    device = DEVICE.with_capacitance(0.0508)
    device = device._replace(schedule=device.schedule._replace(n_attempts=1),
                     converter_efficiency=0.6)
    trace = [InferenceInstance(0, 0.9, 0.9, 1)]
    totals = simulate(SimConfig(device, 4.25, 10.0), HarvestProfile.constant(0.0), trace).totals
    assert totals.power_failures == 0
    assert totals.deferred_windows == 1


@given(scenarios())
def test_replay_is_exact(scenario):
    cfg, harvest, trace = scenario
    result = simulate(cfg, harvest, trace)
    assert simulate(cfg, harvest, trace) == result


@given(devices(), st.floats(V_OFF, V_MAX), st.floats(0.5, 5.0).flatmap(
    lambda h: st.tuples(st.just(h), harvests(h))))
def test_engine_agrees_with_euler_oracle_without_admissions(device, v0, horizon_harvest):
    # shorter than a window, so nothing but harvest and idle draw acts
    horizon, harvest = horizon_harvest
    result = simulate(SimConfig(device, v0, horizon), harvest, [])
    assert result.totals.n_windows == 0

    spec, dt = device.capacitor, 1e-3
    eta = device.converter_efficiency
    p_idle = RAIL * device.idle_current_amps
    bounds = [t for t in harvest.times[1:] if t < horizon] + [horizon]
    state, k, switches = initial_state(v0, spec), 0, 0
    while horizon - state.time > 1e-12:
        while bounds[k] <= state.time + 1e-12:
            k += 1
        load = p_idle if state.outputs_enabled else 0.0
        nxt = step(state, spec, harvest.currents[k], load, min(dt, bounds[k] - state.time), eta)
        switches += nxt.outputs_enabled != state.outputs_enabled
        state = nxt
    # first-order bound: the step lags the harvest power by at most
    # i*dv over the span, and each latch switch by one step of idle draw
    v_exact = list(result.trajectory)[-1][1]
    travel = V_MAX - V_OFF + 2 * switches * (spec.v_on - V_OFF)
    energy_bound = dt * (MAX_HARVEST * travel + (1 + switches) * p_idle / eta)
    assert abs(v_exact - state.v_c) <= energy_bound / (spec.capacitance_farads * V_OFF)


@given(st.one_of(scenarios(), near_admission()))
def test_knots_agree_with_the_closed_form(scenario):
    cfg, harvest, trace = scenario
    result = simulate(cfg, harvest, trace)
    cap = cfg.device.capacitor
    c = cap.capacitance_farads
    device = cfg.device
    p_max = max(s.power_watts for s in device.stages.values()) + (
        device.stage("measurement").supply_volts * device.idle_current_amps)
    # the fastest v moves: the strongest harvest, or the largest draw at v_off
    fastest = (max(harvest.currents) + p_max / device.converter_efficiency / cap.v_off) / c
    t0, v0, current, power, _ = result.trajectory.columns
    assert all(a < b for a, b in zip(t0, t0[1:]))
    v1 = v0[1:]  # each piece ends where the next row starts
    for k in range(len(t0) - 1):
        a = current[k] * v0[k] - power[k]
        if a == 0 or (a > 0 and v0[k] == cap.v_max) or (a < 0 and v0[k] == cap.v_off):
            # no net flow, or pinned at a threshold: v stays, unless a piece too
            # short to move the clock, carried by the next row's v0, took v on to a
            # threshold, no further than the fastest flow moves it in one ulp of t
            assert v1[k] == v0[k] or (
                v1[k] in (cap.v_off, cap.v_on, cap.v_max)
                and abs(v1[k] - v0[k]) <= fastest * math.ulp(t0[k + 1]))
        elif v1[k] != v0[k]:
            took = charge_time(v0[k], v1[k], current[k], power[k], c)
            # knots are doubles: allow the time v takes to move 8 ulps at the
            # slower end, which a piece that moves v by a few ulps needs
            ulps = max(8 * math.ulp(v) * c * v / abs(current[k] * v - power[k])
                       for v in (v0[k], v1[k]))
            assert took == pytest.approx(t0[k + 1] - t0[k], rel=1e-9, abs=ulps)


DARK_TRACE = [InferenceInstance(k, 0.9, 0.9, 1) for k in range(6)]


@given(st.one_of(scenarios(), near_admission()))
# latched off below v_on with no harvest: every candidate instant splits a dark piece
@example((SimConfig(DEVICE, 3.7, 30.0), HarvestProfile.constant(0.0), DARK_TRACE))
def test_no_piece_repeats_a_static_dark_piece(scenario):
    # a piece with no current and no power, from the v0 and latch of the piece
    # before it, only lengthens that piece; the closing row, the final state,
    # may repeat the last piece
    _, v0, current, power, latched = simulate(*scenario).trajectory.columns
    pieces = list(zip(v0, current, power, latched))[:-1]
    for a, b in zip(pieces, pieces[1:]):
        assert not (a == b and a[1] == a[2] == 0.0), a


def scaled(cfg, harvest, f, g, k):
    """The scenario with every time scaled by f, every current by g and every
    voltage by k: C*v*dv/dt = i*v - P then holds with C scaled by g*f/k, powers
    by g*k and energies by f*g*k."""
    device = cfg.device
    cap, sched = device.capacitor, device.schedule
    device = device._replace(
        capacitor=cap._replace(capacitance_farads=cap.capacitance_farads * (g * f / k),
                               v_off=cap.v_off * k, v_on=cap.v_on * k, v_max=cap.v_max * k),
        stages={name: s._replace(current_amps=s.current_amps * g,
                                 duration_seconds=s.duration_seconds * f,
                                 supply_volts=s.supply_volts * k)
                for name, s in device.stages.items()},
        schedule=sched._replace(window_seconds=sched.window_seconds * f,
                                deadline_seconds=sched.deadline_seconds * f,
                                guard_delta_joules=sched.guard_delta_joules * (f * g * k)),
        idle_current_amps=device.idle_current_amps * g,
    )
    cfg = cfg._replace(device=device, initial_v=cfg.initial_v * k,
                       horizon_seconds=cfg.horizon_seconds * f)
    return cfg, HarvestProfile(tuple(t * f for t in harvest.times),
                               tuple(i * g for i in harvest.currents))


@given(st.one_of(scenarios(), near_admission()), st.integers(-32, 16), st.integers(-30, 30),
       st.integers(-8, 8))
# a measurement of about 1 ps: the run must not depend on the unit of time
@example((SimConfig(DEVICE, 4.5, 30.0), HarvestProfile.constant(1e-3), DARK_TRACE), -32, 0, 0)
# a voltage whose square pow rounds off by one ulp once scaled by 2^8
@example((SimConfig(DEVICE, 3.970919944447376, 5.0), HarvestProfile.constant(0.0), []), 0, 0, 8)
def test_scaling_time_current_and_voltage_scales_the_run(scenario, ef, eg, ek):
    # powers of two make every scaled product exact, so the model's dimensional
    # invariance holds bit for bit: a metamorphic oracle for the whole run
    cfg, harvest, trace = scenario
    f, g, k = 2.0**ef, 2.0**eg, 2.0**ek
    e = f * g * k
    # a current near the subnormal range would round when scaled
    assume(all(i == 0.0 or min(i, i * g) >= 2.0**-900 for i in harvest.currents))
    scaled_cfg, scaled_harvest = scaled(cfg, harvest, f, g, k)
    # the chatter rule's 0.1 s floor is absolute: it rejects small f under an idle draw
    assume(not scaled_cfg.device.problems())
    a = simulate(cfg, harvest, trace)
    b = simulate(scaled_cfg, scaled_harvest, trace)
    t0, v0, current, power, latched = a.trajectory.columns
    assert [list(c) for c in b.trajectory.columns] == [
        [t * f for t in t0], [v * k for v in v0], [i * g for i in current],
        [p * (g * k) for p in power], list(latched)]
    assert b.events == [(t * f, label) for t, label in a.events]
    assert b.windows == [w._replace(
        started_at=None if w.started_at is None else w.started_at * f,
        admission_usable=None if w.admission_usable is None else w.admission_usable * e,
        escalation_usable=None if w.escalation_usable is None else w.escalation_usable * e,
    ) for w in a.windows]
    assert b.totals == a.totals._replace(**{
        name: value * e for name, value in a.totals._asdict().items() if name.endswith("_j")})


@given(st.one_of(scenarios(), near_admission()))
def test_trajectory_csv_rows_are_knots_and_events_in_time_order(scenario):
    result = simulate(*scenario)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trajectory.csv"
        write_trajectory_csv(result, path, "0" * 64)
        lines = path.read_text().splitlines()
    assert len(lines) == 2 + len(result.trajectory) + len(result.events)
    rows = [line.split(",") for line in lines[2:]]
    assert [(float(t), float(v), m) for t, v, m, _ in rows if v] == list(result.trajectory)
    assert [(float(t), e) for t, v, _, e in rows if not v] == result.events
    # in time order, and at equal times the knot before the events
    order = [(float(t), bool(e)) for t, _, _, e in rows]
    assert order == sorted(order)
