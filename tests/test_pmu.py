import math
import random
from decimal import Decimal, localcontext

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from euler_oracle import EnergyState, PmuMode, harvest_current_at, initial_state, mode_of, step
from zedsim import pmu
from zedsim.errors import ZedSimError
from zedsim.pmu import CapacitorSpec, HarvestProfile, charge_time, mode_value, voltage_after

SPEC = CapacitorSpec(1.5, 3.6, 3.92, 4.5)


class TestHarvestProfile:
    def test_single_segment_lookup(self):
        p = HarvestProfile.from_pairs([(0.0, 2e-3)])
        assert harvest_current_at(p, 150.0) == 2e-3

    def test_boundary_inclusion(self):
        p = HarvestProfile.from_pairs([(0.0, 1e-3), (200.0, 5e-3)])
        assert harvest_current_at(p, 200.0) == 5e-3
        assert harvest_current_at(p, 199.999) == 1e-3

    def test_zero_harvest(self):
        p = HarvestProfile.constant(0.0)
        assert harvest_current_at(p, 0.0) == 0.0
        assert harvest_current_at(p, 1e6) == 0.0

    def test_before_first_segment(self):
        p = HarvestProfile.constant(1e-3)
        with pytest.raises(ZedSimError, match=r"t=-0\.1 is before the first segment"):
            harvest_current_at(p, -0.1)

    def test_invariants(self):
        with pytest.raises(ZedSimError, match="first segment must start at t=0"):
            HarvestProfile.from_pairs([(1.0, 2e-3)])
        with pytest.raises(ZedSimError, match="start times must be strictly increasing"):
            HarvestProfile.from_pairs([(0.0, 1e-3), (0.0, 2e-3)])
        with pytest.raises(ZedSimError, match="harvested currents must be >= 0"):
            HarvestProfile.from_pairs([(0.0, -1e-3)])

    @pytest.mark.parametrize("pairs", [
        [(0.0, math.nan)],
        [(0.0, math.inf)],
        [(0.0, 1e-3), (math.inf, 2e-3)],
        [(0.0, 1e-3), (math.nan, 2e-3)],
    ])
    def test_non_finite_rejected(self, pairs):
        with pytest.raises(ZedSimError, match="finite"):
            HarvestProfile.from_pairs(pairs)


class TestModeOf:
    def test_full_at_ceiling(self):
        assert mode_of(4.5, SPEC, True) is PmuMode.FULL
        assert mode_of(4.5, SPEC, False) is PmuMode.FULL

    def test_hysteresis_enabled_history(self):
        m = mode_of(3.7, SPEC, outputs_latched_on=True)
        assert m is PmuMode.HYSTERESIS_ON and m.outputs_enabled

    def test_hysteresis_disabled_history(self):
        m = mode_of(3.7, SPEC, outputs_latched_on=False)
        assert m is PmuMode.HYSTERESIS_OFF and not m.outputs_enabled

    def test_operate_and_cold_start(self):
        assert mode_of(4.0, SPEC, False) is PmuMode.OPERATE
        assert mode_of(3.6, SPEC, True) is PmuMode.COLD_START
        assert mode_of(1.0, SPEC, True) is PmuMode.COLD_START

    def test_pure_function_determinism(self):
        rng = random.Random(7)
        points = [(rng.uniform(0, 4.5), rng.random() < 0.5) for _ in range(500)]
        first = [mode_of(v, SPEC, latch) for v, latch in points]
        second = [mode_of(v, SPEC, latch) for v, latch in points]
        assert first == second

    def test_mode_values_match_mode_of(self):
        rng = random.Random(5)
        edges = [0.0, SPEC.v_off, SPEC.v_on, SPEC.v_max]
        volts = edges + [rng.uniform(0, 4.5) for _ in range(500)]
        latched = [rng.random() < 0.5 for _ in volts]
        got = [mode_value(v, SPEC, latch) for v, latch in zip(volts, latched)]
        assert got == [mode_of(v, SPEC, latch).value for v, latch in zip(volts, latched)]
        # the shared enum strings, not one new string per row
        assert all(g is mode_of(v, SPEC, latch).value for g, v, latch in zip(got, volts, latched))

    # exactly [0, v_max]: the engine pins v at v_max, so one ulp above is outside
    @pytest.mark.parametrize("v", [-0.1, -5e-324, 4.5 * (1 + 1e-13), math.nextafter(4.5, 5.0),
                                   4.5 * (1 + 1e-9)])
    def test_mode_values_domain(self, v):
        with pytest.raises(ZedSimError, match=rf"voltage {v!r} outside \[0, 4\.5\]"):
            mode_value(v, SPEC, True)


class TestStep:
    def test_full_capacitor_charging_disabled(self):
        state = EnergyState(4.5, PmuMode.FULL)
        out = step(state, SPEC, i_h=5e-3, load_power_watts=0.0, dt=1.0)
        assert out.v_c == 4.5
        assert out.mode is PmuMode.FULL

    def test_cold_start_recovery_enables_at_v_on(self):
        state = EnergyState(3.5, PmuMode.COLD_START)
        seen_enabled_below_v_on = False
        for _ in range(200):
            state = step(state, SPEC, i_h=10e-3, load_power_watts=0.0, dt=1.0)
            if state.v_c < SPEC.v_on and state.outputs_enabled:
                seen_enabled_below_v_on = True
        assert not seen_enabled_below_v_on
        assert state.v_c >= SPEC.v_on and state.outputs_enabled

    def test_no_flows_no_change(self):
        state = initial_state(4.0, SPEC)
        out = step(state, SPEC, i_h=0.0, load_power_watts=0.0, dt=123.0)
        assert out.v_c == state.v_c
        assert out.mode is state.mode

    def test_load_while_disabled_faults(self):
        state = EnergyState(3.7, PmuMode.HYSTERESIS_OFF)
        with pytest.raises(ZedSimError, match="load of 0.1 W requested at t=0.0 with outputs disabled"):
            step(state, SPEC, i_h=0.0, load_power_watts=0.1, dt=1e-3)

    def test_energy_conservation_exact(self):
        rng = random.Random(11)
        state = initial_state(4.2, SPEC)
        for _ in range(2000):
            i_h = rng.uniform(0.0, 5e-3)
            load = rng.uniform(0.0, 0.05) if state.outputs_enabled else 0.0
            dt = rng.uniform(1e-4, 5e-3)
            e_before = 0.5 * SPEC.capacitance_farads * state.v_c**2
            nxt = step(state, SPEC, i_h, load, dt)
            e_after = 0.5 * SPEC.capacitance_farads * nxt.v_c**2
            if nxt.v_c < SPEC.v_max:  # no ceiling clamp in play
                expected = (i_h * state.v_c - load) * dt
                assert e_after - e_before == pytest.approx(expected, abs=1e-9)
            state = nxt

    def test_hysteresis_monotonicity_random_walk(self):
        # independent latch oracle: replay the threshold crossings by hand
        rng = random.Random(23)
        state = initial_state(4.0, SPEC)
        latch = state.v_c >= SPEC.v_on
        for _ in range(5000):
            heavy = rng.random() < 0.4
            load = rng.uniform(0.1, 0.6) if (heavy and state.outputs_enabled) else 0.0
            i_h = rng.uniform(0.0, 30e-3)
            state = step(state, SPEC, i_h, load, dt=rng.uniform(0.05, 0.5))
            if state.v_c >= SPEC.v_on:
                latch = True
            elif state.v_c <= SPEC.v_off:
                latch = False
            assert state.outputs_enabled == (
                latch if SPEC.v_off < state.v_c < SPEC.v_on else state.v_c >= SPEC.v_on
            )

    def test_linear_voltage_rise_under_pure_harvest(self):
        # charging power i_h*v makes dv/dt = i_h/C, so the rise is linear
        state = initial_state(4.0, SPEC)
        i_h = 3e-3
        for _ in range(1000):
            state = step(state, SPEC, i_h, 0.0, dt=1e-3)
        assert state.v_c == pytest.approx(4.0 + i_h * 1.0 / SPEC.capacitance_farads, rel=1e-6)

    def test_bad_dt(self):
        with pytest.raises(ZedSimError, match="dt must be positive"):
            step(initial_state(4.0, SPEC), SPEC, 0.0, 0.0, dt=0.0)


C = SPEC.capacitance_farads


def log_form_time(v0, v1, i, p, c=C):
    """Textbook form of the charge time, valid when both flows are nonzero."""
    return (c / i) * ((v1 - v0) + (p / i) * math.log((i * v1 - p) / (i * v0 - p)))


class TestClosedForms:
    @pytest.mark.parametrize("v0, v1, i, p", [
        (4.0, 4.3, 10e-3, 0.02),   # net charge
        (4.4, 3.7, 2e-3, 0.05),    # net discharge
        (3.6, 4.5, 30e-3, 0.0),    # pure harvest
        (4.5, 3.6, 0.0, 0.08),     # pure load
    ])
    def test_round_trip(self, v0, v1, i, p):
        t = charge_time(v0, v1, i, p, C)
        assert t > 0
        for frac in (0.0, 0.1, 0.5, 0.9, 1.0):
            tau = frac * t
            v = voltage_after(v0, v1, i, p, C, tau)
            assert min(v0, v1) <= v <= max(v0, v1)
            assert charge_time(v0, v, i, p, C) == pytest.approx(tau, rel=1e-12, abs=1e-12)
        assert voltage_after(v0, v1, i, p, C, t) == pytest.approx(v1, rel=1e-14)

    def test_matches_log_form(self):
        for v0, v1, i, p in ((4.0, 4.2, 10e-3, 0.02), (4.0, 3.8, 1e-3, 0.05)):
            assert charge_time(v0, v1, i, p, C) == pytest.approx(
                log_form_time(v0, v1, i, p), rel=1e-10
            )

    def test_zero_harvest_limit(self):
        # v**2 falls linearly: t = C*(v0**2 - v1**2) / (2P)
        pure = C * (4.2**2 - 3.9**2) / (2 * 0.05)
        assert charge_time(4.2, 3.9, 0.0, 0.05, C) == pytest.approx(pure, rel=1e-14)
        for i in (1e-9, 1e-12):
            assert charge_time(4.2, 3.9, i, 0.05, C) == pytest.approx(pure, rel=1e-6)
        v = voltage_after(4.2, 3.6, 0.0, 0.05, C, 10.0)
        assert v == pytest.approx(math.sqrt(4.2**2 - 2 * 0.05 * 10.0 / C), rel=1e-14)

    def test_zero_load_limit(self):
        # v rises linearly at i/C
        assert charge_time(3.9, 4.2, 3e-3, 0.0, C) == pytest.approx(C * 0.3 / 3e-3, rel=1e-14)
        for p in (1e-9, 1e-12):
            assert charge_time(3.9, 4.2, 3e-3, p, C) == pytest.approx(C * 0.3 / 3e-3, rel=1e-6)
        assert voltage_after(3.9, 4.5, 3e-3, 0.0, C, 7.0) == pytest.approx(
            3.9 + 3e-3 * 7.0 / C, rel=1e-15
        )

    def test_v_off_crossing_instant(self):
        # a 50 mW load against 2 mA of harvest from 4.0 V reaches 3.6 V at
        # (C/i) * [(v_off - v0) + (P/i) * ln((i*v_off - P)/(i*v0 - P))]
        expected = (C / 2e-3) * (-0.4 + 25.0 * math.log((2e-3 * 3.6 - 0.05) / (2e-3 * 4.0 - 0.05)))
        assert expected == pytest.approx(53.78, abs=0.01)  # 2.28 J at about 42 mW net
        assert charge_time(4.0, 3.6, 2e-3, 0.05, C) == pytest.approx(expected, rel=1e-12)


def exact_charge_time(v0, v1, current, power, capacitance):
    """charge_time's formula evaluated in 60 digits from the exact binary inputs."""
    with localcontext() as ctx:
        ctx.prec = 60
        v0, v1, i, p, c = map(Decimal, (v0, v1, current, power, capacitance))
        a, dv = i * v0 - p, v1 - v0
        x = i * dv / a
        if abs(x) < Decimal("1e-6"):  # 1 + x would lose x's digits: s's series to x**11
            s = Decimal(0)
            for k in reversed(range(12)):
                s = s * x + Decimal((-1) ** (k + 1)) / (k + 2)
        else:
            s = ((1 + x).ln() - x) / (x * x)
        return c * dv * (v0 + p * dv * s / a) / a


@st.composite
def flows(draw, max_share=1.0):
    """(v0, v1, bound, current, power, C) for flows that move v0 through v1 toward
    bound, three distinct voltages in [1, 4.5] V. The smaller flow is ``share`` <
    ``max_share`` of the larger (the load P of the harvest i*v0 when v rises, else
    the reverse), so the net flow a = i*v0 - P nears 0, v0 nears the equilibrium
    P/i and the inversion runs long as share nears 1."""
    lo, mid, hi = sorted(draw(st.lists(st.floats(1.0, 4.5), min_size=3, max_size=3,
                                       unique=True)))
    share = draw(st.floats(0.0, max_share, exclude_max=True))
    c = draw(st.floats(1e-3, 2.0))
    if draw(st.booleans()):
        i = draw(st.floats(1e-4, 0.1))
        return lo, mid, hi, i, share * i * lo, c
    p = draw(st.floats(1e-3, 1.0))
    return hi, mid, lo, share * p / hi, p, c


class TestClosedFormAccuracy:
    """The closed forms against the formula evaluated exactly, in ulps."""

    # share < 1/2 keeps a = i*v0 - P, rounded once, within a few ulps of exact.
    # Just above the series cut (x = 1e-2) log1p(x) - x cancels to about x**2/2,
    # so an ulp of log1p costs up to 2/x ulps of s: 95 ulps of t were seen there
    @given(flows(max_share=0.5))
    @example((4.5, 1.0, 0.5, 0.0, 0.5, 1.0))  # no harvest: x = 0
    @example((4.5, 4.4, 1.0, 1e-3, 0.5, 1.0))  # x = 2.0e-4, below the cut
    @example((4.5, 2.0, 1.0, 0.01, 0.5, 1.0))  # x = 0.055, above it
    def test_charge_time_is_within_160_ulps_of_exact(self, flow):
        v0, v1, _, i, p, c = flow
        exact = exact_charge_time(v0, v1, i, p, c)
        error = abs(Decimal(charge_time(v0, v1, i, p, c)) - exact)
        assert error <= 160 * Decimal(math.ulp(float(exact)))

    # below the cut the series' first omitted term, x**8/10, is under an ulp of s
    @pytest.mark.parametrize("x", [-0.0099, -1e-3, 1e-6, 4e-3, 0.0099])
    def test_series_is_within_two_ulps_of_exact_below_the_cut(self, x):
        with localcontext() as ctx:
            ctx.prec = 60
            exact = ((1 + Decimal(x)).ln() - Decimal(x)) / (Decimal(x) * Decimal(x))
        error = abs(Decimal(pmu._s_series(x)) - exact)
        assert error <= 2 * Decimal(math.ulp(float(exact)))

    @given(flows())
    @example((4.5, 1.0, 0.999999999, 2e-4, 1e-3, 1.0))  # share 0.9: x = 7, 7 Newton steps
    @example((2.00000001, 2.00000002, 2.00000003, 1e-3, 2e-3, 0.1))  # 1e-8 V above P/i
    def test_voltage_after_inverts_charge_time(self, flow):
        v0, v1, bound, i, p, c = flow
        # beyond x = 32, v0 + P*dv*s/a cancels and the round trip drifts further:
        # 5e7 ulps at x = 1.4e8, from a start 1e-8 V off P/i
        assume(i * v0 != p and i * (v1 - v0) / (i * v0 - p) <= 32)
        t = charge_time(v0, v1, i, p, c)
        # the unit is an ulp of v1 plus the move of v in an ulp of t, as an error of
        # charge_time moves the root by itself times dv/dt; the root lands where the
        # errors at v1 and at the root cancel, so twice the first property's bound
        scale = math.ulp(v1) + math.ulp(t) * abs(i * v1 - p) / (c * v1)
        assert abs(voltage_after(v0, bound, i, p, c, t) - v1) <= 320 * scale

    @pytest.mark.parametrize("v0, bound, i, p, share, calls", [
        (4.5, 3.6, 0.0, 0.05, 0.5, 1), (3.9, 3.6, 0.0, 0.3, 0.5, 1),  # no harvest
        (3.7, 4.5, 1e-3, 0.01, 1e-3, 2), (3.7, 4.5, 0.05, 0.05, 1e-3, 2),
    ])
    def test_newton_starts_from_the_square_law(self, monkeypatch, v0, bound, i, p, share,
                                               calls):
        # v*v moves at 2*(i*v0 - P)/C at the start: for all time without harvest,
        # where Newton confirms the first guess at once, and to first order in dt
        # otherwise, where over a ``share`` of the time to the bound one step is enough
        c = 1.5
        dt = share * charge_time(v0, bound, i, p, c)
        made = []
        monkeypatch.setattr(pmu, "charge_time", lambda *a: made.append(a) or charge_time(*a))
        v = voltage_after(v0, bound, i, p, c, dt)
        assert len(made) <= calls
        if i == 0.0:
            exact = math.sqrt(v0 * v0 - 2.0 * p * dt / c)
            assert abs(v - exact) <= 2 * math.ulp(exact)

    def test_voltage_after_at_its_iteration_cap_returns_the_clipped_last_iterate(
            self, monkeypatch):
        # v0 1e-8 V above the equilibrium P/i: charge_time is noisy in v there, so
        # the Newton iterates never settle and the cap ends the search
        v0, v1, i, p, c = (1.06584556269497, 2.591009898276178, 0.06019181488959691,
                           0.0641551781521169, 0.28321435526920485)
        dt = charge_time(v0, v1, i, p, c)
        calls = []
        monkeypatch.setattr(pmu, "charge_time", lambda *a: calls.append(a) or charge_time(*a))
        v = voltage_after(v0, 4.5, i, p, c, dt)
        assert len(calls) == pmu._NEWTON_ITERATIONS
        assert v0 <= v <= 4.5
        # 2.6e-9 of dt off is measured: 1e-8 leaves room for a libm an ulp apart
        assert charge_time(v0, v, i, p, c) == pytest.approx(dt, rel=1e-8)

    def test_newton_step_past_the_bound_is_clipped_to_it(self):
        # a step from an iterate just short of the bound lands 4 ulps past it
        bound = 4.454655756976329
        v = voltage_after(0.8642235029153734, bound, 3.251182881847663e-07,
                          2.581900706837203e-07, 0.00017007934909250497, 3521.620953180987)
        assert v <= bound
