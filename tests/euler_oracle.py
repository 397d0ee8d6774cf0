"""Explicit-Euler model of the capacitor buffer, the independent oracle the
exact engine in :mod:`zedsim.sim` is tested against.

It keeps the supply modes as an enum, looks the harvest current up segment by
segment, and moves the stored energy one fixed step at a time. Its error
shrinks with the step, so the tests converge it toward the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from zedsim.errors import ZedSimError
from zedsim.pmu import CapacitorSpec, HarvestProfile

_V_MAX_REL_TOL = 1e-12


class PmuMode(Enum):
    COLD_START = "cold_start"
    HYSTERESIS_OFF = "hysteresis_off"
    HYSTERESIS_ON = "hysteresis_on"
    OPERATE = "operate"
    FULL = "full"

    @property
    def outputs_enabled(self) -> bool:
        return self in (PmuMode.HYSTERESIS_ON, PmuMode.OPERATE, PmuMode.FULL)


def mode_of(v_c: float, spec: CapacitorSpec, outputs_latched_on: bool) -> PmuMode:
    """Classify the voltage into a supply mode.

    ``outputs_latched_on`` is the hysteresis history flag: True if the
    voltage reached v_on more recently than it fell to v_off. It only
    matters inside the hysteretic band.
    """
    if v_c < 0 or v_c > spec.v_max * (1.0 + _V_MAX_REL_TOL):
        raise ZedSimError(f"voltage {v_c} outside [0, {spec.v_max}]")
    if v_c >= spec.v_max * (1.0 - _V_MAX_REL_TOL):
        return PmuMode.FULL
    if v_c >= spec.v_on:
        return PmuMode.OPERATE
    if v_c <= spec.v_off:
        return PmuMode.COLD_START
    return PmuMode.HYSTERESIS_ON if outputs_latched_on else PmuMode.HYSTERESIS_OFF


def stored_energy(spec: CapacitorSpec, v_c: float) -> float:
    """Instantaneous energy stored at capacitor voltage ``v_c``."""
    if not 0 <= v_c <= spec.v_max:
        raise ZedSimError(f"voltage {v_c} outside [0, {spec.v_max}]")
    return 0.5 * spec.capacitance_farads * v_c**2


def usable_energy(spec: CapacitorSpec, v_c: float) -> float:
    """Energy available above the v_off floor; 0 when v_c is at or below it."""
    if v_c < 0:
        raise ZedSimError(f"voltage {v_c} is negative")
    if v_c <= spec.v_off:
        return 0.0
    return 0.5 * spec.capacitance_farads * (v_c**2 - spec.v_off**2)


def harvest_current_at(profile: HarvestProfile, t: float) -> float:
    """Current of the last segment whose start time is <= t."""
    if t < profile.times[0]:
        raise ZedSimError(f"t={t} is before the first segment")
    k = 0
    for j, start in enumerate(profile.times):
        if start <= t:
            k = j
        else:
            break
    return profile.currents[k]


@dataclass(frozen=True)
class EnergyState:
    """Capacitor voltage and supply mode at one instant."""

    v_c: float
    mode: PmuMode
    time: float = 0.0

    @property
    def outputs_enabled(self) -> bool:
        return self.mode.outputs_enabled


def initial_state(v_c: float, spec: CapacitorSpec, time: float = 0.0) -> EnergyState:
    """State for a device that just booted: outputs enabled only above v_on."""
    return EnergyState(v_c, mode_of(v_c, spec, outputs_latched_on=v_c >= spec.v_on), time)


def step(
    state: EnergyState,
    spec: CapacitorSpec,
    i_h: float,
    load_power_watts: float,
    dt: float,
    efficiency: float = 1.0,
) -> EnergyState:
    """Advance the buffer by one explicit-Euler step of length ``dt``.

    The simulator integrates exactly; this first-order step is the
    independent oracle that converges to it as dt -> 0.

    New energy = clamp(E + (i_h*v_c - load/efficiency)*dt, [0, E_max]).
    Raises ZedSimError if a load is requested while the outputs are
    disabled (the physical system would brown out the load instantly).
    """
    if dt <= 0:
        raise ZedSimError("dt must be positive")
    if load_power_watts < 0:
        raise ZedSimError("load power must be >= 0")
    if load_power_watts > 0 and not state.outputs_enabled:
        raise ZedSimError(
            f"load of {load_power_watts} W requested at t={state.time} with outputs disabled"
        )
    c = spec.capacitance_farads
    de = (i_h * state.v_c - load_power_watts / efficiency) * dt
    if de != 0.0:  # keep v bit-exact across zero-flow steps
        e = 0.5 * c * state.v_c**2 + de
        e_max = 0.5 * c * spec.v_max**2
        if e > e_max:
            e = e_max
        elif e < 0.0:
            e = 0.0
        v = math.sqrt(2.0 * e / c)
    else:
        v = state.v_c
    enabled = state.outputs_enabled
    if v >= spec.v_on:
        enabled = True
    elif v <= spec.v_off:
        enabled = False
    return EnergyState(v, mode_of(v, spec, enabled), state.time + dt)
