"""Capacitor spec, hysteretic supply-state machine and the capacitor's closed-form dynamics.

All quantities are SI (joules, volts, farads, amps, seconds). The storage
element is an ideal capacitor, E = C*v^2/2. Only the share stored above the
supply cutoff voltage ``v_off`` counts as usable: the outputs shut down at
that floor, so energy below it can never reach the load.

The supply classifies the capacitor voltage into four modes. Between the
cutoff ``v_off`` and the turn-on ``v_on`` the mode is hysteretic: whether the
outputs are powered depends on which threshold was crossed last. Once the
voltage touches ``v_off`` the outputs latch off and only a recovery through
``v_on`` re-enables them; until then all harvested energy goes into the
capacitor.

Harvesting is modelled as a current source into the capacitor at its terminal
voltage (charging power = i * v), and a load draws a constant power P from
the buffer, so between events C*v*dv/dt = i*v - P. There is no
self-discharge. With a = i*v0 - P the time to move from v0 to v1 is

    t = C*v0*dv/a + C*P*dv**2/a**2 * s(x),  dv = v1 - v0,  x = i*dv/a,
    s(x) = (log1p(x) - x)/x**2,

which is continuous as i -> 0 (v**2 falls linearly) and as P -> 0 (v rises
linearly at i/C). The equilibrium v* = P/i is unstable, so the sign of ``a``
fixes the direction of travel and the voltage moves monotonically until the
next event. :func:`charge_time` evaluates this form and
:func:`voltage_after` inverts it by bracketed Newton; the engine in
:mod:`zedsim.sim` jumps from event to event with them.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence, Tuple

from .errors import ZedSimError, checked


@checked
class CapacitorSpec(NamedTuple):
    """Storage capacitor plus the three supply thresholds acting on it.

    :meth:`energy` and :meth:`usable` are the one home of stored energy: the
    engine's readings, the ledger, the supply band and the ``validate``
    command's reachability test all call them."""

    capacitance_farads: float
    v_off: float
    v_on: float
    v_max: float

    def check(self) -> None:
        if self.capacitance_farads <= 0:
            raise ZedSimError(f"capacitance must be positive, got {self.capacitance_farads}")
        if not (0 < self.v_off < self.v_on < self.v_max):
            raise ZedSimError(
                "thresholds must satisfy 0 < v_off < v_on < v_max, got "
                f"v_off={self.v_off}, v_on={self.v_on}, v_max={self.v_max}"
            )
        if not math.isfinite(self.energy(self.v_max)):
            raise ZedSimError("energy C*v_max^2/2 must be finite, got "
                              f"C={self.capacitance_farads}, v_max={self.v_max}")

    def energy(self, v: float) -> float:
        """Energy stored at ``v``, C*v^2/2, the square a product."""
        return 0.5 * self.capacitance_farads * (v * v)

    def usable(self, v: float) -> float:
        """Energy stored at ``v`` above the v_off floor, which the load never reaches."""
        return self.energy(v) - self.energy(self.v_off)


def mode_value(v_c: float, spec: CapacitorSpec, outputs_latched_on: bool) -> str:
    """Supply mode of a voltage in exactly [0, v_max], else ZedSimError: ``full``
    at v_max, ``operate`` from v_on, ``cold_start`` at or below v_off, and in the
    hysteretic band between, ``hysteresis_on`` or ``hysteresis_off`` as
    ``outputs_latched_on`` says whether v_on was reached since v_off."""
    if not 0.0 <= v_c <= spec.v_max:
        raise ZedSimError(f"voltage {v_c} outside [0, {spec.v_max}]")
    if v_c >= spec.v_max:
        return "full"
    if v_c >= spec.v_on:
        return "operate"
    if v_c <= spec.v_off:
        return "cold_start"
    return "hysteresis_on" if outputs_latched_on else "hysteresis_off"


@checked
class HarvestProfile(NamedTuple):
    """Piecewise-constant harvested current: (start time, amps) segments."""

    times: Tuple[float, ...]
    currents: Tuple[float, ...]

    def check(self) -> None:
        if len(self.times) != len(self.currents) or not self.times:
            raise ZedSimError("profile needs matching, non-empty time and current lists")
        if self.times[0] != 0.0:
            raise ZedSimError("first segment must start at t=0")
        if not all(math.isfinite(x) for x in (*self.times, *self.currents)):
            raise ZedSimError("segment start times and currents must be finite")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ZedSimError("segment start times must be strictly increasing")
        if any(i < 0 for i in self.currents):
            raise ZedSimError("harvested currents must be >= 0")

    @classmethod
    def from_pairs(cls, segments: Sequence[Tuple[float, float]]) -> "HarvestProfile":
        return cls(tuple(t for t, _ in segments), tuple(i for _, i in segments))

    @classmethod
    def constant(cls, current_amps: float) -> "HarvestProfile":
        return cls((0.0,), (current_amps,))


# s(x) = sum((-1)**(k+1) * x**k / (k+2), k = 0..7) below |x| = _S_SERIES_BELOW, where
# the direct form loses digits to cancellation; the first omitted term is ~x**8/10
_S_SERIES_BELOW = 1e-2
_NEWTON_ITERATIONS = 60


def _s_series(x):
    # Horner's rule, unrolled
    return -1 / 2 + x * (1 / 3 + x * (-1 / 4 + x * (1 / 5 + x * (-1 / 6 + x * (
        1 / 7 + x * (-1 / 8 + x * (1 / 9)))))))


def charge_time(v0: float, v1: float, current: float, power: float, capacitance: float) -> float:
    """Seconds the buffer takes to move from v0 to v1 under constant flows.

    ``current`` is the harvested current, ``power`` the load's draw from the
    buffer. The flows must move the voltage from v0 toward v1, so
    i*v0 - P must be nonzero and have the sign of v1 - v0.
    """
    a = current * v0 - power
    dv = v1 - v0
    x = current * dv / a
    s = _s_series(x) if abs(x) < _S_SERIES_BELOW else (math.log1p(x) - x) / (x * x)
    return capacitance * dv * (v0 + power * dv * s / a) / a


def voltage_after(
    v0: float, bound: float, current: float, power: float, capacitance: float, dt: float
) -> float:
    """Voltage ``dt`` seconds after v0, for flows that move it toward ``bound``
    without reaching it sooner.

    Inverts :func:`charge_time` by Newton's method clipped to [v0, bound].
    The time is concave in the voltage, so after at most one step the
    iterates approach the root from one side. Just off the unstable
    equilibrium P/i, charge_time is noisy in v and the iterates may never
    settle: after ``_NEWTON_ITERATIONS`` steps the last iterate, clipped to
    [v0, bound], is returned.
    """
    lo, hi = sorted((v0, bound))
    sq = v0 * v0 + 2.0 * (current * v0 - power) * dt / capacitance
    v = min(max(math.sqrt(max(sq, 0.0)), lo), hi)
    for _ in range(_NEWTON_ITERATIONS):
        err = charge_time(v0, v, current, power, capacitance) - dt
        nxt = v - err * (current * v - power) / (capacitance * v)
        nxt = lo if nxt < lo else hi if nxt > hi else nxt
        if abs(nxt - v) <= 1e-15 * v:
            return nxt
        v = nxt
    return v

