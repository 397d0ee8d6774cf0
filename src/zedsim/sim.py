"""Event-driven simulation engine tying supply, scheduler and policy together.
It only simulates and writes no file: :mod:`zedsim.cli` formats every artifact.

The engine integrates the capacitor exactly: between events the harvest
current and the load power are constant, so each piece has a closed form
(see :mod:`zedsim.pmu`) and the engine jumps from one event to the next.
Events are harvest segment boundaries, stage ends, scheduler instants, and
the voltage reaching v_off, v_on (while latched off) or v_max. The cost of a
run therefore scales with its number of events, not with its horizon.

The trajectory is the engine's piece record in five columns: each piece's
start time and voltage, harvest current, load power and latch, closed by the
run's final state as a row of zero length, current and power. A piece ends
where the next row starts. Within a piece the flows are constant, so v_c
moves monotonically from one knot to the next; the knots hold every extremum,
every v_off, v_on and v_max crossing and every latch change exactly, and the
closed forms of :mod:`zedsim.pmu` give v_c at any time between them.

A run is strictly sequential and deterministic: given the same configuration,
harvest profile and trace it reproduces bit-identical trajectories, window
outcomes and totals, so a replay compares equal. Times are compared exactly and
squares are products, rounded correctly where pow may not be, so a run is
invariant under power-of-two scaling of time, current and voltage. The record
is the only ledger: the energy totals are folded from it once the run closes
(:meth:`Trajectory.ledger`), each as one exact sum in which the C*v^2/2 terms
of adjacent pieces cancel. So initial buffer energy plus harvested energy
equals final buffer energy plus load debits plus the energy discarded while the
capacitor is pinned at its ceiling, to within one rounding of each total.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from itertools import chain, compress
from operator import mul, neg, sub
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .config import DeviceConfig
from .energy import CapacitorSpec
from .errors import ConfigError, DomainError, SimulationFault, checked
from .pmu import HarvestProfile, charge_time, mode_value, voltage_after
from .policy import ExitTaken, InferenceInstance
from .scheduler import (
    GATING_MOSFET,
    GATINGS,
    VARIANT_PROPOSED,
    VARIANTS,
    WindowOutcome,
    plan,
    run_window,
)


@checked
class SimConfig(NamedTuple):
    device: DeviceConfig
    initial_v: float
    horizon_seconds: float
    policy_variant: str = VARIANT_PROPOSED
    gating_variant: str = GATING_MOSFET

    def check(self) -> None:
        cap = self.device.capacitor
        for name in ("initial_v", "horizon_seconds"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not cap.v_off <= self.initial_v <= cap.v_max:
            raise ConfigError(
                f"initial_v={self.initial_v} outside [v_off={cap.v_off}, v_max={cap.v_max}]"
            )
        if self.horizon_seconds <= 0:
            raise ConfigError("horizon must be positive")
        if self.policy_variant not in VARIANTS:
            raise ConfigError(f"unknown policy variant {self.policy_variant!r}")
        if self.gating_variant not in GATINGS:
            raise ConfigError(f"unknown gating variant {self.gating_variant!r}")

    def to_dict(self) -> dict:
        return {**self._asdict(), "device": self.device.to_dict()}


class SimTotals(NamedTuple):
    energy_consumed_j: float
    harvested_j: float
    clamp_loss_j: float
    initial_energy_j: float
    final_energy_j: float
    n_windows: int
    completed_pipelines: int
    deferred_windows: int
    power_failures: int
    n_ex1: int
    n_ex2: int
    n_fallback: int
    accuracy_total: Optional[float]


class SimResult(NamedTuple):
    config: dict
    events: List[Tuple[float, str]]
    windows: List[WindowOutcome]
    totals: SimTotals
    trajectory: "Trajectory"


class Trajectory:
    """A run's closed piece record; iterates its (time, v_c, mode) knots."""

    __slots__ = ("columns", "capacitor")

    def __init__(self, columns: Tuple[array, ...], capacitor: CapacitorSpec) -> None:
        self.columns, self.capacitor = columns, capacitor

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.columns, self.capacitor) == (other.columns, other.capacitor)

    def __repr__(self) -> str:
        return f"Trajectory({len(self)} rows)"

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self) -> Iterator[Tuple[float, float, str]]:
        t0, v0, _, _, latched = self.columns
        for t, v, on in zip(t0, v0, latched):
            yield t, v, mode_value(v, self.capacitor, on)

    def ledger(self) -> Tuple[float, float, float, float, float]:
        """The record's energies in :class:`SimTotals`' order: consumed, harvested
        and clamp loss, each its pieces' terms summed exactly and rounded once, then
        E(v) at the first and the last row. A piece with harvest consumes p*dt and
        harvests E(v1) - E(v0) + p*dt plus its clamp loss, the surplus i*v - p while
        pinned at v_max; a piece without harvest consumes E(v0) - E(v1)."""
        t0, v0, current, power, _ = self.columns
        cap = self.capacitor
        e0 = [0.5 * cap.capacitance_farads * (v * v) for v in v0]  # as the engine computes E
        e1 = e0[1:]  # each piece ends where the next row starts
        dt = list(map(sub, t0[1:], t0))
        work = list(map(mul, power, dt))
        lit = list(map(bool, current[:-1]))
        dark = [not x for x in lit]
        clamp = [(i * v - p) * d for v, i, p, d in zip(v0, current, power, dt)
                 if v >= cap.v_max and i * v > p]
        return (_fsum(compress(work, lit), compress(e0, dark), map(neg, compress(e1, dark))),
                _fsum(compress(e1, lit), map(neg, compress(e0, lit)), compress(work, lit), clamp),
                _fsum(clamp), e0[0], e0[-1])


def _fsum(*terms) -> float:
    """``math.fsum`` of the chained terms; nan on an intermediate overflow or inf - inf."""
    try:
        return math.fsum(chain(*terms))
    except (OverflowError, ValueError):
        return math.nan


class _Engine:
    """Event-driven capacitor integrator and stage runner; the scheduler's clock.

    Between events the harvest current and the load power are constant, so each
    piece of the run is solved in closed form. A piece ends at the earliest of:
    the requested time (a stage end or a scheduler instant), a harvest segment
    boundary, the voltage reaching v_off (a power failure inside a stage, or
    latch-off under idle draw), v_on while latched off (which switches the idle
    draw on), or v_max (after which the buffer stays pinned and the surplus is
    clamp loss). Times are compared exactly, so the run is invariant under
    power-of-two scaling of time, current and voltage. Every piece that moves
    the clock appends its start, current, power and latch to ``pieces``;
    :meth:`close` ends the record with the current state, and the record is the
    run's only ledger. ``time`` and ``outputs_enabled`` are plain attributes.
    """

    def __init__(self, device: DeviceConfig, harvest: HarvestProfile, initial_v: float):
        cap = device.capacitor
        self._cap = cap
        self._c = cap.capacitance_farads
        self._eta = device.converter_efficiency
        rail = device.stage("measurement").supply_volts
        self._idle_draw = rail * device.idle_current_amps / self._eta
        # per stage: duration and the draw on the buffer, converter losses included
        self._stages = {name: (prof.duration_seconds, prof.power_watts / self._eta)
                        for name, prof in device.stages.items()}

        self.time = 0.0
        self._v = initial_v
        self.outputs_enabled = initial_v >= cap.v_on

        self._seg_times = (*harvest.times, math.inf)  # the last segment never ends
        self._seg_currents = harvest.currents
        self._seg_k = 0

        # per piece: start time, start voltage, current, power, latch
        self.pieces: Tuple[array, ...] = (*(array("d") for _ in range(4)), array("b"))
        self.events: List[Tuple[float, str]] = []

    def usable_energy(self) -> float:
        return max(0.0, 0.5 * self._c * (self._v * self._v) - self._cap.energy_floor)

    def log_event(self, label: str) -> None:
        self.events.append((self.time, label))

    def advance_to(self, t_target: float) -> None:
        self._advance(t_target, None)

    def run_stage(self, name: str) -> bool:
        """Run one pipeline stage; False if the supply latched off during it."""
        duration, draw = self._stages[name]
        if draw > 0 and not self.outputs_enabled:
            raise SimulationFault(f"stage {name!r} requested at t={self.time} with outputs disabled")
        self.log_event("stage:" + name)
        return not self._advance(self.time + duration, draw)

    def _advance(self, end: float, draw: Optional[float]) -> bool:
        """Move to ``end`` under a stage's ``draw``, or idle when it is None.

        Returns True when the supply latched off during a stage, which stops it
        there: the one test that turns the latch off also ends the stage, so a
        stage whose end voltage rounds onto v_off fails as one that crosses it.
        """
        cap = self._cap
        times = self._seg_times
        while end > self.time:
            t, v = self.time, self._v
            k = self._seg_k
            while times[k + 1] <= t:
                k += 1
            self._seg_k = k
            limit = min(times[k + 1], end)
            i = self._seg_currents[k]
            p = (self._idle_draw if self.outputs_enabled else 0.0) if draw is None else draw
            a = i * v - p
            if a > 0 and v < cap.v_max:
                bound = cap.v_max if self.outputs_enabled else cap.v_on
            elif a < 0:
                bound = cap.v_off
            else:  # no net flow, or pinned at the ceiling
                bound = v
            if bound == v:
                v1, t1 = v, limit
            else:
                tau = charge_time(v, bound, i, p, self._c)
                if tau <= limit - t:
                    v1, t1 = bound, t + tau
                else:
                    v1, t1 = voltage_after(v, bound, i, p, self._c, limit - t), limit
            self._piece(t, t1, v, v1, i, p)
            if v1 >= cap.v_on:
                self.outputs_enabled = True
            elif v1 <= cap.v_off:
                self.outputs_enabled = False
                if draw is not None:
                    return True
        return False

    def _piece(self, t: float, t1: float, v: float, v1: float, i: float, p: float) -> None:
        """Move the state to the end of one piece and append its row to the record.
        A piece too short to move the clock only moves the state, which the next
        row's v0 carries, and a static dark piece (no current, no power) that
        repeats the last row's v0 and latch only lengthens that row."""
        t0s, v0s, currents, powers, latched = self.pieces
        if t1 > t and not (i == p == 0.0 and v0s and v0s[-1] == v and currents[-1] == 0.0
                           and powers[-1] == 0.0 and latched[-1] == self.outputs_enabled):
            t0s.append(t)
            v0s.append(v)
            currents.append(i)
            powers.append(p)
            latched.append(self.outputs_enabled)
        self.time, self._v = t1, v1

    def close(self) -> Trajectory:
        """The record, closed in place by the current state as a zero-length row."""
        row = (self.time, self._v, 0.0, 0.0, self.outputs_enabled)
        for column, value in zip(self.pieces, row):
            column.append(value)
        return Trajectory(self.pieces, self._cap)


def simulate(
    cfg: SimConfig, harvest: HarvestProfile, trace: Sequence[InferenceInstance]
) -> SimResult:
    """Run one end-to-end experiment; deterministic in all inputs."""
    device = cfg.device
    device.validate()
    sched = device.schedule
    n_windows = int(cfg.horizon_seconds // sched.window_seconds)
    if len(trace) < n_windows:
        raise ConfigError(
            f"trace has {len(trace)} instances but the horizon holds {n_windows} windows"
        )

    engine = _Engine(device, harvest, cfg.initial_v)
    compiled = plan(device, cfg.policy_variant, cfg.gating_variant)

    windows: List[WindowOutcome] = []
    instances = iter(trace)
    instance = next(instances, None)
    for k in range(n_windows):
        outcome = run_window(k, engine, device, instance, compiled)
        if outcome.started_at is not None:
            instance = next(instances, None)
        windows.append(outcome)
        engine.advance_to((k + 1) * sched.window_seconds)
    engine.advance_to(cfg.horizon_seconds)

    trajectory = engine.close()
    totals = _aggregate(windows, trajectory, n_windows)
    result = SimResult(cfg.to_dict(), engine.events, windows, totals, trajectory)
    energies = {k: v for k, v in totals._asdict().items() if k.endswith("_j")}
    energies["ledger_residual_j"] = energy_ledger_residual(result)
    overflowed = [f"{k}={v!r}" for k, v in energies.items() if not math.isfinite(v)]
    if overflowed:
        raise DomainError(f"energy totals not finite ({', '.join(overflowed)}): "
                          "the harvest current or the stage energies are too large")
    return result


def _aggregate(windows, trajectory, n_windows) -> SimTotals:
    completed = [w for w in windows if w.decision is not None]
    exits = Counter(w.decision.exit_taken for w in completed)
    return SimTotals(
        *trajectory.ledger(),  # the five energies, energy_consumed_j to final_energy_j
        n_windows=n_windows,
        completed_pipelines=len(completed),
        deferred_windows=sum(w.deferred for w in windows),
        power_failures=sum(w.power_failure for w in windows),
        n_ex1=exits[ExitTaken.EX1],
        n_ex2=exits[ExitTaken.EX2],
        n_fallback=exits[ExitTaken.EX1_FALLBACK],
        accuracy_total=sum(w.correct for w in completed) / len(completed) if completed else None,
    )


def energy_ledger_residual(result: SimResult) -> float:
    """Closure error of the energy ledger; ~0 for a sound run."""
    t = result.totals
    return (
        t.initial_energy_j
        + t.harvested_j
        - t.final_energy_j
        - t.energy_consumed_j
        - t.clamp_loss_j
    )
