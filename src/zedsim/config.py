"""Device configuration: capacitor, stage profiles, thresholds, schedule.

The bundled defaults describe the reference device: an nRF52840-class
controller with a 0.3 MP camera behind a MOSFET power gate, fed from a
1.5 F capacitor at a 3.3 V regulated rail. Every default can be overridden
from a JSON file; unspecified keys take the defaults. For provenance each
command writes the fully resolved tree once, to ``resolved_config.json``, and
every artifact carries only its SHA-256.

The JSON keys are the records' field names: the root's are
:class:`DeviceConfig`'s, each section's those of its record
(:class:`~zedsim.pmu.CapacitorSpec`, :class:`~zedsim.scheduler.Thresholds`,
:class:`~zedsim.scheduler.ScheduleConfig`), and a stage's those of
:class:`StageProfile`. A stage is its entry in ``stages``: its name is its key.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from typing import Dict, List, NamedTuple

from .errors import ZedSimError, checked
from .pmu import CapacitorSpec
from .scheduler import GATINGS, VARIANTS, ScheduleConfig, Thresholds, plan, worst_case_time

RAIL_VOLTS = 3.3


@checked
class StageProfile(NamedTuple):
    """Measured load profile of one pipeline state at the regulated rail.

    The energy of the stage is exactly supply_volts * duration_seconds *
    current_amps (:attr:`energy_joules`); current is the energy-equivalent
    mean over the stage.
    """

    current_amps: float
    duration_seconds: float
    supply_volts: float = RAIL_VOLTS

    def check(self) -> None:
        if self.current_amps < 0:
            raise ZedSimError("current must be >= 0")
        if self.duration_seconds < 0:
            raise ZedSimError("duration must be >= 0")
        if self.supply_volts <= 0:
            raise ZedSimError("supply voltage must be positive")
        if not (math.isfinite(self.power_watts) and math.isfinite(self.energy_joules)):
            raise ZedSimError("power and energy must be finite")

    @property
    def power_watts(self) -> float:
        return self.supply_volts * self.current_amps

    @property
    def energy_joules(self) -> float:
        """Energy drawn by one run of the stage: supply * duration * current."""
        return self.supply_volts * self.duration_seconds * self.current_amps


def derive_escalation_stage(ex1: StageProfile, ex2: StageProfile) -> StageProfile:
    """Escalation segment implied by the shallow and deep inference profiles.

    Runs for the extra time the deep exit needs and carries exactly the extra
    energy, so shallow + escalation reproduces the deep totals.
    """
    duration = ex2.duration_seconds - ex1.duration_seconds
    extra = ex2.energy_joules - ex1.energy_joules
    if duration <= 0 or extra <= 0:
        raise ZedSimError("stages.inference_ex2: must take longer and cost more than "
                          "stages.inference_ex1")
    current = extra / (ex2.supply_volts * duration)
    try:
        return StageProfile(current, duration, ex2.supply_volts)
    except ZedSimError as exc:
        raise ZedSimError(f"stages.inference_ex1_to_ex2: {exc}") from None


# Measured device characterization at the 3.3 V rail: mean current draw (A)
# and duration (s) per pipeline state. The voltage-measurement pulse is spiky,
# so its current is the energy-equivalent mean over the 4.145 ms burst
# (0.8934 mJ per sample).
_DEFAULT_STAGES: Dict[str, StageProfile] = {
    "capture_preprocess": StageProfile(15.5868e-3, 1.4172),
    "capture_preprocess_load_switch": StageProfile(23.7491e-3, 1.4092),
    "inference_ex1": StageProfile(5.6646e-3, 0.4341),
    "inference_ex2": StageProfile(5.8884e-3, 0.6891),
    "measurement": StageProfile(0.8934e-3 / (RAIL_VOLTS * 4.145e-3), 4.145e-3),
    "led_green": StageProfile(0.7162e-3, 0.050),
    "led_blue": StageProfile(0.5714e-3, 0.100),
    "led_red": StageProfile(1.1912e-3, 0.100),
}
_DEFAULT_STAGES["inference_ex1_to_ex2"] = derive_escalation_stage(
    _DEFAULT_STAGES["inference_ex1"], _DEFAULT_STAGES["inference_ex2"]
)

STAGE_NAMES = tuple(_DEFAULT_STAGES)

_DEFAULT_CAPACITOR = CapacitorSpec(1.5, 3.6, 3.92, 4.5)
_DEFAULT_THRESHOLDS = Thresholds(0.3, 0.7)
_DEFAULT_SCHEDULE = ScheduleConfig(10.0, 4.0, 20, 0.0)
_MIN_LATCH_SECONDS = 0.1  # at most ten latch cycles a second under the idle draw alone
_MAX_ATTEMPTS = 1000  # admission instants per window, whatever their spacing


class DeviceConfig(NamedTuple):
    capacitor: CapacitorSpec
    stages: Dict[str, StageProfile]
    thresholds: Thresholds
    schedule: ScheduleConfig
    converter_efficiency: float = 1.0
    idle_current_amps: float = 0.0

    @classmethod
    def default(cls) -> "DeviceConfig":
        return cls.from_dict({})

    def stage_energy(self, name: str) -> float:
        """Energy one run of the stage draws from the buffer, converter losses included."""
        return self.stages[name].energy_joules / self.converter_efficiency

    def idle_draw(self) -> float:
        """Idle power drawn from the buffer at the measurement stage's rail, losses included."""
        rail = self.stages["measurement"].supply_volts
        return rail * self.idle_current_amps / self.converter_efficiency

    def problems(self) -> List[str]:
        """Field-level diagnostics; empty when the configuration is sound."""
        out = []
        if self.converter_efficiency <= 0 or self.converter_efficiency > 1:
            out.append("converter_efficiency: must be in (0, 1]")
        if self.idle_current_amps < 0:
            out.append("idle_current_amps: must be >= 0")
        for name in STAGE_NAMES:
            if name not in self.stages:
                out.append(f"stages.{name}: missing stage profile")
        if not out:
            # a band below one measurement, an idle draw above it, or one that empties the
            # band in under _MIN_LATCH_SECONDS makes the supply chatter
            cap, measurement = self.capacitor, self.stages["measurement"]
            band = cap.usable(cap.v_on)
            e_measure = self.stage_energy("measurement")
            if band < e_measure:
                out.append(f"capacitor: the v_off..v_on band holds {band:.4g} J, "
                           f"less than one {e_measure:.4g} J measurement")
            if self.idle_current_amps > measurement.current_amps:
                out.append(f"idle_current_amps: {self.idle_current_amps} A draws more than "
                           f"the measurement's {measurement.current_amps:.4g} A")
            idle = self.idle_draw()
            if band < idle * _MIN_LATCH_SECONDS:
                out.append(f"capacitor: the v_off..v_on band feeds the {idle:.4g} W idle draw "
                           f"for {band / idle:.4g} s, less than {_MIN_LATCH_SECONDS} s")
            window, deadline = self.schedule.window_seconds, self.schedule.deadline_seconds
            n, measure = self.schedule.n_attempts, measurement.duration_seconds
            if n > 1 and deadline / n < measure:
                out.append(f"schedule: {n} attempts in a {deadline} s deadline are closer "
                           f"than one {measure} s measurement")
            if n > _MAX_ATTEMPTS:
                out.append(f"schedule: {n} attempts per window, more than {_MAX_ATTEMPTS}")
            for variant in VARIANTS:
                for gating in GATINGS:
                    t_exe = worst_case_time(self, (plan(self, variant, gating).admission,))
                    if deadline + t_exe >= window:
                        out.append(
                            f"schedule: deadline + execution time >= window "
                            f"({deadline} + {t_exe:.4f} >= {window}) "
                            f"for variant {variant!r} under {gating!r} gating"
                        )
        return out

    def to_dict(self) -> dict:
        return {
            **self._asdict(),
            "capacitor": self.capacitor._asdict(),
            "stages": {name: p._asdict() for name, p in sorted(self.stages.items())},
            "thresholds": self.thresholds._asdict(),
            "schedule": self.schedule._asdict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DeviceConfig":
        if not isinstance(data, dict):
            raise ZedSimError("config root must be a JSON object")
        unknown = set(data) - set(cls._fields)
        if unknown:
            raise ZedSimError(f"unknown config keys: {sorted(unknown)}")
        capacitor = _override(_DEFAULT_CAPACITOR, data, "capacitor")
        thresholds = _override(_DEFAULT_THRESHOLDS, data, "thresholds")
        schedule = _override(_DEFAULT_SCHEDULE, data, "schedule")
        top = _numbers({k: data[k] for k in cls._field_defaults if k in data}, "")

        stages = dict(_DEFAULT_STAGES)
        overrides = _section(data, "stages", STAGE_NAMES)
        for name in overrides:
            stages[name] = _override(stages[name], overrides, name, "stages.")
        if "inference_ex1_to_ex2" not in overrides:
            stages["inference_ex1_to_ex2"] = derive_escalation_stage(
                stages["inference_ex1"], stages["inference_ex2"]
            )

        return cls(capacitor, stages, thresholds, schedule, **top)

    def with_capacitance(self, capacitance_farads: float) -> "DeviceConfig":
        return self._replace(capacitor=self.capacitor._replace(capacitance_farads=capacitance_farads))


def _section(data: dict, key: str, allowed, prefix: str = "") -> dict:
    """``data[key]`` (empty when absent), once it is an object of ``allowed`` keys."""
    entry = data.get(key, {})
    if not isinstance(entry, dict):
        raise ZedSimError(f"{prefix}{key}: must be an object")
    unknown = set(entry) - set(allowed)
    if unknown:
        raise ZedSimError(f"{prefix}{key}: unknown keys {sorted(unknown)}")
    return entry


def _override(record, data: dict, key: str, prefix: str = ""):
    """``record`` with the fields ``data[key]`` gives; a fault names ``prefix + key``."""
    fields = _numbers(_section(data, key, record._fields, prefix), prefix + key)
    try:
        return record._replace(**fields)
    except ZedSimError as exc:
        raise ZedSimError(f"{prefix}{key}: {exc}") from None


def _numbers(entry: dict, prefix: str) -> dict:
    """``entry`` itself, once every value in it is a finite number."""
    for key, value in entry.items():
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max  # nan, inf, or an int no float holds
        ):
            name = f"{prefix}.{key}" if prefix else key
            raise ZedSimError(f"{name}: must be a finite number, got {value!r}")
    return entry


def _object(pairs) -> dict:
    """A JSON object as a dict; a key given twice raises ZedSimError naming it,
    where ``json`` would keep only the last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ZedSimError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def load_config(path) -> DeviceConfig:
    with open(path) as fh:
        try:
            data = json.load(fh, object_pairs_hook=_object)
        except (ValueError, RecursionError) as exc:
            # ValueError also covers undecodable bytes and integers too long to convert
            raise ZedSimError(f"{path}: not valid JSON ({exc})") from None
    return DeviceConfig.from_dict(data)


def config_hash(resolved: dict) -> str:
    """Stable hash of a fully resolved configuration tree."""
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
