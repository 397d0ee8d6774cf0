"""Capacitor-buffer and pipeline-stage energy arithmetic.

All quantities are SI (joules, volts, farads, amps, seconds). The storage
element is an ideal capacitor, E = C*v^2/2. Only the share stored above the
supply cutoff voltage ``v_off`` counts as usable: the power management unit
shuts the outputs down at that floor, so energy below it can never reach the
load. :meth:`CapacitorSpec.energy` and :meth:`CapacitorSpec.usable` are the
one home of stored energy: the engine's readings, the ledger, the supply
band and ``validate``'s reachability test all call them.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError, checked


@checked
class CapacitorSpec(NamedTuple):
    """Storage capacitor plus the three supply thresholds acting on it."""

    capacitance_farads: float
    v_off: float
    v_on: float
    v_max: float

    def check(self) -> None:
        if not all(map(math.isfinite, self)):
            raise DomainError(f"capacitance and thresholds must be finite, got {self}")
        if self.capacitance_farads <= 0:
            raise DomainError(f"capacitance must be positive, got {self.capacitance_farads}")
        if not (0 < self.v_off < self.v_on < self.v_max):
            raise DomainError(
                "thresholds must satisfy 0 < v_off < v_on < v_max, got "
                f"v_off={self.v_off}, v_on={self.v_on}, v_max={self.v_max}"
            )
        if not math.isfinite(self.energy(self.v_max)):
            raise DomainError("energy C*v_max^2/2 must be finite, got "
                              f"C={self.capacitance_farads}, v_max={self.v_max}")

    def energy(self, v: float) -> float:
        """Energy stored at ``v``, C*v^2/2, the square a product."""
        return 0.5 * self.capacitance_farads * (v * v)

    def usable(self, v: float) -> float:
        """Energy stored at ``v`` above the v_off floor, which the load never reaches."""
        return self.energy(v) - self.energy(self.v_off)


@checked
class StageProfile(NamedTuple):
    """Measured load profile of one pipeline state at the regulated rail.

    The energy of the stage is exactly supply_volts * duration_seconds *
    current_amps (see :func:`state_energy`); current is the energy-equivalent
    mean over the stage.
    """

    name: str
    current_amps: float
    duration_seconds: float
    supply_volts: float = 3.3

    def check(self) -> None:
        if self.current_amps < 0:
            raise DomainError(f"stage {self.name!r}: current must be >= 0")
        if self.duration_seconds < 0:
            raise DomainError(f"stage {self.name!r}: duration must be >= 0")
        if self.supply_volts <= 0:
            raise DomainError(f"stage {self.name!r}: supply voltage must be positive")
        if not (math.isfinite(self.power_watts) and math.isfinite(state_energy(self))):
            raise DomainError(f"stage {self.name!r}: power and energy must be finite")

    @property
    def power_watts(self) -> float:
        return self.supply_volts * self.current_amps


def state_energy(profile: StageProfile) -> float:
    """Energy drawn by one run of the stage: supply * duration * current."""
    return profile.supply_volts * profile.duration_seconds * profile.current_amps

