"""Deterministic simulator of a solar-harvesting camera node that runs a
two-exit person detector under capacitor energy constraints."""

__version__ = "0.1.0"
