"""Deterministic simulator of a solar-harvesting camera node that runs a
two-exit person detector under capacitor energy constraints."""

from .config import DeviceConfig, load_config, config_hash
from .energy import CapacitorSpec, StageProfile, state_energy
from .pmu import HarvestProfile
from .policy import (
    ExitDecision,
    ExitTaken,
    InferenceInstance,
    Region,
    Thresholds,
    evaluate_ex1,
    evaluate_ex2,
    fallback_label,
    sweep_thresholds,
)
from .scheduler import (
    ScheduleConfig,
    WindowOutcome,
    candidate_start_times,
    plan,
    requirement,
    run_window,
    worst_case_time,
)
from .sim import (
    PolicyComparison,
    SimConfig,
    SimResult,
    SimTotals,
    compare_policies,
    energy_ledger_residual,
    simulate,
)
from .traces import (
    GeneratorSpec,
    TraceStats,
    generate_trace,
    load_harvest,
    load_trace,
    save_harvest,
    save_trace,
    trace_statistics,
)

__version__ = "0.1.0"
