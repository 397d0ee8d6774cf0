"""Window-based admission control and the plan of each policy variant.

Time is split into fixed windows of ``window_seconds``; at most one full
pipeline (capture, preprocess, inference, indication) runs per window. Under
the adaptive start rule the device may try up to ``n_attempts`` evenly spaced
start times within the deadline; the fixed rule is the n_attempts=1 special
case. Every attempt made while the supply outputs are up costs one voltage
measurement; attempts at instants where the outputs are down are skipped for
free because the controller is unpowered.

Each variant is described once, by :func:`plan`, as a tuple of steps:

- a stage name: run that stage;
- ``Check(options, otherwise, enforced, needs)``: measure, then take the
  first option whose need, its requirement plus ``guard_delta_joules``, the
  usable energy covers, else ``otherwise`` (at admission, ``None``: try the
  next instant). An unenforced check takes its first option, but still
  measures;
- ``Split(ambiguous)``: outside the open band (gamma1, gamma2) exit at the
  shallow head with the region's call, inside it run ``ambiguous``;
- ``Exit(taken)``: light the result LED for the exit's call and stop.

The requirement of a step sequence is the worst-case buffer energy from
where it starts to the next check or to the end: stages add their energy, an
``Exit`` adds the dearer result LED, a ``Split`` takes the dearer branch, and
a ``Check`` adds its measurement and its cheapest completion, the least that
must be left once that check has been paid for. :func:`worst_case_time` is the
same walk over durations, taking the longest branch everywhere.

A run compiles its plan once, for its device, variant and gating: :func:`plan`
fills each check's ``needs`` with one float per option, computed by that
walk, so the window loop only compares the usable energy it measures
against floats.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Tuple

from .errors import DomainError, checked
from .policy import (
    NO_PERSON,
    PERSON,
    ExitDecision,
    ExitTaken,
    InferenceInstance,
    Region,
    evaluate_ex1,
    evaluate_ex2,
    fallback_label,
)

VARIANT_PROPOSED = "proposed"
VARIANT_POLICY_I = "policy_i"
VARIANT_POLICY_II = "policy_ii"
VARIANT_BASELINE = "baseline"
VARIANTS = (VARIANT_PROPOSED, VARIANT_POLICY_I, VARIANT_POLICY_II, VARIANT_BASELINE)

GATING_MOSFET = "mosfet"
GATING_LOAD_SWITCH = "load_switch"
GATINGS = (GATING_MOSFET, GATING_LOAD_SWITCH)

_RESULT_LEDS = ("led_blue", "led_red")


@checked
class ScheduleConfig(NamedTuple):
    window_seconds: float
    deadline_seconds: float
    n_attempts: int
    guard_delta_joules: float = 0.0

    def check(self) -> None:
        if self.window_seconds <= 0:
            raise DomainError("window duration must be positive")
        if self.deadline_seconds < 0:
            raise DomainError("deadline must be >= 0")
        if self.n_attempts < 1 or int(self.n_attempts) != self.n_attempts:
            raise DomainError("n_attempts must be an integer >= 1")
        if self.guard_delta_joules < 0:
            raise DomainError("guard margin must be >= 0")


class Check(NamedTuple):
    """Measure, then continue with the first option whose need the usable energy
    covers. ``needs`` holds each option's requirement plus the schedule's
    ``guard_delta_joules``; :func:`plan` fills it in for its device."""

    options: tuple
    otherwise: Optional[tuple] = None
    enforced: bool = True
    needs: Tuple[float, ...] = ()


class Split(NamedTuple):
    """Exit at the shallow head outside the ambiguity band, else run ``ambiguous``."""

    ambiguous: tuple


class Exit(NamedTuple):
    """Indicate the call of the ``taken`` exit and end the pipeline."""

    taken: ExitTaken


def plan(device, variant: str, gating: str) -> Tuple[Check, Optional[int]]:
    """The admission check of ``variant`` and its cap on admission instants
    (None: every candidate instant of the schedule), compiled for ``device``."""
    delta = device.schedule.guard_delta_joules

    def check(options, otherwise=None, enforced=True):
        return Check(options, otherwise, enforced,
                     tuple(requirement(device, option) + delta for option in options))

    capture = "capture_preprocess" if gating == GATING_MOSFET else "capture_preprocess_load_switch"
    if variant == VARIANT_BASELINE:
        return check((("capture_preprocess_load_switch", "inference_ex2", Exit(ExitTaken.EX2)),)), 1
    if variant == VARIANT_POLICY_I:
        deep = (capture, "inference_ex2", "led_green", Exit(ExitTaken.EX2))
        shallow = (capture, "inference_ex1", Exit(ExitTaken.EX1))
        return check((deep, shallow)), None
    escalation = check(
        (("inference_ex1_to_ex2", "led_green", Exit(ExitTaken.EX2)),),
        otherwise=(Exit(ExitTaken.EX1_FALLBACK),),
        enforced=variant != VARIANT_POLICY_II,
    )
    return check(((capture, "inference_ex1", Split((escalation,))),)), None


def _walk(steps: tuple, total: float, cost: Callable[[str], float], pick) -> float:
    """``total`` plus the cost of ``steps``; ``pick`` combines a check's
    completions. The running total is carried into every branch, so each
    path adds its stages in the order they run."""
    for step in steps:
        if isinstance(step, Check):
            ends = step.options + ((step.otherwise,) if step.otherwise is not None else ())
            return pick(_walk(end, total, cost, pick) for end in ends) + cost("measurement")
        if isinstance(step, Split):
            return max(_walk((Exit(ExitTaken.EX1),), total, cost, pick),
                       _walk(step.ambiguous, total, cost, pick))
        total += max(cost(led) for led in _RESULT_LEDS) if isinstance(step, Exit) else cost(step)
    return total


def requirement(device, steps: tuple) -> float:
    """Buffer energy ``steps`` need to reach their next check or their end."""
    return _walk(steps, 0.0, device.stage_energy, min)


def worst_case_time(device, steps: tuple) -> float:
    """Longest wall time ``steps`` can take, every check's measurement included."""
    return _walk(steps, 0.0, lambda name: device.stage(name).duration_seconds, max)


class WindowOutcome(NamedTuple):
    """What happened in one window; the fields hold only what cannot be derived.

    Two flags are derived. ``deferred``: no pipeline started (``started_at`` is
    None) and no input was consumed; a brownout during an admission measurement
    still counts (nothing in flight was lost). ``power_failure``: a pipeline
    started and reached no decision, aborted below the cutoff.
    """

    window_index: int
    started_at: Optional[float]
    decision: Optional[ExitDecision]
    instance_id: Optional[int] = None
    correct: Optional[bool] = None
    admission_usable: Optional[float] = None
    escalation_usable: Optional[float] = None

    @property
    def deferred(self) -> bool:
        return self.started_at is None

    @property
    def power_failure(self) -> bool:
        return self.started_at is not None and self.decision is None


def candidate_start_times(t_k: float, cfg: ScheduleConfig) -> List[float]:
    """The n_attempts admission instants of the window starting at t_k."""
    step = cfg.deadline_seconds / cfg.n_attempts
    return [t_k + i * step for i in range(cfg.n_attempts)]


def _choose(check: Check, usable: float) -> Optional[tuple]:
    """The first option of ``check`` whose need ``usable`` covers, else ``otherwise``."""
    if not check.enforced:
        return check.options[0]
    for option, need in zip(check.options, check.needs):
        if usable >= need:
            return option
    return check.otherwise


def run_window(
    window_index: int,
    clock,
    device,
    instance: InferenceInstance,
    compiled: Tuple[Check, Optional[int]],
) -> WindowOutcome:
    """Attempt one pipeline in the given window.

    ``clock`` is the simulation engine driving the capacitor: it must provide the
    attribute ``outputs_enabled`` and the methods ``usable_energy()`` (>= 0),
    ``advance_to(t)``, ``run_stage(name) -> bool`` (False on power failure) and
    ``log_event(label)``. ``device`` is the DeviceConfig carrying stage profiles,
    thresholds and the schedule, and ``compiled`` is what :func:`plan` gives for it.

    An admitted pipeline runs to its exit or a power failure and consumes the
    instance (``started_at`` set); a window that no instant admits, or whose
    admission measurement browns out, is deferred.
    """
    sched = device.schedule
    t_k = window_index * sched.window_seconds
    clock.log_event(f"window:{window_index}")
    admission, attempts = compiled

    for s in candidate_start_times(t_k, sched)[:attempts]:
        clock.advance_to(s)
        if not clock.outputs_enabled:
            continue
        if not clock.run_stage("measurement"):
            # monitoring brownout before anything was admitted: the window is
            # deferred and the device cold-starts; no pipeline work was lost
            clock.log_event("measurement_brownout")
            break
        admission_usable = clock.usable_energy()
        steps = _choose(admission, admission_usable)
        if steps is not None:
            clock.log_event("admit")
            decision, escalation_usable = _execute(clock, device, instance, steps)
            clock.log_event("power_failure" if decision is None
                            else "exit:" + decision.exit_taken.value)
            return WindowOutcome(
                window_index, s, decision, instance.id,
                correct=None if decision is None else decision.prediction == instance.label,
                admission_usable=admission_usable, escalation_usable=escalation_usable,
            )
    else:
        clock.log_event("defer")
    return WindowOutcome(window_index, None, None)


def _execute(clock, device, instance, steps):
    """Run admitted steps to their exit and light the LED of its call; returns
    (decision, usable at the escalation check), the decision None on a power failure."""
    usable = None
    k = 0
    while True:
        step = steps[k]
        k += 1
        if isinstance(step, Check):
            if not clock.run_stage("measurement"):
                return None, usable
            usable = clock.usable_energy()
            steps, k = _choose(step, usable), 0
        elif isinstance(step, Split):
            region = evaluate_ex1(instance.o1, device.thresholds)
            if region is not Region.AMBIGUOUS:
                pred = PERSON if region is Region.PERSON else NO_PERSON
                decision = ExitDecision(ExitTaken.EX1, pred)
                break
            steps, k = step.ambiguous, 0
        elif isinstance(step, Exit):
            pred = (evaluate_ex2(instance.o2) if step.taken is ExitTaken.EX2
                    else fallback_label(instance.o1))
            decision = ExitDecision(step.taken, pred)
            break
        elif not clock.run_stage(step):
            return None, usable
    led = "led_blue" if decision.prediction == PERSON else "led_red"
    return (decision if clock.run_stage(led) else None), usable
