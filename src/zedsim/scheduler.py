"""Window-based admission control, the exit rules and the plan of each policy variant.

Time is split into fixed windows of ``window_seconds``; at most one full
pipeline (capture, preprocess, inference, indication) runs per window. Under
the adaptive start rule the device may try up to ``n_attempts`` evenly spaced
start times within the deadline; the fixed rule is the n_attempts=1 special
case. Every attempt made while the supply outputs are up costs one voltage
measurement; attempts at instants where the outputs are down are skipped for
free because the controller is unpowered.

Each variant is described once, by :func:`plan`, as a :class:`Plan`: its
admission check, a tuple of steps, and the schedule of its admission instants.
A step is one of:

- a stage name: run that stage;
- ``Check(options, otherwise, needs)``: measure, then take the first option
  whose need the usable energy covers, else ``otherwise`` (at admission,
  ``None``: try the next instant);
- ``Split(ambiguous, thresholds)``: outside the open band (gamma1, gamma2)
  exit at the shallow head with its call, inside it run ``ambiguous``;
- an ``ExitTaken`` member: light the result LED for that exit's call and stop.

The requirement of a step sequence is the worst-case buffer energy from
where it starts to the next check or to the end: stages add their energy, an
exit adds the dearer result LED, a ``Split`` takes the dearer branch, and
a ``Check`` adds its measurement and its cheapest completion, the least that
must be left once that check has been paid for. :func:`worst_case_time` is the
same walk over durations, taking the longest branch everywhere.

A run compiles its plan once, for its device, variant and gating: :func:`plan`
fills each check's ``needs`` with one float per option, its requirement plus
``guard_delta_joules``, or -inf where the variant escalates unchecked, so the
window loop reads no device and only compares the usable energy it measures
against floats.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, List, NamedTuple, Optional, Tuple

from .errors import ZedSimError, checked
from .traces import NO_PERSON, PERSON, balanced_call

VARIANT_PROPOSED = "proposed"
VARIANT_POLICY_I = "policy_i"
VARIANT_POLICY_II = "policy_ii"
VARIANT_BASELINE = "baseline"
VARIANTS = (VARIANT_PROPOSED, VARIANT_POLICY_I, VARIANT_POLICY_II, VARIANT_BASELINE)

GATING_MOSFET = "mosfet"
GATING_LOAD_SWITCH = "load_switch"
GATINGS = (GATING_MOSFET, GATING_LOAD_SWITCH)

_RESULT_LEDS = {PERSON: "led_blue", NO_PERSON: "led_red"}


class ExitTaken(Enum):
    EX1 = "ex1"
    EX2 = "ex2"
    EX1_FALLBACK = "ex1_fallback"


@checked
class Thresholds(NamedTuple):
    """Ambiguity band (gamma1, gamma2) around the balanced threshold 0.5."""

    gamma1: float
    gamma2: float

    def check(self) -> None:
        if not 0.0 <= self.gamma1 <= 0.5 <= self.gamma2 <= 1.0:
            raise ZedSimError(
                f"need 0 <= gamma1 <= 0.5 <= gamma2 <= 1, got ({self.gamma1}, {self.gamma2})"
            )


class ExitDecision(NamedTuple):
    """The exit a pipeline took and its call, from evaluate_ex1 or balanced_call."""

    exit_taken: ExitTaken
    prediction: int


def evaluate_ex1(o1: float, th: Thresholds) -> Optional[int]:
    """Shallow-head call outside the open band (gamma1, gamma2). Inside it, None:
    escalate to the deep head, which happens only if the energy check at that
    moment allows it."""
    if o1 >= th.gamma2:
        return PERSON
    if o1 <= th.gamma1:
        return NO_PERSON
    return None


@checked
class ScheduleConfig(NamedTuple):
    window_seconds: float
    deadline_seconds: float
    n_attempts: int
    guard_delta_joules: float = 0.0

    def check(self) -> None:
        if self.window_seconds <= 0:
            raise ZedSimError("window duration must be positive")
        if self.deadline_seconds < 0:
            raise ZedSimError("deadline must be >= 0")
        if not isinstance(self.n_attempts, int) or self.n_attempts < 1:
            raise ZedSimError(f"n_attempts must be an integer >= 1, got {self.n_attempts!r}")
        if self.guard_delta_joules < 0:
            raise ZedSimError("guard margin must be >= 0")


class Check(NamedTuple):
    """Measure, then continue with the first option whose need the usable energy
    covers; :func:`plan` fills ``needs`` in for its device."""

    options: tuple
    otherwise: Optional[tuple] = None
    needs: Tuple[float, ...] = ()


class Split(NamedTuple):
    """Exit at the shallow head outside the ambiguity band ``thresholds``, else
    run ``ambiguous``."""

    ambiguous: tuple
    thresholds: Thresholds


class Plan(NamedTuple):
    """Everything a window reads: the admission check of a variant and the
    schedule of the instants it is tried at."""

    admission: Check
    schedule: ScheduleConfig


def plan(device, variant: str, gating: str) -> Plan:
    """The plan of ``variant`` under ``gating``, compiled for ``device``."""
    delta = device.schedule.guard_delta_joules

    def check(options, otherwise=None):
        return Check(options, otherwise,
                     tuple(requirement(device, option) + delta for option in options))

    capture = "capture_preprocess" if gating == GATING_MOSFET else "capture_preprocess_load_switch"
    if variant == VARIANT_BASELINE:
        deep = ("capture_preprocess_load_switch", "inference_ex2", ExitTaken.EX2)
        return Plan(check((deep,)), device.schedule._replace(n_attempts=1))
    if variant == VARIANT_POLICY_I:
        deep = (capture, "inference_ex2", "led_green", ExitTaken.EX2)
        shallow = (capture, "inference_ex1", ExitTaken.EX1)
        return Plan(check((deep, shallow)), device.schedule)
    escalate = (("inference_ex1_to_ex2", "led_green", ExitTaken.EX2),)
    fallback = (ExitTaken.EX1_FALLBACK,)
    # policy II escalates on ambiguity without an energy check, but still measures
    escalation = (Check(escalate, fallback, (-math.inf,)) if variant == VARIANT_POLICY_II
                  else check(escalate, fallback))
    split = Split((escalation,), device.thresholds)
    return Plan(check(((capture, "inference_ex1", split),)), device.schedule)


def _walk(steps: tuple, total: float, cost: Callable[[str], float], pick) -> float:
    """``total`` plus the cost of ``steps``; ``pick`` combines a check's
    completions. The running total is carried into every branch, so each
    path adds its stages in the order they run."""
    for step in steps:
        if isinstance(step, Check):
            ends = step.options + ((step.otherwise,) if step.otherwise is not None else ())
            return pick(_walk(end, total, cost, pick) for end in ends) + cost("measurement")
        if isinstance(step, Split):
            return max(_walk((ExitTaken.EX1,), total, cost, pick),
                       _walk(step.ambiguous, total, cost, pick))
        exit_led = isinstance(step, ExitTaken)
        total += max(map(cost, _RESULT_LEDS.values())) if exit_led else cost(step)
    return total


def requirement(device, steps: tuple) -> float:
    """Buffer energy ``steps`` need to reach their next check or their end."""
    return _walk(steps, 0.0, device.stage_energy, min)


def worst_case_time(device, steps: tuple) -> float:
    """Longest wall time ``steps`` can take, every check's measurement included."""
    return _walk(steps, 0.0, lambda name: device.stages[name].duration_seconds, max)


class WindowOutcome(NamedTuple):
    """What happened in one window; the fields hold only what cannot be derived.

    Two flags are derived. ``deferred``: no pipeline started (``started_at`` is
    None) and no input was consumed; a brownout during an admission measurement
    still counts (nothing in flight was lost). ``power_failure``: a pipeline
    started and reached no decision, aborted below the cutoff. The input a
    started window consumed is derived too, by order: the k-th window that
    started took the trace's k-th row, so its label is read after the run.
    """

    started_at: Optional[float]
    decision: Optional[ExitDecision]
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
    for option, need in zip(check.options, check.needs):
        if usable >= need:
            return option
    return check.otherwise


def run_window(window_index: int, clock, scores: Tuple[float, float],
               compiled: Plan) -> WindowOutcome:
    """Attempt one pipeline in the given window on one input's ``scores``, its
    ``(o1, o2)`` pair: the device decides from the exit scores alone.

    ``clock`` is the simulation engine driving the capacitor: it must provide the
    attribute ``outputs_enabled`` and the methods ``usable_energy()`` (>= 0: read
    only after a measurement that left v above v_off, and E(v) - E(v_off) rounds
    in the order of the voltages), ``advance_to(t)``, ``run_stage(name) -> bool``
    (False on power failure) and ``log_event(label)``. ``compiled`` is the
    :class:`Plan` of the run's variant, compiled for the device ``clock`` runs.

    An admitted pipeline runs to its exit or a power failure and consumes the
    input (``started_at`` set); a window that no instant admits, or whose
    admission measurement browns out, is deferred.
    """
    admission, sched = compiled
    clock.log_event(f"window:{window_index}")

    for s in candidate_start_times(window_index * sched.window_seconds, sched):
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
            decision, escalation_usable = _execute(clock, scores, steps)
            clock.log_event("power_failure" if decision is None
                            else "exit:" + decision.exit_taken.value)
            return WindowOutcome(s, decision, admission_usable, escalation_usable)
    else:
        clock.log_event("defer")
    return WindowOutcome(None, None)


def _execute(clock, scores, steps):
    """Run admitted steps on ``scores`` to their exit and light the LED of its call;
    returns (decision, usable at the escalation check), the decision None on a
    power failure."""
    o1, o2 = scores
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
            call = evaluate_ex1(o1, step.thresholds)
            if call is not None:
                decision = ExitDecision(ExitTaken.EX1, call)
                break
            steps, k = step.ambiguous, 0
        elif isinstance(step, ExitTaken):
            score = o2 if step is ExitTaken.EX2 else o1
            decision = ExitDecision(step, balanced_call(score))
            break
        elif not clock.run_stage(step):
            return None, usable
    return (decision if clock.run_stage(_RESULT_LEDS[decision.prediction]) else None), usable
