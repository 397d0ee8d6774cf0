"""Exit-selection rules for the two-exit detector and trace-level statistics.

A call is ``PERSON`` or ``NO_PERSON``. The shallow head calls outside the open
ambiguity band (gamma1, gamma2); inside it :func:`evaluate_ex1` returns None,
which means escalate to the deep head, and whether that actually happens
depends on the energy check at that moment. Every other call is
:func:`balanced_call`, so ties at 0.5 resolve to "person" everywhere.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from enum import Enum
from itertools import accumulate
from typing import Iterable, Iterator, List, NamedTuple, Optional

from .errors import DomainError, checked

PERSON = 1
NO_PERSON = 0


class ExitTaken(Enum):
    EX1 = "ex1"
    EX2 = "ex2"
    EX1_FALLBACK = "ex1_fallback"


@checked
class InferenceInstance(NamedTuple):
    """One input's scores at both exits plus its ground-truth label."""

    id: int
    o1: float
    o2: float
    label: int

    def check(self) -> None:
        check_instance(self.id, self.o1, self.o2, self.label)


def check_instance(id: int, o1: float, o2: float, label: int) -> None:
    """Raise DomainError unless both scores are in [0, 1] and the label is 0 or 1."""
    if not 0.0 <= o1 <= 1.0:
        raise DomainError(f"instance {id}: o1={o1} outside [0, 1]")
    if not 0.0 <= o2 <= 1.0:
        raise DomainError(f"instance {id}: o2={o2} outside [0, 1]")
    if label not in (0, 1):
        raise DomainError(f"instance {id}: label must be 0 or 1")


class Trace:
    """A trace as columns: ``ids`` a list, ``o1`` and ``o2`` arrays of 'd', ``labels``
    of 'b'. Iteration yields row k as ``InferenceInstance(ids[k], o1[k], o2[k], labels[k])``."""

    __slots__ = ("ids", "o1", "o2", "labels")

    def __init__(self, ids: list, o1: array, o2: array, labels: array) -> None:
        self.ids, self.o1, self.o2, self.labels = ids, o1, o2, labels

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.ids, self.o1, self.o2, self.labels)
                == (other.ids, other.o1, other.o2, other.labels))

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[InferenceInstance]:
        return map(InferenceInstance, self.ids, self.o1, self.o2, self.labels)


@checked
class Thresholds(NamedTuple):
    """Ambiguity band (gamma1, gamma2) around the balanced threshold 0.5."""

    gamma1: float
    gamma2: float

    def check(self) -> None:
        if not 0.0 <= self.gamma1 <= 0.5 <= self.gamma2 <= 1.0:
            raise DomainError(
                f"need 0 <= gamma1 <= 0.5 <= gamma2 <= 1, got ({self.gamma1}, {self.gamma2})"
            )


class ExitDecision(NamedTuple):
    """The exit a pipeline took and its call, from evaluate_ex1 or balanced_call."""

    exit_taken: ExitTaken
    prediction: int


def evaluate_ex1(o1: float, th: Thresholds) -> Optional[int]:
    """Shallow-head call outside the open band; None, escalate, inside it."""
    if o1 >= th.gamma2:
        return PERSON
    if o1 <= th.gamma1:
        return NO_PERSON
    return None


def balanced_call(score: float) -> int:
    """Balanced-threshold call on either head's score: the deep exit's, and the
    shallow one's when escalation is denied."""
    return PERSON if score >= 0.5 else NO_PERSON


class SweepCell(NamedTuple):
    """Exit counts and accuracies of one threshold pair over a trace.

    Accuracy fields are None when no instance landed in that exit.
    """

    gamma1: float
    gamma2: float
    acc_ex1: Optional[float]
    acc_ex2: Optional[float]
    acc_total: float
    n_ex1: int
    n_ex2: int


SWEEP_HEADER = list(SweepCell._fields)


def sweep_thresholds(trace: Trace, grid: Iterable[Thresholds]) -> List[SweepCell]:
    """Evaluate every threshold pair over the trace with unlimited energy.

    The row indices are sorted once by shallow score (a stable sort, so equal
    scores keep trace order), with prefix counts of person labels and of
    correct deep-exit calls in that order. Each cell then reads its
    counts at two cut points, bisecting the sorted scores: ``hi``, the first
    score >= gamma2, and ``lo``, the first score > gamma1, capped at ``hi``.
    Scores from ``hi`` on exit as PERSON, scores below ``lo`` exit as
    NO_PERSON, and ``[lo, hi)`` is the ambiguous band that goes to exit 2.
    These are the tie rules of :func:`evaluate_ex1`: a score equal to gamma2
    is PERSON, one equal to gamma1 (and below gamma2) is NO_PERSON, so with
    gamma1 = gamma2 = 0.5 a score of 0.5 is PERSON. The cost is O(n log n)
    for the sort plus O(log n) per cell. The deep exit's counts inline
    :func:`balanced_call` as ``>= 0.5``.
    """
    n = len(trace)
    if not n:
        raise DomainError("trace must be non-empty")
    o1, o2, labels = trace.o1, trace.o2, trace.labels
    order = sorted(range(n), key=o1.__getitem__)
    s1 = [o1[k] for k in order]
    # among the k lowest shallow scores: persons[k] person labels, deep_ok[k]
    # instances the deep exit calls right
    persons = list(accumulate((labels[k] for k in order), initial=0))
    deep_ok = list(accumulate(((o2[k] >= 0.5) == labels[k] for k in order), initial=0))
    cells = []
    for th in grid:
        hi = bisect_left(s1, th.gamma2)
        lo = min(bisect_right(s1, th.gamma1), hi)
        n_ex2 = hi - lo
        n_ex1 = n - n_ex2
        ok1 = (lo - persons[lo]) + (persons[n] - persons[hi])
        ok2 = deep_ok[hi] - deep_ok[lo]
        cells.append(
            SweepCell(
                th.gamma1,
                th.gamma2,
                ok1 / n_ex1 if n_ex1 else None,
                ok2 / n_ex2 if n_ex2 else None,
                (ok1 + ok2) / n,
                n_ex1,
                n_ex2,
            )
        )
    return cells

