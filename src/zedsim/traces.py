"""Traces in memory and on file, harvest-profile files, a calibrated synthetic
trace generator, and a trace's statistics and threshold sweep.

Trace CSV: header ``id,o1,o2,label``, one row per input with both exit scores
and the ground-truth label. Harvest CSV: header ``t_start_s,i_h_ma``,
piecewise-constant segments. All numbers are decimal with a dot separator. One
reader serves both: the header comes first, so an empty file is rejected, blank
lines are skipped, and every row has the header's width. Each loader parses the
fields and keeps its own rules: ascending ids for a trace, the profile's
segment rules for a harvest.

In memory a trace is a :class:`Trace` of four columns, with no record per
row: the loader and the generator fill them, the writer, the statistics and
the sweep read them, and a simulation reads the two score columns as it runs
and the labels only after it. :func:`check_instance` is the loader's rule for
one row.

The generator stands in for real validation scores. Per head it draws from a
two-component mixture: a confident component concentrated near the correct
pole and a mid-range ambiguous component that is right only half the time.
The confident weight w = 2*acc - 1 is the unique choice making the balanced
0.5-threshold accuracy hit the target, and assignments use exact counts, so
calibration error is bounded by 1/n. The deep head's confident set is a
superset of the shallow head's, making it right wherever the shallow head is
confidently right and better on average everywhere else. The generator is the
only user of numpy, which it imports when called.
"""

from __future__ import annotations

import csv
from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Iterable, List, NamedTuple, Optional

from .errors import ZedSimError, checked
from .pmu import HarvestProfile

PERSON = 1
NO_PERSON = 0

TRACE_HEADER = ["id", "o1", "o2", "label"]
HARVEST_HEADER = ["t_start_s", "i_h_ma"]
_MAX_INSTANCES = 10**7  # generated; over 3 years of 10 s windows, 10**6 peak near 150 MB

# Mixture shapes: distance from the pole for confident draws, offset from 0.5
# for ambiguous draws (both scaled by 0.5).
_CONFIDENT_BETA = (1.0, 6.0)
_AMBIGUOUS_BETA = (1.0, 3.5)


def balanced_call(score: float) -> int:
    """Balanced-threshold call on either head's score: the deep exit's, and the
    shallow one's when escalation is denied. Every call but the shallow head's
    outside its band is this one, so ties at 0.5 resolve to PERSON everywhere."""
    return PERSON if score >= 0.5 else NO_PERSON


def check_instance(id: int, o1: float, o2: float, label: int) -> None:
    """Raise ZedSimError unless both scores are in [0, 1] and the label is 0 or 1."""
    if not 0.0 <= o1 <= 1.0:
        raise ZedSimError(f"instance {id}: o1={o1} outside [0, 1]")
    if not 0.0 <= o2 <= 1.0:
        raise ZedSimError(f"instance {id}: o2={o2} outside [0, 1]")
    if label not in (0, 1):
        raise ZedSimError(f"instance {id}: label must be 0 or 1")


class Trace:
    """A trace as columns: ``ids`` a list, ``o1`` and ``o2`` arrays of 'd', ``labels``
    of 'b'; row k is the k-th entry of each. There is no record per row: a
    simulation reads the score columns while it runs and the labels after it."""

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


def _rows(path, header):
    """Yield ``(line number, fields)`` for each non-blank row after ``header``,
    numbered by the file line it ends on, since a quoted field may span lines. A
    missing header, a row of another width, a byte that does not decode or an
    oversized field raises ZedSimError naming the file."""
    with open(path, newline="") as fh:
        try:
            reader = csv.reader(fh)
            first = next(reader, None)
            if first is None or [h.strip() for h in first] != header:
                raise ZedSimError(f"{path}:1: expected header {','.join(header)}, "
                                  f"read {first!r}")
            width = len(header)
            for row in reader:
                if not row:
                    continue
                if len(row) != width:
                    raise ZedSimError(f"{path}:{reader.line_num}: expected {width} fields, "
                                      f"got {len(row)}")
                yield reader.line_num, row
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ZedSimError(f"{path}: {exc}") from None


def load_trace(path) -> Trace:
    """Read and validate a trace CSV; a fault in a row names its ``path:line:``."""
    trace = Trace([], array("d"), array("d"), array("b"))
    last_id = None
    for lineno, row in _rows(path, TRACE_HEADER):
        try:
            ident = int(row[0])
            o1 = float(row[1])
            o2 = float(row[2])
            label = int(row[3])
            check_instance(ident, o1, o2, label)
        except ValueError as exc:
            raise ZedSimError(f"{path}:{lineno}: {exc}") from None
        if last_id is not None and ident <= last_id:
            raise ZedSimError(f"{path}:{lineno}: ids must be unique and ascending")
        last_id = ident
        trace.ids.append(ident)
        trace.o1.append(o1)
        trace.o2.append(o2)
        trace.labels.append(label)
    return trace


def save_trace(trace: Trace, path) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(TRACE_HEADER)
        # float reprs and ints never need quoting
        fh.writelines(f"{i},{s1!r},{s2!r},{label}\r\n"
                      for i, s1, s2, label in zip(trace.ids, trace.o1, trace.o2, trace.labels))


def load_harvest(path) -> HarvestProfile:
    """Read a piecewise-constant harvest profile CSV (currents in mA)."""
    times: List[float] = []
    currents: List[float] = []
    for lineno, row in _rows(path, HARVEST_HEADER):
        try:
            times.append(float(row[0]))
            currents.append(float(row[1]) * 1e-3)
        except ValueError as exc:
            raise ZedSimError(f"{path}:{lineno}: {exc}") from None
    try:
        return HarvestProfile(tuple(times), tuple(currents))
    except ZedSimError as exc:
        raise ZedSimError(f"{path}: {exc}") from None


def save_harvest(profile: HarvestProfile, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HARVEST_HEADER)
        writer.writerows((t, i * 1e3) for t, i in zip(profile.times, profile.currents))


@checked
class GeneratorSpec(NamedTuple):
    """Targets for the synthetic trace: balanced-threshold accuracies per head."""

    n: int
    target_acc1: float
    target_acc2: float
    person_fraction: float
    seed: int

    def check(self) -> None:
        if not 1 <= self.n <= _MAX_INSTANCES:
            raise ZedSimError(f"n must be in [1, {_MAX_INSTANCES}], got {self.n}")
        if not 0.5 <= self.target_acc1 <= self.target_acc2 <= 1.0:
            raise ZedSimError(
                f"need 0.5 <= acc1 <= acc2 <= 1, got ({self.target_acc1}, {self.target_acc2})"
            )
        if not 0.0 < self.person_fraction < 1.0:
            raise ZedSimError("person_fraction must be in (0, 1)")
        if self.seed < 0:
            raise ZedSimError(f"seed must be >= 0, got {self.seed}")


def generate_trace(spec: GeneratorSpec) -> Trace:
    """Seeded synthetic trace hitting the accuracy targets to within 1/n."""
    import numpy as np
    rng = np.random.default_rng(spec.seed)
    n = spec.n

    labels = np.zeros(n, dtype=np.int64)
    labels[: round(n * spec.person_fraction)] = 1
    rng.shuffle(labels)

    order = rng.permutation(n)
    n_conf1 = round(n * (2.0 * spec.target_acc1 - 1.0))
    n_conf2 = round(n * (2.0 * spec.target_acc2 - 1.0))
    conf1 = np.zeros(n, dtype=bool)
    conf1[order[:n_conf1]] = True
    conf2 = conf1.copy()
    conf2[order[n_conf1:n_conf2]] = True  # deep confident set contains the shallow one

    correct1 = _assign_correct(rng, conf1, round(n * spec.target_acc1))
    correct2 = _assign_correct(rng, conf2, round(n * spec.target_acc2))

    o1 = _scores(rng, labels, conf1, correct1)
    o2 = _scores(rng, labels, conf2, correct2)

    # float64 bytes in native order are array('d')'s own: the scores move bit for bit
    return Trace(list(range(n)), array("d", o1.tobytes()), array("d", o2.tobytes()),
                 array("b", labels.tolist()))


def _assign_correct(rng, confident, target_correct: int):
    """Confident instances are always correct; top up among the ambiguous. The
    spec's 0.5 <= acc <= 1 puts ``target_correct`` between the confident count and n."""
    import numpy as np
    remaining = target_correct - int(confident.sum())
    ambiguous = np.flatnonzero(~confident)
    correct = confident.copy()
    if remaining:
        correct[rng.choice(ambiguous, size=remaining, replace=False)] = True
    return correct


def _scores(rng, labels, confident, correct):
    import numpy as np
    n = labels.size
    pole = labels.astype(float)  # 1.0 for person, 0.0 for no-person
    toward_pole = np.where(correct, 1.0, -1.0) * np.where(labels == 1, 1.0, -1.0)

    scores = np.empty(n)
    conf_d = 0.5 * rng.beta(*_CONFIDENT_BETA, size=n)
    amb_d = 0.5 * rng.beta(*_AMBIGUOUS_BETA, size=n)
    # confident: near the correct pole; ambiguous: around 0.5, on the correct
    # side only when marked correct
    scores[confident] = np.abs(pole - conf_d)[confident]
    scores[~confident] = (0.5 + toward_pole * amb_d)[~confident]
    return np.clip(scores, 0.0, 1.0)


class TraceStats(NamedTuple):
    acc_at_half_ex1: float
    acc_at_half_ex2: float
    person_fraction: float
    n: int


def trace_statistics(trace: Trace) -> TraceStats:
    """Empirical balanced-threshold accuracies and label balance."""
    n = len(trace)
    if not n:
        raise ZedSimError("trace must be non-empty")
    ok1 = sum(balanced_call(s) == label for s, label in zip(trace.o1, trace.labels))
    ok2 = sum(balanced_call(s) == label for s, label in zip(trace.o2, trace.labels))
    persons = sum(trace.labels)
    return TraceStats(ok1 / n, ok2 / n, persons / n, n)


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


def sweep_thresholds(trace: Trace, grid: Iterable) -> List[SweepCell]:
    """Evaluate every :class:`~zedsim.scheduler.Thresholds` of ``grid`` over the
    trace with unlimited energy.

    The row indices are sorted once by shallow score (a stable sort, so equal
    scores keep trace order), with prefix counts of person labels and of
    correct deep-exit calls in that order. Each cell then reads its
    counts at two cut points, bisecting the sorted scores: ``hi``, the first
    score >= gamma2, and ``lo``, the first score > gamma1, capped at ``hi``.
    Scores from ``hi`` on exit as PERSON, scores below ``lo`` exit as
    NO_PERSON, and ``[lo, hi)`` is the ambiguous band that goes to exit 2.
    These are the tie rules of :func:`zedsim.scheduler.evaluate_ex1`: a score
    equal to gamma2 is PERSON, one equal to gamma1 (and below gamma2) is
    NO_PERSON, so with gamma1 = gamma2 = 0.5 a score of 0.5 is PERSON. The cost
    is O(n log n) for the sort plus O(log n) per cell. The deep exit's counts
    inline :func:`balanced_call` as ``>= 0.5``.
    """
    n = len(trace)
    if not n:
        raise ZedSimError("trace must be non-empty")
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
