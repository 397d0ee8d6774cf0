"""Trace and harvest-profile files plus a calibrated synthetic trace generator.

Trace CSV: header ``id,o1,o2,label``, one row per input with both exit scores
and the ground-truth label. Harvest CSV: header ``t_start_s,i_h_ma``,
piecewise-constant segments. All numbers are decimal with a dot separator.

In memory a trace is a :class:`~zedsim.policy.Trace` of four columns, with no
Python object per row: the loader and the generator fill them, the writer and
the statistics read them (and pack any iterable of instances first).

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

import contextlib
import csv
import warnings
from array import array
from typing import Iterable, List, NamedTuple, Union

from .errors import DomainError, FitError, TraceError, checked
from .pmu import HarvestProfile
from .policy import InferenceInstance, Trace, check_instance

TRACE_HEADER = ["id", "o1", "o2", "label"]
HARVEST_HEADER = ["t_start_s", "i_h_ma"]
_MAX_INSTANCES = 10**7  # generated; over 3 years of 10 s windows, 10**6 peak near 150 MB

# Mixture shapes: distance from the pole for confident draws, offset from 0.5
# for ambiguous draws (both scaled by 0.5).
_CONFIDENT_BETA = (1.0, 6.0)
_AMBIGUOUS_BETA = (1.0, 3.5)


@contextlib.contextmanager
def _csv_reader(path):
    """A CSV reader over ``path``; a byte that does not decode or an oversized
    field raises TraceError naming the file."""
    with open(path, newline="") as fh:
        try:
            yield csv.reader(fh)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise TraceError(f"{path}: {exc}") from None


def load_trace(path) -> Trace:
    """Read and validate a trace CSV; raises TraceError with the line number."""
    trace = Trace([], array("d"), array("d"), array("b"))
    with _csv_reader(path) as reader:
        header = next(reader, None)
        if header is None:
            warnings.warn(f"{path}: empty trace file")
            return trace
        if [h.strip() for h in header] != TRACE_HEADER:
            raise TraceError(f"{path}:1: expected header {','.join(TRACE_HEADER)}")
        last_id = None
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise TraceError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            try:
                ident = int(row[0])
                o1 = float(row[1])
                o2 = float(row[2])
                label = int(row[3])
            except ValueError as exc:
                raise TraceError(f"{path}:{lineno}: {exc}") from None
            try:
                check_instance(ident, o1, o2, label)
            except DomainError as exc:
                raise TraceError(f"{path}:{lineno}: {exc}") from None
            if last_id is not None and ident <= last_id:
                raise TraceError(f"{path}:{lineno}: ids must be unique and ascending")
            last_id = ident
            trace.ids.append(ident)
            trace.o1.append(o1)
            trace.o2.append(o2)
            trace.labels.append(label)
    if not trace.ids:
        warnings.warn(f"{path}: trace file has no data rows")
    return trace


def save_trace(trace: Union[Trace, Iterable[InferenceInstance]], path) -> None:
    t = Trace.of(trace)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(TRACE_HEADER)
        # float reprs and ints never need quoting
        fh.writelines(f"{i},{s1!r},{s2!r},{label}\r\n"
                      for i, s1, s2, label in zip(t.ids, t.o1, t.o2, t.labels))


def load_harvest(path) -> HarvestProfile:
    """Read a piecewise-constant harvest profile CSV (currents in mA)."""
    times: List[float] = []
    currents: List[float] = []
    with _csv_reader(path) as reader:
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != HARVEST_HEADER:
            raise TraceError(f"{path}:1: expected header {','.join(HARVEST_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise TraceError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
            try:
                times.append(float(row[0]))
                currents.append(float(row[1]) * 1e-3)
            except ValueError as exc:
                raise TraceError(f"{path}:{lineno}: {exc}") from None
    try:
        return HarvestProfile(tuple(times), tuple(currents))
    except DomainError as exc:
        raise TraceError(f"{path}: {exc}") from None


def save_harvest(profile: HarvestProfile, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HARVEST_HEADER)
        for t, i in zip(profile.times, profile.currents):
            writer.writerow([repr(t), repr(i * 1e3)])


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
            raise FitError(f"n must be in [1, {_MAX_INSTANCES}], got {self.n}")
        if not 0.5 <= self.target_acc1 <= self.target_acc2 <= 1.0:
            raise FitError(
                f"need 0.5 <= acc1 <= acc2 <= 1, got ({self.target_acc1}, {self.target_acc2})"
            )
        if not 0.0 < self.person_fraction < 1.0:
            raise FitError("person_fraction must be in (0, 1)")
        if self.seed < 0:
            raise FitError(f"seed must be >= 0, got {self.seed}")


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
    """Confident instances are always correct; top up among the ambiguous."""
    import numpy as np
    n = confident.size
    n_conf = int(confident.sum())
    remaining = target_correct - n_conf
    ambiguous = np.flatnonzero(~confident)
    if remaining < 0 or remaining > ambiguous.size:
        raise FitError(
            f"cannot place {target_correct} correct instances with {n_conf} confident of {n}"
        )
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


def trace_statistics(trace: Union[Trace, Iterable[InferenceInstance]]) -> TraceStats:
    """Empirical balanced-threshold accuracies and label balance."""
    t = Trace.of(trace)
    n = len(t)
    if not n:
        raise DomainError("trace must be non-empty")
    ok1 = sum((s >= 0.5) == bool(label) for s, label in zip(t.o1, t.labels))
    ok2 = sum((s >= 0.5) == bool(label) for s, label in zip(t.o2, t.labels))
    persons = sum(t.labels)
    return TraceStats(ok1 / n, ok2 / n, persons / n, n)
