"""Rows for tests, and the :class:`zedsim.traces.Trace` they pack into.

The library keeps a trace as three columns and has no record per row: a
row's position is its identity, the scheduler sees an input's two scores, and
a run reads the labels only after it. A test writes its rows as a list of
:class:`Row` and packs them with :func:`trace_of`; :func:`rows` unpacks a
trace to compare or walk it."""

from array import array
from typing import List, NamedTuple

from zedsim.traces import Trace


class Row(NamedTuple):
    """One input: its id, its scores at both exits and its ground-truth label. A
    trace keeps no id, so :func:`trace_of` drops it and :func:`rows` numbers the
    rows by position."""

    id: int
    o1: float
    o2: float
    label: int


def trace_of(rows) -> Trace:
    """The rows' scores and labels as a Trace's three columns."""
    rows = list(rows)
    return Trace(array("d", [r.o1 for r in rows]), array("d", [r.o2 for r in rows]),
                 array("b", [r.label for r in rows]))


def rows(trace: Trace) -> List[Row]:
    """Row k of each of the trace's columns, as a list of Row with id k."""
    return list(map(Row, range(len(trace)), trace.o1, trace.o2, trace.labels))
