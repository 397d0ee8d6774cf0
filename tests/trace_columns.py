"""Packs instances into a :class:`zedsim.traces.Trace`, the one trace type the
library reads, so a test can write its rows as a list."""

from array import array

from zedsim.traces import Trace


def trace_of(instances) -> Trace:
    """The instances' ids, scores and labels as a Trace's four columns."""
    rows = list(instances)
    return Trace([i.id for i in rows], array("d", [i.o1 for i in rows]),
                 array("d", [i.o2 for i in rows]), array("b", [i.label for i in rows]))
