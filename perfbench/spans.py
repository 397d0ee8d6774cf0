"""Spans around zedsim's layer entry points, and the per-layer metrics they give.

Run as a script, this is the traced form of the zedsim CLI:

    PYTHONPATH=src python3 perfbench/spans.py SPANS.json RUN_ID -- <zedsim args>

It imports ``zedsim.cli`` inside a span, wraps each entry point under the
name its caller looks it up by, runs ``zedsim.cli.main`` in this process,
and writes the spans as JSON when the command ends. No span is recorded from
inside zedsim itself: the wrappers live here.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span in the same run
    run_id: str
    counts: Dict[str, float] = field(default_factory=dict)


class Recorder:
    """Keeps one run's spans in memory; nesting follows the call stack."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        s = Span(name, time.perf_counter(), 0.0, parent, self.run_id)
        self.spans.append(s)
        self._open.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            self._open.pop()
            s.end = time.perf_counter()

    def wrap(self, owner, attr: str, name: str,
             before: Optional[Callable] = None, after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a function that records a span per call.

        ``before(args)`` runs ahead of the call; ``after(args, result, pre)``
        gets its value as ``pre`` and returns counts to store on the span.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pre = before(args) if before else None
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if after:
                s.counts.update(after(args, result, pre))
            return result

        setattr(owner, attr, traced)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def instrument(rec: Recorder) -> None:
    """Wrap the layer entry points that ``zedsim.cli.main`` reaches."""
    import zedsim.cli as cli
    import zedsim.sim as sim

    def clock(args):
        return args[0].time

    def sim_seconds(args, result, t0):
        return {"sim_s": args[0].time - t0}

    def stage(args, result, t0):
        return {"sim_s": args[0].time - t0, "measurement": int(args[1] == "measurement")}

    rec.wrap(cli, "load_trace", "traces.load_trace", after=lambda a, r, p: {"rows": len(r)})
    rec.wrap(cli, "load_harvest", "traces.load_harvest")
    rec.wrap(cli, "generate_trace", "traces.generate_trace")
    rec.wrap(cli, "save_trace", "traces.save_trace")
    rec.wrap(cli, "sweep_thresholds", "policy.sweep_thresholds",
             after=lambda a, r, p: {"cell_instances": len(a[0]) * len(r)})
    rec.wrap(cli, "simulate", "sim.simulate",
             after=lambda a, r, p: {"trajectory_rows": len(r.trajectory)})
    rec.wrap(cli, "write_trajectory_csv", "sim.write_trajectory_csv",
             after=lambda a, r, p: {"bytes": os.path.getsize(a[1])})
    rec.wrap(sim, "run_window", "scheduler.run_window",
             after=lambda a, r, p: {"admitted": int(r.started_at is not None),
                                    "deferred": int(r.deferred)})
    # the clock protocol run_window drives: idle advances and loaded stages
    rec.wrap(sim._Engine, "advance_to", "sim.engine.idle", before=clock, after=sim_seconds)
    rec.wrap(sim._Engine, "run_stage", "sim.engine.load", before=clock, after=stage)


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer metrics of one traced command; absent layers read 0."""
    total: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    counts: Dict[str, float] = defaultdict(float)
    for s, self_s in zip(spans, self_times(spans)):
        total[s.name] += s.end - s.start
        own[s.name] += self_s
        calls[s.name] += 1
        for k, v in s.counts.items():
            counts[f"{s.name}.{k}"] += v
    admitted = counts["scheduler.run_window.admitted"]
    measurements = counts["sim.engine.load.measurement"]
    return {
        "sim.engine.idle_s": total["sim.engine.idle"],
        "sim.engine.idle_calls": calls["sim.engine.idle"],
        "sim.engine.idle_sim_s_per_s": _ratio(counts["sim.engine.idle.sim_s"],
                                              total["sim.engine.idle"]),
        "sim.engine.load_s": total["sim.engine.load"],
        "sim.engine.load_calls": calls["sim.engine.load"],
        "sim.engine.load_sim_s_per_s": _ratio(counts["sim.engine.load.sim_s"],
                                              total["sim.engine.load"]),
        "sim.simulate_s": total["sim.simulate"],
        "sim.simulate.self_s": own["sim.simulate"],
        "sim.trajectory_rows": counts["sim.simulate.trajectory_rows"],
        "sim.write_trajectory_csv_s": total["sim.write_trajectory_csv"],
        "sim.artifact_bytes": counts["sim.write_trajectory_csv.bytes"],
        "scheduler.run_window.self_s": own["scheduler.run_window"],
        "scheduler.windows": calls["scheduler.run_window"],
        "scheduler.admitted": admitted,
        "scheduler.deferred": counts["scheduler.run_window.deferred"],
        "scheduler.measurements": measurements,
        "scheduler.measurements_per_admit": _ratio(measurements, admitted),
        "policy.sweep_thresholds_s": total["policy.sweep_thresholds"],
        "policy.cell_instances_per_s": _ratio(counts["policy.sweep_thresholds.cell_instances"],
                                              total["policy.sweep_thresholds"]),
        "traces.generate_trace_s": total["traces.generate_trace"],
        "traces.save_trace_s": total["traces.save_trace"],
        "traces.load_trace_s": total["traces.load_trace"],
        "traces.load_trace_rows_per_s": _ratio(counts["traces.load_trace.rows"],
                                               total["traces.load_trace"]),
        "traces.load_harvest_s": total["traces.load_harvest"],
        "cli.import_s": total["cli.import"],
        "cli.self_s": own["cli.main"],
    }


def load_spans(path) -> List[Span]:
    with open(path) as fh:
        return [Span(**d) for d in json.load(fh)]


def main(argv: List[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: spans.py SPANS.json RUN_ID -- <zedsim args>", file=sys.stderr)
        return 2
    out, run_id, _, *cli_args = argv
    rec = Recorder(run_id)
    with rec.span("cli.import"):
        import zedsim.cli
    instrument(rec)
    try:
        with rec.span("cli.main"):
            return zedsim.cli.main(cli_args)
    finally:
        rec.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
