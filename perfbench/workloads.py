"""The benchmark's workloads: seeded inputs, the zedsim commands each one
runs, and the checks on what those commands write.

Every input is a pure function of the seed, so one seed always gives the same
files. The seed picks the calibrated trace; the harvest profiles are fixed
shapes, replayable like a recorded light history.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Dict, List, Optional

from zedsim.config import DeviceConfig
from zedsim.pmu import HarvestProfile
from zedsim.traces import GeneratorSpec, generate_trace, save_harvest, save_trace

# gen-trace's calibration targets: balanced-threshold accuracy of each exit
# and the share of person frames
TRACE_TARGETS = (0.7265, 0.8309, 0.5386)
WINDOW_S = 10.0  # the default device's window length

STAIRCASE_MA = (0.0, 10.0, 3.0, 6.0, 0.0)  # acceptance criterion 6
STAIRCASE_LEVEL_S = 200.0
STAIRCASE_INITIAL_V = 4.0
STAIRCASE_CAPACITANCES = (0.1, 0.8, 1.5)
STAIRCASE_VARIANTS = ("proposed", "policy-i", "policy-ii", "baseline")

DIURNAL_HORIZON_S = 1200.0
DIURNAL_PEAK_MA = 5.0  # above 4 mA, so the 1.5 F buffer clamps at v_max near noon
DIURNAL_SEGMENTS = 24

THRESHOLDS_N = 20000
THRESHOLDS_CELLS = 81  # sweep-thresholds' default 9 x 9 grid

LEDGER_BOUND_J = 1e-6  # acceptance criterion 9
ENERGY_REL_TOL = 1e-3  # replay_check's tolerance across timesteps


class Workload:
    """One benchmark workload.

    ``make_inputs`` writes every input file into a work directory.
    ``setup_files`` names the files a fresh process loads before it can run:
    the config, then a harvest (or None) and a trace for each simulation the
    workload runs. ``commands`` gives the zedsim argument
    lists of one invocation, run in order. ``summarise`` reads what they wrote
    into plain JSON values, and ``problems`` lists every way that summary
    breaks an invariant. ``check`` does both and compares with the values
    recorded for the seed, if any.
    """

    name = ""
    why = ""

    def make_inputs(self, seed: int, work: Path) -> None:
        raise NotImplementedError

    def setup_files(self, work: Path) -> List[Optional[Path]]:
        return [work / "device.json", work / "harvest.csv", work / "trace.csv"]

    def commands(self, work: Path, out: Path, seed: int, jobs: int) -> List[List[str]]:
        raise NotImplementedError

    def summarise(self, out: Path) -> dict:
        raise NotImplementedError

    def problems(self, summary: dict) -> List[str]:
        raise NotImplementedError

    def check(self, out: Path, reference: Optional[dict]) -> List[str]:
        try:
            summary = self.summarise(out)
        except (OSError, KeyError, ValueError) as exc:
            return [f"unreadable output: {exc!r}"]
        problems = self.problems(summary)
        if reference is not None:
            problems += reference_mismatches(self.reference_view(summary), reference)
        return problems

    def reference_view(self, summary: dict) -> dict:
        """The part of a summary that is recorded per seed. The ledger
        residual is checked against its bound instead, since its digits are
        rounding noise."""
        return {k: v for k, v in summary.items() if k != "ledger_residual_j"}


def _write_device(work: Path) -> None:
    with open(work / "device.json", "w") as fh:
        json.dump(DeviceConfig.default().to_dict(), fh, indent=2, sort_keys=True)


def _write_trace(n: int, seed: int, path: Path) -> None:
    save_trace(generate_trace(GeneratorSpec(n, *TRACE_TARGETS, seed)), path)


def staircase_profile() -> HarvestProfile:
    return HarvestProfile.from_pairs(
        [(k * STAIRCASE_LEVEL_S, ma * 1e-3) for k, ma in enumerate(STAIRCASE_MA)]
    )


def diurnal_profile(horizon_s: float = DIURNAL_HORIZON_S) -> HarvestProfile:
    """24 equal segments of a sine clipped at zero, sampled at each midpoint.

    Segment k stands for hour k of a day compressed into the horizon: dark
    from hour 0 to 5 and 18 to 23, peaking just below DIURNAL_PEAK_MA at noon.
    """
    seg = horizon_s / DIURNAL_SEGMENTS
    pairs = []
    for k in range(DIURNAL_SEGMENTS):
        hour = k + 0.5
        level = max(0.0, math.sin(math.pi * (hour - 6.0) / 12.0))
        pairs.append((k * seg, DIURNAL_PEAK_MA * 1e-3 * level))
    return HarvestProfile.from_pairs(pairs)


def _read_csv(path: Path) -> List[Dict[str, str]]:
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _optional_float(text: str) -> Optional[float]:
    return float(text) if text else None


class Staircase(Workload):
    name = "staircase"
    why = ("sweep-capacitance, all four variants over 0.1-1.5 F on the criterion-6 staircase: "
           "loaded engine stages, the 20-attempt admission loop and the process pool")
    horizon_s = STAIRCASE_LEVEL_S * len(STAIRCASE_MA)

    def make_inputs(self, seed, work):
        _write_device(work)
        save_harvest(staircase_profile(), work / "harvest.csv")
        _write_trace(int(self.horizon_s // WINDOW_S), seed, work / "trace.csv")

    def commands(self, work, out, seed, jobs):
        return [[
            "sweep-capacitance", "--config", str(work / "device.json"),
            "--trace", str(work / "trace.csv"), "--harvest", str(work / "harvest.csv"),
            "--horizon", repr(self.horizon_s), "--initial-v", repr(STAIRCASE_INITIAL_V),
            "--capacitance", ",".join(map(repr, STAIRCASE_CAPACITANCES)),
            "--variants", *STAIRCASE_VARIANTS, "--jobs", str(jobs), "--out", str(out),
        ]]

    def summarise(self, out):
        rows = _read_csv(out / "sweep_capacitance.csv")
        return {
            "rows": [f"{r['c_farads']}/{r['variant']}" for r in rows],
            "completed_pipelines": [int(r["completed_pipelines"]) for r in rows],
            "power_failures": [int(r["power_failures"]) for r in rows],
            "accuracy_total": [_optional_float(r["accuracy_total"]) for r in rows],
            "energy_consumed_j": [float(r["energy_consumed_j"]) for r in rows],
        }

    def problems(self, summary):
        expected = [
            f"{c!r}/{v.replace('-', '_')}"
            for c in STAIRCASE_CAPACITANCES for v in STAIRCASE_VARIANTS
        ]
        out = []
        if summary["rows"] != expected:
            out.append(f"rows {summary['rows']} != {expected}")
        for row, failures in zip(summary["rows"], summary["power_failures"]):
            if row.endswith("/proposed") and failures:
                out.append(f"{row}: {failures} power failures under the proposed policy")
        return out


class Diurnal(Workload):
    name = "diurnal"
    why = ("zedsim run over a compressed day: long idle and zero-harvest spans in the engine, "
           "then the per-sample trajectory and its CSV")
    horizon_s = DIURNAL_HORIZON_S

    def make_inputs(self, seed, work):
        _write_device(work)
        save_harvest(diurnal_profile(self.horizon_s), work / "harvest.csv")
        _write_trace(math.ceil(self.horizon_s / WINDOW_S), seed, work / "trace.csv")

    def commands(self, work, out, seed, jobs):
        return [[
            "run", "--config", str(work / "device.json"),
            "--trace", str(work / "trace.csv"), "--harvest", str(work / "harvest.csv"),
            "--horizon", repr(self.horizon_s), "--policy", "proposed", "--out", str(out),
        ]]

    def summarise(self, out):
        with open(out / "trajectory.csv") as fh:
            head = [fh.readline(), fh.readline()]
        return {"trajectory_head": head[1].strip(), **parse_totals((out / "totals.txt").read_text())}

    def problems(self, summary):
        out = totals_problems(summary)
        if summary["trajectory_head"] != "time_s,v_c,mode,event":
            out.append(f"trajectory.csv header {summary['trajectory_head']!r}")
        if summary["n_windows"] != int(self.horizon_s // WINDOW_S):
            out.append(f"n_windows={summary['n_windows']}")
        return out


class Thresholds(Workload):
    name = "thresholds"
    why = ("gen-trace writes a large calibrated trace and sweep-thresholds reads it over the "
           "9x9 grid: trace I/O and the policy sweep only, no engine")

    def make_inputs(self, seed, work):
        # the same trace gen-trace writes in the timed region, for the setup probe
        _write_device(work)
        _write_trace(THRESHOLDS_N, seed, work / "trace.csv")

    def setup_files(self, work):
        return [work / "device.json", None, work / "trace.csv"]

    def commands(self, work, out, seed, jobs):
        trace = str(out / "trace.csv")
        return [
            ["gen-trace", "--n", str(THRESHOLDS_N), "--seed", str(seed), "--out", trace],
            ["sweep-thresholds", "--config", str(work / "device.json"), "--trace", trace,
             "--out", str(out)],
        ]

    def summarise(self, out):
        cells = _read_csv(out / "sweep_thresholds.csv")
        return {
            "cells": [f"{c['gamma1']}/{c['gamma2']}" for c in cells],
            "n_ex1": [int(c["n_ex1"]) for c in cells],
            "n_ex2": [int(c["n_ex2"]) for c in cells],
            "acc_total": [float(c["acc_total"]) for c in cells],
        }

    def problems(self, summary):
        out = []
        if len(summary["cells"]) != THRESHOLDS_CELLS:
            out.append(f"{len(summary['cells'])} cells, expected {THRESHOLDS_CELLS}")
        for cell, a, b in zip(summary["cells"], summary["n_ex1"], summary["n_ex2"]):
            if a + b != THRESHOLDS_N:
                out.append(f"cell {cell}: n_ex1 + n_ex2 = {a + b}, trace has {THRESHOLDS_N}")
        return out


class Sequence(Workload):
    """Several workloads run back to back as one invocation.

    Each part keeps its own inputs and outputs in a subdirectory named after
    it, and its checks and recorded values under its name.
    """

    def __init__(self, name: str, why: str, parts: List[Workload]):
        self.name, self.why, self.parts = name, why, parts

    def make_inputs(self, seed, work):
        for part in self.parts:
            (work / part.name).mkdir()
            part.make_inputs(seed, work / part.name)

    def setup_files(self, work):
        files = [self.parts[0].setup_files(work / self.parts[0].name)[0]]
        for part in self.parts:
            files += part.setup_files(work / part.name)[1:]
        return files

    def commands(self, work, out, seed, jobs):
        return [command for part in self.parts
                for command in part.commands(work / part.name, out / part.name, seed, jobs)]

    def summarise(self, out):
        return {part.name: part.summarise(out / part.name) for part in self.parts}

    def problems(self, summary):
        return [f"{part.name}: {p}" for part in self.parts
                for p in part.problems(summary[part.name])]

    def reference_view(self, summary):
        return {part.name: part.reference_view(summary[part.name]) for part in self.parts}

    def check(self, out, reference):
        return [f"{part.name}: {p}" for part in self.parts
                for p in part.check(out / part.name, (reference or {}).get(part.name))]


ENGINE = Sequence(
    "engine",
    "sweep-capacitance on the criterion-6 staircase, then zedsim run over a compressed day: "
    "every engine stage, the admission loop, the process pool and the trajectory CSV",
    [Staircase(), Diurnal()],
)
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (ENGINE, Thresholds())}

_COUNT_KEYS = (
    "n_windows", "completed_pipelines", "deferred_windows", "power_failures",
    "n_ex1", "n_ex2", "n_fallback",
)
# the totals replay_check compares across timesteps
_ENERGY_KEYS = ("energy_consumed_j", "harvested_j", "final_energy_j")


def parse_totals(text: str) -> dict:
    """The counts, energies, accuracy and ledger residual of a totals.txt."""
    fields = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
    summary = {k: int(fields[k]) for k in _COUNT_KEYS}
    summary.update({k: float(fields[k]) for k in _ENERGY_KEYS})
    summary["accuracy_total"] = _optional_float(fields["accuracy_total"])
    summary["ledger_residual_j"] = float(fields["ledger_residual_j"])
    return summary


def totals_problems(t: dict) -> List[str]:
    """Invariants of one proposed-policy run's totals."""
    out = []
    residual = t["ledger_residual_j"]
    if not (math.isfinite(residual) and abs(residual) < LEDGER_BOUND_J):
        out.append(f"ledger_residual_j={residual!r} is not finite and below {LEDGER_BOUND_J}")
    if t["completed_pipelines"] + t["deferred_windows"] + t["power_failures"] != t["n_windows"]:
        out.append("completed + deferred + power failures != n_windows")
    if t["n_ex1"] + t["n_ex2"] + t["n_fallback"] != t["completed_pipelines"]:
        out.append("n_ex1 + n_ex2 + n_fallback != completed_pipelines")
    if t["power_failures"]:
        out.append(f"{t['power_failures']} power failures under the proposed policy")
    return out


def reference_mismatches(summary: dict, reference: dict) -> List[str]:
    """Compare a summary with recorded values of the same seed.

    Keys ending in ``_j`` are energies and may differ by ENERGY_REL_TOL
    relative, as between two exact-enough integrators; every other value,
    counts included, must match exactly.
    """
    out = []
    for key, want in reference.items():
        got = summary.get(key)
        if key.endswith("_j"):
            got_list = got if isinstance(got, list) else [got]
            want_list = want if isinstance(want, list) else [want]
            if len(got_list) != len(want_list) or None in got_list:
                out.append(f"{key}: {got!r} != recorded {want!r}")
                continue
            for g, w in zip(got_list, want_list):
                if abs(g - w) > ENERGY_REL_TOL * max(abs(g), abs(w), 1e-12):
                    out.append(f"{key}: {g!r} differs from recorded {w!r} beyond 0.1%")
        elif got != want:
            out.append(f"{key}: {got!r} != recorded {want!r}")
    return out
