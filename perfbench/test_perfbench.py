"""Fast self-tests of the benchmark: seeded inputs, output checks and span
arithmetic. Run with ``PYTHONPATH=src python -m pytest perfbench -q``."""

import json
from pathlib import Path

import pytest

import spans
import workloads

BENCHMARK_JSON = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

CONSISTENT_TOTALS = """config_sha256=00
energy_consumed_j=10.2
harvested_j=8.25
clamp_loss_j=0.88
floor_gain_j=0.0
initial_energy_j=15.1875
final_energy_j=12.34
n_windows=120
completed_pipelines=118
deferred_windows=2
power_failures=0
n_ex1=64
n_ex2=50
n_fallback=4
accuracy_total=0.83
ledger_residual_j=7.5e-12
"""


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    for workload in workloads.WORKLOADS.values():
        first, second = tmp_path / f"{workload.name}-1", tmp_path / f"{workload.name}-2"
        for work in (first, second):
            work.mkdir()
            workload.make_inputs(3, work)
        names = sorted(str(p.relative_to(first)) for p in first.rglob("*") if p.is_file())
        assert names and names == sorted(
            str(p.relative_to(second)) for p in second.rglob("*") if p.is_file())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


def _diurnal_output(tmp_path, totals):
    (tmp_path / "totals.txt").write_text(totals)
    (tmp_path / "trajectory.csv").write_text("# config_sha256=00\ntime_s,v_c,mode,event\n")
    return tmp_path


def test_check_accepts_consistent_totals(tmp_path):
    assert workloads.Diurnal().check(_diurnal_output(tmp_path, CONSISTENT_TOTALS),
                                                None) == []


@pytest.mark.parametrize("old, new", [
    ("n_ex1=64", "n_ex1=65"),
    ("ledger_residual_j=7.5e-12", "ledger_residual_j=nan"),
    ("ledger_residual_j=7.5e-12", "ledger_residual_j=2e-06"),
    ("deferred_windows=2\npower_failures=0", "deferred_windows=1\npower_failures=1"),
], ids=["wrong-count", "nan-residual", "residual-above-bound", "proposed-power-failure"])
def test_check_rejects_broken_totals(tmp_path, old, new):
    totals = CONSISTENT_TOTALS.replace(old, new)
    assert totals != CONSISTENT_TOTALS
    problems = workloads.Diurnal().check(_diurnal_output(tmp_path, totals), None)
    assert len(problems) == 1, problems


def test_reference_counts_exact_and_energies_within_tolerance():
    recorded = workloads.parse_totals(CONSISTENT_TOTALS)
    close = dict(recorded, energy_consumed_j=recorded["energy_consumed_j"] * (1 + 5e-4))
    assert workloads.reference_mismatches(close, recorded) == []
    far = dict(recorded, energy_consumed_j=recorded["energy_consumed_j"] * (1 + 2e-3))
    assert len(workloads.reference_mismatches(far, recorded)) == 1
    miscounted = dict(recorded, completed_pipelines=117)
    assert len(workloads.reference_mismatches(miscounted, recorded)) == 1


def test_staircase_check_rejects_proposed_power_failure():
    staircase = workloads.Staircase()
    rows = [f"{c!r}/{v.replace('-', '_')}" for c in workloads.STAIRCASE_CAPACITANCES
            for v in workloads.STAIRCASE_VARIANTS]
    summary = {"rows": rows, "power_failures": [0] * len(rows)}
    assert staircase.problems(summary) == []
    summary["power_failures"][rows.index("0.1/baseline")] = 2  # allowed off the proposed policy
    assert staircase.problems(summary) == []
    summary["power_failures"][rows.index("0.1/proposed")] = 1
    assert len(staircase.problems(summary)) == 1


def test_sequence_checks_each_part_against_its_own_recorded_values(tmp_path):
    engine = workloads.WORKLOADS["engine"]
    for part in ("diurnal", "staircase"):
        (tmp_path / part).mkdir()
    _diurnal_output(tmp_path / "diurnal", CONSISTENT_TOTALS)
    rows = [f"{c!r}/{v.replace('-', '_')}" for c in workloads.STAIRCASE_CAPACITANCES
            for v in workloads.STAIRCASE_VARIANTS]
    with open(tmp_path / "staircase" / "sweep_capacitance.csv", "w") as fh:
        fh.write("# config_sha256=00\n"
                 "c_farads,variant,completed_pipelines,energy_consumed_j,power_failures,accuracy_total\n")
        for row in rows:
            c, v = row.split("/")
            fh.write(f"{c},{v},60,5.5,0,0.8\n")
    summary = engine.summarise(tmp_path)
    assert engine.problems(summary) == []
    reference = engine.reference_view(summary)
    assert "ledger_residual_j" not in reference["diurnal"]
    assert engine.check(tmp_path, reference) == []
    reference["diurnal"]["n_ex1"] += 1
    problems = engine.check(tmp_path, reference)
    assert len(problems) == 1 and problems[0].startswith("diurnal: n_ex1")


def test_thresholds_check_rejects_lost_instances():
    n, cells = workloads.THRESHOLDS_N, workloads.THRESHOLDS_CELLS
    summary = {"cells": [str(k) for k in range(cells)], "n_ex1": [n // 2] * cells,
               "n_ex2": [n - n // 2] * cells}
    assert workloads.WORKLOADS["thresholds"].problems(summary) == []
    summary["n_ex2"][5] -= 1
    assert len(workloads.WORKLOADS["thresholds"].problems(summary)) == 1


def test_self_time_subtracts_direct_children():
    def span(name, start, end, parent):
        return spans.Span(name, start, end, parent, "run-0")

    tree = [
        span("cli.main", 0.0, 10.0, None),
        span("sim.simulate", 1.0, 9.0, 0),
        span("scheduler.run_window", 2.0, 6.0, 1),
        span("sim.engine.load", 3.0, 4.0, 2),
        span("sim.engine.idle", 4.0, 5.5, 2),
        span("sim.engine.idle", 7.0, 8.0, 1),
    ]
    assert spans.self_times(tree) == pytest.approx([2.0, 3.0, 1.5, 1.0, 1.5, 1.0])
    m = spans.layer_metrics(tree)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["sim.simulate.self_s"] == pytest.approx(3.0)
    assert m["scheduler.run_window.self_s"] == pytest.approx(1.5)
    assert m["sim.engine.idle_s"] == pytest.approx(2.5)
    assert m["sim.engine.idle_calls"] == 2
    assert m["policy.sweep_thresholds_s"] == 0.0


def test_benchmark_json_declares_what_the_benchmark_reports():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "peak_rss_mb", "setup_s"]
    assert [m["name"] for m in spec["per_layer"]] == [*spans.layer_metrics([]),
                                                      "trace.overhead_s"]
