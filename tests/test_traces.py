import csv
import io
import math
import random
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from trace_columns import Row, rows, trace_of
from zedsim.errors import ZedSimError
from zedsim.pmu import HarvestProfile
from zedsim.scheduler import Thresholds, evaluate_ex1
from zedsim.traces import (
    HARVEST_HEADER,
    NO_PERSON,
    PERSON,
    TRACE_HEADER,
    GeneratorSpec,
    SweepCell,
    balanced_call,
    check_instance,
    generate_trace,
    load_harvest,
    load_trace,
    save_harvest,
    save_trace,
    sweep_thresholds,
    trace_statistics,
)

EDGE_SCORES = [0.0, -0.0, 1.0, 5e-324, 1 - 2**-53, 0.5]
scores = st.one_of(st.sampled_from(EDGE_SCORES), st.floats(0.0, 1.0))
traces = st.lists(st.tuples(st.integers(-2**70, 2**70), scores, scores, st.integers(0, 1)),
                  max_size=30, unique_by=lambda row: row[0]).map(
    lambda drawn: [Row(*row) for row in sorted(drawn)])


class TestTraceFiles:
    def test_row_parsing(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,o1,o2,label\n0,0.95,0.99,1\n")
        assert rows(load_trace(path)) == [Row(0, 0.95, 0.99, 1)]

    def test_out_of_range_score(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,o1,o2,label\n3,1.2,0.5,1\n")
        with pytest.raises(ZedSimError, match=":2:"):
            load_trace(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,o1,o2,label\n0,0.5,0.5,1\nx,0.5,0.5,1\n")
        with pytest.raises(ZedSimError, match=":3:"):
            load_trace(path)

    def test_empty_file_is_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(ZedSimError, match=":1: expected header id,o1,o2,label, read None"):
            load_trace(path)

    def test_header_only_trace_loads_empty(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,o1,o2,label\n")
        # the command line reports an empty trace; the loader warns of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_trace(path) == trace_of([])

    def test_ids_must_ascend(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,o1,o2,label\n1,0.5,0.5,1\n1,0.5,0.5,0\n")
        with pytest.raises(ZedSimError, match="ascending"):
            load_trace(path)

    def test_round_trip(self, tmp_path):
        trace = generate_trace(GeneratorSpec(50, 0.75, 0.85, 0.5, 3))
        path = tmp_path / "t.csv"
        save_trace(trace, path)
        assert load_trace(path) == trace

    def test_harvest_round_trip_with_ma_units(self, tmp_path):
        profile = HarvestProfile.from_pairs([(0.0, 1e-3), (200.0, 5e-3)])
        path = tmp_path / "h.csv"
        save_harvest(profile, path)
        assert load_harvest(path) == profile

    @given(traces)
    @example([Row(k, s, EDGE_SCORES[-1 - k], k % 2)
              for k, s in enumerate(EDGE_SCORES)])
    def test_saved_bytes_are_the_csv_writer_rendering(self, trace):
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(TRACE_HEADER)
        for inst in trace:
            writer.writerow([inst.id, repr(inst.o1), repr(inst.o2), inst.label])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            save_trace(trace_of(trace), path)
            assert path.read_bytes() == expected.getvalue().encode()
            if trace:
                exact = [(i.id, i.o1.hex(), i.o2.hex(), i.label) for i in rows(load_trace(path))]
                assert exact == [(i.id, i.o1.hex(), i.o2.hex(), i.label) for i in trace]

    def test_harvest_bad_header(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("time,current\n0,1\n")
        with pytest.raises(ZedSimError, match=r":1: expected header t_start_s,i_h_ma, "
                                               r"read \['time', 'current'\]"):
            load_harvest(path)


# each loader with its header and one valid row
LOADERS = [pytest.param(load_trace, TRACE_HEADER, "0,0.5,0.5,1", id="trace"),
           pytest.param(load_harvest, HARVEST_HEADER, "0.0,1.0", id="harvest")]


class TestReader:
    @pytest.mark.parametrize("load, header, row", LOADERS)
    @pytest.mark.parametrize("rule", ["zero-bytes", "wrong-header", "bom-header", "wide-row",
                                      "0xff", "long-field"])
    def test_rules_are_worded_the_same_for_both_formats(self, tmp_path, load, header, row,
                                                         rule):
        names = ",".join(header)
        upper, bom = [h.upper() for h in header], ["\ufeff" + header[0], *header[1:]]
        content, problem = {
            "zero-bytes": (b"", f":1: expected header {names}, read None"),
            "wrong-header": (f"{names.upper()}\n{row}\n".encode(),
                             f":1: expected header {names}, read {upper!r}"),
            "bom-header": (f"\ufeff{names}\n{row}\n".encode(),
                           f":1: expected header {names}, read {bom!r}"),
            # a skipped blank line still counts in the line number
            "wide-row": (f"{names}\n{row}\n\n{row},0\n".encode(),
                         f":4: expected {len(header)} fields, got {len(header) + 1}"),
            "0xff": (f"{names}\n{row}\n".encode() + b"\xff\n",
                     ": 'utf-8' codec can't decode byte 0xff"),
            "long-field": (f"{names}\n{row}".encode() + b"1" * 200_000 + b"\n",
                           ": field larger than field limit (131072)"),
        }[rule]
        path = tmp_path / "input.csv"
        path.write_bytes(content)
        with pytest.raises(ZedSimError) as excinfo:
            load(path)
        assert str(excinfo.value).startswith(f"{path}{problem}")

    @pytest.mark.parametrize("load, content", [
        (load_trace, 'id,o1,o2,label\n0,"0.5\n",0.5,1\n1,x,0.5,1\n'),
        (load_harvest, 't_start_s,i_h_ma\n"0\n",1.0\nx,1.0\n'),
    ], ids=["trace", "harvest"])
    def test_line_numbers_count_file_lines(self, tmp_path, load, content):
        # a quoted field spans lines 2 and 3, so the third record is line 4
        path = tmp_path / "input.csv"
        path.write_text(content)
        with pytest.raises(ZedSimError) as excinfo:
            load(path)
        assert str(excinfo.value) == f"{path}:4: could not convert string to float: 'x'"

    @pytest.mark.parametrize("load, header, row", LOADERS)
    def test_blank_lines_are_skipped(self, tmp_path, load, header, row):
        names = ",".join(header)
        plain, blank = tmp_path / "plain.csv", tmp_path / "blank.csv"
        plain.write_text(f"{names}\n{row}\n")
        blank.write_text(f"{names}\n\n{row}\n\n\n")
        assert load(blank) == load(plain)


class TestColumns:
    def test_a_trace_equals_only_a_trace(self):
        xs = [Row(0, 0.2, 0.8, 1), Row(1, 0.6, 0.4, 0)]
        columns = trace_of(xs)
        assert columns.__eq__(xs) is NotImplemented
        assert columns != xs and columns == trace_of(rows(columns))

    def test_generator_retains_no_object_per_row(self):
        spec = GeneratorSpec(20000, 0.7265, 0.8309, 0.5386, 0)
        generate_trace(GeneratorSpec(10, 0.7265, 0.8309, 0.5386, 0))  # imports numpy
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = generate_trace(spec)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(trace) == spec.n
        # four columns: an int per id plus 8 + 8 + 1 bytes of scores and label
        assert retained <= 80 * spec.n


class TestFallbackAndEx2:
    def test_fallback_tie_is_person(self):
        assert balanced_call(0.5) == PERSON

    def test_fallback_below(self):
        assert balanced_call(0.49) == NO_PERSON

    def test_fallback_upper_band(self):
        assert balanced_call(0.69) == PERSON

    def test_ex2_extremes(self):
        assert balanced_call(0.0) == NO_PERSON
        assert balanced_call(1.0) == PERSON


class TestInstance:
    def test_instance_bounds(self):
        with pytest.raises(ZedSimError, match=r"instance 3: o1=1\.2 outside \[0, 1\]"):
            check_instance(3, 1.2, 0.5, 1)
        with pytest.raises(ZedSimError, match=r"instance 3: o2=-0\.1 outside \[0, 1\]"):
            check_instance(3, 0.5, -0.1, 1)
        with pytest.raises(ZedSimError, match="instance 3: label must be 0 or 1"):
            check_instance(3, 0.5, 0.5, 2)


class TestGenerator:
    def test_calibration_hits_targets(self, calibrated_trace):
        stats = trace_statistics(calibrated_trace)
        assert abs(stats.acc_at_half_ex1 - 0.7265) <= 0.01
        assert abs(stats.acc_at_half_ex2 - 0.8309) <= 0.01
        assert abs(stats.person_fraction - 0.5386) <= 0.02

    def test_calibration_tight_across_seeds(self):
        for seed in range(5):
            spec = GeneratorSpec(5000, 0.7265, 0.8309, 0.5386, seed)
            stats = trace_statistics(generate_trace(spec))
            assert abs(stats.acc_at_half_ex1 - 0.7265) <= 0.01
            assert abs(stats.acc_at_half_ex2 - 0.8309) <= 0.01

    def test_perfect_classifier_limit(self):
        trace = generate_trace(GeneratorSpec(500, 1.0, 1.0, 0.5, 1))
        for inst in rows(trace):
            assert (inst.o1 >= 0.5) == bool(inst.label)
            assert (inst.o2 >= 0.5) == bool(inst.label)

    def test_seeded_determinism(self):
        spec = GeneratorSpec(1000, 0.75, 0.85, 0.5386, 12)
        assert generate_trace(spec) == generate_trace(spec)
        other = GeneratorSpec(1000, 0.75, 0.85, 0.5386, 13)
        assert generate_trace(other) != generate_trace(spec)

    def test_label_balance_exact_count(self):
        trace = generate_trace(GeneratorSpec(1000, 0.75, 0.85, 0.5386, 4))
        assert sum(trace.labels) == round(1000 * 0.5386)

    def test_deep_head_dominates_shallow(self, calibrated_trace):
        trace = calibrated_trace
        stats = trace_statistics(trace)
        assert stats.acc_at_half_ex2 >= stats.acc_at_half_ex1
        ok2_given_ok1 = [
            (i.o2 >= 0.5) == bool(i.label)
            for i in rows(trace)
            if (i.o1 >= 0.5) == bool(i.label)
        ]
        ok2_given_bad1 = [
            (i.o2 >= 0.5) == bool(i.label)
            for i in rows(trace)
            if (i.o1 >= 0.5) != bool(i.label)
        ]
        assert sum(ok2_given_ok1) / len(ok2_given_ok1) >= sum(ok2_given_bad1) / len(
            ok2_given_bad1
        )

    def test_scores_in_unit_interval(self):
        for inst in rows(generate_trace(GeneratorSpec(2000, 0.6, 0.9, 0.3, 2))):
            assert 0.0 <= inst.o1 <= 1.0 and 0.0 <= inst.o2 <= 1.0

    def test_feasible_targets_at_their_edges(self):
        # one instance or the cap, accuracies at 0.5 or 1, and equal at both heads
        for n, acc1, acc2 in [(1, 0.5, 0.5), (10**7, 1.0, 1.0), (100, 0.5, 1.0)]:
            assert GeneratorSpec(n, acc1, acc2, 0.5, 0).n == n

    def test_infeasible_targets(self):
        accuracies = r"need 0\.5 <= acc1 <= acc2 <= 1"
        with pytest.raises(ZedSimError, match=accuracies + r", got \(0\.4, 0\.8\)"):
            GeneratorSpec(100, 0.4, 0.8, 0.5, 1)  # acc1 below 0.5
        with pytest.raises(ZedSimError, match=accuracies + r", got \(0\.9, 0\.8\)"):
            GeneratorSpec(100, 0.9, 0.8, 0.5, 1)  # acc1 > acc2
        balance = r"person_fraction must be in \(0, 1\)"
        with pytest.raises(ZedSimError, match=balance):
            GeneratorSpec(100, 0.7, 0.8, 0.0, 1)  # degenerate class balance
        with pytest.raises(ZedSimError, match=balance):
            GeneratorSpec(100, 0.7, 0.8, 1.0, 1)
        with pytest.raises(ZedSimError, match=r"n must be in \[1, 10000000\], got 0"):
            GeneratorSpec(0, 0.7, 0.8, 0.5, 1)


class TestStatistics:
    def test_single_instance(self):
        stats = trace_statistics(trace_of([Row(0, 0.9, 0.9, 1)]))
        assert stats.n == 1
        assert stats.acc_at_half_ex1 in (0.0, 1.0)
        assert stats.acc_at_half_ex2 in (0.0, 1.0)

    def test_empty_rejected(self):
        with pytest.raises(ZedSimError, match="trace must be non-empty"):
            trace_statistics(trace_of([]))


class TestSweep:
    def test_degenerate_band_matches_single_threshold(self, calibrated_trace):
        (cell,) = sweep_thresholds(calibrated_trace, [Thresholds(0.5, 0.5)])
        assert cell.n_ex2 == 0
        single = sum(
            (inst.o1 >= 0.5) == bool(inst.label) for inst in rows(calibrated_trace)
        ) / len(calibrated_trace)
        assert cell.acc_total == pytest.approx(single, abs=1e-12)
        assert cell.acc_total == cell.acc_ex1
        assert cell.acc_ex2 is None

    def test_everything_escalates(self):
        trace = trace_of([
            Row(0, 0.4, 0.9, 1),
            Row(1, 0.6, 0.1, 0),
            Row(2, 0.5, 0.5, 1),
        ])
        (cell,) = sweep_thresholds(trace, [Thresholds(0.0, 1.0)])
        assert cell.n_ex1 == 0
        assert cell.acc_ex1 is None
        assert cell.acc_total == cell.acc_ex2 == 1.0

    def test_wide_band_beats_degenerate_on_calibrated_trace(self, calibrated_trace):
        wide, degenerate = sweep_thresholds(
            calibrated_trace, [Thresholds(0.1, 0.9), Thresholds(0.5, 0.5)]
        )
        assert wide.acc_total >= degenerate.acc_total

    def test_partition_property(self, calibrated_trace):
        rng = random.Random(3)
        grid = [
            Thresholds(rng.uniform(0, 0.5), rng.uniform(0.5, 1.0)) for _ in range(25)
        ]
        for cell in sweep_thresholds(calibrated_trace, grid):
            assert cell.n_ex1 + cell.n_ex2 == len(calibrated_trace)

    def test_monotone_escalation_with_band_widening(self, calibrated_trace):
        bands = [Thresholds(0.5 - w, 0.5 + w) for w in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)]
        counts = [c.n_ex2 for c in sweep_thresholds(calibrated_trace, bands)]
        assert counts == sorted(counts)

    def test_empty_trace_rejected(self):
        with pytest.raises(ZedSimError, match="trace must be non-empty"):
            sweep_thresholds(trace_of([]), [Thresholds(0.3, 0.7)])


def _sweep_oracle(trace, grid):
    """Reference sweep: every instance through evaluate_ex1/balanced_call, per cell."""
    cells = []
    for th in grid:
        n_ex1 = n_ex2 = ok_ex1 = ok_ex2 = 0
        for inst in rows(trace):
            call = evaluate_ex1(inst.o1, th)
            if call is None:
                n_ex2 += 1
                ok_ex2 += balanced_call(inst.o2) == inst.label
            else:
                n_ex1 += 1
                ok_ex1 += call == inst.label
        cells.append(
            SweepCell(
                th.gamma1,
                th.gamma2,
                ok_ex1 / n_ex1 if n_ex1 else None,
                ok_ex2 / n_ex2 if n_ex2 else None,
                (ok_ex1 + ok_ex2) / len(trace),
                n_ex1,
                n_ex2,
            )
        )
    return cells


# scores hit the grid values often, so ties at gamma1 and gamma2 occur
GRID_VALUES = (0.0, 0.1, 0.3, 0.45, 0.5, 0.55, 0.7, 0.9, 1.0)
tie_scores = st.one_of(st.sampled_from(GRID_VALUES), st.floats(0.0, 1.0))
sweep_rows = st.lists(st.tuples(tie_scores, tie_scores, st.integers(0, 1)), min_size=1,
                      max_size=40)
grid_cells = st.one_of(
    st.builds(Thresholds, st.sampled_from([g for g in GRID_VALUES if g <= 0.5]),
              st.sampled_from([g for g in GRID_VALUES if g >= 0.5])),
    st.builds(Thresholds, st.floats(0.0, 0.5), st.floats(0.5, 1.0)),
)


@given(sweep_rows, st.lists(grid_cells, max_size=8))
@example([(0.4, 0.9, 1), (0.6, 0.1, 0)], [])  # (0, 1) leaves exit 1 empty
def test_sweep_matches_per_instance_oracle(table, drawn):
    trace = trace_of(Row(k, *row) for k, row in enumerate(table))
    # (0.5, 0.5) leaves exit 2 empty; (0, 1) sends all but the poles to it
    grid = [Thresholds(0.5, 0.5), Thresholds(0.0, 1.0)] + drawn
    cells = sweep_thresholds(trace, iter(grid))
    assert cells == _sweep_oracle(trace, grid)
    for cell in cells:
        assert type(cell.n_ex1) is int and type(cell.n_ex2) is int
        assert type(cell.acc_total) is float
        for acc in (cell.acc_ex1, cell.acc_ex2):
            assert acc is None or type(acc) is float
