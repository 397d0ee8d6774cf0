import csv
import io
import math
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from trace_columns import trace_of
from zedsim.errors import DomainError, TraceError
from zedsim.pmu import HarvestProfile
from zedsim.traces import (
    HARVEST_HEADER,
    TRACE_HEADER,
    GeneratorSpec,
    InferenceInstance,
    generate_trace,
    load_harvest,
    load_trace,
    save_harvest,
    save_trace,
    trace_statistics,
)

EDGE_SCORES = [0.0, -0.0, 1.0, 5e-324, 1 - 2**-53, 0.5]
scores = st.one_of(st.sampled_from(EDGE_SCORES), st.floats(0.0, 1.0))
traces = st.lists(st.tuples(st.integers(-2**70, 2**70), scores, scores, st.integers(0, 1)),
                  max_size=30, unique_by=lambda row: row[0]).map(
    lambda rows: [InferenceInstance(*row) for row in sorted(rows)])


class TestTraceFiles:
    def test_row_parsing(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,o1,o2,label\n0,0.95,0.99,1\n")
        (inst,) = load_trace(path)
        assert inst == InferenceInstance(0, 0.95, 0.99, 1)

    def test_out_of_range_score(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,o1,o2,label\n3,1.2,0.5,1\n")
        with pytest.raises(TraceError, match=":2:"):
            load_trace(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,o1,o2,label\n0,0.5,0.5,1\nx,0.5,0.5,1\n")
        with pytest.raises(TraceError, match=":3:"):
            load_trace(path)

    def test_empty_file_is_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(TraceError, match=":1: expected header id,o1,o2,label, read None"):
            load_trace(path)

    def test_header_only_trace_loads_empty_with_a_warning(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,o1,o2,label\n")
        with pytest.warns(UserWarning, match="no data rows"):
            assert len(load_trace(path)) == 0

    def test_ids_must_ascend(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,o1,o2,label\n1,0.5,0.5,1\n1,0.5,0.5,0\n")
        with pytest.raises(TraceError, match="ascending"):
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
    @example([InferenceInstance(k, s, EDGE_SCORES[-1 - k], k % 2)
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
                exact = [(i.id, i.o1.hex(), i.o2.hex(), i.label) for i in load_trace(path)]
                assert exact == [(i.id, i.o1.hex(), i.o2.hex(), i.label) for i in trace]

    def test_harvest_bad_header(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("time,current\n0,1\n")
        with pytest.raises(TraceError):
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
        with pytest.raises(TraceError) as excinfo:
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
        with pytest.raises(TraceError) as excinfo:
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
        xs = [InferenceInstance(0, 0.2, 0.8, 1), InferenceInstance(1, 0.6, 0.4, 0)]
        columns = trace_of(xs)
        assert columns.__eq__(xs) is NotImplemented
        assert columns != xs and columns == trace_of(columns)

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


class TestGenerator:
    def test_calibration_hits_targets(self):
        spec = GeneratorSpec(5000, 0.7265, 0.8309, 0.5386, 7)
        stats = trace_statistics(generate_trace(spec))
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
        for inst in trace:
            assert (inst.o1 >= 0.5) == bool(inst.label)
            assert (inst.o2 >= 0.5) == bool(inst.label)

    def test_seeded_determinism(self):
        spec = GeneratorSpec(1000, 0.75, 0.85, 0.5386, 12)
        assert generate_trace(spec) == generate_trace(spec)
        other = GeneratorSpec(1000, 0.75, 0.85, 0.5386, 13)
        assert generate_trace(other) != generate_trace(spec)

    def test_label_balance_exact_count(self):
        trace = generate_trace(GeneratorSpec(1000, 0.75, 0.85, 0.5386, 4))
        assert sum(i.label for i in trace) == round(1000 * 0.5386)

    def test_deep_head_dominates_shallow(self):
        trace = generate_trace(GeneratorSpec(5000, 0.7265, 0.8309, 0.5386, 7))
        stats = trace_statistics(trace)
        assert stats.acc_at_half_ex2 >= stats.acc_at_half_ex1
        ok2_given_ok1 = [
            (i.o2 >= 0.5) == bool(i.label)
            for i in trace
            if (i.o1 >= 0.5) == bool(i.label)
        ]
        ok2_given_bad1 = [
            (i.o2 >= 0.5) == bool(i.label)
            for i in trace
            if (i.o1 >= 0.5) != bool(i.label)
        ]
        assert sum(ok2_given_ok1) / len(ok2_given_ok1) >= sum(ok2_given_bad1) / len(
            ok2_given_bad1
        )

    def test_scores_in_unit_interval(self):
        for inst in generate_trace(GeneratorSpec(2000, 0.6, 0.9, 0.3, 2)):
            assert 0.0 <= inst.o1 <= 1.0 and 0.0 <= inst.o2 <= 1.0

    def test_feasible_targets_at_their_edges(self):
        # one instance or the cap, accuracies at 0.5 or 1, and equal at both heads
        for n, acc1, acc2 in [(1, 0.5, 0.5), (10**7, 1.0, 1.0), (100, 0.5, 1.0)]:
            assert GeneratorSpec(n, acc1, acc2, 0.5, 0).n == n

    def test_infeasible_targets(self):
        with pytest.raises(DomainError):
            GeneratorSpec(100, 0.4, 0.8, 0.5, 1)  # acc1 below 0.5
        with pytest.raises(DomainError):
            GeneratorSpec(100, 0.9, 0.8, 0.5, 1)  # acc1 > acc2
        with pytest.raises(DomainError):
            GeneratorSpec(100, 0.7, 0.8, 0.0, 1)  # degenerate class balance
        with pytest.raises(DomainError):
            GeneratorSpec(100, 0.7, 0.8, 1.0, 1)
        with pytest.raises(DomainError):
            GeneratorSpec(0, 0.7, 0.8, 0.5, 1)


class TestStatistics:
    def test_single_instance(self):
        stats = trace_statistics(trace_of([InferenceInstance(0, 0.9, 0.9, 1)]))
        assert stats.n == 1
        assert stats.acc_at_half_ex1 in (0.0, 1.0)
        assert stats.acc_at_half_ex2 in (0.0, 1.0)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            trace_statistics(trace_of([]))
