"""Exporters: Chrome trace-event JSON, JSONL, metrics JSON, the ASCII
phase table."""

import json
from pathlib import Path

import pytest

from repro.errors import InvalidParameterError
from repro.obs.export import (
    phase_table,
    to_chrome_trace,
    to_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
    write_metrics,
)
from repro.obs.trace import Trace, Tracer
from repro.stats.counters import DominanceCounter


def make_trace():
    tracer = Tracer()
    counter = DominanceCounter()
    with tracer.span("execute", counter=counter, algorithm="sdi-subset"):
        with tracer.span("merge", counter=counter, sigma=2):
            counter.add(100)
        with tracer.span("scan", counter=counter):
            counter.add(400)
    return tracer.drain()


class TestChromeTrace:
    def test_one_complete_event_per_span(self):
        document = to_chrome_trace(make_trace())
        events = document["traceEvents"]
        assert [event["name"] for event in events] == ["execute", "merge", "scan"]
        assert all(event["ph"] == "X" for event in events)
        assert document["displayTimeUnit"] == "ms"

    def test_categories_split_roots_from_phases(self):
        events = to_chrome_trace(make_trace())["traceEvents"]
        assert events[0]["cat"] == "skyline"
        assert {event["cat"] for event in events[1:]} == {"phase"}

    def test_timestamps_are_microseconds(self):
        trace = make_trace()
        (execute,) = trace.roots
        event = to_chrome_trace(trace)["traceEvents"][0]
        assert event["ts"] == round(execute.start_s * 1e6, 3)
        assert event["dur"] == round(execute.wall_s * 1e6, 3)

    def test_args_carry_attrs_and_deltas(self):
        events = to_chrome_trace(make_trace())["traceEvents"]
        merge_args = events[1]["args"]
        assert merge_args["sigma"] == 2
        assert merge_args["delta.tests"] == 100.0

    def test_roundtrip_through_file_validates(self, tmp_path):
        path = write_chrome_trace(make_trace(), tmp_path / "trace.json")
        document = json.loads(path.read_text())
        assert validate_chrome_trace(document) == 3


class TestJsonl:
    def test_one_parseable_object_per_line(self):
        trace = make_trace()
        lines = to_jsonl(trace).splitlines()
        assert [json.loads(line) for line in lines] == (
            to_chrome_trace(trace)["traceEvents"]
        )
        assert [json.loads(line)["name"] for line in lines] == [
            "execute",
            "merge",
            "scan",
        ]

    def test_empty_trace_is_empty_string(self):
        assert to_jsonl(Trace(roots=[])) == ""

    def test_non_json_attribute_values_stringify(self):
        tracer = Tracer()
        tracer.record("odd", 0.0, where=Path("a") / "b", kinds={"x"})
        (entry,) = [json.loads(line) for line in to_jsonl(tracer.drain()).splitlines()]
        assert entry["args"]["where"] == str(Path("a") / "b")
        assert entry["args"]["kinds"] == "{'x'}"

    def test_write_jsonl(self, tmp_path):
        trace = make_trace()
        path = write_jsonl(trace, tmp_path / "events.jsonl")
        assert path.read_text(encoding="utf-8") == to_jsonl(trace)
        assert json.loads(path.read_text().splitlines()[1])["args"]["sigma"] == 2


class TestValidateChromeTrace:
    def test_rejects_non_object(self):
        with pytest.raises(InvalidParameterError, match="JSON object"):
            validate_chrome_trace([])

    def test_rejects_missing_events_array(self):
        with pytest.raises(InvalidParameterError, match="traceEvents"):
            validate_chrome_trace({"traceEvents": "nope"})

    def test_rejects_mistyped_event_field(self):
        document = {
            "traceEvents": [{"name": "x", "ph": "X", "ts": "soon", "pid": 1, "tid": 1}]
        }
        with pytest.raises(InvalidParameterError, match="'ts'"):
            validate_chrome_trace(document)

    def test_rejects_complete_event_without_dur(self):
        document = {
            "traceEvents": [{"name": "x", "ph": "X", "ts": 0, "pid": 1, "tid": 1}]
        }
        with pytest.raises(InvalidParameterError, match="dur"):
            validate_chrome_trace(document)

    def test_accepts_empty_trace(self):
        assert validate_chrome_trace({"traceEvents": []}) == 0


class TestWriteMetrics:
    def test_writes_sorted_pretty_json(self, tmp_path):
        path = write_metrics({"z": 1.0, "a": 2.0}, tmp_path / "metrics.json")
        text = path.read_text()
        assert json.loads(text) == {"a": 2.0, "z": 1.0}
        assert text.index('"a"') < text.index('"z"')
        assert text.endswith("\n")


class TestPhaseTable:
    def test_rows_indent_by_depth_with_bars(self):
        table = phase_table(make_trace())
        lines = table.splitlines()
        assert lines[0].startswith("phase")
        assert any(line.startswith("execute") for line in lines)
        assert any(line.startswith("  merge") for line in lines)
        assert any(line.startswith("  scan") for line in lines)
        assert "#" in lines[-1] or "#" in lines[-2]

    def test_dominance_deltas_appear(self):
        table = phase_table(make_trace())
        merge_line = next(
            line for line in table.splitlines() if line.lstrip().startswith("merge")
        )
        assert "100" in merge_line

    def test_empty_trace_placeholder(self):
        assert phase_table(Trace(roots=[])) == "(empty trace)"

    def test_rejects_bad_width(self):
        with pytest.raises(InvalidParameterError, match="width"):
            phase_table(make_trace(), width=0)

    def test_siblings_sorted_by_wall_time_descending(self):
        tracer = Tracer()
        counter = DominanceCounter()
        with tracer.span("execute", counter=counter):
            with tracer.span("fast", counter=counter):
                pass
            with tracer.span("slow", counter=counter):
                sum(range(200_000))
        table = phase_table(tracer.drain())
        lines = table.splitlines()
        slow_at = next(i for i, line in enumerate(lines) if line.startswith("  slow"))
        fast_at = next(i for i, line in enumerate(lines) if line.startswith("  fast"))
        assert slow_at < fast_at

    def test_children_stay_under_their_parent_after_sorting(self):
        tracer = Tracer()
        counter = DominanceCounter()
        with tracer.span("execute", counter=counter):
            with tracer.span("scan", counter=counter):
                with tracer.span("sort", counter=counter):
                    sum(range(100_000))
            with tracer.span("merge", counter=counter):
                pass
        lines = phase_table(tracer.drain()).splitlines()
        scan_at = next(i for i, line in enumerate(lines) if line.startswith("  scan"))
        sort_at = next(
            i for i, line in enumerate(lines) if line.startswith("    sort")
        )
        assert sort_at == scan_at + 1

    def test_cache_hit_rate_columns(self):
        tracer = Tracer()
        counter = DominanceCounter()
        with tracer.span("execute", counter=counter):
            with tracer.span("scan", counter=counter):
                counter.prepared_cache_hits += 1
                counter.prepared_cache_misses += 3
            with tracer.span("prepare", counter=counter):
                counter.prepared_cache_hits += 1
        table = phase_table(tracer.drain())
        assert "idx%" not in table.splitlines()[0]
        assert "prep%" in table.splitlines()[0]
        scan_line = next(
            line for line in table.splitlines() if line.lstrip().startswith("scan")
        )
        assert "25%" in scan_line
        prepare_line = next(
            line
            for line in table.splitlines()
            if line.lstrip().startswith("prepare")
        )
        assert "100%" in prepare_line


class TestEngineRepairSpanExport:
    """The incremental-repair span survives the Chrome export schema."""

    @pytest.fixture(scope="class")
    def repair_result(self):
        import numpy as np

        from repro.data import generate
        from repro.engine import SkylineEngine
        from repro.engine.context import ExecutionContext

        dataset = generate("UI", n=600, d=4, seed=3)
        engine = SkylineEngine(ExecutionContext(tracer=Tracer()))
        engine.execute(dataset, workers=1)
        rng = np.random.default_rng(3)
        engine.apply_delta(dataset, inserts=rng.random((4, 4)))
        result = engine.execute(dataset, workers=1)
        assert result.plan.incremental, "planner did not choose repair"
        return result

    def test_repair_span_args_survive_validation(self, repair_result, tmp_path):
        path = write_chrome_trace(repair_result.trace, tmp_path / "trace.json")
        document = json.loads(path.read_text())
        assert validate_chrome_trace(document) == len(document["traceEvents"])
        repair = next(
            event
            for event in document["traceEvents"]
            if event["name"] == "engine.repair"
        )
        assert repair["args"]["pending"] >= 1
        assert repair["ph"] == "X"

    def test_repair_span_aggregates_into_phase_table(self, repair_result):
        table = phase_table(repair_result.trace)
        repair_line = next(
            line
            for line in table.splitlines()
            if line.lstrip().startswith("engine.repair")
        )
        assert repair_line.startswith("  ")  # nested under execute
