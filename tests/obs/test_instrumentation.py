"""End-to-end trace shape of the instrumented stack.

These tests pin the span vocabulary the exporters and docs rely on: an
engine run produces ``prepare``/``plan``/``execute`` roots with
``merge``/``sort``/``scan``/``index.query`` descendants, the parallel
extension contributes ``parallel.map``/``parallel.merge``, and the bench
runner one ``repeat`` record per repeat.
"""

import pytest

from repro.bench.runner import run_one
from repro.core.merge import _MAX_ROUND_RECORDS
from repro.data import generate
from repro.engine import SkylineEngine
from repro.engine.context import ExecutionContext
from repro.extensions.parallel import parallel_skyline
from repro.obs.trace import Tracer
from repro.stats.counters import DominanceCounter


@pytest.fixture(scope="module")
def ui_traceable():
    """Large enough for Merge rounds, sorts and a scan to show up."""
    return generate("UI", n=2000, d=6, seed=5)


@pytest.fixture(scope="module")
def traced_run(ui_traceable):
    engine = SkylineEngine(ExecutionContext(tracer=Tracer()))
    counter = DominanceCounter()
    result = engine.execute(ui_traceable, "sdi-subset", counter=counter)
    return result, counter


class TestEngineTraceShape:
    def test_roots_are_the_engine_stages(self, traced_run):
        result, _ = traced_run
        assert [span.name for span in result.trace.roots] == [
            "prepare",
            "plan",
            "execute",
        ]

    def test_execute_contains_the_paper_phases(self, traced_run):
        result, _ = traced_run
        (execute,) = [s for s in result.trace.roots if s.name == "execute"]
        names = {span.name for _, span in execute.walk()}
        assert {"merge", "scan", "sort"} <= names

    def test_sampled_index_queries_appear(self):
        # A boosted scan walks the index once per subspace, and d = 6 has
        # only 63 non-empty subspaces: d = 8 gives enough walks to sample.
        engine = SkylineEngine(ExecutionContext(tracer=Tracer()))
        counter = DominanceCounter()
        result = engine.execute(
            generate("UI", n=2000, d=8, seed=5), "sdi-subset", counter=counter
        )
        queries = result.trace.find("index.query")
        assert counter.index_queries >= 64
        assert len(queries) == counter.index_queries // 64
        assert all(span.attrs["sampled_1_in"] == 64 for span in queries)

    def test_merge_rounds_are_recorded_and_capped(self, traced_run):
        result, _ = traced_run
        (merge,) = result.trace.find("merge")
        rounds = [span for span in merge.children if span.name == "merge.round"]
        iterations = merge.attrs["iterations"]
        assert rounds
        assert len(rounds) == min(iterations, _MAX_ROUND_RECORDS)
        assert {"pivot", "removed", "remaining", "stability"} <= set(
            rounds[0].attrs
        )

    def test_phase_deltas_sum_to_the_charged_tests(self, traced_run):
        result, counter = traced_run
        charged = sum(
            span.counter_delta.get("tests", 0.0) for span in result.trace.roots
        )
        assert charged == float(counter.tests)

    def test_plan_span_carries_the_label(self, traced_run):
        result, _ = traced_run
        (plan,) = [s for s in result.trace.roots if s.name == "plan"]
        assert plan.attrs["label"] == "sdi-subset"

    def test_warm_run_marks_reused_merge(self, ui_traceable):
        engine = SkylineEngine(ExecutionContext(tracer=Tracer()))
        cold = engine.execute(ui_traceable, "sdi-subset")
        warm = engine.execute(ui_traceable, "sdi-subset")
        assert cold.trace.find("merge") and not cold.trace.find("merge.cached")
        assert warm.trace.find("merge.cached") and not warm.trace.find("merge")


class TestNullTracerEquivalence:
    def test_default_engine_produces_no_trace(self, ui_traceable, traced_run):
        traced_result, traced_counter = traced_run
        counter = DominanceCounter()
        result = SkylineEngine().execute(ui_traceable, "sdi-subset", counter=counter)
        assert result.trace is None
        assert list(result.indices) == list(traced_result.indices)
        assert counter.tests == traced_counter.tests


class TestParallelSpans:
    def test_map_and_merge_spans(self):
        dataset = generate("UI", n=400, d=4, seed=9)
        tracer = Tracer()
        with tracer.activate():
            parallel_skyline(dataset, workers=2)
        trace = tracer.drain()
        (map_span,) = trace.find("parallel.map")
        (merge_span,) = trace.find("parallel.merge")
        assert map_span.attrs["blocks"] == 2
        assert merge_span.attrs["candidates"] >= 1

    def test_single_worker_path_skips_parallel_spans(self):
        dataset = generate("UI", n=200, d=4, seed=9)
        tracer = Tracer()
        with tracer.activate():
            parallel_skyline(dataset, workers=1)
        trace = tracer.drain()
        assert trace.find("parallel.map") == []
        assert trace.find("parallel.merge") == []


class TestBenchRunnerSpans:
    def test_one_repeat_record_per_repeat(self):
        dataset = generate("UI", n=300, d=4, seed=3)
        tracer = Tracer()
        row = run_one(dataset, "sfs", repeats=3, tracer=tracer)
        repeats = tracer.drain().find("repeat")
        assert row.elapsed_seconds > 0
        assert [span.attrs["repeat"] for span in repeats] == [0, 1, 2]
        assert all(span.attrs["cold"] for span in repeats)

    def test_untraced_runner_records_nothing(self):
        dataset = generate("UI", n=300, d=4, seed=3)
        tracer = Tracer()
        run_one(dataset, "sfs", repeats=2)
        assert tracer.drain().roots == []
