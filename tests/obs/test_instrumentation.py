"""End-to-end trace shape of the instrumented stack.

These tests pin the span vocabulary the exporters and docs rely on: an
engine run produces ``prepare``/``plan``/``execute`` roots with
``merge``/``sort``/``scan``/``index.query`` descendants, the parallel
extension contributes ``parallel.map``/``parallel.merge``, and the bench
runner one ``repeat`` record per repeat.  The lifecycle facts (query,
plan, delta, cache, pool) ride on those spans, and the number of records
a run leaves is a deterministic function of its counters.
"""

from collections import Counter

import numpy as np
import pytest

from repro.bench.runner import run_one
from repro.core.merge import _MAX_ROUND_RECORDS
from repro.data import generate
from repro.engine import PreparedDataset, SkylineEngine
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


def traced_engine():
    return SkylineEngine(ExecutionContext(tracer=Tracer()))


def only(trace, name):
    (span,) = trace.find(name)
    return span


class TestLifecycleFacts:
    """Each lifecycle fact of a run is an attribute of the span around it."""

    def test_execute_span_carries_the_query_start(self, ui_traceable):
        pinned = traced_engine().execute(ui_traceable, "sdi-subset")
        execute = only(pinned.trace, "execute")
        assert execute.attrs["dataset"] == ui_traceable.name
        assert execute.attrs["requested"] == "sdi-subset"
        assert (execute.attrs["n"], execute.attrs["d"]) == (2000, 6)
        adaptive = traced_engine().execute(ui_traceable)
        assert only(adaptive.trace, "execute").attrs["requested"] == "auto"

    def test_execute_span_carries_the_chosen_plan(self, ui_traceable):
        engine = traced_engine()
        plan = engine.plan(ui_traceable)
        result = engine.execute(ui_traceable, plan=plan)
        assert [span.name for span in result.trace.roots] == ["prepare", "execute"]
        attrs = only(result.trace, "execute").attrs
        assert attrs["algorithm"] == plan.label
        assert attrs["adaptive"] is True
        assert attrs["incremental"] is False
        assert attrs["workers"] == plan.workers
        assert attrs["parallel_strategy"] == plan.parallel_strategy

    def test_execute_span_carries_the_query_finish(self, traced_run):
        result, counter = traced_run
        execute = only(result.trace, "execute")
        assert execute.attrs["skyline_size"] == result.size
        assert 0.0 < execute.wall_s <= result.trace.wall_s
        charged = sum(root.counter_delta.get("tests", 0.0) for root in result.trace.roots)
        assert charged == float(result.dominance_tests) == float(counter.tests)

    def test_delta_apply_span_wraps_the_prepared_delta(self, ui_traceable):
        engine = traced_engine()
        engine.execute(ui_traceable)
        counter = DominanceCounter()
        inserts = np.random.default_rng(4).random((5, 6))
        report = engine.apply_delta(ui_traceable, inserts, [0, 7], counter=counter)
        result = engine.execute(ui_traceable)
        delta = result.trace.roots[0]
        assert delta.name == "delta.apply"
        assert delta.attrs == {
            "dataset": ui_traceable.name,
            "mode": report.mode,
            "inserted": 5,
            "deleted": 2,
            "version": report.version,
        }
        assert [child.name for child in delta.children] == ["prepared.delta"]
        assert delta.counter_delta.get("tests", 0.0) == float(counter.tests)

    def test_repair_span_names_the_dataset(self, ui_traceable):
        engine = traced_engine()
        engine.execute(ui_traceable)
        engine.apply_delta(ui_traceable, np.random.default_rng(5).random((8, 6)))
        result = engine.execute(ui_traceable)
        assert result.plan.incremental
        repair = only(result.trace, "engine.repair")
        assert repair.attrs["dataset"] == ui_traceable.name
        assert repair.attrs["pending"] == result.plan.pending_mutations == 8

    def test_invalidate_records_a_zero_width_marker(self, ui_traceable):
        prepared = PreparedDataset(ui_traceable)
        prepared.merged()
        prepared.statistics()
        tracer = Tracer()
        with tracer.activate():
            prepared.invalidate()
        marker = only(tracer.drain(), "cache.invalidate")
        assert marker.wall_s == 0.0
        assert marker.attrs == {
            "dataset": ui_traceable.name,
            "version": prepared.version,
            "merge": 1,
            "sort": 0,
            "views": 0,
            "artefacts": 0,
        }

    def test_recompute_delta_nests_the_invalidation(self, ui_traceable):
        engine = traced_engine()
        engine.execute(ui_traceable, "sfs-subset")
        engine.apply_delta(ui_traceable, deletes=[3], mode="recompute")
        delta = engine.execute(ui_traceable, "sfs-subset").trace.roots[0]
        assert delta.attrs["mode"] == "recompute"
        assert [child.name for child in delta.children] == ["cache.invalidate"]

    def test_map_span_carries_the_worker_count(self):
        tracer = Tracer()
        with tracer.activate():
            parallel_skyline(generate("UI", n=400, d=4, seed=9), workers=2)
        assert only(tracer.drain(), "parallel.map").attrs["workers"] == 2


#: Span names whose count depends on the run: sampled or capped records.
_COUNTED = {"index.query", "merge.round"}


class TestRecordCountContract:
    """A live tracer leaves a record count fixed by the run's counters:
    ``index_queries // 64`` sampled index queries, ``min(iterations,
    _MAX_ROUND_RECORDS)`` Merge rounds, and one of every other span."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("d", [4, 8])
    @pytest.mark.parametrize(
        "host", ["sdi-subset", "sfs-subset", "salsa-subset", "sfs", "bnl", "auto"]
    )
    def test_records_per_run(self, host, d, seed):
        dataset = generate("UI", n=3000, d=d, seed=seed)
        engine = traced_engine()
        counter = DominanceCounter()
        algorithm = None if host == "auto" else host
        result = engine.execute(dataset, algorithm, counter=counter)
        names = Counter(span.name for span in result.trace.spans())
        merges = result.trace.find("merge")
        iterations = merges[0].attrs["iterations"] if merges else 0
        assert names["index.query"] == counter.index_queries // 64
        assert names["merge.round"] == min(iterations, _MAX_ROUND_RECORDS)
        assert all(calls == 1 for name, calls in names.items() if name not in _COUNTED), names
        if host != "auto":
            return
        # An incremental plan needs an adaptive one: write, then repair.
        inserts = np.random.default_rng(seed).random((8, d))
        engine.apply_delta(dataset, inserts)
        repaired = engine.execute(dataset)
        assert repaired.plan.incremental
        roots = repaired.trace.roots
        assert [root.name for root in roots] == ["delta.apply", "prepare", "plan", "execute"]
        assert [child.name for child in roots[0].children] == ["prepared.delta"]
        assert len(repaired.trace.find("engine.repair")) == 1
        untraced = SkylineEngine()
        untraced.execute(dataset)
        untraced.apply_delta(dataset, inserts)
        assert untraced.execute(dataset).trace is None


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
        with tracer.activate():
            row = run_one(dataset, "sfs", repeats=3)
        repeats = tracer.drain().find("repeat")
        assert row.elapsed_seconds > 0
        assert [span.attrs["repeat"] for span in repeats] == [0, 1, 2]
        assert all(span.attrs["cold"] for span in repeats)

    def test_untraced_runner_records_nothing(self):
        dataset = generate("UI", n=300, d=4, seed=3)
        tracer = Tracer()
        run_one(dataset, "sfs", repeats=2)
        assert tracer.drain().roots == []
