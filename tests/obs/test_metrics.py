"""The flat metrics registry: counters, pools, traces, export shape."""

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.stats.counters import DominanceCounter


class TestRecord:
    def test_record_coerces_to_float(self):
        registry = MetricsRegistry()
        registry.record("run.skyline_size", 42)
        assert registry.as_dict() == {"run.skyline_size": 42.0}

    def test_last_write_wins(self):
        registry = MetricsRegistry()
        registry.record("x", 1.0)
        registry.record("x", 2.0)
        assert registry.as_dict()["x"] == 2.0

    def test_record_many_applies_prefix(self):
        registry = MetricsRegistry()
        registry.record_many({"a": 1, "b": 2}, prefix="run.")
        assert registry.as_dict() == {"run.a": 1.0, "run.b": 2.0}

    def test_as_dict_sorts_keys(self):
        registry = MetricsRegistry()
        registry.record("z", 1.0)
        registry.record("a", 2.0)
        assert list(registry.as_dict()) == ["a", "z"]

    def test_len_and_repr(self):
        registry = MetricsRegistry()
        registry.record("a", 1.0)
        assert len(registry) == 1
        assert "1 metrics" in repr(registry)


class TestRecordCounter:
    def test_all_tallies_land_under_counter_prefix(self):
        registry = MetricsRegistry()
        counter = DominanceCounter(tests=7, index_queries=3)
        counter.extras["batched_rounds"] = 2.0
        registry.record_counter(counter)
        values = registry.as_dict()
        assert values["counter.tests"] == 7.0
        assert values["counter.index_queries"] == 3.0
        assert values["counter.extras.batched_rounds"] == 2.0

    def test_hit_rates_derived_when_lookups_exist(self):
        registry = MetricsRegistry()
        counter = DominanceCounter(prepared_cache_hits=1, prepared_cache_misses=3)
        registry.record_counter(counter)
        values = registry.as_dict()
        assert values["counter.prepared_cache_hit_rate"] == 0.25

    def test_hit_rates_absent_without_lookups(self):
        registry = MetricsRegistry()
        registry.record_counter(DominanceCounter(tests=5))
        values = registry.as_dict()
        assert "counter.prepared_cache_hit_rate" not in values


class TestRecordPool:
    def test_pool_stats_are_prefixed(self):
        registry = MetricsRegistry()
        registry.record_pool({"dispatches": 12, "workers_reused": 10})
        values = registry.as_dict()
        assert values["pool.dispatches"] == 12.0
        assert values["pool.workers_reused"] == 10.0

    def test_empty_pool_stats_record_nothing(self):
        registry = MetricsRegistry()
        registry.record_pool({})
        assert len(registry) == 0


class TestRecordTrace:
    def make_trace(self):
        tracer = Tracer()
        counter = DominanceCounter()
        with tracer.span("execute", counter=counter):
            with tracer.span("merge", counter=counter):
                counter.add(10)
            with tracer.span("sort"):
                pass
        return tracer.drain()

    def test_phase_paths_become_dotted_keys(self):
        registry = MetricsRegistry()
        registry.record_trace(self.make_trace())
        values = registry.as_dict()
        assert "phase.execute.wall_s" in values
        assert "phase.execute.merge.cpu_s" in values
        assert values["phase.execute.merge.calls"] == 1.0

    def test_dominance_tests_only_where_charged(self):
        registry = MetricsRegistry()
        registry.record_trace(self.make_trace())
        values = registry.as_dict()
        assert values["phase.execute.merge.dominance_tests"] == 10.0
        assert "phase.execute.sort.dominance_tests" not in values
