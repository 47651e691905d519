"""Span mechanics: nesting, counter deltas, draining, the ambient tracer."""

from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Trace,
    Tracer,
    aggregate_phases,
    current_tracer,
)
from repro.stats.counters import DominanceCounter


class TestSpanNesting:
    def test_children_attach_to_open_parent(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("sibling"):
                pass
        trace = tracer.drain()
        assert [span.name for span in trace.roots] == ["outer"]
        assert [span.name for span in trace.roots[0].children] == [
            "inner",
            "sibling",
        ]

    def test_walk_reports_depths(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        trace = tracer.drain()
        assert [(depth, span.name) for depth, span in trace.walk()] == [
            (0, "a"),
            (1, "b"),
            (2, "c"),
        ]

    def test_find_collects_by_name_depth_first(self):
        tracer = Tracer()
        with tracer.span("run"):
            with tracer.span("round"):
                pass
            with tracer.span("round"):
                pass
        trace = tracer.drain()
        assert len(trace.find("round")) == 2
        assert trace.find("missing") == []

    def test_attrs_from_kwargs_and_set(self):
        tracer = Tracer()
        with tracer.span("merge", sigma=2) as span:
            span.set(pivots=7, sigma=3)
        (merge,) = tracer.drain().roots
        assert merge.attrs == {"sigma": 3, "pivots": 7}

    def test_durations_are_measured(self):
        tracer = Tracer()
        with tracer.span("work"):
            sum(range(1000))
        (span,) = tracer.drain().roots
        assert span.wall_s > 0.0
        assert span.start_s >= 0.0


class TestCounterDelta:
    def test_delta_is_charged_per_span(self):
        tracer = Tracer()
        counter = DominanceCounter()
        counter.add(3)
        with tracer.span("outer", counter=counter):
            counter.add(5)
            with tracer.span("inner", counter=counter):
                counter.add(2)
        trace = tracer.drain()
        (outer,) = trace.roots
        assert outer.counter_delta == {"tests": 7.0}
        assert outer.children[0].counter_delta == {"tests": 2.0}

    def test_zero_deltas_are_omitted(self):
        tracer = Tracer()
        counter = DominanceCounter()
        with tracer.span("idle", counter=counter):
            pass
        (span,) = tracer.drain().roots
        assert span.counter_delta == {}

    def test_extras_appearing_mid_span_count_from_zero(self):
        tracer = Tracer()
        counter = DominanceCounter()
        with tracer.span("scan", counter=counter):
            counter.extras["blocks"] = 4.0
        (span,) = tracer.drain().roots
        assert span.counter_delta == {"extras.blocks": 4.0}

    def test_unbound_span_has_no_delta(self):
        tracer = Tracer()
        counter = DominanceCounter()
        with tracer.span("merge"):
            counter.add(9)
        (span,) = tracer.drain().roots
        assert span.counter_delta == {}


class TestRecord:
    def test_record_attaches_premeasured_span(self):
        tracer = Tracer()
        with tracer.span("merge"):
            tracer.record("merge.round", 0.25, pivot=3, removed=10)
        (merge,) = tracer.drain().roots
        (round_span,) = merge.children
        assert round_span.name == "merge.round"
        assert round_span.wall_s == 0.25
        assert round_span.attrs == {"pivot": 3, "removed": 10}

    def test_record_outside_any_span_becomes_root(self):
        tracer = Tracer()
        tracer.record("orphan", 0.01)
        assert [span.name for span in tracer.drain().roots] == ["orphan"]


class TestDrainAndActivate:
    def test_drain_resets_roots(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        first = tracer.drain()
        second = tracer.drain()
        assert [span.name for span in first.roots] == ["first"]
        assert second.roots == []

    def test_drain_keeps_open_spans(self):
        tracer = Tracer()
        open_span = tracer.span("long")
        open_span.__enter__()
        assert tracer.drain().roots == []
        open_span.__exit__(None, None, None)
        assert [span.name for span in tracer.drain().roots] == ["long"]

    def test_activate_installs_and_restores_ambient(self):
        tracer = Tracer()
        assert current_tracer() is NULL_TRACER
        with tracer.activate():
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_activations_nest(self):
        outer, inner = Tracer(), Tracer()
        with outer.activate():
            with inner.activate():
                assert current_tracer() is inner
            assert current_tracer() is outer


class TestNullTracer:
    def test_disabled_flag(self):
        assert NULL_TRACER.enabled is False
        assert Tracer().enabled is True

    def test_span_returns_shared_singleton(self):
        first = NULL_TRACER.span("merge", sigma=2)
        second = NULL_TRACER.span("scan")
        assert first is second

    def test_span_is_a_noop_context_manager(self):
        with NULL_TRACER.span("merge") as span:
            span.set(anything=1)
        with NULL_TRACER.activate():
            pass

    def test_record_and_drain_do_nothing(self):
        tracer = NullTracer()
        tracer.record("merge.round", 0.5)
        assert tracer.drain() is None

    def test_activate_returns_shared_noop(self):
        tracer = NullTracer()
        assert tracer.activate() is tracer.activate()
        with tracer.activate():
            assert current_tracer() is NULL_TRACER


class TestAggregatePhases:
    def make_trace(self):
        tracer = Tracer()
        counter = DominanceCounter()
        with tracer.span("execute", counter=counter):
            with tracer.span("merge", counter=counter):
                counter.add(10)
                tracer.record("merge.round", 0.1)
                tracer.record("merge.round", 0.2)
            with tracer.span("scan", counter=counter):
                counter.add(30)
        return tracer.drain()

    def test_sibling_spans_collapse_into_one_row(self):
        phases = aggregate_phases(self.make_trace())
        by_path = {phase.path: phase for phase in phases}
        rounds = by_path[("execute", "merge", "merge.round")]
        assert rounds.calls == 2
        assert abs(rounds.wall_s - 0.3) < 1e-12

    def test_first_visit_order_and_depth(self):
        phases = aggregate_phases(self.make_trace())
        assert [phase.path for phase in phases] == [
            ("execute",),
            ("execute", "merge"),
            ("execute", "merge", "merge.round"),
            ("execute", "scan"),
        ]
        assert [phase.depth for phase in phases] == [0, 1, 2, 1]
        assert phases[1].name == "merge"

    def test_dominance_tests_come_from_the_delta(self):
        phases = aggregate_phases(self.make_trace())
        by_name = {phase.name: phase for phase in phases}
        assert by_name["merge"].dominance_tests == 10.0
        assert by_name["scan"].dominance_tests == 30.0
        assert by_name["execute"].dominance_tests == 40.0

    def test_empty_trace(self):
        assert aggregate_phases(Trace(roots=[])) == []
