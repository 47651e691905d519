"""The lifecycle event log: the ambient tracer's spans, exported as JSONL.

Query, plan, delta, cache and pool facts are spans or zero-width records of
whichever tracer is ambient; ``repro run --events`` writes that tracer's
drained trace through :func:`repro.obs.export.to_jsonl`.  These tests pin
which log an event lands in and that the null default logs nothing.
"""

import json

from repro.engine import PreparedDataset
from repro.obs.export import to_jsonl
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer, current_tracer


def event_names(log: Tracer) -> list[str]:
    return [json.loads(line)["name"] for line in to_jsonl(log.drain()).splitlines()]


class TestAmbient:
    def test_default_is_null_log(self):
        assert current_tracer() is NULL_TRACER
        current_tracer().record("cache.invalidate", 0.0, dataset="d")
        assert current_tracer().drain() is None

    def test_activation_installs_and_restores(self):
        log = Tracer()
        with log.activate():
            current_tracer().record("plan", 0.0, label="SFS")
        current_tracer().record("plan", 0.0, label="unlogged")
        assert current_tracer() is NULL_TRACER
        assert event_names(log) == ["plan"]

    def test_nested_activation_restores_outer(self):
        outer, inner = Tracer(), Tracer()
        with outer.activate():
            with inner.activate():
                current_tracer().record("merge.cached", 0.0)
            current_tracer().record("delta.apply", 0.0)
        assert event_names(inner) == ["merge.cached"]
        assert event_names(outer) == ["delta.apply"]


class TestNullEventLog:
    def test_emit_is_noop(self):
        log = NullTracer()
        assert log.record("anything", 0.0, x=1) is None
        with log.span("query", x=1) as span:
            assert span.set(y=2) is None
        assert log.drain() is None

    def test_disabled_flag_gates_call_sites(self, ui_small):
        assert NullTracer().enabled is False
        assert Tracer().enabled is True
        prepared = PreparedDataset(ui_small)
        with NULL_TRACER.activate():
            prepared.invalidate()
        log = Tracer()
        with log.activate():
            prepared.invalidate()
        assert event_names(log) == ["cache.invalidate"]
