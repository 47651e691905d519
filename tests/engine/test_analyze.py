"""EXPLAIN ANALYZE: estimate-vs-actual rows, ratios, accuracy metrics."""

import numpy as np
import pytest

from repro.data import generate
from repro.engine import SkylineEngine
from repro.engine.analyze import AnalyzedRow, analyze
from repro.engine.context import ExecutionContext
from repro.errors import InvalidParameterError
from repro.obs import Tracer
from repro.obs.metrics import MetricsRegistry


@pytest.fixture(scope="module")
def dataset():
    return generate("UI", n=900, d=4, seed=5)


@pytest.fixture(scope="module")
def adaptive_result(dataset):
    engine = SkylineEngine(ExecutionContext(tracer=Tracer()))
    return engine.execute(dataset)


@pytest.fixture(scope="module")
def repair_result(dataset):
    engine = SkylineEngine(ExecutionContext(tracer=Tracer()))
    engine.execute(dataset, workers=1)
    rng = np.random.default_rng(5)
    engine.apply_delta(dataset, inserts=rng.random((5, 4)))
    result = engine.execute(dataset, workers=1)
    assert result.plan.incremental
    return result


class TestAnalyzedRow:
    def test_ratio_is_actual_over_estimated(self):
        assert AnalyzedRow("m", estimated=100.0, actual=150.0).ratio == 1.5

    def test_ratio_none_when_either_side_missing_or_zero(self):
        assert AnalyzedRow("m", estimated=None, actual=1.0).ratio is None
        assert AnalyzedRow("m", estimated=1.0, actual=None).ratio is None
        assert AnalyzedRow("m", estimated=0.0, actual=1.0).ratio is None


class TestAdaptiveAnalysis:
    def test_skyline_size_row_uses_estimator_prediction(self, adaptive_result):
        analysis = analyze(adaptive_result)
        row = next(r for r in analysis.rows if r.metric == "skyline_size")
        signals = dict(adaptive_result.plan.signals)
        assert row.estimated == pytest.approx(signals["expected_skyline"])
        assert row.actual == float(adaptive_result.size)
        assert row.ratio is not None and row.ratio > 0

    def test_dominance_tests_row_uses_nd_scan_model(self, adaptive_result):
        analysis = analyze(adaptive_result)
        row = next(r for r in analysis.rows if r.metric == "dominance_tests")
        signals = dict(adaptive_result.plan.signals)
        assert row.estimated == pytest.approx(signals["n"] * signals["d"])
        assert row.actual == float(adaptive_result.dominance_tests)

    def test_wall_time_is_actual_only(self, adaptive_result):
        analysis = analyze(adaptive_result)
        row = next(r for r in analysis.rows if r.metric == "wall_time")
        assert row.estimated is None
        assert row.actual == adaptive_result.elapsed_seconds
        assert row.ratio is None

    def test_phases_present_when_traced(self, adaptive_result):
        analysis = analyze(adaptive_result)
        names = {phase.name for phase in analysis.phases}
        assert {"prepare", "plan", "execute"} <= names

    def test_render_contains_rows_and_cost_model_inputs(self, adaptive_result):
        text = analyze(adaptive_result).render()
        assert text.startswith("EXPLAIN ANALYZE:")
        assert "[adaptive]" in text
        assert "skyline_size" in text and "dominance_tests" in text
        assert "cost-model inputs:" in text
        assert "small_n_threshold=600" in text
        assert "phases (actual):" in text

    def test_accuracy_metrics_are_ratios(self, adaptive_result):
        metrics = analyze(adaptive_result).accuracy_metrics()
        assert set(metrics) == {
            "planner.skyline_size_ratio",
            "planner.dominance_tests_ratio",
        }
        assert all(value > 0 for value in metrics.values())

    def test_registry_record_analysis(self, adaptive_result):
        registry = MetricsRegistry()
        registry.record_analysis(analyze(adaptive_result))
        assert "planner.skyline_size_ratio" in registry.as_dict()


class TestIncrementalAnalysis:
    def test_repair_cost_row_compares_estimate_to_traced_delta(self, repair_result):
        analysis = analyze(repair_result)
        row = next(r for r in analysis.rows if r.metric == "repair_cost")
        assert row.estimated == repair_result.plan.repair_cost
        assert row.actual is not None and row.actual >= 0
        repair_phase = next(
            p for p in analysis.phases if p.name == "engine.repair"
        )
        assert row.actual == repair_phase.dominance_tests

    def test_dominance_tests_estimate_is_repair_cost(self, repair_result):
        analysis = analyze(repair_result)
        row = next(r for r in analysis.rows if r.metric == "dominance_tests")
        assert row.estimated == repair_result.plan.repair_cost


class TestPinnedAnalysis:
    def test_pinned_plans_are_actual_only(self, dataset):
        engine = SkylineEngine()
        result = engine.execute(dataset, "sfs-subset")
        analysis = analyze(result)
        assert result.plan.estimates == ()  # pinned purity contract
        assert all(row.estimated is None for row in analysis.rows)
        assert "[pinned]" in analysis.render()
        assert analysis.accuracy_metrics() == {}

    def test_untraced_result_has_no_phases(self, dataset):
        result = SkylineEngine().execute(dataset, "sfs-subset")
        analysis = analyze(result)
        assert analysis.phases == ()
        assert "phases (actual):" not in analysis.render()


class TestPlanAnalyzeEntrypoint:
    def test_plan_analyze_matches_module_function(self, adaptive_result):
        via_plan = adaptive_result.plan.analyze(adaptive_result)
        via_module = analyze(adaptive_result)
        assert via_plan.rows == via_module.rows

    def test_plan_less_result_rejected(self, dataset):
        from dataclasses import replace

        result = SkylineEngine().execute(dataset, "sfs-subset")
        plan_less = replace(result, plan=None)
        with pytest.raises(InvalidParameterError, match="no plan"):
            analyze(plan_less)

    def test_mismatched_plan_rejected(self, dataset, adaptive_result):
        other = SkylineEngine().execute(dataset, "salsa-subset")
        with pytest.raises(InvalidParameterError, match="different plan"):
            other.plan.analyze(adaptive_result)
