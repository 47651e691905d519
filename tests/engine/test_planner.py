"""Planner: determinism, pinned parity, adaptive regime selection."""

import numpy as np
import pytest

from repro.core.stability import default_threshold
from repro.data import generate
from repro.engine import Plan, Planner, PreparedDataset
from repro.errors import InvalidParameterError, UnknownAlgorithmError


def plan_for(dataset, algorithm=None, sigma=None, **options):
    """A plan from a fresh planner over a freshly prepared dataset."""
    return Planner().plan(PreparedDataset(dataset), algorithm, sigma, **options)


class TestPinned:
    def test_boosted_name_resolves_host_and_sigma(self, ui_medium):
        plan = plan_for(ui_medium, "sdi-subset")
        assert plan.algorithm == "sdi"
        assert plan.boosted
        assert plan.sigma == default_threshold(ui_medium.dimensionality)
        assert not plan.adaptive
        assert plan.label == "sdi-subset"

    def test_plain_name_carries_no_sigma(self, ui_medium):
        plan = plan_for(ui_medium, "sfs")
        assert plan.algorithm == "sfs"
        assert not plan.boosted
        assert plan.sigma is None
        assert plan.label == "sfs"

    def test_explicit_sigma_honoured(self, ui_medium):
        assert plan_for(ui_medium, "sfs-subset", sigma=3).sigma == 3

    def test_unknown_algorithm_rejected(self, ui_medium):
        with pytest.raises(UnknownAlgorithmError):
            plan_for(ui_medium, "nope")

    def test_sigma_on_plain_algorithm_rejected(self, ui_medium):
        with pytest.raises(InvalidParameterError):
            plan_for(ui_medium, "sfs", sigma=2)

    def test_invalid_container_and_workers_rejected(self, ui_medium):
        with pytest.raises(InvalidParameterError):
            plan_for(ui_medium, "sfs", container="hashmap")
        with pytest.raises(InvalidParameterError):
            plan_for(ui_medium, "sfs", workers=0)

    def test_invalid_index_backend_rejected(self, ui_medium):
        # There is one subset index; the planner takes no backend option.
        with pytest.raises(TypeError):
            plan_for(ui_medium, "sfs-subset", index_backend="map")

    def test_pinned_defaults_stay_direct_call_compatible(self, ui_medium):
        plan = plan_for(ui_medium, "sfs-subset")
        assert plan.index_backend == "map"
        assert plan.workers == 1

    def test_pinned_backend_and_workers_honoured(self, ui_medium):
        plan = plan_for(ui_medium, "sfs-subset", workers=3)
        assert plan.index_backend == "map"
        assert plan.workers == 3


class TestDeterminism:
    def test_adaptive_plans_identical_across_instances(self, ui_medium):
        assert plan_for(ui_medium) == plan_for(ui_medium)

    def test_pinned_plans_identical_across_instances(self, ui_medium):
        assert plan_for(ui_medium, "sfs-subset") == plan_for(ui_medium, "sfs-subset")

    def test_plans_are_comparable_values(self, ui_medium):
        plan = plan_for(ui_medium, "sfs")
        assert plan == Plan(
            algorithm="sfs",
            reasons=("algorithm pinned by caller: sfs",),
        )


class TestAdaptiveRegimes:
    def test_correlated_data_selects_plain_salsa(self):
        rng = np.random.default_rng(5)
        base = rng.random(2000)
        values = np.column_stack([base, 2.0 * base + 1.0, base + 0.5])
        plan = plan_for(values)
        assert (plan.algorithm, plan.boosted) == ("salsa", False)

    def test_small_input_selects_plain_sfs(self):
        plan = plan_for(generate("UI", n=200, d=3, seed=3))
        assert (plan.algorithm, plan.boosted) == ("sfs", False)

    def test_high_dimensional_data_selects_boosted_sdi(self):
        plan = plan_for(generate("UI", n=2000, d=6, seed=4))
        assert (plan.algorithm, plan.boosted) == ("sdi", True)
        assert plan.sigma == default_threshold(6)

    def test_anti_correlated_data_selects_boosted_sdi(self):
        rng = np.random.default_rng(6)
        base = rng.random(2000)
        values = np.column_stack([base, 1.0 - base, rng.random(2000)])
        plan = plan_for(values)
        assert (plan.algorithm, plan.boosted) == ("sdi", True)

    def test_moderate_regime_selects_boosted_sfs(self):
        plan = plan_for(generate("UI", n=2000, d=3, seed=7))
        assert (plan.algorithm, plan.boosted) == ("sfs", True)

    def test_one_dimension_disables_the_boost(self):
        plan = plan_for(np.random.default_rng(8).random((50, 1)))
        assert (plan.algorithm, plan.boosted) == ("sfs", False)

    def test_signals_and_reasons_populated(self, ui_medium):
        plan = plan_for(ui_medium)
        assert plan.adaptive
        assert dict(plan.signals)["n"] == float(ui_medium.cardinality)
        assert plan.reasons

    def test_autotuned_sigma_is_deterministic(self, ui_medium):
        first = Planner(autotune=True, seed=9).plan(PreparedDataset(ui_medium))
        second = Planner(autotune=True, seed=9).plan(PreparedDataset(ui_medium))
        assert first == second
        if first.boosted:
            assert 2 <= first.sigma <= ui_medium.dimensionality


class TestAdaptiveBackendAndWorkers:
    def test_small_low_d_keeps_map_index(self):
        plan = plan_for(generate("UI", n=2000, d=3, seed=7))
        assert plan.boosted
        assert plan.index_backend == "map"

    def test_unboosted_plans_keep_inert_map_field(self):
        plan = plan_for(generate("UI", n=200, d=3, seed=3))
        assert not plan.boosted
        assert plan.index_backend == "map"

    def test_large_n_turns_on_block_parallel(self, monkeypatch):
        import repro.extensions.parallel as parallel

        monkeypatch.setattr(parallel, "default_workers", lambda: 4)
        plan = plan_for(generate("UI", n=2000, d=6, seed=4))
        assert plan.workers == 1  # below the threshold: sequential
        stats = plan_for(generate("UI", n=2000, d=6, seed=4))
        assert stats.workers == 1
        big = PreparedDataset(generate("UI", n=2000, d=6, seed=4))
        # Force the thresholds without generating 200k rows: the adaptive
        # choice is bounded both by the CPU count and the minimum rows a
        # block must keep (n // _MIN_BLOCK_ROWS).
        from repro.engine import planner as planner_module

        monkeypatch.setattr(planner_module, "_PARALLEL_N", 1000)
        monkeypatch.setattr(planner_module, "_MIN_BLOCK_ROWS", 500)
        plan = Planner().plan(big)
        assert plan.workers == 4
        assert plan.parallel_strategy == "prefix"
        assert plan.prefix_size > 0
        assert any("block-parallel" in reason for reason in plan.reasons)

    def test_explicit_workers_suppress_adaptive_choice(self, monkeypatch):
        from repro.engine import planner as planner_module

        monkeypatch.setattr(planner_module, "_PARALLEL_N", 1000)
        plan = plan_for(generate("UI", n=2000, d=6, seed=4), workers=1)
        assert plan.workers == 1


class TestPlanRendering:
    def test_explain_shows_mode_and_boost(self, ui_medium):
        text = plan_for(ui_medium, "sdi-subset").explain()
        assert "Plan: sdi-subset" in text
        assert "[pinned]" in text
        assert "merge(σ=" in text

    def test_explain_shows_signals_for_adaptive_plans(self, ui_medium):
        text = plan_for(ui_medium).explain()
        assert "[adaptive]" in text
        assert "signals:" in text

    def test_sort_cache_key_separates_configurations(self, ui_medium):
        boosted = plan_for(ui_medium, "sfs-subset")
        plain = plan_for(ui_medium, "sfs")
        other_sigma = plan_for(ui_medium, "sfs-subset", sigma=3)
        keys = {boosted.sort_cache_key, plain.sort_cache_key, other_sigma.sort_cache_key}
        assert len(keys) == 3

    def test_sort_cache_key_ignores_container_and_memoize(self, ui_medium):
        subset = plan_for(ui_medium, "sfs-subset", container="subset")
        listy = plan_for(ui_medium, "sfs-subset", container="list", memoize=False)
        assert subset.sort_cache_key == listy.sort_cache_key
