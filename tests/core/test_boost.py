"""Unit tests for SubsetBoost: the merge + subset-index wrapper."""

import numpy as np
import pytest

import repro
from repro.algorithms.bnl import BNL
from repro.algorithms.salsa import SaLSa
from repro.algorithms.sdi import SDI
from repro.algorithms.sfs import SFS
from repro.core.boost import SubsetBoost
from repro.core.merge import merge
from repro.core.stability import default_threshold
from repro.data import generate
from repro.dataset import Dataset
from repro.stats.counters import DominanceCounter
from tests.conftest import brute_skyline_ids, pointwise_boost


class TestConstruction:
    def test_name_suffix(self):
        assert SubsetBoost(SFS()).name == "sfs-subset"
        assert SubsetBoost(SDI()).name == "sdi-subset"

    def test_rejects_non_boostable_host(self):
        with pytest.raises(TypeError):
            SubsetBoost(BNL())

    def test_rejects_unknown_container(self):
        with pytest.raises(ValueError):
            SubsetBoost(SFS(), container="tree")


class TestCorrectness:
    @pytest.mark.parametrize("host_cls", [SFS, SaLSa, SDI])
    @pytest.mark.parametrize("kind", ["AC", "CO", "UI"])
    def test_boosted_equals_oracle(self, host_cls, kind):
        dataset = generate(kind, n=250, d=5, seed=17)
        result = SubsetBoost(host_cls()).compute(dataset)
        assert list(result.indices) == brute_skyline_ids(dataset.values)

    @pytest.mark.parametrize("sigma", [2, 3, 4])
    def test_every_sigma_is_correct(self, sigma, ui_small):
        result = SubsetBoost(SFS(), sigma=sigma).compute(ui_small)
        assert list(result.indices) == brute_skyline_ids(ui_small.values)

    def test_sigma_out_of_range_rejected(self, ui_small):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            SubsetBoost(SFS(), sigma=99).compute(ui_small)

    def test_d1_falls_back_to_plain_host(self):
        values = np.array([[3.0], [1.0], [2.0], [1.0]])
        result = SubsetBoost(SFS()).compute(Dataset(values))
        assert list(result.indices) == [1, 3]

    def test_exhausted_merge_short_circuits(self):
        # Totally ordered data: merge prunes everything with one pivot.
        values = np.array([[float(i)] * 3 for i in range(30)])
        counter = DominanceCounter()
        result = SubsetBoost(SFS(), sigma=2).compute(Dataset(values), counter=counter)
        assert list(result.indices) == [0]

    def test_duplicates_preserved(self, duplicate_heavy):
        result = SubsetBoost(SDI()).compute(duplicate_heavy)
        assert list(result.indices) == brute_skyline_ids(duplicate_heavy.values)

    def test_list_container_ablation_same_skyline(self, ui_small):
        subset = SubsetBoost(SDI(), container="subset").compute(ui_small)
        plain = SubsetBoost(SDI(), container="list").compute(ui_small)
        assert np.array_equal(subset.indices, plain.indices)

    def test_subset_container_never_needs_more_tests(self, ui_medium):
        c_subset = DominanceCounter()
        c_list = DominanceCounter()
        SubsetBoost(SFS(), sigma=3, container="subset").compute(
            ui_medium, counter=c_subset
        )
        SubsetBoost(SFS(), sigma=3, container="list").compute(ui_medium, counter=c_list)
        assert c_subset.tests <= c_list.tests

    @pytest.mark.parametrize("strategy", ["euclidean", "sum", "maxmin"])
    def test_pivot_strategies_all_correct(self, strategy, ui_small):
        result = SubsetBoost(SDI(), pivot_strategy=strategy).compute(ui_small)
        assert list(result.indices) == brute_skyline_ids(ui_small.values)


class TestEffectiveness:
    def test_boost_reduces_tests_on_ui(self, ui_medium):
        plain = DominanceCounter()
        boosted = DominanceCounter()
        SFS().compute(ui_medium, counter=plain)
        SubsetBoost(SFS()).compute(ui_medium, counter=boosted)
        assert boosted.tests < plain.tests

    def test_index_queries_recorded(self, ui_small):
        counter = DominanceCounter()
        SubsetBoost(SFS()).compute(ui_small, counter=counter)
        merged = merge(ui_small, default_threshold(ui_small.dimensionality))
        # The grouped scan walks the index once per distinct subspace of
        # its testing points; each walk visits at least the root.
        assert counter.index_queries == np.unique(merged.masks).size > 0
        assert counter.index_cache_hits == counter.index_cache_misses == 0
        assert counter.index_nodes_visited >= counter.index_queries

    def test_unmemoized_queries_visit_nodes(self, ui_small):
        counter = DominanceCounter()
        with pointwise_boost():  # the per-point loop queries the index
            SubsetBoost(SFS()).compute(ui_small, counter=counter)
        merged = merge(ui_small, default_threshold(ui_small.dimensionality))
        assert counter.index_queries == merged.remaining_ids.size > 0
        assert counter.index_cache_hits == counter.index_cache_misses == 0
        assert counter.index_nodes_visited >= counter.index_queries
