"""PreparedDataset: cache accounting, views, eviction and invalidation."""

import numpy as np
import pytest

from repro.core.merge import merge
from repro.engine import PreparedDataset
from repro.errors import InvalidParameterError
from repro.stats.counters import DominanceCounter


@pytest.fixture
def prepared(ui_small):
    return PreparedDataset(ui_small)


class TestStatistics:
    def test_computed_once_and_counted(self, prepared):
        counter = DominanceCounter()
        first = prepared.statistics(counter)
        assert counter.prepared_cache_misses == 1
        assert counter.prepared_cache_hits == 0
        second = prepared.statistics(counter)
        assert second is first
        assert counter.prepared_cache_hits == 1

    def test_matches_dataset_shape(self, prepared, ui_small):
        stats = prepared.statistics()
        assert stats.cardinality == ui_small.cardinality
        assert stats.dimensionality == ui_small.dimensionality
        assert 0.0 < stats.expected_skyline <= ui_small.cardinality
        assert 0.0 < stats.skyline_fraction <= 1.0
        assert -1.0 <= stats.correlation <= 1.0


class TestMerged:
    def test_cold_call_matches_direct_merge(self, prepared, ui_small):
        direct_counter = DominanceCounter()
        direct = merge(ui_small, 2, direct_counter)
        cold_counter = DominanceCounter()
        cached = prepared.merged(2, counter=cold_counter)
        assert np.array_equal(cached.remaining_ids, direct.remaining_ids)
        assert np.array_equal(cached.masks, direct.masks)
        assert list(cached.pivot_ids) == list(direct.pivot_ids)
        assert cold_counter.tests == direct_counter.tests

    def test_warm_call_charges_no_tests(self, prepared):
        cold = DominanceCounter()
        first = prepared.merged(2, counter=cold)
        warm = DominanceCounter()
        second = prepared.merged(2, counter=warm)
        assert second is first
        assert warm.tests == 0
        assert warm.prepared_cache_hits == 1

    def test_keyed_by_sigma_and_pivot_strategy(self, prepared):
        counter = DominanceCounter()
        prepared.merged(2, counter=counter)
        prepared.merged(3, counter=counter)
        prepared.merged(2, "sum", counter=counter)
        assert counter.prepared_cache_misses == 3
        assert prepared.cache_info()["merge"] == 3

    def test_invalid_sigma_rejected(self, prepared):
        with pytest.raises(InvalidParameterError):
            prepared.merged(99)


class TestSortCache:
    def test_same_key_same_mapping(self, prepared):
        cache = prepared.sort_cache("sfs()|plain")
        cache["order"] = [1, 2, 3]
        assert prepared.sort_cache("sfs()|plain") is cache

    def test_distinct_keys_distinct_mappings(self, prepared):
        assert prepared.sort_cache("a") is not prepared.sort_cache("b")

    def test_fifo_eviction_bounds_entries(self, prepared):
        for i in range(40):
            prepared.sort_cache(f"key-{i}")
        assert prepared.cache_info()["sort"] == 32


class TestView:
    def test_projects_and_flips(self):
        values = np.array([[1.0, 10.0, 5.0], [2.0, 20.0, 7.0], [3.0, 30.0, 6.0]])
        prepared = PreparedDataset(values)
        view = prepared.view([0, 2], maximize=[2])
        assert view.dimensionality == 2
        expected = np.column_stack([values[:, 0], -values[:, 2]])
        assert np.array_equal(view.values, expected)

    def test_cached_per_dims_and_directions(self, prepared):
        counter = DominanceCounter()
        first = prepared.view([0, 1], counter=counter)
        assert prepared.view([0, 1], counter=counter) is first
        assert counter.prepared_cache_hits == 1
        flipped = prepared.view([0, 1], maximize=[1], counter=counter)
        assert flipped is not first
        assert counter.prepared_cache_misses == 2

    def test_view_is_itself_prepared(self, prepared):
        view = prepared.view([0, 1])
        assert isinstance(view, PreparedDataset)
        view.merged(2)
        assert view.cache_info()["merge"] == 1

    def test_maximize_must_be_subset_of_dims(self, prepared):
        with pytest.raises(ValueError):
            prepared.view([0, 1], maximize=[3])


class TestLifecycle:
    def test_column_major_is_readonly_fortran(self, prepared, ui_small):
        column_major = prepared.column_major
        assert column_major.flags.f_contiguous
        assert not column_major.flags.writeable
        assert np.array_equal(column_major, ui_small.values)
        assert prepared.column_major is column_major

    def test_invalidate_drops_caches_and_bumps_version(self, prepared):
        prepared.statistics()
        prepared.merged(2)
        prepared.sort_cache("x")["order"] = [0]
        view = prepared.view([0, 1])
        view.merged(2)
        prepared.artefact("blob", lambda: 42)
        prepared.invalidate()
        info = prepared.cache_info()
        assert info == {
            "merge": 0,
            "sort": 0,
            "views": 0,
            "artefacts": 0,
            "statistics": 0,
            "version": 1,
        }
        # Cached views derive from the same values: invalidated recursively.
        assert view.cache_info()["merge"] == 0
        assert view.version == 1

    def test_artefact_computed_once(self, prepared):
        calls = []
        counter = DominanceCounter()

        def compute():
            calls.append(1)
            return "payload"

        assert prepared.artefact("k", compute, counter) == "payload"
        assert prepared.artefact("k", compute, counter) == "payload"
        assert len(calls) == 1
        assert counter.prepared_cache_hits == 1
        assert counter.prepared_cache_misses == 1
