"""Unit tests for the algorithm base plumbing."""

import numpy as np
import pytest

from repro.algorithms.base import SkylineAlgorithm, run_timed
from repro.dataset import Dataset
from repro.dominance import scan_order
from repro.errors import ReproError
from repro.stats.counters import DominanceCounter


class _FakeDuplicating(SkylineAlgorithm):
    name = "fake-dup"

    def _run(self, dataset, counter):
        return [0, 0, 1]


class _FakeConstant(SkylineAlgorithm):
    name = "fake-const"

    def _run(self, dataset, counter):
        counter.add(7)
        return [2, 0]


class TestRunTimed:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(AssertionError):
            _FakeDuplicating().compute(np.ones((3, 2)))

    def test_result_is_sorted_and_counted(self):
        result = _FakeConstant().compute(np.ones((3, 2)))
        assert list(result.indices) == [0, 2]
        assert result.indices.dtype == np.intp
        assert result.dominance_tests == 7
        assert result.cardinality == 3
        assert result.algorithm == "fake-const"

    def test_external_counter_accumulates(self):
        counter = DominanceCounter(tests=5)
        result = _FakeConstant().compute(np.ones((2, 2)), counter=counter)
        assert result.dominance_tests == 12

    def test_invalid_input_propagates_library_errors(self):
        with pytest.raises(ReproError):
            _FakeConstant().compute(np.full((2, 2), np.nan))

    def test_repr_mentions_name(self):
        assert "fake-const" in repr(_FakeConstant())


class TestMonotoneOrder:
    """A host's scan order: ``ids[scan_order(values[ids], keys[ids])]``."""

    def test_primary_key_ascending(self):
        keys = np.array([3.0, 1.0, 2.0])
        values = np.zeros((3, 2))
        assert list(scan_order(values, keys)) == [1, 2, 0]

    def test_tiebreak_applied_on_equal_keys(self):
        keys = np.array([1.0, 1.0, 1.0])
        values = np.array([[2.0, 0.0], [0.0, 0.0], [0.5, 0.5]])  # sums 2, 0, 1
        assert list(scan_order(values, keys)) == [1, 2, 0]

    def test_subset_of_ids(self):
        keys = np.array([5.0, 4.0, 3.0, 2.0])
        values = np.zeros((4, 2))
        ids = np.array([0, 2], dtype=np.intp)
        assert list(ids[scan_order(values[ids], keys[ids])]) == [2, 0]


class TestSkylineResult:
    def test_mean_dt_property(self):
        result = _FakeConstant().compute(np.ones((7, 2)))
        assert result.mean_dominance_tests == pytest.approx(1.0)

    def test_size(self):
        ds = Dataset(np.ones((4, 2)))
        assert _FakeConstant().compute(ds).size == 2
