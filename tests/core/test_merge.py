"""Unit tests for Algorithm 1 (Merge)."""

import numpy as np
import pytest

from repro.core.merge import PIVOT_STRATEGIES, merge
from repro.data import generate
from repro.dataset import Dataset
from repro.dominance import dominates, dominating_subspace
from repro.errors import InvalidParameterError
from repro.stats.counters import DominanceCounter
from tests.conftest import brute_skyline_ids


class TestMergeInvariants:
    @pytest.fixture(scope="class")
    def merged(self, request):
        dataset = generate("UI", n=400, d=5, seed=3)
        return dataset, merge(dataset, sigma=3)

    def test_pivots_are_skyline_points(self, merged):
        dataset, result = merged
        skyline = set(brute_skyline_ids(dataset.values))
        assert set(result.pivot_ids) <= skyline

    def test_duplicate_skyline_points_equal_some_pivot(self, merged):
        dataset, result = merged
        for dup in result.duplicate_skyline_ids:
            assert any(
                np.array_equal(dataset.values[dup], dataset.values[p])
                for p in result.pivot_ids
            )

    def test_remaining_points_not_dominated_by_pivots(self, merged):
        dataset, result = merged
        for pivot in result.pivot_ids:
            for q in result.remaining_ids:
                assert not dominates(dataset.values[pivot], dataset.values[q])

    def test_pruned_points_are_dominated_by_a_pivot(self, merged):
        dataset, result = merged
        kept = set(result.initial_skyline_ids) | set(int(i) for i in result.remaining_ids)
        pruned = set(range(dataset.cardinality)) - kept
        for q in pruned:
            assert any(
                dominates(dataset.values[p], dataset.values[q])
                for p in result.pivot_ids
            )

    def test_masks_are_exact_unions(self, merged):
        dataset, result = merged
        for q, mask in zip(result.remaining_ids, result.masks):
            expected = 0
            for pivot in result.pivot_ids:
                expected |= dominating_subspace(
                    dataset.values[q], dataset.values[pivot]
                )
            assert int(mask) == expected

    def test_masks_nonzero(self, merged):
        _, result = merged
        assert (result.masks != 0).all()

    def test_iterations_equal_pivot_count(self, merged):
        _, result = merged
        assert result.iterations == len(result.pivot_ids)


class TestMergeBehaviour:
    def test_sigma_validation(self):
        dataset = generate("UI", n=50, d=4, seed=0)
        with pytest.raises(InvalidParameterError):
            merge(dataset, sigma=1)
        with pytest.raises(InvalidParameterError):
            merge(dataset, sigma=5)

    def test_unknown_pivot_strategy(self):
        dataset = generate("UI", n=50, d=4, seed=0)
        with pytest.raises(InvalidParameterError):
            merge(dataset, sigma=2, pivot_strategy="nope")

    def test_counter_charges_one_test_per_survivor_per_pivot(self):
        dataset = generate("UI", n=100, d=4, seed=1)
        counter = DominanceCounter()
        result = merge(dataset, sigma=2, counter=counter)
        # At least one test per point per iteration is an upper bound only;
        # the exact value is the sum of survivors at each iteration.
        assert 0 < counter.tests <= result.iterations * dataset.cardinality

    def test_exhaustion_on_tiny_chain(self):
        # A totally ordered dataset: one pivot prunes everything.
        values = np.array([[float(i), float(i)] for i in range(10)])
        result = merge(Dataset(values), sigma=2)
        assert result.exhausted
        assert result.pivot_ids == [0]
        assert result.remaining_ids.size == 0

    def test_duplicates_of_pivot_enter_skyline(self):
        values = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.5, 2.0]])
        result = merge(Dataset(values), sigma=2)
        assert 0 in result.pivot_ids
        assert 1 in result.duplicate_skyline_ids

    def test_negative_data_pivot_is_still_skyline(self):
        rng = np.random.default_rng(4)
        values = rng.normal(0, 2, size=(200, 4))
        result = merge(Dataset(values), sigma=2)
        skyline = set(brute_skyline_ids(values))
        assert set(result.pivot_ids) <= skyline

    @pytest.mark.parametrize("strategy", PIVOT_STRATEGIES)
    def test_all_pivot_strategies_yield_skyline_pivots(self, strategy):
        dataset = generate("AC", n=250, d=4, seed=5)
        result = merge(dataset, sigma=2, pivot_strategy=strategy)
        skyline = set(brute_skyline_ids(dataset.values))
        assert set(result.pivot_ids) <= skyline

    @pytest.mark.parametrize("strategy", PIVOT_STRATEGIES)
    def test_sub_ulp_tie_never_makes_a_dominated_pivot(self, strategy):
        # Row 1 dominates row 0 by 1e-17, which vanishes from every score
        # and from the coordinate sum: rows 0 and 1 tie on both.
        values = np.array(
            [[1e-17, 1.0, 1.0], [0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [2.0, 2.0, 0.0]]
        )
        result = merge(Dataset(values), sigma=2, pivot_strategy=strategy)
        assert result.pivot_ids[0] == 1
        assert set(result.initial_skyline_ids) <= set(brute_skyline_ids(values))

    def test_higher_sigma_never_fewer_pivots(self):
        dataset = generate("UI", n=400, d=6, seed=6)
        pivots = [
            len(merge(dataset, sigma=s).pivot_ids) for s in (2, 4, 6)
        ]
        assert pivots == sorted(pivots)

    def test_metadata_records_parameters(self):
        dataset = generate("UI", n=60, d=3, seed=7)
        result = merge(dataset, sigma=2, pivot_strategy="sum")
        assert result.metadata["sigma"] == 2
        assert result.metadata["pivot_strategy"] == "sum"
