"""The flat-layout contract on SubsetContainer's gathered candidates.

Candidate ids plus ``values[ids]`` from one call is the flat layout's
surviving feature; these tests hold ``SubsetContainer.candidates`` over
the map index to the same put/query contract, and bridge the per-point
boosted scans (:func:`~tests.conftest.pointwise_boost`) to the grouped
scan.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.boost import run_boosted_scan
from repro.core.container import SubsetContainer
from repro.core.subset_index import SkylineIndex
from repro.data import generate
from repro.errors import DimensionMismatchError, InvalidParameterError
from repro.algorithms.salsa import SaLSa
from repro.algorithms.sdi import SDI
from repro.algorithms.sfs import SFS
from repro.stats.counters import DominanceCounter
from repro.structures import bitset
from tests.conftest import brute_skyline_ids, pointwise_boost


def brute_query(stored: list[tuple[int, int]], subspace: int) -> list[int]:
    """Reference: ids whose mask ⊇ ``subspace``, in insertion order."""
    return [pid for pid, mask in stored if subspace & ~mask == 0]


def fused_index(
    d: int, n: int = 64, counter: DominanceCounter | None = None
) -> tuple[SubsetContainer, np.ndarray]:
    values = np.arange(float(n * d)).reshape(n, d)
    return SubsetContainer(values, d, counter), values


def fused_ids(idx: SubsetContainer, subspace: int, values: np.ndarray) -> list[int]:
    """``candidates()`` ids, after checking its rows are ``values[ids]``."""
    ids, rows = idx.candidates(subspace)
    assert np.array_equal(rows, values[ids])
    return ids.tolist()


class TestPutQuery:
    def test_paper_example(self):
        """Figure 3's subspace family answered by the gathered candidates."""
        d = 8
        figure_reversed = [
            {1, 2},
            {1, 3, 5, 7},
            {1, 5},
            {1, 7},
            {3, 5},
            {3, 7},
            {5, 7},
        ]
        idx, values = fused_index(d)
        for pid, reversed_dims in enumerate(figure_reversed):
            idx.add(pid, bitset.complement(bitset.from_dims(reversed_dims), d))
        query_mask = bitset.complement(bitset.from_dims({1, 3, 5}), d)
        assert set(fused_ids(idx, query_mask, values)) == {2, 4}
        assert set(idx.query_ids(query_mask)) == {2, 4}
        assert set(idx.walk(query_mask).tolist()) == {2, 4}

    def test_empty_index_queries_clean(self):
        counter = DominanceCounter()
        idx, values = fused_index(3, counter=counter)
        assert idx.query_ids(0b101).tolist() == []
        ids, rows = idx.candidates(0b101)
        assert ids.tolist() == []
        assert rows.shape == (0, 3)
        assert idx.walk(0b101).tolist() == []
        assert len(idx) == 0
        assert idx.index.node_count() == 1  # the root alone
        assert counter.tests == 0

    def test_single_mask_group(self):
        idx, values = fused_index(3)
        idx.add_many(list(range(5)), 0b110)
        assert fused_ids(idx, 0b010, values) == list(range(5))
        assert fused_ids(idx, 0b001, values) == []
        assert idx.index.subspaces() == {0b110: list(range(5))}

    def test_duplicate_masks_keep_all_points(self):
        idx, values = fused_index(4)
        stored = [(pid, 0b0110 if pid % 2 else 0b1111) for pid in range(12)]
        for pid, mask in stored:
            idx.add(pid, mask)
        for q in (0b0110, 0b0010, 0b1111, 0b0001):
            assert fused_ids(idx, q, values) == brute_query(stored, q)
            assert idx.query_ids(q).tolist() == brute_query(stored, q)
        assert len(idx.index.subspaces()) == 2

    def test_invalid_dimensionality_rejected(self):
        with pytest.raises(InvalidParameterError):
            SubsetContainer(np.zeros((1, 1)), d=0)

    def test_out_of_range_mask_rejected(self):
        idx, _ = fused_index(3)
        with pytest.raises(DimensionMismatchError):
            idx.add(0, 0b1000)
        with pytest.raises(DimensionMismatchError):
            idx.query_ids(0b1000)
        with pytest.raises(DimensionMismatchError):
            idx.candidates(0b1000)
        with pytest.raises(DimensionMismatchError):
            idx.walk(0b1000)


class TestCompaction:
    """Shrinking changes and the diagnostic views of a container's index."""

    def test_remove_and_clear(self):
        idx, values = fused_index(3)
        idx.add(1, 0b011)
        idx.add(2, 0b011)
        assert fused_ids(idx, 0b001, values) == [1, 2]
        idx.remove(1, 0b011)
        assert fused_ids(idx, 0b001, values) == [2]
        with pytest.raises(KeyError):
            idx.remove(1, 0b011)
        with pytest.raises(KeyError):
            idx.remove(2, 0b111)
        idx.clear()
        assert len(idx) == 0
        assert fused_ids(idx, 0b001, values) == []

    def test_subspaces_and_occupancy_views(self):
        idx, _ = fused_index(3)
        idx.add_many([0, 1], 0b011)
        idx.add(2, 0b111)
        assert idx.index.subspaces() == {0b011: [0, 1], 0b111: [2]}
        occ = idx.index.occupancy()
        assert occ["nodes"] == 2.0 and occ["max"] == 2.0


@st.composite
def put_query_sequences(draw):
    d = draw(st.integers(min_value=2, max_value=8))
    full = (1 << d) - 1
    puts = draw(
        st.lists(st.integers(min_value=0, max_value=full), min_size=0, max_size=60)
    )
    queries = draw(
        st.lists(st.integers(min_value=0, max_value=full), min_size=1, max_size=20)
    )
    return d, puts, queries


class TestFlatVsMapBridge:
    """The gathered candidates against the id-only index and the tree walk."""

    @given(put_query_sequences())
    @settings(max_examples=60, deadline=None)
    def test_interleaved_puts_and_queries_match(self, seq):
        """Same put/query stream → same ids and same index accounting."""
        d, puts, queries = seq
        values = np.random.default_rng(0).random((max(len(puts), 1), d))
        fused_counter, tree_counter = DominanceCounter(), DominanceCounter()
        fused, tree = SubsetContainer(values, d, fused_counter), SkylineIndex(d)
        for pid, mask in enumerate(puts):
            fused.add(pid, mask)
            tree.put(pid, mask)
        for mask in queries:
            ids, rows = fused.candidates(mask)
            assert ids.tolist() == tree.query(mask, tree_counter).tolist()
            assert np.array_equal(rows, values[ids])
        assert fused_counter.index_queries == tree_counter.index_queries == len(queries)
        assert fused_counter.index_nodes_visited == tree_counter.index_nodes_visited

    @pytest.mark.parametrize("host_factory", [SFS, SaLSa, SDI])
    @pytest.mark.parametrize("kind", ["UI", "CO", "AC"])
    def test_boosted_scan_bit_identical(self, host_factory, kind):
        """The per-point scan and the grouped scan return the same ids
        and charge identical tests."""
        dataset = generate(kind, n=600, d=5, seed=11)
        walk_counter = DominanceCounter()
        with pointwise_boost():
            walk_sky = run_boosted_scan(dataset, host_factory(), walk_counter)
        assert sorted(walk_sky) == brute_skyline_ids(dataset.values)
        grouped_counter = DominanceCounter()
        assert run_boosted_scan(dataset, host_factory(), grouped_counter) == walk_sky
        assert grouped_counter.tests == walk_counter.tests
        assert grouped_counter.index_queries <= walk_counter.index_queries

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=2, max_value=6),
        st.sampled_from(["UI", "CO", "AC"]),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_datasets_and_sigmas_match(self, seed, sigma_d, kind):
        d = 6
        sigma = min(sigma_d, d)
        dataset = generate(kind, n=200, d=d, seed=seed % 1000)
        counter = DominanceCounter()
        with pointwise_boost():
            pointwise = run_boosted_scan(dataset, SFS(), counter, sigma=sigma)
        per_point = (pointwise, counter.tests)
        counter = DominanceCounter()
        grouped = run_boosted_scan(dataset, SFS(), counter, sigma=sigma)
        assert per_point == (grouped, counter.tests)
        assert sorted(grouped) == brute_skyline_ids(dataset.values)
