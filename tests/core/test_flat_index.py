"""The flat-layout contract on SkylineIndex's fused row cache.

The row-gathering cache entry (ids plus ``values[ids]`` from one probe) is
the flat layout's surviving feature; these tests hold ``SkylineIndex``
built with ``values=`` to the same put/query contract, and bridge its
memoized fused path to the unmemoized tree walk over full boosted scans.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.boost import run_boosted_scan
from repro.core.subset_index import SkylineIndex
from repro.data import generate
from repro.errors import DimensionMismatchError, InvalidParameterError
from repro.algorithms.salsa import SaLSa
from repro.algorithms.sdi import SDI
from repro.algorithms.sfs import SFS
from repro.stats.counters import DominanceCounter
from repro.structures import bitset


def brute_query(stored: list[tuple[int, int]], subspace: int) -> list[int]:
    """Reference: ids whose mask ⊇ ``subspace``, in insertion order."""
    return [pid for pid, mask in stored if subspace & ~mask == 0]


def fused_index(d: int, n: int = 64) -> tuple[SkylineIndex, np.ndarray]:
    values = np.arange(float(n * d)).reshape(n, d)
    return SkylineIndex(d, values=values), values


def fused_ids(idx: SkylineIndex, subspace: int, values: np.ndarray) -> list[int]:
    """``candidates()`` ids, after checking its rows are ``values[ids]``."""
    ids, rows = idx.candidates(subspace)
    assert np.array_equal(rows, values[ids])
    return ids.tolist()


class TestPutQuery:
    def test_paper_example(self):
        """Figure 3's subspace family answered by the fused row path."""
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
            idx.put(pid, bitset.complement(bitset.from_dims(reversed_dims), d))
        query_mask = bitset.complement(bitset.from_dims({1, 3, 5}), d)
        assert set(fused_ids(idx, query_mask, values)) == {2, 4}
        assert set(idx.query(query_mask)) == {2, 4}

    def test_empty_index_queries_clean(self):
        idx, values = fused_index(3)
        counter = DominanceCounter()
        assert idx.query(0b101, counter) == []
        ids, rows = idx.candidates(0b101, counter)
        assert ids.tolist() == []
        assert rows.shape == (0, 3)
        assert len(idx) == 0
        assert idx.node_count() == 1  # the root alone
        assert counter.tests == 0

    def test_single_mask_group(self):
        idx, values = fused_index(3)
        for pid in range(5):
            idx.put(pid, 0b110)
        assert fused_ids(idx, 0b010, values) == list(range(5))
        assert fused_ids(idx, 0b001, values) == []
        assert idx.subspaces() == {0b110: list(range(5))}

    def test_duplicate_masks_keep_all_points(self):
        idx, values = fused_index(4)
        stored = [(pid, 0b0110 if pid % 2 else 0b1111) for pid in range(12)]
        for pid, mask in stored:
            idx.put(pid, mask)
        for q in (0b0110, 0b0010, 0b1111, 0b0001):
            assert fused_ids(idx, q, values) == brute_query(stored, q)
            assert idx.query(q) == brute_query(stored, q)
        assert len(idx.subspaces()) == 2

    def test_invalid_dimensionality_rejected(self):
        with pytest.raises(InvalidParameterError):
            SkylineIndex(d=0, values=np.zeros((1, 1)))

    def test_out_of_range_mask_rejected(self):
        idx, _ = fused_index(3)
        with pytest.raises(DimensionMismatchError):
            idx.put(0, 0b1000)
        with pytest.raises(DimensionMismatchError):
            idx.query(0b1000)
        with pytest.raises(DimensionMismatchError):
            idx.candidates(0b1000)


class TestCompaction:
    """Shrinking changes and the diagnostic views of a fused index."""

    def test_remove_and_clear(self):
        idx, values = fused_index(3)
        idx.put(1, 0b011)
        idx.put(2, 0b011)
        assert fused_ids(idx, 0b001, values) == [1, 2]
        epoch = idx.epoch
        idx.remove(1, 0b011)
        assert fused_ids(idx, 0b001, values) == [2]
        assert idx.epoch == epoch + 1
        with pytest.raises(KeyError):
            idx.remove(1, 0b011)
        with pytest.raises(KeyError):
            idx.remove(2, 0b111)
        idx.clear()
        assert len(idx) == 0
        assert fused_ids(idx, 0b001, values) == []

    def test_subspaces_and_occupancy_views(self):
        idx, _ = fused_index(3)
        idx.put(0, 0b011)
        idx.put(1, 0b011)
        idx.put(2, 0b111)
        assert idx.subspaces() == {0b011: [0, 1], 0b111: [2]}
        occ = idx.occupancy()
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
    """The fused row path against the id-only index and the tree walk."""

    @given(put_query_sequences())
    @settings(max_examples=60, deadline=None)
    def test_interleaved_puts_and_queries_match(self, seq):
        """Same put/query stream → same ids and same cache accounting."""
        d, puts, queries = seq
        values = np.random.default_rng(0).random((max(len(puts), 1), d))
        fused, tree = SkylineIndex(d, values=values), SkylineIndex(d)
        fused_counter, tree_counter = DominanceCounter(), DominanceCounter()
        for pid, mask in enumerate(puts):
            fused.put(pid, mask)
            tree.put(pid, mask)
        for mask in queries:
            ids, rows = fused.candidates(mask, fused_counter)
            assert ids.tolist() == tree.query(mask, tree_counter)
            assert np.array_equal(rows, values[ids])
        fused_stats, tree_stats = fused.cache_stats(), tree.cache_stats()
        assert fused_stats["hits"] == tree_stats["hits"]
        assert fused_stats["misses"] == tree_stats["misses"]
        assert fused_counter.index_cache_hits == tree_counter.index_cache_hits
        assert fused_counter.index_cache_misses == tree_counter.index_cache_misses
        assert fused_counter.index_nodes_visited == tree_counter.index_nodes_visited

    @pytest.mark.parametrize("host_factory", [SFS, SaLSa, SDI])
    @pytest.mark.parametrize("kind", ["UI", "CO", "AC"])
    def test_boosted_scan_bit_identical(self, host_factory, kind):
        """Memoized and tree-walk boosted scans charge identical tests."""
        dataset = generate(kind, n=600, d=5, seed=11)
        results = {}
        for memoize in (True, False):
            counter = DominanceCounter()
            skyline = run_boosted_scan(
                dataset, host_factory(), counter, memoize=memoize
            )
            results[memoize] = (skyline, counter)
        memo_sky, memo_counter = results[True]
        walk_sky, walk_counter = results[False]
        assert memo_sky == walk_sky
        assert memo_counter.tests == walk_counter.tests
        assert memo_counter.index_queries == walk_counter.index_queries
        assert walk_counter.index_cache_hits == walk_counter.index_cache_misses == 0

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
        per_mode = {}
        for memoize in (True, False):
            counter = DominanceCounter()
            skyline = run_boosted_scan(
                dataset, SFS(), counter, sigma=sigma, memoize=memoize
            )
            per_mode[memoize] = (skyline, counter.tests)
        assert per_mode[True] == per_mode[False]
