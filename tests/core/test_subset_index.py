"""Unit and property tests for the subset-query skyline index (Algs. 2-4)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.subset_index import SkylineIndex
from repro.errors import DimensionMismatchError, InvalidParameterError
from repro.stats.counters import DominanceCounter
from repro.structures import bitset


def brute_query(stored: dict[int, int], subspace: int) -> set[int]:
    """Reference: ids whose stored subspace is a superset of ``subspace``."""
    return {pid for pid, mask in stored.items() if subspace & ~mask == 0}


class TestPutQuery:
    def test_paper_example(self):
        """The Figure 3 subspace family, with the paper's query {1,3,5}.

        The figure stores *reversed* subspaces; here we store points whose
        reversed subspaces are the figure's sets in an 8-dimensional space
        (paper dims 1-8 -> 0-based 0-7).
        """
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
        idx = SkylineIndex(d)
        stored = {}
        for pid, reversed_dims in enumerate(figure_reversed):
            mask = bitset.complement(bitset.from_dims(reversed_dims), d)
            idx.put(pid, mask)
            stored[pid] = mask
        query_reversed = {1, 3, 5}
        query_mask = bitset.complement(bitset.from_dims(query_reversed), d)
        got = set(idx.query(query_mask))
        # Stored reversed sets that are subsets of {1,3,5}: {1,5} and {3,5}.
        assert got == {2, 4}
        assert got == brute_query(stored, query_mask)

    def test_root_storage_for_full_subspace(self):
        idx = SkylineIndex(3)
        idx.put(7, 0b111)  # reversed = empty -> root
        assert idx.query(0b001) == [7]
        assert idx.query(0b111) == [7]

    def test_query_excludes_non_supersets(self):
        idx = SkylineIndex(4)
        idx.put(1, 0b0011)
        assert idx.query(0b0100) == []

    def test_results_in_insertion_order(self):
        idx = SkylineIndex(4)
        for pid, mask in [(9, 0b1111), (2, 0b0011), (7, 0b1011), (1, 0b0011)]:
            idx.put(pid, mask)
        assert idx.query(0b0011) == [9, 2, 7, 1]
        assert idx.query(0b1011) == [9, 7]

    def test_multiple_points_same_subspace(self):
        idx = SkylineIndex(4)
        idx.put(1, 0b0011)
        idx.put(2, 0b0011)
        assert sorted(idx.query(0b0011)) == [1, 2]
        assert len(idx) == 2

    def test_len_tracks_puts(self):
        idx = SkylineIndex(5)
        for pid in range(10):
            idx.put(pid, 0b00001 << (pid % 4))
        assert len(idx) == 10

    def test_counter_records_node_visits(self):
        counter = DominanceCounter()
        idx = SkylineIndex(4)
        idx.put(0, 0b0001)
        idx.query(0b0001, counter)
        assert counter.index_queries == 1
        assert counter.index_nodes_visited >= 1

    def test_dimensionality_validation(self):
        with pytest.raises(InvalidParameterError):
            SkylineIndex(0)

    def test_mask_outside_space_rejected(self):
        idx = SkylineIndex(3)
        with pytest.raises(DimensionMismatchError):
            idx.put(0, 0b1000)
        with pytest.raises(DimensionMismatchError):
            idx.query(0b1000)

    def test_subspaces_diagnostic(self):
        idx = SkylineIndex(3)
        idx.put(0, 0b011)
        idx.put(1, 0b011)
        idx.put(2, 0b101)
        mapping = idx.subspaces()
        assert sorted(mapping[0b011]) == [0, 1]
        assert mapping[0b101] == [2]

    def test_clear(self):
        idx = SkylineIndex(3)
        idx.put(0, 0b001)
        idx.clear()
        assert len(idx) == 0
        assert idx.query(0b001) == []

    def test_node_count_counts_paths(self):
        idx = SkylineIndex(4)
        assert idx.node_count() == 1  # root only
        idx.put(0, 0b0111)  # reversed {3}: one node
        assert idx.node_count() == 2
        idx.put(1, 0b0011)  # reversed {2, 3}: adds a chain of two
        assert idx.node_count() == 4


class TestEdgeCases:
    def test_query_on_empty_index(self):
        idx = SkylineIndex(4)
        assert idx.query(0b0000) == []
        assert idx.query(0b1010) == []
        assert idx.query(0b1111) == []

    def test_empty_subspace_mask(self):
        """Mask 0 (no dominating dimensions) sits at the deepest path and
        is returned only for the empty query (every mask ⊇ ∅)."""
        idx = SkylineIndex(3)
        idx.put(0, 0b000)
        idx.put(1, 0b101)
        assert sorted(idx.query(0b000)) == [0, 1]
        assert idx.query(0b101) == [1]
        assert idx.query(0b111) == []

    def test_full_dimension_mask_matches_every_query(self):
        """Mask 2^d - 1 reverses to ∅, lives at the root, supersets all."""
        d = 4
        full = (1 << d) - 1
        idx = SkylineIndex(d)
        idx.put(0, full)
        for query in range(1 << d):
            assert idx.query(query) == [0]

    def test_duplicate_put_same_reversed_subspace_reuses_path(self):
        """A second put on an existing reversed-subspace chain adds no
        nodes; both entries are stored and queryable."""
        idx = SkylineIndex(4)
        idx.put(1, 0b0011)
        nodes_before = idx.node_count()
        idx.put(2, 0b0011)
        assert idx.node_count() == nodes_before
        assert len(idx) == 2
        assert sorted(idx.query(0b0011)) == [1, 2]


class TestOccupancy:
    def test_empty_index(self):
        stats = SkylineIndex(4).occupancy()
        assert stats == {"nodes": 0.0, "occupied": 0.0, "max": 0.0, "mean": 0.0}

    def test_clumped_points(self):
        idx = SkylineIndex(4)
        for pid in range(10):
            idx.put(pid, 0b0011)
        stats = idx.occupancy()
        assert stats["occupied"] == 1.0
        assert stats["max"] == 10.0
        assert stats["mean"] == 10.0

    def test_spread_points(self):
        idx = SkylineIndex(4)
        for pid, mask in enumerate((0b0001, 0b0010, 0b0100, 0b1000)):
            idx.put(pid, mask)
        stats = idx.occupancy()
        assert stats["occupied"] == 4.0
        assert stats["max"] == 1.0

    def test_duplicate_heavy_data_clumps_the_index(self, duplicate_heavy):
        """The §6.3 WEATHER effect: duplicates concentrate node occupancy."""
        import repro
        from repro.core.container import SubsetContainer
        from repro.core.merge import merge as run_merge

        merged = run_merge(duplicate_heavy, sigma=2)
        container = SubsetContainer(duplicate_heavy.values, 4)
        for point_id, mask in zip(merged.remaining_ids, merged.masks):
            container.add(int(point_id), int(mask))
        stats = container.index.occupancy()
        assert stats["max"] > 1.0  # many points share one subspace node


class TestRemove:
    def test_remove_round_trip(self):
        idx = SkylineIndex(4)
        idx.put(5, 0b0011)
        idx.remove(5, 0b0011)
        assert len(idx) == 0
        assert idx.query(0b0011) == []

    def test_remove_missing_point(self):
        idx = SkylineIndex(4)
        idx.put(5, 0b0011)
        with pytest.raises(KeyError):
            idx.remove(6, 0b0011)

    def test_remove_missing_path(self):
        idx = SkylineIndex(4)
        with pytest.raises(KeyError):
            idx.remove(5, 0b0011)

    def test_remove_keeps_siblings(self):
        idx = SkylineIndex(4)
        idx.put(1, 0b0011)
        idx.put(2, 0b0011)
        idx.remove(1, 0b0011)
        assert idx.query(0b0011) == [2]


class TestFusedCandidates:
    """``candidates()``: ids plus gathered rows from one cache probe."""

    def test_candidates_returns_gathered_rows(self):
        values = np.arange(12.0).reshape(4, 3)
        idx = SkylineIndex(3, values=values)
        idx.put(2, 0b111)
        idx.put(0, 0b011)
        ids, rows = idx.candidates(0b011)
        assert ids.tolist() == [2, 0]
        assert np.array_equal(rows, values[[2, 0]])
        # A repeated probe serves the same entry, repaired from the log.
        idx.put(3, 0b111)
        ids, rows = idx.candidates(0b011)
        assert ids.tolist() == [2, 0, 3]
        assert np.array_equal(rows, values[[2, 0, 3]])

    def test_candidates_requires_values(self):
        idx = SkylineIndex(3)
        idx.put(0, 0b011)
        with pytest.raises(InvalidParameterError):
            idx.candidates(0b001)
        assert idx.query(0b001) == [0]

    def test_earlier_views_unchanged_by_later_puts(self):
        values = np.arange(200.0).reshape(50, 4)
        idx = SkylineIndex(4, values=values)
        idx.put(0, 0b1111)
        ids, rows = idx.candidates(0b0001)
        ids_before, rows_before = ids.copy(), rows.copy()
        # Enough puts to append in place and then to outgrow the buffers.
        for pid in range(1, 50):
            idx.put(pid, 0b1111)
            idx.candidates(0b0001)
        assert np.array_equal(ids, ids_before)
        assert np.array_equal(rows, rows_before)
        assert not ids.flags.writeable

    def test_unmemoized_candidates_charge_a_traversal_each(self):
        values = np.arange(12.0).reshape(4, 3)
        counter = DominanceCounter()
        idx = SkylineIndex(3, memoize=False, values=values)
        idx.put(1, 0b011)
        for _ in range(3):
            ids, rows = idx.candidates(0b001, counter)
            assert ids.tolist() == [1]
            assert np.array_equal(rows, values[[1]])
        assert counter.index_queries == 3
        assert counter.index_cache_hits == counter.index_cache_misses == 0
        assert idx.cache_stats()["entries"] == 0


_FUSED_D = 4
_fused_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, (1 << _FUSED_D) - 1)),
        st.tuples(st.just("candidates"), st.integers(0, (1 << _FUSED_D) - 1)),
        st.tuples(st.just("remove"), st.integers(0, 10**6)),
        st.tuples(st.just("clear"), st.just(0)),
    ),
    min_size=1,
    max_size=80,
)


@settings(max_examples=100, deadline=None)
@given(_fused_ops)
def test_fused_candidates_match_brute_force(ops):
    """Interleaved put/remove/clear/candidates on memoized and unmemoized
    indexes: ids are exactly the stored supersets in insertion order, rows
    are ``values[ids]``, and both modes agree on ids, rows and queries."""
    values = np.random.default_rng(0).random((len(ops), _FUSED_D))
    memo = SkylineIndex(_FUSED_D, values=values)
    plain = SkylineIndex(_FUSED_D, memoize=False, values=values)
    memo_counter, plain_counter = DominanceCounter(), DominanceCounter()
    stored: list[tuple[int, int]] = []  # insertion order
    for pid, (kind, arg) in enumerate(ops):
        if kind == "put":
            for idx in (memo, plain):
                idx.put(pid, arg)
            stored.append((pid, arg))
        elif kind == "remove" and stored:
            point_id, mask = stored.pop(arg % len(stored))
            for idx in (memo, plain):
                idx.remove(point_id, mask)
        elif kind == "clear":
            for idx in (memo, plain):
                idx.clear()
            stored.clear()
        elif kind == "candidates":
            expected = [point_id for point_id, mask in stored if arg & ~mask == 0]
            memo_ids, memo_rows = memo.candidates(arg, memo_counter)
            plain_ids, plain_rows = plain.candidates(arg, plain_counter)
            assert memo_ids.tolist() == plain_ids.tolist() == expected
            assert np.array_equal(memo_rows, values[expected])
            assert np.array_equal(plain_rows, values[expected])
    assert memo_counter.index_queries == plain_counter.index_queries
    assert memo_counter.tests == plain_counter.tests == 0


class TestExhaustiveSmallSpace:
    def test_all_subspace_pairs_d4(self):
        """Exhaustive check of the superset semantics over all of 2^4."""
        d = 4
        idx = SkylineIndex(d)
        stored = {}
        for pid, mask in enumerate(range(1, 1 << d)):
            idx.put(pid, mask)
            stored[pid] = mask
        for query in range(1, 1 << d):
            assert set(idx.query(query)) == brute_query(stored, query)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, (1 << 6) - 1), max_size=40),
    st.integers(0, (1 << 6) - 1),
)
def test_query_matches_brute_force(masks, query):
    idx = SkylineIndex(6)
    stored = {}
    for pid, mask in enumerate(masks):
        idx.put(pid, mask)
        stored[pid] = mask
    assert set(idx.query(query)) == brute_query(stored, query)


_point = st.lists(st.integers(0, 4), min_size=3, max_size=3).map(tuple)


@settings(max_examples=80, deadline=None)
@given(
    pivots=st.lists(_point, min_size=1, max_size=5),
    q1=_point,
    q2=_point,
)
def test_lemma_4_2_incomparable_masks_imply_no_dominance(pivots, q1, q2):
    """Lemma 4.2: non-nesting maximum dominating subspaces ⇒ incomparable."""
    import numpy as np

    from repro.core.subspace import implies_incomparable, maximum_dominating_subspace
    from repro.dominance import dominates

    pivot_rows = [np.array(p, dtype=float) for p in pivots]
    a, b = np.array(q1, dtype=float), np.array(q2, dtype=float)
    mask_a = maximum_dominating_subspace(a, pivot_rows)
    mask_b = maximum_dominating_subspace(b, pivot_rows)
    if implies_incomparable(mask_a, mask_b):
        assert not dominates(a, b)
        assert not dominates(b, a)


@settings(max_examples=80, deadline=None)
@given(
    pivots=st.lists(_point, min_size=1, max_size=5),
    q1=_point,
    q2=_point,
)
def test_lemma_4_3_dominance_implies_may_dominate(pivots, q1, q2):
    """Lemma 4.3: p < q forces D_{p<S} ⊇ D_{q<S}, i.e. may_dominate."""
    import numpy as np

    from repro.core.subspace import maximum_dominating_subspace, may_dominate
    from repro.dominance import dominates

    pivot_rows = [np.array(p, dtype=float) for p in pivots]
    a, b = np.array(q1, dtype=float), np.array(q2, dtype=float)
    if dominates(a, b):
        mask_a = maximum_dominating_subspace(a, pivot_rows)
        mask_b = maximum_dominating_subspace(b, pivot_rows)
        assert may_dominate(mask_a, mask_b)


@settings(max_examples=60, deadline=None)
@given(
    masks=st.lists(st.integers(0, (1 << 5) - 1), max_size=20),
    query=st.integers(0, (1 << 5) - 1),
)
def test_query_equals_may_dominate_filter(masks, query):
    """Lemma 5.1 bridge: the index returns exactly the stored points whose
    subspace passes :func:`may_dominate` against the testing point's."""
    from repro.core.subspace import may_dominate

    idx = SkylineIndex(5)
    stored = {}
    for pid, mask in enumerate(masks):
        idx.put(pid, mask)
        stored[pid] = mask
    expected = {pid for pid, mask in stored.items() if may_dominate(mask, query)}
    assert set(idx.query(query)) == expected


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 127), st.booleans()), max_size=30))
def test_interleaved_put_remove(ops):
    """put/remove interleavings keep query results exact."""
    idx = SkylineIndex(7)
    live: dict[int, int] = {}
    for pid, (mask, is_remove) in enumerate(ops):
        if is_remove and live:
            victim = next(iter(live))
            idx.remove(victim, live.pop(victim))
        else:
            idx.put(pid, mask)
            live[pid] = mask
    for query in (0, 0b1, 0b1010101, 0b1111111):
        assert set(idx.query(query)) == brute_query(live, query)
