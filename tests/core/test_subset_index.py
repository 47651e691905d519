"""Unit and property tests for the subset-query skyline index (Algs. 2-4)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.container import SubsetContainer
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
        assert idx.query(0b001).tolist() == [7]
        assert idx.query(0b111).tolist() == [7]

    def test_query_excludes_non_supersets(self):
        idx = SkylineIndex(4)
        idx.put(1, 0b0011)
        assert idx.query(0b0100).tolist() == []

    def test_results_in_insertion_order(self):
        idx = SkylineIndex(4)
        for pid, mask in [(9, 0b1111), (2, 0b0011), (7, 0b1011), (1, 0b0011)]:
            idx.put(pid, mask)
        assert idx.query(0b0011).tolist() == [9, 2, 7, 1]
        assert idx.query(0b1011).tolist() == [9, 7]

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
        assert idx.query(0b001).tolist() == []

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
        assert idx.query(0b0000).tolist() == []
        assert idx.query(0b1010).tolist() == []
        assert idx.query(0b1111).tolist() == []

    def test_empty_subspace_mask(self):
        """Mask 0 (no dominating dimensions) sits at the deepest path and
        is returned only for the empty query (every mask ⊇ ∅)."""
        idx = SkylineIndex(3)
        idx.put(0, 0b000)
        idx.put(1, 0b101)
        assert sorted(idx.query(0b000)) == [0, 1]
        assert idx.query(0b101).tolist() == [1]
        assert idx.query(0b111).tolist() == []

    def test_full_dimension_mask_matches_every_query(self):
        """Mask 2^d - 1 reverses to ∅, lives at the root, supersets all."""
        d = 4
        full = (1 << d) - 1
        idx = SkylineIndex(d)
        idx.put(0, full)
        for query in range(1 << d):
            assert idx.query(query).tolist() == [0]

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
        assert idx.query(0b0011).tolist() == []

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
        assert idx.query(0b0011).tolist() == [2]


class TestFusedCandidates:
    """``SubsetContainer.candidates()``: the index's ids plus gathered rows."""

    def test_candidates_returns_gathered_rows(self):
        values = np.arange(12.0).reshape(4, 3)
        container = SubsetContainer(values, 3)
        container.add(2, 0b111)
        container.add(0, 0b011)
        ids, rows = container.candidates(0b011)
        assert ids.tolist() == [2, 0]
        assert np.array_equal(rows, values[[2, 0]])
        # A repeated probe after an add sees the grown ids, in insertion order.
        container.add(3, 0b111)
        ids, rows = container.candidates(0b011)
        assert ids.tolist() == [2, 0, 3]
        assert np.array_equal(rows, values[[2, 0, 3]])

    def test_candidates_requires_values(self):
        container = SubsetContainer(None, 3)
        container.add(0, 0b011)
        with pytest.raises(InvalidParameterError):
            container.candidates(0b001)
        assert container.query_ids(0b001).tolist() == [0]

    def test_earlier_views_unchanged_by_later_puts(self):
        values = np.arange(200.0).reshape(50, 4)
        container = SubsetContainer(values, 4)
        container.add(0, 0b1111)
        ids, rows = container.candidates(0b0001)
        ids_before, rows_before = ids.copy(), rows.copy()
        for pid in range(1, 50):
            container.add(pid, 0b1111)
            container.candidates(0b0001)
        assert np.array_equal(ids, ids_before)
        assert np.array_equal(rows, rows_before)
        assert not ids.flags.writeable

    def test_unmemoized_candidates_charge_a_traversal_each(self):
        values = np.arange(12.0).reshape(4, 3)
        counter = DominanceCounter()
        container = SubsetContainer(values, 3, counter)
        container.add(1, 0b011)
        for _ in range(3):
            ids, rows = container.candidates(0b001)
            assert ids.tolist() == [1]
            assert np.array_equal(rows, values[[1]])
        assert counter.index_queries == 3
        assert counter.index_nodes_visited >= 3
        assert counter.index_cache_hits == counter.index_cache_misses == 0


class TestGroupWalk:
    """``walk`` and ``put_many``: one tree walk per subspace, one path per group."""

    def test_walk_is_an_unmemoized_query(self):
        idx = SkylineIndex(4)
        stored = {1: 0b0011, 2: 0b1111, 3: 0b0100, 4: 0b0111}
        for pid, mask in stored.items():
            idx.put(pid, mask)
        for subspace in range(1 << 4):
            counter, reference = DominanceCounter(), DominanceCounter()
            found = idx.walk(subspace, counter)
            assert found.dtype == np.intp
            assert sorted(found.tolist()) == sorted(brute_query(stored, subspace))
            SkylineIndex.query(_unmemoized_copy(stored), subspace, reference)
            assert counter.index_queries == 1
            assert counter.index_nodes_visited == reference.index_nodes_visited
            assert counter.index_cache_hits == counter.index_cache_misses == 0

    def test_put_many_matches_single_puts(self):
        single, grouped = SkylineIndex(3), SkylineIndex(3)
        for pid in (5, 1, 9):
            single.put(pid, 0b101)
        grouped.put_many([5, 1, 9], 0b101)
        single.put(2, 0b111)
        grouped.put(2, 0b111)
        for subspace in range(1 << 3):
            assert grouped.query(subspace).tolist() == single.query(subspace).tolist()
        assert grouped.subspaces() == single.subspaces()
        assert grouped.node_count() == single.node_count()
        assert len(grouped) == len(single) == 4


def _unmemoized_copy(stored: dict[int, int]) -> SkylineIndex:
    idx = SkylineIndex(4)
    for pid, mask in stored.items():
        idx.put(pid, mask)
    return idx


_FUSED_D = 4
_fused_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, (1 << _FUSED_D) - 1)),
        st.tuples(
            st.just("add_many"),
            st.tuples(st.integers(0, (1 << _FUSED_D) - 1), st.integers(1, 4)),
        ),
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
    """Interleaved put/add_many/remove/clear/candidates: ``candidates`` and
    ``query_ids`` return exactly the stored supersets in insertion order
    (as ``intp`` arrays), rows are ``values[ids]``, a group walk returns
    the same ids as a set, and each read is one charged index query."""
    values = np.random.default_rng(0).random((4 * len(ops), _FUSED_D))
    counter = DominanceCounter()
    container = SubsetContainer(values, _FUSED_D, counter)
    stored: list[tuple[int, int]] = []  # insertion order
    next_id = 0
    reads = 0
    for kind, arg in ops:
        if kind == "put":
            container.add(next_id, arg)
            stored.append((next_id, arg))
            next_id += 1
        elif kind == "add_many":
            mask, count = arg
            group = list(range(next_id, next_id + count))
            container.add_many(group, mask)
            stored += [(point_id, mask) for point_id in group]
            next_id += count
        elif kind == "remove" and stored:
            point_id, mask = stored.pop(arg % len(stored))
            container.remove(point_id, mask)
        elif kind == "clear":
            container.clear()
            stored.clear()
        elif kind == "candidates":
            expected = [point_id for point_id, mask in stored if arg & ~mask == 0]
            ids, rows = container.candidates(arg)
            assert ids.dtype == np.intp
            assert ids.tolist() == expected
            assert np.array_equal(rows, values[expected])
            queried = container.query_ids(arg)
            assert isinstance(queried, np.ndarray) and queried.dtype == np.intp
            assert queried.tolist() == expected
            assert sorted(container.walk(arg).tolist()) == sorted(expected)
            reads += 3
    assert container.ids() == [point_id for point_id, _ in stored]
    assert counter.index_queries == reads
    assert counter.tests == 0


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
