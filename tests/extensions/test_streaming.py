"""Unit and property tests for the streaming skyline extension."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DimensionMismatchError, InvalidParameterError
from repro.extensions.streaming import StreamingSkyline
from tests.conftest import brute_skyline_ids

#: Eight mutually incomparable rows that fill the default anchor set.
ANCHORS = [[2.0 + i / 10, 3.0 - i / 10] for i in range(8)]


class TestBasics:
    def test_construction_validation(self):
        with pytest.raises(InvalidParameterError):
            StreamingSkyline(d=0)
        with pytest.raises(InvalidParameterError):
            StreamingSkyline(d=3, anchors=0)

    def test_insert_returns_increasing_ids(self):
        sky = StreamingSkyline(d=2)
        assert sky.insert([1.0, 2.0]) == 0
        assert sky.insert([2.0, 1.0]) == 1
        assert len(sky) == 2

    def test_dimension_mismatch(self):
        sky = StreamingSkyline(d=3)
        with pytest.raises(DimensionMismatchError):
            sky.insert([1.0, 2.0])

    def test_nan_rejected(self):
        sky = StreamingSkyline(d=2)
        with pytest.raises(InvalidParameterError):
            sky.insert([np.nan, 1.0])

    def test_delete_unknown_id(self):
        sky = StreamingSkyline(d=2)
        with pytest.raises(KeyError):
            sky.delete(5)

    def test_delete_is_permanent(self):
        sky = StreamingSkyline(d=2)
        pid = sky.insert([1.0, 1.0])
        sky.delete(pid)
        with pytest.raises(KeyError):
            sky.delete(pid)
        assert len(sky) == 0

    def test_dominated_insert_is_buffered(self):
        sky = StreamingSkyline(d=2)
        sky.insert([1.0, 1.0])
        dominated = sky.insert([2.0, 2.0])
        assert dominated not in set(sky.skyline_ids())
        assert len(sky) == 2

    def test_insert_demotes_dominated_skyline(self):
        sky = StreamingSkyline(d=2)
        old = sky.insert([2.0, 2.0])
        new = sky.insert([1.0, 1.0])
        assert sky.skyline_ids() == [new]
        sky.delete(new)
        assert sky.skyline_ids() == [old]  # demoted point resurfaces

    def test_duplicates_are_both_skyline(self):
        sky = StreamingSkyline(d=2)
        a = sky.insert([1.0, 1.0])
        b = sky.insert([1.0, 1.0])
        assert sky.skyline_ids() == [a, b]

    def test_skyline_points_matrix(self):
        sky = StreamingSkyline(d=2)
        sky.insert([1.0, 4.0])
        sky.insert([4.0, 1.0])
        pts = sky.skyline_points()
        assert pts.shape == (2, 2)
        assert list(pts[0]) == [1.0, 4.0]

    def test_empty_skyline_points(self):
        pts = StreamingSkyline(d=3).skyline_points()
        assert pts.shape == (0, 3)
        assert pts.dtype == np.float64  # pinned: callers vstack onto this

    def test_counter_accumulates(self):
        sky = StreamingSkyline(d=2)
        sky.insert([1.0, 2.0])
        sky.insert([2.0, 1.0])
        assert sky.counter.tests > 0


class TestEquivalenceWithBatch:
    def test_insert_only_stream(self):
        rng = np.random.default_rng(0)
        pts = rng.random((200, 3))
        sky = StreamingSkyline(d=3, anchors=5)
        for p in pts:
            sky.insert(p)
        assert sky.skyline_ids() == brute_skyline_ids(pts)

    def test_sliding_window_stream(self):
        """Insert a window of 80 points, then slide: delete oldest, insert."""
        rng = np.random.default_rng(1)
        pts = rng.random((200, 3))
        sky = StreamingSkyline(d=3, anchors=4)
        ids = []
        for i in range(80):
            ids.append(sky.insert(pts[i]))
        for i in range(80, 200):
            sky.delete(ids[i - 80])
            ids.append(sky.insert(pts[i]))
        window = pts[120:200]
        expected = [ids[120 + k] for k in brute_skyline_ids(window)]
        assert sky.skyline_ids() == sorted(expected)

    def test_delete_everything(self):
        rng = np.random.default_rng(2)
        sky = StreamingSkyline(d=2)
        ids = [sky.insert(p) for p in rng.random((40, 2))]
        for pid in ids:
            sky.delete(pid)
        assert len(sky) == 0
        assert sky.skyline_ids() == []


class TestBatchedMutations:
    def test_insert_many_matches_sequential(self):
        rng = np.random.default_rng(3)
        prefix, batch = rng.random((120, 3)), rng.random((50, 3))
        batched = StreamingSkyline(d=3, anchors=4)
        sequential = StreamingSkyline(d=3, anchors=4)
        for p in prefix:
            batched.insert(p)
            sequential.insert(p)
        ids = batched.insert_many(batch)
        assert ids == [sequential.insert(p) for p in batch]
        assert batched.skyline_ids() == sequential.skyline_ids()

    def test_delete_many_matches_sequential(self):
        rng = np.random.default_rng(4)
        pts = rng.random((150, 3))
        batched = StreamingSkyline(d=3, anchors=4)
        sequential = StreamingSkyline(d=3, anchors=4)
        batched.insert_many(pts)
        for p in pts:
            sequential.insert(p)
        victims = rng.choice(150, size=40, replace=False)
        batched.delete_many(victims)
        for v in victims:
            sequential.delete(int(v))
        assert batched.skyline_ids() == sequential.skyline_ids()
        assert len(batched) == len(sequential)

    def test_insert_many_with_window_falls_back_correctly(self):
        rng = np.random.default_rng(5)
        pts = rng.random((60, 2))
        sky = StreamingSkyline(d=2, window=25)
        sky.insert_many(pts)
        assert len(sky) == 25
        window_pts = pts[-25:]
        expected = [35 + k for k in brute_skyline_ids(window_pts)]
        assert sky.skyline_ids() == expected

    def test_insert_many_with_an_equal_float_sum_dominator(self):
        # [1.0, 0.0] dominates [1.0, 1e-17], yet 1.0 + 1e-17 == 1.0.
        sky = StreamingSkyline(d=2)
        for row in ANCHORS + [[1.0, 0.0]]:
            sky.insert(row)
        sky.insert_many([[1.0, 1e-17], [5.0, 5.0]])
        assert sky.skyline_ids() == [8]

    def test_delete_promotes_an_equal_float_sum_dominator_first(self):
        sky = StreamingSkyline(d=2)
        for row in ANCHORS + [[0.0, 0.0], [1.0, 1e-17], [1.0, 0.0]]:
            sky.insert(row)
        sky.delete(8)
        assert sky.skyline_ids() == [10]

    def test_delete_many_rejects_dead_ids_atomically(self):
        sky = StreamingSkyline(d=2)
        a = sky.insert([1.0, 2.0])
        b = sky.insert([2.0, 1.0])
        sky.delete(a)
        with pytest.raises(KeyError):
            sky.delete_many([a, b])
        assert sky.skyline_ids() == [b]  # b untouched by the failed batch

    def test_witness_invariant_after_mixed_mutations(self):
        """Every buffered point records a live dominator as its witness."""
        rng = np.random.default_rng(6)
        sky = StreamingSkyline(d=3, anchors=4)
        ids = sky.insert_many(rng.random((200, 3)))
        sky.delete_many(rng.choice(ids, size=60, replace=False))
        sky.insert_many(rng.random((40, 3)))
        in_sky = set(sky.skyline_ids())
        for pid in sky.live_ids():
            if pid in in_sky:
                continue
            witness = int(sky._witness[pid])
            assert witness in set(sky.live_ids())
            w, v = sky._rows[witness], sky._rows[pid]
            assert np.all(w <= v) and np.any(w < v)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.floats(0, 1, allow_nan=False, width=16), min_size=3, max_size=3),
            st.booleans(),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_random_interleavings_match_batch(ops):
    """Any insert/delete interleaving ends at the batch skyline."""
    sky = StreamingSkyline(d=3, anchors=3)
    live: dict[int, list[float]] = {}
    for coords, is_delete in ops:
        if is_delete and live:
            victim = next(iter(live))
            del live[victim]
            sky.delete(victim)
        else:
            pid = sky.insert(coords)
            live[pid] = coords
    if live:
        order = sorted(live)
        expected = [order[k] for k in brute_skyline_ids(np.array([live[i] for i in order]))]
        assert sky.skyline_ids() == expected
    else:
        assert sky.skyline_ids() == []


def _mutation_ops(coordinate):
    return st.lists(
        st.tuples(
            st.lists(  # a batch of points, duplicates/ties likely
                st.lists(coordinate, min_size=2, max_size=2),
                min_size=1,
                max_size=5,
            ),
            st.sampled_from(["insert", "insert_many", "delete", "delete_many"]),
            st.integers(0, 3),  # victim count for delete ops
        ),
        min_size=1,
        max_size=20,
    )


@pytest.mark.parametrize("window", [None, 12])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    ops=_mutation_ops(st.integers(0, 4))
    # Float-sum ties: a dominator whose coordinate sum equals its victim's.
    | _mutation_ops(st.sampled_from((0.0, 1e-17, 1.0, 2.0)))
)
def test_mutation_bridge_matches_oracle(window, ops):
    """Randomized mutation sequences track the brute-force oracle exactly.

    Drives every public mutation entry point (scalar and batched, with
    and without a sliding window); after each step the live skyline must equal the oracle's and the charged
    dominance-test counter must be monotone non-decreasing.
    """
    sky = StreamingSkyline(d=2, anchors=2, window=window)
    live: dict[int, list[float]] = {}
    last_tests = 0
    for batch, op, victims in ops:
        if op in ("delete", "delete_many") and live:
            targets = sorted(live)[: max(1, victims)]
            if op == "delete":
                sky.delete(targets[0])
                del live[targets[0]]
            else:
                sky.delete_many(targets)
                for t in targets:
                    del live[t]
        else:
            rows = [[float(c) for c in coords] for coords in batch]
            if op == "insert_many" or len(rows) > 1:
                ids = sky.insert_many(rows)
            else:
                ids = [sky.insert(rows[0])]
            for pid, row in zip(ids, rows):
                live[pid] = row
            if window is not None:
                while len(live) > window:
                    del live[min(live)]  # mirror oldest-first eviction
        assert sky.counter.tests >= last_tests  # charged DT is monotone
        last_tests = sky.counter.tests
        if live:
            order = sorted(live)
            values = np.array([live[i] for i in order])
            expected = [order[k] for k in brute_skyline_ids(values)]
            assert sky.skyline_ids() == expected
        else:
            assert sky.skyline_ids() == []
        assert len(sky) == len(live)
