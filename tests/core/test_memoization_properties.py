"""Property tests: the memoized index is observationally identical to the
unmemoized one under arbitrary interleavings of put / query / remove.

This is the correctness contract of the result cache (generation/epoch
invalidation plus put-log repair): callers must not be able to tell the two
modes apart except through ``index_nodes_visited`` and the cache counters.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.subset_index import SkylineIndex
from repro.stats.counters import DominanceCounter

D = 4
FULL = (1 << D) - 1

# Interleaved op sequences.  Puts carry a non-empty subspace (as in a real
# boosted scan); removes carry an index into the currently stored points;
# repeated query masks exercise cache hits and log repair.
ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(1, FULL)),
        st.tuples(st.just("query"), st.integers(0, FULL)),
        st.tuples(st.just("remove"), st.integers(0, 10**6)),
    ),
    min_size=1,
    max_size=80,
)


def _run_interleaved(op_list, check, values=None):
    """Drive a memoized and an unmemoized index through ``op_list``.

    ``check(memo, plain, memo_counter, plain_counter, mask)`` is invoked at
    every query op; ``values`` (one row per op) backs ``candidates()``.
    """
    memo = SkylineIndex(D, memoize=True, values=values)
    plain = SkylineIndex(D, memoize=False, values=values)
    memo_counter = DominanceCounter()
    plain_counter = DominanceCounter()
    stored: list[tuple[int, int]] = []
    next_id = 0
    for kind, arg in op_list:
        if kind == "put":
            memo.put(next_id, arg)
            plain.put(next_id, arg)
            stored.append((next_id, arg))
            next_id += 1
        elif kind == "query":
            check(memo, plain, memo_counter, plain_counter, arg)
        elif stored:  # remove
            point_id, subspace = stored.pop(arg % len(stored))
            memo.remove(point_id, subspace)
            plain.remove(point_id, subspace)
    return memo, plain, memo_counter, plain_counter


@settings(max_examples=120, deadline=None)
@given(ops)
def test_memoized_query_results_identical(op_list):
    def check(memo, plain, memo_counter, plain_counter, mask):
        assert memo.query(mask, memo_counter) == plain.query(
            mask, plain_counter
        )

    memo, plain, memo_counter, plain_counter = _run_interleaved(op_list, check)
    assert len(memo) == len(plain)
    # Index traversal charges node visits, never dominance tests, and both
    # modes see the same query stream.
    assert memo_counter.tests == plain_counter.tests == 0
    assert memo_counter.index_queries == plain_counter.index_queries
    stats = memo.cache_stats()
    assert stats["hits"] + stats["misses"] == memo_counter.index_queries
    assert plain.cache_stats() == {
        "hits": 0,
        "misses": 0,
        "invalidations": 0,
        "entries": 0,
    }


@settings(max_examples=120, deadline=None)
@given(ops)
def test_candidates_match_query(op_list):
    values = np.arange(float(len(op_list) * D)).reshape(len(op_list), D)

    def check(memo, plain, memo_counter, plain_counter, mask):
        arr, rows = memo.candidates(mask)
        assert arr.dtype == np.intp
        assert not arr.flags.writeable
        assert arr.tolist() == plain.query(mask)
        assert np.array_equal(rows, values[arr])
        # The cached array and the list view stay coherent.
        assert arr.tolist() == memo.query(mask)

    _run_interleaved(op_list, check, values)


@settings(max_examples=60, deadline=None)
@given(ops)
def test_results_ordered_by_insertion_sequence(op_list):
    insertion_rank: dict[int, int] = {}

    def check(memo, plain, memo_counter, plain_counter, mask):
        for result in (memo.query(mask), plain.query(mask)):
            ranks = [insertion_rank[point_id] for point_id in result]
            assert ranks == sorted(ranks)

    memo = SkylineIndex(D, memoize=True)
    plain = SkylineIndex(D, memoize=False)
    stored: list[tuple[int, int]] = []
    next_id = 0
    for kind, arg in op_list:
        if kind == "put":
            memo.put(next_id, arg)
            plain.put(next_id, arg)
            stored.append((next_id, arg))
            insertion_rank[next_id] = next_id
            next_id += 1
        elif kind == "query":
            check(memo, plain, None, None, arg)
        elif stored:
            point_id, subspace = stored.pop(arg % len(stored))
            memo.remove(point_id, subspace)
            plain.remove(point_id, subspace)
