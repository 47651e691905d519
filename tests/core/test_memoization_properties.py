"""Property tests: the subset index against a brute-force, insertion-ordered
reference under arbitrary interleavings of put / query / remove.

The index keeps no query results, so every query is one tree walk;
``query`` must return exactly the stored supersets of the query subspace
in insertion order, and ``walk`` the same ids in any order.
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
# repeated query masks query the same subspace after changes.
ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(1, FULL)),
        st.tuples(st.just("query"), st.integers(0, FULL)),
        st.tuples(st.just("remove"), st.integers(0, 10**6)),
    ),
    min_size=1,
    max_size=80,
)


def _reference(stored: list[tuple[int, int]], mask: int) -> list[int]:
    """Ids stored under a superset of ``mask``, in insertion order."""
    return [point_id for point_id, subspace in stored if mask & ~subspace == 0]


def _run_interleaved(op_list, check):
    """Drive an index and the reference list through ``op_list``.

    ``check(index, stored, mask)`` is invoked at every query op, with
    ``stored`` the ``(id, subspace)`` pairs in insertion order.
    """
    index = SkylineIndex(D)
    stored: list[tuple[int, int]] = []
    next_id = 0
    for kind, arg in op_list:
        if kind == "put":
            index.put(next_id, arg)
            stored.append((next_id, arg))
            next_id += 1
        elif kind == "query":
            check(index, stored, arg)
        elif stored:  # remove
            point_id, subspace = stored.pop(arg % len(stored))
            index.remove(point_id, subspace)
    return index, stored


@settings(max_examples=120, deadline=None)
@given(ops)
def test_memoized_query_results_identical(op_list):
    counter = DominanceCounter()
    queries = 0

    def check(index, stored, mask):
        nonlocal queries
        result = index.query(mask, counter)
        queries += 1
        assert result.dtype == np.intp
        assert result.tolist() == _reference(stored, mask)

    index, stored = _run_interleaved(op_list, check)
    assert len(index) == len(stored)
    # Index traversal charges node visits, never dominance tests: one
    # query per call, each visiting at least the root.
    assert counter.tests == 0
    assert counter.index_queries == queries
    assert counter.index_nodes_visited >= queries
    assert counter.index_cache_hits == counter.index_cache_misses == 0


@settings(max_examples=120, deadline=None)
@given(ops)
def test_candidates_match_query(op_list):
    """The group walk returns the query's ids as a set, with the same
    accounting, and a repeated query returns the same ids."""

    def check(index, stored, mask):
        walk_counter, query_counter = DominanceCounter(), DominanceCounter()
        walked = index.walk(mask, walk_counter)
        assert walked.dtype == np.intp
        first = index.query(mask, query_counter)
        assert sorted(walked.tolist()) == sorted(_reference(stored, mask))
        assert first.tolist() == index.query(mask).tolist()
        assert walk_counter.index_nodes_visited == query_counter.index_nodes_visited

    _run_interleaved(op_list, check)


@settings(max_examples=60, deadline=None)
@given(ops)
def test_results_ordered_by_insertion_sequence(op_list):
    def check(index, stored, mask):
        # Ids are issued in insertion order, so insertion order is
        # ascending id order.
        ranks = index.query(mask).tolist()
        assert ranks == sorted(ranks)

    _run_interleaved(op_list, check)
