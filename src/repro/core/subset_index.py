"""The map-based subset-query skyline index (Figure 3, Algorithms 2–4).

Problem 1 of the paper: store each skyline point partitioned by its maximum
dominating subspace and, given a testing point's subspace ``D_q``, return
every stored point whose subspace is a **superset** of ``D_q`` — by
Lemma 5.1 the only skyline points that can possibly dominate the testing
point.

The paper reverses the problem: points are stored under the *complement*
``D^¬`` of their subspace, turning superset retrieval into **subset**
retrieval (Problem 2), which a hash-map prefix tree answers cheaply.  Each
tree node is keyed by a dimension index; a stored subspace's complement
``{i1 < i2 < ...}`` becomes the root path ``i1 → i2 → ...`` and the point id
is appended to the terminal node.  A query with complement ``Q`` walks every
path that uses only dimensions in ``Q``, collecting points along the way —
exactly the stored subsets of ``Q``.

Complexities match Lemmas 5.2/5.3: ``put`` is ``O(|D^¬|)`` (average
``O(d/2)``) and ``query`` visits ``O((d/2)^2)`` nodes on average.

The index keeps no query results: every query is one tree walk, read two
ways.  :meth:`SkylineIndex.walk` returns the ids unordered, which is all a
boosted scan needs (:mod:`repro.core.settle` asks each subspace once), and
:meth:`SkylineIndex.query` returns them in **insertion order** (the order
points were ``put``), which the streaming extension's probes rely on.
Each node holds its points in insertion order, in machine-int arrays, so
a read joins the visited nodes' arrays with one copy each and hands the
result to numpy without a per-element conversion; ``query`` then orders
the ids with one argsort of their sequence numbers.
:meth:`SkylineIndex.put_many` stores a group of points of one subspace with
one path walk.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable

import numpy as np

from repro.errors import DimensionMismatchError, InvalidParameterError
from repro.obs.clock import timed
from repro.obs.trace import current_tracer
from repro.stats.counters import DominanceCounter
from repro.structures import bitset

#: Under an enabled tracer, one in this many index queries and walks is
#: timed and recorded as an ``index.query`` span.  Sampling bounds tracing
#: overhead: a per-point scan issues one query per testing point, so
#: tracing each one would dominate the cost being measured.
_TRACE_SAMPLE = 64

#: The ``array`` typecode of numpy's ``intp``: node arrays joined by a
#: read wrap into an ``intp`` array without conversion.
_INTP = np.dtype(np.intp).char


class _Node:
    """One key-value pair of Figure 3: a point bucket plus sub-maps.

    ``seqs[k]`` is the insertion sequence number of ``points[k]``; both
    grow in insertion order.
    """

    __slots__ = ("points", "seqs", "children")

    def __init__(self) -> None:
        self.points: array[int] = array(_INTP)
        self.seqs: array[int] = array(_INTP)
        self.children: dict[int, _Node] = {}


class SkylineIndex:
    """Hash-map prefix tree answering reversed subset queries over subspaces.

    Parameters
    ----------
    d:
        Dimensionality of the space; subspace masks must fit in ``d`` bits.

    >>> idx = SkylineIndex(d=4)
    >>> idx.put(7, subspace=0b0011)   # D = {0, 1}, stored under D^¬ = {2, 3}
    >>> idx.put(9, subspace=0b0111)   # D = {0, 1, 2}, stored under {3}
    >>> idx.query(0b0011).tolist()    # supersets of {0, 1}: both points
    [7, 9]
    >>> idx.query(0b0111).tolist()    # supersets of {0, 1, 2}: only point 9
    [9]
    """

    def __init__(self, d: int) -> None:
        if d < 1:
            raise InvalidParameterError(f"dimensionality must be >= 1, got {d}")
        self._d = d
        self._root = _Node()
        self._size = 0
        self._seq = 0
        # The ambient tracer is captured once at construction: the index
        # lives inside one engine execution, and per-query ContextVar
        # lookups would tax the hot path.  ``_trace_every == 0`` (the
        # NullTracer default) short-circuits sampling to one int check.
        self._tracer = current_tracer()
        self._trace_every = _TRACE_SAMPLE if self._tracer.enabled else 0
        self._trace_seen = 0

    @property
    def dimensionality(self) -> int:
        return self._d

    def __len__(self) -> int:
        """Number of stored points."""
        return self._size

    def put(self, point_id: int, subspace: int) -> None:
        """Algorithm 2: store ``point_id`` under its maximum dominating subspace.

        Walks the reversed subspace's dimensions in increasing order,
        creating nodes on demand, and appends the point to the final node.
        A full-space subspace lands on the root node (empty path).  Kept
        apart from :meth:`put_many`: streaming puts one point at a time.
        """
        node = self._leaf(subspace)
        node.points.append(point_id)
        node.seqs.append(self._seq)
        self._seq += 1
        self._size += 1

    def put_many(self, point_ids: list[int], subspace: int) -> None:
        """:meth:`put` for several points of one subspace, in order: one path walk."""
        node = self._leaf(subspace)
        count = len(point_ids)
        node.points.extend(point_ids)
        node.seqs.extend(range(self._seq, self._seq + count))
        self._seq += count
        self._size += count

    def _leaf(self, subspace: int) -> _Node:
        """The node ``subspace``'s points are stored at, created on demand."""
        node = self._root
        for dim in bitset.bits_of(self._reversed(subspace)):
            child = node.children.get(dim)
            if child is None:
                child = _Node()
                node.children[dim] = child
            node = child
        return node

    def query(self, subspace: int, counter: DominanceCounter | None = None) -> np.ndarray:
        """Algorithms 3–4: the ids stored under supersets of ``subspace``,
        as an ``intp`` array in insertion order.

        One tree walk: records one query and its node visits on
        ``counter`` (index accesses, *not* dominance tests).
        """
        if self._trace_every and self._sample():
            return self._traced(self._query, subspace, counter)
        return self._query(subspace, counter)

    def walk(self, subspace: int, counter: DominanceCounter | None = None) -> np.ndarray:
        """:meth:`query`'s ids in no particular order: the same tree walk
        and the same accounting, without the ordering sort.  A grouped
        scan walks each subspace once."""
        if self._trace_every and self._sample():
            return self._traced(self._walk, subspace, counter)
        return self._walk(subspace, counter)

    def _query(self, subspace: int, counter: DominanceCounter | None) -> np.ndarray:
        points: array[int] = array(_INTP)
        seqs: array[int] = array(_INTP)
        occupied = 0
        for node in self._nodes(subspace, counter):
            if node.points:
                points += node.points
                seqs += node.seqs
                occupied += 1
        ids = np.frombuffer(points, dtype=np.intp)
        if occupied > 1:  # one node's points are already in insertion order
            ids = ids[np.argsort(np.frombuffer(seqs, dtype=np.intp))]
        return ids

    def _walk(self, subspace: int, counter: DominanceCounter | None) -> np.ndarray:
        found: array[int] = array(_INTP)
        for node in self._nodes(subspace, counter):
            found += node.points
        return np.frombuffer(found, dtype=np.intp)

    def _traced(
        self,
        fetch: Callable[[int, DominanceCounter | None], np.ndarray],
        subspace: int,
        counter: DominanceCounter | None,
    ) -> np.ndarray:
        """Run one sampled query under the tracer as an ``index.query`` span."""
        result, elapsed = timed(lambda: fetch(subspace, counter))
        self._tracer.record(
            "index.query",
            elapsed,
            subspace=subspace,
            results=len(result),
            sampled_1_in=self._trace_every,
        )
        return result

    def _sample(self) -> bool:
        """Down-counting sampler: True once every ``_trace_every`` calls."""
        self._trace_seen += 1
        if self._trace_seen >= self._trace_every:
            self._trace_seen = 0
            return True
        return False

    def _nodes(self, subspace: int, counter: DominanceCounter | None) -> list[_Node]:
        """The nodes a query for ``subspace`` visits: every root path that
        uses only dimensions of the reversed subspace.  Records the query
        and its node visits on ``counter``."""
        reversed_mask = self._reversed(subspace)
        nodes = [self._root]
        visit = nodes.append
        # Breadth-first: the loop reaches appended nodes.  It runs once
        # per child of every visited node (a walk at d = 16 visits about
        # 90 nodes), so it is spelled out rather than a comprehension per
        # node, and ``bitset.has_dim`` is inlined.
        for node in nodes:
            for dim, child in node.children.items():
                if reversed_mask >> dim & 1:  # noqa: RPR002 — bitset.has_dim inlined in the walk's innermost loop
                    visit(child)
        if counter is not None:
            counter.add_query(len(nodes))
        return nodes

    def _reversed(self, subspace: int) -> int:
        try:
            return bitset.complement(subspace, self._d)
        except ValueError as exc:
            raise DimensionMismatchError(str(exc)) from None

    def remove(self, point_id: int, subspace: int) -> None:
        """Remove a point previously stored under ``subspace``.

        Needed by the streaming extension (Section 7's perspective (3));
        raises ``KeyError`` when the point is not stored under that
        subspace.  Emptied nodes are left in place — subspace paths recur,
        so keeping them avoids re-allocation churn.
        """
        reversed_mask = self._reversed(subspace)
        node = self._root
        for dim in bitset.bits_of(reversed_mask):
            child = node.children.get(dim)
            if child is None:
                raise KeyError(
                    f"point {point_id} not stored under subspace {subspace:#x}"
                )
            node = child
        # One vectorised scan: ``array.index`` would box every stored id.
        # The buffer view is released before ``pop`` resizes the array.
        hits = np.flatnonzero(np.frombuffer(node.points, dtype=np.intp) == point_id)
        if not hits.size:
            raise KeyError(f"point {point_id} not stored under subspace {subspace:#x}")
        position = int(hits[0])
        node.points.pop(position)
        node.seqs.pop(position)
        self._size -= 1

    def node_count(self) -> int:
        """Total number of tree nodes (root included); index-size statistic."""
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children.values())
        return count

    def occupancy(self) -> dict[str, float]:
        """Node-occupancy statistics: how clumped the stored points are.

        Section 6.3 attributes WEATHER's muted gains to "a lot of skyline
        points in one single node" — duplicate-heavy dimensions collapse
        many points onto few subspaces.  ``max`` close to ``len(index)``
        means the index degenerates toward a plain list.
        """
        occupied = [len(points) for points in self.subspaces().values()]
        if not occupied:
            return {"nodes": 0.0, "occupied": 0.0, "max": 0.0, "mean": 0.0}
        return {
            "nodes": float(self.node_count()),
            "occupied": float(len(occupied)),
            "max": float(max(occupied)),
            "mean": float(sum(occupied) / len(occupied)),
        }

    def subspaces(self) -> dict[int, list[int]]:
        """Mapping of stored subspace mask → point ids (diagnostics/tests)."""
        result: dict[int, list[int]] = {}
        stack: list[tuple[_Node, int]] = [(self._root, 0)]
        while stack:
            node, path_mask = stack.pop()
            if node.points:
                subspace = bitset.complement(path_mask, self._d)
                result.setdefault(subspace, []).extend(node.points)
            for dim, child in node.children.items():
                stack.append((child, bitset.with_dim(path_mask, dim)))
        return result

    def clear(self) -> None:
        """Drop all stored points and nodes."""
        self._root = _Node()
        self._size = 0
