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

Memoization
-----------
During a boosted scan the number of *distinct* query subspaces is far
smaller than the number of testing points, so repeated queries are the
common case.  The index therefore keeps a per-subspace result cache with
generation-based invalidation:

- every ``put``/``remove`` advances :attr:`generation`;
- a ``put`` is appended to an in-order log, and a stale cache entry is
  *repaired* by scanning only the log suffix it has not yet incorporated
  (a put can only ever append candidates to a superset query's result);
- a ``remove`` (or ``clear``) advances the *epoch*, discarding every
  cached entry wholesale — removals are rare (streaming only), appends
  are the hot path.

Query results are canonically ordered by **insertion sequence** (the order
points were ``put``), which is what makes log-repair a pure append and is
also the natural candidate order for sorted scans: earlier-confirmed
skyline points have lower sort keys and are the strongest dominators.
Memoized and unmemoized queries return bit-identical lists, so every
dominance test charged downstream is identical; only
``index_nodes_visited`` differs (a cache hit touches no tree nodes).

Built with the dataset's value matrix, the index also *fuses* the
candidate-row gather into the cache (:meth:`SkylineIndex.candidates`):
each memoized entry carries the gathered rows beside its ids, stored
column-major and repaired together from the put-log suffix, so a boosted
scan's testing point costs one dict probe for both.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TypeVar

import numpy as np

from repro.errors import DimensionMismatchError, InvalidParameterError
from repro.obs.clock import timed
from repro.obs.trace import current_tracer
from repro.stats.counters import DominanceCounter
from repro.structures import bitset

#: Under an enabled tracer, one in this many index queries is timed and
#: recorded as an ``index.query`` span.  Sampling bounds tracing overhead:
#: a boosted scan issues one query per testing point, so tracing each one
#: would dominate the cost being measured.
_TRACE_SAMPLE = 64

_Result = TypeVar("_Result", list[int], tuple[np.ndarray, np.ndarray])


class _Node:
    """One key-value pair of Figure 3: a point bucket plus sub-maps."""

    __slots__ = ("points", "seqs", "children")

    def __init__(self) -> None:
        self.points: list[int] = []
        self.seqs: list[int] = []
        self.children: dict[int, _Node] = {}


class CandidateBuffer:
    """Candidate ids and their rows, grown append-only in lockstep.

    The ids live in an amortised-doubling ``intp`` buffer.  With a value
    matrix, ``cols`` holds the gathered rows column-major, ``(d,
    capacity)``: a dominance test then reduces over ``d`` contiguous
    columns.  Callers receive views of the buffer prefixes — appends only
    ever touch positions beyond every view handed out so far, and growth
    moves to a fresh buffer, so a view handed out never changes.
    """

    __slots__ = ("buf", "cols", "size")

    def __init__(self, ids: list[int], values: np.ndarray | None) -> None:
        arr = np.asarray(ids, dtype=np.intp)
        self.size = arr.shape[0]
        self.buf = np.empty(max(4, self.size), dtype=np.intp)
        self.buf[: self.size] = arr
        self.cols: np.ndarray | None = None
        if values is not None:
            self.cols = np.empty((values.shape[1], self.buf.shape[0]))
            self.cols[:, : self.size] = values[arr].T

    def extend(self, new_ids: np.ndarray, values: np.ndarray | None) -> None:
        grown = self.size + new_ids.shape[0]
        if grown > self.buf.shape[0]:
            capacity = max(grown, 2 * self.buf.shape[0])
            buf = np.empty(capacity, dtype=np.intp)
            buf[: self.size] = self.buf[: self.size]
            self.buf = buf
            if self.cols is not None:
                cols = np.empty((self.cols.shape[0], capacity))
                cols[:, : self.size] = self.cols[:, : self.size]
                self.cols = cols
        self.buf[self.size : grown] = new_ids
        if self.cols is not None:
            self.cols[:, self.size : grown] = values[new_ids].T  # type: ignore[index]
        self.size = grown

    def ids_list(self) -> list[int]:
        return self.buf[: self.size].tolist()

    def array(self) -> np.ndarray:
        view = self.buf[: self.size]
        view.flags.writeable = False
        return view

    def rows(self) -> np.ndarray:
        """The rows as a ``(size, d)`` view: ``rows()[k]`` is ``values[ids[k]]``."""
        return self.cols[:, : self.size].T  # type: ignore[index]


class _CacheEntry(CandidateBuffer):
    """Memoized result of one query subspace.

    A :class:`CandidateBuffer` of the query's result, valid within one
    index ``epoch``; ``log_pos`` marks how much of the index's put-log it
    has incorporated.
    """

    __slots__ = ("epoch", "log_pos")

    def __init__(
        self, epoch: int, log_pos: int, ids: list[int], values: np.ndarray | None
    ) -> None:
        super().__init__(ids, values)
        self.epoch = epoch
        self.log_pos = log_pos


class SkylineIndex:
    """Hash-map prefix tree answering reversed subset queries over subspaces.

    Parameters
    ----------
    d:
        Dimensionality of the space; subspace masks must fit in ``d`` bits.
    memoize:
        Keep the per-subspace result cache (default).  ``False`` forces a
        full tree traversal on every query — the scalar reference path used
        by the differential tests and the throughput benchmark baseline.
    values:
        Optional ``(n, d)`` value matrix the stored ids index.  When given,
        :meth:`candidates` serves each query's ids together with their
        gathered rows; ``None`` builds an id-only index.

    >>> idx = SkylineIndex(d=4)
    >>> idx.put(7, subspace=0b0011)   # D = {0, 1}, stored under D^¬ = {2, 3}
    >>> idx.put(9, subspace=0b0111)   # D = {0, 1, 2}, stored under {3}
    >>> sorted(idx.query(0b0011))     # supersets of {0, 1}: both points
    [7, 9]
    >>> idx.query(0b0111)             # supersets of {0, 1, 2}: only point 9
    [9]
    """

    def __init__(
        self, d: int, memoize: bool = True, values: np.ndarray | None = None
    ) -> None:
        if d < 1:
            raise InvalidParameterError(f"dimensionality must be >= 1, got {d}")
        self._d = d
        self._memoize = memoize
        self._values = values
        self._root = _Node()
        self._size = 0
        self._seq = 0
        self._generation = 0
        self._epoch = 0
        # The put-log as parallel growing arrays, so stale cache entries
        # repair themselves with one vectorised superset test over the
        # unseen suffix instead of a Python loop.
        self._log_pids = np.empty(16, dtype=np.intp)
        self._log_subs = np.empty(16, dtype=np.int64)
        self._log_size = 0
        self._cache: dict[int, _CacheEntry] = {}
        self._hits = 0
        self._misses = 0
        self._invalidations = 0
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

    @property
    def memoized(self) -> bool:
        """Whether the per-subspace result cache is active."""
        return self._memoize

    @property
    def generation(self) -> int:
        """Monotone change counter: advances on every ``put``/``remove``."""
        return self._generation

    @property
    def epoch(self) -> int:
        """Advances on ``remove``/``clear`` — changes that can *shrink* or
        reorder query results, invalidating append-only derived views."""
        return self._epoch

    def __len__(self) -> int:
        """Number of stored points."""
        return self._size

    def put(self, point_id: int, subspace: int) -> None:
        """Algorithm 2: store ``point_id`` under its maximum dominating subspace.

        Walks the reversed subspace's dimensions in increasing order,
        creating nodes on demand, and appends the point to the final node.
        A full-space subspace lands on the root node (empty path).
        """
        reversed_mask = self._reversed(subspace)
        node = self._root
        for dim in bitset.bits_of(reversed_mask):
            child = node.children.get(dim)
            if child is None:
                child = _Node()
                node.children[dim] = child
            node = child
        node.points.append(point_id)
        node.seqs.append(self._seq)
        self._seq += 1
        self._size += 1
        self._generation += 1
        if self._memoize:
            n = self._log_size
            if n == self._log_pids.shape[0]:
                self._log_pids = np.concatenate(
                    [self._log_pids, np.empty_like(self._log_pids)]
                )
                self._log_subs = np.concatenate(
                    [self._log_subs, np.empty_like(self._log_subs)]
                )
            self._log_pids[n] = point_id
            self._log_subs[n] = subspace
            self._log_size = n + 1

    def query(self, subspace: int, counter: DominanceCounter | None = None) -> list[int]:
        """Algorithms 3–4: all points whose subspace ⊇ ``subspace``.

        Results are ordered by insertion sequence.  On a cache miss (or
        with ``memoize=False``) the reversed-subspace paths are traversed
        and node visits are recorded on ``counter`` (they are index
        accesses, *not* dominance tests); a cache hit touches no nodes and
        records zero visits.
        """
        if self._trace_every and self._sample():
            return self._traced(self._query, subspace, counter)
        return self._query(subspace, counter)

    def candidates(
        self, subspace: int, counter: DominanceCounter | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fused query: ``(ids, rows)`` with the candidate rows gathered.

        ``ids`` is :meth:`query`'s result as a read-only ``intp`` array and
        ``rows[k]`` is ``values[ids[k]]``; accounting is identical.  The
        memoized path serves both from one cache probe, ``rows`` as the
        transpose of a column-major buffer.  Requires an index built with
        ``values``.
        """
        if self._values is None:
            raise InvalidParameterError(
                "candidates() needs the value matrix; this index was built "
                "id-only (values=None) — use query() instead"
            )
        if self._trace_every and self._sample():
            return self._traced(self._candidates, subspace, counter)
        return self._candidates(subspace, counter)

    def _query(
        self, subspace: int, counter: DominanceCounter | None
    ) -> list[int]:
        if not self._memoize:
            reversed_mask = self._reversed(subspace)
            ids, visited = self._traverse(reversed_mask)
            if counter is not None:
                counter.add_query(visited)
            return ids
        return self._entry(subspace, counter).ids_list()

    def _candidates(
        self, subspace: int, counter: DominanceCounter | None
    ) -> tuple[np.ndarray, np.ndarray]:
        if not self._memoize:
            # The reference path: a tree walk, then a fresh gather.
            ids = np.asarray(self._query(subspace, counter), dtype=np.intp)
            ids.flags.writeable = False
            return ids, self._values[ids]  # type: ignore[index]
        entry = self._entry(subspace, counter)
        return entry.array(), entry.rows()

    def _traced(
        self,
        fetch: Callable[[int, DominanceCounter | None], _Result],
        subspace: int,
        counter: DominanceCounter | None,
    ) -> _Result:
        """Run one sampled query under the tracer as an ``index.query`` span."""
        result, elapsed = timed(lambda: fetch(subspace, counter))
        ids = result[0] if isinstance(result, tuple) else result
        self._tracer.record(
            "index.query",
            elapsed,
            subspace=subspace,
            results=len(ids),
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

    def _entry(self, subspace: int, counter: DominanceCounter | None) -> _CacheEntry:
        """The up-to-date cache entry for ``subspace`` (memoized path)."""
        entry = self._cache.get(subspace)
        if entry is not None and entry.epoch == self._epoch:
            log_size = self._log_size
            pos = entry.log_pos
            if pos < log_size:
                match = bitset.subset_of_many(
                    subspace, self._log_subs[pos:log_size]
                )
                new_ids = self._log_pids[pos:log_size][match]
                if new_ids.shape[0]:
                    entry.extend(new_ids, self._values)
                entry.log_pos = log_size
            self._hits += 1
            if counter is not None:
                counter.add_query(0)
                counter.add_cache_hit()
            return entry
        invalidated = 0
        if entry is not None:
            invalidated = 1
            self._invalidations += 1
        reversed_mask = self._reversed(subspace)
        ids, visited = self._traverse(reversed_mask)
        entry = _CacheEntry(self._epoch, self._log_size, ids, self._values)
        self._cache[subspace] = entry
        self._misses += 1
        if counter is not None:
            counter.add_query(visited)
            counter.add_cache_miss(invalidated)
        return entry

    def _traverse(self, reversed_mask: int) -> tuple[list[int], int]:
        """Full tree walk: insertion-ordered ids plus nodes visited."""
        collected: list[tuple[int, int]] = []
        visited = self._collect(self._root, reversed_mask, collected)
        collected.sort()
        return [point_id for _, point_id in collected], visited

    def _collect(
        self, node: _Node, reversed_mask: int, out: list[tuple[int, int]]
    ) -> int:
        out.extend(zip(node.seqs, node.points))
        visited = 1
        for dim, child in node.children.items():
            if bitset.has_dim(reversed_mask, dim):
                visited += self._collect(child, reversed_mask, out)
        return visited

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
        so keeping them avoids re-allocation churn.  The whole result
        cache is invalidated (epoch advance): repairs only model appends.
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
        try:
            position = node.points.index(point_id)
        except ValueError:
            raise KeyError(
                f"point {point_id} not stored under subspace {subspace:#x}"
            ) from None
        node.points.pop(position)
        node.seqs.pop(position)
        self._size -= 1
        self._generation += 1
        self._invalidate_all()

    def _invalidate_all(self) -> None:
        self._invalidations += len(self._cache)
        self._cache.clear()
        self._log_size = 0
        self._epoch += 1

    def cache_stats(self) -> dict[str, int]:
        """Lifetime memoization statistics of this index instance."""
        return {
            "hits": self._hits,
            "misses": self._misses,
            "invalidations": self._invalidations,
            "entries": len(self._cache),
        }

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
        """Drop all stored points, nodes and cached query results."""
        self._root = _Node()
        self._size = 0
        self._generation += 1
        self._invalidate_all()
