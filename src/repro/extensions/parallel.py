"""Prune-aware multi-core skyline computation (Chester et al. [6], extended).

The paper takes its real datasets from Chester et al.'s multicore skyline
study; this module implements the classic two-phase parallel scheme that
work popularised — partition into blocks, compute local skylines in worker
processes, merge the union sequentially — extended with the cross-partition
pruning that partition-parallel skylines need to beat a serial scan
(Kalyvas & Tzouramanis, arXiv:1704.01788):

1. **shared-survivor prefix exchange**: before any local scan, the parent
   selects a small set of guaranteed global skyline points — the first
   mutually non-dominated points along the monotone entropy order
   (:func:`repro.core.prefix.select_prefix`) — and broadcasts it to every
   worker, which vectorised-filters its block against the prefix before
   running the local scan.  Only non-skyline points are ever removed, so
   results stay bit-identical to serial; the redundancy of every block
   re-discovering the same strong points is gone.  Under sort-order
   partitioning the *head* block skips the filter: the prefix points are
   its own rows, so its local skyline is unchanged by the filter, and its
   rows are exactly the strong entropy-head points where the filter's
   per-survivor charge is maximal.
2. **sort-order partitioning**: blocks are cut along the same monotone
   order (shared with workers through a cached shared-memory segment), so
   the head block holds the dense part of the skyline and later blocks are
   mostly cleared by the prefix filter.  On large inputs
   (:data:`_HEAD_SPLIT_MIN_N`) the head region is further subdivided into
   even sub-blocks so its scan — the densest work and the wall-clock
   critical path — spreads across every worker instead of serialising on
   one.
3. **planner-driven sizing**: block bounds come from
   :func:`repro.core.prefix.block_bounds` with a growth factor the planner
   derives from the expected skyline fraction, instead of an even
   ``np.linspace`` split.
4. **seeded merge fast path**: the union of local-skyline ids is built
   with ``np.concatenate`` + ``np.sort`` (:func:`assemble_candidates`),
   and under sort-order partitioning the merge scan is *seeded*: the
   monotone order guarantees a point is never dominated by a later-ranked
   point, so the first sub-block's local skyline points are global skyline
   points outright — they enter the merge container test-free and only
   the other blocks' candidates are scanned against them
   (:func:`_seeded_union_skyline`).

Correctness is immediate: a globally undominated point is undominated in
its own block and never dominated by a prefix point (prefix points are
global skyline points), so the global skyline is a subset of the union of
local skylines.  Dominance tests from the prefix selection, every worker's
filter + scan, and the merge phase are summed into the caller's counter.

Execution model
---------------
Work runs on a persistent :class:`SkylineWorkerPool`.  Instead of pickling
the coordinate array into every worker on every call, the pool copies each
distinct dataset once into a ``multiprocessing.shared_memory`` segment
(plus one segment for its scan order under sort-order partitioning);
workers attach by name and read only their ``[lo, hi)`` slice.  The prefix
itself is a ``size × d`` array of at most a few KB, so it ships inside the
task tuple — cheaper than a segment round-trip.  Repeated calls over the
same dataset reuse the processes and both segments — observable through
:attr:`SkylineWorkerPool.stats`.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import threading
from multiprocessing import shared_memory

import numpy as np

from repro.algorithms.registry import get_algorithm
from repro.core.boost import BoostableHost, SubsetBoost
from repro.core.container import ListContainer, SkylineContainer, SubsetContainer
from repro.core.merge import merge
from repro.core.prefix import (
    block_bounds,
    monotone_order,
    prefix_filter,
    select_prefix,
)
from repro.core.stability import default_threshold
from repro.dataset import Dataset, as_dataset
from repro.errors import InvalidParameterError
from repro.obs.clock import Stopwatch
from repro.obs.events import current_event_log
from repro.obs.histogram import LogHistogram
from repro.obs.trace import current_tracer
from repro.stats.counters import DominanceCounter

__all__ = [
    "SkylineWorkerPool",
    "assemble_candidates",
    "default_workers",
    "get_pool",
    "parallel_skyline",
    "shutdown_pool",
]

#: Segments kept alive per pool before the least recently created is
#: unlinked.  Each segment pins its source array in memory, so the cache is
#: deliberately small — parallel workloads typically hammer one dataset.
_MAX_SEGMENTS = 4

#: Prefix points exchanged when the caller does not size the prefix
#: explicitly.  A handful of strong skyline points already clears the bulk
#: of a block on independent data, while keeping the per-survivor filter
#: charge (one test per prefix point) negligible next to the local scan.
_DEFAULT_PREFIX_SIZE = 16


def default_workers() -> int:
    """Default block/worker count: the host's CPU count, at least 1.

    The former hard cap of 8 is gone — hosts with more cores can use them;
    the planner bounds the *effective* count by block-size estimates
    (:meth:`repro.engine.planner.Planner` keeps blocks above a minimum row
    count), so tiny inputs never shatter into per-core crumbs.
    """
    return max(1, os.cpu_count() or 1)


def assemble_candidates(parts: list[np.ndarray]) -> np.ndarray:
    """The sorted union of per-block survivor ids, as one ``intp`` array.

    Replaces the PR 5 Python-list ``extend(...tolist())`` + ``sorted()``
    assembly with a single ``np.concatenate`` + ``np.sort`` — blocks are
    disjoint, so no dedup pass is needed.
    """
    if not parts:
        return np.empty(0, dtype=np.intp)
    return np.sort(np.concatenate(parts).astype(np.intp, copy=False))


#: A deferred-scan block still runs its local scan when the prefix filter
#: left more than this fraction of its rows: a weakly-filtered block (e.g.
#: anti-correlated data) would otherwise dump near-raw rows on the
#: sequential merge scan and serialise the whole computation.
_DEFER_SURVIVOR_FRACTION = 0.5

#: Minimum rows per head sub-block before the head region is subdivided.
#: The head block's local scan is the densest work in the map phase; below
#: this size the extra per-task overhead outweighs the spread.
_MIN_HEAD_SUB_ROWS = 2048

#: Minimum dataset size before the head region is subdivided at all.
#: Splitting the head trades extra dominance tests (each sub-block loses
#: the pruning of earlier head rows) for map-phase parallelism; measured
#: on UI data the prefix-filter + defer savings only fund that redundancy
#: within the 1.2x serial-DT budget from around this cardinality up
#: (n=400k w=2 lands at 1.35x subdivided vs 1.08x not; n=1M w=4 at 0.87x
#: subdivided).
_HEAD_SPLIT_MIN_N = 500_000


def _shm_local_skyline(
    args: tuple[
        str,
        tuple[int, ...],
        str,
        str | None,
        int,
        int,
        str,
        str,
        np.ndarray | None,
        bool,
    ],
) -> tuple[np.ndarray, int, int, float]:
    """Worker: survivor ids, test count, pruned count and wall time of one block.

    The block is sliced (or gathered through the shared scan order) out of
    the shared segments and copied before they are detached, so the compute
    phase never holds shared pages.  ``prefix`` rows filter the block ahead
    of the local scan; pruned points are charged their early-exit tests and
    never reach the local algorithm.  With ``defer`` set (sort-order
    partitioning, non-head blocks) a well-filtered block skips the local
    scan entirely: its survivors are skyline-dense, so a local scan would
    re-verify points the seeded merge must scan against the head-block
    seeds anyway — the filter is the block's whole map-phase contribution.

    The returned wall time covers the worker-side body (segment slice,
    prefix filter, local scan); the parent folds the per-block times into
    the pool's mergeable block-latency histogram.
    """
    (
        shm_name,
        shape,
        dtype,
        order_name,
        lo,
        hi,
        algorithm,
        prefix,
        defer,
    ) = args
    watch = Stopwatch()
    # Pool workers (fork or spawn) inherit the owner's resource tracker,
    # so attaching re-registers the already-registered name — a set-level
    # no-op.  The owner alone unlinks, on eviction, close() or atexit;
    # unregistering here instead would drop the owner's registration and
    # spam KeyErrors in the tracker (bpo-39959).
    shm = shared_memory.SharedMemory(name=shm_name)
    try:
        values = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
        if order_name is not None:
            order_shm = shared_memory.SharedMemory(name=order_name)
            try:
                order = np.ndarray(
                    (shape[0],), dtype=np.intp, buffer=order_shm.buf
                )
                ids = np.array(order[lo:hi], copy=True)
            finally:
                order_shm.close()
            block = values[ids]  # fancy index: already a fresh copy
        else:
            ids = np.arange(lo, hi, dtype=np.intp)
            block = np.array(values[lo:hi], copy=True)
    finally:
        shm.close()
    counter = DominanceCounter()
    pruned = 0
    rows = block.shape[0]
    if prefix is not None and prefix.shape[0]:
        keep = prefix_filter(block, prefix, counter)
        pruned = int(rows - int(keep.sum()))
        if pruned:
            block = block[keep]
            ids = ids[keep]
    if block.shape[0] == 0:
        return np.empty(0, dtype=np.intp), counter.tests, pruned, watch.elapsed()
    if defer and block.shape[0] <= rows * _DEFER_SURVIVOR_FRACTION:
        return ids, counter.tests, pruned, watch.elapsed()
    result = get_algorithm(algorithm).compute(Dataset(block), counter=counter)
    return ids[result.indices], counter.tests, pruned, watch.elapsed()


class SkylineWorkerPool:
    """A reusable process pool with a shared-memory dataset cache.

    Parameters
    ----------
    workers:
        Minimum pool size; the pool grows (restarting once) if a call needs
        more concurrent blocks.  Defaults to :func:`default_workers`.
    max_segments:
        Distinct datasets cached in shared memory before eviction.

    Attributes
    ----------
    stats:
        Plain-dict counters — ``pool_starts``, ``segments_created``,
        ``segments_reused``, ``order_segments_created`` and
        ``tasks_dispatched`` — so tests and benchmarks can assert that
        repeated calls re-pickle nothing.
    block_histogram:
        A :class:`~repro.obs.histogram.LogHistogram` of per-block worker
        wall times across every dispatch this pool served.  Per-call
        histograms merge in losslessly (:meth:`observe_block_times`), so
        the pool-lifetime p99 equals the histogram of every block ever
        timed.
    """

    def __init__(
        self, workers: int | None = None, max_segments: int = _MAX_SEGMENTS
    ) -> None:
        if workers is not None and workers < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {workers}")
        self._size_hint = workers if workers is not None else default_workers()
        self._max_segments = max(1, max_segments)
        self._pool: mp.pool.Pool | None = None
        self._processes = 0
        # key -> (segment, source array).  The strong reference to the
        # source array pins its id() so the cache key cannot be recycled
        # onto a different array, and dict order gives FIFO eviction.
        self._segments: dict[
            tuple[int, tuple[int, ...], str],
            tuple[shared_memory.SharedMemory, np.ndarray],
        ] = {}
        # Scan-order segments ride alongside their dataset's segment under
        # the same key (created on demand, evicted together): the order is
        # a pure function of the values, so dataset identity keys it too.
        self._order_segments: dict[
            tuple[int, tuple[int, ...], str],
            tuple[shared_memory.SharedMemory, np.ndarray],
        ] = {}
        self._lock = threading.Lock()
        self.stats = {
            "pool_starts": 0,
            "segments_created": 0,
            "segments_reused": 0,
            "order_segments_created": 0,
            "tasks_dispatched": 0,
        }
        self.block_histogram = LogHistogram()

    def observe_block_times(self, histogram: LogHistogram) -> None:
        """Merge one dispatch's per-block wall-time histogram into the pool's.

        Bucket layouts are identical (both default-constructed), so the
        merge is lossless: the pool histogram equals one histogram over
        the concatenation of every block time ever observed.
        """
        with self._lock:
            self.block_histogram.merge(histogram)

    @property
    def processes(self) -> int:
        """Current pool size (0 before the first dispatch)."""
        return self._processes

    def _ensure_pool(self, needed: int) -> mp.pool.Pool:
        target = max(needed, self._size_hint)
        if self._pool is None or self._processes < needed:
            if self._pool is not None:
                self._pool.terminate()
                self._pool.join()
            method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            self._pool = mp.get_context(method).Pool(processes=target)
            self._processes = target
            self.stats["pool_starts"] += 1
        return self._pool

    @staticmethod
    def _key(values: np.ndarray) -> tuple[int, tuple[int, ...], str]:
        return (id(values), values.shape, str(values.dtype))

    def _evict_locked(self, key: tuple[int, tuple[int, ...], str]) -> None:
        shm, _source = self._segments.pop(key)
        shm.close()
        shm.unlink()
        order = self._order_segments.pop(key, None)
        if order is not None:
            order[0].close()
            order[0].unlink()

    def _segment_for(self, values: np.ndarray) -> str:
        key = self._key(values)
        with self._lock:
            cached = self._segments.get(key)
            if cached is not None:
                self.stats["segments_reused"] += 1
                return cached[0].name
            while len(self._segments) >= self._max_segments:
                self._evict_locked(next(iter(self._segments)))
            shm = shared_memory.SharedMemory(
                create=True, size=max(values.nbytes, 1)
            )
            np.ndarray(values.shape, dtype=values.dtype, buffer=shm.buf)[
                ...
            ] = values
            self._segments[key] = (shm, values)
            self.stats["segments_created"] += 1
            return shm.name

    def _order_segment_for(self, values: np.ndarray, order: np.ndarray) -> str:
        """The shared segment holding ``values``'s scan order, cached.

        ``order`` must be the canonical monotone order of ``values``
        (:func:`repro.core.prefix.monotone_order`) — it is a pure function
        of the values, so the segment is keyed and cached by dataset
        identity exactly like the values segment, and a recomputed but
        identical order array hits the cache.
        """
        key = self._key(values)
        with self._lock:
            cached = self._order_segments.get(key)
            if cached is not None:
                return cached[0].name
            contiguous = np.ascontiguousarray(order, dtype=np.intp)
            shm = shared_memory.SharedMemory(
                create=True, size=max(contiguous.nbytes, 1)
            )
            np.ndarray(contiguous.shape, dtype=np.intp, buffer=shm.buf)[
                ...
            ] = contiguous
            self._order_segments[key] = (shm, contiguous)
            self.stats["order_segments_created"] += 1
            return shm.name

    def map_blocks(
        self,
        values: np.ndarray,
        pairs: list[tuple[int, int]],
        algorithm: str,
        order: np.ndarray | None = None,
        prefix: np.ndarray | None = None,
        filter_head: bool = True,
        defer_tail: bool = False,
        head_blocks: int = 1,
        processes: int | None = None,
    ) -> list[tuple[np.ndarray, int, int, float]]:
        """Survivor ids of each ``(lo, hi)`` block, with test/pruned counts
        and the block's worker-side wall time.

        ``order`` switches the blocks from row ranges to ranges of the
        shared scan order; ``prefix`` rows filter every block worker-side
        before its local scan.  ``filter_head=False`` exempts the first
        block — under sort-order partitioning the prefix points are head
        rows, so the head's local skyline is provably unchanged by the
        filter and only its charge would remain.  ``defer_tail=True`` lets
        every block from index ``head_blocks`` on skip its local scan when
        the filter pruned well (see :data:`_DEFER_SURVIVOR_FRACTION`); the
        deferred survivors are resolved once by the caller's seeded merge.
        The first ``head_blocks`` tasks (the subdivided head region) always
        run their local scans — their survivors feed the merge directly.
        ``processes`` caps the pool size; surplus tasks queue behind the
        cap instead of growing the pool.
        """
        name = self._segment_for(values)
        order_name = (
            self._order_segment_for(values, order) if order is not None else None
        )
        shape, dtype = values.shape, str(values.dtype)
        tasks = [
            (
                name,
                shape,
                dtype,
                order_name,
                int(lo),
                int(hi),
                algorithm,
                prefix if (filter_head or index > 0) else None,
                defer_tail and index >= head_blocks,
            )
            for index, (lo, hi) in enumerate(pairs)
        ]
        needed = len(tasks) if processes is None else min(len(tasks), processes)
        pool = self._ensure_pool(needed)
        self.stats["tasks_dispatched"] += len(tasks)
        return pool.map(_shm_local_skyline, tasks)

    def close(self) -> None:
        """Terminate the processes and unlink every cached segment."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            self._processes = 0
        with self._lock:
            for shm, _source in self._segments.values():
                shm.close()
                shm.unlink()
            self._segments.clear()
            for shm, _source in self._order_segments.values():
                shm.close()
                shm.unlink()
            self._order_segments.clear()

    def __enter__(self) -> "SkylineWorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


_default_pool: SkylineWorkerPool | None = None
_default_pool_lock = threading.Lock()


def get_pool(workers: int | None = None) -> SkylineWorkerPool:
    """The process-wide default pool, created on first use."""
    global _default_pool
    with _default_pool_lock:
        if _default_pool is None:
            _default_pool = SkylineWorkerPool(workers)
        return _default_pool


def shutdown_pool() -> None:
    """Tear down the default pool (idempotent; registered with atexit)."""
    global _default_pool
    with _default_pool_lock:
        if _default_pool is not None:
            _default_pool.close()
            _default_pool = None


atexit.register(shutdown_pool)


def _seeded_union_skyline(
    union: Dataset,
    seed_positions: np.ndarray,
    merge_algorithm: str,
    counter: DominanceCounter,
) -> np.ndarray | None:
    """Skyline of ``union`` with ``seed_positions`` accepted test-free.

    ``seed_positions`` (union-local row indices, strongest first) must be
    known global skyline points — under sort-order partitioning the head
    block's local skyline qualifies: the monotone order guarantees no
    later-ranked point dominates an earlier-ranked one, so a point
    undominated within the head block is undominated globally.  Seeds are
    planted in the scan container before any test; only the non-seed rows
    are scanned, and every dominator a scanned row can have is either a
    Merge pivot (excluded from the remaining set by construction), a seed,
    or an earlier-ranked scanned skyline point the host has already
    accepted — so the returned id set is exactly the unseeded skyline.

    Returns ``None`` when ``merge_algorithm`` resolves to an algorithm
    without the boostable scan contract (no seedable container); the
    caller falls back to the unseeded merge.
    """
    algorithm = get_algorithm(merge_algorithm)
    n, d = union.cardinality, union.dimensionality
    tracer = current_tracer()

    if isinstance(algorithm, SubsetBoost) and d >= 2:
        sigma = (
            algorithm.sigma if algorithm.sigma is not None else default_threshold(d)
        )
        merged = merge(
            union, sigma, counter, pivot_strategy=algorithm.pivot_strategy
        )
        skyline = np.asarray(merged.initial_skyline_ids, dtype=np.intp)
        if merged.remaining_ids.size == 0:
            return skyline
        masks = np.zeros(n, dtype=np.int64)
        masks[merged.remaining_ids] = merged.masks
        store: SkylineContainer
        if algorithm.container == "subset":
            store = SubsetContainer(union.values, d, counter)
        else:
            store = ListContainer(union.values)
        remaining = np.zeros(n, dtype=bool)
        remaining[merged.remaining_ids] = True
        # Seeds still in the remaining set enter the container directly
        # (seeds pruned by Merge are pivots or pivot duplicates — already
        # in the initial skyline).  Strongest-first insertion keeps the
        # early-exit scans over returned candidate blocks cheap.
        seeds = seed_positions[remaining[seed_positions]]
        scan_mask = remaining
        scan_mask[seed_positions] = False
        scan_ids = np.flatnonzero(scan_mask)
        for position in seeds.tolist():
            store.add(position, int(masks[position]))
        host = algorithm.host
        scan_skyline: list[int] = []
        if scan_ids.size:
            with tracer.span(
                "scan",
                counter=counter,
                host=host.name,
                container=algorithm.container,
                points=int(scan_ids.size),
                seeded=int(seeds.size),
                boosted=True,
            ):
                scan_skyline = host.run_phase(
                    union, scan_ids, masks, store, counter
                )
        return np.concatenate(
            [skyline, seeds, np.asarray(scan_skyline, dtype=np.intp)]
        )

    host = algorithm.host if isinstance(algorithm, SubsetBoost) else algorithm
    if not isinstance(host, BoostableHost):
        return None
    masks = np.zeros(n, dtype=np.int64)
    container = ListContainer(union.values)
    for position in seed_positions.tolist():
        container.add(position, 0)
    scan_mask = np.ones(n, dtype=bool)
    scan_mask[seed_positions] = False
    scan_ids = np.flatnonzero(scan_mask)
    scan_skyline = []
    if scan_ids.size:
        with tracer.span(
            "scan",
            counter=counter,
            host=host.name,
            container="list",
            points=int(scan_ids.size),
            seeded=int(seed_positions.size),
            boosted=False,
        ):
            scan_skyline = host.run_phase(
                union, scan_ids, masks, container, counter
            )
    return np.concatenate(
        [seed_positions, np.asarray(scan_skyline, dtype=np.intp)]
    )


def parallel_skyline(
    data: Dataset | np.ndarray,
    workers: int | None = None,
    algorithm: str = "sfs",
    merge_algorithm: str = "sfs",
    counter: DominanceCounter | None = None,
    pool: SkylineWorkerPool | None = None,
    partition: str = "sorted",
    prefix_size: int | None = None,
    block_growth: float = 1.0,
    order: np.ndarray | None = None,
) -> np.ndarray:
    """Compute the skyline with ``workers`` processes; returns sorted row ids.

    Parameters
    ----------
    workers:
        Number of blocks / worker processes; ``1`` runs sequentially.
        Defaults to :func:`default_workers` (the CPU count).
    algorithm:
        Sequential algorithm used for each block's local skyline.
    merge_algorithm:
        Algorithm used for the final skyline over the union of local
        skylines.
    pool:
        A :class:`SkylineWorkerPool` to run on; defaults to the shared
        process-wide pool, so consecutive calls reuse workers and the
        dataset's shared-memory segments.
    partition:
        ``"sorted"`` (default) cuts blocks along the monotone entropy
        order so the skyline-dense head lands in the first block;
        ``"even"`` is the PR 5 row-range split.
    prefix_size:
        Shared-survivor prefix points broadcast to every worker; ``0``
        disables the exchange, ``None`` uses the default
        (:data:`_DEFAULT_PREFIX_SIZE`).  The prefix is selected from the
        monotone order, so its points are guaranteed global skyline points
        and the result is bit-identical to serial for any size.
    block_growth:
        Geometric block-size growth along the partition order (see
        :func:`repro.core.prefix.block_bounds`); ``1.0`` is an even split.
    order:
        A precomputed :func:`repro.core.prefix.monotone_order` of the
        values (e.g. a :class:`~repro.engine.prepared.PreparedDataset`
        artefact); computed on the fly when omitted.
    """
    dataset = as_dataset(data)
    if workers is None:
        workers = default_workers()
    if workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")
    if partition not in ("sorted", "even"):
        raise InvalidParameterError(
            f"partition must be 'sorted' or 'even', got {partition!r}"
        )
    if prefix_size is not None and prefix_size < 0:
        raise InvalidParameterError(
            f"prefix_size must be >= 0, got {prefix_size}"
        )
    counter = counter if counter is not None else DominanceCounter()
    n = dataset.cardinality
    workers = min(workers, n)

    if workers == 1:
        return get_algorithm(algorithm).compute(dataset, counter=counter).indices

    tracer = current_tracer()
    values = dataset.values
    size = _DEFAULT_PREFIX_SIZE if prefix_size is None else prefix_size
    size = min(size, n)

    with tracer.span(
        "parallel.prefix",
        counter=counter,
        partition=partition,
        prefix_size=size,
        n=n,
    ) as prefix_span:
        need_order = partition == "sorted" or size > 0
        if order is None and need_order:
            order = monotone_order(values)
        if size > 0:
            assert order is not None
            prefix_ids = select_prefix(values, order, size, counter)
            prefix = np.array(values[prefix_ids], copy=True)
        else:
            prefix = None
        prefix_span.set(prefix_points=0 if prefix is None else len(prefix))

    pairs = block_bounds(n, workers, block_growth)
    head_blocks = 1
    if partition == "sorted":
        # Subdivide the head region into even sub-blocks: the head holds
        # the skyline-dense rows whose local scan dominates the map
        # phase's wall clock, and an even split spreads it across every
        # worker.  Only the first sub-block skips the prefix filter (its
        # rows contain the prefix points); none of them ever defer —
        # their local skylines feed the seeded merge.
        head_lo, head_hi = pairs[0]
        head_rows = head_hi - head_lo
        splits = min(workers, max(1, head_rows // _MIN_HEAD_SUB_ROWS))
        if n < _HEAD_SPLIT_MIN_N:
            splits = 1
        if splits > 1:
            pairs = [
                (head_lo + lo, head_lo + hi)
                for lo, hi in block_bounds(head_rows, splits, 1.0)
            ] + pairs[1:]
            head_blocks = splits
    pool = pool if pool is not None else get_pool(workers)
    events = current_event_log()
    if events.enabled:
        events.emit(
            "pool.dispatch",
            blocks=len(pairs),
            workers=workers,
            algorithm=algorithm,
            partition=partition,
            n=n,
        )
    with tracer.span(
        "parallel.map",
        counter=counter,
        blocks=len(pairs),
        head_blocks=head_blocks,
        algorithm=algorithm,
        partition=partition,
        n=n,
    ) as map_span:
        locals_ = pool.map_blocks(
            values,
            pairs,
            algorithm,
            order=order if partition == "sorted" else None,
            prefix=prefix,
            filter_head=partition != "sorted",
            defer_tail=partition == "sorted",
            head_blocks=head_blocks,
            processes=workers,
        )
        parts: list[np.ndarray] = []
        pruned_total = 0
        block_times = LogHistogram()
        for block_ids, tests, pruned, block_wall_s in locals_:
            counter.add(tests)
            parts.append(block_ids)
            pruned_total += pruned
            block_times.add(block_wall_s)
        # Per-block latencies merge losslessly into the pool-lifetime
        # histogram (identical bucket layouts), so pool.block_histogram
        # reports the true p99 across every dispatch it ever served.
        pool.observe_block_times(block_times)
        candidates = assemble_candidates(parts)
        map_span.set(
            candidates=int(candidates.size),
            pruned_by_prefix=pruned_total,
            block_wall_p50_s=block_times.quantile(0.5),
            block_wall_max_s=block_times.max,
        )

    if len(parts) == 1:
        # A single non-empty block covered the whole dataset: its local
        # skyline is already the global skyline, nothing to merge.
        return candidates

    with tracer.span(
        "parallel.merge",
        counter=counter,
        candidates=int(candidates.size),
        algorithm=merge_algorithm,
    ) as merge_span:
        local_skyline: np.ndarray | None = None
        seed_positions: np.ndarray | None = None
        if partition == "sorted":
            # First-sub-block survivors are global skyline points (the
            # monotone order admits no later-ranked dominator), so they
            # seed the merge container test-free — strongest rank first —
            # and only the other blocks' candidates are scanned.
            head = np.sort(parts[0])
            assert order is not None
            rank = np.empty(n, dtype=np.intp)
            rank[order] = np.arange(n, dtype=np.intp)
            seed_positions = np.searchsorted(candidates, head)
            seed_positions = seed_positions[np.argsort(rank[head])]
            merge_span.set(seeds=int(seed_positions.size))
        union = Dataset(
            dataset.values[candidates], name=f"{dataset.name}[union]"
        )
        if seed_positions is not None:
            local_skyline = _seeded_union_skyline(
                union, seed_positions, merge_algorithm, counter
            )
        if local_skyline is None:
            merged = get_algorithm(merge_algorithm).compute(union, counter=counter)
            local_skyline = np.asarray(merged.indices, dtype=np.intp)
    return np.sort(candidates[local_skyline])
