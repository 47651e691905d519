"""Algorithm base classes, result type and the shared sort-and-scan template.

Every algorithm exposes ``compute(data, counter=None) -> SkylineResult``.
Sorting-based algorithms additionally implement the boostable
``run_phase(dataset, ids, masks, container, counter)`` hook consumed by
:class:`repro.core.boost.SubsetBoost`: the scan's skyline store is an
abstract :class:`~repro.core.container.SkylineContainer`, so swapping the
plain list for the subset index changes nothing else about the algorithm —
exactly the paper's "container" framing.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Iterator, MutableMapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.container import ListContainer, SkylineContainer, presorted_scan
from repro.core.settle import settle
from repro.dataset import Dataset, as_dataset
from repro.dominance import first_dominator, scan_order
from repro.obs.clock import timed
from repro.obs.trace import current_tracer
from repro.stats.counters import DominanceCounter

if TYPE_CHECKING:  # import cycle: the engine executes these algorithms
    from repro.engine.plan import Plan
    from repro.obs.trace import Trace


@dataclass(frozen=True)
class SkylineResult:
    """The outcome of one skyline computation.

    Attributes
    ----------
    indices:
        Sorted original row ids of the skyline points.
    algorithm:
        Name of the algorithm that produced the result.
    dominance_tests:
        Exact number of point-pair dominance tests performed.
    elapsed_seconds:
        Wall-clock time of the computation.
    cardinality:
        Dataset size ``N`` (denominator of the mean-DT metric).
    counter:
        The full :class:`DominanceCounter` of the run — index traversal
        and cache counters included — so callers can audit the work done,
        not just the headline test count.
    plan:
        The :class:`~repro.engine.plan.Plan` that produced this result
        when the run went through :class:`~repro.engine.SkylineEngine`;
        ``None`` for direct algorithm calls.
    trace:
        The :class:`~repro.obs.trace.Trace` of the run when the engine's
        context carried an enabled :class:`~repro.obs.trace.Tracer`;
        ``None`` otherwise (the default ``NullTracer`` records nothing).
    """

    indices: np.ndarray
    algorithm: str
    dominance_tests: int
    elapsed_seconds: float
    cardinality: int
    counter: DominanceCounter = field(repr=False, default_factory=DominanceCounter)
    plan: "Plan | None" = field(repr=False, default=None)
    trace: "Trace | None" = field(repr=False, default=None)

    @property
    def size(self) -> int:
        """Number of skyline points."""
        return int(self.indices.shape[0])

    @property
    def mean_dominance_tests(self) -> float:
        """The paper's DT metric: total tests / N."""
        return self.dominance_tests / self.cardinality

    def __contains__(self, point_id: int) -> bool:
        return bool(np.isin(point_id, self.indices))


def run_timed(
    name: str,
    data: Dataset | np.ndarray,
    counter: DominanceCounter | None,
    body: Callable[[Dataset, DominanceCounter], list[int]],
) -> SkylineResult:
    """Shared compute wrapper: coerce input, time the body, package a result."""
    dataset = as_dataset(data)
    run_counter = counter if counter is not None else DominanceCounter()
    return timed_result(
        name, dataset.cardinality, run_counter, lambda: body(dataset, run_counter)
    )


def timed_result(
    name: str,
    cardinality: int,
    counter: DominanceCounter,
    body: Callable[[], list[int]],
) -> SkylineResult:
    """Time ``body``, check its ids are distinct, and package a result."""
    ids, elapsed = timed(body)
    indices = np.asarray(ids, dtype=np.intp)
    if not bool((indices[1:] > indices[:-1]).all()):
        # Already-ascending ids (the common case) skip the sort.
        indices = np.unique(indices)
    if indices.size != len(ids):
        raise AssertionError(f"{name} returned duplicate skyline ids")
    return SkylineResult(
        indices=indices,
        algorithm=name,
        dominance_tests=counter.tests,
        elapsed_seconds=elapsed,
        cardinality=cardinality,
        counter=counter,
    )


class SkylineAlgorithm(ABC):
    """Common interface of every skyline algorithm in the library."""

    name: str = "abstract"

    #: Whether this algorithm's ``run_phase`` (if any) accepts a
    #: ``sort_cache`` mapping for amortizing its sort phase across repeated
    #: runs.  The engine only threads a cache through hosts that opt in.
    supports_sort_cache: bool = False

    def compute(
        self,
        data: Dataset | np.ndarray,
        counter: DominanceCounter | None = None,
    ) -> SkylineResult:
        """Compute the skyline of ``data`` under minimisation preference."""
        return run_timed(self.name, data, counter, self._run)

    @abstractmethod
    def _run(self, dataset: Dataset, counter: DominanceCounter) -> list[int]:
        """Return the skyline point ids (any order, no duplicates)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def _progressive_scan(
    algorithm: "SortScanAlgorithm",
    data: Dataset | np.ndarray,
    counter: DominanceCounter | None,
) -> Iterator[int]:
    dataset = as_dataset(data)
    counter = counter if counter is not None else DominanceCounter()
    ids = np.arange(dataset.cardinality, dtype=np.intp)
    order = algorithm.sort_ids(dataset.values, ids)
    yield from presorted_scan(dataset.values, order, counter)


class _ProgressiveMixin:
    """Progressive (online) skyline output for presorted scans.

    Sorting-based algorithms emit skyline points as they are confirmed —
    the property §1 highlights ("sorting-based skyline algorithms ... can
    progressively output the skyline points").  ``progressive`` exposes
    that as a generator: consume the first ``k`` results without paying
    for the rest of the scan.
    """

    def progressive(
        self,
        data: Dataset | np.ndarray,
        counter: DominanceCounter | None = None,
    ) -> Iterator[int]:
        """Yield skyline ids in scan order; stop consuming any time.

        Uses the plain presorted scan (no stop-point shortcuts), so the
        yielded set is always the complete skyline if fully consumed.
        """
        assert isinstance(self, SortScanAlgorithm)
        return _progressive_scan(self, data, counter)


class SortScanAlgorithm(SkylineAlgorithm, _ProgressiveMixin):
    """Template for presort-and-scan algorithms (SFS, LESS, SaLSa, Z-order).

    Subclasses supply :meth:`sort_ids` (a monotone order: a dominator always
    precedes the points it dominates) and optionally override
    :meth:`run_phase` for scans with extra machinery (stop points, EF
    windows).  The default scan is the SFS loop: test each point against the
    container's candidates; survivors join the container.
    """

    #: ``run_phase`` accepts an optional ``sort_cache`` mapping that stores
    #: the computed scan order (and any derived sort-phase state) so a
    #: :class:`~repro.engine.prepared.PreparedDataset` can amortize the sort
    #: phase across repeated queries over the same (dataset, merge) pair.
    supports_sort_cache = True

    def _run(self, dataset: Dataset, counter: DominanceCounter) -> list[int]:
        ids = np.arange(dataset.cardinality, dtype=np.intp)
        masks = np.zeros(dataset.cardinality, dtype=np.int64)
        container = ListContainer(dataset.values)
        return self.run_phase(dataset, ids, masks, container, counter)

    @abstractmethod
    def sort_ids(self, values: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Return ``ids`` reordered by the algorithm's monotone sort key."""

    def sort_keyer(self) -> Callable[[np.ndarray, np.ndarray], np.ndarray] | None:
        """Optional key decomposition of :meth:`sort_ids`.

        When a host's order is ``ids[scan_order(values[ids], keys)]`` it may
        return a callable producing those ``keys``, aligned with ``ids``;
        ``cached_sort_order`` then caches the key array alongside the
        order, which is what makes the lazy delta repair possible — after a
        mutation only the appended rows need fresh keys.  ``None`` (the
        default) keeps the opaque ``sort_ids`` path.
        """
        return None

    def run_phase(
        self,
        dataset: Dataset,
        ids: np.ndarray,
        masks: np.ndarray,
        container: SkylineContainer,
        counter: DominanceCounter,
        sort_cache: MutableMapping[str, object] | None = None,
    ) -> list[int]:
        """Presorted scan over ``ids`` using ``container`` as skyline store.

        ``sort_cache`` (when provided) must be private to one
        ``(algorithm-configuration, dataset, ids)`` triple; the scan order
        is read from it instead of re-sorting when present.
        """
        values = dataset.values
        order = cached_sort_order(
            sort_cache, self.sort_ids, values, ids, keyer=self.sort_keyer()
        )
        return sorted_scan(values, order, masks, container, counter)


def sorted_scan(
    values: np.ndarray,
    order: np.ndarray,
    masks: np.ndarray,
    container: SkylineContainer,
    counter: DominanceCounter,
) -> list[int]:
    """The SFS scan of the presorted ids ``order``; skyline ids in scan order.

    Over a ``by_subspace`` container the scan is settled one subspace
    group at a time (:func:`~repro.core.settle.settle`), with the ids and
    charges of the per-point loop.  Over any other container it is that
    loop: test each point against the container's candidates, and add the
    survivors.  The loop body is deliberately thin: the container serves
    each point's candidates as one contiguous block, and the per-point
    mask/id conversions are hoisted into single ``tolist`` passes so no
    numpy scalars are boxed per point.
    """
    if container.by_subspace:
        survives, charges = settle(values, order, masks, container)
        counter.add(int(charges.sum()))
        return order[survives].tolist()
    masks_list = masks.tolist()
    skyline: list[int] = []
    for point_id in order.tolist():
        mask = masks_list[point_id]
        _, block = container.candidates(mask)
        if first_dominator(block, values[point_id], counter) == -1:
            skyline.append(point_id)
            container.add(point_id, mask)
    return skyline


def cached_sort_order(
    sort_cache: MutableMapping[str, object] | None,
    sorter: Callable[[np.ndarray, np.ndarray], np.ndarray],
    values: np.ndarray,
    ids: np.ndarray,
    keyer: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Fetch the scan order from ``sort_cache`` or compute and store it.

    The cache owner (:class:`~repro.engine.prepared.PreparedDataset`) keys
    the mapping by ``(algorithm-configuration, dataset, ids)``, so inside
    this helper the lookup key is just ``"order"``.  ``None`` disables
    caching and always sorts.

    ``keyer`` (see :meth:`SortScanAlgorithm.sort_keyer`) decomposes the
    order into ``ids[scan_order(values[ids], keys)]``; the key array is
    cached alongside the order.  When the owner tagged the entry with a
    ``pending_delta`` (:meth:`PreparedDataset.apply_delta`), the cached
    order is suffix-repaired here instead of recomputed: deleted ids drop
    out, survivors remap, keys are computed only for the appended rows,
    and one :func:`~repro.dominance.scan_order` over the merged keys
    reproduces the cold order bit for bit (the tag is only written when
    the dataset's minimum corner — the keys' reference point — is
    unchanged).
    """
    if sort_cache is not None:
        pending = sort_cache.pop("pending_delta", None)
        cached = sort_cache.get("order")
        if cached is not None:
            if pending is None:
                return cached  # type: ignore[return-value]
            if keyer is not None and "keys" in sort_cache:
                repaired = _repair_cached_order(
                    sort_cache, pending, keyer, values, ids
                )
                if repaired is not None:
                    return repaired
            # Unrepairable (no key array, or the id set diverged from the
            # logged delta): drop the stale state and sort cold.
            sort_cache.pop("order", None)
            sort_cache.pop("keys", None)
    with current_tracer().span(
        "sort", points=int(ids.shape[0]), cache_attached=sort_cache is not None
    ):
        if keyer is not None:
            keys = keyer(values, ids)
            order = ids[scan_order(values[ids], keys)]
        else:
            keys = None
            order = sorter(values, ids)
    if sort_cache is not None:
        sort_cache["order"] = order
        if keys is not None:
            sort_cache["keys"] = keys
    return order


def _repair_cached_order(
    sort_cache: MutableMapping[str, object],
    pending: object,
    keyer: Callable[[np.ndarray, np.ndarray], np.ndarray],
    values: np.ndarray,
    ids: np.ndarray,
) -> np.ndarray | None:
    """Suffix-repair a keyed sort-cache entry; ``None`` falls back cold.

    ``pending`` is the ``(deleted_old_ids, first_new_id)`` tag written by
    ``PreparedDataset.apply_delta``.  The cached ``keys`` array is aligned
    with the ascending id set the order was computed over, so the repair
    filters + remaps it, keys only the fresh tail ids, and re-sorts with
    :func:`~repro.dominance.scan_order` over ``values[ids]`` — identical
    output to a cold sort because kept rows keep their coordinates and the
    corner is unchanged.
    """
    deleted, first_new_id = pending  # type: ignore[misc]
    order = sort_cache["order"]
    keys = sort_cache["keys"]
    old_ids = np.sort(order)  # type: ignore[arg-type]
    if keys.shape[0] != old_ids.shape[0]:  # type: ignore[union-attr]
        return None
    kept = ~np.isin(old_ids, deleted)
    remapped = old_ids[kept] - np.searchsorted(deleted, old_ids[kept])  # type: ignore[arg-type]
    fresh = ids[ids >= first_new_id]
    expected = np.concatenate([remapped, fresh])
    if expected.shape[0] != ids.shape[0] or not np.array_equal(expected, ids):
        return None
    if fresh.size:
        fresh_keys = keyer(values, fresh)
    else:
        fresh_keys = np.empty(0, dtype=np.asarray(keys).dtype)
    all_keys = np.concatenate([np.asarray(keys)[kept], fresh_keys])
    repaired = ids[scan_order(values[ids], all_keys)]
    sort_cache["order"] = repaired
    sort_cache["keys"] = all_keys
    return repaired
