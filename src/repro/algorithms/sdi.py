"""SDI — Sorted Dimension Indexes skyline (Liu & Li, EDBT 2020).

SDI is the sort-and-scan algorithm the subset approach boosts best.  The
sort phase builds one sorted index of point ids per dimension; the scan
phase traverses dimensions breadth-first, always advancing the dimension
whose *dimension skyline* (the skyline points confirmed through it) is the
smallest.  Each visited point is tested only against skyline points whose
value in the current dimension does not exceed its own (the dimension
skyline prefix), ordered by that value — the cheapest plausible dominators
first.

Key properties preserved from the original design:

- a point already classified through another dimension is skipped;
- each per-dimension order is a :func:`~repro.dominance.scan_order` keyed
  by that dimension's value (value ties broken by the coordinate sum, then
  the raw coordinates, since a float sum is only weakly monotone), so a
  dominator precedes its dominated points in *every* dimension order —
  classification is always complete when a point is first visited (this
  is what makes duplicate-heavy data like WEATHER safe);
- the point with the minimum Euclidean distance serves as the *stop
  point*: once every dimension's cursor has passed it strictly, all
  unvisited points are strictly dominated by it and the scan terminates.

One dominance test is charged per compared skyline point, exactly as a
sequential early-exit loop would.

Batched scan
------------
The scalar scan pays, per testing point, an ``O(k)`` boolean prefix filter
plus an ``O(k log k)`` sort over its candidate block.  The batched scan
(default) sorts nothing.  A dominator is at most the testing point in
every column, so it always lies in the dimension prefix, and the first
dominator the sorted scan would meet is the ``(value, insertion)``-least
one.  The charge is its rank in the prefix plus one, or the prefix length
when nothing dominates.  :func:`~repro.dominance.first_dominator_prefix`
computes both in one pass over the column-backed candidate block (see
:class:`~repro.core.container.SkylineContainer`), so skyline output and
charged dominance tests are bit-identical to the scalar path;
``SDI(batched=False)`` keeps that path for differential tests and
benchmarks.
"""

from __future__ import annotations

from collections.abc import MutableMapping

import numpy as np

from repro.algorithms.base import SkylineAlgorithm
from repro.core.container import ListContainer, SkylineContainer
from repro.dataset import Dataset
from repro.dominance import first_dominator, first_dominator_prefix, scan_order
from repro.obs.trace import current_tracer
from repro.stats.counters import DominanceCounter

__all__ = ["SDI"]

_UNKNOWN, _SKYLINE, _DOMINATED = 0, 1, 2


class SDI(SkylineAlgorithm):
    """Sorted-dimension-index skyline with breadth-first dimension traversal.

    Parameters
    ----------
    batched:
        Run the prefix test as one unsorted pass over the candidate block
        (default).  ``False`` re-filters and re-sorts the candidate block
        per testing point — the scalar reference path with identical
        output and test accounting.
    """

    name = "sdi"

    #: The sort phase (per-dimension indexes + stop point) is cacheable via
    #: the ``sort_cache`` parameter of :meth:`run_phase`.
    supports_sort_cache = True

    def __init__(self, batched: bool = True) -> None:
        self.batched = batched

    def _run(self, dataset: Dataset, counter: DominanceCounter) -> list[int]:
        ids = np.arange(dataset.cardinality, dtype=np.intp)
        masks = np.zeros(dataset.cardinality, dtype=np.int64)
        container = ListContainer(dataset.values)
        return self.run_phase(dataset, ids, masks, container, counter)

    def run_phase(
        self,
        dataset: Dataset,
        ids: np.ndarray,
        masks: np.ndarray,
        container: SkylineContainer,
        counter: DominanceCounter,
        sort_cache: MutableMapping[str, object] | None = None,
    ) -> list[int]:
        values = dataset.values
        d = dataset.dimensionality
        ids = np.asarray(ids, dtype=np.intp)
        if ids.size == 0:
            return []

        cached = sort_cache.get("sdi_sort") if sort_cache is not None else None
        if cached is not None:
            orders, stop_point = cached  # type: ignore[misc]
        else:
            with current_tracer().span(
                "sort", host=self.name, points=int(ids.size), dims=d
            ):
                rows = values[ids]

                # Sort phase: one index per dimension over the active ids.
                orders = [ids[scan_order(rows, rows[:, dim])] for dim in range(d)]

                # Stop point: minimum Euclidean distance to the minimum
                # corner.
                shifted = rows - rows.min(axis=0)
                stop_id = int(
                    ids[np.argmin(np.einsum("ij,ij->i", shifted, shifted))]
                )
                stop_point = values[stop_id]
            if sort_cache is not None:
                sort_cache["sdi_sort"] = (orders, stop_point)

        # Plain-Python data structures for the per-point bookkeeping: the
        # scan loop runs once per remaining point, and bytearray/list
        # indexing with native ints is several times cheaper than numpy
        # scalar extraction at that call rate.
        status = bytearray(dataset.cardinality)
        masks_list = masks.tolist()
        order_lists = [order.tolist() for order in orders]
        stop_list = stop_point.tolist()
        cursors = [0] * d
        dim_sky_count = [0] * d
        open_dims = set(range(d))
        skyline: list[int] = []
        batched = self.batched

        def select(k: int) -> tuple[int, int]:
            return (dim_sky_count[k], k)

        # The breadth-first choice min(open_dims, key=select) only changes
        # when a dimension's skyline count grows or a dimension closes, so
        # the selection is cached across the (majority of) iterations that
        # change neither — the choice sequence is identical.
        chosen = -1
        while open_dims:
            if chosen < 0:
                chosen = min(open_dims, key=select)
            dim = chosen
            order_list = order_lists[dim]
            length = len(order_list)
            cursor = cursors[dim]
            while cursor < length and status[order_list[cursor]] != _UNKNOWN:
                cursor += 1
            if cursor >= length:
                cursors[dim] = cursor
                open_dims.discard(dim)
                chosen = -1
                continue
            point_id = order_list[cursor]
            cursors[dim] = cursor + 1
            point = values[point_id]
            mask = masks_list[point_id]

            _, block = container.candidates(mask)
            bound = point[dim]
            if batched:
                undominated = (
                    first_dominator_prefix(block, block[:, dim], bound, point, counter)
                    == -1
                )
            else:
                if block.shape[0]:
                    prefix = block[:, dim] <= bound
                    block = block[prefix]
                    if block.shape[0]:
                        block = block[np.argsort(block[:, dim], kind="stable")]
                undominated = first_dominator(block, point, counter) == -1
            if undominated:
                status[point_id] = _SKYLINE
                skyline.append(point_id)
                container.add(point_id, mask)
                dim_sky_count[dim] += 1
                chosen = -1
            else:
                status[point_id] = _DOMINATED

            if bound > stop_list[dim]:
                # The cursor passed the stop point in this dimension; once
                # that holds in every dimension, all unvisited points are
                # strictly worse than the stop point everywhere.
                open_dims.discard(dim)
                chosen = -1

        return skyline
