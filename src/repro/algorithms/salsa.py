"""SaLSa — Sort and Limit Skyline algorithm (Bartolini, Ciaccia, Patella).

SaLSa sorts by the *minimum coordinate* (``minC``) and maintains a *stop
point*: the confirmed skyline point with the smallest maximum coordinate.
As soon as the next point's ``minC`` exceeds that value, every remaining
point is strictly worse than the stop point in all dimensions and the scan
terminates without testing them — which is why unboosted SaLSa's mean
dominance test number can drop below 1 on correlated data (Table 8).

``minC`` is only weakly monotone, so the scan order breaks its ties with
:func:`~repro.dominance.scan_order` (the coordinate sum, then the raw
coordinates: in floats the sum alone is only weakly monotone too); the stop
rule uses a strict comparison so that duplicate points of the stop point
are never discarded unseen.
"""

from __future__ import annotations

from collections.abc import MutableMapping

import numpy as np

from repro.algorithms.base import SortScanAlgorithm, cached_sort_order
from repro.algorithms.sortkeys import sort_keys
from repro.core.container import SkylineContainer
from repro.core.settle import settle
from repro.dataset import Dataset
from repro.dominance import first_dominator, scan_order
from repro.stats.counters import DominanceCounter

__all__ = ["SaLSa"]


class SaLSa(SortScanAlgorithm):
    """Sort-and-limit scan with the min-coordinate sort and a stop point."""

    name = "salsa"

    def sort_ids(self, values: np.ndarray, ids: np.ndarray) -> np.ndarray:
        # Same subset-with-global-corner trick as SFS: identical order to a
        # whole-dataset sort, key math only over the active rows.
        subset = values[ids]
        keys = sort_keys(subset, "minc", corner=values.min(axis=0))
        return ids[scan_order(subset, keys)]

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
        order = cached_sort_order(sort_cache, self.sort_ids, values, ids)
        # The stop rule compares one point's minimum coordinate against
        # another's maximum across dimensions, which is only meaningful in a
        # common per-dimension frame: use the same min-corner shift as the
        # sort keys, so the scan order and the stop metric agree.  Both
        # coordinates are derived once, for the scanned rows only, in scan
        # position order — minC is then exactly the (non-decreasing) sort
        # key, so the stop rule defines a scan *prefix*: every point q past
        # the cut has minC(q) > stop_value, hence q[i] >= minC(q) >
        # max(stop point) >= stop[i] in all dimensions, strictly dominated
        # and never scanned.  The strict `>` keeps duplicates of the stop
        # point in.
        cached = sort_cache.get("salsa_scan") if sort_cache is not None else None
        if cached is None:
            shifted = values[order] - values.min(axis=0)
            cached = (shifted.min(axis=1), shifted.max(axis=1))
            if sort_cache is not None:
                sort_cache["salsa_scan"] = cached
        min_keys, max_coords = cached  # type: ignore[misc]
        if container.by_subspace:
            # Survivors and charges do not depend on the cut (every point
            # past it is dominated), so the cut is applied afterwards: a
            # position is scanned when its minC is at most the smallest
            # max-coordinate among the survivors before it.
            survives, charges = settle(values, order, masks, container)
            stops = np.minimum.accumulate(np.where(survives, max_coords, np.inf))
            limits = np.searchsorted(min_keys, np.append(np.inf, stops[:-1]), side="right")
            past = np.flatnonzero(np.arange(order.size) >= limits)
            scanned = int(past[0]) if past.size else order.size
            counter.add(int(charges[:scanned].sum()))
            return order[:scanned][survives[:scanned]].tolist()
        masks_list = masks.tolist()
        max_list = max_coords.tolist()
        stop_value = float("inf")
        skyline: list[int] = []
        order_list = order.tolist()
        limit = len(order_list)
        position = 0
        while position < limit:
            point_id = order_list[position]
            mask = masks_list[point_id]
            _, block = container.candidates(mask)
            if first_dominator(block, values[point_id], counter) == -1:
                skyline.append(point_id)
                container.add(point_id, mask)
                if max_list[position] < stop_value:
                    stop_value = max_list[position]
                    limit = int(
                        np.searchsorted(min_keys, stop_value, side="right")
                    )
            position += 1
        return skyline
