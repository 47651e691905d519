"""Index — the B+-tree skyline algorithm (Tan, Eng, Ooi, VLDB 2001).

Every point is assigned to the list of its *minimum-value dimension* and
each of the ``d`` lists is stored in a B+-tree keyed by that minimum value.
The scan merges the lists in increasing key order; each batch of equal-key
points is tested against the skyline found so far.  Processing by
increasing minimum coordinate is weakly monotone (a dominator's ``minC``
never exceeds its dominated point's), and each batch is ordered internally
by :func:`~repro.dominance.scan_order` over the raw rows, so dominators are
always tested first.

Early termination mirrors SaLSa's stop rule: once the smallest pending key
exceeds the smallest maximum coordinate among confirmed skyline points,
everything still queued is strictly dominated.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.algorithms.base import SkylineAlgorithm
from repro.dataset import Dataset
from repro.dominance import first_dominator, scan_order
from repro.errors import InvalidParameterError
from repro.stats.counters import DominanceCounter
from repro.structures.bplustree import BPlusTree

__all__ = ["IndexSkyline"]


class IndexSkyline(SkylineAlgorithm):
    """Tan et al.'s Index algorithm over per-dimension B+-trees.

    Parameters
    ----------
    tree_order:
        Fan-out of the underlying B+-trees.
    """

    name = "index"

    def __init__(self, tree_order: int = 32) -> None:
        if tree_order < 3:
            raise InvalidParameterError(f"tree_order must be >= 3, got {tree_order}")
        self.tree_order = tree_order

    def _run(self, dataset: Dataset, counter: DominanceCounter) -> list[int]:
        values = dataset.values
        n, d = values.shape
        # Shift so the min corner is the origin; Index's minC reasoning
        # assumes non-negative data like the paper's [0, 1] benchmarks.
        shifted = values - values.min(axis=0)
        assignment = np.argmin(shifted, axis=1)
        min_values = shifted[np.arange(n), assignment]

        trees = [BPlusTree(order=self.tree_order) for _ in range(d)]
        min_keys: list[float] = min_values.tolist()
        for point_id, list_id in enumerate(assignment.tolist()):
            trees[list_id].insert(min_keys[point_id], point_id)

        # Merge the d sorted lists by key with a heap of iterators.
        heap: list[tuple[float, int, int]] = []
        iterators = [tree.items() for tree in trees]
        for list_id, iterator in enumerate(iterators):
            for key, point_id in iterator:
                heapq.heappush(heap, (key, list_id, point_id))
                break

        max_coords: list[float] = shifted.max(axis=1).tolist()
        stop_value = float("inf")
        skyline: list[int] = []
        sky_block = values[:0]

        while heap:
            batch_key = heap[0][0]
            if batch_key > stop_value:
                break
            batch: list[int] = []
            while heap and heap[0][0] == batch_key:
                key, list_id, point_id = heapq.heappop(heap)
                batch.append(point_id)
                for next_key, next_id in iterators[list_id]:
                    heapq.heappush(heap, (next_key, list_id, next_id))
                    break
            if len(batch) > 1:
                batch_ids = np.asarray(batch, dtype=np.intp)
                batch = batch_ids[scan_order(values[batch_ids])].tolist()
            for point_id in batch:
                if first_dominator(sky_block, values[point_id], counter) == -1:
                    skyline.append(point_id)
                    sky_block = values[np.asarray(skyline, dtype=np.intp)]
                    if max_coords[point_id] < stop_value:
                        stop_value = max_coords[point_id]
        return skyline
