"""BBS — Branch-and-Bound Skyline (Papadias, Tao, Fu, Seeger, SIGMOD 2003).

Best-first traversal of an R-tree: a min-heap holds tree entries keyed by
*mindist* (the L1 distance from the origin to the entry's MBR).  Popping in
mindist order guarantees that every possible dominator of a point has been
popped — and confirmed — before the point itself, so a single dominance
check against the current skyline settles each entry:

- an inner node whose MBR lower corner is dominated can never contain a
  skyline point and is pruned wholesale;
- a point entry is a skyline point exactly when nothing confirmed
  dominates it.

The tree and every dominance test use the raw coordinates.  Only the
priority is measured from the dataset's minimum corner, ``Σ(low − corner)``,
so it is well defined for any real data; like every float key it is only
weakly monotone (the subtraction can round a sub-ulp difference away), so
ties pop in :func:`~repro.dominance.scan_order`'s fashion, by the raw
coordinates of the lower corner: a dominator, or a node that holds one,
is lexicographically smaller than its victim.

Dominance checks against MBR corners are charged as dominance tests (they
are point-pair comparisons against a virtual point), matching how the BBS
paper accounts its "dominance examinations".
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Sequence

import numpy as np

from repro.algorithms.base import SkylineAlgorithm
from repro.dataset import Dataset
from repro.dominance import first_dominator
from repro.errors import InvalidParameterError
from repro.stats.counters import DominanceCounter
from repro.structures.rtree import RTree

__all__ = ["BBS"]


class BBS(SkylineAlgorithm):
    """Branch-and-bound skyline over an STR bulk-loaded R-tree.

    Parameters
    ----------
    max_entries:
        R-tree node fan-out.
    """

    name = "bbs"

    def __init__(self, max_entries: int = 16) -> None:
        if max_entries < 2:
            raise InvalidParameterError(f"max_entries must be >= 2, got {max_entries}")
        self.max_entries = max_entries

    def _run(self, dataset: Dataset, counter: DominanceCounter) -> list[int]:
        values = dataset.values
        tree = RTree(values, max_entries=self.max_entries)
        corner = values.min(axis=0).tolist()
        # The sequence number only keeps entries with equal corners from
        # comparing the entries themselves.
        sequence = itertools.count()

        def heap_entry(low: Sequence[float], item: object) -> tuple:
            mindist = sum(lo - c for lo, c in zip(low, corner))
            return (mindist, *low, next(sequence), item)

        skyline: list[int] = []
        sky_block = values[:0]
        heap = [heap_entry(tree.root.rect.low, tree.root)]
        while heap:
            entry = heapq.heappop(heap)[-1]
            if isinstance(entry, tuple):
                point_id, coords = entry
                if first_dominator(sky_block, np.asarray(coords), counter) == -1:
                    skyline.append(int(point_id))
                    sky_block = values[np.asarray(skyline, dtype=np.intp)]
                continue
            node = entry
            if first_dominator(sky_block, np.asarray(node.rect.low), counter) != -1:
                continue  # the whole subtree is dominated
            if node.is_leaf:
                for point_id, coords in node.entries:
                    heapq.heappush(heap, heap_entry(coords, (point_id, coords)))
            else:
                for child in node.children:
                    heapq.heappush(heap, heap_entry(child.rect.low, child))
        return skyline
