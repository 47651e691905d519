"""D&C — divide-and-conquer skyline (Kung et al. 1975; Börzsönyi et al. 2001).

Splits the dataset at the median of a splitting dimension, recursively
computes both half skylines, then filters the "worse" half's skyline
against the "better" half's (points in the high half can never dominate
points in the low half).  When every point shares the same value in the
splitting dimension the next dimension is tried; fully identical points are
mutually non-dominating and returned as-is.

The merge step uses the exact-count block kernel, so its dominance tests
are charged exactly like a pairwise merge loop.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import SkylineAlgorithm
from repro.core.container import presorted_scan
from repro.dataset import Dataset
from repro.dominance import first_dominator, scan_order
from repro.errors import InvalidParameterError
from repro.stats.counters import DominanceCounter

__all__ = ["DivideAndConquer"]


class DivideAndConquer(SkylineAlgorithm):
    """Median-split divide and conquer with a pairwise merge filter.

    Parameters
    ----------
    leaf_size:
        Partitions at or below this size are solved with a direct scan.
    """

    name = "dnc"

    def __init__(self, leaf_size: int = 64) -> None:
        if leaf_size < 1:
            raise InvalidParameterError(f"leaf_size must be >= 1, got {leaf_size}")
        self.leaf_size = leaf_size

    def _run(self, dataset: Dataset, counter: DominanceCounter) -> list[int]:
        ids = np.arange(dataset.cardinality, dtype=np.intp)
        return self._skyline(dataset.values, ids, depth=0, counter=counter)

    def _skyline(
        self,
        values: np.ndarray,
        ids: np.ndarray,
        depth: int,
        counter: DominanceCounter,
    ) -> list[int]:
        if ids.shape[0] <= self.leaf_size:
            return list(presorted_scan(values, ids[scan_order(values[ids])], counter))
        d = values.shape[1]
        for probe in range(d):
            dim = (depth + probe) % d
            column = values[ids, dim]
            median = float(np.median(column))
            in_low = column <= median
            if 0 < in_low.sum() < ids.shape[0]:
                break
        else:
            # Every dimension is constant across this partition: all points
            # are identical, mutually non-dominating -> all are skyline.
            return [int(i) for i in ids]
        low = ids[in_low]
        high = ids[~in_low]
        low_sky = self._skyline(values, low, depth + 1, counter)
        high_sky = self._skyline(values, high, depth + 1, counter)
        low_block = values[np.asarray(low_sky, dtype=np.intp)]
        merged = list(low_sky)
        for point_id in high_sky:
            if first_dominator(low_block, values[point_id], counter) == -1:
                merged.append(point_id)
        return merged
