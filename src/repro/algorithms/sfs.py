"""SFS — Sort-Filter-Skyline (Chomicki, Godfrey, Gryz, Liang, ICDE 2003).

Presort all points by a monotone scoring function (entropy by default, as in
the original paper), then scan: each point is tested against the confirmed
skyline; survivors join it.  Because a dominator always precedes its
dominated points in the scan order, one pass suffices.

The scan body lives in :class:`~repro.algorithms.base.SortScanAlgorithm`;
SFS only contributes the sort order.  Swap the container for the subset
index via :class:`~repro.core.boost.SubsetBoost` to obtain SFS-Subset.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.algorithms.base import SortScanAlgorithm
from repro.algorithms.sortkeys import sort_keys
from repro.dominance import scan_order

__all__ = ["SFS"]


class SFS(SortScanAlgorithm):
    """Sort-Filter-Skyline with a configurable monotone sort function.

    Parameters
    ----------
    sort_function:
        One of ``"entropy"`` (default, as in the SFS paper), ``"sum"``,
        ``"euclidean"`` or ``"minc"``.
    """

    name = "sfs"

    def __init__(self, sort_function: str = "entropy") -> None:
        self.sort_function = sort_function
        sort_keys(np.zeros((1, 1)), sort_function)  # validate eagerly

    def sort_ids(self, values: np.ndarray, ids: np.ndarray) -> np.ndarray:
        return ids[scan_order(values[ids], self._keys(values, ids))]

    def sort_keyer(self) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        # The SFS order is scan_order over one per-row key array, so it is
        # key-decomposable: cached_sort_order stores the array and can
        # suffix-repair the order after a delta (keys recomputed only for
        # appended rows).
        return self._keys

    def _keys(self, values: np.ndarray, ids: np.ndarray) -> np.ndarray:
        # Keys are computed over only the active rows (the merge survivors
        # in a boosted scan) but shifted by the full dataset's minimum
        # corner, so the order is identical to a whole-dataset sort while
        # skipping the transcendental key math for every pruned point.
        return sort_keys(values[ids], self.sort_function, corner=values.min(axis=0))
