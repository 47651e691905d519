"""Z-order scan — a sorting-based skyline in the ZSearch/Z-sky lineage.

Z-order addresses are monotone under grid dominance: raising any coordinate
of a grid cell raises its Morton address, so a dominator never follows the
points it dominates in Z-address order.  Scanning in that order is
therefore a valid monotone presort (Section 2's requirement), with the
pleasant locality properties that made Z-order attractive to ZSearch [16].

Grid quantisation can map distinct values to the same cell, so the
addresses are only weakly monotone: the scan order passes their ranks to
:func:`~repro.dominance.scan_order`, which breaks address ties by the
coordinate sum and then the raw coordinates.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import SortScanAlgorithm
from repro.dominance import scan_order
from repro.errors import InvalidParameterError
from repro.structures.zorder import z_ranks

__all__ = ["ZOrderScan"]


class ZOrderScan(SortScanAlgorithm):
    """Presorted scan in Morton-address order.

    Parameters
    ----------
    bits:
        Grid resolution per dimension (``2**bits`` cells).
    """

    name = "zorder"

    def __init__(self, bits: int = 10) -> None:
        if bits < 1 or bits > 21:
            raise InvalidParameterError(f"bits must be in [1, 21], got {bits}")
        self.bits = bits

    def sort_ids(self, values: np.ndarray, ids: np.ndarray) -> np.ndarray:
        ranks = z_ranks(values, self.bits)
        return ids[scan_order(values[ids], ranks[ids])]
