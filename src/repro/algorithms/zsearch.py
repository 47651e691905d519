"""ZSearch-style blocked Z-order skyline with region pruning.

The plain Z-order scan (:mod:`repro.algorithms.zorder_scan`) tests every
point individually.  ZSearch / Z-sky [16] owe their speed to *region-level*
pruning: contiguous runs of the Z-ordered data form regions whose lower
corner bounds every member, so one dominance test against the corner can
discard a whole region.

This implementation keeps the sound core of that idea without the ZB-tree
machinery: points are sorted by Morton address and cut into fixed-size
blocks; blocks are visited in Z-order (a monotone order, so dominators are
always confirmed first).  For each block, the componentwise minimum corner
is tested against the current skyline — if the corner is strictly
dominated, every member is strictly dominated (``q >= corner >= s`` with
strictness inherited through the corner) and the block is skipped with one
charged test instead of ``block_size``.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import SkylineAlgorithm
from repro.dataset import Dataset
from repro.dominance import first_dominator, scan_order
from repro.errors import InvalidParameterError
from repro.stats.counters import DominanceCounter
from repro.structures.zorder import z_ranks

__all__ = ["ZSearch"]


class ZSearch(SkylineAlgorithm):
    """Blocked Z-order scan with corner-based region pruning.

    Parameters
    ----------
    block_size:
        Number of Z-order-contiguous points per region.
    bits:
        Grid resolution per dimension for Morton addressing.
    """

    name = "zsearch"

    def __init__(self, block_size: int = 64, bits: int = 10) -> None:
        if block_size < 1:
            raise InvalidParameterError(f"block_size must be >= 1, got {block_size}")
        if bits < 1 or bits > 21:
            raise InvalidParameterError(f"bits must be in [1, 21], got {bits}")
        self.block_size = block_size
        self.bits = bits

    def _run(self, dataset: Dataset, counter: DominanceCounter) -> list[int]:
        values = dataset.values
        order = scan_order(values, z_ranks(values, self.bits)).tolist()

        skyline: list[int] = []
        sky_block = values[:0]
        for start in range(0, len(order), self.block_size):
            member_ids = order[start : start + self.block_size]
            members = values[np.asarray(member_ids, dtype=np.intp)]
            if len(member_ids) > 1 and sky_block.shape[0]:
                corner = members.min(axis=0)
                if first_dominator(sky_block, corner, counter) != -1:
                    continue  # the whole region is strictly dominated
            for point_id in member_ids:
                if first_dominator(sky_block, values[point_id], counter) == -1:
                    skyline.append(point_id)
                    sky_block = values[np.asarray(skyline, dtype=np.intp)]
        return skyline
