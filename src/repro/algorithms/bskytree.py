"""BSkyTree-S and BSkyTree-P (Lee & Hwang, EDBT 2010 / Inf. Syst. 2014).

The state-of-the-art baselines of the paper.  Both select a *balanced pivot
point* and map every point ``q`` to the bitmask of dimensions where ``q`` is
strictly better than the pivot.  Two facts drive both variants (the same
lattice facts the subset approach generalises to multiple pivots):

- ``q1 < q2  ⇒  mask(q1) ⊇ mask(q2)``, so only superset-mask points can
  dominate a point — all other pairs are provably incomparable and their
  dominance tests are *bypassed* (cheap bitwise checks are not charged as
  dominance tests, which is why BSkyTree DT numbers are so low);
- points with an empty mask are weakly dominated by the pivot: pruned
  immediately (equal points are duplicates of the pivot).

**BSkyTree-S** is the sorting variant: one pivot, then a sum-presorted scan
that skips incomparable-mask pairs.  **BSkyTree-P** is the partitioning
variant: points are split into the ``2^d`` mask regions, each region is
solved recursively, and region skylines are filtered only against the
finalised skylines of strict-superset regions (a linear extension of the
region lattice by descending popcount).

Pivot selection follows the balanced heuristic: among the skyline of a
sorted sample prefix, pick the point whose normalised coordinates have the
smallest range — the most "diagonal" direction, which balances the region
lattice.  Sample scan tests are charged like any other dominance test.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import SkylineAlgorithm
from repro.core.container import presorted_scan
from repro.dataset import Dataset
from repro.dominance import dominating_subspaces, first_dominator, scan_order
from repro.errors import InvalidParameterError
from repro.stats.counters import DominanceCounter
from repro.structures import bitset

__all__ = ["BSkyTreeS", "BSkyTreeP"]

_SAMPLE_CAP = 256


def _select_pivot(
    values: np.ndarray, ids: np.ndarray, counter: DominanceCounter
) -> int:
    """Balanced pivot: the most diagonal point of a sample-prefix skyline."""
    sample = ids[scan_order(values[ids])][:_SAMPLE_CAP]
    sample_sky = list(presorted_scan(values, sample, counter))
    lo = values[ids].min(axis=0)
    hi = values[ids].max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    normalized = (values[np.asarray(sample_sky, dtype=np.intp)] - lo) / span
    ranges = normalized.max(axis=1) - normalized.min(axis=1)
    return int(sample_sky[int(np.argmin(ranges))])


class BSkyTreeS(SkylineAlgorithm):
    """Sorting variant: pivot-mask incomparability filtering over a sum scan."""

    name = "bskytree-s"

    def _run(self, dataset: Dataset, counter: DominanceCounter) -> list[int]:
        values = dataset.values
        ids = np.arange(dataset.cardinality, dtype=np.intp)
        pivot = _select_pivot(values, ids, counter)
        masks = dominating_subspaces(values, values[pivot], counter)

        empty = masks == 0
        equal_pivot = empty & np.all(values == values[pivot], axis=1)
        keep = (~empty) | equal_pivot

        order = ids[keep]
        order = order[scan_order(values[order])]

        sky_ids: list[int] = []
        sky_masks = np.empty(0, dtype=np.int64)
        for point_id in order:
            point_id = int(point_id)
            q_mask = int(masks[point_id])
            # Candidate dominators: skyline points whose mask ⊇ q's mask.
            candidate = bitset.subset_of_many(q_mask, sky_masks)
            block = values[np.asarray(sky_ids, dtype=np.intp)[candidate]]
            if first_dominator(block, values[point_id], counter) == -1:
                sky_ids.append(point_id)
                sky_masks = np.append(sky_masks, np.int64(q_mask))
        return sky_ids


class BSkyTreeP(SkylineAlgorithm):  # noqa: RPR003 — S/P are two variants of one baseline; splitting them would duplicate _select_pivot
    """Partitioning variant: recursive 2^d-region division along the lattice.

    Parameters
    ----------
    leaf_size:
        Regions at or below this size are solved with a direct scan.
    """

    name = "bskytree-p"

    def __init__(self, leaf_size: int = 32) -> None:
        if leaf_size < 1:
            raise InvalidParameterError(f"leaf_size must be >= 1, got {leaf_size}")
        self.leaf_size = leaf_size

    def _run(self, dataset: Dataset, counter: DominanceCounter) -> list[int]:
        ids = np.arange(dataset.cardinality, dtype=np.intp)
        return self._skyline(dataset.values, ids, counter)

    def _skyline(
        self, values: np.ndarray, ids: np.ndarray, counter: DominanceCounter
    ) -> list[int]:
        if ids.shape[0] <= self.leaf_size:
            return list(presorted_scan(values, ids[scan_order(values[ids])], counter))
        pivot = _select_pivot(values, ids, counter)
        masks = dominating_subspaces(values[ids], values[pivot], counter)

        empty = masks == 0
        pivot_group = ids[empty & np.all(values[ids] == values[pivot], axis=1)]
        regions: dict[int, np.ndarray] = {}
        nonempty = ids[~empty]
        for mask in np.unique(masks[~empty]):
            regions[int(mask)] = nonempty[masks[~empty] == mask]

        skyline: list[int] = []
        finalized: list[tuple[int, np.ndarray]] = []
        for mask in sorted(regions, key=lambda m: m.bit_count(), reverse=True):
            local = self._skyline(values, regions[mask], counter)
            survivors: list[int] = []
            for point_id in local:
                dominated = False
                for sup_mask, sup_block in finalized:
                    if bitset.is_proper_subset(mask, sup_mask):
                        if first_dominator(sup_block, values[point_id], counter) != -1:
                            dominated = True
                            break
                if not dominated:
                    survivors.append(point_id)
            finalized.append((mask, values[np.asarray(survivors, dtype=np.intp)]))
            skyline.extend(survivors)

        # The pivot (and its duplicates) can be dominated by any region
        # point with weak inequality elsewhere; one test pass settles it.
        if pivot_group.size:
            block = values[np.asarray(skyline, dtype=np.intp)]
            if first_dominator(block, values[pivot], counter) == -1:
                skyline.extend(int(i) for i in pivot_group)
        return skyline
