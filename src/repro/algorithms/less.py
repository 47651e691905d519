"""LESS — Linear Elimination Sort for Skyline (Godfrey, Shipley, Gryz).

LESS extends SFS with an *elimination-filter* (EF) window applied during the
initial sort pass: a small set of the best-scoring points seen so far, used
to discard clearly dominated points before the sort completes.  Survivors
are then sorted by entropy and scanned exactly like SFS.

This in-memory reproduction keeps both phases: phase 1 streams the input in
its original order through the EF window (charging its tests); phase 2 is
the standard presorted container scan, so LESS is boostable like SFS.
"""

from __future__ import annotations

from collections.abc import MutableMapping

import numpy as np

from repro.algorithms.base import SortScanAlgorithm
from repro.algorithms.sortkeys import sort_keys
from repro.core.container import SkylineContainer
from repro.dataset import Dataset
from repro.dominance import first_dominator, scan_order
from repro.errors import InvalidParameterError
from repro.obs.trace import current_tracer
from repro.stats.counters import DominanceCounter

__all__ = ["LESS"]


class LESS(SortScanAlgorithm):
    """SFS with an elimination-filter window in the sort phase.

    Parameters
    ----------
    window_size:
        Number of low-entropy points kept as eliminators during phase 1.
    """

    name = "less"

    def __init__(self, window_size: int = 16) -> None:
        if window_size < 1:
            raise InvalidParameterError(f"window_size must be >= 1, got {window_size}")
        self.window_size = window_size

    def sort_ids(self, values: np.ndarray, ids: np.ndarray) -> np.ndarray:
        keys = sort_keys(values, "entropy")
        return ids[scan_order(values[ids], keys[ids])]

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
        # The cached artefact is the *phase-2* order: replaying it skips the
        # EF pass (and its dominance tests) entirely, which is exactly the
        # warm-path saving — the EF pass only prunes points the container
        # scan would reject anyway, so the final skyline is unchanged.
        cached = sort_cache.get("order") if sort_cache is not None else None
        if cached is not None:
            order = cached
        else:
            # The sort span covers the EF pass too — it charges dominance
            # tests during sorting, which the span's counter delta exposes.
            with current_tracer().span(
                "sort", counter=counter, host=self.name, points=int(len(ids))
            ):
                keys = sort_keys(values, "entropy")

                # Phase 1: elimination-filter pass in input order.  The EF
                # window holds the lowest-entropy points seen so far; points
                # it dominates are dropped before the (simulated) sort.
                # Evicted window members are ordinary survivors — the window
                # is a filter, not the skyline.
                ef_ids: list[int] = []
                survivors: list[int] = []
                for point_id in ids:
                    point_id = int(point_id)
                    point = values[point_id]
                    block = (
                        values[np.asarray(ef_ids, dtype=np.intp)]
                        if ef_ids
                        else values[:0]
                    )
                    if first_dominator(block, point, counter) != -1:
                        continue
                    survivors.append(point_id)
                    if len(ef_ids) < self.window_size:
                        ef_ids.append(point_id)
                    else:
                        worst = max(
                            range(len(ef_ids)), key=lambda k: keys[ef_ids[k]]
                        )
                        if keys[point_id] < keys[ef_ids[worst]]:
                            ef_ids[worst] = point_id

                # Phase 2: SFS scan over the survivors.
                kept = np.asarray(survivors, dtype=np.intp)
                order = kept[scan_order(values[kept], keys[kept])]
            if sort_cache is not None:
                sort_cache["order"] = order
        skyline: list[int] = []
        for point_id in order:
            point_id = int(point_id)
            mask = int(masks[point_id])
            _, block = container.candidates(mask)
            if first_dominator(block, values[point_id], counter) == -1:
                skyline.append(point_id)
                container.add(point_id, mask)
        return skyline
