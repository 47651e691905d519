"""``SubsetBoost`` — wiring Merge + the subset index into a host algorithm.

The application sketch from Section 1 of the paper:

1. run Merge (Algorithm 1) to find pivot points and assign every non-pruned
   point its maximum dominating subspace;
2. run the host sorting-based skyline algorithm over the non-pruned points,
   with two new actions: confirmed skyline points are ``put`` into the
   subset index under their subspace, and each testing point is tested
   only against the comparable skyline points a subset ``query`` returns —
   one index walk per subspace, since the host settles its points one
   subspace group at a time (:mod:`repro.core.settle`);
3. the final skyline is the merge-phase skyline plus the scan-phase skyline.

Merge guarantees that no remaining point is dominated by (or equal to) a
pivot, so pivots never need to participate in scan-phase dominance tests —
the index starts empty.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.core.container import ListContainer, SkylineContainer, SubsetContainer
from repro.core.merge import MergeResult, merge
from repro.core.stability import default_threshold, validate_threshold
from repro.dataset import Dataset
from repro.obs.trace import current_tracer
from repro.stats.counters import DominanceCounter

if TYPE_CHECKING:  # import cycle: algorithms.base imports core.container
    from repro.algorithms.base import SkylineResult


@runtime_checkable
class BoostableHost(Protocol):
    """What a host algorithm must provide to be subset-boosted.

    Sorting-based algorithms (SFS, LESS, SaLSa, SDI, Z-order scan) satisfy
    this protocol; partitioning-based ones deliberately do not — the paper
    notes they "cannot benefit much" because their data is already
    partitioned.
    """

    name: str

    def run_phase(
        self,
        dataset: Dataset,
        ids: np.ndarray,
        masks: np.ndarray,
        container: SkylineContainer,
        counter: DominanceCounter,
    ) -> list[int]:
        """Compute the skyline of ``dataset`` restricted to rows ``ids``.

        ``masks[i]`` is the maximum dominating subspace of point ``i`` (the
        full-length array is indexed by original point id).  Confirmed
        skyline points must be added to ``container`` with their mask, and
        candidate dominators must come from ``container.candidates``.
        """
        ...


def run_unboosted_scan(
    dataset: Dataset,
    host: BoostableHost,
    counter: DominanceCounter,
    sort_cache: MutableMapping[str, object] | None = None,
) -> list[int]:
    """Run ``host`` over all rows with a plain list container (no boost).

    The non-boosted reference wiring shared by ``SkylineAlgorithm._run``
    implementations and the engine's unboosted plans: all ids active, all
    masks zero, :class:`ListContainer` as the skyline store.
    """
    all_ids = np.arange(dataset.cardinality, dtype=np.intp)
    masks = np.zeros(dataset.cardinality, dtype=np.int64)
    container = ListContainer(dataset.values)
    with current_tracer().span(
        "scan",
        counter=counter,
        host=host.name,
        container="list",
        points=dataset.cardinality,
        boosted=False,
    ):
        if sort_cache is not None and getattr(host, "supports_sort_cache", False):
            return host.run_phase(
                dataset, all_ids, masks, container, counter, sort_cache=sort_cache
            )
        return host.run_phase(dataset, all_ids, masks, container, counter)


def run_boosted_scan(
    dataset: Dataset,
    host: BoostableHost,
    counter: DominanceCounter,
    *,
    sigma: int | None = None,
    container: str = "subset",
    pivot_strategy: str = "euclidean",
    merged: MergeResult | None = None,
    sort_cache: MutableMapping[str, object] | None = None,
) -> list[int]:
    """The subset-boost wiring: Merge, mask scatter, container, host scan.

    This is the single implementation behind :meth:`SubsetBoost._run` and
    the engine's boosted plans.  ``merged`` lets a caller supply a
    precomputed Merge result (the warm path of
    :class:`~repro.engine.prepared.PreparedDataset`); it must have been
    produced by ``merge(dataset, sigma, ..., pivot_strategy=...)`` with the
    same arguments, and its dominance tests are *not* re-charged here.
    ``sort_cache`` is forwarded to hosts that opt in via
    ``supports_sort_cache`` and must be private to one
    ``(host-configuration, dataset, merged)`` triple.
    """
    d = dataset.dimensionality
    if d < 2:
        # No non-trivial subspaces exist; the boost is undefined (the
        # paper starts at d = 2).  Fall back to the plain host.
        return run_unboosted_scan(dataset, host, counter, sort_cache)
    if sigma is None:
        sigma = default_threshold(d)
    validate_threshold(sigma, d)

    tracer = current_tracer()
    merge_cached = merged is not None
    if merged is None:
        merged = merge(dataset, sigma, counter, pivot_strategy=pivot_strategy)
    skyline = merged.initial_skyline_ids
    if merged.remaining_ids.size == 0:
        return skyline

    masks = np.zeros(dataset.cardinality, dtype=np.int64)
    masks[merged.remaining_ids] = merged.masks
    store: SkylineContainer
    if container == "subset":
        store = SubsetContainer(dataset.values, d, counter)
    else:
        # Ablation mode: identical merge phase, plain list store — this
        # isolates the contribution of the subset index (Algs. 2-4)
        # from that of the merge pruning (Alg. 1).
        store = ListContainer(dataset.values)
    with tracer.span(
        "scan",
        counter=counter,
        host=host.name,
        container=container,
        points=int(merged.remaining_ids.size),
        boosted=True,
        merge_cached=merge_cached,
    ):
        if sort_cache is not None and getattr(host, "supports_sort_cache", False):
            scan_skyline = host.run_phase(
                dataset,
                merged.remaining_ids,
                masks,
                store,
                counter,
                sort_cache=sort_cache,
            )
        else:
            scan_skyline = host.run_phase(
                dataset, merged.remaining_ids, masks, store, counter
            )
    return [*skyline, *scan_skyline]


class SubsetBoost:
    """A host skyline algorithm boosted by the subset approach.

    Parameters
    ----------
    host:
        Any :class:`BoostableHost` (e.g. ``SFS()``, ``SaLSa()``, ``SDI()``).
    sigma:
        Stability threshold for Merge; defaults to the paper's rounded
        ``d/3`` heuristic at compute time.

    >>> from repro.algorithms.sfs import SFS
    >>> from repro.data import generate
    >>> boosted = SubsetBoost(SFS())
    >>> result = boosted.compute(generate("UI", n=300, d=6, seed=3))
    >>> boosted.name
    'sfs-subset'
    """

    def __init__(
        self,
        host: BoostableHost,
        sigma: int | None = None,
        container: str = "subset",
        pivot_strategy: str = "euclidean",
    ) -> None:
        if not isinstance(host, BoostableHost):
            raise TypeError(
                f"{type(host).__name__} is not boostable: it lacks run_phase()"
            )
        if container not in ("subset", "list"):
            raise ValueError(f"container must be 'subset' or 'list', got {container!r}")
        self.host = host
        self.sigma = sigma
        self.container = container
        self.pivot_strategy = pivot_strategy
        self.name = f"{host.name}-subset"

    def compute(
        self,
        data: Dataset | np.ndarray,
        counter: DominanceCounter | None = None,
    ) -> "SkylineResult":
        """Compute the skyline; same contract as ``SkylineAlgorithm.compute``."""
        # Imported here to keep the core package import-light and acyclic.
        from repro.algorithms.base import run_timed

        return run_timed(self.name, data, counter, self._run)

    def _run(self, dataset: Dataset, counter: DominanceCounter) -> list[int]:
        return run_boosted_scan(
            dataset,
            self.host,
            counter,
            sigma=self.sigma,
            container=self.container,
            pivot_strategy=self.pivot_strategy,
        )
