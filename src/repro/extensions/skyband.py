"""k-skyband computation with the paper's incomparability machinery.

The *k-skyband* (Papadias et al., TODS 2005) generalises the skyline: it is
the set of points dominated by fewer than ``k`` other points (``k = 1``
gives the skyline).  It is the natural "give me slightly more than the
frontier" operator for top-k preference queries.

The subset approach's Merge pruning is **unsound** here — a point dominated
by one pivot can still belong to the skyband for ``k > 1`` — but the
paper's incomparability masks remain valid for any reference point: a
point ``p`` can only dominate ``q`` when ``mask(p) ⊇ mask(q)``
(Lemma 4.3 holds unconditionally for a fixed anchor).  This module
therefore runs a monotone sorted scan that counts dominators only among
mask-superset skyband members, skipping all provably incomparable pairs.

Key invariant of the sorted scan (:func:`~repro.dominance.scan_order`,
which breaks equal float sums by column): every dominator of a point
precedes it, skyband members are never invalidated later, and a
discarded point's dominators are themselves skyband members — so
counting dominators within the current skyband is exact.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.dataset import Dataset, as_dataset
from repro.dominance import dominance_matrix, dominating_subspaces, scan_order
from repro.errors import InvalidParameterError
from repro.stats.counters import DominanceCounter
from repro.structures import bitset

if TYPE_CHECKING:
    from repro.engine import SkylineEngine


def _count_dominators_capped(
    block: np.ndarray,
    q: np.ndarray,
    cap: int,
    counter: DominanceCounter,
) -> int:
    """Dominators of ``q`` in ``block``, stopping (in accounting) at ``cap``.

    Charges exactly the tests a sequential loop with an early exit at the
    ``cap``-th dominator would pay.
    """
    n = block.shape[0]
    if n == 0:
        return 0
    mask = dominance_matrix(q[None, :], block)[0]
    total = int(mask.sum())
    if total < cap:
        counter.add(n)
        return total
    # Position of the cap-th dominator: the sequential loop stops there.
    stop = int(np.nonzero(np.cumsum(mask) == cap)[0][0])
    counter.add(stop + 1)
    return cap


def anchor_masks(
    dataset: Dataset, counter: DominanceCounter
) -> np.ndarray:
    """Per-point incomparability masks against the distance-minimal anchor.

    One dominating-subspace computation per point is charged.  The masks
    are a pure function of the dataset, so engine-aware callers cache them
    via :meth:`~repro.engine.prepared.PreparedDataset.artefact`.
    """
    values = dataset.values
    corner = values.min(axis=0)
    shifted = values - corner
    anchor = int(np.argmin(np.einsum("ij,ij->i", shifted, shifted)))
    return dominating_subspaces(values, values[anchor], counter)


def skyband(
    data: Dataset | np.ndarray,
    k: int,
    counter: DominanceCounter | None = None,
    engine: "SkylineEngine | None" = None,
) -> dict[int, int]:
    """The k-skyband: point id → exact dominator count (< ``k``).

    With a shared ``engine``, the anchor-mask preprocessing (one
    dominating-subspace test per point) is computed once per dataset and
    served from the prepared cache on repeated calls — e.g. the skyband
    pass inside :func:`~repro.extensions.topk.top_k_dominating` followed by
    a direct skyband query.

    >>> import numpy as np
    >>> band = skyband(np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]), k=2)
    >>> sorted(band.items())
    [(0, 0), (1, 1)]
    """
    dataset = as_dataset(data)
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    counter = counter if counter is not None else DominanceCounter()
    values = dataset.values

    # Anchor masks: valid incomparability filters for any reference point.
    if engine is not None:
        run_counter = counter
        masks = engine.prepare(dataset).artefact(
            "skyband-anchor-masks",
            lambda: anchor_masks(dataset, run_counter),
            counter,
        )
    else:
        masks = anchor_masks(dataset, counter)

    order = scan_order(values)
    band: dict[int, int] = {}
    member_ids: list[int] = []
    member_masks = np.empty(0, dtype=np.int64)
    for point_id in order:
        point_id = int(point_id)
        q_mask = int(masks[point_id])
        # Candidate dominators: skyband members whose mask ⊇ q's mask.
        candidate = bitset.subset_of_many(q_mask, member_masks)
        block = values[np.asarray(member_ids, dtype=np.intp)[candidate]]
        dominators = _count_dominators_capped(block, values[point_id], k, counter)
        if dominators < k:
            band[point_id] = dominators
            member_ids.append(point_id)
            member_masks = np.append(member_masks, np.int64(q_mask))
    return band


def skyband_ids(
    data: Dataset | np.ndarray,
    k: int,
    counter: DominanceCounter | None = None,
    engine: "SkylineEngine | None" = None,
) -> list[int]:
    """Sorted ids of the k-skyband members."""
    return sorted(skyband(data, k, counter, engine=engine))
