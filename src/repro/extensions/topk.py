"""Top-k dominating queries.

The *top-k dominating* query (Papadias et al., TODS 2005) returns the ``k``
points that dominate the most other points — a ranking operator that, like
the skyline, needs no user-defined scoring function.

Candidate pruning uses a structural fact that ties it to the skyband: if
``q`` dominates ``p``, then ``q`` dominates every point ``p`` dominates and
``p`` itself, so ``score(q) >= score(p) + 1``.  A point with ``j``
dominators therefore has ``j`` points strictly outscoring it, which means
**the top-k dominating points always lie inside the k-skyband**.  The
implementation computes the k-skyband (mask-filtered, see
:mod:`repro.extensions.skyband`) and counts dominated points only for its
members — exact counts, one vectorised pass per candidate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.dataset import Dataset, as_dataset
from repro.dominance import dominance_matrix
from repro.errors import InvalidParameterError
from repro.extensions.skyband import skyband
from repro.stats.counters import DominanceCounter

if TYPE_CHECKING:
    from repro.engine import SkylineEngine


def dominance_score(
    data: Dataset | np.ndarray,
    point_id: int,
    counter: DominanceCounter | None = None,
) -> int:
    """Number of dataset points strictly dominated by point ``point_id``."""
    dataset = as_dataset(data)
    values = dataset.values
    if not 0 <= point_id < dataset.cardinality:
        raise InvalidParameterError(
            f"point id {point_id} outside [0, {dataset.cardinality})"
        )
    if counter is not None:
        counter.add(dataset.cardinality - 1)
    return int(dominance_matrix(values, values[point_id : point_id + 1]).sum())


def top_k_dominating(
    data: Dataset | np.ndarray,
    k: int,
    counter: DominanceCounter | None = None,
    engine: "SkylineEngine | None" = None,
) -> list[tuple[int, int]]:
    """The ``k`` points with the highest dominance scores.

    Returns ``(point_id, score)`` pairs sorted by descending score, ties
    broken by ascending id.  Fewer than ``k`` pairs are returned only when
    the dataset is smaller than ``k``.  A shared ``engine`` lets the
    underlying skyband pass reuse its cached anchor-mask preprocessing.

    >>> import numpy as np
    >>> pts = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [0.5, 9.0]])
    >>> top_k_dominating(pts, k=2)
    [(0, 2), (1, 1)]
    """
    dataset = as_dataset(data)
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    counter = counter if counter is not None else DominanceCounter()
    k = min(k, dataset.cardinality)
    candidates = sorted(skyband(dataset, k, counter, engine=engine))
    scored = [
        (point_id, dominance_score(dataset, point_id, counter))
        for point_id in candidates
    ]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]
