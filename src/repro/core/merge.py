"""Algorithm 1 — Merge: subspace union over iteratively selected pivot points.

Scores every point by its Euclidean distance to the zero point, repeatedly
extracts the minimum-score point as a pivot (immediately a skyline point),
prunes everything the pivot dominates, and unions each survivor's dominating
subspace w.r.t. the pivot into its *maximum dominating subspace*.  Iteration
stops when the subspace-size distribution is stable (σ′ >= σ) or when the
dataset is exhausted.

Implementation notes
--------------------
- Each per-pivot dominating-subspace computation inspects one point pair and
  is charged as one dominance test, so boosted algorithms pay ~(pivots · N)
  tests up front — visible in the paper's CO tables, where boosted DT sits
  slightly above 1.0 while stop-point algorithms sit near 0.
- The paper scores by distance to the origin, which presumes non-negative
  data.  We score by distance to the componentwise minimum corner instead —
  identical on the paper's ``[0, 1]`` benchmarks, and it keeps the "minimum
  score ⇒ skyline point" invariant for arbitrary real-valued data.
- Every score is only weakly monotone in floats (the corner shift and the
  sum can both round a sub-ulp difference away), so among the points with
  the minimum score the pivot is the first in
  :func:`~repro.dominance.scan_order` over their raw rows: no point that
  dominates it can tie its score and come later.
- Points equal to a pivot are skyline points too (Algorithm 1 lines 14–17)
  and are reported separately in :attr:`MergeResult.duplicate_skyline_ids`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.stability import StabilityTracker, validate_threshold
from repro.dataset import Dataset, as_dataset
from repro.dominance import dominating_subspaces, scan_order
from repro.errors import InvalidParameterError
from repro.obs.clock import Stopwatch
from repro.obs.trace import TracerLike, current_tracer
from repro.stats.counters import DominanceCounter
from repro.structures import bitset

#: Per-pivot ``merge.round`` records kept per Merge pass.  Exhausted runs
#: can iterate thousands of times; rounds beyond this cap go unrecorded
#: (the enclosing ``merge`` span still reports the true iteration count,
#: so truncation is visible, not silent).
_MAX_ROUND_RECORDS = 128


@dataclass(frozen=True)
class MergeResult:
    """Output of the Merge pass (Algorithm 1).

    Attributes
    ----------
    pivot_ids:
        Pivot points in selection order; each is a skyline point.
    duplicate_skyline_ids:
        Points coordinate-equal to some pivot; also skyline points.
    remaining_ids:
        Non-pruned points: every one of them is *not* dominated by any
        pivot, and carries a non-empty maximum dominating subspace.
    masks:
        ``int64`` bitmasks aligned with ``remaining_ids``: entry ``k`` is
        ``D_{q<S}`` for ``q = remaining_ids[k]``.
    iterations:
        Number of pivots processed.
    final_stability:
        σ′ when the loop stopped.
    exhausted:
        True when the dataset emptied before σ′ reached σ; in that case
        the skyline is already complete and no scan phase is needed.
    """

    pivot_ids: list[int]
    duplicate_skyline_ids: list[int]
    remaining_ids: np.ndarray
    masks: np.ndarray
    iterations: int
    final_stability: int
    exhausted: bool
    metadata: dict[str, object] = field(default_factory=dict)
    _position_of: dict[int, int] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def initial_skyline_ids(self) -> list[int]:
        """All skyline points identified during the merge phase."""
        return [*self.pivot_ids, *self.duplicate_skyline_ids]

    def mask_of(self, point_id: int) -> int:
        """The maximum dominating subspace of a remaining point.

        ``O(1)`` after a lazily built id → position map (the boosted scan
        looks masks up per testing point; a linear ``np.nonzero`` scan per
        lookup would be quadratic overall).
        """
        if self._position_of is None:
            positions = {
                int(pid): pos for pos, pid in enumerate(self.remaining_ids)
            }
            object.__setattr__(self, "_position_of", positions)
        assert self._position_of is not None
        position = self._position_of.get(point_id)
        if position is None:
            raise KeyError(f"point {point_id} is not in the remaining set")
        return int(self.masks[position])


#: Pivot scoring strategies for the ablation study.  Every strategy must
#: guarantee that the argmin, ties broken by scan_order, is a skyline point
#: of the remaining set: all three are monotone under dominance on
#: min-corner-shifted data, strictly in exact arithmetic but only weakly in
#: floats, which is what the scan_order tiebreak covers.
PIVOT_STRATEGIES = ("euclidean", "sum", "maxmin")


def merge(
    data: Dataset | np.ndarray,
    sigma: int,
    counter: DominanceCounter | None = None,
    pivot_strategy: str = "euclidean",
) -> MergeResult:
    """Run Algorithm 1 with stability threshold ``sigma`` (``1 < σ <= d``).

    ``pivot_strategy`` selects the scoring function for pivot extraction:
    the paper's Euclidean distance (default), the coordinate sum, or the
    maximum coordinate (``maxmin``) — compared by the pivot ablation bench.

    >>> from repro.data import generate
    >>> result = merge(generate("UI", n=500, d=6, seed=1), sigma=2)
    >>> len(result.pivot_ids) >= 1
    True
    """
    dataset = as_dataset(data)
    values = dataset.values
    n, d = values.shape
    validate_threshold(sigma, d)
    if pivot_strategy not in PIVOT_STRATEGIES:
        raise InvalidParameterError(
            f"unknown pivot strategy {pivot_strategy!r}; "
            f"expected one of {PIVOT_STRATEGIES}"
        )
    counter = counter if counter is not None else DominanceCounter()
    tracer = current_tracer()
    with tracer.span(
        "merge", counter=counter, sigma=sigma, n=n, d=d, strategy=pivot_strategy
    ) as span:
        result = _merge_body(
            values, n, d, sigma, pivot_strategy, counter, tracer
        )
        span.set(
            iterations=result.iterations,
            pivots=len(result.pivot_ids),
            remaining=int(result.remaining_ids.size),
            exhausted=result.exhausted,
        )
    return result


def _merge_body(
    values: np.ndarray,
    n: int,
    d: int,
    sigma: int,
    pivot_strategy: str,
    counter: DominanceCounter,
    tracer: TracerLike,
) -> MergeResult:
    # Distance to the minimum corner: the generalised "zero point" score.
    shifted = values - values.min(axis=0)
    if pivot_strategy == "euclidean":
        scores = np.sqrt(np.einsum("ij,ij->i", shifted, shifted))
    elif pivot_strategy == "sum":
        scores = shifted.sum(axis=1)
    else:  # maxmin: smallest worst coordinate
        scores = shifted.max(axis=1)

    # The pruning loop operates on *compacted* parallel buffers: ids,
    # coordinates, scores and masks of the alive points occupy the
    # prefix [:size] of preallocated arrays, in original id order.  Each
    # iteration runs the dominating-subspace kernel on the two contiguous
    # slices around the pivot row (no per-pivot fancy-index gather) and
    # then compacts pivot + pruned rows away in one boolean pass — the
    # batched replacement for the former ``np.delete`` + gather + filter
    # sequence, with identical pivot selection, masks and test accounting.
    size = n
    ids_buf = np.arange(n, dtype=np.intp)
    vals_buf = np.array(values, copy=True)
    score_buf = np.array(scores, copy=True)
    masks_buf = np.zeros(n, dtype=np.int64)
    tracker = StabilityTracker(d)
    pivots: list[int] = []
    duplicates: list[int] = []
    stability = 0
    iterations = 0
    exhausted = False
    # Per-round phase records are sampled only under an enabled tracer;
    # the disabled path pays one boolean check per pivot.
    rounds_watch = Stopwatch() if tracer.enabled else None

    while stability < sigma:
        if size == 0:
            exhausted = True
            break
        active_scores = score_buf[:size]
        minima = np.nonzero(active_scores == active_scores.min())[0]
        local = int(minima[scan_order(vals_buf[minima])[0]])
        pivots.append(int(ids_buf[local]))
        pivot_row = vals_buf[local].copy()
        iterations += 1
        keep = np.ones(size, dtype=bool)
        keep[local] = False
        if size > 1:
            # One dominance test per surviving point, exactly as the
            # scalar loop would charge: the pivot row itself is excluded
            # by splitting the block around it.
            subs = np.empty(size, dtype=np.int64)
            subs[local] = 0
            if local:
                subs[:local] = dominating_subspaces(
                    vals_buf[:local], pivot_row, counter
                )
            if local + 1 < size:
                subs[local + 1 : size] = dominating_subspaces(
                    vals_buf[local + 1 : size], pivot_row, counter
                )
            masks_buf[:size] = bitset.union(masks_buf[:size], subs)
            pruned = (subs == 0) & keep
            if pruned.any():
                pruned_ids = ids_buf[:size][pruned]
                equal = np.all(vals_buf[:size][pruned] == pivot_row, axis=1)
                duplicates.extend(int(i) for i in pruned_ids[equal])
                keep[pruned] = False
        newsize = int(keep.sum())
        ids_buf[:newsize] = ids_buf[:size][keep]
        vals_buf[:newsize] = vals_buf[:size][keep]
        score_buf[:newsize] = score_buf[:size][keep]
        masks_buf[:newsize] = masks_buf[:size][keep]
        removed = size - newsize
        size = newsize
        stability = tracker.update(np.bitwise_count(masks_buf[:size]))
        if rounds_watch is not None and iterations <= _MAX_ROUND_RECORDS:
            tracer.record(
                "merge.round",
                rounds_watch.lap(),
                pivot=pivots[-1],
                removed=removed,
                remaining=size,
                stability=stability,
            )

    return MergeResult(
        pivot_ids=pivots,
        duplicate_skyline_ids=duplicates,
        remaining_ids=ids_buf[:size].copy(),
        masks=masks_buf[:size].copy(),
        iterations=iterations,
        final_stability=stability,
        exhausted=exhausted,
        metadata={
            "sigma": sigma,
            "cardinality": n,
            "dimensionality": d,
            "pivot_strategy": pivot_strategy,
        },
    )
