"""Delta-repair primitives behind :meth:`PreparedDataset.apply_delta`.

The paper's Section 7 names "adapting the proposed method to updating
data" as its open direction; this module supplies the pieces that make a
mutation a *repairable* event instead of a cache-destroying one:

- :func:`normalize_delta` — validate and canonicalise an insert block and
  a delete id set against the current dataset shape;
- :func:`stable_ids` and :func:`remap_ids` — the two directions between a
  prepared dataset's id spaces.  Inside the prepared layer a row keeps one
  *stable* id for its whole life (rows append, deletes leave tombstones);
  callers see *positional* ids, where the live rows close ranks.  With
  ``t`` the sorted tombstones, stable id ``s`` is positional
  ``s - |{t < s}|``, one binary search per id.  :func:`remap_ids` is the
  only stable → positional conversion;
- :func:`repair_minima` — carry the exact per-column minima across a
  delta in O(batch·d), re-reducing a column only when a deleted row held
  its minimum;
- :func:`repair_merge_result` — suffix-repair a cached
  :class:`~repro.core.merge.MergeResult` held in stable ids: the pivot set
  is kept fixed, so Lemma 4.3/5.1 mask semantics survive, and each insert
  is classified against every pivot (one dominance test per pair, charged
  normally).  Deleted points stay in the remaining/duplicate sets as
  tombstoned ids, which the owner filters out when it translates the
  result to positional ids for a scan.  Returns ``None`` when the entry
  cannot be repaired (a pivot was deleted, or an insert dominates a
  pivot) — the caller drops it and the next query re-merges;
- :func:`live_merge_result` — that translation: tombstoned ids dropped,
  stable ids made positional.

A repaired ``MergeResult`` computes the **same skyline** as a cold Merge
over the mutated dataset, but is not bit-identical to one: pivot selection
depends on global minima, so a cold run may pick different pivots and
charge a different test count.  The engine's equivalence contract is
scoped to cold contexts, and the bench gate asserts identical skyline ids,
not identical pivots.

:class:`DeltaReport` is what ``apply_delta`` returns (what happened, to
which caches); :class:`DeltaState` is what the planner reads (how much is
pending, whether a noted skyline covers it).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from repro.core.merge import MergeResult
from repro.dominance import dominance_matrix
from repro.errors import DimensionMismatchError, InvalidParameterError
from repro.stats.counters import DominanceCounter

__all__ = [
    "DeltaReport",
    "DeltaState",
    "absorb_since",
    "live_merge_result",
    "normalize_delta",
    "remap_ids",
    "repair_merge_result",
    "repair_minima",
    "stable_ids",
]


@dataclass(frozen=True)
class DeltaReport:
    """Outcome of one :meth:`PreparedDataset.apply_delta` call.

    Attributes
    ----------
    mode:
        ``"repair"`` (caches suffix-repaired, delta logged), ``"recompute"``
        (full invalidate — delta too large or forced) or ``"noop"``.
    inserted, deleted:
        Row counts of the applied delta.
    fraction:
        ``(inserted + deleted) / n_before`` — the repair-threshold input.
    version:
        The prepared dataset's version after the call.
    merge_repaired, merge_dropped:
        Cached Merge results suffix-repaired vs dropped as unrepairable.
    views_repaired:
        Cached subspace views delta-repaired recursively: every view, since
        a view flips a maximized column by exact negation, which a delta
        cannot shift.
    views_dropped:
        Always 0; kept because perfbench reports it
        (``prepared.views_dropped``).
    sort_tagged, sort_dropped:
        Sort caches tagged for lazy suffix repair at the next scan vs
        dropped (entries without key arrays, or a min-corner change).
    """

    mode: str
    inserted: int
    deleted: int
    fraction: float
    version: int
    merge_repaired: int = 0
    merge_dropped: int = 0
    views_repaired: int = 0
    views_dropped: int = 0
    sort_tagged: int = 0
    sort_dropped: int = 0


@dataclass(frozen=True)
class DeltaState:
    """The planner's view of a prepared dataset's pending mutations.

    Attributes
    ----------
    pending_ops:
        Total inserted + deleted rows logged since the last noted skyline.
    batches:
        Number of ``apply_delta`` calls those operations arrived in.
    fraction:
        ``pending_ops`` over the current cardinality.
    covered:
        True when a noted full skyline exists to repair from (always true
        for states surfaced by ``delta_state`` — kept explicit for the
        planner's cost-model signals).
    stream_ready:
        True when the replay stream is already bootstrapped, so repair
        skips the O(n·anchors) warm start.
    """

    pending_ops: int
    batches: int
    fraction: float
    covered: bool
    stream_ready: bool


def normalize_delta(
    shape: tuple[int, int],
    inserts: "np.ndarray | list[list[float]] | None",
    deletes: "np.ndarray | list[int] | None",
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a delta against a dataset of ``shape``; return ``(ins_block, del_ids)``.

    ``ins_block`` is a ``(k, d)`` float64 block (possibly ``k == 0``);
    ``del_ids`` is a sorted, duplicate-free ``intp`` array of in-range row
    ids of the *current* dataset.
    """
    n, d = shape
    if inserts is None:
        ins = np.empty((0, d), dtype=np.float64)
    else:
        ins = np.asarray(inserts, dtype=np.float64)
        if ins.ndim == 1 and ins.shape[0] == d:
            ins = ins[None, :]
        if ins.ndim != 2 or ins.shape[1] != d:
            raise DimensionMismatchError(
                f"inserts must be a (k, {d}) block, got shape {ins.shape}"
            )
        if not np.isfinite(ins).all():
            raise InvalidParameterError("inserts contain NaN or infinite values")
    if deletes is None:
        dels = np.empty(0, dtype=np.intp)
    else:
        dels = np.asarray(deletes, dtype=np.intp).ravel()
        if dels.size:
            unique = np.unique(dels)
            if unique.size != dels.size:
                raise InvalidParameterError("deletes contain duplicate row ids")
            if unique[0] < 0 or unique[-1] >= n:
                raise InvalidParameterError(
                    f"deletes out of range for cardinality {n}: "
                    f"[{int(unique[0])}, {int(unique[-1])}]"
                )
            dels = unique
    return ins, dels


def remap_ids(ids: np.ndarray, deletes: np.ndarray) -> np.ndarray:
    """Translate ids past the sorted ``deletes`` into closed ranks.

    Pre-delta row ids become post-delta ids, and stable ids become
    positional ids when ``deletes`` are the tombstones.  None of ``ids``
    may be deleted.
    """
    if deletes.size == 0:
        return ids
    return ids - np.searchsorted(deletes, ids)


def stable_ids(positions: np.ndarray, tombstones: np.ndarray) -> np.ndarray:
    """The stable ids of live rows at ``positions`` (inverse of :func:`remap_ids`).

    The ``j``-th tombstone has ``tombstones[j] - j`` live ids below it, so
    a position counts every tombstone whose live-rank is at or below it:
    one O(t) rank pass, then a binary search per position.
    """
    positions = np.asarray(positions, dtype=np.intp)
    if tombstones.size == 0:
        return positions
    ranks = tombstones - np.arange(tombstones.size)
    return positions + np.searchsorted(ranks, positions, side="right")


def repair_minima(
    minima: np.ndarray,
    removed: np.ndarray,
    inserts: np.ndarray,
    live_column: "Callable[[int], np.ndarray]",
) -> np.ndarray:
    """Exact column minima of the rows after a delta.

    ``minima`` are the pre-delta minima, ``removed`` the deleted rows and
    ``live_column(c)`` column ``c`` of the post-delta rows (survivors and
    ``inserts``).  Inserts fold in with one reduction; a column is
    re-reduced over ``live_column`` only when a deleted row held its
    minimum, so a delta costs O(batch·d) unless it deletes a minimum.  The
    input arrays are never modified.
    """
    new = np.minimum(minima, inserts.min(axis=0)) if inserts.shape[0] else minima.copy()
    if removed.shape[0]:
        for column in np.flatnonzero((removed == minima).any(axis=0)).tolist():
            new[column] = live_column(column).min()
    return new


def repair_merge_result(
    result: MergeResult,
    rows: np.ndarray,
    inserts: np.ndarray,
    deletes: np.ndarray,
    first_new: int,
    cardinality: int,
    counter: DominanceCounter,
) -> MergeResult | None:
    """Suffix-repair one cached Merge result, or ``None`` if unrepairable.

    ``result`` and ``deletes`` are in stable ids, ``rows`` holds every
    stable id's row, the inserts take ids from ``first_new`` on and
    ``cardinality`` is the live row count after the delta.  Keeps the
    pivot set fixed: every surviving mask stays a union of dominating
    subspaces against the same anchors, so the boosted scan's Lemma 5.1
    superset queries remain sound.  Each insert is classified against
    every pivot exactly as the Merge loop would classify a point that
    outlived every extraction — one charged test per (insert, pivot) pair
    — and joins ``remaining_ids`` with the unioned mask, the duplicate set
    (coordinate-equal to a pivot) or the pruned set.  Deleted ids are left
    in place; the cost is O(batch · pivots), not O(n).
    """
    if not set(result.pivot_ids).isdisjoint(deletes.tolist()):
        return None  # a pivot left the dataset; pruning evidence is gone
    pivot_rows = rows[np.asarray(result.pivot_ids, dtype=np.intp)]
    k = int(inserts.shape[0])
    # Every (insert, pivot) pair at once, charged as the Merge loop would
    # pay pivot by pivot: k tests per pivot, stopping after the first
    # pivot an insert dominates.
    dominated = dominance_matrix(pivot_rows, inserts).any(axis=1)
    if dominated.any():
        counter.add((int(dominated.argmax()) + 1) * k)
        return None  # an insert dominates this pivot
    counter.add(pivot_rows.shape[0] * k)
    weights = np.left_shift(np.int64(1), np.arange(rows.shape[1], dtype=np.int64))
    ahead = inserts[:, None, :] < pivot_rows  # (insert, pivot, column)
    subs = ahead.astype(np.int64) @ weights  # D_{insert<pivot}
    duplicate_inserts = (inserts[:, None, :] == pivot_rows).all(axis=2).any(axis=1)
    survivors = (subs != 0).all(axis=1)  # an equal pair has an empty D too
    insert_masks = np.bitwise_or.reduce(subs, axis=1)

    remaining = np.concatenate(
        [result.remaining_ids, first_new + np.flatnonzero(survivors)]
    ).astype(np.intp)
    masks = np.concatenate([result.masks, insert_masks[survivors]]).astype(np.int64)
    duplicates = [
        *result.duplicate_skyline_ids,
        *(first_new + int(i) for i in np.flatnonzero(duplicate_inserts)),
    ]
    metadata = dict(result.metadata)
    metadata["delta_repaired"] = True
    metadata["cardinality"] = cardinality
    return replace(
        result,
        duplicate_skyline_ids=duplicates,
        remaining_ids=remaining,
        masks=masks,
        exhausted=remaining.size == 0,
        metadata=metadata,
    )


def live_merge_result(result: MergeResult, tombstones: np.ndarray) -> MergeResult:
    """``result`` with tombstoned ids dropped and stable ids made positional."""
    if tombstones.size == 0:
        return result
    keep = ~np.isin(result.remaining_ids, tombstones)
    remaining = remap_ids(result.remaining_ids[keep], tombstones)
    duplicates = np.asarray(result.duplicate_skyline_ids, dtype=np.intp)
    duplicates = duplicates[~np.isin(duplicates, tombstones)]
    pivots = np.asarray(result.pivot_ids, dtype=np.intp)
    return replace(
        result,
        pivot_ids=remap_ids(pivots, tombstones).tolist(),
        duplicate_skyline_ids=remap_ids(duplicates, tombstones).tolist(),
        remaining_ids=remaining,
        masks=result.masks[keep],
        exhausted=remaining.size == 0,
    )


def absorb_since(
    target: DominanceCounter,
    current: DominanceCounter,
    since: DominanceCounter,
) -> None:
    """Fold ``current - since`` into ``target`` (replay-stream accounting).

    The replay stream owns a lifetime counter; each repair charges only the
    tallies accrued during that repair onto the caller's counter.
    """
    target.tests += current.tests - since.tests
    target.index_queries += current.index_queries - since.index_queries
    target.index_nodes_visited += (
        current.index_nodes_visited - since.index_nodes_visited
    )
    target.prepared_cache_hits += (
        current.prepared_cache_hits - since.prepared_cache_hits
    )
    target.prepared_cache_misses += (
        current.prepared_cache_misses - since.prepared_cache_misses
    )
    for key, value in current.extras.items():
        delta = value - since.extras.get(key, 0.0)
        if delta:
            target.extras[key] = target.extras.get(key, 0.0) + delta
