"""Subspace-grouped settlement: a boosted scan one subspace at a time.

A boosted host scans its testing points in a monotone order (every
dominator before the points it dominates), and its per-point loop tests
each point against the container's candidates for the point's maximum
dominating subspace: by Lemma 5.1 the confirmed points of superset
subspaces.  Every point of one subspace has the same candidates, so
:func:`settle` settles the scan group by group instead:

1. group the testing points by subspace and take the groups superset
   first (decreasing popcount), so every survivor a group can be
   dominated by is stored before the group is settled;
2. walk the subset index once per group (``container.walk``): the
   confirmed points of superset subspaces, plus the points the container
   held before the scan;
3. settle the group against those points and against itself with
   :func:`~repro.dominance.dominance_matrix`;
4. store the group's survivors with one ``container.add_many``.

**Survivor status is order-free.**  A testing point survives the loop if
and only if no testing or held point dominates it: a dominator that is
itself undominated is a survivor (or held), comes earlier in a monotone
order, and by Lemma 5.1 is among the point's candidates; any other
dominator is dominated in turn by one that is.  So settling the groups in
any superset-first order finds the loop's skyline.

**The charge is an array formula.**  The loop charges a point what
:func:`~repro.dominance.first_dominator` charges over its candidates in
insertion order: the first dominator's rank plus one, or the number of
candidates when none dominates.  Insertion time is the scan position
(held points come first, in their own order), so one matrix of the group
against its candidates sorted by insertion time gives every point's
first dominator and the number of stored points before it; see
:func:`settle`.  SDI charges differently, by the dimension prefix, after
replaying its traversal (``algorithms/sdi.py``).

**Bounded memory.**  No :func:`~repro.dominance.dominance_matrix` call
evaluates more than :data:`PAIR_BUDGET` (row, candidate) pairs: a large
group is taken in blocks of rows by scan position, and its candidates in
chunks, the first :data:`FIRST_CHUNK` wide, then growing
(:func:`first_hits`).  A row leaves the pass at its first dominator or
once the chunks pass its own insertion time.

**Small groups.**  At high dimensionality most subspaces hold one or two
testing points, and a matrix pass costs more than the per-point kernel
it replaces; a group of fewer than :data:`MATRIX_MIN_ROWS` rows is
tested row by row with :func:`~repro.dominance.first_dominator` instead,
over the same candidates, with the same result.  Each group still takes
one index walk.
"""

from __future__ import annotations

import numpy as np

from repro.core.container import SkylineContainer
from repro.dominance import dominance_matrix, first_dominator

#: Most (row, candidate) pairs one :func:`dominance_matrix` call of a
#: grouped scan evaluates: the boolean result stays at 1 MiB.
PAIR_BUDGET = 1 << 20

#: Width of the first candidate chunk.  Candidates come strongest first
#: (insertion order of a monotone scan), so most dominated rows stop in
#: it; later chunks double, so a surviving row pays ``O(log k)`` calls.
#: A block holds ``PAIR_BUDGET // FIRST_CHUNK`` rows, so its first chunk
#: fills the budget.
FIRST_CHUNK = 256

#: Fewest rows :func:`first_hits` settles with a matrix pass.  Fewer rows
#: are tested one at a time with the early-exit kernel: on one or two
#: rows against 300-8,000 candidates (d = 8-24) it ran 1.1-3x faster
#: than the matrix pass, and from four rows on 1.9-3.8x slower.
MATRIX_MIN_ROWS = 3

#: numpy's ufunc buffer, in elements, while :func:`first_hits` runs its
#: matrix pass.  With numpy 2.4 the broadcast comparisons of
#: :func:`~repro.dominance.dominance_matrix` ran 3-4x slower per element
#: under the default 8,192-element buffer on this pass's shapes (256-4,096
#: rows or columns a block); at 512 they run fast (docs/PERFORMANCE.md
#: §10).  Scoped here, the shared kernel keeps numpy's default.
UFUNC_BUFFER = 512


def first_hits(rows: np.ndarray, cols: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Index of the first of ``cols[:ends[i]]`` that dominates ``rows[i]``, or -1.

    Rows are taken in blocks of ``PAIR_BUDGET // FIRST_CHUNK``.  A block's
    rows still open are tested against geometrically growing column
    chunks, each call within :data:`PAIR_BUDGET` pairs; a row closes at
    its first dominator or when the chunks reach ``ends[i]``.  No column
    at or past ``ends[i]`` may dominate ``rows[i]``: a chunk that reaches
    past it is not masked.  Fewer than :data:`MATRIX_MIN_ROWS` rows are
    tested one at a time instead.
    """
    if rows.shape[0] < MATRIX_MIN_ROWS:
        found = [
            first_dominator(cols[:end], row)  # noqa: RPR001 — callers charge the tests from the returned indices
            for row, end in zip(rows, ends.tolist())
        ]
        return np.array(found, dtype=np.intp)
    first = np.full(rows.shape[0], -1, dtype=np.intp)
    step = max(1, PAIR_BUDGET // FIRST_CHUNK)
    with np.errstate():  # restores the buffer size on exit
        np.setbufsize(UFUNC_BUFFER)
        for low in range(0, rows.shape[0], step):
            open_rows = low + np.flatnonzero(ends[low : low + step] > 0)
            start, width = 0, FIRST_CHUNK
            while open_rows.size:
                width = min(width, max(1, PAIR_BUDGET // open_rows.size))
                stop = min(start + width, cols.shape[0])
                hits = dominance_matrix(rows[open_rows], cols[start:stop])
                found = hits.any(axis=1)
                first[open_rows[found]] = start + hits[found].argmax(axis=1)
                open_rows = open_rows[~found & (ends[open_rows] > stop)]
                start, width = stop, 2 * width
    return first


def subspace_groups(masks: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """The positions of ``masks`` grouped by mask, superset first.

    Groups come in decreasing popcount, ties by mask, so every strict
    superset of a group's mask comes before it; each group's positions
    ascend.
    """
    by_mask = np.argsort(masks, kind="stable")
    group_masks, starts = np.unique(masks[by_mask], return_index=True)
    bounds = [*starts.tolist(), masks.size]
    popcounts = np.bitwise_count(group_masks).astype(np.intp)
    return [
        (int(group_masks[g]), by_mask[bounds[g] : bounds[g + 1]])
        for g in np.lexsort((group_masks, -popcounts)).tolist()
    ]


def settle(
    values: np.ndarray,
    order: np.ndarray,
    masks: np.ndarray,
    container: SkylineContainer,
    walks: dict[int, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Settle the scan of ``order`` over a ``by_subspace`` container.

    ``order`` holds the testing point ids in a monotone scan order and
    ``masks`` (indexed by point id) their maximum dominating subspaces.
    Survivors are stored in ``container``.  Returns ``(survives,
    charges)`` aligned with ``order``: whether ``order[i]`` is a skyline
    point, and the dominance tests the per-point loop over ``order``
    charges it.  ``walks``, when given, receives each group's walk
    result under its mask.

    A group's candidates (its walk result and the group itself) are
    sorted by insertion time.  A row's first dominating candidate is
    always a stored point or a surviving group member: a dominated member
    is dominated by an earlier candidate that is.  Its charge is that
    candidate's rank among the stored and surviving candidates, plus one;
    a survivor's is the number of those inserted before it.
    """
    order = np.asarray(order, dtype=np.intp)
    held = np.asarray(container.ids(), dtype=np.intp)
    inserted = np.empty(values.shape[0], dtype=np.intp)
    inserted[held] = np.arange(-held.size, 0)
    inserted[order] = np.arange(order.size)
    survives = np.zeros(order.size, dtype=bool)
    charges = np.zeros(order.size, dtype=np.int64)
    for mask, rows in subspace_groups(masks[order]):
        stored = container.walk(mask)
        if walks is not None:
            walks[mask] = stored
        group = order[rows]
        cands = np.concatenate([stored, group])
        by_time = np.argsort(inserted[cands], kind="stable")
        own = np.empty(cands.size, dtype=np.intp)
        own[by_time] = np.arange(cands.size)
        own = own[stored.size :]  # each member's place among the candidates
        first = first_hits(values[group], values[cands[by_time]], own)
        alive = first < 0
        # Group members that do not survive are no one's candidates.
        dead = np.zeros(cands.size, dtype=np.intp)
        dead[own[~alive]] = 1
        dead_before = np.cumsum(dead) - dead
        at = np.where(alive, own, first)
        charges[rows] = at - dead_before[at] + ~alive
        survives[rows] = alive
        if alive.any():
            container.add_many(group[alive].tolist(), mask)
    return survives, charges
