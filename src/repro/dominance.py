"""Dominance kernels: scalar tests and the vectorised block primitives.

Definition 3.1 of the paper (minimisation convention): ``p`` dominates ``q``
when ``p[i] <= q[i]`` in every dimension and ``p[k] < q[k]`` in at least one.

Pure-Python pairwise loops are the bottleneck of any skyline reproduction in
Python, so this module also provides the two *block* primitives every
vectorised caller is built on (see the "Dominance kernels" section of
``docs/PERFORMANCE.md``):

- :func:`first_dominator` — one point against a block, early exit, charging
  exactly what a sequential loop would pay (``index of the first dominator
  + 1``, or the block length when no row dominates);
- :func:`dominance_matrix` — every row of one block against every row of
  another, with no accounting: each caller charges its own rule.

:func:`first_dominator_prefix` is SDI's form of the first: the same
charge over a sorted column prefix, found in one unsorted pass.
:func:`scan_order` is the one scan order every presorted caller shares
(sort functions, per-dimension indexes, partitions, Merge's pivot choice):
every dominator precedes the points it dominates, even when float keys
and sums tie.
"""

from __future__ import annotations

import numpy as np

from repro.stats.counters import DominanceCounter
from repro.structures import bitset

__all__ = [
    "dominates",
    "weakly_dominates",
    "incomparable",
    "dominating_subspace",
    "dominating_subspaces",
    "first_dominator",
    "first_dominator_prefix",
    "dominance_matrix",
    "scan_order",
]


def dominates(p: np.ndarray, q: np.ndarray, counter: DominanceCounter | None = None) -> bool:
    """True when ``p`` dominates ``q`` (Definition 3.1, minimisation).

    >>> import numpy as np
    >>> dominates(np.array([1.0, 2.0]), np.array([1.0, 3.0]))
    True
    >>> dominates(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    False
    """
    if counter is not None:
        counter.add()
    return bool(np.all(p <= q) and np.any(p < q))


def weakly_dominates(
    p: np.ndarray, q: np.ndarray, counter: DominanceCounter | None = None
) -> bool:
    """True when ``p[i] <= q[i]`` in every dimension (``p`` ≼ ``q``)."""
    if counter is not None:
        counter.add()
    return bool(np.all(p <= q))


def incomparable(p: np.ndarray, q: np.ndarray, counter: DominanceCounter | None = None) -> bool:
    """True when neither point dominates the other (``p ~/~ q``)."""
    if counter is not None:
        counter.add(2)
    return not dominates(p, q) and not dominates(q, p)


def dominating_subspace(
    q: np.ndarray, p: np.ndarray, counter: DominanceCounter | None = None
) -> int:
    """Dominating subspace ``D_{q<p}`` of ``q`` w.r.t. ``p`` as a bitmask.

    Definition 3.4: the set of dimensions where ``q`` is strictly better
    than ``p``.  An empty result means ``p`` weakly dominates ``q`` (or they
    are equal); a full mask means ``q`` dominates ``p``.  Computing it
    inspects one point pair, so one dominance test is charged.
    """
    if counter is not None:
        counter.add()
    strict = np.asarray(q) < np.asarray(p)
    return bitset.from_dims(int(dim) for dim in np.nonzero(strict)[0])


def dominating_subspaces(
    block: np.ndarray, p: np.ndarray, counter: DominanceCounter | None = None
) -> np.ndarray:
    """``D_{q<p}`` bitmasks for every row ``q`` of ``block`` (vectorised).

    Charges one dominance test per row, matching the scalar loop the Merge
    algorithm (Algorithm 1, line 12) would otherwise run.  Returns an
    ``int64`` array; valid for ``d <= 62``.
    """
    block = np.asarray(block)
    if counter is not None:
        counter.add(block.shape[0])
    weights = np.left_shift(np.int64(1), np.arange(block.shape[1], dtype=np.int64))
    return (block < p).astype(np.int64) @ weights


#: (row, dominator) pairs evaluated per block of :func:`dominance_matrix`:
#: its boolean temporaries stay at a few MB, and blocks stay long enough
#: for numpy's unbuffered broadcast loops (see docs/PERFORMANCE.md §8).
_MATRIX_BLOCK = 1 << 18


def dominance_matrix(rows: np.ndarray, dominators: np.ndarray) -> np.ndarray:
    """Boolean ``(len(rows), len(dominators))`` matrix, no accounting.

    Entry ``[i, j]`` is true when ``dominators[j]`` dominates ``rows[i]``
    (Definition 3.1): ``<=`` in every column and ``<`` in at least one.
    Both passes compare column-major copies with the longer side
    innermost, so numpy's inner loops run long whatever the shape.
    ``rows`` is evaluated in blocks of ``_MATRIX_BLOCK`` pairs.

    >>> import numpy as np
    >>> dominance_matrix(np.array([[2.0, 2.0], [1.0, 1.0]]), np.array([[1.0, 1.0]]))
    array([[ True],
           [False]])
    """
    rows = np.asarray(rows)
    dominators = np.asarray(dominators)
    out = np.zeros((rows.shape[0], dominators.shape[0]), dtype=bool)
    if out.size == 0:
        return out
    dominator_cols = np.ascontiguousarray(dominators.T)
    step = max(1, _MATRIX_BLOCK // out.shape[1])
    for start in range(0, rows.shape[0], step):
        row_cols = np.ascontiguousarray(rows[start : start + step].T)
        flip = row_cols.shape[1] > out.shape[1]  # rows innermost
        dom = dominator_cols[:, :, None] if flip else dominator_cols[:, None, :]
        row = row_cols[:, None, :] if flip else row_cols[:, :, None]
        hits = (dom <= row).all(axis=0) & (dom < row).any(axis=0)
        out[start : start + step] = hits.T if flip else hits
    return out


def scan_order(rows: np.ndarray, key: np.ndarray | None = None) -> np.ndarray:
    """Row order in which every dominator precedes the rows it dominates.

    A stable ascending sort by ``(key, row sum, column 0, ..., column
    d-1)``.  ``key``, when given, is any per-row value that is never larger
    for a dominator than for its victim: a sort function, one dimension's
    value, a rank.  In floats every such key is only *weakly* monotone, and
    so is the row sum (``1.0 + 1e-17 == 1.0``), but among rows that tie on
    both a dominator is lexicographically smaller.  The full lexsort runs
    only when some ``(key, sum)`` pair ties, so tie-free data pays one
    extra comparison pass, and there the order is ``lexsort((sums, key))``.

    ``rows`` must be the raw coordinates, never a corner-shifted copy:
    ``x - min`` can itself round a sub-ulp difference away.

    >>> import numpy as np
    >>> scan_order(np.array([[1.0, 1e-17], [1.0, 0.0], [0.5, 0.0]])).tolist()
    [2, 1, 0]
    >>> scan_order(np.array([[0.0, 3.0], [1.0, 1.0]]), key=np.array([1, 0])).tolist()
    [1, 0]
    """
    rows = np.asarray(rows)
    sums = rows.sum(axis=1)
    keys = (sums,) if key is None else (sums, np.asarray(key))
    order = np.lexsort(keys)
    ranked = sums[order]
    tied = ranked[1:] == ranked[:-1]
    for column in keys[1:]:
        ranked = column[order]
        tied &= ranked[1:] == ranked[:-1]
    if tied.any():
        order = np.lexsort((*rows.T[::-1], *keys))
    return order


#: First-chunk size of the early-exit scan in :func:`first_dominator`.
#: Candidate blocks are served strongest-dominators-first (insertion order
#: of a presorted scan), so most testing points find their dominator within
#: the first few hundred rows; evaluating the whole block wastes a full
#: ``O(k·d)`` comparison pass on them.  Chunks grow geometrically so the
#: undominated (skyline) points — which must inspect every row anyway —
#: pay only ``O(log k)`` extra kernel launches.
_EXIT_CHUNK = 256


def first_dominator(
    block: np.ndarray, q: np.ndarray, counter: DominanceCounter | None = None
) -> int:
    """Index of the first row of ``block`` that dominates ``q``, or ``-1``.

    Charges exactly the tests a sequential early-exit scan would: the first
    dominator's index + 1, or ``len(block)`` when nothing dominates.

    The scan is evaluated in geometrically growing chunks (see
    ``_EXIT_CHUNK``): dominated points stop at the chunk containing their
    first dominator, and the equality check — which only distinguishes a
    dominator from a duplicate — runs on the weakly dominating rows of one
    chunk instead of the whole block.  The returned index and the charged
    test count are bit-identical to the single-pass evaluation.
    """
    block = np.asarray(block)
    n = block.shape[0]
    if n == 0:
        return -1
    start, width = 0, _EXIT_CHUNK
    while start < n:
        chunk = block[start : start + width]
        # ndarray methods, not np.* wrappers: this runs once per chunk on
        # the hottest path in the library, and the dispatch overhead of
        # the functional forms is measurable at that call rate.
        le = (chunk <= q).all(axis=1)
        if le.any():
            weak = le.nonzero()[0]
            strict = (chunk[weak] != q).any(axis=1)
            if strict.any():
                idx = start + int(weak[int(strict.argmax())])
                if counter is not None:
                    counter.add(idx + 1)
                return idx
        start += width
        width *= 2
    if counter is not None:
        counter.add(n)
    return -1


def first_dominator_prefix(
    block: np.ndarray,
    col: np.ndarray,
    bound: float,
    q: np.ndarray,
    counter: DominanceCounter | None = None,
) -> int:
    """:func:`first_dominator` over the rows with ``col <= bound``, in ``col`` order.

    The reference is SDI's dimension-prefix scan: stably sort the rows of
    ``block`` with ``col <= bound`` by ``col``, then scan them with early
    exit.  Nothing is sorted here.  The first dominator in that order is
    the ``(col, row index)``-least eligible one, and the scan's charge is
    its rank among the eligible rows plus one, or the number of eligible
    rows when nothing dominates; one pass over ``block`` gives both.
    Returns the dominator's row index in ``block``, or ``-1``.  A block
    already sorted by ``col`` (ties in row order) is the special case
    where that index is also the rank.

    With ``col = block[:, dim]`` and ``bound = q[dim]`` the filter never
    drops a dominator, which is at most ``q`` in every column; it only
    sizes the charge when nothing dominates.
    """
    block = np.asarray(block)
    col = np.asarray(col)
    eligible = col <= bound
    weak = ((block <= q).all(axis=1) & eligible).nonzero()[0]
    if weak.shape[0]:
        weak = weak[(block[weak] != q).any(axis=1)]
    if weak.shape[0] == 0:
        if counter is not None:
            counter.add(int(np.count_nonzero(eligible)))
        return -1
    # argmin takes the first of equal values: the lowest row index.
    idx = int(weak[int(col[weak].argmin())])
    value = col[idx]
    if counter is not None:
        ahead = np.count_nonzero(col < value) + np.count_nonzero(col[:idx] == value)
        counter.add(int(ahead) + 1)
    return idx
