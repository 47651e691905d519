"""Shared-survivor prefix kernels for prune-aware block-parallel execution.

The PR 5 block-parallel scheme computed every block's local skyline blind
to every other block, so each worker re-discovered (and re-tested against)
the same globally strong points — the recorded redundancy was ~1.6x the
serial dominance-test count.  Partition-based parallel skylines live or
die by cross-partition pruning (Kalyvas & Tzouramanis, arXiv:1704.01788);
the SDI framework paper (Liu, arXiv:1908.04083) shows that a *small* set
of strong pruning points shared up front eliminates most non-skyline
tuples before any expensive scan.

This module provides the three pure kernels the parallel path composes:

- :func:`monotone_order` — one global scan order under a monotone sorting
  function (SFS's entropy key in :func:`~repro.dominance.scan_order`), so
  blocks can be cut along it: every dominator of a point sorts *before*
  it, hence the head of the order concentrates the strongest pruners;
- :func:`select_prefix` — the first ``size`` mutually non-dominated points
  of that order: the *shared-survivor prefix* broadcast to all workers.
  Because the order is monotone, these are guaranteed global skyline
  points, so filtering against them never removes a skyline member;
- :func:`prefix_filter` — the vectorised block filter (one
  :func:`~repro.dominance.dominance_matrix` pass), charging exactly the
  dominance tests a sequential early-exit loop over the prefix would pay;
- :func:`block_bounds` — planner-driven block sizing: geometric growth
  along the sort order, because survivor density (and therefore local scan
  cost) falls off monotonically once the prefix has filtered a block.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from repro.algorithms.sortkeys import sort_keys
from repro.core.container import presorted_scan
from repro.dominance import dominance_matrix, scan_order
from repro.errors import InvalidParameterError
from repro.stats.counters import DominanceCounter

__all__ = [
    "block_bounds",
    "monotone_order",
    "prefix_filter",
    "select_prefix",
]

#: Rows of the sort-order head inspected per requested prefix point.  The
#: head is scanned with early-exit dominance tests until ``size`` mutually
#: non-dominated points are found, so the factor bounds the selection cost
#: at a few hundred cheap tests regardless of ``n``.
_HEAD_FACTOR = 8


def monotone_order(values: np.ndarray) -> np.ndarray:
    """The global entropy-sorted scan order of ``values`` (row ids).

    Entropy is monotone under dominance (Section 2: ``f(p) < f(q) ⇒ q ⊀
    p``), and :func:`~repro.dominance.scan_order` puts a dominator first
    even where float keys tie, so a prefix of this order can only be
    dominated from within itself — the property both :func:`select_prefix`
    and sort-order partitioning rely on.  It is SFS's scan order, and the
    one order the engine caches for :func:`parallel_skyline
    <repro.extensions.parallel.parallel_skyline>`.
    """
    return scan_order(values, sort_keys(values, "entropy")).astype(np.intp)


def select_prefix(
    values: np.ndarray,
    order: np.ndarray,
    size: int,
    counter: DominanceCounter | None = None,
) -> np.ndarray:
    """The first ``size`` mutually non-dominated row ids along ``order``.

    Scans the head of the monotone order (at most ``8 × size`` rows, min
    64) with early-exit dominance tests against the points kept so far.
    Monotonicity guarantees a later point never dominates an earlier kept
    one, so the kept set is exactly the skyline of the inspected head —
    every returned id is a *global* skyline point, which makes filtering
    any block against them sound: only non-skyline points are removed.

    Dominance tests are charged on ``counter`` exactly as the sequential
    scan performs them.
    """
    if size <= 0:
        return np.empty(0, dtype=np.intp)
    head = order[: min(order.size, max(64, _HEAD_FACTOR * size))]
    kept = islice(presorted_scan(values, head, counter), size)
    return np.fromiter(kept, dtype=np.intp)


def prefix_filter(
    block: np.ndarray,
    prefix: np.ndarray,
    counter: DominanceCounter | None = None,
) -> np.ndarray:
    """Boolean survivor mask: which rows of ``block`` no prefix row dominates.

    A row is pruned when some prefix row strictly dominates it (Definition
    3.1); rows *equal* to a prefix row survive — duplicates of a skyline
    point are skyline points and must reach the merge phase.

    Accounting matches the sequential early-exit loop bit for bit: each
    block row is charged ``first dominating prefix position + 1`` tests,
    or ``len(prefix)`` when no prefix row dominates it.
    """
    n = block.shape[0]
    if n == 0 or prefix.shape[0] == 0:
        return np.ones(n, dtype=bool)
    dominated = dominance_matrix(block, prefix)
    any_dominated = dominated.any(axis=1)
    if counter is not None:
        first = dominated.argmax(axis=1)
        counter.add(int(np.where(any_dominated, first + 1, prefix.shape[0]).sum()))
    return ~any_dominated


def block_bounds(n: int, workers: int, growth: float = 1.0) -> list[tuple[int, int]]:
    """``(lo, hi)`` block bounds covering ``[0, n)`` with geometric sizing.

    ``growth=1.0`` reproduces the even ``np.linspace`` split; ``growth >
    1`` makes each successive block ``growth`` times larger than the
    previous one.  Under sort-order partitioning the early blocks hold the
    dense head of the skyline (expensive local scans) while late blocks
    are mostly cleared by the prefix filter, so growing sizes balance the
    per-block work.  Empty blocks are dropped, so fewer than ``workers``
    pairs may be returned for tiny ``n``.
    """
    if workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")
    if growth <= 0:
        raise InvalidParameterError(f"growth must be > 0, got {growth}")
    if n <= 0:
        return []
    if workers == 1:
        return [(0, n)]
    weights = np.power(float(growth), np.arange(workers, dtype=np.float64))
    edges = np.rint(n * np.cumsum(weights) / weights.sum()).astype(int)
    edges[-1] = n
    bounds = np.concatenate(([0], edges))
    return [
        (int(lo), int(hi))
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    ]
