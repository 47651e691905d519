"""SDI — Sorted Dimension Indexes skyline (Liu & Li, EDBT 2020).

SDI is the sort-and-scan algorithm the subset approach boosts best.  The
sort phase builds one sorted index of point ids per dimension; the scan
phase traverses dimensions breadth-first, always advancing the dimension
whose *dimension skyline* (the skyline points confirmed through it) is the
smallest.  Each visited point is tested only against skyline points whose
value in the current dimension does not exceed its own (the dimension
skyline prefix), ordered by that value — the cheapest plausible dominators
first.

Key properties preserved from the original design:

- a point already classified through another dimension is skipped;
- each per-dimension order is a :func:`~repro.dominance.scan_order` keyed
  by that dimension's value (value ties broken by the coordinate sum, then
  the raw coordinates, since a float sum is only weakly monotone), so a
  dominator precedes its dominated points in *every* dimension order —
  classification is always complete when a point is first visited (this
  is what makes duplicate-heavy data like WEATHER safe);
- the point with the minimum Euclidean distance serves as the *stop
  point*: once every dimension's cursor has passed it strictly, all
  unvisited points are strictly dominated by it and the scan terminates.

One dominance test is charged per compared skyline point, exactly as a
sequential early-exit loop would.

Prefix test
-----------
The per-point scan filters and sorts nothing.  A dominator is at most the
testing point in every column, so it always lies in the dimension prefix,
and the first dominator a scan of the prefix sorted by value would meet
is the ``(value, insertion)``-least one.  The charge is its rank in the
prefix plus one, or the prefix length when nothing dominates.
:func:`~repro.dominance.first_dominator_prefix` computes both in one pass
over the column-backed candidate block (see
:class:`~repro.core.container.SkylineContainer`); the tests hold it to
that filter-then-sort reference.

Grouped scan
------------
Over a subset container (SDI-Subset) the scan is settled one subspace at a
time instead (:mod:`repro.core.settle`): survivor status does not depend
on the visit order, so the groups are settled first, the traversal is
replayed with every status known, and the charges are read off one
``(value, insertion)`` order per dimension (:func:`_prefix_charges`).
Ids and charged tests are those of the per-point scan.
"""

from __future__ import annotations

from collections.abc import Callable, MutableMapping

import numpy as np

from repro.algorithms.base import SkylineAlgorithm
from repro.core.container import ListContainer, SkylineContainer
from repro.core.settle import first_hits, settle, subspace_groups
from repro.dataset import Dataset
from repro.dominance import first_dominator_prefix, scan_order
from repro.obs.trace import current_tracer
from repro.stats.counters import DominanceCounter

__all__ = ["SDI"]

_UNKNOWN, _SKYLINE, _DOMINATED = 0, 1, 2


class SDI(SkylineAlgorithm):
    """Sorted-dimension-index skyline with breadth-first dimension traversal."""

    name = "sdi"

    #: The sort phase (per-dimension indexes + stop point) is cacheable via
    #: the ``sort_cache`` parameter of :meth:`run_phase`.
    supports_sort_cache = True

    def _run(self, dataset: Dataset, counter: DominanceCounter) -> list[int]:
        ids = np.arange(dataset.cardinality, dtype=np.intp)
        masks = np.zeros(dataset.cardinality, dtype=np.int64)
        container = ListContainer(dataset.values)
        return self.run_phase(dataset, ids, masks, container, counter)

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
        d = dataset.dimensionality
        ids = np.asarray(ids, dtype=np.intp)
        if ids.size == 0:
            return []

        cached = sort_cache.get("sdi_sort") if sort_cache is not None else None
        if cached is not None:
            orders, stop_point = cached  # type: ignore[misc]
        else:
            with current_tracer().span(
                "sort", host=self.name, points=int(ids.size), dims=d
            ):
                rows = values[ids]

                # Sort phase: one index per dimension over the active ids.
                orders = [ids[scan_order(rows, rows[:, dim])] for dim in range(d)]

                # Stop point: minimum Euclidean distance to the minimum
                # corner.
                shifted = rows - rows.min(axis=0)
                stop_id = int(
                    ids[np.argmin(np.einsum("ij,ij->i", shifted, shifted))]
                )
                stop_point = values[stop_id]
            if sort_cache is not None:
                sort_cache["sdi_sort"] = (orders, stop_point)

        if container.by_subspace:
            return _settled_scan(values, orders, stop_point, masks, container, counter)
        masks_list = masks.tolist()

        def test(point_id: int, dim: int) -> bool:
            mask = masks_list[point_id]
            _, block = container.candidates(mask)
            point = values[point_id]
            undominated = (
                first_dominator_prefix(block, block[:, dim], point[dim], point, counter)
                == -1
            )
            if undominated:
                container.add(point_id, mask)
            return undominated

        return _traverse(values, orders, stop_point, test)


def _traverse(
    values: np.ndarray,
    orders: list[np.ndarray],
    stop_point: np.ndarray,
    test: Callable[[int, int], bool],
) -> list[int]:
    """The breadth-first scan; ``test(point_id, dim)`` classifies a point.

    Always advances the open dimension with the smallest dimension skyline
    and visits its next unclassified point; a dimension closes when its
    cursor runs out or passes the stop point.  Returns the skyline ids in
    visit order.
    """
    d = len(orders)
    # Plain-Python data structures for the per-point bookkeeping: the
    # scan loop runs once per remaining point, and bytearray/list
    # indexing with native ints is several times cheaper than numpy
    # scalar extraction at that call rate.
    status = bytearray(values.shape[0])
    order_lists = [order.tolist() for order in orders]
    bound_lists = [values[order, dim].tolist() for dim, order in enumerate(orders)]
    stop_list = stop_point.tolist()
    cursors = [0] * d
    dim_sky_count = [0] * d
    open_dims = list(range(d))  # ascending: min() breaks count ties by index
    skyline: list[int] = []

    # The breadth-first choice only changes when a dimension's skyline
    # count grows or a dimension closes, so the selection is cached across
    # the (majority of) iterations that change neither — the choice
    # sequence is identical.
    chosen = -1
    while open_dims:
        if chosen < 0:
            chosen = min(open_dims, key=dim_sky_count.__getitem__)
        dim = chosen
        order_list = order_lists[dim]
        length = len(order_list)
        cursor = cursors[dim]
        while cursor < length and status[order_list[cursor]] != _UNKNOWN:
            cursor += 1
        if cursor >= length:
            cursors[dim] = cursor
            open_dims.remove(dim)
            chosen = -1
            continue
        point_id = order_list[cursor]
        cursors[dim] = cursor + 1
        if test(point_id, dim):
            status[point_id] = _SKYLINE
            skyline.append(point_id)
            dim_sky_count[dim] += 1
            chosen = -1
        else:
            status[point_id] = _DOMINATED

        if bound_lists[dim][cursor] > stop_list[dim]:
            # The cursor passed the stop point in this dimension; once
            # that holds in every dimension, all unvisited points are
            # strictly worse than the stop point everywhere.
            open_dims.remove(dim)
            chosen = -1

    return skyline


def _settled_scan(
    values: np.ndarray,
    orders: list[np.ndarray],
    stop_point: np.ndarray,
    masks: np.ndarray,
    container: SkylineContainer,
    counter: DominanceCounter,
) -> list[int]:
    """SDI over a ``by_subspace`` container, settled one subspace at a time.

    Survivor status does not depend on the visit order
    (:mod:`repro.core.settle`), so the groups are settled first, in the
    dimension-0 order, which is monotone.  The traversal is then replayed
    with every point's status known, and each visited point is charged
    what :func:`~repro.dominance.first_dominator_prefix` charges it over
    its candidates in visit order: see :func:`_prefix_charges`.
    """
    held = np.asarray(container.ids(), dtype=np.intp)
    walks: dict[int, np.ndarray] = {}
    survives, _ = settle(values, orders[0], masks, container, walks)
    alive = np.zeros(values.shape[0], dtype=bool)
    alive[orders[0][survives]] = True
    alive_list: list[bool] = alive.tolist()
    visits: list[int] = []
    visit_dims: list[int] = []

    def replay(point_id: int, dim: int) -> bool:
        visits.append(point_id)
        visit_dims.append(dim)
        return alive_list[point_id]

    skyline = _traverse(values, orders, stop_point, replay)
    visited = np.array(visits, dtype=np.intp)
    dims = np.array(visit_dims, dtype=np.intp)
    counter.add(_prefix_charges(values, held, visited, dims, alive, masks, walks))
    return skyline


def _prefix_charges(
    values: np.ndarray,
    held: np.ndarray,
    visits: np.ndarray,
    dims: np.ndarray,
    alive: np.ndarray,
    masks: np.ndarray,
    walks: dict[int, np.ndarray],
) -> int:
    """The dominance tests SDI's per-point scan charges the ``visits``.

    A point visited through dimension ``k`` has as candidates its group's
    walk plus its group's survivors, inserted before it, in ``(value in
    k, insertion)`` order.  A dominated point is charged the rank of its
    first dominator in that order plus one: every candidate ahead of that
    dominator was inserted before the point (its value in ``k`` is
    smaller, so the cursor passed it first, or it ties and was inserted
    before the dominator).  A survivor is charged its own rank: a
    candidate inserted after it comes later in ``k``, or ties and comes
    later by insertion.

    One ``(value, insertion)`` order per dimension over every stored point
    places each point; a dominated point's first dominator in it is its
    first dominating candidate, since every dominator's subspace is a
    superset of the point's (Lemma 5.1).  A rank then counts the group's
    candidates placed before that place: one sort of their places per
    group and dimension, ``O(C log C)`` for ``C`` candidates.
    """
    stored = np.concatenate([held, visits[alive[visits]]])
    inserted = np.arange(stored.size)  # held points first, then visit order
    local = np.empty(values.shape[0], dtype=np.intp)
    local[stored] = inserted
    rows = values[stored]
    d = values.shape[1]
    by_dim = np.stack([np.lexsort((inserted, rows[:, k])) for k in range(d)])
    position = np.empty_like(by_dim)  # each stored point's place in by_dim[k]
    np.put_along_axis(position, by_dim, inserted[None, :], axis=1)
    at = np.empty(visits.size, dtype=np.intp)
    kept = alive[visits]
    at[kept] = position[dims[kept], local[visits[kept]]]
    for k in range(d):
        these = np.flatnonzero(~kept & (dims == k))
        if these.size:
            cols = rows[by_dim[k]]
            points = values[visits[these]]
            ends = np.searchsorted(cols[:, k], points[:, k], side="right")
            at[these] = first_hits(points, cols, ends)
    total = int(np.count_nonzero(~kept))  # a dominated point's dominator is a test
    for mask, group in subspace_groups(masks[visits]):
        cands = local[np.concatenate([walks[mask], visits[group[kept[group]]]])]
        group_dims = dims[group]
        for k in np.unique(group_dims).tolist():
            places = np.sort(position[k, cands])
            total += int(places.searchsorted(at[group[group_dims == k]]).sum())
    return total
