"""Incremental skyline maintenance over a stream of inserts and deletes.

Section 7, perspective (3): "adapting the proposed method to updating data
such as data streams".  The batch pipeline indexes skyline points by their
maximum dominating subspace relative to *pivot skyline points*; streaming
generalises the idea with one observation: the superset property of
Lemma 4.3 (``q1 < q2 ⇒ D_{q1<A} ⊇ D_{q2<A}``) holds for **any** fixed set of
anchor points ``A``, whether or not they are (or remain) skyline points.

The structure freezes the first ``anchors`` observed points as pure
geometric anchors, computes every point's subspace mask against them, and
keeps the current skyline in a
:class:`~repro.core.container.SubsetContainer` (id-only) keyed by those
masks — candidate dominators for any
probe are retrieved with one subset query.

Storage is columnar: an append-only :class:`~repro.structures.rowstore.RowStore`
where the stream id *is* the row index, plus parallel liveness /
skyline-membership / mask arrays that grow with it by a bounded step.
Stream ids are never reused, so the store only ever grows; deleted rows
cost their slot but nothing else.  A prepared dataset's replay stream
reads the prepared layer's own store, so its stream ids are the prepared
dataset's stable row ids.  Sweeps operate on the columnar prefix directly:
demotion after an insert and the elimination sweeps are
:func:`~repro.dominance.dominance_matrix` calls on gathered blocks, charged
as the per-point loops would be.

Sliding windows: constructing with ``window=k`` evicts the oldest live
point (full delete semantics, promotions included) whenever an insert
pushes the live count above ``k``.  Eviction walks a monotone cursor over
the id space, so finding the oldest live point is amortised O(1).

Every buffered point carries a *witness*: the id of one live point known to
dominate it, recorded when the point is first dominated (insert probe,
demotion, or bulk elimination) and refreshed whenever its witness dies.
Deletes therefore never rescan the buffer — only points whose witness is
among the deleted ids can possibly join the skyline, and exactly those are
re-probed against the surviving skyline (new witness or promotion).  They
are found through a witness→dependents index: ``(witness, dependent)``
pairs kept in a few sorted runs (built vectorised at bootstrap, merged
logarithmically as witnesses change).  Pairs are never updated in place;
one goes stale when its dependent is re-witnessed, promoted or deleted,
and is skipped on lookup and dropped when its run is merged.  The
witness invariant — every buffered point's witness is live and dominates
it — makes the candidate scan pure bookkeeping: no dominance test is
charged for points whose proof of domination still stands.

Costs: ``insert`` is a subset query plus one vectorised demotion sweep over
the skyline; ``delete``/``delete_many`` re-probe only the witness-orphaned
buffered points, in :func:`~repro.dominance.scan_order` (dominators first,
so a promoted point immediately shields the points it dominates),
charging one dominance test per inspected pair.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.core.container import SubsetContainer
from repro.dominance import dominance_matrix, first_dominator, scan_order
from repro.errors import DimensionMismatchError, InvalidParameterError
from repro.stats.counters import DominanceCounter
from repro.structures.rowstore import RowStore

if TYPE_CHECKING:
    from repro.dataset import Dataset
    from repro.engine import SkylineEngine

#: Dominator rows compared per vectorised elimination round of the batched
#: promotion sweep.  Dominator blocks are sorted by ascending coordinate
#: sum, so almost every exposed candidate meets a dominator in the first
#: chunk — small chunks keep the charged tests close to what a short-
#: circuiting per-candidate probe would charge while staying vectorised.
_PROMOTION_CHUNK = 64

#: Scalar witness writes queued before they are sorted into a run of the
#: dependents index (a delete flushes the queue earlier).
_QUEUE_FLUSH = 1024

#: First-chunk row count of the chunk-gathered dominance probe
#: (:meth:`StreamingSkyline._find_dominator`); grows geometrically, same
#: accounting as a sequential early-exit scan of the full candidate set.
_PROBE_CHUNK = 256


class StreamingSkyline:
    """A dynamic skyline over inserts and deletes, subset-index accelerated.

    Parameters
    ----------
    d:
        Dimensionality of the stream.
    anchors:
        Number of leading points frozen as mask anchors.  More anchors give
        finer subspace partitions (fewer candidates per query) at the cost
        of longer mask computation per arrival.
    window:
        Optional sliding-window size: after every insert, the oldest live
        points are evicted (with full delete/promotion semantics) until at
        most ``window`` points remain live.  ``None`` keeps everything.

    >>> sky = StreamingSkyline(d=2)
    >>> a = sky.insert([1.0, 4.0]); b = sky.insert([2.0, 2.0])
    >>> c = sky.insert([3.0, 3.0])  # dominated by b
    >>> sorted(sky.skyline_ids()) == [a, b]
    True
    >>> sky.delete(b)
    >>> sorted(sky.skyline_ids()) == [a, c]
    True
    """

    def __init__(
        self,
        d: int,
        anchors: int = 8,
        counter: DominanceCounter | None = None,
        window: int | None = None,
    ) -> None:
        if d < 1:
            raise InvalidParameterError(f"dimensionality must be >= 1, got {d}")
        if anchors < 1:
            raise InvalidParameterError(f"anchors must be >= 1, got {anchors}")
        if window is not None and window < 1:
            raise InvalidParameterError(f"window must be >= 1, got {window}")
        self._d = d
        self._max_anchors = anchors
        self._window = window
        self._counter = counter if counter is not None else DominanceCounter()
        # Id-only container: streaming gathers rows from its own columnar
        # store, which grows as points arrive.
        self._store = SubsetContainer(None, d, counter=self._counter)
        self._anchor_block = np.empty((anchors, d), dtype=np.float64)
        self._n_anchors = 0
        self._powers = np.int64(1) << np.arange(d, dtype=np.int64)
        # Columnar state: the stream id is the row index into `_rows`; the
        # boolean prefixes `[:_next_id]` encode liveness and skyline
        # membership (buffer = live & ~in_sky).  Ids are never reused.
        self._row_store = RowStore.empty(d)
        self._live = np.zeros(0, dtype=bool)
        self._in_sky = np.zeros(0, dtype=bool)
        self._mask_arr = np.zeros(0, dtype=np.int64)
        # Witness column: for each buffered point, the id of one live
        # point that dominates it (-1 for skyline members).  Deletes only
        # re-probe points whose witness died, found through the sorted
        # (witness, dependent) runs; scalar witness writes queue their
        # pairs until the next lookup.
        self._witness = np.full(0, -1, dtype=np.intp)
        self._dependents: list[tuple[np.ndarray, np.ndarray]] = []
        self._queued: list[tuple[int, int]] = []
        self._resize_ids(self._row_store.rows.shape[0])
        self._next_id = 0
        self._live_count = 0
        self._oldest = 0  # monotone eviction cursor for window mode

    @classmethod
    def from_dataset(
        cls,
        data: "Dataset | np.ndarray",
        anchors: int = 8,
        counter: DominanceCounter | None = None,
        engine: "SkylineEngine | None" = None,
        algorithm: str | None = None,
        window: int | None = None,
        skyline_ids: "Sequence[int] | np.ndarray | None" = None,
    ) -> "StreamingSkyline":
        """Bulk-load a dataset as the stream's prefix, batch-computed.

        Equivalent end state to inserting every row in order — row ``i``
        gets stream id ``i``, the first ``min(anchors, n)`` rows become the
        anchor set, and skyline/buffer membership matches — but the initial
        skyline is computed through the engine's planned batch pipeline and
        the anchor masks in one vectorised pass, instead of ``n`` index
        probes.

        ``algorithm`` pins the batch algorithm (``None`` = planner's
        choice); ``engine`` shares prepared caches with other engine users.
        ``skyline_ids`` short-circuits the engine run when the caller
        already holds the dataset's skyline (the delta-repair warm start of
        :meth:`repro.engine.prepared.PreparedDataset.repair_skyline`): the
        ids are trusted, no dominance tests are charged for them.
        ``window`` must admit the whole prefix — a bulk load that would
        immediately evict rows has no sequential-insert equivalent.
        """
        from repro.dataset import as_dataset

        dataset = as_dataset(data)
        n = dataset.cardinality
        if window is not None and n > window:
            raise InvalidParameterError(
                f"bulk prefix of {n} rows does not fit window={window}"
            )
        stream = cls(
            dataset.dimensionality,
            anchors=anchors,
            counter=counter,
            window=window,
        )
        if skyline_ids is None:
            from repro.engine import SkylineEngine

            run_engine = engine if engine is not None else SkylineEngine()
            result = run_engine.execute(dataset, algorithm, counter=stream._counter)
            sky = np.asarray(result.indices, dtype=np.intp)
        else:
            sky = np.asarray(skyline_ids, dtype=np.intp)
        # The dataset's rows are immutable: the store adopts them and
        # copies only when the first insert needs room.
        stream._load(RowStore(dataset.values), n, sky)
        return stream

    @classmethod
    def _over_store(
        cls, store: RowStore, n: int, skyline_ids: np.ndarray, anchors: int
    ) -> "StreamingSkyline":
        """A stream over rows ``[0, n)`` of a shared ``store``, all live.

        The prepared layer's warm start: ``skyline_ids`` are trusted, and
        the stream reads (and appends to) the prepared dataset's own row
        store, so stream ids are its stable row ids.
        """
        stream = cls(store.rows.shape[1], anchors=anchors)
        stream._load(store, n, np.asarray(skyline_ids, dtype=np.intp))
        return stream

    def _load(self, store: RowStore, n: int, sky: np.ndarray) -> None:
        """Take rows ``[0, n)`` of ``store`` as the prefix, with skyline ``sky``."""
        self._row_store = store
        self._resize_ids(max(n, store.rows.shape[0]))
        values = store.rows[:n]
        self._live[:n] = True
        self._next_id = n
        self._live_count = n
        self._n_anchors = min(self._max_anchors, n)
        self._anchor_block[: self._n_anchors] = values[: self._n_anchors]
        self._mask_arr[:n] = self._masks_of(values)
        self._in_sky[sky] = True
        masks_list = self._mask_arr[sky].tolist()
        for point_id, mask in zip(sky.tolist(), masks_list):
            self._store.add(point_id, mask)
        # Witness discovery: every non-skyline row is dominated by some
        # skyline row; one bulk elimination sweep records a dominator id
        # per buffered point so later deletes re-probe only orphans.  This
        # is the bulk analogue of the per-arrival probe, charged the same
        # way, and it runs once per bulk load.
        buffered = np.flatnonzero(self._live[:n] & ~self._in_sky[:n])
        if buffered.size:
            sky_rows, sky_ids_sorted = self._sky_by_sum()
            _, witness = self._eliminate(values[buffered], sky_rows, sky_ids_sorted)
            self._witness_block(buffered, witness)

    # -- introspection -------------------------------------------------------

    @property
    def dimensionality(self) -> int:
        return self._d

    @property
    def _rows(self) -> np.ndarray:
        """The row matrix; row ``i`` holds stream id ``i``."""
        return self._row_store.rows

    @property
    def counter(self) -> DominanceCounter:
        """Dominance-test accounting across the stream's lifetime."""
        return self._counter

    @property
    def window(self) -> int | None:
        """The sliding-window size; ``None`` when unbounded."""
        return self._window

    @property
    def issued_ids(self) -> int:
        """Total stream ids issued so far (live or not; never reused)."""
        return self._next_id

    def __len__(self) -> int:
        """Number of live (inserted, not deleted, not evicted) points."""
        return self._live_count

    def skyline_ids(self) -> list[int]:
        """Sorted ids of the current skyline."""
        return np.flatnonzero(self._in_sky[: self._next_id]).tolist()

    def skyline_points(self) -> np.ndarray:
        """Coordinates of the current skyline, ordered by id."""
        ids = np.flatnonzero(self._in_sky[: self._next_id])
        if ids.size == 0:
            return np.empty((0, self._d), dtype=np.float64)
        return self._rows[ids]

    def live_ids(self) -> list[int]:
        """Sorted ids of every live point (skyline and buffered)."""
        return np.flatnonzero(self._live[: self._next_id]).tolist()

    # -- mutation ------------------------------------------------------------

    def insert(self, point: Iterable[float]) -> int:
        """Insert a point; returns its stream id."""
        row = np.asarray(list(point), dtype=np.float64)
        if row.shape != (self._d,):
            raise DimensionMismatchError(
                f"expected a point of {self._d} dims, got shape {row.shape}"
            )
        if not np.isfinite(row).all():
            raise InvalidParameterError("point contains NaN or infinite values")
        return self._insert_row(row)

    def insert_many(self, rows: "Sequence[Iterable[float]] | np.ndarray") -> list[int]:
        """Insert a block of rows; returns their stream ids.

        The final state is identical to calling :meth:`insert` per row.
        When no window is active and the anchor set is full, inserts that
        the pre-batch skyline already dominates are identified with one
        vectorised elimination sweep and appended as plain buffered points
        — the per-point probe (index query, demotion sweep) runs only for
        the survivors.  Elimination against the pre-batch skyline is sound
        even though survivors may demote points mid-batch: a demoted
        dominator was itself dominated by an earlier insert, which by
        transitivity still dominates the eliminated point.
        """
        # C order: _eliminate compares these rows' sums with the skyline's,
        # and numpy sums a row differently in Fortran order.
        block = np.ascontiguousarray(rows, dtype=np.float64)
        if block.ndim != 2 or block.shape[1] != self._d:
            raise DimensionMismatchError(
                f"expected a (k, {self._d}) block, got shape {block.shape}"
            )
        if not np.isfinite(block).all():
            raise InvalidParameterError("block contains NaN or infinite values")
        k = block.shape[0]
        if (
            self._window is not None
            or self._n_anchors < self._max_anchors
            or k < 2
        ):
            # Window eviction (and anchor growth) interleaves with the
            # arrivals, so the pre-batch skyline is not a stable filter.
            return [self._insert_row(block[i]) for i in range(k)]

        masks = self._masks_of(block)
        sky_rows, sky_ids_sorted = self._sky_by_sum()
        dominated, witness = self._eliminate(block, sky_rows, sky_ids_sorted)

        # Bulk allocation: ids are assigned in arrival order either way,
        # and a dominated arrival never influences later probes, so the
        # whole block lands in one columnar write.  Survivors then settle
        # (probe, demote, index) one by one in arrival order.
        base = self._next_id
        self._grow_to(base + k)
        self._rows[base : base + k] = block
        self._live[base : base + k] = True
        self._mask_arr[base : base + k] = masks
        self._witness_block(np.arange(base, base + k), witness)
        self._next_id = base + k
        self._live_count += k
        survivors = np.flatnonzero(~dominated)
        if survivors.size:
            self._settle_survivors(base, block, masks, survivors)
        return list(range(base, base + k))

    def delete(self, point_id: int) -> None:
        """Delete a live point; promotes newly exposed buffered points.

        Only buffered points whose recorded witness is the deleted point
        can join the skyline — every other buffered point still holds a
        live dominator — so the candidate scan is an uncharged id
        comparison and dominance tests are spent on the orphans alone.
        """
        self.delete_many([point_id])

    def delete_many(self, point_ids: "Sequence[int] | np.ndarray") -> None:
        """Delete a batch of live points with one shared promotion sweep.

        The final state equals deleting the points one by one.  The
        witness column turns exposure into bookkeeping: only buffered
        points whose witness is among the deleted ids are candidates —
        looked up in the dependents index, not by scanning the buffer —
        and those orphans flow through one shared vectorised promotion
        sweep (one dominance test per inspected pair).
        """
        ids = np.unique(np.asarray(point_ids, dtype=np.intp))
        if ids.size == 0:
            return
        for point_id in ids.tolist():
            self._checked_live(point_id)
        sky_deleted = ids[self._in_sky[ids]]
        self._live[ids] = False
        self._in_sky[ids] = False
        self._live_count -= int(ids.size)
        masks_list = self._mask_arr[sky_deleted].tolist()
        for point_id, mask in zip(sky_deleted.tolist(), masks_list):
            self._store.remove(point_id, mask)
        # A demoted (buffered) point can be a witness too, so the orphan
        # lookup runs for every deleted id, skyline member or not.
        orphans = self._orphans(ids)
        self._promote_exposed(orphans, self._rows[orphans])

    # -- internals -----------------------------------------------------------

    def _append_row(self, row: np.ndarray) -> int:
        """Storage-only arrival: allocate the slot, mark live, no probing."""
        point_id = self._next_id
        self._grow_to(point_id + 1)
        self._rows[point_id] = row
        self._live[point_id] = True
        self._next_id = point_id + 1
        self._live_count += 1
        return point_id

    def _insert_row(self, row: np.ndarray, mask: int | None = None) -> int:
        point_id = self._append_row(row)
        if self._n_anchors < self._max_anchors:
            # Lemma 4.3's superset property only holds between masks
            # computed against the SAME anchor set, so growing the set
            # forces a recomputation of every live mask (cheap: it can
            # happen at most `anchors` times, at stream start).
            self._anchor_block[self._n_anchors] = row
            self._n_anchors += 1
            self._recompute_masks()
            mask = None  # computed against the pre-growth anchor set
        if mask is None:
            mask = int(self._masks_of(row[None, :])[0])
        self._mask_arr[point_id] = mask
        self._settle_new_point(point_id, row, mask)
        self._evict_overflow()
        return point_id

    def _settle_new_point(self, point_id: int, row: np.ndarray, mask: int) -> None:
        """Probe an allocated arrival: buffer it (with witness) or promote.

        On promotion, every skyline point the arrival dominates is demoted
        to the buffer with the arrival as its witness.
        """
        wid = self._find_dominator(row, mask)
        if wid != -1:
            self._witness_of(point_id, wid)
            return
        # New skyline point: demote every skyline point it now dominates.
        sky_ids = np.flatnonzero(self._in_sky[:point_id])
        self._counter.add(int(sky_ids.size))
        dominated = dominance_matrix(self._rows[sky_ids], row[None, :])[:, 0]
        for demoted in sky_ids[dominated].tolist():
            self._in_sky[demoted] = False
            self._store.remove(demoted, int(self._mask_arr[demoted]))
            self._witness_of(demoted, point_id)
        self._witness[point_id] = -1
        self._in_sky[point_id] = True
        self._store.add(point_id, mask)

    def _settle_survivors(
        self,
        base: int,
        block: np.ndarray,
        masks: np.ndarray,
        survivors: np.ndarray,
    ) -> None:
        """Settle a batch's undominated arrivals against sky and each other.

        Elimination already proved no pre-batch skyline point dominates a
        survivor, so the only possible dominators are survivors promoted
        earlier in the same batch (a since-demoted one still counts: it is
        live and, by transitivity, something in the skyline dominates the
        probe too).  The per-survivor demotion sweeps against the
        pre-batch skyline collapse into one broadcast comparison, charged
        as the sequential sweeps would be; survivor-vs-survivor dominance
        is one pairwise pass, charged per ordered pair.
        """
        sky_ids_cur = np.flatnonzero(self._in_sky[:base])
        srows = block[survivors]
        m = int(survivors.size)
        # demote[j, q]: survivor j dominates pre-batch skyline point q;
        # dom_ss[p, j]: survivor p dominates survivor j.
        self._counter.add(m * int(sky_ids_cur.size))
        demote = dominance_matrix(self._rows[sky_ids_cur], srows).T
        self._counter.add(m * (m - 1))
        dom_ss = dominance_matrix(srows, srows).T
        sky_list = sky_ids_cur.tolist()
        promoted: list[int] = []  # positions into `survivors`, in order
        for j in range(m):
            point_id = int(base + survivors[j])
            dominator = next((p for p in promoted if dom_ss[p, j]), None)
            if dominator is not None:
                self._witness_of(point_id, int(base + survivors[dominator]))
                continue
            for q_idx in np.flatnonzero(demote[j]).tolist():
                q = sky_list[q_idx]
                if self._in_sky[q]:
                    self._in_sky[q] = False
                    self._store.remove(q, int(self._mask_arr[q]))
                    self._witness_of(q, point_id)
            for p in promoted:
                pid = int(base + survivors[p])
                if self._in_sky[pid] and dom_ss[j, p]:
                    self._in_sky[pid] = False
                    self._store.remove(pid, int(self._mask_arr[pid]))
                    self._witness_of(pid, point_id)
            self._witness[point_id] = -1
            self._in_sky[point_id] = True
            self._store.add(point_id, int(masks[survivors[j]]))
            promoted.append(j)

    def _promote_exposed(self, exposed: np.ndarray, block: np.ndarray) -> None:
        """Promote exposed buffered points, dominators first.

        Two phases.  The elimination phase (:meth:`_eliminate`) discards
        candidates the *current* skyline still dominates, vectorised.  The
        few survivors then re-probe the live store one by one in
        :func:`~repro.dominance.scan_order` — a promoted point is indexed
        before anything it dominates is probed, so survivors dominated
        only by *other exposed candidates* resolve exactly as the
        one-by-one delete path would.
        """
        if exposed.size == 0:
            return
        order = scan_order(block)
        exposed = exposed[order]
        block = block[order]
        sky_rows, sky_ids_sorted = self._sky_by_sum()
        dominated, witness = self._eliminate(block, sky_rows, sky_ids_sorted)
        self._witness_block(exposed, witness)
        for buf_id in exposed[~dominated].tolist():
            mask = int(self._mask_arr[buf_id])
            wid = self._find_dominator(self._rows[buf_id], mask)
            if wid != -1:
                # Dominated by a candidate promoted earlier in this sweep.
                self._witness_of(buf_id, wid)
            else:
                self._witness[buf_id] = -1
                self._in_sky[buf_id] = True
                self._store.add(buf_id, mask)

    def _sky_by_sum(self) -> tuple[np.ndarray, np.ndarray]:
        """Skyline rows and their ids in :func:`~repro.dominance.scan_order`."""
        ids = np.flatnonzero(self._in_sky[: self._next_id])
        rows = self._rows[ids]
        order = scan_order(rows)
        return rows[order], ids[order]

    def _eliminate(
        self, rows: np.ndarray, sky_rows: np.ndarray, sky_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Flag which of ``rows`` some skyline point dominates, vectorised.

        The dominator block — in :func:`~repro.dominance.scan_order`,
        strongest points first — is scanned in ``_PROMOTION_CHUNK``-row
        rounds against every still-undecided candidate at once, dropping
        dominated candidates between rounds.  Candidates are sum-ordered
        too: a dominator's sum is never above its victim's, so once the
        scan reaches dominators whose sums exceed a candidate's own, that
        candidate can never be dominated and is finalised without further
        charge.  The charged tests (one per inspected pair) stay near what
        a short-circuiting sort-first scalar scan would charge.

        Returns ``(dominated, witness)``: the flag per row plus the id
        (from ``sky_ids``, aligned with ``sky_rows``) of one dominator per
        dominated row, -1 elsewhere.
        """
        dominated = np.zeros(rows.shape[0], dtype=bool)
        witness = np.full(rows.shape[0], -1, dtype=np.intp)
        if sky_rows.shape[0] == 0 or rows.shape[0] == 0:
            return dominated, witness
        order = scan_order(rows)
        sorted_rows = rows[order]
        sky_sums = sky_rows.sum(axis=1)
        undecided = np.arange(rows.shape[0])
        undecided_sums = sorted_rows.sum(axis=1)
        for start in range(0, sky_rows.shape[0], _PROMOTION_CHUNK):
            # A dominator's sum is at most its victim's; candidates whose
            # sums fall strictly below every remaining dominator's are
            # survivors — finalise them for free.
            cut = int(np.searchsorted(undecided_sums, sky_sums[start]))
            if cut:
                undecided = undecided[cut:]
                undecided_sums = undecided_sums[cut:]
            if undecided.size == 0:
                break
            chunk = sky_rows[start : start + _PROMOTION_CHUNK]
            self._counter.add(int(undecided.size) * chunk.shape[0])
            hits = dominance_matrix(sorted_rows[undecided], chunk)
            hit = hits.any(axis=1)
            if hit.any():
                rows_hit = undecided[hit]
                first = np.argmax(hits[hit], axis=1)
                dominated[order[rows_hit]] = True
                witness[order[rows_hit]] = sky_ids[start + first]
                undecided = undecided[~hit]
                undecided_sums = undecided_sums[~hit]
        return dominated, witness

    def _find_dominator(self, row: np.ndarray, mask: int) -> int:
        """Id of an indexed skyline point dominating ``row``, or -1.

        One subset query, then the candidate rows are gathered and tested
        in geometrically growing chunks — candidates are charged exactly
        as :func:`first_dominator`'s sequential early-exit scan charges,
        but a dominated probe never pays the gather of the full candidate
        set.
        """
        ids = self._store.query_ids(mask)
        start, width = 0, _PROBE_CHUNK
        while start < ids.size:
            block = self._rows[ids[start : start + width]]
            idx = first_dominator(block, row, self._counter)
            if idx != -1:
                return int(ids[start + idx])
            start += width
            width *= 2
        return -1

    def _evict_overflow(self) -> None:
        """Window mode: delete oldest live points while over the window."""
        if self._window is None:
            return
        while self._live_count > self._window:
            while not self._live[self._oldest]:
                self._oldest += 1
            self.delete(self._oldest)

    def _checked_live(self, point_id: int) -> int:
        point_id = int(point_id)
        if not (0 <= point_id < self._next_id) or not self._live[point_id]:
            raise KeyError(f"point {point_id} is not live")
        return point_id

    def _grow_to(self, needed: int) -> None:
        """Make room for ids ``[0, needed)`` in the store and id columns."""
        self._row_store.reserve(needed)
        if needed > self._live.shape[0]:
            self._resize_ids(self._row_store.rows.shape[0])

    def _resize_ids(self, capacity: int) -> None:
        """Resize the per-id columns to ``capacity`` slots, keeping the prefix."""
        used = min(self._live.shape[0], capacity)
        live = np.zeros(capacity, dtype=bool)
        live[:used] = self._live[:used]
        in_sky = np.zeros(capacity, dtype=bool)
        in_sky[:used] = self._in_sky[:used]
        mask_arr = np.zeros(capacity, dtype=np.int64)
        mask_arr[:used] = self._mask_arr[:used]
        witness = np.full(capacity, -1, dtype=np.intp)
        witness[:used] = self._witness[:used]
        self._live, self._in_sky, self._mask_arr = live, in_sky, mask_arr
        self._witness = witness

    # -- witness -> dependents index -----------------------------------------

    def _witness_of(self, dependent: int, witness: int) -> None:
        """Record that live point ``witness`` dominates buffered ``dependent``."""
        self._witness[dependent] = witness
        self._queued.append((witness, dependent))
        if len(self._queued) >= _QUEUE_FLUSH:
            self._flush_queued()

    def _flush_queued(self) -> None:
        pairs = np.asarray(self._queued, dtype=np.intp)
        self._queued = []
        self._add_run(pairs[:, 0], pairs[:, 1])

    def _witness_block(self, dependents: np.ndarray, witness: np.ndarray) -> None:
        """Vectorised :meth:`_witness_of`; ``-1`` entries mark non-dominated points."""
        self._witness[dependents] = witness
        dominated = witness >= 0
        if dominated.any():
            self._add_run(witness[dominated], dependents[dominated])

    def _add_run(self, witness: np.ndarray, dependents: np.ndarray) -> None:
        """Add pairs as a sorted run; merge runs while the newest is not small.

        Merging a run into a neighbour at most twice its size keeps
        O(log n) runs and charges each pair O(log n) merges over its
        life; a merge drops the pairs that went stale.
        """
        # Ids are stored in 32 bits while they fit, halving the index.
        dtype = np.int32 if self._next_id < 2**31 else np.intp
        order = np.argsort(witness, kind="stable")
        runs = self._dependents
        runs.append((witness[order].astype(dtype), dependents[order].astype(dtype)))
        while len(runs) > 1 and runs[-2][0].size <= 2 * runs[-1][0].size:
            (w_old, d_old), (w_new, d_new) = runs.pop(-2), runs.pop()
            wits = np.concatenate([w_old, w_new])
            deps = np.concatenate([d_old, d_new])
            fresh = (
                (self._witness[deps] == wits) & self._live[deps] & ~self._in_sky[deps]
            )
            wits, deps = wits[fresh], deps[fresh]
            order = np.argsort(wits, kind="stable")
            runs.append((wits[order], deps[order]))

    def _orphans(self, ids: np.ndarray) -> np.ndarray:
        """Sorted buffered ids whose witness is among the sorted ``ids``."""
        if self._queued:
            self._flush_queued()
        found = []
        for witness, dependents in self._dependents:
            # In the run's own dtype: a mixed-dtype search converts the run.
            keys = ids.astype(witness.dtype)
            lo = np.searchsorted(witness, keys, side="left")
            hi = np.searchsorted(witness, keys, side="right")
            lengths = hi - lo
            total = int(lengths.sum())
            if total:
                starts = np.repeat(lo - np.cumsum(lengths) + lengths, lengths)
                found.append(dependents[starts + np.arange(total)])
        if not found:
            return np.empty(0, dtype=np.intp)
        candidates = np.concatenate(found)
        candidates = candidates[
            self._live[candidates] & ~self._in_sky[candidates]
        ]
        witness = self._witness[candidates]
        at = np.minimum(np.searchsorted(ids, witness), ids.size - 1)
        return np.unique(candidates[ids[at] == witness])

    def _recompute_masks(self) -> None:
        """Refresh every live mask and rebuild the index for new anchors."""
        self._store.clear()
        live = np.flatnonzero(self._live[: self._next_id])
        self._mask_arr[live] = self._masks_of(self._rows[live])
        sky = live[self._in_sky[live]]
        masks_list = self._mask_arr[sky].tolist()
        for point_id, mask in zip(sky.tolist(), masks_list):
            self._store.add(point_id, mask)

    def _masks_of(self, rows: np.ndarray) -> np.ndarray:
        """Anchor masks of ``rows``: bit ``i`` set where a row beats an anchor.

        One dominating-subspace test is charged per (row, anchor) pair.
        """
        anchors = self._anchor_block[: self._n_anchors]
        self._counter.add(rows.shape[0] * anchors.shape[0])
        return (rows[:, None, :] < anchors[None, :, :]).any(axis=1) @ self._powers
