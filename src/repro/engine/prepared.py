"""``PreparedDataset`` — one-time normalization plus reusable query caches.

The ROADMAP's target workload is heavy repeated traffic over the same
datasets: many skyline queries, over varying subspaces and preference
directions, against data that changes rarely.  Every expensive artefact the
stack computes per query — the Merge pass (pivots + per-point maximum
dominating subspaces), the hosts' sort orders, projected subspace views and
the estimator statistics the planner keys on — is a pure function of
``(values, dims, directions, sigma)``, so a session that prepares the
dataset once can serve each subsequent query from cache.

Cache accounting is explicit: every lookup records a hit or a miss on the
caller's :class:`~repro.stats.counters.DominanceCounter`
(``prepared_cache_hits`` / ``prepared_cache_misses``), so the warm-path
saving is observable in the same place the paper's dominance-test metric
lives.  Invalidation is explicit too: :meth:`PreparedDataset.invalidate`
drops every artefact and bumps :attr:`PreparedDataset.version`.

Mutation is a first-class event: :meth:`PreparedDataset.apply_delta`
applies an insert/delete batch and — when the delta is small enough —
*suffix-repairs* the cached artefacts instead of dropping them: Merge
results keep their pivots and classify the inserts (see
:mod:`repro.engine.delta`), subspace views repair recursively (a view
flips a maximized column by exact negation, so the inserts project as a
cold view would project them), and key-decomposable sort orders are
tagged for a lazy bit-identical repair at the next scan (when the column
minima stay put).  The exact per-column minima are carried across each
delta in O(batch·d) (:meth:`PreparedDataset.minima`), so a small delta
never reduces the whole array.  Every delta bumps
:attr:`version` exactly once.
The skyline itself repairs lazily: after a full query the engine *notes*
the result (:meth:`note_skyline`); when the planner later chooses an
incremental plan, :meth:`repair_skyline` replays the logged delta batches
through a columnar :class:`~repro.extensions.streaming.StreamingSkyline`
bootstrapped from the noted skyline — no batch recomputation.

Rows are addressed by two id spaces.  Inside the prepared dataset every
row keeps one *stable* id for its whole life: rows live in an append-only
:class:`~repro.structures.rowstore.RowStore`, inserts take the next ids and
a delete adds its ids to a sorted tombstone array, so a small delta costs
O(batch) instead of re-splicing every array behind it.  Cached Merge
results, the noted skyline, the delta log and the replay stream (which
reads this same row store) all use stable ids.  Callers see *positional*
ids — the live rows closing ranks in stable order — and results become
positional only on the way out, through
:func:`~repro.engine.delta.remap_ids`.  The positional :attr:`dataset` is
one gather of the live rows, built when something reads it: eagerly at the
end of :meth:`apply_delta` (the handle callers hold), lazily for views and
full plans.  The id space is compacted (tombstones dropped, live rows
renumbered) only where an O(n) pass happens anyway — a recompute,
:meth:`invalidate`, a full query that rebases the replay — or once
tombstones outnumber the live rows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, TypeVar

import numpy as np

from repro.core.merge import MergeResult, merge
from repro.core.stability import default_threshold, validate_threshold
from repro.dataset import Dataset, as_dataset
from repro.engine.delta import (
    DeltaReport,
    DeltaState,
    absorb_since,
    live_merge_result,
    normalize_delta,
    remap_ids,
    repair_merge_result,
    repair_minima,
    stable_ids,
)
from repro.errors import InvalidParameterError
from repro.obs.trace import current_tracer
from repro.stats.counters import DominanceCounter
from repro.stats.estimate import (
    correlation_signal,
    expected_skyline_size,
    expected_skyline_size_asymptotic,
)
from repro.structures.rowstore import RowStore

if TYPE_CHECKING:
    from collections.abc import Sequence

    from repro.extensions.streaming import StreamingSkyline

__all__ = ["DatasetStatistics", "PreparedDataset"]

_T = TypeVar("_T")

#: Above this cardinality the exact harmonic-number dynamic program for the
#: expected skyline size is replaced by its closed-form asymptotic — the DP
#: is O(d·n) in pure Python and preparation must stay cheap.
_EXACT_ESTIMATE_LIMIT = 50_000

#: Entries kept per artefact cache before FIFO eviction.  Each Merge result
#: or sort order is O(n), so the caps bound prepared memory at a small
#: multiple of the dataset itself.
_MAX_ENTRIES = 32

#: Default repair threshold: a delta touching more than this fraction of
#: the dataset falls back to a full invalidate-and-recompute — suffix
#: repair replays every operation through the streaming structure, so its
#: advantage over one batch run erodes as the delta grows.
_REPAIR_THRESHOLD = 0.05

#: Anchor count of the lazily built replay stream.  Matches the streaming
#: default: enough subspace partitioning to keep probe candidate sets
#: small without making per-arrival mask computation noticeable.
_STREAM_ANCHORS = 8

#: Sort-cache entry keys that permit lazy suffix repair.  Entries carrying
#: anything else (SaLSa's scan state, SDI's per-dimension orders, LESS's
#: helper-free order) hold derived state the repair cannot reproduce and
#: are dropped whole.
_REPAIRABLE_SORT_KEYS = frozenset({"order", "keys"})


@dataclass(frozen=True)
class DatasetStatistics:
    """Estimator signals the planner consumes, computed once per dataset.

    Attributes
    ----------
    cardinality, dimensionality:
        The dataset shape ``(n, d)``.
    correlation:
        Mean pairwise Pearson correlation between dimensions
        (:func:`~repro.stats.estimate.correlation_signal`): positive for
        correlated regimes, negative for anti-correlated.
    expected_skyline:
        Expected skyline size under uniform independence (exact harmonic
        number for small ``n``, closed-form asymptotic above
        ``50_000`` rows).
    """

    cardinality: int
    dimensionality: int
    correlation: float
    expected_skyline: float

    @property
    def skyline_fraction(self) -> float:
        """Expected skyline size as a fraction of the dataset."""
        return self.expected_skyline / self.cardinality


def _project(
    rows: np.ndarray, dims: tuple[int, ...], flip: tuple[int, ...]
) -> np.ndarray:
    """``rows`` projected onto ``dims``, each column in ``flip`` negated.

    Negation is exact, so a flipped view orders its rows exactly as the
    original column does, reversed, whatever rows a delta adds or removes.
    """
    projected = rows[:, dims]
    for local_dim, original_dim in enumerate(dims):
        if original_dim in flip:
            projected[:, local_dim] = -projected[:, local_dim]
    return projected


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class _FifoCache(dict[object, object]):
    """A dict with FIFO eviction once ``max_entries`` is exceeded."""

    def __init__(self, max_entries: int = _MAX_ENTRIES) -> None:
        super().__init__()
        self.max_entries = max_entries

    def insert(self, key: object, value: object) -> None:
        while len(self) >= self.max_entries:
            del self[next(iter(self))]
        self[key] = value


class PreparedDataset:
    """A dataset normalized once, with caches for everything queries reuse.

    Parameters
    ----------
    data:
        The dataset (or raw array) to prepare.  The wrapped
        :class:`~repro.dataset.Dataset` is immutable; ``invalidate`` exists
        for callers that rebind :attr:`dataset` semantics externally (e.g.
        a registry slot reused for fresh data).  Assigning :attr:`dataset`
        replaces the row store; call ``invalidate`` after it.

    Notes
    -----
    All cache lookups take an optional counter and record
    ``prepared_cache_hits`` / ``prepared_cache_misses`` on it.  A hit never
    performs dominance tests; a miss charges its computation's tests on the
    same counter, exactly as the cold, unprepared code path would.
    """

    def __init__(
        self,
        data: Dataset | np.ndarray,
        repair_threshold: float = _REPAIR_THRESHOLD,
    ) -> None:
        if not 0.0 <= repair_threshold <= 1.0:
            raise InvalidParameterError(
                f"repair_threshold must be in [0, 1], got {repair_threshold}"
            )
        self.version = 0
        self.repair_threshold = repair_threshold
        self._column_major: np.ndarray | None = None
        self._statistics: DatasetStatistics | None = None
        self._minima: np.ndarray | None = None
        # Stable cached Merge results (see `merged`).
        self._merge_cache = _FifoCache()
        self._sort_caches = _FifoCache()
        self._view_cache = _FifoCache()
        self._artefacts = _FifoCache()
        # Mutation state (see `apply_delta` / `note_skyline`), in stable
        # ids: the noted skyline, the ids issued when it was noted (every
        # one of them live then), the batches logged since and the replay
        # stream.  `_noted` is the positional form of the last note, valid
        # at `_noted_version`, so a repeated note is recognised as a no-op.
        self._base_skyline: np.ndarray | None = None
        self._base_issued = 0
        self._noted: np.ndarray | None = None
        self._noted_version = -1
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []
        self._pending_ops = 0
        self._stream: "StreamingSkyline | None" = None
        self.dataset = as_dataset(data)

    # -- rows and shape -----------------------------------------------------

    @property
    def dataset(self) -> Dataset:
        """The live rows as a positional :class:`~repro.dataset.Dataset`.

        Row ``i`` is the ``i``-th live row in stable-id order.  Built on
        first read after a delta by one gather of the live rows (no copy
        while nothing is tombstoned), without re-validating rows that were
        checked on arrival.
        """
        return self._positional()

    @dataset.setter
    def dataset(self, dataset: Dataset) -> None:
        """Replace the rows wholesale; stable ids restart at the new rows."""
        self._dataset = dataset
        self._name, self._kind = dataset.name, dataset.kind
        # The dataset's rows are immutable, so the store adopts them and
        # copies only when the first insert needs room.
        self._row_store = RowStore(dataset.values)
        self._issued = dataset.cardinality
        self._tombstones = np.empty(0, dtype=np.intp)
        self._forget_mutation_state()

    def _positional(self) -> Dataset:
        if self._dataset is None:
            self._dataset = Dataset._trusted(
                self._live(self._row_store.rows[: self._issued]),
                self._name,
                self._kind,
            )
        return self._dataset

    def _live(self, by_id: np.ndarray) -> np.ndarray:
        """The entries of ``by_id`` (indexed by stable id) for live rows."""
        if not self._tombstones.size:
            return by_id
        live = np.ones(self._issued, dtype=bool)
        live[self._tombstones] = False
        return np.compress(live, by_id, axis=0)

    @property
    def name(self) -> str:
        """The dataset's name (no positional rows needed)."""
        return self._name

    @property
    def cardinality(self) -> int:
        """Number of points ``N``."""
        return self._issued - int(self._tombstones.size)

    @property
    def dimensionality(self) -> int:
        """Number of dimensions ``d``."""
        return int(self._row_store.rows.shape[1])

    @property
    def values(self) -> np.ndarray:
        """The row-major ``(n, d)`` coordinate array (read-only)."""
        return self.dataset.values

    @property
    def column_major(self) -> np.ndarray:
        """A Fortran-ordered (column-major) copy of the coordinates.

        Built lazily on first access: per-dimension consumers (SDI's sorted
        indexes, the estimator's column statistics) read whole columns, and
        a contiguous column avoids a strided gather per access.
        """
        if self._column_major is None:
            column_major = np.asfortranarray(self.dataset.values)
            column_major.setflags(write=False)
            self._column_major = column_major
        return self._column_major

    def minima(self) -> np.ndarray:
        """Exact per-column minima of the current values.

        Reduced over the rows on first use, then carried across every
        repaired delta in O(batch·d)
        (:func:`~repro.engine.delta.repair_minima`); dropped by
        :meth:`invalidate`.  The array is read-only.
        """
        if self._minima is None:
            self._minima = _read_only(self.dataset.values.min(axis=0))
        return self._minima

    def expected_skyline(self) -> float:
        """Expected skyline size under uniform independence, capped at ``n``.

        A function of ``(n, d)`` alone — exact harmonic number up to
        ``50_000`` rows, closed-form asymptotic above — so it needs no pass
        over the rows.
        """
        n, d = self.cardinality, self.dimensionality
        if n <= _EXACT_ESTIMATE_LIMIT:
            expected = expected_skyline_size(n, d)
        else:
            expected = expected_skyline_size_asymptotic(n, d)
        return min(float(n), expected)

    # -- cached artefacts ---------------------------------------------------

    def statistics(self, counter: DominanceCounter | None = None) -> DatasetStatistics:
        """The planner's estimator signals, computed once and cached."""
        if self._statistics is not None:
            self._record(counter, hit=True)
            return self._statistics
        self._record(counter, hit=False)
        self._statistics = DatasetStatistics(
            cardinality=self.cardinality,
            dimensionality=self.dimensionality,
            correlation=correlation_signal(self.column_major),
            expected_skyline=self.expected_skyline(),
        )
        return self._statistics

    def merged(
        self,
        sigma: int | None = None,
        pivot_strategy: str = "euclidean",
        counter: DominanceCounter | None = None,
    ) -> MergeResult:
        """The Merge pass (Algorithm 1) for ``(sigma, pivot_strategy)``.

        A miss runs Merge with its dominance tests charged on ``counter``
        (identical accounting to the cold path); a hit returns the cached
        :class:`~repro.core.merge.MergeResult` and charges nothing.  The
        cache holds stable ids; a hit after a delta translates them to
        positional ids once (deleted rows dropped).
        """
        d = self.dimensionality
        if sigma is None:
            sigma = default_threshold(d)
        validate_threshold(sigma, d)
        key = (sigma, pivot_strategy)
        cached = self._merge_cache.get(key)
        if cached is not None:
            self._record(counter, hit=True)
            tracer = current_tracer()
            if tracer.enabled:
                # The warm path skips Merge entirely; leave a zero-cost
                # marker so traces distinguish "Merge reused" from a run
                # that never needed Merge.
                tracer.record(
                    "merge.cached",
                    0.0,
                    sigma=sigma,
                    pivots=len(cached.pivot_ids),  # type: ignore[attr-defined]
                )
            return live_merge_result(cached, self._tombstones)  # type: ignore[arg-type]
        self._record(counter, hit=False)
        run_counter = counter if counter is not None else DominanceCounter()
        result = merge(self.dataset, sigma, run_counter, pivot_strategy=pivot_strategy)
        self._merge_cache.insert(key, self._stable_merge(result))
        return result

    def sort_cache(self, key: str) -> dict[str, object]:
        """The mutable sort-phase cache private to one scan configuration.

        ``key`` must identify the host configuration *and* the id set it
        scans (e.g. ``"sfs|boosted|σ2|euclidean"``) — hosts cache their
        computed scan order in the returned mapping, so two configurations
        sharing a mapping would replay each other's orders.
        """
        cached = self._sort_caches.get(key)
        if cached is not None:
            return cached  # type: ignore[return-value]
        fresh: dict[str, object] = {}
        self._sort_caches.insert(key, fresh)
        return fresh

    def view(
        self,
        dims: "Sequence[int]",
        maximize: "Sequence[int]" = (),
        counter: DominanceCounter | None = None,
    ) -> "PreparedDataset":
        """A prepared projection onto ``dims`` with ``maximize`` flipped.

        ``dims`` are original column indices in preference order;
        ``maximize`` lists the subset of ``dims`` whose direction is
        max-is-better (each flipped by exact negation, ``-col``, matching
        :meth:`repro.dataset.Dataset.minimizing`).  The view is
        itself a :class:`PreparedDataset`, so per-subspace Merge results
        and sort orders are cached independently and reused across repeated
        queries over the same subspace.
        """
        dims_key = tuple(int(dim) for dim in dims)
        flip_key = tuple(sorted(int(dim) for dim in maximize))
        if not set(flip_key) <= set(dims_key):
            raise ValueError(f"maximize dims {flip_key} not all in dims {dims_key}")
        key = (dims_key, flip_key)
        cached = self._view_cache.get(key)
        if cached is not None:
            self._record(counter, hit=True)
            return cached  # type: ignore[return-value]
        self._record(counter, hit=False)
        view = PreparedDataset(
            Dataset(
                _project(self.dataset.values, dims_key, flip_key),
                name=f"{self._name}[view:{dims_key}]",
                kind=self._kind,
            ),
            repair_threshold=self.repair_threshold,
        )
        self._view_cache.insert(key, view)
        return view

    def artefact(
        self,
        key: object,
        compute: Callable[[], _T],
        counter: DominanceCounter | None = None,
    ) -> _T:
        """Generic cached artefact (e.g. the skyband anchor masks).

        ``compute`` runs on a miss with its cost charged wherever it
        charges it; the result is cached under ``key`` until
        :meth:`invalidate`.
        """
        cached = self._artefacts.get(key)
        if cached is not None:
            self._record(counter, hit=True)
            return cached  # type: ignore[return-value]
        self._record(counter, hit=False)
        value = compute()
        self._artefacts.insert(key, value)
        return value

    # -- mutation -----------------------------------------------------------

    def apply_delta(
        self,
        inserts: "np.ndarray | Sequence[Sequence[float]] | None" = None,
        deletes: "np.ndarray | Sequence[int] | None" = None,
        counter: DominanceCounter | None = None,
        mode: str | None = None,
    ) -> DeltaReport:
        """Apply an insert/delete batch, repairing caches when it is small.

        ``deletes`` are row ids of the *current* dataset; surviving rows
        close ranks in order and ``inserts`` append after them, so the new
        id of surviving row ``i`` is ``i - |{deleted < i}|`` and insert
        ``j`` becomes row ``n - |deletes| + j``.

        ``mode=None`` repairs when the delta fraction is at most
        :attr:`repair_threshold` and recomputes otherwise; ``"repair"`` and
        ``"recompute"`` force the path.  The repair path carries the column
        minima across the delta, suffix-repairs cached Merge results and
        every view, tags key-decomposable sort orders for lazy repair,
        drops everything else, logs the delta for :meth:`repair_skyline`
        and bumps :attr:`version` exactly once (the recompute path bumps through
        :meth:`invalidate`).  Repair dominance tests (insert-vs-pivot
        classification, view recursion) are charged on ``counter``.

        Internally the repair is O(batch) per prepared dataset: inserts
        append to the row store, deletes become tombstones, and the new
        positional :attr:`dataset` is one gather of the live rows at the
        end (views rebuild theirs only when something reads it).
        """
        report = self._apply(inserts, deletes, counter, mode)
        self._positional()
        return report

    def _apply(
        self,
        inserts: "np.ndarray | Sequence[Sequence[float]] | None",
        deletes: "np.ndarray | Sequence[int] | None",
        counter: DominanceCounter | None,
        mode: str | None,
    ) -> DeltaReport:
        """:meth:`apply_delta` without building the positional dataset."""
        if mode not in (None, "repair", "recompute"):
            raise InvalidParameterError(
                f"mode must be None, 'repair' or 'recompute', got {mode!r}"
            )
        n, d = self.cardinality, self.dimensionality
        ins, dels = normalize_delta((n, d), inserts, deletes)
        inserted, deleted = int(ins.shape[0]), int(dels.size)
        if inserted == 0 and deleted == 0:
            return DeltaReport(
                mode="noop", inserted=0, deleted=0, fraction=0.0, version=self.version
            )
        if n - deleted + inserted == 0:
            raise InvalidParameterError("delta would empty the dataset")
        fraction = (inserted + deleted) / n

        repair = mode == "repair" or (
            mode is None and fraction <= self.repair_threshold
        )
        if not repair:
            live = self.dataset.values
            kept = np.ones(n, dtype=bool)
            kept[dels] = False
            self.dataset = Dataset._trusted(
                np.concatenate([live[kept], ins]), self._name, self._kind
            )
            self.invalidate()
            return DeltaReport(
                mode="recompute",
                inserted=inserted,
                deleted=deleted,
                fraction=fraction,
                version=self.version,
            )

        run_counter = counter if counter is not None else DominanceCounter()
        tracer = current_tracer()
        with tracer.span(
            "prepared.delta",
            counter=run_counter,
            inserted=inserted,
            deleted=deleted,
            n=n - deleted + inserted,
        ):
            old_min = self.minima()
            doomed = stable_ids(dels, self._tombstones)
            first_new = self._issued
            if inserted:
                self._row_store.reserve(first_new + inserted)
                self._row_store.rows[first_new : first_new + inserted] = ins
                self._issued += inserted
            rows = self._row_store.rows
            self._tombstones = np.insert(
                self._tombstones, np.searchsorted(self._tombstones, doomed), doomed
            )
            self._dataset = None
            new_min = repair_minima(old_min, rows[doomed], ins, self._live_column)
            merge_repaired, merge_dropped = self._repair_merge_entries(
                ins, doomed, first_new, run_counter
            )
            sort_tagged, sort_dropped = self._tag_sort_caches(
                bool(np.array_equal(old_min, new_min)), dels, n - deleted
            )
            views_repaired = self._repair_views(ins, dels, run_counter)
            self._minima = _read_only(new_min)
            self._artefacts.clear()
            self._statistics = None
            self._column_major = None
            if self._base_skyline is not None:
                # Stable ids need no translation at replay: the deletes
                # name the stream's own ids and the inserts take the next.
                self._pending.append((ins, doomed))
                self._pending_ops += inserted + deleted
            self.version += 1
        if self._base_skyline is None and self._tombstones.size > self.cardinality:
            # No replay state is keyed by the old ids (`repair_skyline`
            # compacts the rest once it has replayed the log).
            self._compact()
        return DeltaReport(
            mode="repair",
            inserted=inserted,
            deleted=deleted,
            fraction=fraction,
            version=self.version,
            merge_repaired=merge_repaired,
            merge_dropped=merge_dropped,
            views_repaired=views_repaired,
            sort_tagged=sort_tagged,
            sort_dropped=sort_dropped,
        )

    def note_skyline(self, indices: "np.ndarray | Sequence[int]") -> None:
        """Record a full-dataset skyline as the delta-repair base.

        Called by the engine after every sequential or parallel full
        execution.  Rebasing clears the pending delta log (the result
        already reflects the mutated data), drops a stale replay stream
        and compacts the id space, so the base's stable ids are its
        positional ids; a note that matches the current base is a no-op,
        so warm repair streams survive repeated queries.
        """
        ids = np.asarray(indices, dtype=np.intp)
        if (
            not self._pending
            and self._noted is not None
            and self._noted_version == self.version
            and np.array_equal(self._noted, ids)
        ):
            return
        self._forget_mutation_state()
        self._compact()
        self._base_skyline = ids.copy()
        self._base_issued = self._issued
        self._noted, self._noted_version = self._base_skyline, self.version

    def delta_state(self) -> DeltaState | None:
        """Pending-mutation summary for the planner; ``None`` when clean."""
        if self._base_skyline is None or not self._pending:
            return None
        return DeltaState(
            pending_ops=self._pending_ops,
            batches=len(self._pending),
            fraction=self._pending_ops / max(1, self.cardinality),
            covered=True,
            stream_ready=self._stream is not None,
        )

    def repair_skyline(self, counter: DominanceCounter | None = None) -> list[int]:
        """Replay the pending delta log; return the current skyline ids.

        Bootstraps a columnar
        :class:`~repro.extensions.streaming.StreamingSkyline` from the
        noted base skyline on first use (one vectorised anchor-mask pass —
        no batch skyline run), replays each logged batch (deletes first,
        then inserts), and maps the stream's skyline back to current row
        ids.  The stream reads this dataset's row store, so its ids are
        the stable ids and only the returned skyline is translated.  The
        stream's dominance tests accrued during this call are charged on
        ``counter``; afterwards the state is rebased so the stream stays
        warm for the next delta.
        """
        if self._base_skyline is None:
            raise InvalidParameterError(
                "no noted skyline to repair from; run a full query first"
            )
        run_counter = counter if counter is not None else DominanceCounter()
        stream = self._stream
        if stream is None:
            # Imported lazily: extensions import the engine package.
            from repro.extensions.streaming import StreamingSkyline

            stream = StreamingSkyline._over_store(
                self._row_store,
                self._base_issued,
                self._base_skyline,
                anchors=_STREAM_ANCHORS,
            )
            self._stream = stream
        before = stream.counter.snapshot()
        for batch_inserts, batch_deletes in self._pending:
            if batch_deletes.size:
                stream.delete_many(batch_deletes)
            if batch_inserts.shape[0]:
                stream.insert_many(batch_inserts)
        absorb_since(run_counter, stream.counter, before)
        self._base_skyline = np.asarray(stream.skyline_ids(), dtype=np.intp)
        self._pending = []
        self._pending_ops = 0
        rows = remap_ids(self._base_skyline, self._tombstones)
        self._noted, self._noted_version = rows, self.version
        if self._tombstones.size > self.cardinality:
            self._compact()
        return rows.tolist()

    def _repair_merge_entries(
        self,
        ins: np.ndarray,
        doomed: np.ndarray,
        first_new: int,
        counter: DominanceCounter,
    ) -> tuple[int, int]:
        repaired = dropped = 0
        for key in list(self._merge_cache):
            fixed = repair_merge_result(
                self._merge_cache[key],  # type: ignore[arg-type]
                self._row_store.rows,
                ins,
                doomed,
                first_new,
                self.cardinality,
                counter,
            )
            if fixed is None:
                del self._merge_cache[key]  # noqa: RPR008 — apply_delta (sole caller) bumps version once for the whole delta
                dropped += 1
            else:
                self._merge_cache[key] = fixed  # noqa: RPR008 — apply_delta (sole caller) bumps version once for the whole delta
                repaired += 1
        return repaired, dropped

    def _tag_sort_caches(
        self,
        corner_stable: bool,
        dels: np.ndarray,
        new_from: int,
    ) -> tuple[int, int]:
        # Sort keys are computed against the dataset's minimum corner; if
        # the delta moves the corner every cached key is stale, so the
        # caches are dropped rather than tagged.  Sort orders scan the
        # positional dataset, so the tag carries positional ids.
        tagged = dropped = 0
        for key in list(self._sort_caches):
            entry = self._sort_caches[key]
            if (
                corner_stable
                and isinstance(entry, dict)
                and entry.keys() <= _REPAIRABLE_SORT_KEYS
                and "order" in entry
                and "keys" in entry
            ):
                # Consumed (and popped) by `cached_sort_order` at the next
                # scan; an entry already carrying an unconsumed tag fails
                # the keyset check above and is dropped instead of stacking.
                entry["pending_delta"] = (dels.copy(), new_from)
                tagged += 1
            else:
                del self._sort_caches[key]  # noqa: RPR008 — apply_delta (sole caller) bumps version once for the whole delta
                dropped += 1
        return tagged, dropped

    def _repair_views(
        self, ins: np.ndarray, dels: np.ndarray, counter: DominanceCounter
    ) -> int:
        """Repair every cached view with the delta; returns their number.

        The inserts project exactly as a cold view would project them.
        Views keep their own stable ids, so they take the positional
        deletes and translate them themselves.
        """
        for key in list(self._view_cache):
            dims_key, flip_key = key  # type: ignore[misc]
            self._view_cache[key]._apply(  # type: ignore[attr-defined]
                _project(ins, dims_key, flip_key), dels, counter, "repair"
            )
        return len(self._view_cache)

    def _stable_merge(self, result: MergeResult) -> MergeResult:
        """A positional Merge result in stable ids, for the cache."""
        if not self._tombstones.size:
            return result
        tombstones = self._tombstones
        return replace(
            result,
            pivot_ids=stable_ids(result.pivot_ids, tombstones).tolist(),
            duplicate_skyline_ids=stable_ids(
                result.duplicate_skyline_ids, tombstones
            ).tolist(),
            remaining_ids=stable_ids(result.remaining_ids, tombstones),
        )

    def _live_column(self, column: int) -> np.ndarray:
        """Column ``column`` of the live rows (stable order)."""
        return self._live(self._row_store.rows[: self._issued, column])

    def _compact(self) -> None:
        """Renumber the live rows ``0..n-1`` and drop the tombstones.

        Cached Merge results and the noted skyline are translated to the
        new ids; the replay stream, whose state is keyed by the old ids,
        is dropped and re-bootstraps from the noted skyline when next
        needed.  Needs an empty delta log (its deletes name dead ids).
        """
        tombstones = self._tombstones
        if not tombstones.size:
            return
        for key in list(self._merge_cache):
            self._merge_cache[key] = live_merge_result(  # noqa: RPR008 — renumbering ids changes no data, so the version stays
                self._merge_cache[key], tombstones  # type: ignore[arg-type]
            )
        if self._base_skyline is not None:
            self._base_skyline = remap_ids(self._base_skyline, tombstones)
        self._stream = None
        dataset = self.dataset
        self._row_store = RowStore(dataset.values)
        self._issued = dataset.cardinality
        self._tombstones = np.empty(0, dtype=np.intp)
        self._base_issued = self._issued

    def _forget_mutation_state(self) -> None:
        self._base_skyline = None
        self._base_issued = 0
        self._noted = None
        self._noted_version = -1
        self._pending = []
        self._pending_ops = 0
        self._stream = None

    # -- lifecycle ----------------------------------------------------------

    def invalidate(self) -> None:
        """Drop every cached artefact and bump :attr:`version`.

        Cached views are invalidated recursively — their artefacts derive
        from this dataset's values.  The noted delta-repair skyline is
        forgotten too: an explicit invalidation signals that the data
        changed through a side door no delta log covers.
        """
        tracer = current_tracer()
        if tracer.enabled:
            dropped = self.cache_info()
            tracer.record(
                "cache.invalidate",
                0.0,
                dataset=self._name,
                version=self.version + 1,
                merge=dropped["merge"],
                sort=dropped["sort"],
                views=dropped["views"],
                artefacts=dropped["artefacts"],
            )
        for view in self._view_cache.values():
            view.invalidate()  # type: ignore[attr-defined]
        self._column_major = None
        self._statistics = None
        self._minima = None
        self._merge_cache.clear()
        self._sort_caches.clear()
        self._view_cache.clear()
        self._artefacts.clear()
        self._forget_mutation_state()
        self.version += 1

    def cache_info(self) -> dict[str, int]:
        """Entry counts per cache — observability for tests and tuning."""
        return {
            "merge": len(self._merge_cache),
            "sort": len(self._sort_caches),
            "views": len(self._view_cache),
            "artefacts": len(self._artefacts),
            "statistics": int(self._statistics is not None),
            "version": self.version,
        }

    @staticmethod
    def _record(counter: DominanceCounter | None, hit: bool) -> None:
        if counter is None:
            return
        if hit:
            counter.add_prepared_hit()
        else:
            counter.add_prepared_miss()

    def __repr__(self) -> str:
        return (
            f"PreparedDataset({self._name!r}, n={self.cardinality}, "
            f"d={self.dimensionality}, version={self.version})"
        )
