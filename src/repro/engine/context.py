"""``ExecutionContext`` — session state threaded through engine runs.

One context owns the state that repeated queries amortize: the registry of
:class:`~repro.engine.prepared.PreparedDataset` objects (keyed by the
identity of a dataset's value array, held weakly, FIFO-bounded), the
session-wide aggregate
:class:`~repro.stats.counters.DominanceCounter`, and the lazily created
PR-2 :class:`~repro.extensions.parallel.SkylineWorkerPool` for
block-parallel plans.  The engine asks the context for a fresh per-run
counter, executes, then records the run back so the session totals — tests,
index traffic, prepared-cache hit rates — accumulate in one place.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

import numpy as np

from repro.dataset import Dataset, as_dataset
from repro.engine.prepared import PreparedDataset
from repro.errors import InvalidParameterError
from repro.obs.histogram import LogHistogram
from repro.obs.trace import NULL_TRACER, TracerLike
from repro.stats.counters import DominanceCounter

if TYPE_CHECKING:
    from repro.extensions.parallel import SkylineWorkerPool

__all__ = ["ExecutionContext"]

#: Prepared datasets kept per context before FIFO eviction.  Each prepared
#: dataset pins its source array plus O(n) caches, so the registry is
#: deliberately small — sessions typically hammer one or two datasets.
_MAX_PREPARED = 8


class ExecutionContext:
    """Holds and hands out the state one skyline session shares.

    Parameters
    ----------
    max_prepared:
        Distinct datasets kept prepared before FIFO eviction.
    workers:
        Default worker count for the lazily created process pool.
    tracer:
        The session's :class:`~repro.obs.trace.Tracer`; defaults to the
        no-op :data:`~repro.obs.trace.NULL_TRACER`, which keeps execution
        bit-identical and allocation-free.  The engine activates this
        tracer around every ``execute`` and drains it into
        ``SkylineResult.trace``.

    Attributes
    ----------
    counter:
        Session-wide aggregate counter; every recorded run's tallies are
        absorbed into it.
    histograms:
        Session-wide :class:`~repro.obs.histogram.LogHistogram` per
        observed metric (``query.wall_s``, ``query.dominance_tests``,
        ``query.skyline_size``), fed by :meth:`observe` on every engine
        execution — the tail-latency view of the session.
    """

    def __init__(
        self,
        max_prepared: int = _MAX_PREPARED,
        workers: int | None = None,
        tracer: TracerLike = NULL_TRACER,
    ) -> None:
        if max_prepared < 1:
            raise InvalidParameterError(
                f"max_prepared must be >= 1, got {max_prepared}"
            )
        self.counter = DominanceCounter()
        self.tracer = tracer
        self.histograms: dict[str, LogHistogram] = {}
        self.runs_recorded = 0
        self.deltas_recorded = 0
        self._max_prepared = max_prepared
        self._workers = workers
        # id(value array) -> (weak reference to that array, prepared).  The
        # weak reference proves the key still names the same array: once
        # an array dies CPython may reuse its id for an unrelated one.
        self._prepared: dict[
            int, tuple[weakref.ref[np.ndarray], PreparedDataset]
        ] = {}
        self._pool: "SkylineWorkerPool | None" = None
        self._owns_pool = False

    # -- prepared-dataset registry ------------------------------------------

    def prepare(self, data: Dataset | PreparedDataset | np.ndarray) -> PreparedDataset:
        """The :class:`PreparedDataset` for ``data``, preparing on first use.

        Keyed by the identity of the dataset's value array (datasets are
        immutable), so repeated calls with the same dataset — or with the
        prepared object itself — return the same caches.  The registry
        holds the prepared datasets strongly but their key arrays weakly: a
        key whose array died is dropped, never matched against a new array
        that reuses its address.  Evicted entries simply lose their caches.
        """
        if isinstance(data, PreparedDataset):
            return data
        dataset = as_dataset(data)
        self._drop_dead_keys()
        entry = self._prepared.get(id(dataset.values))
        if entry is not None and entry[0]() is dataset.values:
            return entry[1]
        prepared = PreparedDataset(dataset)
        while len(self._prepared) >= self._max_prepared:
            del self._prepared[next(iter(self._prepared))]
        self._register(dataset.values, prepared)
        return prepared

    def rebind(self, prepared: PreparedDataset) -> None:
        """Register ``prepared`` under its post-mutation value array.

        The registry is keyed by value-array identity; after
        :meth:`PreparedDataset.apply_delta` the mutated object wraps a new
        array the registry has never seen.  Rebinding registers the new
        key *and keeps the old keys as aliases* to the same object: a
        caller still holding the pre-delta ``Dataset`` handle addresses
        the logical dataset it mutated, not a stale snapshot — executing
        with it must find the repaired caches, not silently re-prepare
        the old array.  Aliases hold their arrays weakly, so an alias
        lasts exactly as long as the caller keeps the old handle.
        """
        self._drop_dead_keys()
        values = prepared.dataset.values
        entry = self._prepared.get(id(values))
        if entry is not None and entry[0]() is values and entry[1] is prepared:
            return
        while len(self._prepared) >= self._max_prepared:
            evict = next(
                (k for k, (_, v) in self._prepared.items() if v is not prepared),
                None,
            )
            if evict is None:
                break
            del self._prepared[evict]
        self._register(values, prepared)

    def _register(self, values: np.ndarray, prepared: PreparedDataset) -> None:
        self._prepared.pop(id(values), None)  # a dead key's slot moves to the end
        self._prepared[id(values)] = (weakref.ref(values), prepared)

    def _drop_dead_keys(self) -> None:
        dead = [key for key, (ref, _) in self._prepared.items() if ref() is None]
        for key in dead:
            del self._prepared[key]

    @property
    def prepared_count(self) -> int:
        """Number of registry keys (datasets and live aliases) held."""
        self._drop_dead_keys()
        return len(self._prepared)

    # -- counters -----------------------------------------------------------

    def run_counter(self, counter: DominanceCounter | None = None) -> DominanceCounter:
        """The per-run counter: the caller's if given, else a fresh one."""
        return counter if counter is not None else DominanceCounter()

    def record(self, counter: DominanceCounter) -> None:
        """Absorb one run's tallies into the session aggregate."""
        self.counter.absorb(counter)
        self.runs_recorded += 1

    def record_delta(self, counter: DominanceCounter) -> None:
        """Absorb one mutation's tallies; counted apart from query runs."""
        self.counter.absorb(counter)
        self.deltas_recorded += 1

    # -- histograms ---------------------------------------------------------

    def observe(self, name: str, value: float) -> None:
        """Add one sample to the session histogram named ``name``.

        Histograms are created on first observation; like the aggregate
        counter they accumulate for the context's whole lifetime, so the
        p99 they report covers every query of the session.
        """
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = LogHistogram()
        histogram.add(value)

    def histogram(self, name: str) -> LogHistogram | None:
        """The session histogram named ``name``, or ``None`` if unobserved."""
        return self.histograms.get(name)

    # -- worker pool --------------------------------------------------------

    @property
    def pool(self) -> "SkylineWorkerPool":
        """The context's process pool, created lazily on first access.

        Uses the process-wide shared pool (so contexts compose with other
        pool users) unless a worker count was pinned at construction, in
        which case the context owns a private pool and closes it.
        """
        if self._pool is None:
            from repro.extensions.parallel import SkylineWorkerPool, get_pool

            if self._workers is None:
                self._pool = get_pool()
            else:
                self._pool = SkylineWorkerPool(self._workers)
                self._owns_pool = True
        return self._pool

    def pool_stats(self) -> dict[str, int]:
        """Reuse stats of the context's pool; empty if none was created.

        Read-only observability accessor (used by the CLI ``--metrics``
        dump): it never triggers lazy pool creation.
        """
        if self._pool is None:
            return {}
        return dict(self._pool.stats)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Release the prepared registry and any privately owned pool."""
        self._prepared.clear()
        if self._pool is not None and self._owns_pool:
            self._pool.close()
        self._pool = None
        self._owns_pool = False

    def __enter__(self) -> "ExecutionContext":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ExecutionContext(prepared={self.prepared_count}, "
            f"runs={self.runs_recorded}, tests={self.counter.tests})"
        )
