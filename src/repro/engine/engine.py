"""``SkylineEngine`` — the planned execution façade for every entry point.

The engine ties the layer stack together: *prepare* the dataset once
(:class:`~repro.engine.prepared.PreparedDataset`), *plan* each query
(:class:`~repro.engine.planner.Planner`), *execute* through the shared
boost wiring (:func:`~repro.core.boost.run_boosted_scan`) with session
state from :class:`~repro.engine.context.ExecutionContext`, and *report* a
standard :class:`~repro.algorithms.base.SkylineResult` carrying both the
full counter and the chosen :class:`~repro.engine.plan.Plan`.

Equivalence contract: a pinned plan executed on a cold context performs the
exact sequence of dominance tests the direct
:func:`~repro.algorithms.registry.get_algorithm` call performs — same
skyline ids, same charged test count.  Warm executions reuse prepared
artefacts (Merge results, sort orders); the skyline is unchanged and the
saving is visible as ``prepared_cache_hits`` on the counter.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import replace

import numpy as np

from repro.algorithms.base import SkylineResult, timed_result
from repro.algorithms.registry import get_algorithm
from repro.core.boost import BoostableHost, run_boosted_scan, run_unboosted_scan
from repro.dataset import Dataset, as_dataset
from repro.engine.context import ExecutionContext
from repro.engine.delta import DeltaReport
from repro.engine.plan import Plan
from repro.engine.planner import Planner
from repro.engine.prepared import PreparedDataset
from repro.stats.counters import DominanceCounter

__all__ = ["SkylineEngine"]


class SkylineEngine:
    """Plans and executes skyline queries over prepared datasets.

    Parameters
    ----------
    context:
        Session state (prepared registry, aggregate counter, worker pool);
        a private one is created when omitted.
    planner:
        The plan selector; defaults to a non-autotuning :class:`Planner`.

    >>> from repro.data import generate
    >>> engine = SkylineEngine()
    >>> result = engine.execute(generate("UI", n=400, d=4, seed=1), "sfs-subset")
    >>> result.algorithm
    'sfs-subset'
    >>> result.plan.boosted
    True
    """

    def __init__(
        self,
        context: ExecutionContext | None = None,
        planner: Planner | None = None,
    ) -> None:
        self.context = context if context is not None else ExecutionContext()
        self.planner = planner if planner is not None else Planner()

    def prepare(
        self, data: Dataset | PreparedDataset | np.ndarray
    ) -> PreparedDataset:
        """Prepare (or fetch the prepared form of) ``data``."""
        return self.context.prepare(data)

    def plan(
        self,
        data: Dataset | PreparedDataset | np.ndarray,
        algorithm: str | None = None,
        sigma: int | None = None,
        **options: object,
    ) -> Plan:
        """Plan a query without executing it (``EXPLAIN`` mode)."""
        prepared = self.prepare(data)
        return self.planner.plan(prepared, algorithm, sigma, **options)  # type: ignore[arg-type]

    def execute(
        self,
        data: Dataset | PreparedDataset | np.ndarray,
        algorithm: str | None = None,
        sigma: int | None = None,
        counter: DominanceCounter | None = None,
        *,
        plan: Plan | None = None,
        container: str = "subset",
        pivot_strategy: str = "euclidean",
        workers: int | None = None,
        parallel_strategy: str | None = None,
        incremental: bool | None = None,
        host_options: Mapping[str, object] | None = None,
    ) -> SkylineResult:
        """Plan (unless ``plan`` is given) and execute one skyline query.

        ``algorithm=None`` selects adaptively from dataset statistics; a
        registry name pins the exact direct-call wiring.  ``workers``
        defaults to ``None`` — "planner decides": pinned plans keep the
        direct-call wiring (sequential), adaptive plans choose from the
        dataset statistics.  ``parallel_strategy``
        pins the block-parallel mode for ``workers > 1`` (``"prefix"`` is
        the prune-aware default, ``"even"`` the legacy split).
        ``incremental`` steers delta repair after :meth:`apply_delta`:
        ``None`` lets the cost model decide, ``True``/``False`` force
        repair/recompute (repair requires an adaptive plan).  The returned
        result's ``counter`` is the per-run counter (the caller's, if
        provided) and ``result.plan`` is the executed plan; the run is
        also absorbed into ``context.counter``.  Every full execution
        notes its skyline on the prepared dataset as the next repair base.
        """
        tracer = self.context.tracer
        events = self.context.events
        run_counter = self.context.run_counter(counter)
        with tracer.activate(), events.activate():
            with tracer.span("prepare", counter=run_counter):
                prepared = self.prepare(data)
            if events.enabled:
                events.emit(
                    "query.start",
                    dataset=prepared.name,
                    n=prepared.cardinality,
                    d=prepared.dimensionality,
                    algorithm=algorithm if algorithm is not None else "auto",
                )
            if plan is None:
                with tracer.span("plan", counter=run_counter) as plan_span:
                    plan = self.planner.plan(
                        prepared,
                        algorithm,
                        sigma,
                        container=container,
                        pivot_strategy=pivot_strategy,
                        workers=workers,
                        parallel_strategy=parallel_strategy,
                        incremental=incremental,
                        host_options=host_options,
                        counter=run_counter,
                    )
                    plan_span.set(label=plan.label)

            executed: Plan = plan
            if events.enabled:
                events.emit(
                    "plan.chosen",
                    label=executed.label,
                    adaptive=executed.adaptive,
                    incremental=executed.incremental,
                    workers=executed.workers,
                    parallel_strategy=executed.parallel_strategy,
                )

            def body() -> list[int]:
                with tracer.span(
                    "execute",
                    counter=run_counter,
                    algorithm=executed.label,
                    sigma=executed.sigma,
                    boosted=executed.boosted,
                    workers=executed.workers,
                    n=prepared.cardinality,
                    d=prepared.dimensionality,
                ):
                    return self._run_plan(prepared, executed, run_counter)

            # An incremental plan never reads the positional rows, so the
            # result is packaged from the prepared dataset's shape alone.
            result = timed_result(
                executed.label, prepared.cardinality, run_counter, body
            )
            # Every execution ends with the current full skyline in hand;
            # noting it gives the next apply_delta a repair base.  After an
            # incremental run this matches the rebased stream state, so the
            # note is a no-op that keeps the replay stream warm.
            prepared.note_skyline(result.indices)
            if events.enabled:
                events.emit(
                    "query.finish",
                    label=executed.label,
                    wall_s=result.elapsed_seconds,
                    dominance_tests=int(result.dominance_tests),
                    skyline_size=result.size,
                )
        result = replace(result, plan=executed, trace=tracer.drain())
        self.context.record(run_counter)
        # Session tail-latency accounting: every execution feeds the
        # context histograms (observation-only — three adds per query).
        self.context.observe("query.wall_s", result.elapsed_seconds)
        self.context.observe("query.dominance_tests", float(result.dominance_tests))
        self.context.observe("query.skyline_size", float(result.size))
        return result

    def apply_delta(
        self,
        data: Dataset | PreparedDataset | np.ndarray,
        inserts: "np.ndarray | list[list[float]] | None" = None,
        deletes: "np.ndarray | list[int] | None" = None,
        counter: DominanceCounter | None = None,
        *,
        mode: str | None = None,
    ) -> "DeltaReport":
        """Mutate ``data``'s prepared form through the engine.

        Delegates to :meth:`PreparedDataset.apply_delta` and re-keys the
        context's prepared registry to the mutated value array, so the next
        ``execute(prepared.dataset)`` — or ``execute`` with the prepared
        object itself — finds the repaired caches instead of preparing the
        stale pre-delta array from scratch.
        """
        events = self.context.events
        run_counter = self.context.run_counter(counter)
        with self.context.tracer.activate(), events.activate():
            prepared = self.prepare(data)
            report = prepared.apply_delta(
                inserts, deletes, counter=run_counter, mode=mode
            )
            if events.enabled:
                events.emit(
                    "delta.apply",
                    dataset=prepared.name,
                    mode=report.mode,
                    inserted=report.inserted,
                    deleted=report.deleted,
                    version=report.version,
                )
        self.context.rebind(prepared)
        self.context.record_delta(run_counter)
        return report

    # -- plan execution -----------------------------------------------------

    def _run_plan(
        self,
        prepared: PreparedDataset,
        plan: Plan,
        counter: DominanceCounter,
    ) -> list[int]:
        if plan.incremental:
            events = self.context.events
            if events.enabled:
                events.emit(
                    "delta.repair",
                    dataset=prepared.name,
                    pending=plan.pending_mutations,
                )
            with self.context.tracer.span(
                "engine.repair",
                counter=counter,
                pending=plan.pending_mutations,
            ):
                return prepared.repair_skyline(counter)
        # A full plan scans the positional rows (one gather after a delta).
        dataset = prepared.dataset
        if plan.workers > 1:
            # Block-parallel path: lazy import keeps engine -> extensions
            # off the module import graph (extensions import the engine).
            from repro.core.prefix import monotone_order
            from repro.extensions.parallel import parallel_skyline

            order = None
            if plan.parallel_strategy == "prefix":
                # The monotone scan order is a pure function of the
                # values; prepared sessions compute it once and reuse it
                # across every parallel query (and the worker pool keys
                # its shared order segment off the same array identity).
                order = prepared.artefact(
                    ("parallel", "monotone-order"),
                    lambda: monotone_order(dataset.values),
                    counter,
                )
            indices = parallel_skyline(
                dataset,
                workers=plan.workers,
                algorithm=plan.label,
                # Boosted plans also merge the union of local skylines
                # through the boosted wiring (one subset index over every
                # block's survivors).
                merge_algorithm=plan.label if plan.boosted else "sfs",
                counter=counter,
                pool=self.context.pool,
                partition="sorted" if plan.parallel_strategy == "prefix" else "even",
                prefix_size=plan.prefix_size,
                block_growth=plan.block_growth,
                order=order,
            )
            return [int(i) for i in indices]

        host = get_algorithm(plan.algorithm, **dict(plan.host_options))  # type: ignore[arg-type]
        sort_cache = prepared.sort_cache(plan.sort_cache_key)
        if plan.boosted:
            merged = (
                prepared.merged(plan.sigma, plan.pivot_strategy, counter)
                if dataset.dimensionality >= 2
                else None
            )
            return run_boosted_scan(
                dataset,
                host,  # type: ignore[arg-type]
                counter,
                sigma=plan.sigma,
                container=plan.container,
                pivot_strategy=plan.pivot_strategy,
                merged=merged,
                sort_cache=sort_cache,
            )
        if isinstance(host, BoostableHost):
            return run_unboosted_scan(dataset, host, counter, sort_cache)
        # Non-phase algorithms (BNL, BBS, D&C, ...) have no cacheable sort
        # phase; run their private body under the engine's timer.
        return host._run(dataset, counter)  # noqa: SLF001 — engine is the sanctioned caller of algorithm bodies

    def close(self) -> None:
        """Release the context's session state."""
        self.context.close()

    def __enter__(self) -> "SkylineEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"SkylineEngine(context={self.context!r})"
