"""A flat metrics registry for one run or session.

Everything the stack already measures — :class:`DominanceCounter` tallies,
prepared-cache hit/miss counts, worker-pool reuse stats, per-phase
wall/CPU time from a :class:`~repro.obs.trace.Trace` — lands in one ``dict[str, float]`` with dotted, sorted keys, ready for a
JSON dump (:func:`~repro.obs.export.write_metrics`) or a scrape.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro.obs.trace import Trace, aggregate_phases

if TYPE_CHECKING:
    from repro.engine.analyze import PlanAnalysis
    from repro.obs.histogram import LogHistogram
    from repro.stats.counters import DominanceCounter

__all__ = ["MetricsRegistry"]


class MetricsRegistry:
    """Accumulates named float metrics; last write per key wins.

    >>> from repro.stats.counters import DominanceCounter
    >>> registry = MetricsRegistry()
    >>> counter = DominanceCounter(tests=7)
    >>> registry.record_counter(counter)
    >>> registry.record("run.elapsed_s", 0.25)
    >>> registry.as_dict()["counter.tests"]
    7.0
    """

    def __init__(self) -> None:
        self._values: dict[str, float] = {}

    def record(self, name: str, value: float) -> None:
        """Set one metric (overwrites a previous value for the key)."""
        self._values[name] = float(value)

    def record_many(self, values: Mapping[str, float], prefix: str = "") -> None:
        """Set a batch of metrics, optionally under a dotted prefix."""
        for key, value in values.items():
            self._values[f"{prefix}{key}"] = float(value)

    def record_counter(
        self, counter: "DominanceCounter", prefix: str = "counter."
    ) -> None:
        """Snapshot a :class:`DominanceCounter` under ``counter.*`` keys.

        Includes the derived ``counter.prepared_cache_hit_rate`` when the
        prepared cache was consulted, so dashboards need no post-processing.
        """
        tallies = counter.as_dict()
        self.record_many(tallies, prefix=prefix)
        prepared_lookups = (
            tallies["prepared_cache_hits"] + tallies["prepared_cache_misses"]
        )
        if prepared_lookups:
            self._values[f"{prefix}prepared_cache_hit_rate"] = (
                tallies["prepared_cache_hits"] / prepared_lookups
            )

    def record_pool(self, stats: Mapping[str, int], prefix: str = "pool.") -> None:
        """Snapshot worker-pool reuse stats (see ``SkylineWorkerPool.stats``)."""
        self.record_many({key: float(value) for key, value in stats.items()}, prefix)

    def record_histogram(
        self, name: str, histogram: "LogHistogram", prefix: str = "hist."
    ) -> None:
        """Flatten a :class:`LogHistogram`'s summary into metrics.

        ``hist.<name>.count`` / ``.sum`` / ``.min`` / ``.max`` and the
        ``.p50`` / ``.p90`` / ``.p99`` quantile estimates — the flat-dump
        view; the full bucket detail stays on the histogram object (the
        Prometheus exporter renders it natively).
        """
        self.record_many(histogram.summary(), prefix=f"{prefix}{name}.")

    def record_analysis(
        self, analysis: "PlanAnalysis", prefix: str = "planner."
    ) -> None:
        """Record an EXPLAIN ANALYZE report's misestimation ratios.

        One ``planner.<metric>_ratio`` entry per estimate-vs-actual row
        (``actual / estimated``; 1.0 means the cost model was exact), so
        planner accuracy is trackable alongside ordinary run metrics.
        """
        self.record_many(analysis.accuracy_metrics(prefix=prefix))

    def record_trace(self, trace: Trace, prefix: str = "phase.") -> None:
        """Flatten a trace's per-phase aggregates into metrics.

        Each phase path (e.g. ``execute/merge``) contributes
        ``phase.execute.merge.wall_s`` / ``.cpu_s`` / ``.calls`` and, when
        the phase charged dominance tests, ``.dominance_tests``.
        """
        for phase in aggregate_phases(trace):
            key = prefix + ".".join(phase.path)
            self._values[f"{key}.wall_s"] = phase.wall_s
            self._values[f"{key}.cpu_s"] = phase.cpu_s
            self._values[f"{key}.calls"] = float(phase.calls)
            if phase.dominance_tests:
                self._values[f"{key}.dominance_tests"] = phase.dominance_tests

    def as_dict(self) -> dict[str, float]:
        """All metrics, keys sorted — the stable export form."""
        return {key: self._values[key] for key in sorted(self._values)}

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._values)} metrics)"
