"""``repro.obs`` — phase-level observability for the skyline stack.

The paper's evaluation (Section 6) reasons in *phases*: Merge preprocessing
cost, sort cost, scan-time dominance tests, subset-index traversal work.
This package makes those phases observable at runtime without perturbing
the numbers being observed:

- :mod:`repro.obs.trace` — a hierarchical span :class:`Tracer` (plus the
  allocation-free :class:`NullTracer` default) producing nested spans with
  wall/CPU time and :class:`~repro.stats.counters.DominanceCounter` deltas
  captured at span boundaries;
- :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` flattening counter
  tallies, cache hit rates, worker-pool reuse stats and per-phase timings
  into one ``dict[str, float]``;
- :mod:`repro.obs.histogram` — mergeable log-bucketed
  :class:`LogHistogram` for tail-latency quantiles (p50/p90/p99) over
  wall time, charged dominance tests and skyline sizes;
- :mod:`repro.obs.export` — Chrome trace-event JSON
  (``chrome://tracing``-loadable), the same events as JSONL, plain-JSON
  metrics dumps and an ASCII phase-breakdown table;
- :mod:`repro.obs.exposition` — Prometheus text-format exposition of
  metrics gauges and histogram bucket series;
- :mod:`repro.obs.regress` — the noise-tolerant bench-trajectory
  regression gate behind ``make bench-check``;
- :mod:`repro.obs.clock` — the sanctioned raw-clock call sites (lint rule
  RPR006 forbids ``time.perf_counter()`` elsewhere).

The tracer is the package's one emitter: query, plan, delta, cache and
pool lifecycle facts ride as attributes on the spans that bracket them.
Tracing is observation-only by contract: with tracing on or off, skyline
ids and charged dominance tests are bit-identical (enforced by the
``--strict`` analysis gate and ``tests/obs/test_overhead.py``).
"""

from __future__ import annotations

from repro.obs.clock import Stopwatch, timed
from repro.obs.export import (
    phase_table,
    to_chrome_trace,
    to_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
    write_metrics,
)
from repro.obs.exposition import (
    prometheus_name,
    to_prometheus,
    write_prometheus,
)
from repro.obs.histogram import LogHistogram
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    PhaseStats,
    Span,
    Trace,
    Tracer,
    TracerLike,
    aggregate_phases,
    current_tracer,
)

__all__ = [
    "LogHistogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "PhaseStats",
    "Span",
    "Stopwatch",
    "Trace",
    "Tracer",
    "TracerLike",
    "aggregate_phases",
    "current_tracer",
    "phase_table",
    "prometheus_name",
    "timed",
    "to_chrome_trace",
    "to_jsonl",
    "to_prometheus",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "write_metrics",
    "write_prometheus",
]
