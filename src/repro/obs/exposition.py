"""Prometheus text-format exposition for metrics and histograms.

Renders a :class:`~repro.obs.metrics.MetricsRegistry` dump (flat
``dict[str, float]``) and any :class:`~repro.obs.histogram.LogHistogram`
objects into the Prometheus `text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ — the
lingua franca of scrape endpoints — without importing any client library:
the format is plain text, and keeping the exporter dependency-free matches
the repo's no-new-deps constraint.

Scalar metrics become gauges (the registry is last-write-wins, not
monotone, so ``counter`` would be a lie for repeated dumps); histograms
become native Prometheus histograms with cumulative ``_bucket{le=...}``
series plus ``_sum`` and ``_count``.  Dotted registry keys are sanitised
to the ``[a-zA-Z_:][a-zA-Z0-9_:]*`` metric-name grammar.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Mapping

from repro.obs.histogram import LogHistogram

__all__ = ["prometheus_name", "to_prometheus", "write_prometheus"]

#: Default metric-name prefix, namespacing the stack's metrics on shared
#: Prometheus servers.
_DEFAULT_PREFIX = "repro_"

_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def prometheus_name(name: str, prefix: str = _DEFAULT_PREFIX) -> str:
    """``name`` mapped onto the Prometheus metric-name grammar.

    Invalid characters (dots, dashes, spaces) become underscores; a
    leading digit gets an underscore prefix.

    >>> prometheus_name("counter.prepared_cache_hit_rate")
    'repro_counter_prepared_cache_hit_rate'
    """
    sanitised = _INVALID.sub("_", name)
    if sanitised and sanitised[0].isdigit():
        sanitised = "_" + sanitised
    return prefix + sanitised


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return f"{value:.10g}"


def to_prometheus(
    metrics: Mapping[str, float],
    histograms: Mapping[str, LogHistogram] | None = None,
    prefix: str = _DEFAULT_PREFIX,
) -> str:
    """The metrics (and histograms) as one Prometheus text document.

    Keys are emitted sorted so the output is stable; every metric gets a
    ``# TYPE`` line, histograms additionally a cumulative bucket series
    ending in the mandatory ``le="+Inf"`` bucket equal to ``_count``.
    """
    lines: list[str] = []
    for key, value in sorted(metrics.items()):
        name = prometheus_name(key, prefix)
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_format_value(float(value))}")
    for key, histogram in sorted((histograms or {}).items()):
        name = prometheus_name(key, prefix)
        lines.append(f"# TYPE {name} histogram")
        for upper, cumulative in histogram.cumulative():
            lines.append(
                f'{name}_bucket{{le="{_format_value(upper)}"}} {cumulative}'
            )
        lines.append(f'{name}_bucket{{le="+Inf"}} {histogram.count}')
        lines.append(f"{name}_sum {_format_value(histogram.total)}")
        lines.append(f"{name}_count {histogram.count}")
    return "\n".join(lines) + "\n" if lines else ""


def write_prometheus(
    path: str | Path,
    metrics: Mapping[str, float],
    histograms: Mapping[str, LogHistogram] | None = None,
    prefix: str = _DEFAULT_PREFIX,
) -> Path:
    """Write :func:`to_prometheus` output to ``path``; returns it."""
    target = Path(path)
    target.write_text(to_prometheus(metrics, histograms, prefix), encoding="utf-8")
    return target
