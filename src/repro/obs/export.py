"""Exporters: Chrome trace-event JSON, JSONL, metrics JSON, ASCII phase table.

The Chrome format is the trace-event "complete event" flavour (``ph: "X"``
with microsecond ``ts``/``dur``) so a ``--trace`` file loads directly in
``chrome://tracing`` / Perfetto; the JSONL export writes the same events
one per line for log pipelines (``--events``).  The phase table follows
the monospace conventions of :mod:`repro.bench.ascii_chart`
(right-aligned numbers, ``#`` bars scaled to the peak) so traced runs
read like the paper-figure artefacts the bench suite already prints.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import InvalidParameterError
from repro.obs.trace import PhaseStats, Span, Trace, aggregate_phases

__all__ = [
    "phase_table",
    "to_chrome_trace",
    "to_jsonl",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "write_metrics",
]


def _chrome_args(span: Span) -> dict[str, object]:
    args: dict[str, object] = {str(k): v for k, v in span.attrs.items()}
    for key, value in span.counter_delta.items():
        args[f"delta.{key}"] = value
    if span.cpu_s:
        args["cpu_s"] = span.cpu_s
    return args


def _chrome_events(trace: Trace) -> list[dict[str, object]]:
    return [
        {
            "name": span.name,
            "cat": "skyline" if depth == 0 else "phase",
            "ph": "X",
            "ts": round(span.start_s * 1e6, 3),
            "dur": round(span.wall_s * 1e6, 3),
            "pid": 1,
            "tid": 1,
            "args": _chrome_args(span),
        }
        for depth, span in trace.walk()
    ]


def to_chrome_trace(trace: Trace) -> dict[str, object]:
    """A trace as a ``chrome://tracing``-loadable trace-event document.

    Every span becomes one complete event (``ph: "X"``): ``ts`` is the span
    start, ``dur`` its wall time, both in microseconds; attributes and
    counter deltas ride in ``args``.  All events share ``pid=1``/``tid=1``
    (one process, nesting conveyed by time containment).
    """
    return {"traceEvents": _chrome_events(trace), "displayTimeUnit": "ms"}


def write_chrome_trace(trace: Trace, path: str | Path) -> Path:
    """Serialise :func:`to_chrome_trace` output to ``path``; returns it."""
    target = Path(path)
    target.write_text(
        json.dumps(to_chrome_trace(trace), indent=2, sort_keys=False) + "\n",
        encoding="utf-8",
    )
    return target


def to_jsonl(trace: Trace) -> str:
    """The :func:`to_chrome_trace` events as JSONL, one per line, depth-first.

    Attribute values JSON cannot encode are stringified; an empty trace
    gives ``""``.
    """
    return "".join(
        json.dumps(event, default=str) + "\n" for event in _chrome_events(trace)
    )


def write_jsonl(trace: Trace, path: str | Path) -> Path:
    """Write :func:`to_jsonl` output to ``path``; returns it."""
    target = Path(path)
    target.write_text(to_jsonl(trace), encoding="utf-8")
    return target


def write_metrics(metrics: dict[str, float], path: str | Path) -> Path:
    """Dump a flat metrics mapping as sorted, pretty-printed JSON."""
    target = Path(path)
    target.write_text(
        json.dumps(metrics, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return target


def validate_chrome_trace(document: object) -> int:
    """Check a loaded JSON document against the trace-event schema.

    Returns the event count; raises :class:`InvalidParameterError` on the
    first violation.  Used by the CI traced-smoke step to gate the
    ``--trace`` artefact before uploading it.
    """
    if not isinstance(document, dict):
        raise InvalidParameterError("chrome trace must be a JSON object")
    events = document.get("traceEvents")
    if not isinstance(events, list):
        raise InvalidParameterError("chrome trace needs a 'traceEvents' array")
    for position, event in enumerate(events):
        if not isinstance(event, dict):
            raise InvalidParameterError(f"traceEvents[{position}] is not an object")
        for key, kinds in (
            ("name", (str,)),
            ("ph", (str,)),
            ("ts", (int, float)),
            ("pid", (int,)),
            ("tid", (int,)),
        ):
            if not isinstance(event.get(key), kinds):
                raise InvalidParameterError(
                    f"traceEvents[{position}] field {key!r} missing or mistyped"
                )
        if event["ph"] == "X" and not isinstance(event.get("dur"), (int, float)):
            raise InvalidParameterError(
                f"traceEvents[{position}] complete event lacks numeric 'dur'"
            )
    return len(events)


def _hit_rate(delta: dict[str, float]) -> str:
    """A phase's prepared-cache hit rate as a 4-char cell ('' if idle)."""
    hits = delta.get("prepared_cache_hits", 0.0)
    misses = delta.get("prepared_cache_misses", 0.0)
    lookups = hits + misses
    if not lookups:
        return " " * 4
    return f"{hits / lookups * 100.0:3.0f}%"


def _sorted_by_wall(phases: list[PhaseStats]) -> list[PhaseStats]:
    """Phases re-ordered so siblings descend by wall time, depth-first.

    The tree shape is preserved (children still follow their parent);
    only the order *among siblings* changes, so the slowest subtree reads
    first — the triage order a latency investigation wants.
    """
    children: dict[tuple[str, ...], list[PhaseStats]] = {}
    for phase in phases:
        children.setdefault(phase.path[:-1], []).append(phase)

    ordered: list[PhaseStats] = []

    def emit(parent: tuple[str, ...]) -> None:
        for phase in sorted(
            children.get(parent, ()), key=lambda p: p.wall_s, reverse=True
        ):
            ordered.append(phase)
            emit(phase.path)

    emit(())
    return ordered


def phase_table(trace: Trace, width: int = 24) -> str:
    """Render a per-phase breakdown: calls, wall time, share, ΔDT, cache
    hit rate, bars.

    Phase rows are indented by tree depth with siblings sorted by wall
    time descending (slowest subtree first); sibling spans with the same
    name are aggregated (23 ``merge.round`` records collapse to one row
    with ``calls=23``).  The ``prep%`` column is the phase's
    prepared-cache hit rate, computed from the
    :meth:`DominanceCounter.as_dict` deltas captured at span boundaries
    (blank when the phase performed no lookups).  Bars are ``#`` runs
    scaled to the slowest phase, matching
    :func:`repro.bench.ascii_chart.bar_chart`.
    """
    if width < 1:
        raise InvalidParameterError(f"width must be >= 1, got {width}")
    phases = _sorted_by_wall(aggregate_phases(trace))
    if not phases:
        return "(empty trace)"
    total = sum(phase.wall_s for phase in phases if phase.depth == 0) or 1.0
    peak = max(phase.wall_s for phase in phases) or 1.0
    name_width = max(
        len("  " * phase.depth + phase.name) for phase in phases
    )
    name_width = max(name_width, len("phase"))
    header = (
        f"{'phase'.ljust(name_width)}  {'calls':>6}  {'wall ms':>10}  "
        f"{'%':>6}  {'ΔDT':>12}  {'prep%':>5}  "
    )
    lines = [header.rstrip(), "-" * (len(header) + width)]
    for phase in phases:
        label = "  " * phase.depth + phase.name
        share = phase.wall_s / total * 100.0
        bar = "#" * max(1, round(phase.wall_s / peak * width)) if phase.wall_s else ""
        delta = f"{phase.dominance_tests:12.0f}" if phase.dominance_tests else " " * 12
        lines.append(
            f"{label.ljust(name_width)}  {phase.calls:6d}  "
            f"{phase.wall_s * 1e3:10.3f}  {share:6.1f}  {delta}  "
            f"{_hit_rate(phase.counter_delta):>5}  {bar}".rstrip()
        )
    return "\n".join(lines)
