"""Per-layer timing for the traced run, installed from outside the package.

The traced run keeps one ``repro.obs.Tracer`` active and wraps the public
entry points of each layer in spans of that tracer; nothing under ``src/``
is edited.  A wrapper span carries a ``layer`` attribute naming the layer
it times.  The package's own spans, which the active tracer also collects,
are transparent: their time stays with the nearest enclosing layer span.
The one exception is the host's ``sort`` span, which is the sort layer.

A layer's self time is its spans minus the layer spans nested inside them.
Each operation's root span (layer ``op``) is the timer of the traced
operation, so per operation the self times of all layers plus the root's
own remainder (``unattributed``) add up to its wall time, unless a span
escaped the root.

Layers reached only from inside another layer's call get a wrapper at the
point where the program looks them up:

- a proxy around ``SubsetContainer`` built by the boost wiring, which is
  the container handed to the host's ``run_phase``;
- ``repro.dominance.first_dominator`` at every module that imported it;
- ``StreamingSkyline.insert_many`` and ``delete_many``.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from array import array
from collections import Counter
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import repro.algorithms.base
import repro.cli
import repro.core.boost
import repro.data.io
import repro.dominance
from repro.engine import Planner, PreparedDataset, SkylineEngine
from repro.extensions.streaming import StreamingSkyline
from repro.obs import Tracer
from repro.obs.trace import Span, Trace
from repro.query import SkylineQuery

#: Layer -> per-layer metric reporting that layer's self time.
SELF_TIME_METRICS = {
    "io.load": "io.load_s",
    "cli": "cli.self_s",
    "query": "query.self_s",
    "engine": "engine.self_s",
    "planner": "planner.plan_s",
    "prepared.view": "prepared.view_s",
    "prepared.apply_delta": "prepared.apply_delta_s",
    "merge": "merge.s",
    "repair": "repair.s",
    "scan": "scan.self_s",
    "sort": "sort.s",
    "container.candidates": "container.candidates_s",
    "container.add": "container.add_s",
    "dominance.kernel": "dominance.kernel_s",
    "streaming.insert": "streaming.insert_s",
    "streaming.delete": "streaming.delete_s",
    "op": "unattributed.s",
}

#: Slack for float rounding when a layer span's children are summed.
_NESTING_SLACK_S = 1e-9


def _layer(span: Span) -> str | None:
    layer = span.attrs.get("layer")
    if layer is not None:
        return str(layer)
    return "sort" if span.name == "sort" else None


@dataclass
class OpLayers:
    """What the spans of one operation (one drained trace) add up to."""

    #: Self seconds per layer.
    self_s: Counter = field(default_factory=Counter)
    #: Spans per layer.
    calls: Counter = field(default_factory=Counter)
    #: Summed numeric attributes of the wrapper spans, as ``layer.attribute``.
    sums: Counter = field(default_factory=Counter)
    #: Whether every layer span is at least as long as the layer spans in it.
    nested: bool = True

    @classmethod
    def of(cls, trace: Trace) -> OpLayers:
        out = cls()

        def visit(span: Span) -> float:
            # The wall time of the outermost layer spans in this subtree.
            inner = sum(visit(child) for child in span.children)
            layer = _layer(span)
            if layer is None:
                return inner
            out.self_s[layer] += span.wall_s - inner
            out.nested = out.nested and inner <= span.wall_s + _NESTING_SLACK_S
            out.calls[layer] += 1
            if "layer" in span.attrs:
                out.sums.update({f"{layer}.{key}": value for key, value in span.attrs.items()
                                 if key != "layer"})
            return span.wall_s

        for root in trace.roots:
            visit(root)
        return out


class SpanLog:
    """Every span of a traced run, kept in flat typed arrays until the run
    ends, then written out as CSV."""

    def __init__(self) -> None:
        self.ops = array("q")
        self.parents = array("q")
        self.names: list[str] = []
        self.layers: list[str] = []
        self.starts = array("d")
        self.ends = array("d")

    def add(self, op: int, trace: Trace) -> None:
        def visit(span: Span, parent: int) -> None:
            index = len(self.names)
            self.ops.append(op)
            self.parents.append(parent)
            self.names.append(span.name)
            self.layers.append(_layer(span) or "")
            self.starts.append(span.start_s)
            self.ends.append(span.start_s + span.wall_s)
            for child in span.children:
                visit(child, index)

        for root in trace.roots:
            visit(root, -1)

    def write_csv(self, path: Path) -> None:
        with path.open("w") as handle:
            handle.write("op,span,parent,name,layer,start_s,end_s\n")
            for index, name in enumerate(self.names):
                handle.write(
                    f"{self.ops[index]},{index},{self.parents[index]},{name},"
                    f"{self.layers[index]},{self.starts[index]!r},{self.ends[index]!r}\n"
                )


def _tests_of(counter: Any) -> int:
    return int(counter.tests) if counter is not None else 0


def _wrap(tracer: Tracer, layer: str, function: Callable[..., Any],
          count: Callable[..., dict[str, float]] | None = None,
          counter_at: int | None = None) -> Callable[..., Any]:
    """``function`` inside a span of ``layer``.  ``count(result, *args,
    **kwargs)`` gives work counts to keep on the span; with ``counter_at``,
    the dominance tests charged to the counter argument at that position
    (or ``counter=``) during the call are kept as ``tests``."""

    @functools.wraps(function)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        counter = None
        if counter_at is not None:
            counter = kwargs.get("counter", args[counter_at] if len(args) > counter_at else None)
        before = _tests_of(counter)
        with tracer.span(layer, layer=layer) as span:
            result = function(*args, **kwargs)
        if counter_at is not None:
            span.set(tests=_tests_of(counter) - before)
        if count is not None:
            span.set(**count(result, *args, **kwargs))
        return result

    return wrapper


class _ContainerProxy:
    """Times ``candidates`` and ``add`` of a real ``SubsetContainer``."""

    def __init__(self, tracer: Tracer, container: Any) -> None:
        self._tracer = tracer
        self._container = container

    def candidates(self, mask: int) -> Any:
        with self._tracer.span("container.candidates", layer="container.candidates") as span:
            ids, block = self._container.candidates(mask)
        span.set(rows=block.shape[0])
        return ids, block

    def add(self, point_id: int, mask: int) -> None:
        with self._tracer.span("container.add", layer="container.add"):
            self._container.add(point_id, mask)

    def __len__(self) -> int:
        return len(self._container)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._container, name)


def _host_classes() -> list[type]:
    """Every algorithm class that defines its own ``run_phase``."""
    found: list[type] = []
    pending = [repro.algorithms.base.SkylineAlgorithm]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "run_phase" in vars(cls) and cls not in found:
            found.append(cls)
    return found


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Install every timing wrapper; restore the originals on exit.

    The caller keeps ``tracer`` active, so the package's own spans (the
    host's ``sort`` among them) land in the same tree.
    """
    patches: list[tuple[object, str, object]] = []

    def patch(owner: object, name: str, replacement: object) -> None:
        patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def patch_everywhere(original: Callable[..., Any], replacement: object) -> None:
        # A function imported by name is looked up in the importing module.
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("repro") and getattr(module, original.__name__, None) is original:
                patch(module, original.__name__, replacement)

    def count_load(dataset: Any, *args: Any, **kwargs: Any) -> dict[str, float]:
        return {"rows": dataset.cardinality}

    def count_merge(result: Any, prepared: Any, *args: Any, **kwargs: Any) -> dict[str, float]:
        return {"rows": prepared.cardinality,
                "pruned": prepared.cardinality - int(result.remaining_ids.size)}

    def count_delta(report: Any, *args: Any, **kwargs: Any) -> dict[str, float]:
        return {"views_repaired": report.views_repaired, "views_dropped": report.views_dropped}

    def count_kernel(result: Any, block: Any, *args: Any, **kwargs: Any) -> dict[str, float]:
        return {"rows": len(block)}

    original_container = repro.core.boost.SubsetContainer

    def container(*args: Any, **kwargs: Any) -> _ContainerProxy:
        return _ContainerProxy(tracer, original_container(*args, **kwargs))

    try:
        patch_everywhere(repro.data.io.load_csv,
                         _wrap(tracer, "io.load", repro.data.io.load_csv, count_load))
        patch(repro.cli, "main", _wrap(tracer, "cli", repro.cli.main))
        patch(SkylineQuery, "execute", _wrap(tracer, "query", SkylineQuery.execute))
        patch(SkylineEngine, "execute", _wrap(tracer, "engine", SkylineEngine.execute))
        patch(SkylineEngine, "apply_delta", _wrap(tracer, "engine", SkylineEngine.apply_delta))
        patch(Planner, "plan", _wrap(tracer, "planner", Planner.plan))
        patch(PreparedDataset, "view", _wrap(tracer, "prepared.view", PreparedDataset.view))
        patch(PreparedDataset, "merged",
              _wrap(tracer, "merge", PreparedDataset.merged, count_merge, counter_at=3))
        patch(PreparedDataset, "apply_delta",
              _wrap(tracer, "prepared.apply_delta", PreparedDataset.apply_delta, count_delta))
        patch(PreparedDataset, "repair_skyline",
              _wrap(tracer, "repair", PreparedDataset.repair_skyline, counter_at=1))
        patch(repro.core.boost, "SubsetContainer", container)
        for host in _host_classes():
            patch(host, "run_phase", _wrap(tracer, "scan", vars(host)["run_phase"]))
        patch_everywhere(repro.dominance.first_dominator,
                         _wrap(tracer, "dominance.kernel", repro.dominance.first_dominator,
                               count_kernel, counter_at=2))
        patch(StreamingSkyline, "insert_many",
              _wrap(tracer, "streaming.insert", StreamingSkyline.insert_many))
        patch(StreamingSkyline, "delete_many",
              _wrap(tracer, "streaming.delete", StreamingSkyline.delete_many))
        yield
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)
