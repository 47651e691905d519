"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload mutate --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
makes the same untraced run, then replays the same operations with the
per-layer wrappers of ``layers.py`` installed and reports the per-layer
metrics and the tracing overhead.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every checked output matched its reference.

Human-readable tables come first; per-operation records (and, traced, the
spans) are written to ``.perfbench-out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from layers import SELF_TIME_METRICS, OpLayers, SpanLog, instrument  # noqa: E402
from repro.obs import Tracer  # noqa: E402
from repro.obs.clock import Stopwatch  # noqa: E402
from workloads import WORKLOADS, Record  # noqa: E402

#: Metric names and units, as declared in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Allowed gap between a traced operation's wall time and its summed self
#: times: float rounding only.  Opening and closing a span takes far longer.
ROUNDING_S = 1e-9

#: Percentiles tried for the tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def tail(samples: list[float]) -> tuple[float, float, int] | None:
    """``(percentile, value, samples beyond)`` for the highest listed
    percentile with at least ten samples above it, or ``None``."""
    ordered = sorted(samples)
    n = len(ordered)
    for percentile in TAIL_PERCENTILES:
        rank = math.ceil(percentile / 100.0 * n)  # nearest-rank
        if rank >= 1 and n - rank >= 10:
            return percentile, ordered[rank - 1], n - rank
    return None


def run_untraced(name: str, seed: int, seconds: float, workdir: Path,
                 ops: int | None = None) -> dict:
    """Set up ``SETUP_REPEATS`` times, then run whole rounds for ``seconds``
    (or exactly ``ops`` operations).  Input files go to ``workdir``."""
    workload = WORKLOADS[name](seed, workdir)
    with workload.hooks():
        setups = [workload.setup() for _ in range(SETUP_REPEATS)]
        records = []
        watch = Stopwatch()
        while True:
            for _ in range(workload.round_size):
                records.append(safe_op(workload, len(records)))
            if (len(records) >= ops) if ops is not None else watch.elapsed() >= seconds:
                break
        elapsed = watch.elapsed()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok, checked = workload.check(records)
    return {"workload": workload, "setups": setups, "records": records, "elapsed": elapsed,
            "peak_rss_mb": peak_rss_mb, "ok": ok, "checked": checked}


def safe_op(workload, i: int) -> Record:
    """Operation ``i``; an exception becomes a failed record, and the run goes on."""
    try:
        return workload.op(i)
    except Exception:  # noqa: BLE001 — the loop must survive a failing operation
        return Record("read", f"op {i}", math.nan, np.empty(0, dtype=np.int64),
                      error=traceback.format_exc())


def run_traced(name: str, seed: int, workdir: Path, ops: int) -> dict:
    """Set up once, then replay the first ``ops`` operations with every layer
    wrapper installed.  ``layers[op]`` says what the spans of operation
    ``op`` add up to; ``-1`` is the set-up."""
    tracer = Tracer()
    spans = SpanLog()
    workload = WORKLOADS[name](seed, workdir)

    def timer(body):
        # The root span is the operation's timer.  A separate timer around
        # it would leave a few microseconds outside the span in which a
        # preemption or a collection, not the program, can land.
        with tracer.span("op", layer="op") as root:
            result = body()
        return result, root.wall_s

    records = []
    layers = {}

    def collect(op: int) -> None:
        trace = tracer.drain()
        layers[op] = OpLayers.of(trace)
        spans.add(op, trace)

    with workload.hooks(), instrument(tracer), tracer.activate():
        workload.setup()
        collect(-1)
        workload.timer = timer
        for op in range(ops):
            records.append(safe_op(workload, op))
            collect(op)
    return {"records": records, "layers": layers, "spans": spans}


def adds_up(record: Record, layers: OpLayers) -> bool:
    """Whether an operation's self times add up to its wall time, within
    float rounding, and every layer span holds the layer spans nested in
    it.  A span that escaped the operation's root span adds self time that
    the wall does not hold."""
    total = sum(layers.self_s.values())
    return layers.nested and abs(total - record.wall_s) <= ROUNDING_S


def end_to_end(run: dict) -> tuple[dict, list[str]]:
    records = run["records"]
    good = [r for r in records if r.error is None]
    reads = [r.wall_s * 1000.0 for r in good if r.kind == "read"]
    writes = [r.wall_s * 1000.0 for r in good if r.kind == "write"]
    metrics = {
        "query_p50_ms": statistics.median(reads) if reads else math.nan,
        "ops_per_s": len(good) / run["elapsed"],
        "setup_s": statistics.median(run["setups"]),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    failed = run["ok"].count(False)
    lines = [f"  {'query_p50_ms':<28}{metrics['query_p50_ms']:>14.4f} ms  ({len(reads)} reads)"]
    lines += _tail_lines("query_tail_ms", reads)
    if writes:
        lines.append(f"  {'write_p50_ms':<28}{statistics.median(writes):>14.4f} ms  "
                     f"({len(writes)} writes)")
        lines += _tail_lines("write_tail_ms", writes)
    lines += [
        f"  {'ops_per_s':<28}{metrics['ops_per_s']:>14.4f} 1/s "
        f"({len(good)} ops in {run['elapsed']:.3f} s)",
        f"  {'setup_s':<28}{metrics['setup_s']:>14.4f} s   "
        f"(median of {', '.join(f'{s:.3f}' for s in run['setups'])})",
        f"  {'peak_rss_mb':<28}{metrics['peak_rss_mb']:>14.4f} MB",
        f"  {'failed_ratio':<28}{_ratio(failed, len(records)):>14.4f} ratio "
        f"({failed}/{len(records)})",
    ]
    return metrics, lines


def _tail_lines(name: str, samples: list[float]) -> list[str]:
    found = tail(samples)
    if found is None:
        return [f"  {name:<28}{'omitted':>14}     (too few samples for a tail above p50)"]
    percentile, value, beyond = found
    return [f"  {name:<28}{value:>14.4f} ms  (p{percentile:g}, {beyond} samples beyond)"]


def per_layer(untraced: dict, traced: dict) -> tuple[dict, list[str], bool]:
    """Per-layer metrics (per timed operation unless stated), their table,
    and whether every operation's layers add up to its wall time."""
    records = traced["records"]
    layers = traced["layers"]
    ops = len(records)
    consistent = all(adds_up(record, layers[op]) for op, record in enumerate(records))
    totals: Counter = Counter()
    counts: Counter = Counter()
    calls: Counter = Counter()
    for op in range(ops):
        totals.update(layers[op].self_s)
        counts.update(layers[op].sums)
        calls.update(layers[op].calls)
    # Loading is timed per call, set-up included.
    load_s = sum(layer.self_s["io.load"] for layer in layers.values())
    loads = sum(layer.calls["io.load"] for layer in layers.values())
    load_rows = sum(layer.sums["io.load.rows"] for layer in layers.values())
    counters: Counter = Counter()
    for record in records:
        counters.update(record.counters)
    writes = [r for r in records if r.kind == "write"]

    metrics = {metric: totals[layer] / ops for layer, metric in SELF_TIME_METRICS.items()}
    metrics["io.load_s"] = _ratio(load_s, loads)
    metrics.update({
        "io.rows_per_s": _ratio(load_rows, load_s),
        "planner.incremental_ratio": _ratio(sum(r.plan[2] for r in writes), len(writes)),
        "prepared.hit_ratio": _ratio(counters["prepared_cache_hits"],
                                     counters["prepared_cache_hits"] + counters["prepared_cache_misses"]),
        "prepared.misses": counters["prepared_cache_misses"] / ops,
        "prepared.views_repaired": counts["prepared.apply_delta.views_repaired"] / ops,
        "prepared.views_dropped": counts["prepared.apply_delta.views_dropped"] / ops,
        "merge.tests": counts["merge.tests"] / ops,
        "merge.pruned_ratio": _ratio(counts["merge.pruned"], counts["merge.rows"]),
        "container.candidates_calls": calls["container.candidates"] / ops,
        "container.rows_served": counts["container.candidates.rows"] / ops,
        "index.queries": counters["index_queries"] / ops,
        "index.nodes_visited": counters["index_nodes_visited"] / ops,
        "index.hit_ratio": _ratio(counters["index_cache_hits"],
                                  counters["index_cache_hits"] + counters["index_cache_misses"]),
        "dominance.kernel_calls": calls["dominance.kernel"] / ops,
        "dominance.rows_offered": counts["dominance.kernel.rows"] / ops,
        "dominance.tests": counters["tests"] / ops,
        "dominance.tests_per_row": _ratio(counts["dominance.kernel.tests"],
                                          counts["dominance.kernel.rows"]),
        "repair.tests": counts["repair.tests"] / ops,
        "trace.overhead_ratio": _ratio(
            sum(r.wall_s for r in records),
            sum(r.wall_s for r in untraced["records"][:ops])) - 1.0,
    })
    wall = sum(r.wall_s for r in records) / ops
    lines = [f"  per operation ({ops} traced ops, mean wall {wall * 1000:.4f} ms; "
             f"set-up traced once)"]
    for layer, metric in SELF_TIME_METRICS.items():
        share = _ratio(totals[layer] / ops, wall)
        lines.append(f"  {metric:<28}{metrics[metric]:>14.6f} s   {share:>7.1%} of op wall")
    for metric, unit in PER_LAYER_UNITS.items():
        if unit != "s":
            lines.append(f"  {metric:<28}{metrics[metric]:>14.6f} {unit}")
    return metrics, lines, consistent


def digest(records: list) -> str:
    """Hash of every operation's ids, exact counters and executed plan."""
    h = hashlib.sha256()
    for r in records:
        h.update(json.dumps([r.kind, r.label, r.ids.tolist(), r.counters, list(r.plan)],
                            sort_keys=True).encode())
    return h.hexdigest()[:16]


def write_report(name: str, seed: int, trace: int, run: dict, metrics: dict,
                 traced: dict | None) -> Path:
    stem = OUT / f"{name}-seed{seed}-trace{trace}"
    report = {
        "workload": name, "seed": seed, "metrics": metrics,
        "operations": [
            {"kind": r.kind, "label": r.label, "wall_s": r.wall_s, "skyline": int(r.ids.size),
             "counters": r.counters, "plan": list(r.plan), "error": r.error}
            for r in run["records"]
        ],
    }
    path = stem.with_suffix(".json")
    path.write_text(json.dumps(report, indent=1))
    if traced is not None:
        traced["spans"].write_csv(stem.with_name(stem.name + "-spans.csv"))
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as inputs:  # the input CSVs
        return measure(args, Path(inputs))


def measure(args: argparse.Namespace, workdir: Path) -> int:
    """Run, check and print one workload; 0 when every output matched."""
    run = run_untraced(args.workload, args.seed, args.seconds, workdir)
    workload, records = run["workload"], run["records"]
    failed = run["ok"].count(False)
    metrics, lines = end_to_end(run)
    plans = Counter(f"{label}/{backend}{'/incremental' if inc else ''}"
                    for label, backend, inc in (r.plan for r in records if r.error is None))
    print(f"workload   : {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"host       : nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"numpy {np.__version__}")
    print(f"inputs     : {workload.describe()}")
    print(f"plans      : {', '.join(f'{k} x{v}' for k, v in sorted(plans.items()))}")
    totals = Counter()
    for r in records:
        totals.update(r.counters)
    print(f"counters   : {', '.join(f'{k}={v}' for k, v in totals.items())}")
    print(f"digest     : {digest(records)} over {len(records)} ops")
    print(f"checked    : {run['checked']}")
    for r in records:
        if r.error:
            print(f"error      : {r.label}: {r.error.strip().splitlines()[-1]}")
    print("end to end :")
    print("\n".join(lines))

    correct = failed == 0
    traced = None
    if args.trace:
        traced = run_traced(args.workload, args.seed, workdir, len(records))
        same = all(
            np.array_equal(a.ids, b.ids) and a.counters.get("tests") == b.counters.get("tests")
            for a, b in zip(records, traced["records"])
        )
        metrics, layer_lines, consistent = per_layer(run, traced)
        print("per layer  :")
        print("\n".join(layer_lines))
        print(f"traced run : same ids and DT as untraced: {same}; layers add up to op wall: "
              f"{consistent}; digest {digest(traced['records'])}")
        correct = correct and same and consistent
    report = write_report(args.workload, args.seed, args.trace, run, metrics, traced)
    print(f"report     : {report.relative_to(ROOT)}")
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
