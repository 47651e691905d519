"""Command-line interface: ``repro-skyline`` / ``python -m repro``.

Subcommands
-----------
- ``generate`` — write a synthetic AC/CO/UI (or HOUSE/NBA/WEATHER-like)
  dataset to CSV or NPY.
- ``run`` — compute a skyline over a file or a freshly generated workload
  and print the paper's metrics.
- ``algorithms`` — list registry names.
- ``tune`` — pick a stability threshold for a dataset via the sample-based
  cost model.

Benchmark experiments live under ``python -m repro.bench``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import skyline
from repro.algorithms.registry import available_algorithms, get_algorithm
from repro.core.autotune import tune_sigma
from repro.data import generate, house, load_csv, load_npy, nba, save_csv, save_npy, weather
from repro.dataset import Dataset
from repro.errors import ReproError

_REAL = {"house": house, "nba": nba, "weather": weather}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-skyline",
        description="Subset approach to efficient skyline computation (EDBT 2023).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a dataset and write it to disk")
    gen.add_argument("kind", help="AC, CO, UI, house, nba, or weather")
    gen.add_argument("out", help="output path (.csv or .npy)")
    gen.add_argument("-n", type=int, default=10_000, help="cardinality")
    gen.add_argument("-d", type=int, default=8, help="dimensionality (synthetic kinds)")
    gen.add_argument("--seed", type=int, default=0)

    run = sub.add_parser("run", help="compute a skyline and print metrics")
    run.add_argument(
        "--algorithm",
        "-a",
        default="sdi-subset",
        help="registry name, or 'auto' to let the planner choose",
    )
    run.add_argument("--input", "-i", help="dataset file (.csv or .npy)")
    run.add_argument("--kind", default="UI", help="generator kind when no --input")
    run.add_argument("-n", type=int, default=10_000)
    run.add_argument("-d", type=int, default=8)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--sigma", type=int, default=None, help="stability threshold")
    run.add_argument("--ids", action="store_true", help="also print skyline row ids")
    run.add_argument(
        "--explain", action="store_true", help="print the executed plan"
    )
    run.add_argument(
        "--trace",
        metavar="FILE",
        help="write a Chrome trace-event JSON (chrome://tracing) of the run",
    )
    run.add_argument(
        "--metrics",
        metavar="FILE",
        help="write a flat JSON metrics dump (counters, caches, phases)",
    )
    run.add_argument(
        "--phase-table",
        action="store_true",
        help="print the per-phase wall-time / dominance-test breakdown",
    )
    run.add_argument(
        "--explain-analyze",
        action="store_true",
        help="print the executed plan with cost-model estimates vs actuals",
    )
    run.add_argument(
        "--events",
        metavar="FILE",
        help="write the run's trace as JSONL, one span per line",
    )
    run.add_argument(
        "--prom",
        metavar="FILE",
        help="write Prometheus text-format metrics (counters + histograms)",
    )

    sub.add_parser("algorithms", help="list available algorithm names")

    band = sub.add_parser("skyband", help="compute the k-skyband")
    band.add_argument("-k", type=int, default=2, help="maximum dominator count + 1")
    band.add_argument("--input", "-i", help="dataset file (.csv or .npy)")
    band.add_argument("--kind", default="UI")
    band.add_argument("-n", type=int, default=10_000)
    band.add_argument("-d", type=int, default=8)
    band.add_argument("--seed", type=int, default=0)

    topk = sub.add_parser("topk", help="top-k dominating points")
    topk.add_argument("-k", type=int, default=5)
    topk.add_argument("--input", "-i", help="dataset file (.csv or .npy)")
    topk.add_argument("--kind", default="UI")
    topk.add_argument("-n", type=int, default=10_000)
    topk.add_argument("-d", type=int, default=8)
    topk.add_argument("--seed", type=int, default=0)

    tune = sub.add_parser("tune", help="autotune the stability threshold")
    tune.add_argument("--input", "-i", help="dataset file (.csv or .npy)")
    tune.add_argument("--kind", default="UI")
    tune.add_argument("-n", type=int, default=10_000)
    tune.add_argument("-d", type=int, default=8)
    tune.add_argument("--seed", type=int, default=0)
    tune.add_argument("--host", default="sdi", help="boostable host algorithm")
    tune.add_argument("--sample", type=int, default=2000)
    return parser


def _load_or_generate(args: argparse.Namespace) -> Dataset:
    if getattr(args, "input", None):
        path = Path(args.input)
        if path.suffix == ".npy":
            return load_npy(path)
        return load_csv(path)
    kind = args.kind.lower()
    if kind in _REAL:
        return _REAL[kind](args.n, seed=args.seed)
    return generate(args.kind, args.n, args.d, seed=args.seed)


def _cmd_generate(args: argparse.Namespace) -> int:
    kind = args.kind.lower()
    if kind in _REAL:
        dataset = _REAL[kind](args.n, seed=args.seed)
    else:
        dataset = generate(args.kind, args.n, args.d, seed=args.seed)
    path = Path(args.out)
    if path.suffix == ".npy":
        save_npy(dataset, path)
    else:
        save_csv(dataset, path)
    print(f"wrote {dataset.describe()} -> {path}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    dataset = _load_or_generate(args)
    algorithm = None if args.algorithm.lower() == "auto" else args.algorithm
    observing = bool(
        args.trace
        or args.metrics
        or args.phase_table
        or args.explain_analyze
        or args.events
        or args.prom
    )
    engine = None
    if observing:
        # Observability asked for: run through an engine whose context
        # carries a live tracer (the null default records nothing).
        from repro.engine import SkylineEngine
        from repro.engine.context import ExecutionContext
        from repro.obs import Tracer

        engine = SkylineEngine(ExecutionContext(tracer=Tracer()))
    result = skyline(dataset, algorithm=algorithm, sigma=args.sigma, engine=engine)
    print(f"dataset    : {dataset.describe()}")
    print(f"algorithm  : {result.algorithm}")
    print(f"skyline    : {result.size} points")
    print(f"mean DT    : {result.mean_dominance_tests:.4f}")
    print(f"elapsed    : {result.elapsed_seconds * 1000:.2f} ms")
    if args.explain and result.plan is not None:
        print(result.plan.explain())
    if args.ids:
        print("ids        :", " ".join(str(i) for i in result.indices))
    analysis = None
    if args.explain_analyze and result.plan is not None:
        analysis = result.plan.analyze(result)
        print(analysis.render())
    if observing and result.trace is not None:
        from repro.obs import (
            MetricsRegistry,
            phase_table,
            write_chrome_trace,
            write_jsonl,
            write_metrics,
        )

        if args.phase_table:
            print(phase_table(result.trace))
        if args.trace:
            path = write_chrome_trace(result.trace, args.trace)
            print(f"trace      : wrote {path}")
        if args.metrics or args.prom:
            registry = MetricsRegistry()
            registry.record_counter(result.counter)
            registry.record_trace(result.trace)
            registry.record("run.elapsed_s", result.elapsed_seconds)
            registry.record("run.skyline_size", float(result.size))
            registry.record("run.cardinality", float(result.cardinality))
            registry.record("run.mean_dt", result.mean_dominance_tests)
            if analysis is not None:
                registry.record_analysis(analysis)
            if engine is not None:
                registry.record_pool(engine.context.pool_stats())
                for name, histogram in engine.context.histograms.items():
                    registry.record_histogram(name, histogram)
            if args.metrics:
                path = write_metrics(registry.as_dict(), args.metrics)
                print(f"metrics    : wrote {path}")
            if args.prom:
                from repro.obs import write_prometheus

                histograms = (
                    dict(engine.context.histograms) if engine is not None else {}
                )
                path = write_prometheus(
                    args.prom, registry.as_dict(), histograms
                )
                print(f"prometheus : wrote {path}")
        if args.events:
            path = write_jsonl(result.trace, args.events)
            print(f"events     : wrote {path}")
    return 0


def _cmd_algorithms(_: argparse.Namespace) -> int:
    for name in available_algorithms():
        print(name)
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    dataset = _load_or_generate(args)
    host = get_algorithm(args.host)
    choice = tune_sigma(dataset, host, sample_size=args.sample, seed=args.seed)
    print(f"dataset    : {dataset.describe()}")
    print(f"host       : {args.host}")
    print(f"best sigma : {choice.sigma}")
    for sigma, cost in choice.ranked():
        print(f"  sigma={sigma:2d}  modelled cost={cost:.1f}")
    return 0


def _cmd_skyband(args: argparse.Namespace) -> int:
    from repro.extensions import skyband

    dataset = _load_or_generate(args)
    band = skyband(dataset, k=args.k)
    by_count: dict[int, int] = {}
    for count in band.values():
        by_count[count] = by_count.get(count, 0) + 1
    print(f"dataset    : {dataset.describe()}")
    print(f"{args.k}-skyband : {len(band)} points")
    for count in sorted(by_count):
        print(f"  dominated by {count}: {by_count[count]} points")
    return 0


def _cmd_topk(args: argparse.Namespace) -> int:
    from repro.extensions import top_k_dominating

    dataset = _load_or_generate(args)
    print(f"dataset    : {dataset.describe()}")
    for point_id, score in top_k_dominating(dataset, k=args.k):
        print(f"  point {point_id}: dominates {score} points")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "run": _cmd_run,
    "algorithms": _cmd_algorithms,
    "skyband": _cmd_skyband,
    "topk": _cmd_topk,
    "tune": _cmd_tune,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
