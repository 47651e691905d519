"""Scan-phase throughput: batched scans, block-parallel, delta repair.

Isolates the *scan phase* of the boosted pipeline — Merge (Algorithm 1)
runs once, outside the timed region, then each host's ``run_phase`` is
timed repeatedly with a fresh container per repeat:

- **scalar**: the per-point loop, one index query and candidate gather
  per testing point — the hosts' scan over a
  :class:`PointwiseSubsetContainer`, the reference path;
- **batched**: the grouped settlement of :mod:`repro.core.settle`, one
  index walk and one matrix pass per subspace over a ``SubsetContainer``.
  On the canonical configuration the batched times must also beat the
  fixed PR 2 baselines by ``PR2_GATE_SPEEDUP`` (geometric mean across
  hosts).

Every pair of paths must produce the identical skyline and charge the
identical dominance-test count — the script exits non-zero otherwise, so
it doubles as an equivalence gate.  The ``block_parallel`` scenario runs
the engine's prune-aware block-parallel plan (sort-order partitioning,
shared-survivor prefix exchange, seeded merge) against the serial scan
under two gates: a deterministic dominance-test-ratio gate
(``PARALLEL_DT_RATIO``, enforced on any host) and the >= 2x wall-clock
gate, which executes whenever the host has the CPUs and otherwise records
``gate_pass=null`` with an explicit ``skip_reason``.

The ``incremental_repair`` scenario measures mutation maintenance: a 1%
insert/delete batch applied through ``PreparedDataset.apply_delta`` and
answered by the planner's incremental-repair plan, against full
invalidation and recompute — bit-identical skyline ids enforced
everywhere, the >= 5x wall gate recorded honestly on the canonical
configuration only.

Results land in ``BENCH_throughput.json`` as *schema version 2*: one
``scenarios`` mapping keyed by scenario name + configuration.  Re-running
any configuration upserts its entry in place — the file no longer grows
with duplicate appends — and entries from other configurations (e.g. a
``--quick`` CI run next to a paper-scale run) coexist under their own
keys.  Each entry also carries a bounded ``history`` trajectory (one
metrics sample per upsert, plus the executed ``plan`` fields) that
``python -m repro.obs.regress`` / ``make bench-check`` compares fresh
runs against to flag sustained slowdowns.

Usage::

    PYTHONPATH=src python benchmarks/bench_throughput.py            # paper-scale
    PYTHONPATH=src python benchmarks/bench_throughput.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_throughput.py \
        --only block_parallel --parallel-n 1000000 --d 6            # wall gate
    PYTHONPATH=src python benchmarks/bench_throughput.py --list-scenarios
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from itertools import combinations

from repro.algorithms.salsa import SaLSa
from repro.algorithms.sdi import SDI
from repro.algorithms.sfs import SFS
from repro.core.container import SubsetContainer
from repro.core.merge import merge
from repro.core.stability import default_threshold
from repro.data import generate
from repro.engine import SkylineEngine
from repro.engine.context import ExecutionContext
from repro.obs import Tracer, aggregate_phases
from repro.obs.regress import MAX_HISTORY, trajectory_sample
from repro.stats.counters import DominanceCounter

SCHEMA_VERSION = 2

#: host name -> host class; both arms run the same host.
HOSTS = {"sdi": SDI, "sfs": SFS, "salsa": SaLSa}

#: Best-of-3 batched map-index scan times recorded by PR 2 on the
#: canonical cold single-query scenario (UI, n=100k, d=8, seed=0).  The
#: batched-scan gate (>= 1.5x, geometric mean across hosts) is measured
#: against these fixed baselines so the comparison survives later
#: index improvements.
PR2_BATCHED_BASELINE_S = {"sdi": 2.168256, "sfs": 2.805391, "salsa": 3.927047}
PR2_BASELINE_CONFIG = ("UI", 100_000, 8, 0)
PR2_GATE_SPEEDUP = 1.5
PARALLEL_GATE_SPEEDUP = 2.0

#: The incremental-repair gate: a 1% mutation batch maintained through
#: ``apply_delta`` + the incremental plan must beat invalidate-and-full-
#: recompute by this factor on the canonical configuration.
INCREMENTAL_GATE_SPEEDUP = 5.0
INCREMENTAL_MUTATION_FRACTION = 0.01
INCREMENTAL_CANONICAL_CONFIG = ("UI", 100_000, 8, 0)

#: Hard ceiling on charged parallel dominance tests relative to serial.
#: Unlike the wall-clock gate this is deterministic for a given
#: configuration and seed, so it is enforced on every host — a single-core
#: CI container measures the same ratio a 64-core box does.
PARALLEL_DT_RATIO = 1.2

#: Scenario names accepted by ``--only`` (in execution order).
SCENARIOS = (
    "batched_vs_scalar",
    "block_parallel",
    "repeated_queries",
    "incremental_repair",
    "phases",
)


# -- schema v2 report file --------------------------------------------------


def load_report(path: Path) -> dict:
    """The existing schema-v2 report, or a fresh empty one.

    Legacy (pre-v2) files — a single flat report dict — are discarded
    rather than merged: their entries carried no scenario keys, which is
    exactly the duplication bug the keyed schema fixes.
    """
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            data = None
        if (
            isinstance(data, dict)
            and data.get("schema_version") == SCHEMA_VERSION
            and isinstance(data.get("scenarios"), dict)
        ):
            return data
    return {"schema_version": SCHEMA_VERSION, "scenarios": {}}


def scenario_key(name: str, kind: str, n: int, d: int, seed: int) -> str:
    """The upsert key: scenario name + the configuration that shaped it."""
    return f"{name}|{kind}|n={n}|d={d}|seed={seed}"


def upsert(report: dict, key: str, entry: dict) -> None:
    """Replace ``key``'s entry, extending its recorded trajectory.

    The entry replaces the previous one wholesale (no duplicate appends),
    but the previous entry's ``history`` — the bench trajectory the
    :mod:`repro.obs.regress` gate compares fresh runs against — carries
    over, gains a sample of the new entry, and stays capped at
    ``MAX_HISTORY``.
    """
    entry["recorded_unix"] = int(time.time())
    previous = report["scenarios"].get(key)
    history = list(previous.get("history", ())) if isinstance(previous, dict) else []
    history.append(trajectory_sample(entry))
    entry["history"] = history[-MAX_HISTORY:]
    report["scenarios"][key] = entry


def plan_fields(plan) -> dict:
    """The executed-plan fields a scenario entry records for trajectory.

    A plan change (different algorithm or strategy) is the most common
    honest explanation for a wall-time shift, so the regression gate
    surfaces these fields next to any finding.
    """
    return {
        "algorithm": plan.label,
        "incremental": bool(plan.incremental),
        "parallel_strategy": plan.parallel_strategy,
        "workers": plan.workers,
    }


# -- scenario: batched vs scalar --------------------------------------------


class PointwiseSubsetContainer(SubsetContainer):
    """A subset container that hosts scan point by point: with
    ``by_subspace`` off, a host runs its per-point loop over
    ``candidates`` instead of the grouped settlement."""

    by_subspace = False


def time_scan_phase(dataset, merged, host_factory, container_type, repeats):
    """Best-of-``repeats`` wall clock of one host's scan phase."""
    d = dataset.dimensionality
    masks = np.zeros(dataset.cardinality, dtype=np.int64)
    masks[merged.remaining_ids] = merged.masks
    best = float("inf")
    skyline: list[int] = []
    counter = DominanceCounter()
    for _ in range(repeats):
        counter = DominanceCounter()
        container = container_type(dataset.values, d, counter)
        host = host_factory()
        start = time.perf_counter()
        skyline = host.run_phase(
            dataset, merged.remaining_ids, masks, container, counter
        )
        best = min(best, time.perf_counter() - start)
    return skyline, counter, best


def run_batched_vs_scalar(kind, n, d, seed, repeats):
    """Scalar reference vs batched scan phase, per host.

    Identical skylines and charged dominance tests are required on every
    configuration.  Gate: on the canonical configuration, the geometric
    mean across hosts of (PR 2 batched baseline / batched time) must
    reach ``PR2_GATE_SPEEDUP``.
    """
    dataset = generate(kind, n=n, d=d, seed=seed)
    canonical = (kind, n, d, seed) == PR2_BASELINE_CONFIG
    sigma = default_threshold(d)
    counter = DominanceCounter()
    merged = merge(dataset, sigma, counter)
    report = {
        "config": {
            "kind": kind,
            "n": n,
            "d": d,
            "seed": seed,
            "sigma": sigma,
            "repeats": repeats,
            "merge_pivots": len(merged.pivot_ids),
            "remaining_points": int(merged.remaining_ids.size),
        },
        "hosts": {},
        "baseline": "pr2_batched_map" if canonical else None,
        # Scan-phase bench, no engine plan: record the equivalent wiring.
        "plan": {
            "algorithm": "scan-phase",
            "incremental": False,
            "parallel_strategy": "none",
            "workers": 1,
        },
    }
    ok = True
    ratios = []
    for name, host in HOSTS.items():
        scalar_sky, scalar_counter, scalar_s = time_scan_phase(
            dataset, merged, host, PointwiseSubsetContainer, repeats
        )
        batched_sky, batched_counter, batched_s = time_scan_phase(
            dataset, merged, host, SubsetContainer, repeats
        )
        identical = (
            scalar_sky == batched_sky
            and scalar_counter.tests == batched_counter.tests
        )
        ok = ok and identical
        entry = {
            "scalar_s": round(scalar_s, 6),
            "batched_s": round(batched_s, 6),
            "speedup": round(scalar_s / batched_s, 3) if batched_s else None,
            "skyline_size": len(batched_sky),
            "dominance_tests": batched_counter.tests,
            "scalar_dominance_tests": scalar_counter.tests,
            "identical": identical,
        }
        if canonical and batched_s:
            baseline = PR2_BATCHED_BASELINE_S[name]
            entry["pr2_batched_s"] = baseline
            entry["speedup_vs_pr2"] = round(baseline / batched_s, 3)
            ratios.append(baseline / batched_s)
        report["hosts"][name] = entry
        marker = "" if identical else "  <-- MISMATCH"
        print(
            f"{name:>6}: scalar {scalar_s:8.4f}s  batched {batched_s:8.4f}s  "
            f"speedup {entry['speedup']:>6}x  "
            f"skyline {entry['skyline_size']}  DT {entry['dominance_tests']}"
            + (
                f"  vs-PR2 {entry['speedup_vs_pr2']:>6}x"
                if "speedup_vs_pr2" in entry
                else ""
            )
            + marker
        )
    report["identical"] = ok
    gate_ok = ok
    if canonical and ratios:
        geomean = float(np.exp(np.mean(np.log(ratios))))
        report["geomean_speedup_vs_pr2"] = round(geomean, 3)
        report["gate_speedup"] = PR2_GATE_SPEEDUP
        report["gate_pass"] = bool(ok and geomean >= PR2_GATE_SPEEDUP)
        gate_ok = report["gate_pass"]
        print(
            f"  PR2 gate: geomean {geomean:.3f}x vs PR2 baselines "
            f"(need >= {PR2_GATE_SPEEDUP}x): "
            + ("PASS" if gate_ok else "FAIL")
        )
    return report, gate_ok


# -- scenario: block-parallel vs serial ------------------------------------


def run_block_parallel(kind, n, d, seed, workers, algorithm="sdi-subset"):
    """Engine block-parallel plan vs the serial plan.

    The serial plan scans through one subset index; the parallel plan
    partitions along the monotone order, exchanges the shared-survivor
    prefix, computes block-local boosted skylines on the worker pool and
    resolves the survivors through a seeded merge.  Two gates:

    - **dominance-test ratio** (always enforced): charged parallel tests
      must stay within ``PARALLEL_DT_RATIO`` of serial.  The ratio is a
      pure function of the configuration, so a single-core host measures
      the same number a many-core host does.
    - **wall clock** (``gate_pass``): >= ``PARALLEL_GATE_SPEEDUP`` x
      serial, measured only when the host has at least ``workers`` CPUs;
      otherwise ``gate_pass`` is ``None`` with an explicit
      ``skip_reason``.

    Skylines must be bit-identical in every case.
    """
    dataset = generate(kind, n=n, d=d, seed=seed)
    cpus = os.cpu_count() or 1

    serial_counter = DominanceCounter()
    start = time.perf_counter()
    serial = SkylineEngine().execute(
        dataset,
        algorithm,
        counter=serial_counter,
        workers=1,
    )
    serial_s = time.perf_counter() - start

    parallel_counter = DominanceCounter()
    start = time.perf_counter()
    parallel = SkylineEngine().execute(
        dataset,
        algorithm,
        counter=parallel_counter,
        workers=workers,
    )
    parallel_s = time.perf_counter() - start

    identical = sorted(serial.indices.tolist()) == sorted(
        parallel.indices.tolist()
    )
    speedup = serial_s / parallel_s if parallel_s else None
    dt_ratio = (
        parallel_counter.tests / serial_counter.tests
        if serial_counter.tests
        else None
    )
    plan = parallel.plan
    report = {
        "config": {
            "kind": kind,
            "n": n,
            "d": d,
            "seed": seed,
            "workers": workers,
            "algorithm": algorithm,
            "cpu_count": cpus,
            "parallel_strategy": plan.parallel_strategy,
            "prefix_size": plan.prefix_size,
            "block_growth": plan.block_growth,
        },
        "plan": plan_fields(plan),
        "serial_s": round(serial_s, 6),
        "parallel_s": round(parallel_s, 6),
        "speedup": round(speedup, 3) if speedup else None,
        "skyline_size": int(serial.indices.size),
        "serial_dominance_tests": serial_counter.tests,
        "parallel_dominance_tests": parallel_counter.tests,
        "dt_ratio": round(dt_ratio, 3) if dt_ratio is not None else None,
        "dt_gate_ratio": PARALLEL_DT_RATIO,
        "dt_gate_pass": bool(
            identical and dt_ratio is not None and dt_ratio <= PARALLEL_DT_RATIO
        ),
        "identical": identical,
        "gate_speedup": PARALLEL_GATE_SPEEDUP,
    }
    if cpus >= workers:
        report["gate_pass"] = bool(
            identical and speedup and speedup >= PARALLEL_GATE_SPEEDUP
        )
        report["skip_reason"] = None
    else:
        report["gate_pass"] = None
        report["skip_reason"] = (
            f"cpu_count={cpus} < workers={workers}: wall-clock speedup "
            "unattainable on this host; dominance-test ratio gate still "
            "enforced"
        )
    marker = "" if identical else "  <-- MISMATCH"
    print(
        f"block-parallel: serial {serial_s:8.4f}s  "
        f"x{workers} workers {parallel_s:8.4f}s  "
        f"speedup {report['speedup']:>6}x  (cpus={cpus}){marker}"
    )
    print(
        f"  dt gate: parallel {parallel_counter.tests} vs serial "
        f"{serial_counter.tests} tests, ratio {report['dt_ratio']} "
        f"(need <= {PARALLEL_DT_RATIO}): "
        + ("PASS" if report["dt_gate_pass"] else "FAIL")
        + f"  [strategy={plan.parallel_strategy}, "
        f"prefix={plan.prefix_size}, growth={plan.block_growth:g}]"
    )
    if report["gate_pass"] is not None:
        print(
            f"  wall gate: speedup {report['speedup']}x "
            f"(need >= {PARALLEL_GATE_SPEEDUP}x): "
            + ("PASS" if report["gate_pass"] else "FAIL (non-fatal)")
        )
    # Only deterministic checks decide the exit code: the skyline must be
    # bit-identical and the DT ratio within budget on every host.  The
    # wall-clock gate executes and records its honest true/false whenever
    # the cores exist, but shared-runner timing noise must not make the
    # bench exit flaky.
    gate_ok = identical and report["dt_gate_pass"]
    return report, gate_ok


# -- scenario listing --------------------------------------------------------


def describe_gates(entry: dict) -> str:
    """One-line gate status of a recorded scenario entry.

    Handles both the current schema (``skip_reason``) and entries written
    before it (``gate_skipped``).
    """
    bits = []
    if "gate_pass" in entry:
        if entry["gate_pass"] is None:
            reason = (
                entry.get("skip_reason")
                or entry.get("gate_skipped")
                or "unspecified"
            )
            bits.append(f"wall-gate=SKIPPED ({reason})")
        else:
            bits.append(
                "wall-gate=" + ("PASS" if entry["gate_pass"] else "FAIL")
            )
    if "dt_gate_pass" in entry:
        bits.append("dt-gate=" + ("PASS" if entry["dt_gate_pass"] else "FAIL"))
    if "meets_2x" in entry:
        bits.append("warm-2x=" + ("PASS" if entry["meets_2x"] else "FAIL"))
    if "identical" in entry:
        bits.append("identical=" + ("yes" if entry["identical"] else "NO"))
    return "  ".join(bits) if bits else "no gates"


def list_scenarios(report: dict) -> None:
    """Print every recorded scenario key with its gate status.

    Entries of scenarios this script no longer runs (e.g. ``flat_vs_map``)
    stay in the report as history and are marked retired.
    """
    scenarios = report.get("scenarios", {})
    if not scenarios:
        print("no recorded scenarios")
        return
    for key in sorted(scenarios):
        retired = key.split("|", 1)[0] not in SCENARIOS
        print(key + ("  [retired: history only]" if retired else ""))
        print(f"    {describe_gates(scenarios[key])}")


# -- scenario: repeated queries over prepared caches ------------------------


def query_stream(d, queries, distinct=10, width=2):
    """A deterministic cycle of ``queries`` subspace queries.

    ``distinct`` dimension subsets of ``width`` dims each, visited
    round-robin — the interactive "compare two criteria at a time" shape
    where per-query scan work is small and the prepared Merge results and
    sort orders carry the cost.
    """
    pool = list(combinations(range(d), width))[:distinct]
    return [pool[i % len(pool)] for i in range(queries)]


def run_session(dataset, stream, algorithm, shared_engine):
    """Total wall clock + results for one query stream.

    ``shared_engine`` keeps one engine (and its prepared caches) across the
    stream; otherwise every query gets a fresh engine, reproducing the
    stateless pre-engine behaviour.
    """
    engine = SkylineEngine() if shared_engine else None
    counter = DominanceCounter()
    results = []
    total = 0.0
    last_plan = None
    for dims in stream:
        query_engine = engine if engine is not None else SkylineEngine()
        start = time.perf_counter()
        view = query_engine.prepare(dataset).view(dims, counter=counter)
        result = query_engine.execute(view, algorithm, counter=counter)
        total += time.perf_counter() - start
        results.append(list(result.indices))
        last_plan = result.plan
    return results, counter, total, last_plan


def run_repeated_queries(
    kind, n, d, seed, queries=50, algorithm="sfs-subset", explain_analyze=False
):
    """Cold (fresh engine per query) vs warm (shared engine) sessions."""
    dataset = generate(kind, n=n, d=d, seed=seed)
    stream = query_stream(d, queries)
    cold_results, cold_counter, cold_s, _ = run_session(
        dataset, stream, algorithm, shared_engine=False
    )
    warm_results, warm_counter, warm_s, warm_plan = run_session(
        dataset, stream, algorithm, shared_engine=True
    )
    identical = cold_results == warm_results
    speedup = cold_s / warm_s if warm_s else None
    report = {
        "config": {
            "kind": kind,
            "n": n,
            "d": d,
            "seed": seed,
            "queries": queries,
            "distinct_subspaces": len(set(stream)),
            "algorithm": algorithm,
        },
        "cold_s": round(cold_s, 6),
        "warm_s": round(warm_s, 6),
        "speedup": round(speedup, 3) if speedup else None,
        "cold_dominance_tests": cold_counter.tests,
        "warm_dominance_tests": warm_counter.tests,
        "warm_prepared_cache_hits": warm_counter.prepared_cache_hits,
        "warm_prepared_cache_misses": warm_counter.prepared_cache_misses,
        "identical": identical,
        "meets_2x": bool(speedup and speedup >= 2.0),
        "plan": plan_fields(warm_plan),
    }
    marker = "" if identical else "  <-- MISMATCH"
    print(
        f"repeated-queries: cold {cold_s:8.4f}s  warm {warm_s:8.4f}s  "
        f"speedup {report['speedup']:>6}x  "
        f"prepared hits {warm_counter.prepared_cache_hits}{marker}"
    )
    if explain_analyze:
        # The pinned session plan carries no cost-model estimates by
        # contract; one extra adaptive execution on the warm dataset
        # shows the planner's estimate-vs-actual rows for the workload.
        adaptive = SkylineEngine().execute(dataset)
        print(adaptive.plan.analyze(adaptive).render())
    return report, identical and report["meets_2x"]


# -- scenario: incremental delta repair vs full recompute --------------------


def run_incremental_repair(kind, n, d, seed, explain_analyze=False):
    """Delta repair of a 1% mutation batch vs invalidate-and-recompute.

    Two engines are warmed with one full execution plus one throwaway
    mutation cycle each (untimed), so both hold a noted skyline, warm
    prepared caches, and — on the incremental side — a bootstrapped replay
    stream: the steady mutating state the scenario claims to measure.  The
    same seeded mutation batch — half deletes of random current rows, half fresh
    inserts, ``INCREMENTAL_MUTATION_FRACTION`` of ``n`` in total — is then
    applied to both:

    - **incremental**: ``apply_delta`` (repair mode: caches suffix-repaired,
      delta logged) followed by an adaptive execution, which must plan the
      ``incremental-repair`` variant and replay the delta log;
    - **full**: ``apply_delta(mode="recompute")`` (full invalidation)
      followed by the pinned ``sdi-subset`` execution.

    Bit-identical skyline ids are enforced on every configuration and
    decide the exit code.  The >= ``INCREMENTAL_GATE_SPEEDUP`` x wall gate
    records its honest true/false only on the canonical configuration
    (``INCREMENTAL_CANONICAL_CONFIG``); elsewhere ``gate_pass`` is ``None``
    with an explicit ``skip_reason`` — timing a toy ``--quick`` run would
    not measure the claim the gate makes.
    """
    dataset = generate(kind, n=n, d=d, seed=seed)
    rng = np.random.default_rng(seed + 1)
    batch = max(2, int(round(n * INCREMENTAL_MUTATION_FRACTION)))
    deletes = np.sort(rng.choice(n, size=batch // 2, replace=False))
    inserts = rng.random((batch - batch // 2, d))

    inc_engine = SkylineEngine()
    full_engine = SkylineEngine()
    inc_engine.execute(dataset, workers=1)
    full_engine.execute(dataset, "sdi-subset")

    # Warm mutation cycle (untimed): the scenario's claim is about
    # steady-state repair, so the one-time bootstrap of the replay stream
    # (anchor masks + witness discovery over the whole buffer) happens
    # here.  Both sides apply the same batch, so the datasets stay
    # bit-identical; the engine registry re-keys on mutation, so the
    # original handle keeps addressing the mutated dataset.
    warm_deletes = np.sort(rng.choice(n, size=batch // 2, replace=False))
    warm_inserts = rng.random((batch - batch // 2, d))
    inc_engine.apply_delta(dataset, inserts=warm_inserts, deletes=warm_deletes)
    inc_engine.execute(dataset, workers=1)
    full_engine.apply_delta(
        dataset, inserts=warm_inserts, deletes=warm_deletes, mode="recompute"
    )
    full_engine.execute(dataset, "sdi-subset")

    inc_counter = DominanceCounter()
    start = time.perf_counter()
    inc_report = inc_engine.apply_delta(
        dataset, inserts=inserts, deletes=deletes, counter=inc_counter
    )
    inc_result = inc_engine.execute(
        dataset, counter=inc_counter, workers=1
    )
    inc_s = time.perf_counter() - start

    full_counter = DominanceCounter()
    start = time.perf_counter()
    full_engine.apply_delta(
        dataset,
        inserts=inserts,
        deletes=deletes,
        counter=full_counter,
        mode="recompute",
    )
    full_result = full_engine.execute(dataset, "sdi-subset", counter=full_counter)
    full_s = time.perf_counter() - start

    plan = inc_result.plan
    identical = sorted(inc_result.indices.tolist()) == sorted(
        full_result.indices.tolist()
    )
    planned_incremental = bool(plan.incremental)
    speedup = full_s / inc_s if inc_s else None
    canonical = (kind, n, d, seed) == INCREMENTAL_CANONICAL_CONFIG
    report = {
        "config": {
            "kind": kind,
            "n": n,
            "d": d,
            "seed": seed,
            "mutation_fraction": INCREMENTAL_MUTATION_FRACTION,
            "inserted": int(inserts.shape[0]),
            "deleted": int(deletes.size),
        },
        "delta_mode": inc_report.mode,
        "plan": plan_fields(plan),
        "planned_incremental": planned_incremental,
        "pending_mutations": plan.pending_mutations,
        "repair_cost_est": plan.repair_cost,
        "recompute_cost_est": plan.recompute_cost,
        "incremental_s": round(inc_s, 6),
        "full_recompute_s": round(full_s, 6),
        "speedup": round(speedup, 3) if speedup else None,
        "skyline_size": int(full_result.indices.size),
        "incremental_dominance_tests": inc_counter.tests,
        "full_dominance_tests": full_counter.tests,
        "identical": identical,
        "gate_speedup": INCREMENTAL_GATE_SPEEDUP,
    }
    if canonical:
        report["gate_pass"] = bool(
            identical
            and planned_incremental
            and speedup
            and speedup >= INCREMENTAL_GATE_SPEEDUP
        )
        report["skip_reason"] = None
    else:
        report["gate_pass"] = None
        report["skip_reason"] = (
            f"non-canonical configuration ({kind}, n={n}, d={d}, "
            f"seed={seed}): wall gate measured only on "
            f"{INCREMENTAL_CANONICAL_CONFIG}; identical-skyline and "
            "planned-incremental checks still enforced"
        )
    marker = "" if identical else "  <-- MISMATCH"
    print(
        f"incremental-repair: repair {inc_s:8.4f}s  "
        f"recompute {full_s:8.4f}s  speedup {report['speedup']:>6}x  "
        f"batch {batch} ({INCREMENTAL_MUTATION_FRACTION:.0%}){marker}"
    )
    print(
        f"  plan: incremental={planned_incremental}  "
        f"est repair {plan.repair_cost:g} vs recompute "
        f"{plan.recompute_cost:g} tests  "
        f"DT repair {inc_counter.tests} vs full {full_counter.tests}"
    )
    if report["gate_pass"] is not None:
        print(
            f"  wall gate: speedup {report['speedup']}x "
            f"(need >= {INCREMENTAL_GATE_SPEEDUP}x): "
            + ("PASS" if report["gate_pass"] else "FAIL")
        )
    if explain_analyze:
        print(inc_result.plan.analyze(inc_result).render())
    # Deterministic checks decide the exit code; at the canonical
    # configuration the wall gate is part of the contract too.
    gate_ok = identical and planned_incremental
    if canonical:
        gate_ok = bool(report["gate_pass"])
    return report, gate_ok


def phase_breakdown(kind, n, d, seed, algorithm="sdi-subset"):
    """Per-phase wall/CPU/DT profile of one traced engine run.

    One extra execution with a live :class:`~repro.obs.Tracer` — the timed
    scenarios above stay untraced, so their numbers are unaffected.
    """
    dataset = generate(kind, n=n, d=d, seed=seed)
    engine = SkylineEngine(ExecutionContext(tracer=Tracer()))
    result = engine.execute(dataset, algorithm)
    phases = {}
    for phase in aggregate_phases(result.trace):
        phases[".".join(phase.path)] = {
            "calls": phase.calls,
            "wall_s": round(phase.wall_s, 6),
            "cpu_s": round(phase.cpu_s, 6),
            "dominance_tests": phase.dominance_tests,
        }
    return {
        "algorithm": algorithm,
        "plan": plan_fields(result.plan),
        "phases": phases,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", default="UI", choices=("UI", "CO", "AC"))
    parser.add_argument("--n", type=int, default=100_000)
    parser.add_argument("--d", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--queries",
        type=int,
        default=50,
        help="queries in the repeated-subspace engine scenario",
    )
    parser.add_argument(
        "--parallel-n",
        type=int,
        default=400_000,
        help="cardinality of the block-parallel scenario",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="worker count of the block-parallel scenario",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke configuration (n=4000, d=6, 2 repeats, 2 workers)",
    )
    parser.add_argument(
        "--only",
        action="append",
        choices=SCENARIOS,
        help="run only the named scenario (repeatable); default: all",
    )
    parser.add_argument(
        "--list-scenarios",
        action="store_true",
        help="print gate status for every recorded scenario and exit",
    )
    parser.add_argument(
        "--explain-analyze",
        action="store_true",
        help="print EXPLAIN ANALYZE (estimates vs actuals) for the "
        "repeated_queries and incremental_repair scenarios",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_throughput.json"),
        help="output JSON path",
    )
    args = parser.parse_args(argv)
    if args.list_scenarios:
        list_scenarios(load_report(args.out))
        return 0
    if args.quick:
        args.n, args.d, args.repeats = 4000, 6, 2
        args.parallel_n, args.workers = 20_000, 2
    selected = tuple(dict.fromkeys(args.only)) if args.only else SCENARIOS

    report = load_report(args.out)
    failures = []

    if "batched_vs_scalar" in selected:
        batched, ok = run_batched_vs_scalar(
            args.kind, args.n, args.d, args.seed, args.repeats
        )
        upsert(
            report,
            scenario_key(
                "batched_vs_scalar", args.kind, args.n, args.d, args.seed
            ),
            batched,
        )
        if not ok:
            failures.append(
                "batched path diverged from the scalar reference or missed "
                f"the {PR2_GATE_SPEEDUP}x gate"
            )

    if "block_parallel" in selected:
        parallel, parallel_ok = run_block_parallel(
            args.kind, args.parallel_n, args.d, args.seed, args.workers
        )
        upsert(
            report,
            scenario_key(
                "block_parallel", args.kind, args.parallel_n, args.d, args.seed
            ),
            parallel,
        )
        if not parallel_ok:
            failures.append(
                "block-parallel diverged from serial or exceeded the "
                f"{PARALLEL_DT_RATIO}x dominance-test budget"
            )
        elif parallel.get("gate_pass") is False:
            print(
                "WARNING: block-parallel wall-clock speedup below "
                f"{PARALLEL_GATE_SPEEDUP}x (recorded, non-fatal)"
            )

    if "repeated_queries" in selected:
        repeated, repeated_ok = run_repeated_queries(
            args.kind,
            args.n,
            args.d,
            args.seed,
            queries=args.queries,
            explain_analyze=args.explain_analyze,
        )
        upsert(
            report,
            scenario_key(
                "repeated_queries", args.kind, args.n, args.d, args.seed
            ),
            repeated,
        )
        if not repeated_ok:
            failures.append(
                "warm engine session diverged from cold or fell short of "
                "the 2x prepared-cache speedup"
            )

    if "incremental_repair" in selected:
        incremental, incremental_ok = run_incremental_repair(
            args.kind,
            args.n,
            args.d,
            args.seed,
            explain_analyze=args.explain_analyze,
        )
        upsert(
            report,
            scenario_key(
                "incremental_repair", args.kind, args.n, args.d, args.seed
            ),
            incremental,
        )
        if not incremental_ok:
            failures.append(
                "incremental repair diverged from full recompute, failed to "
                f"plan the repair, or missed the {INCREMENTAL_GATE_SPEEDUP}x "
                "gate"
            )

    if "phases" in selected:
        upsert(
            report,
            scenario_key("phases", args.kind, args.n, args.d, args.seed),
            phase_breakdown(args.kind, args.n, args.d, args.seed),
        )

    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    for failure in failures:
        print(f"ERROR: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
