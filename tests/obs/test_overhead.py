"""The tracing overhead budget.

Tracing is observation-only: with a live :class:`Tracer` the engine must
return the identical skyline ids and charge the identical dominance tests
as with the default :class:`NullTracer` (hypothesis bridges the claim over
seeds), and at the reference workload (UI ``n=10_000``, ``d=6``) the
best-of-N wall time with tracing on must stay within 5% of tracing off.
The tracer is the one telemetry emitter, so the same budget covers the
incremental-repair path (``delta.apply`` and ``engine.repair`` spans) with
all telemetry live.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import generate
from repro.engine import SkylineEngine
from repro.engine.context import ExecutionContext
from repro.obs.clock import timed
from repro.obs.trace import Tracer
from repro.stats.counters import DominanceCounter

ALGORITHM = "sdi-subset"
OVERHEAD_BUDGET = 0.05
# Absolute slack for the repair path: the repaired step is milliseconds
# long, where a single scheduler hiccup dwarfs any relative budget.
ABSOLUTE_SLACK_S = 2e-3
BEST_OF = 5


def cold_run(dataset, traced):
    """One fresh-engine execution; returns (ids, tests, wall seconds)."""
    context = ExecutionContext(tracer=Tracer()) if traced else ExecutionContext()
    engine = SkylineEngine(context)
    counter = DominanceCounter()
    result, elapsed = timed(
        lambda: engine.execute(dataset, ALGORITHM, counter=counter)
    )
    return list(result.indices), counter.tests, elapsed


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_tracing_is_observation_only(seed):
    dataset = generate("UI", n=1500, d=6, seed=seed)
    traced_ids, traced_tests, _ = cold_run(dataset, traced=True)
    plain_ids, plain_tests, _ = cold_run(dataset, traced=False)
    assert traced_ids == plain_ids
    assert traced_tests == plain_tests


def test_overhead_under_budget_at_reference_workload():
    dataset = generate("UI", n=10_000, d=6, seed=0)
    # Interleave the modes so drift (thermal, cache, scheduler) hits both;
    # best-of-N is the standard noise floor for wall-clock comparisons.
    traced_best = plain_best = float("inf")
    reference = None
    for _ in range(BEST_OF):
        traced_ids, traced_tests, traced_s = cold_run(dataset, traced=True)
        plain_ids, plain_tests, plain_s = cold_run(dataset, traced=False)
        traced_best = min(traced_best, traced_s)
        plain_best = min(plain_best, plain_s)
        if reference is None:
            reference = (plain_ids, plain_tests)
        assert traced_ids == reference[0]
        assert plain_ids == reference[0]
        assert traced_tests == plain_tests == reference[1]
    assert traced_best < plain_best * (1.0 + OVERHEAD_BUDGET), (
        f"tracing overhead {traced_best / plain_best - 1.0:+.1%} exceeds "
        f"{OVERHEAD_BUDGET:.0%} budget "
        f"(traced {traced_best:.4f}s vs plain {plain_best:.4f}s)"
    )


def repair_run(traced):
    """Warm an engine, then time apply_delta + the repaired execution.

    Returns (ids, charged tests, wall seconds of the timed repair step).
    The traced variant runs with a live tracer, the one telemetry emitter.
    """
    context = ExecutionContext(tracer=Tracer()) if traced else ExecutionContext()
    engine = SkylineEngine(context)
    dataset = generate("UI", n=10_000, d=6, seed=0)
    engine.execute(dataset, workers=1)
    inserts = np.random.default_rng(9).random((8, 6))
    counter = DominanceCounter()

    def step():
        engine.apply_delta(dataset, inserts=inserts, counter=counter)
        return engine.execute(dataset, workers=1, counter=counter)

    result, elapsed = timed(step)
    assert result.plan.incremental, "delta must take the repair path"
    return list(result.indices), counter.tests, elapsed


def test_repair_path_overhead_under_budget():
    traced_best = plain_best = float("inf")
    reference = None
    for _ in range(BEST_OF):
        traced_ids, traced_tests, traced_s = repair_run(traced=True)
        plain_ids, plain_tests, plain_s = repair_run(traced=False)
        traced_best = min(traced_best, traced_s)
        plain_best = min(plain_best, plain_s)
        if reference is None:
            reference = (plain_ids, plain_tests)
        # Telemetry is observation-only on the repair path too: identical
        # skyline ids and identical charged dominance tests.
        assert traced_ids == reference[0]
        assert plain_ids == reference[0]
        assert traced_tests == plain_tests == reference[1]
        assert traced_tests > 0  # the repair actually charged work
    assert traced_best < plain_best * (1.0 + OVERHEAD_BUDGET) + ABSOLUTE_SLACK_S, (
        f"repair-path telemetry overhead exceeds {OVERHEAD_BUDGET:.0%} budget "
        f"(traced {traced_best:.4f}s vs plain {plain_best:.4f}s)"
    )
