"""Measurement runner: one (dataset, algorithm) cell of a paper table."""

from __future__ import annotations

from collections.abc import Sequence

from repro.algorithms.base import SkylineResult
from repro.dataset import Dataset
from repro.engine import SkylineEngine
from repro.obs.clock import timed
from repro.obs.trace import current_tracer
from repro.stats.counters import DominanceCounter
from repro.stats.metrics import MetricRow

#: The algorithm line-up of Tables 2-14, in the paper's row order.
DEFAULT_ALGORITHMS = (
    "sfs",
    "sfs-subset",
    "salsa",
    "salsa-subset",
    "sdi",
    "sdi-subset",
    "bskytree-s",
    "bskytree-p",
)

#: Pairs whose "Performance Gain" row the paper prints under the boosted row.
BOOSTED_PAIRS = (
    ("sfs", "sfs-subset"),
    ("salsa", "salsa-subset"),
    ("sdi", "sdi-subset"),
)


def run_one(
    dataset: Dataset,
    algorithm: str,
    sigma: int | None = None,
    repeats: int = 1,
    engine: SkylineEngine | None = None,
    **kwargs: object,
) -> MetricRow:
    """Run one algorithm on one dataset; elapsed time is the mean of repeats.

    Mirrors the paper's protocol: data is in memory before timing starts,
    and elapsed processor time is averaged over ``repeats`` runs (the paper
    uses 10).  Dominance tests are deterministic, so they are taken from
    the first run.

    Each repeat executes through a fresh (cold) :class:`SkylineEngine`, so
    numbers match the paper's one-shot protocol exactly.  Pass a shared
    ``engine`` to measure the warm, prepared-cache path instead.  Every
    repeat is timed by the same :func:`~repro.obs.clock.timed` helper as
    :func:`~repro.algorithms.base.run_timed`, and each lands as one
    ``repeat`` span on the ambient tracer.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    host_options = kwargs or None
    counter = DominanceCounter()
    tracer = current_tracer()

    def one_repeat(
        repeat: int, repeat_counter: DominanceCounter | None
    ) -> tuple[SkylineResult, float]:
        run_engine = engine if engine is not None else SkylineEngine()
        result, elapsed = timed(
            lambda: run_engine.execute(
                dataset,
                algorithm,
                sigma,
                counter=repeat_counter,
                host_options=host_options,
            )
        )
        if tracer.enabled:
            tracer.record(
                "repeat",
                elapsed,
                algorithm=algorithm,
                repeat=repeat,
                cold=engine is None,
            )
        return result, elapsed

    result, elapsed = one_repeat(0, counter)
    for repeat in range(1, repeats):
        _, lap = one_repeat(repeat, None)
        elapsed += lap
    return MetricRow(
        algorithm=algorithm,
        dominance_tests=counter.tests,
        cardinality=dataset.cardinality,
        elapsed_seconds=elapsed / repeats,
        skyline_size=result.size,
    )


def run_algorithms(
    dataset: Dataset,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    sigma: int | None = None,
    repeats: int = 1,
    engine: SkylineEngine | None = None,
) -> list[MetricRow]:
    """Run every named algorithm on ``dataset``; σ applies to boosted names."""
    rows = []
    for name in algorithms:
        row_sigma = sigma if name.endswith("-subset") else None
        rows.append(
            run_one(dataset, name, sigma=row_sigma, repeats=repeats, engine=engine)
        )
    return rows
