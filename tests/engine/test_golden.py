"""Golden table: skyline ids, charged DT and index counters on a fixed grid.

``golden_subset.json`` pins, for UI/CO/AC x n in {400, 2500} x d in
{3, 6, 9} (seed 0), every ``*-subset`` algorithm run as a pinned plan and
one adaptive run on a cold engine: a digest of the sorted skyline ids, the
charged dominance tests, and the subset-index query and cache counters.
Pinned entries also pin ``index_nodes_visited``.  It also pins the
``tune_sigma`` cost table on three fixed datasets, since the autotuner's
cost model weighs index node visits.

A refactor of the index, the container or the planner must reproduce the
table exactly.  Regenerate it only when the charged work is meant to
change::

    PYTHONPATH=src python -m tests.engine.test_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.registry import available_algorithms
from repro.algorithms.sfs import SFS
from repro.core.autotune import tune_sigma
from repro.data import generate
from repro.engine import SkylineEngine

GOLDEN = Path(__file__).with_name("golden_subset.json")

KINDS = ("UI", "CO", "AC")
SIZES = (400, 2500)
DIMS = (3, 6, 9)
PINNED = tuple(name for name in available_algorithms() if name.endswith("-subset"))
SIGMA_DATASETS = (("UI", 2500, 6), ("CO", 2500, 8), ("AC", 2500, 6))

_COUNTERS = ("index_queries", "index_cache_hits", "index_cache_misses")


def _digest(indices: np.ndarray) -> str:
    ids = np.sort(np.asarray(indices, dtype=np.int64))
    return hashlib.sha256(ids.tobytes()).hexdigest()[:16]


def _entry(kind: str, n: int, d: int, algorithm: str | None) -> dict[str, object]:
    result = SkylineEngine().execute(generate(kind, n=n, d=d, seed=0), algorithm)
    counter = result.counter
    entry: dict[str, object] = {
        "ids": _digest(result.indices),
        "size": int(result.size),
        "tests": int(counter.tests),
        **{name: int(getattr(counter, name)) for name in _COUNTERS},
    }
    if algorithm is None:
        entry["label"] = result.plan.label
    else:
        entry["index_nodes_visited"] = int(counter.index_nodes_visited)
    return entry


def _key(kind: str, n: int, d: int, algorithm: str | None) -> str:
    return f"{kind}/n={n}/d={d}/{algorithm or 'auto'}"


def _runs() -> list[tuple[str, int, int, str | None]]:
    return [
        (kind, n, d, algorithm)
        for kind in KINDS
        for n in SIZES
        for d in DIMS
        for algorithm in (*PINNED, None)
    ]


def _sigma_costs(kind: str, n: int, d: int) -> dict[str, float]:
    choice = tune_sigma(generate(kind, n=n, d=d, seed=0), SFS())
    return {str(sigma): float(cost) for sigma, cost in choice.costs.items()}


def compute_table() -> dict[str, dict[str, object]]:
    """The full golden table, recomputed from the current code."""
    return {
        "runs": {_key(*run): _entry(*run) for run in _runs()},
        "tune_sigma": {
            f"{kind}/n={n}/d={d}": _sigma_costs(kind, n, d)
            for kind, n, d in SIGMA_DATASETS
        },
    }


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, object]]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_grid(golden):
    assert sorted(golden["runs"]) == sorted(_key(*run) for run in _runs())


@pytest.mark.parametrize("run", _runs(), ids=lambda run: _key(*run))
def test_run_matches_golden(run, golden):
    assert _entry(*run) == golden["runs"][_key(*run)]


@pytest.mark.parametrize(
    "dataset", SIGMA_DATASETS, ids=lambda ds: f"{ds[0]}/n={ds[1]}/d={ds[2]}"
)
def test_tune_sigma_costs_match_golden(dataset, golden):
    kind, n, d = dataset
    assert _sigma_costs(kind, n, d) == golden["tune_sigma"][f"{kind}/n={n}/d={d}"]


def _format(table: dict[str, dict[str, object]]) -> str:
    """JSON with one entry per line, so a changed run shows as one diff line."""
    sections = []
    for name, entries in sorted(table.items()):
        rows = ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
            for key, value in sorted(entries.items())
        )
        sections.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


if __name__ == "__main__":
    GOLDEN.write_text(_format(compute_table()))
    print(f"wrote {GOLDEN}")
