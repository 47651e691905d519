"""Golden table for deltas: ids, charged DT and plans across a write sequence.

``golden_delta.json`` pins, for UI/AC x d in {3, 8} (n = 3,000, seed 0),
what one warm :class:`~repro.engine.SkylineEngine` returns across twelve
seeded writes made through ``engine.apply_delta``:

- ten writes of 1-40 deletes plus 1-40 inserts (the repair path);
- one write that inserts above the maximum of the maximized view column
  (the view negates that column, so it repairs like any other write);
- one write of more than 5% of the rows (the recompute path).

Each write is followed by an adaptive ``execute`` on the base dataset and
by reads of three two-column views (one maximizing a column) through
``SkylineQuery.execute``; every fourth write is also followed by pinned
``sdi-subset`` and ``sfs-subset`` runs, which read the repaired Merge and
sort caches.  Per operation the table pins a digest of the sorted ids, the
skyline size, the charged dominance tests, the plan label and the
incremental flag; per write, the delta's mode, its charged tests and the
views it repaired and dropped.

A change to how deltas are stored or replayed must reproduce the table
exactly.  Regenerate it only when the charged work is meant to change::

    PYTHONPATH=src python -m tests.engine.test_golden_delta

Generation checks every entry's ids against a brute-force skyline of the
same sequence replayed on a plain array, so the table cannot pin a wrong
answer.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.data import generate
from repro.engine import SkylineEngine
from repro.query import SkylineQuery
from repro.stats.counters import DominanceCounter

GOLDEN = Path(__file__).with_name("golden_delta.json")

KINDS = ("UI", "AC")
DIMS = (3, 8)
N = 3_000
WRITES = 12
#: The write that inserts above the maximized column's maximum.
ABOVE_MAX_WRITE = 5
#: The write above the 5% repair threshold.
RECOMPUTE_WRITE = 9
PINNED = ("sdi-subset", "sfs-subset")


def _views(d: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Three two-column views as ``(minimize, maximize)``; the last flips."""
    return ((0, 1), ()), ((1, d - 1), ()), ((0,), (d - 1,))


def _digest(indices: np.ndarray) -> str:
    ids = np.sort(np.asarray(indices, dtype=np.int64))
    return hashlib.sha256(ids.tobytes()).hexdigest()[:16]


def _entry(result) -> dict[str, object]:
    return {
        "ids": _digest(result.indices),
        "size": int(result.size),
        "tests": int(result.counter.tests),
        "label": result.plan.label,
        "incremental": bool(result.plan.incremental),
    }


def _write(rng: np.random.Generator, values: np.ndarray, k: int):
    """Write ``k``'s ``(inserts, deletes)`` against the current ``values``."""
    n, d = values.shape
    if k == RECOMPUTE_WRITE:
        deletes = rng.choice(n, size=n // 20, replace=False)
        inserts = rng.random((n // 20, d))
    else:
        deletes = rng.choice(n, size=int(rng.integers(1, 41)), replace=False)
        inserts = rng.random((int(rng.integers(1, 41)), d))
        if k == ABOVE_MAX_WRITE:
            inserts[0, d - 1] = values[:, d - 1].max() + 0.5
    return inserts, np.sort(deletes)


def _replay(kind: str, d: int):
    """Yield ``(key, entry, reference values)`` for every operation.

    The reference values are what the operation's ids index into, on the
    plain-array replay: the base rows, or a view's projection with its
    maximized column negated.
    """
    dataset = generate(kind, n=N, d=d, seed=0)
    values = dataset.values.copy()
    rng = np.random.default_rng([0, KINDS.index(kind), d])
    engine = SkylineEngine()
    prepared = engine.prepare(dataset)
    yield "w00/base", _entry(engine.execute(prepared, None)), values
    for k in range(WRITES):
        tag = f"w{k + 1:02d}"
        inserts, deletes = _write(rng, values, k)
        counter = DominanceCounter()
        report = engine.apply_delta(prepared, inserts, deletes, counter=counter)
        values = np.vstack([np.delete(values, deletes, axis=0), inserts])
        yield f"{tag}/delta", {
            "mode": report.mode,
            "tests": int(counter.tests),
            "views_repaired": report.views_repaired,
            "views_dropped": report.views_dropped,
        }, None
        yield f"{tag}/base", _entry(engine.execute(prepared, None)), values
        for minimize, maximize in _views(d):
            query = SkylineQuery().minimize(*minimize).maximize(*maximize)
            result = query.execute(prepared.dataset, algorithm=None, engine=engine)
            projected = values[:, [*minimize, *maximize]].copy()
            projected[:, len(minimize) :] *= -1.0
            yield f"{tag}/view min{list(minimize)}max{list(maximize)}", _entry(result), projected
        if k % 4 == 3:
            for algorithm in PINNED:
                yield f"{tag}/{algorithm}", _entry(engine.execute(prepared, algorithm)), values


def _brute_force(values: np.ndarray) -> np.ndarray:
    """Skyline ids of ``values`` (minimization) by testing every pair."""
    dominated = np.zeros(values.shape[0], dtype=bool)
    for start in range(0, values.shape[0], 256):
        block = values[start : start + 256]
        le = (values[None, :, :] <= block[:, None, :]).all(axis=2)
        lt = (values[None, :, :] < block[:, None, :]).any(axis=2)
        dominated[start : start + 256] = (le & lt).any(axis=1)
    return np.flatnonzero(~dominated)


def _dataset_key(kind: str, d: int) -> str:
    return f"{kind}/n={N}/d={d}"


def _datasets() -> list[tuple[str, int]]:
    return [(kind, d) for kind in KINDS for d in DIMS]


def compute_table(check: bool = False) -> dict[str, dict[str, object]]:
    """The full golden table; ``check`` verifies every id set by brute force."""
    table: dict[str, dict[str, object]] = {}
    for kind, d in _datasets():
        entries: dict[str, object] = {}
        for key, entry, reference in _replay(kind, d):
            if check and reference is not None:
                assert entry["ids"] == _digest(_brute_force(reference)), key
            entries[key] = entry
        table[_dataset_key(kind, d)] = entries
    return table


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, object]]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_grid(golden):
    assert sorted(golden) == sorted(_dataset_key(*ds) for ds in _datasets())


@pytest.mark.parametrize("dataset", _datasets(), ids=lambda ds: _dataset_key(*ds))
def test_delta_sequence_matches_golden(dataset, golden):
    expected = golden[_dataset_key(*dataset)]
    replayed = {key: entry for key, entry, _ in _replay(*dataset)}
    assert sorted(replayed) == sorted(expected)
    for key, entry in replayed.items():
        assert entry == expected[key], key


def _format(table: dict[str, dict[str, object]]) -> str:
    """JSON with one entry per line, so a changed operation is one diff line."""
    sections = []
    for name, entries in sorted(table.items()):
        rows = ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
            for key, value in sorted(entries.items())
        )
        sections.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


if __name__ == "__main__":
    GOLDEN.write_text(_format(compute_table(check=True)))
    print(f"wrote {GOLDEN}")
