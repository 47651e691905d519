"""The benchmark's two workloads, each driven through the public API.

Every workload is a closed loop with one client, one process and one thread:
the next operation starts when the previous one returns.  All inputs come
from the seed.  Every workload stays below the planner's block-parallel
threshold (200k rows), so no worker pool starts.

- ``oneshot`` — one ``repro run`` command per operation, called in-process.
- ``mutate`` — insert/delete batches on a warm engine, each followed by
  reads of four subspace views.

Each operation returns a :class:`Record`: its wall time, the skyline ids it
returned and the exact counters of the run.  Reference ids are computed
after the timed region by a different algorithm: a cold engine running
another host for full-width skylines, and an independent sweep
(:func:`skyline_2d`) for the two-column view reads.

Generated inputs are written to their CSVs at set-up and then dropped, so
the process holds only what the program loaded; the checks regenerate them
from the seed.
"""

from __future__ import annotations

import contextlib
import io
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import repro.cli
import repro.data.io
from repro.data import generate
from repro.dataset import Dataset
from repro.engine import SkylineEngine
from repro.obs.clock import timed
from repro.query import SkylineQuery
from repro.stats.counters import DominanceCounter

DIMS = 8

#: Counter fields recorded after every operation.
COUNTER_FIELDS = (
    "tests",
    "index_queries",
    "index_nodes_visited",
    "index_cache_hits",
    "index_cache_misses",
    "prepared_cache_hits",
    "prepared_cache_misses",
)


@dataclass
class Record:
    """One timed operation."""

    kind: str  # "read" or "write"
    label: str  # algorithm or query key
    wall_s: float
    ids: np.ndarray
    counters: dict[str, int] = field(default_factory=dict)
    plan: tuple[str, str, bool] = ("", "", False)  # label, index backend, incremental
    error: str | None = None


def _counters(*counters: DominanceCounter) -> dict[str, int]:
    return {name: sum(int(getattr(c, name)) for c in counters) for name in COUNTER_FIELDS}


def _plan(result: Any) -> tuple[str, str, bool]:
    plan = result.plan
    return (plan.label, plan.index_backend, bool(plan.incremental))


def _sorted_ids(indices: Any) -> np.ndarray:
    return np.sort(np.asarray(indices, dtype=np.int64))


def _reference(values: np.ndarray, algorithm: str) -> np.ndarray:
    """Skyline ids of ``values`` from ``algorithm`` on a fresh, cold engine."""
    return _sorted_ids(SkylineEngine().execute(np.ascontiguousarray(values), algorithm).indices)


def skyline_2d(values: np.ndarray) -> np.ndarray:
    """Sorted skyline ids of a two-column array (minimization), by one sweep.

    The reference for the two-column queries: an O(n log n) sort and prefix
    minimum, independent of the package and cheap enough to check every
    read.  Within a group of equal first coordinates only the rows with the
    group's lowest second coordinate survive, and they survive only if every
    group with a smaller first coordinate has a strictly larger lowest
    second coordinate.

    Rows dominated by the row of smallest coordinate sum cannot be in the
    skyline, and dropping them changes no other row's fate (whatever they
    dominate, that row dominates too), so the sort sees only the few rows
    left.
    """
    x, y = values[:, 0], values[:, 1]
    best = np.argmin(x + y)
    rows = np.flatnonzero((x < x[best]) | (y < y[best]) | ((x == x[best]) & (y == y[best])))
    order = rows[np.argsort(x[rows], kind="stable")]
    xs, ys = x[order], y[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    lowest = np.minimum.reduceat(ys, starts)
    before = np.minimum.accumulate(np.r_[np.inf, lowest[:-1]])
    group = np.repeat(np.arange(starts.size), np.diff(np.r_[starts, xs.size]))
    keep = (ys == lowest[group]) & (before[group] > ys)
    return np.sort(order[keep]).astype(np.int64)


def _projection(values: np.ndarray, minimize: tuple[int, ...], maximize: tuple[int, ...]) -> np.ndarray:
    """The subspace with maximized columns negated (same skyline as max - col)."""
    return np.hstack([values[:, list(minimize)], -values[:, list(maximize)]])


@dataclass(frozen=True)
class Key:
    """A subspace query: columns to minimize and columns to maximize."""

    minimize: tuple[int, ...]
    maximize: tuple[int, ...]

    def query(self) -> SkylineQuery:
        return SkylineQuery().minimize(*self.minimize).maximize(*self.maximize)

    def __str__(self) -> str:
        return "min" + str(list(self.minimize)) + "max" + str(list(self.maximize))


class Workload:
    """Shared shape: ``setup()``, then ``op(i)`` for ``i = 0, 1, ...``."""

    name = ""
    #: Operations per round; a run always stops at a round boundary.
    round_size = 1
    rows = 0

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        #: Times one operation's body.  The traced run replaces it with the
        #: operation's root span.
        self.timer: Callable[[Callable[[], Any]], tuple[Any, float]] = timed

    def dataset(self, data_seed: int) -> Dataset:
        """The UI input generated from ``data_seed``."""
        return generate("UI", self.rows, DIMS, seed=data_seed)

    def path(self, data_seed: int) -> Path:
        return self.workdir / f"{self.name}-{data_seed}.csv"

    def _save(self, data_seed: int) -> float:
        """Write the input of ``data_seed`` to its CSV; the seconds the write
        took.  The generated arrays are dropped on return."""
        dataset = self.dataset(data_seed)
        return timed(lambda: repro.data.io.save_csv(dataset, self.path(data_seed)))[1]

    def describe(self) -> str:
        return f"UI n={self.rows} d={DIMS}"

    @contextlib.contextmanager
    def hooks(self) -> Iterator[None]:
        yield

    def setup(self) -> float:
        """Set up; the seconds spent in program calls (generation excluded)."""
        raise NotImplementedError

    def op(self, i: int) -> Record:
        raise NotImplementedError

    def check(self, records: list[Record]) -> tuple[list[bool], str]:
        """Per-record pass/fail against references, and a summary line."""
        raise NotImplementedError


class Oneshot(Workload):
    """``repro run -i <csv> -a <algorithm> --ids``, called in-process."""

    name = "oneshot"
    rows = 20_000
    ALGORITHMS = ("sdi-subset", "auto", "sfs-subset", "salsa-subset")
    round_size = len(ALGORITHMS)
    REFERENCE = "sfs"  # unboosted host: no Merge, no subset index
    #: Input CSVs.  How well Merge prunes differs from one dataset to the
    #: next, so a run averages over many; 9 is coprime to the 4 algorithms,
    #: so every pairing of algorithm and CSV recurs every 36 commands.
    CSVS = 9

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.data_seeds = [seed * self.CSVS + k for k in range(self.CSVS)]
        self._results: list[Any] = []

    def describe(self) -> str:
        return (f"{super().describe()}, {self.CSVS} CSVs; "
                f"commands cycle {', '.join(self.ALGORITHMS)}")

    def _pairing(self, i: int) -> tuple[str, int]:
        return self.ALGORITHMS[i % self.round_size], i % self.CSVS

    @contextlib.contextmanager
    def hooks(self) -> Iterator[None]:
        # The command prints the ids but not the exact counters, so keep
        # the result the command's own skyline call returns.
        original = repro.cli.skyline

        def capture(*args: Any, **kwargs: Any) -> Any:
            result = original(*args, **kwargs)
            self._results.append(result)
            return result

        repro.cli.skyline = capture
        try:
            yield
        finally:
            repro.cli.skyline = original

    def setup(self) -> float:
        return sum(self._save(data_seed) for data_seed in self.data_seeds)

    def op(self, i: int) -> Record:
        algorithm, k = self._pairing(i)
        argv = ["run", "-i", str(self.path(self.data_seeds[k])), "-a", algorithm, "--ids"]
        out = io.StringIO()

        def command() -> int:
            with contextlib.redirect_stdout(out):
                return repro.cli.main(argv)

        self._results.clear()
        code, wall = self.timer(command)
        if code != 0:
            raise RuntimeError(f"repro run exited with {code}")
        (result,) = self._results
        line = next(x for x in out.getvalue().splitlines() if x.startswith("ids"))
        ids = _sorted_ids([int(x) for x in line.split(":", 1)[1].split()])
        return Record("read", algorithm, wall, ids, _counters(result.counter), _plan(result))

    def check(self, records: list[Record]) -> tuple[list[bool], str]:
        references: dict[int, np.ndarray] = {}
        ok = []
        for i, record in enumerate(records):
            k = self._pairing(i)[1]
            if k not in references:
                references[k] = _reference(self.dataset(self.data_seeds[k]).values,
                                           self.REFERENCE)
            ok.append(record.error is None and np.array_equal(record.ids, references[k]))
        return ok, (f"{len(records)}/{len(records)} commands over {len(references)} CSVs "
                    f"against {self.REFERENCE}")


class Mutate(Workload):
    """Insert/delete batches on a warm engine, each followed by four view reads."""

    name = "mutate"
    rows = 100_000
    BATCH = 0.001  # share of n changed per write: half deletes, half inserts
    VIEWS = 4
    round_size = 1 + VIEWS
    WRITE_SAMPLE = 1  # writes checked besides the last, drawn from the first 32
    WRITE_REFERENCE = "salsa-subset"  # not the incremental repair under test

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 1])
        pairs: list[tuple[int, int]] = []
        while len(pairs) < self.VIEWS:
            pair = tuple(sorted(int(d) for d in rng.choice(DIMS, 2, replace=False)))
            if pair not in pairs:
                pairs.append(pair)  # type: ignore[arg-type]
        # Three views minimize both columns and are repaired by each write;
        # one maximizes a column and is dropped and rebuilt.
        self.views = [Key(p, ()) for p in pairs[:-1]] + [Key((pairs[-1][0],), (pairs[-1][1],))]
        self.half = max(1, round(self.rows * self.BATCH / 2))
        self._batch_rng = np.random.default_rng([seed, 2])
        self._batches: list[tuple[np.ndarray, np.ndarray]] = []
        self.sample = {int(w) for w in np.random.default_rng([seed, 3]).choice(
            32, self.WRITE_SAMPLE, replace=False)}
        self.engine: SkylineEngine | None = None
        self.prepared: Any = None

    def describe(self) -> str:
        return (f"{super().describe()}; writes of {self.half} deletes + {self.half} inserts, "
                f"reads of {', '.join(str(v) for v in self.views)}")

    def batch(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Batch ``k`` (0 is the warm-up): ``(inserts, deletes)``."""
        while len(self._batches) <= k:
            deletes = self._batch_rng.choice(self.rows, self.half, replace=False)
            inserts = self._batch_rng.random((self.half, DIMS))
            self._batches.append((inserts, np.sort(deletes)))
        return self._batches[k]

    def setup(self) -> float:
        self.engine = self.prepared = None  # the previous set-up's state goes first
        written = self._save(self.seed)

        def prepare() -> None:
            data = repro.data.io.load_csv(self.path(self.seed))
            self.engine = SkylineEngine()
            self.prepared = self.engine.prepare(data)
            self.engine.execute(self.prepared, None, workers=1)
            self._write(0)
            for view in self.views:
                self._read(view)

        return written + timed(prepare)[1]

    def _write(self, k: int) -> tuple[Any, float, dict[str, int]]:
        inserts, deletes = self.batch(k)
        applied, executed = DominanceCounter(), DominanceCounter()

        def body() -> Any:
            self.engine.apply_delta(self.prepared, inserts, deletes, counter=applied)
            return self.engine.execute(self.prepared, None, counter=executed, workers=1)

        result, wall = self.timer(body)
        return result, wall, _counters(applied, executed)

    def _read(self, view: Key) -> tuple[Any, float, dict[str, int]]:
        counter = DominanceCounter()
        result, wall = self.timer(lambda: view.query().execute(
            self.prepared.dataset, algorithm=None, engine=self.engine, counter=counter))
        return result, wall, _counters(counter)

    def op(self, i: int) -> Record:
        step = i % self.round_size
        if step == 0:
            result, wall, counters = self._write(i // self.round_size + 1)
            label = f"write {i // self.round_size}"
            kind = "write"
        else:
            view = self.views[step - 1]
            result, wall, counters = self._read(view)
            label, kind = str(view), "read"
        return Record(kind, label, wall, _sorted_ids(result.indices), counters, _plan(result))

    def check(self, records: list[Record]) -> tuple[list[bool], str]:
        # Replay the batches on a plain array: deletes close ranks in order,
        # inserts append after the survivors.
        def apply(values: np.ndarray, k: int) -> np.ndarray:
            inserts, deletes = self.batch(k)
            return np.vstack([np.delete(values, deletes, axis=0), inserts])

        values = apply(self.dataset(self.seed).values, 0)
        ok: list[bool] = []
        reads = writes = 0
        total_writes = -(-len(records) // self.round_size)
        last_write = (total_writes - 1) * self.round_size
        for i, record in enumerate(records):
            step = i % self.round_size
            if step == 0:
                values = apply(values, i // self.round_size + 1)
                if i // self.round_size in self.sample or i == last_write:
                    writes += 1
                    reference = _reference(values, self.WRITE_REFERENCE)
                    ok.append(record.error is None and np.array_equal(record.ids, reference))
                else:
                    ok.append(record.error is None)
            else:
                reads += 1
                view = self.views[step - 1]
                reference = skyline_2d(_projection(values, view.minimize, view.maximize))
                ok.append(record.error is None and np.array_equal(record.ids, reference))
        if records and not np.array_equal(values, self.prepared.dataset.values):
            ok[last_write] = False
        return ok, (f"{reads}/{reads} reads against a 2-d sweep; "
                    f"{writes}/{total_writes} writes (sample {sorted(self.sample)} and the last) "
                    f"and the final values against {self.WRITE_REFERENCE}")


WORKLOADS: dict[str, Callable[[int, Path], Workload]] = {
    cls.name: cls for cls in (Oneshot, Mutate)
}
