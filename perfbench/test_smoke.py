"""Smoke test of the benchmark: every workload at a tiny size.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as bench  # noqa: E402
import workloads  # noqa: E402

SEED = 3


@pytest.fixture(autouse=True)
def tiny(monkeypatch) -> None:
    """Every workload at about 1% of its rows, oneshot with three CSVs."""
    for cls, rows in ((workloads.Oneshot, 200), (workloads.Mutate, 1000)):
        monkeypatch.setattr(cls, "rows", rows)
    monkeypatch.setattr(workloads.Oneshot, "CSVS", 3)


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def _declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def test_two_column_reference_matches_bruteforce_with_ties() -> None:
    from repro import SkylineEngine

    rng = np.random.default_rng(0)
    for _ in range(200):
        values = rng.integers(0, 6, size=(int(rng.integers(1, 60)), 2)).astype(float)
        expected = np.sort(SkylineEngine().execute(values, "bruteforce").indices)
        assert np.array_equal(workloads.skyline_2d(values), expected)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(name: str, trace: int, capsys) -> None:
    code = bench.main(["--workload", name, "--seed", str(SEED), "--seconds", "0.2",
                       "--trace", str(trace)])
    result = _result(capsys)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_matches_untraced_ids_and_counters(name: str, tmp_path: Path) -> None:
    ops = 2 * workloads.WORKLOADS[name].round_size
    untraced = bench.run_untraced(name, SEED, 0.0, tmp_path, ops=ops)
    traced = bench.run_traced(name, SEED, tmp_path, ops)
    assert len(traced["records"]) == len(untraced["records"]) == ops
    for plain, timed in zip(untraced["records"], traced["records"]):
        assert np.array_equal(plain.ids, timed.ids)
        assert plain.counters == timed.counters  # charged DT and every other counter
    _, _, consistent = bench.per_layer(untraced, traced)
    assert consistent


def test_layers_that_miss_the_wall_time_are_caught(monkeypatch, tmp_path: Path) -> None:
    traced = bench.run_traced("mutate", SEED, tmp_path, 2)
    record, layers = traced["records"][0], traced["layers"][0]
    assert bench.adds_up(record, layers)
    wall = record.wall_s
    for shifted in (wall + 1e-6, wall - 1e-6):
        record.wall_s = shifted
        assert not bench.adds_up(record, layers)

    # Program work after the timed call: its spans escape the root span.
    original = workloads.Mutate.op

    def op_then_read(self, i):
        record = original(self, i)
        self.views[0].query().execute(self.prepared.dataset, algorithm=None, engine=self.engine)
        return record

    monkeypatch.setattr(workloads.Mutate, "op", op_then_read)
    traced = bench.run_traced("mutate", SEED, tmp_path, 2)
    assert not any(bench.adds_up(record, traced["layers"][op])
                   for op, record in enumerate(traced["records"]))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_counters(name: str, tmp_path: Path) -> None:
    ops = 2 * workloads.WORKLOADS[name].round_size
    first = bench.run_untraced(name, SEED, 0.0, tmp_path, ops=ops)
    second = bench.run_untraced(name, SEED, 0.0, tmp_path, ops=ops)
    assert bench.digest(first["records"]) == bench.digest(second["records"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_corrupted_id_is_counted_as_failed(name: str, monkeypatch, capsys) -> None:
    cls = workloads.WORKLOADS[name]
    original = cls.op

    def corrupt(self, i):
        record = original(self, i)
        if i == cls.round_size - 1:  # a read in every workload
            record.ids = np.append(record.ids, -1)
        return record

    monkeypatch.setattr(cls, "op", corrupt)
    code = bench.main(["--workload", name, "--seed", str(SEED), "--seconds", "0"])
    out = capsys.readouterr().out.splitlines()
    result = json.loads(out[-1])
    attempted = result["attempted"]
    assert code == 1 and result["correct"] is False and result["failed"] == 1
    assert any(line.split()[:1] == ["failed_ratio"] and f"(1/{attempted})" in line
               for line in (line.strip() for line in out))
