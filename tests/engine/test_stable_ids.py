"""Stable row ids inside the prepared layer, positional ids at the API edge."""

import numpy as np
import pytest

from repro.engine import SkylineEngine
from repro.engine.delta import remap_ids, stable_ids
from repro.engine.prepared import PreparedDataset
from tests.conftest import brute_skyline_ids


def _mutated_values(values, inserts, deletes):
    kept = np.delete(values, deletes, axis=0) if len(deletes) else values
    return np.vstack([kept, inserts]) if len(inserts) else kept


@pytest.fixture()
def seeded_delta(ui_small):
    rng = np.random.default_rng(5)
    deletes = np.sort(rng.choice(ui_small.cardinality, size=6, replace=False))
    inserts = rng.random((6, ui_small.dimensionality))
    return inserts, deletes


class TestStableIds:
    """Rows keep stable ids inside the prepared layer; callers see positions."""

    def test_stable_ids_invert_remap_ids(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            issued = int(rng.integers(1, 60))
            tombstones = np.sort(
                rng.choice(issued, size=int(rng.integers(0, issued)), replace=False)
            )
            live = np.setdiff1d(np.arange(issued), tombstones)
            positions = np.arange(live.size)
            assert np.array_equal(stable_ids(positions, tombstones), live)
            assert np.array_equal(remap_ids(live, tombstones), positions)

    def test_a_repair_delta_appends_and_tombstones(self, ui_small, seeded_delta):
        inserts, deletes = seeded_delta
        prepared = PreparedDataset(ui_small)
        view = prepared.view([0, 1])
        prepared.apply_delta(inserts, deletes)
        n = ui_small.cardinality
        assert prepared._issued == n + len(inserts)
        assert prepared._tombstones.tolist() == deletes.tolist()
        # The view repaired without rebuilding its positional rows.
        assert view._dataset is None
        expected = _mutated_values(ui_small.values, inserts, deletes)
        np.testing.assert_array_equal(view.values, expected[:, [0, 1]])

    def test_the_replay_stream_reads_the_prepared_rows(self, ui_small, seeded_delta):
        inserts, deletes = seeded_delta
        engine = SkylineEngine()
        engine.execute(ui_small)
        prepared = engine.prepare(ui_small)
        engine.apply_delta(prepared, inserts, deletes)
        assert engine.execute(prepared).plan.incremental
        assert prepared._stream._row_store is prepared._row_store

    def test_tombstones_compact_once_they_outnumber_live_rows(self):
        rng = np.random.default_rng(42)
        values = rng.random((60, 3))
        engine = SkylineEngine()
        prepared = engine.prepare(values)
        engine.execute(prepared)
        for _ in range(40):
            deletes = rng.choice(prepared.cardinality, size=2, replace=False)
            inserts = rng.random((2, 3))
            engine.apply_delta(prepared, inserts, deletes, mode="repair")
            values = _mutated_values(values, inserts, np.sort(deletes))
            result = engine.execute(prepared, incremental=True)
            assert result.indices.tolist() == brute_skyline_ids(values)
            assert prepared._tombstones.size <= prepared.cardinality
        np.testing.assert_array_equal(prepared.values, values)

    def test_tombstones_compact_without_a_noted_skyline(self):
        rng = np.random.default_rng(43)
        values = rng.random((30, 2))
        prepared = PreparedDataset(values)
        prepared.merged()
        for _ in range(40):
            deletes = np.sort(rng.choice(prepared.cardinality, size=2, replace=False))
            inserts = rng.random((2, 2))
            prepared.apply_delta(inserts, deletes, mode="repair")
            values = _mutated_values(values, inserts, deletes)
            assert prepared._tombstones.size <= prepared.cardinality
            np.testing.assert_array_equal(prepared.values, values)
        result = SkylineEngine().execute(prepared, "sfs-subset")
        assert result.indices.tolist() == brute_skyline_ids(values)
