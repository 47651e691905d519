"""Delta-repair tests: ``apply_delta``, planner cost model, engine path."""

import numpy as np
import pytest

from repro.algorithms.registry import get_algorithm
from repro.core.merge import MergeResult
from repro.dataset import Dataset
from repro.dominance import dominates, dominating_subspaces
from repro.engine import ExecutionContext, Planner, SkylineEngine
from repro.engine.delta import remap_ids, repair_merge_result
from repro.engine.prepared import PreparedDataset
from repro.errors import InvalidParameterError
from repro.stats.counters import DominanceCounter
from repro.stats.estimate import expected_skyline_size
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


class TestApplyDelta:
    def test_noop_and_validation(self, ui_small):
        prepared = PreparedDataset(ui_small)
        version = prepared.version
        report = prepared.apply_delta(None, None)
        assert report.mode == "noop"
        assert prepared.version == version  # RPR008: no change, no bump
        with pytest.raises(InvalidParameterError):
            prepared.apply_delta(None, None, mode="sideways")
        with pytest.raises(InvalidParameterError):
            prepared.apply_delta(None, [ui_small.cardinality + 7])
        with pytest.raises(InvalidParameterError):
            prepared.apply_delta(None, np.arange(ui_small.cardinality))

    def test_repair_splices_values_and_bumps_version_once(
        self, ui_small, seeded_delta
    ):
        inserts, deletes = seeded_delta
        prepared = PreparedDataset(ui_small)
        version = prepared.version
        report = prepared.apply_delta(inserts, deletes)
        assert report.mode == "repair"
        assert report.inserted == 6 and report.deleted == 6
        assert prepared.version == version + 1  # RPR008: exactly one bump
        expected = _mutated_values(ui_small.values, inserts, deletes)
        np.testing.assert_array_equal(prepared.dataset.values, expected)

    def test_large_delta_falls_back_to_recompute(self, ui_small):
        rng = np.random.default_rng(6)
        prepared = PreparedDataset(ui_small)
        big = rng.random((ui_small.cardinality // 2, ui_small.dimensionality))
        report = prepared.apply_delta(big, None)
        assert report.mode == "recompute"

    def test_forced_modes_override_the_threshold(self, ui_small, seeded_delta):
        inserts, deletes = seeded_delta
        forced = PreparedDataset(ui_small)
        assert forced.apply_delta(inserts, deletes, mode="recompute").mode == (
            "recompute"
        )
        rng = np.random.default_rng(7)
        big = rng.random((ui_small.cardinality, ui_small.dimensionality))
        repaired = PreparedDataset(ui_small)
        assert repaired.apply_delta(big, None, mode="repair").mode == "repair"

    def test_remap_ids_closes_ranks(self):
        survivors = np.asarray([0, 2, 3, 5])
        new_ids = remap_ids(survivors, np.asarray([1, 4]))
        # Rows 1 and 4 die; survivors close ranks in order.
        assert new_ids.tolist() == [0, 1, 2, 3]

    def test_merge_and_sort_caches_survive_a_small_delta(
        self, ui_small, seeded_delta
    ):
        inserts, deletes = seeded_delta
        engine = SkylineEngine()
        engine.execute(ui_small, "sfs-subset")  # warm merge + sort caches
        prepared = engine.prepare(ui_small)
        report = prepared.apply_delta(inserts, deletes)
        assert report.merge_repaired + report.merge_dropped >= 1
        assert report.sort_tagged + report.sort_dropped >= 1
        # The repaired caches must still produce the exact skyline.
        result = engine.execute(prepared, "sfs-subset")
        expected = brute_skyline_ids(prepared.dataset.values)
        assert sorted(result.indices.tolist()) == expected


def _assert_exact_minima(prepared):
    assert np.array_equal(prepared.minima(), prepared.values.min(axis=0))


def _classify_pivot_by_pivot(pivots, rows, inserts, first_new, counter):
    """The per-pivot loop: ``(remaining, masks, duplicates)`` of the
    inserts, or ``None`` once an insert dominates a pivot."""
    k = inserts.shape[0]
    survivors = np.ones(k, dtype=bool)
    duplicates = np.zeros(k, dtype=bool)
    masks = np.zeros(k, dtype=np.int64)
    for pivot_id in pivots:
        pivot_row = rows[pivot_id]
        subs = dominating_subspaces(inserts, pivot_row, counter)
        if any(dominates(row, pivot_row) for row in inserts):
            return None
        equal = (inserts == pivot_row).all(axis=1)
        duplicates |= equal
        survivors &= ~((subs == 0) | equal)
        masks |= subs
    new = first_new + np.arange(k)
    return new[survivors].tolist(), masks[survivors].tolist(), new[duplicates].tolist()


class TestRepairMergeResult:
    """One broadcast over every pivot classifies and charges like the loop."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_pivot_loop(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        base = rng.integers(0, 4, size=(12, d)).astype(float)
        inserts = rng.integers(0, 5, size=(int(rng.integers(0, 6)), d)).astype(float)
        rows = np.vstack([base, inserts])
        pivots = rng.choice(12, size=int(rng.integers(0, 5)), replace=False).tolist()
        result = MergeResult(
            pivot_ids=pivots,
            duplicate_skyline_ids=[],
            remaining_ids=np.empty(0, dtype=np.intp),
            masks=np.empty(0, dtype=np.int64),
            iterations=len(pivots),
            final_stability=0,
            exhausted=False,
        )
        loop_counter, counter = DominanceCounter(), DominanceCounter()
        expected = _classify_pivot_by_pivot(pivots, rows, inserts, 12, loop_counter)
        got = repair_merge_result(
            result, rows, inserts, np.empty(0, dtype=np.intp), 12, len(rows), counter
        )
        assert counter.tests == loop_counter.tests
        if expected is None:
            assert got is None
        else:
            assert (
                got.remaining_ids.tolist(),
                got.masks.tolist(),
                got.duplicate_skyline_ids,
            ) == expected


class TestColumnExtrema:
    """The column minima carried across deltas equal a cold reduction."""

    def test_holders_ties_beyond_and_full_turnover(self):
        rng = np.random.default_rng(21)
        values = rng.random((30, 3))
        prepared = PreparedDataset(values)
        prepared.minima()  # reduced once here; every delta maintains it
        holders = {int(values[:, 0].argmin()), int(values[:, 1].argmax())}
        prepared.apply_delta(None, sorted(holders), mode="repair")
        _assert_exact_minima(prepared)
        # Tie column 2's minimum, then delete its first holder.
        holder = int(prepared.values[:, 2].argmin())
        tie = np.array([[0.5, 0.5, prepared.values[holder, 2]]])
        prepared.apply_delta(tie, None, mode="repair")
        prepared.apply_delta(None, [holder], mode="repair")
        _assert_exact_minima(prepared)
        assert prepared.minima()[2] == tie[0, 2]
        prepared.apply_delta([[-1.0, -1.0, -1.0], [2.0, 2.0, 2.0]], None, mode="repair")
        _assert_exact_minima(prepared)
        # Replace every row: the minima come from the inserts alone.
        fresh = rng.random((4, 3)) + 5.0
        prepared.apply_delta(fresh, np.arange(prepared.cardinality), mode="repair")
        _assert_exact_minima(prepared)
        assert np.array_equal(prepared.minima(), fresh.min(axis=0))

    def test_random_deltas_on_tie_heavy_data(self):
        rng = np.random.default_rng(22)
        prepared = PreparedDataset(rng.integers(0, 4, size=(40, 3)).astype(float))
        prepared.minima()
        for _ in range(150):
            n = prepared.cardinality
            deletes = rng.choice(n, size=int(rng.integers(0, min(3, n - 1) + 1)), replace=False)
            inserts = rng.integers(-1, 5, size=(int(rng.integers(0, 4)), 3)).astype(float)
            prepared.apply_delta(inserts, deletes, mode="repair")
            _assert_exact_minima(prepared)

    def test_recompute_and_invalidate_leave_no_stale_extrema(self, ui_small):
        prepared = PreparedDataset(ui_small)
        prepared.minima()
        beyond = np.full((1, ui_small.dimensionality), 2.0)  # above every UI value
        prepared.apply_delta(beyond, [0], mode="recompute")
        _assert_exact_minima(prepared)
        prepared.dataset = Dataset(ui_small.values * 3.0)  # rebound externally
        prepared.invalidate()
        _assert_exact_minima(prepared)


class TestMaximizeViewRepair:
    """A view maximizing a column negates it, so it repairs with every delta."""

    @staticmethod
    def _with_views(values):
        prepared = PreparedDataset(values)
        prepared.view([0, 2], maximize=[2])
        prepared.view([0, 1])
        return prepared

    def test_repaired_view_matches_a_cold_view_and_the_oracle(self):
        rng = np.random.default_rng(23)
        values = rng.random((200, 3))
        values[0, 2] = 2.0  # the maximum of the maximized column; row 0 stays
        engine = SkylineEngine()
        prepared = engine.prepare(values)
        view = prepared.view([0, 2], maximize=[2])
        engine.execute(view)  # the view's repair base
        for _ in range(4):
            deletes = np.sort(rng.choice(np.arange(1, prepared.cardinality), 3, replace=False))
            report = prepared.apply_delta(rng.random((3, 3)), deletes)
            assert (report.views_repaired, report.views_dropped) == (1, 0)
            assert prepared.view([0, 2], maximize=[2]) is view
            cold = PreparedDataset(prepared.values).view([0, 2], maximize=[2])
            assert np.array_equal(view.values, cold.values)
            result = engine.execute(view, incremental=True)
            oracle = get_algorithm("bruteforce").compute(cold.values).indices
            assert np.array_equal(result.indices, oracle)

    def test_a_tied_maximum_keeps_the_view(self):
        values = np.random.default_rng(24).random((100, 3))
        values[0, 2] = 2.0
        prepared = self._with_views(values)
        tie = prepared.apply_delta([[0.5, 0.5, 2.0]], None)
        holder_gone = prepared.apply_delta(None, [0])  # the tie still holds 2.0
        for report in (tie, holder_gone):
            assert (report.views_repaired, report.views_dropped) == (2, 0)
        cold = PreparedDataset(prepared.values).view([0, 2], maximize=[2])
        assert np.array_equal(prepared.view([0, 2], maximize=[2]).values, cold.values)

    @pytest.mark.parametrize(
        ("inserts", "deletes"),
        [([[0.5, 0.5, 3.0]], None), (None, [0])],
        ids=["insert-above", "delete-holder"],
    )
    def test_moving_a_flipped_maximum_drops_the_view(self, inserts, deletes):
        """A delta that moves the flipped column's maximum no longer drops
        the view: negation does not depend on the maximum, so the view is
        repaired like any other."""
        values = np.random.default_rng(25).random((100, 3))
        values[0, 2] = 2.0
        engine = SkylineEngine()
        prepared = engine.prepare(values)
        view = prepared.view([0, 2], maximize=[2])
        prepared.view([0, 1])
        engine.execute(view)  # the view's repair base
        report = prepared.apply_delta(inserts, deletes)
        assert (report.views_repaired, report.views_dropped) == (2, 0)
        assert prepared.cache_info()["views"] == 2
        assert prepared.view([0, 2], maximize=[2]) is view
        cold = PreparedDataset(prepared.values).view([0, 2], maximize=[2])
        assert np.array_equal(view.values, cold.values)
        result = engine.execute(view, incremental=True)
        assert result.plan.incremental
        assert sorted(result.indices.tolist()) == brute_skyline_ids(cold.values)


class TestRepairSkyline:
    def test_requires_a_noted_base(self, ui_small):
        prepared = PreparedDataset(ui_small)
        prepared.apply_delta(np.ones((1, ui_small.dimensionality)), None)
        with pytest.raises(InvalidParameterError):
            prepared.repair_skyline()

    def test_repair_matches_brute_force_and_stays_warm(
        self, ui_small, seeded_delta
    ):
        inserts, deletes = seeded_delta
        engine = SkylineEngine()
        engine.execute(ui_small)
        prepared = engine.prepare(ui_small)
        prepared.apply_delta(inserts, deletes)
        assert sorted(prepared.repair_skyline()) == brute_skyline_ids(
            prepared.dataset.values
        )
        # Second mutation reuses the bootstrapped stream.
        rng = np.random.default_rng(8)
        more = rng.random((4, ui_small.dimensionality))
        prepared.apply_delta(more, [0, 2])
        assert prepared.delta_state().stream_ready
        assert sorted(prepared.repair_skyline()) == brute_skyline_ids(
            prepared.dataset.values
        )


class TestPlannerIncremental:
    def _prepared_with_delta(self, engine, dataset, inserts, deletes):
        engine.execute(dataset)
        prepared = engine.prepare(dataset)
        prepared.apply_delta(inserts, deletes)
        return prepared

    def test_cost_model_selects_incremental(self, ui_small, seeded_delta):
        inserts, deletes = seeded_delta
        engine = SkylineEngine()
        prepared = self._prepared_with_delta(engine, ui_small, inserts, deletes)
        plan = engine.planner.plan(prepared, None, None)
        assert plan.incremental
        assert plan.algorithm == "incremental-repair"
        assert plan.pending_mutations == 12
        assert plan.repair_cost < plan.recompute_cost
        text = plan.explain()
        assert "incremental delta-repair" in text
        assert "12 pending ops" in text
        assert "repair-vs-recompute" in text and "delta repair" in text

    def test_incremental_plan_skips_the_statistics(self, ui_small, seeded_delta):
        inserts, deletes = seeded_delta
        engine = SkylineEngine()
        prepared = self._prepared_with_delta(engine, ui_small, inserts, deletes)
        counter = DominanceCounter()
        plan = engine.planner.plan(prepared, None, None, counter=counter)
        assert plan.incremental
        assert prepared.cache_info()["statistics"] == 0
        assert counter.prepared_cache_hits == counter.prepared_cache_misses == 0
        n, d = prepared.cardinality, prepared.dimensionality
        assert plan.signals == (
            ("n", float(n)),
            ("d", float(d)),
            ("expected_skyline", min(float(n), expected_skyline_size(n, d))),
        )

    def test_full_plan_after_a_delta_matches_fresh_statistics(
        self, ui_small, seeded_delta
    ):
        inserts, deletes = seeded_delta
        engine = SkylineEngine()
        prepared = self._prepared_with_delta(engine, ui_small, inserts, deletes)
        plan = engine.planner.plan(prepared, None, None, incremental=False)
        fresh = PreparedDataset(prepared.values)
        assert plan.signals == Planner().plan(fresh, None, None).signals
        assert dict(plan.signals)["correlation"] == fresh.statistics().correlation

    def test_incremental_false_forces_full_plan(self, ui_small, seeded_delta):
        inserts, deletes = seeded_delta
        engine = SkylineEngine()
        prepared = self._prepared_with_delta(engine, ui_small, inserts, deletes)
        plan = engine.planner.plan(prepared, None, None, incremental=False)
        assert not plan.incremental
        assert plan.pending_mutations == 12
        assert "full recompute" in plan.explain()

    def test_incremental_conflicts_with_pinned_algorithm(self, ui_small):
        engine = SkylineEngine()
        prepared = engine.prepare(ui_small)
        with pytest.raises(InvalidParameterError):
            engine.planner.plan(prepared, "sdi-subset", None, incremental=True)

    def test_incremental_without_delta_state_rejected(self, ui_small):
        engine = SkylineEngine()
        prepared = engine.prepare(ui_small)
        with pytest.raises(InvalidParameterError):
            engine.planner.plan(prepared, None, None, incremental=True)


class TestEnginePath:
    def test_incremental_execution_matches_recompute(
        self, ui_small, seeded_delta
    ):
        inserts, deletes = seeded_delta
        engine = SkylineEngine()
        engine.execute(ui_small)
        engine.apply_delta(ui_small, inserts=inserts, deletes=deletes)
        assert engine.context.deltas_recorded == 1
        result = engine.execute(ui_small)  # original handle, via rebind alias
        assert result.plan.incremental
        mutated = _mutated_values(ui_small.values, inserts, deletes)
        assert sorted(result.indices.tolist()) == brute_skyline_ids(mutated)

    def test_incremental_repair_with_an_equal_float_sum_dominator(self):
        values = np.random.default_rng(0).random((200, 2)) + 1.0
        values[50] = [1.0, 0.0]  # dominates every other row
        # Both inserts are dominated by row 50, the first with an equal
        # float sum (1.0 + 1e-17 == 1.0); two rows take the batched path.
        inserts = np.array([[1.0, 1e-17], [5.0, 5.0]])
        dataset = Dataset(values)
        engine = SkylineEngine()
        engine.execute(dataset)
        engine.apply_delta(dataset, inserts=inserts)
        result = engine.execute(dataset)
        assert result.plan.incremental
        assert sorted(result.indices.tolist()) == [50]
        assert brute_skyline_ids(np.vstack([values, inserts])) == [50]

    def test_repair_span_is_traced(self, ui_small, seeded_delta):
        from repro.obs import Tracer

        inserts, deletes = seeded_delta
        engine = SkylineEngine(ExecutionContext(tracer=Tracer()))
        engine.execute(ui_small)
        engine.apply_delta(ui_small, inserts=inserts, deletes=deletes)
        result = engine.execute(ui_small)
        spans = result.trace.find("engine.repair")
        assert len(spans) == 1
        assert spans[0].attrs["pending"] == 12

    def test_rebind_keeps_old_handle_addressing_the_mutated_data(
        self, ui_small, seeded_delta
    ):
        inserts, deletes = seeded_delta
        engine = SkylineEngine()
        engine.execute(ui_small)
        prepared = engine.prepare(ui_small)
        engine.apply_delta(ui_small, inserts=inserts, deletes=deletes)
        # Both the stale Dataset handle and the mutated array resolve to
        # the SAME prepared object — no silent re-prepare of old values.
        assert engine.prepare(ui_small) is prepared
        assert engine.prepare(prepared.dataset) is prepared

    def test_forced_recompute_through_the_engine(self, ui_small, seeded_delta):
        inserts, deletes = seeded_delta
        engine = SkylineEngine()
        engine.execute(ui_small)
        report = engine.apply_delta(
            ui_small, inserts=inserts, deletes=deletes, mode="recompute"
        )
        assert report.mode == "recompute"
        result = engine.execute(ui_small)
        assert not result.plan.incremental
        mutated = _mutated_values(ui_small.values, inserts, deletes)
        assert sorted(result.indices.tolist()) == brute_skyline_ids(mutated)
