"""Unit tests for the multiprocessing parallel skyline."""

import os

import numpy as np
import pytest

from repro.data import generate
from repro.errors import InvalidParameterError
from repro.extensions.parallel import (
    SkylineWorkerPool,
    assemble_candidates,
    default_workers,
    parallel_skyline,
)
from repro.stats.counters import DominanceCounter
from tests.conftest import brute_skyline_ids


@pytest.fixture(scope="module")
def dataset():
    return generate("UI", n=600, d=4, seed=5)


class TestParallelSkyline:
    def test_workers_validation(self, dataset):
        with pytest.raises(InvalidParameterError):
            parallel_skyline(dataset, workers=0)

    def test_single_worker_is_sequential(self, dataset):
        got = parallel_skyline(dataset, workers=1)
        assert list(got) == brute_skyline_ids(dataset.values)

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_matches_oracle(self, workers, dataset):
        got = parallel_skyline(dataset, workers=workers)
        assert list(got) == brute_skyline_ids(dataset.values)

    def test_more_workers_than_points(self):
        values = np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]])
        got = parallel_skyline(values, workers=16)
        assert list(got) == [0, 1]

    def test_counter_includes_worker_tests(self, dataset):
        counter = DominanceCounter()
        parallel_skyline(dataset, workers=2, counter=counter)
        sequential = DominanceCounter()
        parallel_skyline(dataset, workers=1, counter=sequential)
        assert counter.tests > 0
        # Workers test within blocks plus a merge pass: roughly comparable
        # magnitude to the sequential run, never orders of magnitude off.
        assert counter.tests < 10 * sequential.tests + dataset.cardinality

    def test_algorithm_choices(self, dataset):
        got = parallel_skyline(
            dataset, workers=2, algorithm="salsa", merge_algorithm="sdi"
        )
        assert list(got) == brute_skyline_ids(dataset.values)

    def test_boosted_blocks_with_boosted_merge(self, dataset):
        """Local boosted scans + merge through the subset index."""
        got = parallel_skyline(
            dataset,
            workers=2,
            algorithm="sfs-subset",
            merge_algorithm="sfs-subset",
        )
        assert list(got) == brute_skyline_ids(dataset.values)

    def test_duplicate_heavy(self, duplicate_heavy):
        got = parallel_skyline(duplicate_heavy, workers=3)
        assert list(got) == brute_skyline_ids(duplicate_heavy.values)

    def test_default_workers_is_cpu_count(self):
        # The former hard cap of 8 is gone: the default follows the host,
        # and the planner (not this function) bounds the effective count.
        assert default_workers() == max(1, os.cpu_count() or 1)

    def test_workers_defaults_when_omitted(self, dataset):
        got = parallel_skyline(dataset)
        assert list(got) == brute_skyline_ids(dataset.values)

    @pytest.mark.parametrize("partition", ["sorted", "even"])
    @pytest.mark.parametrize("prefix_size", [0, 4, None])
    def test_partition_and_prefix_matrix(self, dataset, partition, prefix_size):
        got = parallel_skyline(
            dataset,
            workers=3,
            algorithm="sfs-subset",
            merge_algorithm="sfs-subset",
            partition=partition,
            prefix_size=prefix_size,
        )
        assert list(got) == brute_skyline_ids(dataset.values)

    def test_block_growth_preserves_results(self, dataset):
        got = parallel_skyline(dataset, workers=3, block_growth=2.0)
        assert list(got) == brute_skyline_ids(dataset.values)

    def test_invalid_partition_rejected(self, dataset):
        with pytest.raises(InvalidParameterError):
            parallel_skyline(dataset, workers=2, partition="striped")

    def test_negative_prefix_size_rejected(self, dataset):
        with pytest.raises(InvalidParameterError):
            parallel_skyline(dataset, workers=2, prefix_size=-1)

    def test_head_subdivision_preserves_results(self, dataset, monkeypatch):
        # Force the large-n head split onto a small dataset: the head
        # region shatters into per-worker sub-blocks and the seeded merge
        # must still reproduce the serial skyline exactly.
        import repro.extensions.parallel as parallel_module

        monkeypatch.setattr(parallel_module, "_HEAD_SPLIT_MIN_N", 0)
        monkeypatch.setattr(parallel_module, "_MIN_HEAD_SUB_ROWS", 25)
        with SkylineWorkerPool(workers=3) as pool:
            got = parallel_skyline(dataset, workers=3, pool=pool)
            assert list(got) == brute_skyline_ids(dataset.values)
            # 3 head sub-blocks + 2 tail blocks were dispatched, on a
            # pool still capped at 3 processes.
            assert pool.stats["tasks_dispatched"] == 5
            assert pool.processes == 3


class TestAssembleCandidates:
    def test_sorted_intp_union(self):
        parts = [
            np.array([7, 3], dtype=np.intp),
            np.array([], dtype=np.intp),
            np.array([5, 1], dtype=np.int64),
        ]
        union = assemble_candidates(parts)
        assert union.dtype == np.intp
        assert union.tolist() == [1, 3, 5, 7]

    def test_empty_parts(self):
        union = assemble_candidates([])
        assert union.dtype == np.intp
        assert union.size == 0


class TestWorkerPoolReuse:
    def test_repeated_calls_reuse_pool_and_segment(self, dataset):
        with SkylineWorkerPool(workers=2) as pool:
            first = parallel_skyline(dataset, workers=2, pool=pool)
            second = parallel_skyline(dataset, workers=2, pool=pool)
            assert list(first) == list(second)
            assert list(first) == brute_skyline_ids(dataset.values)
            # One pool of processes, one shared-memory copy of the dataset:
            # the second call dispatched block bounds only, no array pickle.
            assert pool.stats["pool_starts"] == 1
            assert pool.stats["segments_created"] == 1
            assert pool.stats["segments_reused"] == 1
            assert pool.stats["tasks_dispatched"] == 4

    def test_distinct_datasets_get_distinct_segments(self, dataset):
        other = generate("CO", n=200, d=3, seed=11)
        with SkylineWorkerPool(workers=2) as pool:
            parallel_skyline(dataset, workers=2, pool=pool)
            parallel_skyline(other, workers=2, pool=pool)
            assert pool.stats["segments_created"] == 2
            assert pool.stats["pool_starts"] == 1

    def test_segment_cache_evicts_oldest(self, dataset):
        with SkylineWorkerPool(workers=2, max_segments=1) as pool:
            other = generate("CO", n=200, d=3, seed=11)
            parallel_skyline(dataset, workers=2, pool=pool)
            parallel_skyline(other, workers=2, pool=pool)
            parallel_skyline(dataset, workers=2, pool=pool)
            # The first segment was evicted to admit the second, so the
            # third call had to recreate it.
            assert pool.stats["segments_created"] == 3
            assert pool.stats["segments_reused"] == 0

    def test_pool_grows_for_larger_calls(self, dataset):
        with SkylineWorkerPool(workers=2) as pool:
            parallel_skyline(dataset, workers=2, pool=pool)
            parallel_skyline(dataset, workers=4, pool=pool)
            assert pool.processes >= 4
            assert pool.stats["pool_starts"] == 2

    def test_invalid_pool_size(self):
        with pytest.raises(InvalidParameterError):
            SkylineWorkerPool(workers=0)

    def test_order_segment_created_once(self, dataset):
        with SkylineWorkerPool(workers=2) as pool:
            parallel_skyline(dataset, workers=2, pool=pool, partition="sorted")
            parallel_skyline(dataset, workers=2, pool=pool, partition="sorted")
            assert pool.stats["order_segments_created"] == 1
            assert pool.stats["segments_created"] == 1

    def test_even_partition_needs_no_order_segment(self, dataset):
        with SkylineWorkerPool(workers=2) as pool:
            parallel_skyline(
                dataset, workers=2, pool=pool, partition="even", prefix_size=0
            )
            assert pool.stats["order_segments_created"] == 0


class TestTracedSpans:
    def test_prefix_span_visible_in_phase_aggregation(self, dataset):
        from repro.engine import SkylineEngine
        from repro.engine.context import ExecutionContext
        from repro.obs import Tracer, aggregate_phases

        engine = SkylineEngine(ExecutionContext(tracer=Tracer()))
        result = engine.execute(
            dataset, "sfs-subset", workers=2, parallel_strategy="prefix"
        )
        engine.close()
        phases = {phase.name for phase in aggregate_phases(result.trace)}
        assert {"parallel.prefix", "parallel.map", "parallel.merge"} <= phases


class TestDominanceBudget:
    def test_parallel_dt_within_budget_on_ui_50k(self):
        """Regression: parallel charged DT stays <= 1.2x serial (UI 50k).

        The PR 5 scheme recorded ~1.6x; the prefix exchange + sort-order
        partitioning + seeded merge must keep the redundancy within the
        bench's enforced budget on the bench's own configuration.
        """
        from repro.engine import SkylineEngine

        dataset = generate("UI", n=50_000, d=6, seed=0)
        serial = DominanceCounter()
        engine = SkylineEngine()
        serial_result = engine.execute(
            dataset, "sdi-subset", counter=serial, workers=1
        )
        engine.close()
        parallel = DominanceCounter()
        engine = SkylineEngine()
        parallel_result = engine.execute(
            dataset, "sdi-subset", counter=parallel, workers=2
        )
        engine.close()
        assert list(serial_result.indices) == list(parallel_result.indices)
        assert parallel.tests <= 1.2 * serial.tests
