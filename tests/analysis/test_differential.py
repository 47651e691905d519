"""Differential harness: oracle agreement, divergence detection, minimization."""

import numpy as np

from repro.algorithms.sfs import SFS
from repro.analysis.differential import (
    TIE_LEVELS,
    minimize_counterexample,
    oracle_skyline,
    run_differential,
)
from tests.conftest import brute_skyline_ids


class TestOracle:
    def test_matches_independent_brute_force(self):
        rng = np.random.default_rng(4)
        values = rng.random((60, 3))
        assert oracle_skyline(values) == brute_skyline_ids(values)

    def test_handles_duplicates(self):
        values = np.array([[0.5, 0.5], [0.5, 0.5], [0.9, 0.9]])
        assert oracle_skyline(values) == [0, 1]


class TestHarness:
    def test_registry_is_clean_on_small_matrix(self):
        failures = run_differential(kinds=("UI",), n=60, d=4, seeds=(2,))
        assert failures == []

    def test_detects_and_minimizes_a_broken_algorithm(self, monkeypatch):
        original = SFS.run_phase

        def drops_last(self, dataset, ids, masks, container, counter):
            result = original(self, dataset, ids, masks, container, counter)
            return result[:-1] if len(result) > 1 else result

        monkeypatch.setattr(SFS, "run_phase", drops_last)
        failures = run_differential(
            algorithms=("sfs",), kinds=("UI",), n=60, d=4, seeds=(2,)
        )
        assert len(failures) == 1
        failure = failures[0]
        assert failure.algorithm == "sfs"
        assert failure.missing  # it loses skyline points
        # ddmin shrinks the witness far below the original 60 rows
        assert 1 <= len(failure.minimized_rows) <= 6
        assert "diverges" in failure.describe()

    def test_minimized_dataset_still_diverges(self, monkeypatch):
        original = SFS.run_phase

        def drops_last(self, dataset, ids, masks, container, counter):
            result = original(self, dataset, ids, masks, container, counter)
            return result[:-1] if len(result) > 1 else result

        monkeypatch.setattr(SFS, "run_phase", drops_last)
        rng = np.random.default_rng(8)
        values = rng.random((40, 3))
        small = minimize_counterexample("sfs", values)
        assert small.shape[0] <= values.shape[0]
        from repro.algorithms.registry import get_algorithm

        got = sorted(int(i) for i in get_algorithm("sfs").compute(small).indices)
        assert got != oracle_skyline(small)

    def test_tie_regime_catches_a_sum_only_scan_order(self, monkeypatch):
        # The scan order before ties were broken on the columns: a victim
        # that ties its dominator on (key, sum) may be scanned first.
        import repro.algorithms.base as base_module
        import repro.algorithms.sfs as sfs_module

        def sum_only(rows, key=None):
            return np.lexsort((rows.sum(axis=1), key))

        for module in (base_module, sfs_module):
            monkeypatch.setattr(module, "scan_order", sum_only)
        assert run_differential(algorithms=("sfs",), kinds=("UI", "CO", "AC")) == []
        failures = run_differential(algorithms=("sfs",), kinds=("TIE",))
        assert len(failures) == 1 and failures[0].extra
        rows = np.array(failures[0].minimized_rows)
        assert 1 <= len(rows) <= 6
        assert set(np.unique(rows).tolist()) <= set(TIE_LEVELS)

    def test_crashing_algorithm_counts_as_divergent(self, monkeypatch):
        def explodes(self, dataset, ids, masks, container, counter):
            raise RuntimeError("boom")

        monkeypatch.setattr(SFS, "run_phase", explodes)
        rng = np.random.default_rng(8)
        values = rng.random((10, 3))
        # minimizer treats the crash as a persistent divergence and shrinks
        small = minimize_counterexample("sfs", values)
        assert small.shape[0] >= 1
