"""Unit tests for BBS over the R-tree."""

import numpy as np
import pytest

from repro.algorithms.bbs import BBS
from repro.dataset import Dataset
from repro.errors import InvalidParameterError
from repro.stats.counters import DominanceCounter
from tests.conftest import brute_skyline_ids


class TestBBS:
    def test_fanout_validation(self):
        with pytest.raises(InvalidParameterError):
            BBS(max_entries=1)

    @pytest.mark.parametrize("fanout", [2, 4, 32])
    def test_correct_for_any_fanout(self, fanout, ui_small):
        result = BBS(max_entries=fanout).compute(ui_small)
        assert list(result.indices) == brute_skyline_ids(ui_small.values)

    def test_node_pruning_reduces_tests_vs_bruteforce(self, ui_medium):
        from repro.algorithms.bruteforce import BruteForce

        bbs_counter = DominanceCounter()
        brute_counter = DominanceCounter()
        BBS().compute(ui_medium, counter=bbs_counter)
        BruteForce().compute(ui_medium, counter=brute_counter)
        assert bbs_counter.tests < brute_counter.tests

    def test_dominated_subtree_never_yields_skyline(self):
        # A cluster near the origin plus a far dominated cluster: the far
        # cluster's nodes must be pruned wholesale.
        rng = np.random.default_rng(1)
        near = rng.random((50, 3)) * 0.1
        far = rng.random((200, 3)) * 0.1 + 0.8
        values = np.vstack([near, far])
        result = BBS(max_entries=4).compute(Dataset(values))
        assert max(result.indices) < 50

    def test_duplicate_points(self, duplicate_heavy):
        result = BBS().compute(duplicate_heavy)
        assert list(result.indices) == brute_skyline_ids(duplicate_heavy.values)

    def test_dominance_tests_use_the_raw_frame(self):
        # Shifting by the corner (-1, 1) rounds 1e-17 away and makes rows
        # 0 and 1 equal, but row 0 dominates row 1.
        values = np.array([[0.0, 1.0], [1e-17, 1.0], [-1.0, 2.0]])
        assert list(BBS().compute(values).indices) == [0, 2]

    def test_negative_coordinates_shifted_safely(self, with_negatives):
        result = BBS().compute(with_negatives)
        assert list(result.indices) == brute_skyline_ids(with_negatives.values)
