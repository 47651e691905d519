"""Unit tests for the skyline container abstraction."""

import numpy as np
import pytest

from repro.core.container import ListContainer, SubsetContainer
from repro.stats.counters import DominanceCounter


@pytest.fixture
def values():
    rng = np.random.default_rng(0)
    return rng.random((50, 4))


class TestListContainer:
    def test_empty(self, values):
        c = ListContainer(values)
        ids, block = c.candidates(0)
        assert len(c) == 0
        assert ids.shape == (0,)
        assert block.shape[0] == 0

    def test_candidates_ignore_mask(self, values):
        c = ListContainer(values)
        c.add(3, 0b0001)
        c.add(7, 0b1000)
        for mask in (0, 0b0001, 0b1111):
            ids, block = c.candidates(mask)
            assert list(ids) == [3, 7]
            assert np.array_equal(block, values[[3, 7]])

    def test_insertion_order_preserved(self, values):
        c = ListContainer(values)
        for pid in (9, 2, 5):
            c.add(pid, 0)
        ids, _ = c.candidates(0)
        assert list(ids) == [9, 2, 5]
        assert c.ids() == [9, 2, 5]

    def test_growth_beyond_initial_capacity(self, values):
        big = np.tile(values, (3, 1))
        c = ListContainer(big)
        for pid in range(130):
            c.add(pid, 0)
        ids, block = c.candidates(0)
        assert len(ids) == 130
        assert np.array_equal(block, big[:130])


class TestSubsetContainer:
    def test_candidates_filtered_by_superset(self, values):
        c = SubsetContainer(values, d=4)
        c.add(1, 0b0011)
        c.add(2, 0b1111)
        c.add(3, 0b0100)
        ids, block = c.candidates(0b0011)
        assert sorted(ids) == [1, 2]
        assert block.shape == (2, 4)

    def test_block_rows_match_ids(self, values):
        c = SubsetContainer(values, d=4)
        c.add(5, 0b0101)
        ids, block = c.candidates(0b0101)
        assert np.array_equal(block[0], values[5])

    def test_counter_wired_to_queries(self, values):
        counter = DominanceCounter()
        c = SubsetContainer(values, d=4, counter=counter)
        c.add(0, 0b0001)
        c.candidates(0b0001)
        assert counter.index_queries == 1

    def test_ids_and_len(self, values):
        c = SubsetContainer(values, d=4)
        c.add(1, 0b0001)
        c.add(2, 0b0010)
        assert len(c) == 2
        assert sorted(c.ids()) == [1, 2]

    def test_index_exposed(self, values):
        c = SubsetContainer(values, d=4)
        c.add(1, 0b0001)
        assert len(c.index) == 1

    def test_ids_keep_insertion_order_across_removals(self, values):
        c = SubsetContainer(values, d=4)
        for pid, mask in ((9, 0b0001), (2, 0b0011), (5, 0b0101), (7, 0b1111)):
            c.add(pid, mask)
        c.remove(2, 0b0011)
        c.add(2, 0b0010)
        c.remove(9, 0b0001)
        c.add(9, 0b0001)
        c.remove(5, 0b0101)
        assert c.ids() == [7, 2, 9]
        assert len(c) == 3


#: Stored masks cycle through these; candidates(0b0001) keeps the first three.
_MASKS = (0b0001, 0b0011, 0b1111, 0b0010)


@pytest.mark.parametrize("make", [ListContainer, lambda v: SubsetContainer(v, d=4)])
def test_blocks_are_column_backed_and_never_change(make):
    values = np.random.default_rng(1).random((300, 4))
    c = make(values)
    handed_out = []
    for pid in range(300):
        c.add(pid, _MASKS[pid % 4])
        if pid in (0, 3, 40, 150):  # before and after buffer growth
            ids, block = c.candidates(0b0001)
            # Column-backed: the transpose of a (d, capacity) buffer, so
            # each column is one contiguous run (the whole transpose is
            # C-contiguous only when the buffer is full).
            assert block.strides[0] == block.itemsize
            assert block.base.flags.c_contiguous and block.base.shape[0] == 4
            assert np.array_equal(block, values[ids])
            handed_out.append((block, block.copy()))
    for block, snapshot in handed_out:
        assert np.array_equal(block, snapshot)
