"""Unit tests for the dominance counter."""

import pytest

from repro.stats.counters import DominanceCounter


class TestDominanceCounter:
    def test_starts_at_zero(self):
        counter = DominanceCounter()
        assert counter.tests == 0
        assert counter.index_queries == 0
        assert counter.index_nodes_visited == 0

    def test_add_default_and_bulk(self):
        counter = DominanceCounter()
        counter.add()
        counter.add(10)
        assert counter.tests == 11

    def test_add_query(self):
        counter = DominanceCounter()
        counter.add_query(5)
        counter.add_query(3)
        assert counter.index_queries == 2
        assert counter.index_nodes_visited == 8

    def test_mean_tests(self):
        counter = DominanceCounter(tests=500)
        assert counter.mean_tests(100) == 5.0

    def test_mean_tests_rejects_bad_cardinality(self):
        with pytest.raises(ValueError):
            DominanceCounter().mean_tests(0)

    def test_reset(self):
        counter = DominanceCounter(tests=3)
        counter.add_query(2)
        counter.extras["x"] = 1.0
        counter.reset()
        assert counter.tests == 0
        assert counter.index_queries == 0
        assert counter.index_nodes_visited == 0
        assert counter.extras == {}


class TestAsDict:
    def test_scalar_fields_in_declaration_order(self):
        counter = DominanceCounter(tests=5, prepared_cache_hits=2)
        tallies = counter.as_dict()
        assert list(tallies) == [
            "tests",
            "index_queries",
            "index_nodes_visited",
            "prepared_cache_hits",
            "prepared_cache_misses",
        ]
        assert tallies["tests"] == 5.0
        assert tallies["prepared_cache_hits"] == 2.0

    def test_values_are_floats(self):
        tallies = DominanceCounter(tests=3).as_dict()
        assert all(type(value) is float for value in tallies.values())

    def test_extras_sorted_under_prefix_after_scalars(self):
        counter = DominanceCounter()
        counter.extras["zeta"] = 1.0
        counter.extras["alpha"] = 2.0
        keys = list(counter.as_dict())
        assert keys[-2:] == ["extras.alpha", "extras.zeta"]

    def test_two_snapshots_diff_key_by_key(self):
        counter = DominanceCounter()
        before = counter.as_dict()
        counter.add(9)
        counter.add_prepared_hit()
        delta = {
            key: value - before[key]
            for key, value in counter.as_dict().items()
            if value != before[key]
        }
        assert delta == {"tests": 9.0, "prepared_cache_hits": 1.0}


class TestSnapshot:
    def test_snapshot_copies_every_tally(self):
        counter = DominanceCounter(tests=4, index_queries=2)
        counter.extras["x"] = 1.5
        copy = counter.snapshot()
        assert copy == counter

    def test_snapshot_is_independent(self):
        counter = DominanceCounter(tests=1)
        counter.extras["x"] = 1.0
        copy = counter.snapshot()
        counter.add(10)
        counter.extras["x"] = 99.0
        assert copy.tests == 1
        assert copy.extras == {"x": 1.0}
